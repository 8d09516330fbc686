"""The sparse product-table checks against the dense code they replaced.

The `dense_*` functions below are the product-algebra code as it stood
before associative and left-symmetric algebras were validated through
`liealg._associator`: copied verbatim, up to turning the `ProductAlgebra`
methods `product`, `product_table` and `basis_vector` into functions and
calling the copies from each other.  The sparse code must accept and reject
the same tables with the same exception and message, store the same table
and unit, and build the same Lie algebras and report conditions, on drawn
tables of dim <= 4 (among them non-associative, non-left-symmetric and
non-commutative ones, and wrong units) and on M_2, M_3, M_4, the dual
numbers and k[x]/(x^8).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liecp import catalog
from liecp.constructions import (
    _action_form_matrix,
    _module_subspace,
    _report,
    frobenius_associative_report,
    lsa_frobenius_report,
)
from liecp.cp import is_cp
from liecp.errors import LiecpError, NoUnit, NotCommutative, NotLeftSymmetric
from liecp.exactla import (
    ONE,
    ZERO,
    LinFormMatrix,
    RankPolicy,
    VecLike,
    as_vector,
    evaluate,
    generic_rank,
    random_point,
    rank_exact,
)
from liecp.index import index
from liecp.liealg import (
    ProductAlgebra,
    Vector,
    _clean_table,
    _dense,
    is_ideal,
    left_mult_action,
    lie_of_associative,
    new_assoc_algebra,
    new_lie_algebra,
    new_lsa_algebra,
    semidirect_product,
    tensor_commutative,
)

F = Fraction
P = RankPolicy()


# ---------------------------------------------------------------------------
# The dense code, verbatim
# ---------------------------------------------------------------------------


def dense_product(a, u: VecLike, v: VecLike) -> Vector:
    uu, vv = as_vector(u), as_vector(v)
    acc = [ZERO] * a.dim
    for (i, j), table in a.sc.items():
        coeff = uu[i] * vv[j]
        if coeff:
            for k, c in table.items():
                acc[k] += coeff * c
    return tuple(acc)


def dense_product_table(a, i: int, j: int) -> dict[int, Fraction]:
    return dict(a.sc.get((i, j), {}))


def dense_basis_vector(a, i: int) -> Vector:
    return _dense({i: ONE}, a.dim)


def dense_vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def dense_new_assoc_algebra(dim, labels, products, unit=None) -> ProductAlgebra:
    labels = tuple(labels)
    sc = _clean_table("product", dim, labels, products)
    alg = ProductAlgebra(dim, labels, sc, as_vector(unit) if unit is not None else None)
    product = lambda u, v: dense_product(alg, u, v)  # noqa: E731
    basis_vector = lambda i: dense_basis_vector(alg, i)  # noqa: E731
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                left = product(product(basis_vector(i), basis_vector(j)), basis_vector(k))
                right = product(basis_vector(i), product(basis_vector(j), basis_vector(k)))
                if left != right:
                    raise ValueError(f"associativity fails on basis triple ({i}, {j}, {k})")
    if alg.unit is not None:
        for i in range(dim):
            e = basis_vector(i)
            if product(alg.unit, e) != e or product(e, alg.unit) != e:
                raise NoUnit("declared unit is not a two-sided identity")
    return alg


def dense_new_lsa_algebra(dim, labels, products) -> ProductAlgebra:
    labels = tuple(labels)
    sc = _clean_table("product", dim, labels, products)
    alg = ProductAlgebra(dim, labels, sc)
    product = lambda u, v: dense_product(alg, u, v)  # noqa: E731
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                a, b, c = (dense_basis_vector(alg, x) for x in (i, j, k))
                lhs = dense_vec_sub(product(a, product(b, c)), product(product(a, b), c))
                rhs = dense_vec_sub(product(b, product(a, c)), product(product(b, a), c))
                if lhs != rhs:
                    raise NotLeftSymmetric(f"left-symmetric identity fails on triple ({i}, {j}, {k})")
    return alg


def dense_lie_of_associative(a):
    """Commutator Lie algebra [u, v] = uv - vu (associative or left-symmetric a)."""
    e = lambda i: dense_basis_vector(a, i)  # noqa: E731
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(a.dim):
        for j in range(i + 1, a.dim):
            w = dense_vec_sub(dense_product(a, e(i), e(j)), dense_product(a, e(j), e(i)))
            brackets[(i, j)] = dict(enumerate(w))
    return new_lie_algebra(a.dim, a.labels, brackets)


def dense_tensor_commutative(a, m):
    """Current-algebra bracket [a x, a' y] = (a a') [x, y] for commutative a."""
    e = lambda i: dense_basis_vector(a, i)  # noqa: E731
    for i in range(a.dim):
        for j in range(i + 1, a.dim):
            if dense_product(a, e(i), e(j)) != dense_product(a, e(j), e(i)):
                raise NotCommutative(f"product is not commutative on ({a.labels[i]}, {a.labels[j]})")
    dim = a.dim * m.dim

    def flat(i: int, j: int) -> int:
        return i * m.dim + j

    labels = tuple(f"{a.labels[i]}*{m.labels[j]}" for i in range(a.dim) for j in range(m.dim))
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(a.dim):
        for k in range(i, a.dim):
            prod = dense_product_table(a, i, k)
            for j in range(m.dim):
                for l in range(m.dim):
                    u, v = flat(i, j), flat(k, l)
                    if u >= v:
                        continue
                    table = brackets[(u, v)] = {}
                    for p, pc in prod.items():
                        for q, qc in m.bracket_table(j, l).items():
                            t = flat(p, q)
                            table[t] = table.get(t, ZERO) + pc * qc
    return new_lie_algebra(dim, labels, brackets)


def dense_stabilizer_vanishes_somewhere(form: LinFormMatrix, policy: RankPolicy) -> bool:
    rng = random.Random(policy.seed)
    for _ in range(max(policy.samples, 16)):
        specialized = evaluate(form, random_point(rng, form.nvars, policy.coeff_bound))
        if rank_exact(specialized, form.cols) == form.rows:
            return True
    return False


def dense_frobenius_associative_report(a, policy: RankPolicy = P):
    if a.unit is None:
        raise NoUnit("a unit element is required")
    g = dense_lie_of_associative(a)
    mats = left_mult_action(a)
    n = a.dim

    pairing = LinFormMatrix.build(
        n, n, n, lambda i, j: {k: c for k, c in dense_product_table(a, i, j).items()}
    )
    L = semidirect_product(g, mats, n, v_labels=tuple(f"m.{lb}" for lb in a.labels))
    v = _module_subspace(L, n)

    conditions = {
        "pairing_nondegenerate": generic_rank(pairing, policy).rank == n,
        "lie_frobenius": index(L, policy).index == 0,
        "module_cp_ideal": is_cp(L, v, policy).is_cp and is_ideal(L, v),
    }
    return _report(conditions, L, policy)


def dense_lsa_frobenius_report(a, policy: RankPolicy = P):
    g, mats = dense_lie_of_associative(a), left_mult_action(a)
    n = a.dim
    dual_mats = [{(c, r): -x for (r, c), x in m.items()} for m in mats]
    L = semidirect_product(g, dual_mats, n, v_labels=tuple(f"d.{lb}" for lb in a.labels))
    v = _module_subspace(L, n)
    form = _action_form_matrix(dual_mats, n, n)

    conditions = {
        "stabilizer_vanishes": dense_stabilizer_vanishes_somewhere(form, policy),
        "lie_frobenius": index(L, policy).index == 0,
        "dual_cp_ideal": is_cp(L, v, policy).is_cp and is_ideal(L, v),
    }
    return _report(conditions, L, policy)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def outcome(call):
    """The value of call(), or the type and message of what it raised."""
    try:
        return ("ok", call())
    except (LiecpError, ValueError, IndexError) as e:
        return (type(e).__name__, str(e))


def labels_of(dim: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(dim))


def matrix_algebra(n: int):
    """M_n with basis E_ab at index a * n + b and the identity as unit."""
    table = {(a * n + b, b * n + c): {a * n + c: 1} for a in range(n) for b in range(n) for c in range(n)}
    return n * n, table, tuple(int(a == b) for a in range(n) for b in range(n))


def truncated(n: int):
    """k[x]/(x^n) with basis 1, x, ..., x^(n-1)."""
    return n, {(i, j): {i + j: 1} for i in range(n) for j in range(n) if i + j < n}, (1,) + (0,) * (n - 1)


DUAL = truncated(2)
QUATERNIONS = (
    4,
    {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 1},
        (1, 0): {1: 1}, (2, 0): {2: 1}, (3, 0): {3: 1},
        (1, 1): {0: -1}, (2, 2): {0: -1}, (3, 3): {0: -1},
        (1, 2): {3: 1}, (2, 1): {3: -1}, (2, 3): {1: 1}, (3, 2): {1: -1}, (3, 1): {2: 1}, (1, 3): {2: -1},
    },
    (1, 0, 0, 0),
)
# (dim, table, unit): unital and non-unital associative algebras, left-symmetric
# algebras that are not associative, and tables that are neither
SEEDS = [
    (1, {(0, 0): {0: 1}}, (1,)),
    DUAL,
    (2, {(0, 0): {0: 1}, (1, 1): {1: 1}}, (1, 1)),
    truncated(3),
    truncated(4),
    (3, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {1: 1}, (2, 2): {2: 1}}, (1, 0, 1)),
    (3, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (0, 2): {2: 1}, (2, 0): {2: 1}}, (1, 0, 0)),
    matrix_algebra(2),
    QUATERNIONS,
    (2, {(0, 0): {0: 1}, (0, 1): {1: 1}}, (1, 0)),  # x0 is a left unit only
    (2, {(0, 0): {0: 1}, (1, 0): {1: 1}}, (1, 0)),  # and here a right unit only
    (2, {(0, 0): {1: 1}}, None),
    (2, {}, None),
    (2, {(0, 0): {0: -1}, (0, 1): {1: 1}}, None),
    (2, {(0, 0): {0: -1, 1: 1}, (1, 0): {0: -1, 1: 1}}, None),
    (3, {(0, 0): {0: -1}, (0, 1): {1: 1}, (2, 2): {2: 1}}, None),
    (2, {(0, 0): {1: 1}, (1, 0): {0: 1}}, None),
    (2, {(0, 1): {0: 1}, (1, 1): {1: 1}, (1, 0): {1: -1}}, None),
]


def inverse(p: list[list[int]]) -> list[list[Fraction]]:
    """The inverse of an invertible square matrix, by Gauss-Jordan elimination."""
    n = len(p)
    rows = [[F(x) for x in row] + [F(int(i == j)) for j in range(n)] for i, row in enumerate(p)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def change_basis(dim: int, table: dict, unit: tuple, p: list[list[int]]) -> tuple[dict, tuple]:
    """The table and unit in the basis f_a = sum_i p[i][a] e_i."""
    q = inverse(p)
    new = {}
    for a in range(dim):
        for b in range(dim):
            acc = [ZERO] * dim  # f_a f_b in the old basis
            for (i, j), terms in table.items():
                c = p[i][a] * p[j][b]
                for k, x in terms.items():
                    acc[k] += c * x
            coords = {r: sum((q[r][k] * acc[k] for k in range(dim)), ZERO) for r in range(dim)}
            new[(a, b)] = {r: x for r, x in coords.items() if x}
    return new, tuple(sum((q[r][k] * unit[k] for k in range(dim)), ZERO) for r in range(dim))


@st.composite
def tables(draw):
    """A seed in a drawn basis, perhaps with one entry changed, and a unit that may be wrong."""
    dim, table, unit = draw(st.sampled_from(SEEDS))
    perm = draw(st.permutations(range(dim)))
    lower = [[draw(st.integers(-2, 2)) if j < i else int(i == j) for j in range(dim)] for i in range(dim)]
    table, unit = change_basis(dim, table, unit or (1,) + (0,) * (dim - 1), [lower[r] for r in perm])
    if draw(st.booleans()):
        i, j, k = (draw(st.integers(0, dim - 1)) for _ in range(3))
        terms = table[(i, j)]
        terms[k] = terms.get(k, ZERO) + draw(st.sampled_from([-1, 1, 2]))
    kind = draw(st.sampled_from(["none", "given", "changed", "short", "long"]))
    if kind == "none":
        unit = None
    elif kind == "changed":
        k = draw(st.integers(0, dim - 1))
        unit = unit[:k] + (unit[k] + 1,) + unit[k + 1 :]
    elif kind == "short":
        unit = unit[:-1]
    elif kind == "long":
        unit = unit + (F(5),)
    return dim, table, unit


H3 = catalog.get("h3")


def assert_same_as_dense(dim: int, table: dict, unit) -> None:
    labels = labels_of(dim)
    got = outcome(lambda: new_assoc_algebra(dim, labels, table, unit))
    expected = outcome(lambda: dense_new_assoc_algebra(dim, labels, table, unit))
    if unit is None or len(unit) == dim:
        assert got == expected
    elif expected[0] == "ValueError":
        assert got == expected  # the associativity check comes first
    else:
        assert got[0] == "AmbientMismatch"  # the dense code read past the unit or accepted it
    lsa = outcome(lambda: new_lsa_algebra(dim, labels, table))
    assert lsa == outcome(lambda: dense_new_lsa_algebra(dim, labels, table))

    raw = ProductAlgebra(dim, labels, _clean_table("product", dim, labels, table))
    assert outcome(lambda: tensor_commutative(raw, H3)) == outcome(lambda: dense_tensor_commutative(raw, H3))
    if lsa[0] == "ok":
        assert lie_of_associative(raw) == dense_lie_of_associative(raw)
        assert outcome(lambda: lsa_frobenius_report(lsa[1], P)) == outcome(
            lambda: dense_lsa_frobenius_report(lsa[1], P)
        )
    if got[0] == "ok" and unit is not None:
        assert outcome(lambda: frobenius_associative_report(got[1], P)) == outcome(
            lambda: dense_frobenius_associative_report(got[1], P)
        )


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class TestAgainstDense:
    def test_seeds_cover_every_outcome(self):
        kinds = set()
        for dim, table, unit in SEEDS:
            labels = labels_of(dim)
            raw = ProductAlgebra(dim, labels, _clean_table("product", dim, labels, table))
            kinds.add(
                (
                    outcome(lambda: new_assoc_algebra(dim, labels, table, unit))[0],
                    outcome(lambda: new_lsa_algebra(dim, labels, table))[0],
                    outcome(lambda: tensor_commutative(raw, H3))[0],
                )
            )
            assert_same_as_dense(dim, table, unit)
        assert ("ok", "ok", "ok") in kinds and ("ok", "ok", "NotCommutative") in kinds
        assert ("ValueError", "ok", "NotCommutative") in kinds  # left-symmetric, not associative
        assert ("ValueError", "NotLeftSymmetric", "NotCommutative") in kinds

    @settings(max_examples=150)
    @given(tables())
    def test_drawn_tables(self, case):
        assert_same_as_dense(*case)

    @pytest.mark.parametrize(
        "case",
        [pytest.param(matrix_algebra(n), id=f"M_{n}") for n in (2, 3, 4)]
        + [pytest.param(DUAL, id="dual numbers"), pytest.param(truncated(8), id="k[x]/(x^8)")],
    )
    def test_named_algebras(self, case):
        dim, table, unit = case
        labels = labels_of(dim)
        a = new_assoc_algebra(dim, labels, table, unit)
        assert a == dense_new_assoc_algebra(dim, labels, table, unit)
        b = new_lsa_algebra(dim, labels, table)
        assert b == dense_new_lsa_algebra(dim, labels, table)
        assert lie_of_associative(a) == dense_lie_of_associative(a)
        assert outcome(lambda: tensor_commutative(a, H3)) == outcome(lambda: dense_tensor_commutative(a, H3))
        assert frobenius_associative_report(a, P) == dense_frobenius_associative_report(a, P)
        assert lsa_frobenius_report(b, P) == dense_lsa_frobenius_report(b, P)
