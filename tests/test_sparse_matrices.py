"""The sparse matrix forms against the dense code they replaced.

`QMatrix`, `dense_evaluate` and the `dense_*` checks below are the dense
matrix code as it stood before every matrix had one sparse form: copied
verbatim, up to turning methods and branches into functions, keeping only
the `QMatrix` methods these paths call, and reading the forms of a
`LinFormMatrix` through the n x n grid its entries used to be.  The sparse
code must give the same values, ranks and verdicts on the catalog, on the
inputs of the construction tests and on drawn small matrices, among them
non-homomorphisms and non-derivations that both must reject.

`entrywise_is_alternating` is `is_alternating` as it stood before it
compared each pair once: every matrix here must get the same answer.
"""

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from liecp import catalog, cp
from liecp.cli import main
from liecp.constructions import _action_form_matrix, _stabilizer_vanishes_somewhere, abelianization_semidirect_check
from liecp.cp import FORM_KIND, NoCPCertificate, no_cp_certificate, pairing_matrix, verify_no_cp_certificate
from liecp.errors import NotADerivation, NotARepresentation
from liecp.exactla import (
    ZERO,
    LinFormMatrix,
    RankPolicy,
    VecLike,
    as_vector,
    evaluate,
    is_alternating,
    kernel,
    random_point,
    rank_exact,
)
from liecp.index import bracket_matrix, invariant_symmetric_forms
from liecp.liealg import (
    Subspace,
    _as_matrix,
    derivation_extend,
    is_abelian,
    left_mult_action,
    lie_algebra_from_label_table,
    lie_of_associative,
    lie_of_lsa,
    new_assoc_algebra,
    new_lie_algebra,
    new_lsa_algebra,
    parse_span,
    quotient,
    semidirect_product,
)
from liecp.parabolic import borel_data_classical

F = Fraction
P = RankPolicy()


# ---------------------------------------------------------------------------
# The dense code, verbatim
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QMatrix:
    """Dense matrix of rationals; immutable after construction."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry count must equal rows x cols")

    @staticmethod
    def from_rows(rows: Iterable[VecLike], cols: int | None = None) -> "QMatrix":
        data = tuple(as_vector(r) for r in rows)
        if cols is None:
            if not data:
                raise ValueError("cols is required for an empty row list")
            cols = len(data[0])
        return QMatrix(len(data), cols, data)

    def transpose(self) -> "QMatrix":
        data = tuple([tuple([self.entries[i][j] for i in range(self.rows)]) for j in range(self.cols)])
        return QMatrix(self.cols, self.rows, data)

    def mul_vector(self, v: VecLike) -> tuple[Fraction, ...]:
        vv = as_vector(v)
        if len(vv) != self.cols:
            raise ValueError("vector length must equal cols")
        nonzero = [(j, x) for j, x in enumerate(vv) if x]
        return tuple(sum((row[j] * x for j, x in nonzero), ZERO) for row in self.entries)

    def matmul(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = other.transpose()
        data = tuple(
            tuple(sum((a * b for a, b in zip(row, col)), ZERO) for col in ot.entries)
            for row in self.entries
        )
        return QMatrix(self.rows, other.cols, data)


def dense_rank(m: QMatrix) -> int:
    return rank_exact(m.entries, m.cols)


def dense_kernel(m: QMatrix) -> list:
    return kernel(m.entries, m.cols)


def dense_evaluate(m: LinFormMatrix, point: VecLike) -> QMatrix:
    """Specialize every linear form at the given point."""
    grid = [[row.get(j, {}) for j in range(m.cols)] for row in m.entries]
    pt = as_vector(point)
    if len(pt) != m.nvars:
        raise ValueError("point length must equal nvars")
    data = tuple([
        tuple([sum((c * pt[k] for k, c in form.items()), ZERO) for form in row])
        for row in grid
    ])
    return QMatrix(m.rows, m.cols, data)


def dense_check_representation(g, mats: list[QMatrix], dim_v: int) -> None:
    """The homomorphism check of `semidirect_product`."""
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            commutator = mats[i].matmul(mats[j]).entries
            reverse = mats[j].matmul(mats[i]).entries
            expected = [[commutator[a][b] - reverse[a][b] for b in range(dim_v)] for a in range(dim_v)]
            acc = [[ZERO] * dim_v for _ in range(dim_v)]
            for k, c in g.bracket_table(i, j).items():
                for a in range(dim_v):
                    for b in range(dim_v):
                        acc[a][b] += c * mats[k].entries[a][b]
            if acc != expected:
                raise NotARepresentation(f"action fails on basis pair ({g.labels[i]}, {g.labels[j]})")


def dense_check_derivation(m, dm: QMatrix) -> None:
    """The derivation check of `derivation_extend`."""
    images = [tuple(dm.entries[k][i] for k in range(m.dim)) for i in range(m.dim)]
    for i in range(m.dim):
        for j in range(i + 1, m.dim):
            # d[x_i, x_j] = [d x_i, x_j] + [x_i, d x_j], including pairs with zero bracket
            lhs = dm.mul_vector(m.bracket(m.basis_vector(i), m.basis_vector(j)))
            rhs = tuple(
                a + b
                for a, b in zip(m.bracket(images[i], m.basis_vector(j)), m.bracket(m.basis_vector(i), images[j]))
            )
            if lhs != rhs:
                raise NotADerivation(f"derivation identity fails on ({m.labels[i]}, {m.labels[j]})")


def dense_stabilizer_vanishes_somewhere(form: LinFormMatrix, policy: RankPolicy) -> bool:
    """`_stabilizer_vanishes_somewhere` with the left kernel of the dense sample."""
    rng = random.Random(policy.seed)
    for _ in range(max(policy.samples, 16)):
        specialized = dense_evaluate(form, random_point(rng, form.nvars, policy.coeff_bound))
        if not dense_kernel(specialized.transpose()):
            return True
    return False


def dense_form_check(L, family: LinFormMatrix, form_point) -> bool:
    """The invariant-form branch of `verify_no_cp_certificate`, given the family."""
    if form_point is None or len(form_point) != family.nvars:
        return False
    b = dense_evaluate(family, form_point)
    if dense_rank(b) != L.dim:
        return False
    for i in range(L.dim):
        for j in range(L.dim):
            if b.entries[i][j] != b.entries[j][i]:
                return False
            for k in range(L.dim):
                lhs = sum((c * b.entries[p][k] for p, c in L.bracket_table(i, j).items()), ZERO)
                rhs = sum((c * b.entries[j][p] for p, c in L.bracket_table(i, k).items()), ZERO)
                if lhs + rhs != 0:
                    return False
    return not is_abelian(L, Subspace.full(L.dim))


def dense_ad(L, v) -> QMatrix:
    """`LieAlgebra.ad`: the matrix of w -> [v, w], columns [v, x_j]."""
    cols = tuple(L.bracket(v, L.basis_vector(j)) for j in range(L.dim))
    return QMatrix(L.dim, L.dim, cols).transpose()


def dense_product(a, u: VecLike, v: VecLike) -> tuple[Fraction, ...]:
    """`ProductAlgebra.product`: uv from the structure constants, as a dense vector."""
    uu, vv = as_vector(u), as_vector(v)
    acc = [ZERO] * a.dim
    for (i, j), table in a.sc.items():
        coeff = uu[i] * vv[j]
        if coeff:
            for k, c in table.items():
                acc[k] += coeff * c
    return tuple(acc)


def dense_left_mult_action(a) -> list[QMatrix]:
    """Matrices of u -> (v -> uv), one per basis element."""
    e = [tuple(F(int(k == i)) for k in range(a.dim)) for i in range(a.dim)]
    mats = []
    for i in range(a.dim):
        cols = tuple(dense_product(a, e[i], e[j]) for j in range(a.dim))
        mats.append(QMatrix(a.dim, a.dim, cols).transpose())
    return mats


def dense_flattened_action(L, v) -> list[QMatrix]:
    """The action of L/V on V built by `abelianization_semidirect_check`."""
    _, qmap = quotient(L, v)
    ad_rows = [L.ad_columns(row) for row in v.rows]
    return [
        QMatrix(v.dim, v.dim, tuple(tuple(-ad[c].get(p, ZERO) for ad in ad_rows) for p in v.pivots))
        for c in qmap.complement
    ]


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def as_dense(m: dict, size: int) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(m.get((r, c), ZERO) for c in range(size)) for r in range(size))


def dense_rows(rows: list[dict], cols: int) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(row.get(j, ZERO) for j in range(cols)) for row in rows)


def line():
    return new_lie_algebra(1, ("x",), {})


def nonabelian2d():
    return lie_algebra_from_label_table(("x", "y"), {("x", "y"): {"y": 1}})


def sl2():
    return lie_algebra_from_label_table(
        ("h", "e", "f"), {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}}
    )


def dual_numbers():
    return new_assoc_algebra(2, ("1", "t"), {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, unit=(1, 0))


def mat2():
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    products = {(i, j): {idx[(a, d)]: 1} for (a, b), i in idx.items() for (c, d), j in idx.items() if b == c}
    return new_assoc_algebra(4, ("E11", "E12", "E21", "E22"), products, unit=(1, 0, 0, 1))


def construction_actions():
    """(g, action matrices as dense rows, dim V): the semidirect products of the construction tests."""
    cases = [(line(), [[[1]]], 1)]
    for g in (nonabelian2d(), sl2()):
        cases.append((g, [as_dense(g.ad(g.basis_vector(i)), g.dim) for i in range(g.dim)], g.dim))
    for a in (dual_numbers(), mat2()):
        cases.append((lie_of_associative(a), [as_dense(m, a.dim) for m in left_mult_action(a)], a.dim))
    for a in (new_lsa_algebra(1, ("1",), {(0, 0): {0: 1}}), new_lsa_algebra(2, ("1", "t"), dual_numbers().sc)):
        g, mats = lie_of_lsa(a)
        cases.append((g, [as_dense({(c, r): -x for (r, c), x in m.items()}, a.dim) for m in mats], a.dim))
    return cases


CATALOG = [pytest.param(name, id=name) for name in catalog.names()]
SMALL = [line(), nonabelian2d(), sl2(), new_lie_algebra(2, ("a", "b"), {})]
entry = st.sampled_from([0, 0, 0, 1, -1, 2, F(1, 2)])


@st.composite
def actions(draw):
    """(g, matrices, dim V): diagonal matrices on an abelian g (homomorphisms) or any small matrices."""
    g = draw(st.sampled_from(SMALL))
    dim_v = draw(st.integers(1, 3))
    if not g.sc and draw(st.booleans()):
        mats = [[[draw(entry) if r == c else 0 for c in range(dim_v)] for r in range(dim_v)] for _ in range(g.dim)]
    else:
        square = st.lists(st.lists(entry, min_size=dim_v, max_size=dim_v), min_size=dim_v, max_size=dim_v)
        mats = [draw(square) for _ in range(g.dim)]
    return g, mats, dim_v


def outcome(call):
    """The built algebra's structure constants, or the rejection and its message."""
    try:
        return call().sc
    except (NotARepresentation, NotADerivation) as err:
        return type(err), str(err)


def dense_semidirect_outcome(g, mats, dim_v):
    def build():
        dense = [QMatrix.from_rows(m, dim_v) for m in mats]
        dense_check_representation(g, dense, dim_v)
        return semidirect_product(g, mats, dim_v)

    return outcome(build)


# ---------------------------------------------------------------------------
# evaluate and rank_exact
# ---------------------------------------------------------------------------


def entrywise_is_alternating(m: LinFormMatrix) -> bool:
    """m is square with zero diagonal and m[j][i] = -m[i][j] for every entry."""
    e = m.entries
    return m.rows == m.cols and all(
        i not in row and all(e[j].get(i) == {k: -c for k, c in form.items()} for j, form in row.items())
        for i, row in enumerate(e)
    )


def assert_evaluations_match(m: LinFormMatrix, point) -> None:
    assert is_alternating(m) == entrywise_is_alternating(m)
    rows = evaluate(m, point)
    dense = dense_evaluate(m, point)
    assert dense_rows(rows, m.cols) == dense.entries
    assert all(x for row in rows for x in row.values())
    assert rank_exact(rows, m.cols) == dense_rank(dense)


def points(nvars: int):
    rng = random.Random(0)
    drawn = [random_point(rng, nvars, P.coeff_bound), random_point(rng, nvars, 3)]
    return drawn + [tuple(F(k % 2) for k in range(nvars)), (ZERO,) * nvars]


class TestEvaluateAndRank:
    @pytest.mark.parametrize("name", CATALOG)
    def test_catalog_matrices(self, name):
        L = catalog.get(name)
        for m in (bracket_matrix(L), invariant_symmetric_forms(L), pairing_matrix(L, Subspace.full(L.dim))):
            for point in points(m.nvars):
                assert_evaluations_match(m, point)

    @pytest.mark.parametrize("family, rank", [("A", 5), ("B", 4), ("D", 4)])
    def test_borel_bracket_matrices(self, family, rank):
        for L in borel_data_classical(family, rank):
            for point in points(L.dim):
                assert_evaluations_match(bracket_matrix(L), point)

    def test_construction_action_forms(self):
        for g, mats, dim_v in construction_actions():
            form = _action_form_matrix([_as_matrix(m, dim_v) for m in mats], g.dim, dim_v)
            for point in points(dim_v):
                assert_evaluations_match(form, point)

    @given(st.data())
    def test_drawn_matrices(self, data):
        rows, cols, nvars = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4)), data.draw(st.integers(0, 3))
        forms = st.dictionaries(st.integers(0, max(nvars - 1, 0)), st.sampled_from([1, -1, 2, F(-1, 3)]), max_size=2)
        grid = [[data.draw(forms) if nvars else {} for _ in range(cols)] for _ in range(rows)]
        m = LinFormMatrix.build(rows, cols, nvars, lambda i, j: grid[i][j])
        assert all(form for row in m.entries for form in row.values())
        coords = st.one_of(st.integers(-2, 2), st.builds(F, st.integers(-3, 3), st.integers(1, 4)))
        point = data.draw(st.lists(coords, min_size=nvars, max_size=nvars))
        assert_evaluations_match(m, point)

    @given(st.data())
    def test_drawn_antisymmetric_matrices(self, data):
        # alternating, or one entry or its mirror changed, so both answers occur
        n, nvars = data.draw(st.integers(0, 4)), data.draw(st.integers(1, 3))
        forms = st.dictionaries(st.integers(0, nvars - 1), st.sampled_from([1, -1, 2, F(-1, 3)]), max_size=2)
        upper = {(i, j): data.draw(forms) for i in range(n) for j in range(i + 1, n)}
        grid = {**upper, **{(j, i): {k: -c for k, c in form.items()} for (i, j), form in upper.items()}}
        if n and data.draw(st.booleans()):
            grid[data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))] = data.draw(forms)
        m = LinFormMatrix.build(n, n, nvars, lambda i, j: grid.get((i, j), {}))
        assert is_alternating(m) == entrywise_is_alternating(m)


# ---------------------------------------------------------------------------
# Explicit matrices
# ---------------------------------------------------------------------------


class TestExplicitMatrices:
    @pytest.mark.parametrize("name", CATALOG)
    def test_ad_matches_dense(self, name):
        L = catalog.get(name)
        for i in range(L.dim):
            v = L.basis_vector(i)
            assert as_dense(L.ad(v), L.dim) == dense_ad(L, v).entries
        v = random_point(random.Random(1), L.dim, 5)
        assert as_dense(L.ad(v), L.dim) == dense_ad(L, v).entries

    def test_left_mult_action_matches_dense(self):
        for a in (dual_numbers(), mat2()):
            sparse = [as_dense(m, a.dim) for m in left_mult_action(a)]
            assert sparse == [m.entries for m in dense_left_mult_action(a)]

    @pytest.mark.parametrize(
        "labels, table, span",
        [
            (tuple(f"e{i}" for i in range(1, 7)),
             {("e1", "e2"): {"e5": 1}, ("e1", "e3"): {"e6": 1}, ("e2", "e4"): {"e6": 1}}, "e3,e4,e5,e6"),
            (("x", "y", "z"), {("x", "y"): {"z": 1}}, "z"),
            (("t", "x", "y", "z"), {("t", "x"): {"x": -1}, ("t", "y"): {"y": 1}, ("x", "y"): {"z": 1}}, "x,z"),
        ],
    )
    def test_flattened_action_matches_dense(self, labels, table, span):
        L = lie_algebra_from_label_table(labels, table)
        v = parse_span(L, span)
        rep = abelianization_semidirect_check(L, v, P)
        q, _ = quotient(L, v)
        dense = [m.entries for m in dense_flattened_action(L, v)]
        assert rep.built == semidirect_product(q, dense, v.dim, v_labels=tuple(f"w{j + 1}" for j in range(v.dim)))


# ---------------------------------------------------------------------------
# The representation and derivation checks
# ---------------------------------------------------------------------------


class TestRepresentationCheck:
    def test_construction_inputs(self):
        for g, mats, dim_v in construction_actions():
            expected = dense_semidirect_outcome(g, mats, dim_v)
            assert isinstance(expected, dict)
            assert outcome(lambda: semidirect_product(g, mats, dim_v)) == expected

    def test_non_homomorphisms(self):
        # the identity on both generators of the nonabelian plane, and the adjoint of sl2 with one sign flipped
        g = sl2()
        flipped = [as_dense(g.ad(g.basis_vector(i)), 3) for i in range(3)]
        flipped[1] = tuple(tuple(-x for x in row) for row in flipped[1])
        for g, mats, dim_v in [(nonabelian2d(), [[[1, 0], [0, 1]]] * 2, 2), (g, flipped, 3)]:
            expected = dense_semidirect_outcome(g, mats, dim_v)
            assert expected[0] is NotARepresentation
            assert outcome(lambda: semidirect_product(g, mats, dim_v)) == expected

    @given(actions())
    def test_drawn_matrices(self, case):
        g, mats, dim_v = case
        assert outcome(lambda: semidirect_product(g, mats, dim_v)) == dense_semidirect_outcome(g, mats, dim_v)


def derivation_cases():
    h3 = catalog.get("h3")
    return [
        (catalog.get("abelian", n=4), [[int(i == j) for j in range(4)] for i in range(4)]),
        (h3, [[1, 0, 0], [0, 1, 0], [0, 0, 2]]),
        (h3, [[1, 0, 0], [0, 1, 0], [0, 0, 5]]),
        (h3, [[0] * 3] * 3),
        (catalog.get("diamond"), [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]]),
        (catalog.get("diamond"), [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
    ]


def dense_derivation_outcome(m, d):
    def build():
        dense_check_derivation(m, QMatrix.from_rows(d, m.dim))
        return derivation_extend(m, d)

    return outcome(build)


class TestDerivationCheck:
    def test_extension_inputs(self):
        outcomes = []
        for m, d in derivation_cases():
            expected = dense_derivation_outcome(m, d)
            outcomes.append(isinstance(expected, dict))
            assert outcome(lambda: derivation_extend(m, d)) == expected
        assert outcomes == [True, True, False, True, True, False]

    @given(st.sampled_from(SMALL + [catalog.get("h3"), catalog.get("diamond")]), st.data())
    def test_drawn_matrices(self, m, data):
        square = st.lists(st.lists(entry, min_size=m.dim, max_size=m.dim), min_size=m.dim, max_size=m.dim)
        d = data.draw(square)
        assert outcome(lambda: derivation_extend(m, d)) == dense_derivation_outcome(m, d)


# ---------------------------------------------------------------------------
# The stabilizer witness and the invariant-form certificate
# ---------------------------------------------------------------------------


class TestStabilizerWitness:
    def test_construction_inputs(self):
        seen = set()
        for g, mats, dim_v in construction_actions():
            form = _action_form_matrix([_as_matrix(m, dim_v) for m in mats], g.dim, dim_v)
            for policy in (P, RankPolicy(seed=3, samples=20)):
                found = _stabilizer_vanishes_somewhere(form, policy)
                assert found == dense_stabilizer_vanishes_somewhere(form, policy)
                seen.add(found)
        assert seen == {True, False}

    @given(actions())
    def test_drawn_matrices(self, case):
        g, mats, dim_v = case
        form = _action_form_matrix([_as_matrix(m, dim_v) for m in mats], g.dim, dim_v)
        assert _stabilizer_vanishes_somewhere(form, P) == dense_stabilizer_vanishes_somewhere(form, P)


FORM_ENTRIES = [pytest.param(name, id=name) for name in ("diamond", "g5", "g6", "sl2_irr3")]


def verify_form(L, family, point) -> bool:
    with mock.patch.object(cp, "invariant_symmetric_forms", lambda _: family):
        return verify_no_cp_certificate(L, NoCPCertificate(FORM_KIND, form_point=point))


class TestFormCertificate:
    @pytest.mark.parametrize("name", FORM_ENTRIES)
    def test_certificate_and_other_points(self, name):
        L = catalog.get(name)
        family = invariant_symmetric_forms(L)
        cert = no_cp_certificate(L, P, kind=FORM_KIND)
        assert verify_no_cp_certificate(L, cert) is dense_form_check(L, family, cert.form_point) is True
        for point in points(family.nvars) + [None, (F(1),) * (family.nvars + 1)]:
            expected = dense_form_check(L, family, point)
            assert verify_no_cp_certificate(L, NoCPCertificate(FORM_KIND, form_point=point)) is expected

    @pytest.mark.parametrize("name", FORM_ENTRIES)
    def test_non_invariant_and_non_symmetric_families(self, name):
        L = catalog.get(name)
        family = invariant_symmetric_forms(L)
        n, point = L.dim, (F(1),) * family.nvars
        identity = LinFormMatrix.build(n, n, 1, lambda i, j: {0: 1} if i == j else {})
        skewed = LinFormMatrix.build(n, n, 1, lambda i, j: {0: 1} if i == j else {0: 1} if j == i + 1 else {})
        for other, at in [(identity, (F(1),)), (skewed, (F(1),)), (family, point)]:
            assert verify_form(L, other, at) is dense_form_check(L, other, at)
        assert dense_form_check(L, identity, (F(1),)) is False

    @given(st.sampled_from(["diamond", "g5", "sl2_irr3"]), st.data())
    def test_perturbed_families(self, name, data):
        L = catalog.get(name)
        family = invariant_symmetric_forms(L)
        i, j = data.draw(st.integers(0, L.dim - 1)), data.draw(st.integers(0, L.dim - 1))
        c = data.draw(st.sampled_from([0, 1, -2]))
        symmetric = data.draw(st.booleans())

        def entry(p, q):
            form = dict(family.entries[p].get(q, {}))
            if (p, q) == (i, j) or symmetric and (p, q) == (j, i):
                form[0] = form.get(0, ZERO) + c
            return form

        perturbed = LinFormMatrix.build(L.dim, L.dim, family.nvars, entry)
        point = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=family.nvars, max_size=family.nvars)))
        assert verify_form(L, perturbed, point) is dense_form_check(L, perturbed, point)


# ---------------------------------------------------------------------------
# Matrix shapes at the boundary
# ---------------------------------------------------------------------------


class TestMatrixShape:
    @pytest.mark.parametrize(
        "action, dim_v",
        [
            ([[[1, 0], [0, 1], [0, 0]]], 2),  # a third row, once ignored
            ([[[1, 0]]], 2),  # once an IndexError
            ([[[1, 0], [0]]], 2),
            ([{(0, 0): 1, (2, 0): 1}], 2),  # a mapping with an entry outside 2 x 2
        ],
    )
    def test_semidirect_rejects_a_matrix_that_is_not_square_of_the_module_size(self, action, dim_v):
        with pytest.raises(ValueError, match=r"wrong shape: expected 2 x 2"):
            semidirect_product(line(), action, dim_v)

    @pytest.mark.parametrize("d", [[[1, 0]], [[1, 0], [0, 1], [0, 0]], {(0, 3): 1}, [[1, 0, 0], [0, 1, 0]]])
    def test_derivation_extend_rejects_a_matrix_of_the_wrong_shape(self, d):
        # 1 x 2 was an IndexError and 3 x 2 a misleading NotADerivation
        with pytest.raises(ValueError, match=r"wrong shape: expected 2 x 2"):
            derivation_extend(new_lie_algebra(2, ("a", "b"), {}), d)

    @pytest.mark.parametrize("matrix", [[["1", "0"], ["0", "1"], ["0", "0"]], [["1", "0"]], [["1"], ["0"]]])
    def test_cli_semidirect_rejects_the_shape(self, tmp_path, matrix):
        gfile = tmp_path / "line.alg"
        gfile.write_text('{"name": "line", "dim": 1, "basis": ["x"], "brackets": []}')
        afile = tmp_path / "action.json"
        afile.write_text(json.dumps({"dim_v": 2, "matrices": [matrix]}))
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["semidirect", str(gfile), "--action", str(afile), "--json"])
        doc = json.loads(buf.getvalue())
        assert code == 2
        assert set(doc) == {"schema", "command", "seed", "error"} and doc["command"] == "semidirect"
        assert doc["error"] == "matrix has the wrong shape: expected 2 x 2"
