"""Exact linear algebra: ranks, kernels, solving, and generic rank."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, strategies as st

from liecp.errors import ExactDivisionError
from liecp.exactla import (
    LinFormMatrix,
    Poly,
    QMatrix,
    RankPolicy,
    evaluate,
    generic_rank,
    kernel,
    random_point,
    rank_exact,
    rref,
    solve_linear_system,
)
from liecp.index import bracket_matrix
from liecp.parabolic import CompositionA, nilradical_A

F = Fraction

rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 6))


def qmatrix(rows, cols):
    return st.lists(
        st.lists(rationals, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda data: QMatrix.from_rows(data, cols))


small_qmatrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(lambda c: qmatrix(r, c))
)


def sympy_rank(m: QMatrix) -> int:
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in m.entries]).rank() if m.rows else 0


class TestRankExact:
    def test_identity(self):
        assert rank_exact(QMatrix.identity(3)) == 3

    def test_zero(self):
        assert rank_exact(QMatrix.zero(4, 4)) == 0

    def test_proportional_rows(self):
        assert rank_exact(QMatrix.from_rows([[1, 2], [2, 4]])) == 1

    @given(small_qmatrices)
    def test_matches_sympy(self, m):
        assert rank_exact(m) == sympy_rank(m)

    @given(small_qmatrices)
    def test_bounded_by_shape(self, m):
        assert rank_exact(m) <= min(m.rows, m.cols)

    @given(st.integers(2, 5).flatmap(lambda n: st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_antisymmetric_rank_even(self, data):
        n = len(data)
        anti = [[data[i][j] - data[j][i] for j in range(n)] for i in range(n)]
        assert rank_exact(QMatrix.from_rows(anti, n)) % 2 == 0


class TestKernel:
    def test_identity_kernel_empty(self):
        assert kernel(QMatrix.identity(3)) == []

    def test_zero_matrix_full_kernel(self):
        basis = kernel(QMatrix.zero(2, 3))
        assert len(basis) == 3

    def test_single_row(self):
        m = QMatrix.from_rows([[1, 1, 0]])
        basis = kernel(m)
        assert len(basis) == 2
        for v in basis:
            assert m.mul_vector(v) == (F(0),)

    @given(small_qmatrices)
    def test_rank_nullity(self, m):
        assert len(kernel(m)) + rank_exact(m) == m.cols

    @given(small_qmatrices)
    def test_kernel_annihilated_and_echelon(self, m):
        basis = kernel(m)
        for v in basis:
            assert all(x == 0 for x in m.mul_vector(v))
        rows, _ = rref(basis, m.cols)
        assert [tuple(r) for r in rows] == basis


class TestSolve:
    def test_identity(self):
        assert solve_linear_system(QMatrix.identity(2), [1, 2]) == (F(1), F(2))

    def test_underdetermined(self):
        sol = solve_linear_system(QMatrix.from_rows([[1, 1]]), [2])
        assert sol is not None and sol[0] + sol[1] == 2

    def test_inconsistent(self):
        assert solve_linear_system(QMatrix.from_rows([[1], [1]]), [0, 1]) is None

    @given(small_qmatrices, st.lists(rationals, min_size=5, max_size=5))
    def test_solution_substitutes(self, m, xs):
        rhs = m.mul_vector(xs[: m.cols])
        sol = solve_linear_system(m, rhs)
        assert sol is not None
        assert m.mul_vector(sol) == rhs


# Entries whose denominators need the lcm scaling and whose rows need the
# gcd normalization, mixed with zeros and small values so ranks can drop.
wide_entries = st.one_of(
    st.just(F(0)),
    rationals,
    st.integers(-9, 9),
    st.builds(F, st.integers(-(10**9), 10**9), st.integers(1, 10**6)),
)


@st.composite
def echelon_inputs(draw):
    """(rows, cols) with zero rows, repeated or rescaled rows, and often more rows than columns."""
    cols = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(wide_entries, min_size=cols, max_size=cols), max_size=5))
    for _ in range(draw(st.integers(0, 4))):
        pos = draw(st.integers(0, len(rows)))
        if rows and draw(st.booleans()):
            scale = draw(st.sampled_from([F(1), F(-3), F(10**6, 7)]))
            extra = [scale * F(x) for x in rows[draw(st.integers(0, len(rows) - 1))]]
        else:
            extra = [0] * cols
        rows.insert(pos, extra)
    return rows, cols


class TestRrefReference:
    @given(echelon_inputs())
    @example(([], 3))
    @example(([], 0))
    @example(([[], []], 0))
    @example(([[1, 2], [2, 4], [0, 0], [3, 1]], 2))
    def test_matches_sympy(self, case):
        rows, cols = case
        red, pivots = rref(rows, cols)
        ref, ref_pivots = sympy.Matrix(len(rows), cols, [sympy.Rational(x) for row in rows for x in row]).rref()
        assert pivots == list(ref_pivots)
        expected = [[F(int(x.p), int(x.q)) for x in ref.row(i)] for i in range(len(ref_pivots))]
        assert red == expected

    def test_rank_of_type_a_nilradical_matches_sympy(self):
        L, _ = nilradical_A(CompositionA((1,) * 7))
        assert L.dim >= 21
        m = bracket_matrix(L)
        rng = random.Random(0)
        for _ in range(3):
            b = evaluate(m, random_point(rng, L.dim, 10**6))
            assert rank_exact(b) == sympy_rank(b)


# The diamond algebra bracket matrix in dual coordinates (t, x, y, z):
# nonzero brackets [t,x] = -x, [t,y] = y, [x,y] = z.
def diamond_bracket_matrix() -> LinFormMatrix:
    forms = {
        (0, 1): {1: F(-1)},
        (0, 2): {2: F(1)},
        (1, 2): {3: F(1)},
    }

    def entry(i, j):
        if (i, j) in forms:
            return forms[(i, j)]
        if (j, i) in forms:
            return {k: -c for k, c in forms[(j, i)].items()}
        return {}

    return LinFormMatrix.build(4, 4, 4, entry)


class TestEvaluate:
    def test_zero_point(self):
        m = diamond_bracket_matrix()
        assert evaluate(m, [0, 0, 0, 0]).is_zero()

    def test_linear_form_difference(self):
        m = LinFormMatrix.build(1, 1, 2, lambda i, j: {0: F(1), 1: F(-1)})
        assert evaluate(m, [3, 1]).entries[0][0] == 2

    def test_diamond_at_x_star(self):
        # Independent oracle: by hand, at f = x* the only surviving entries are
        # +-f(x) at positions (0,1)/(1,0), giving a rank-2 matrix.
        m = evaluate(diamond_bracket_matrix(), [0, 1, 0, 0])
        expected = QMatrix.from_rows(
            [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        )
        assert m == expected
        assert rank_exact(m) == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(diamond_bracket_matrix(), [1, 2, 3])


class TestGenericRank:
    def test_cross_product_matrix(self):
        m = LinFormMatrix.build(
            3,
            3,
            3,
            lambda i, j: {} if i == j else {3 - i - j: F(1) if (j - i) % 3 == 1 else F(-1)},
        )
        # odd antisymmetric and nonzero: rank 2
        assert generic_rank(m).rank == 2

    def test_diamond(self):
        rank, certified = generic_rank(diamond_bracket_matrix())
        assert rank == 2 and certified

    def test_zero_matrix(self):
        m = LinFormMatrix.build(3, 3, 2, lambda i, j: {})
        assert generic_rank(m) == (0, True)

    def test_matches_sympy_symbolic(self):
        m = diamond_bracket_matrix()
        ts = sympy.symbols("t0:4")
        sm = sympy.Matrix(
            [
                [sum(sympy.Rational(c) * ts[k] for k, c in m.entries[i][j].items()) for j in range(4)]
                for i in range(4)
            ]
        )
        assert sm.rank() == generic_rank(m).rank

    @given(
        st.integers(2, 4).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.dictionaries(st.integers(0, 2), rationals, max_size=2),
                    min_size=n,
                    max_size=n,
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_certified_matches_sympy(self, rows):
        n = len(rows)
        m = LinFormMatrix.build(n, n, 3, lambda i, j: rows[i][j])
        ours = generic_rank(m, RankPolicy(certify=True)).rank
        ts = sympy.symbols("t0:3")
        sm = sympy.Matrix(
            [
                [sum(sympy.Rational(c) * ts[k] for k, c in m.entries[i][j].items()) for j in range(n)]
                for i in range(n)
            ]
        )
        assert ours == sm.rank()

    @given(
        st.lists(
            st.lists(st.dictionaries(st.integers(0, 2), rationals, max_size=2), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        ),
        st.permutations([0, 1, 2]),
        rationals.filter(bool),
    )
    def test_metamorphic_permutation_and_scaling(self, rows, perm, scale):
        base = LinFormMatrix.build(3, 3, 3, lambda i, j: rows[i][j])
        scrambled = LinFormMatrix.build(
            3,
            3,
            3,
            lambda i, j: {k: (scale * c if i == 0 else c) for k, c in rows[perm[i]][perm[j]].items()},
        )
        policy = RankPolicy(certify=True)
        assert generic_rank(base, policy).rank == generic_rank(scrambled, policy).rank

    def test_sampled_rank_is_lower_bound(self):
        m = diamond_bracket_matrix()
        policy = RankPolicy(samples=3, seed=7)
        g = generic_rank(m, policy.with_options(certify=True)).rank
        import random

        rng = random.Random(policy.seed)
        for _ in range(policy.samples):
            point = [F(rng.randint(-policy.coeff_bound, policy.coeff_bound)) for _ in range(4)]
            assert rank_exact(evaluate(m, point)) <= g

    def test_seed_reproducibility(self):
        m = diamond_bracket_matrix()
        p = RankPolicy(seed=123, certify=False)
        assert generic_rank(m, p) == generic_rank(m, p)


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RankPolicy(samples=0)
        with pytest.raises(ValueError):
            RankPolicy(coeff_bound=1)

    def test_auto_certify_threshold(self):
        p = RankPolicy()
        assert p.certify_for(12) and not p.certify_for(13)
        assert RankPolicy(certify=True).certify_for(100)
        assert not RankPolicy(certify=False).certify_for(2)


polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), rationals, min_size=0, max_size=4
).map(lambda terms: Poly(2, terms))


class TestPoly:
    @given(polys, polys)
    def test_mul_then_exact_div(self, a, b):
        if b.is_zero:
            return
        assert (a * b).exact_div(b) == a

    def test_inexact_division_raises(self):
        a = Poly(1, {(1,): F(1), (0,): F(1)})  # t + 1
        b = Poly(1, {(1,): F(1)})  # t
        with pytest.raises(ExactDivisionError):
            a.exact_div(b)

    @given(polys, st.lists(rationals, min_size=2, max_size=2))
    def test_evaluate_is_ring_hom(self, a, point):
        b = Poly(2, {(1, 0): F(2), (0, 1): F(-3)})
        assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
        assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)
