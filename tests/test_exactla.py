"""Exact linear algebra: ranks, kernels, solving, and generic rank."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, strategies as st

from liecp import catalog, exactla
from liecp.cli import main
from liecp.errors import ExactDivisionError
from liecp.exactla import (
    LinFormMatrix,
    RankPolicy,
    evaluate,
    full_rank_witness,
    generic_rank,
    kernel,
    random_point,
    rank_exact,
    rref,
    _exact_div,
    _mul_sub,
    _symbolic_rank,
    is_alternating,
    rank_bound,
    term_rank,
)
from liecp.index import bracket_matrix
from liecp.parabolic import CompositionA, borel_data_classical, nilradical_A

F = Fraction

rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 6))


def matrix(rows, cols):
    """(dense rows, cols)."""
    return st.lists(
        st.lists(rationals, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda data: (data, cols))


small_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(lambda c: matrix(r, c))
)


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_vec(rows, v):
    return tuple(sum((F(x) * y for x, y in zip(row, v)), F(0)) for row in rows)


def sympy_rank(rows, cols) -> int:
    """Rank of dense or {col: value} rows."""
    dense = [[row.get(j, 0) for j in range(cols)] if isinstance(row, dict) else row for row in rows]
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in dense]).rank() if rows else 0


def sympy_generic_rank(m: LinFormMatrix) -> int:
    ts = sympy.symbols(f"t0:{m.nvars}")
    forms = [m.entries[i].get(j, {}) for i in range(m.rows) for j in range(m.cols)]
    return sympy.Matrix(m.rows, m.cols, [sum(sympy.Rational(c) * ts[k] for k, c in f.items()) for f in forms]).rank()


class TestRankExact:
    def test_identity(self):
        assert rank_exact(identity(3), 3) == 3

    def test_zero(self):
        assert rank_exact([[0] * 4] * 4, 4) == 0

    def test_proportional_rows(self):
        assert rank_exact([[1, 2], [2, 4]], 2) == 1

    @given(small_matrices)
    def test_matches_sympy(self, m):
        assert rank_exact(*m) == sympy_rank(*m)

    @given(small_matrices)
    def test_bounded_by_shape(self, m):
        rows, cols = m
        assert rank_exact(rows, cols) <= min(len(rows), cols)

    @given(st.integers(2, 5).flatmap(lambda n: st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_antisymmetric_rank_even(self, data):
        n = len(data)
        anti = [[data[i][j] - data[j][i] for j in range(n)] for i in range(n)]
        assert rank_exact(anti, n) % 2 == 0


class TestKernel:
    def test_identity_kernel_empty(self):
        assert kernel(identity(3), 3) == []

    def test_zero_matrix_full_kernel(self):
        basis = kernel([[0] * 3] * 2, 3)
        assert len(basis) == 3

    def test_single_row(self):
        m = [[1, 1, 0]]
        basis = kernel(m, 3)
        assert len(basis) == 2
        for v in basis:
            assert mat_vec(m, v) == (F(0),)

    @given(small_matrices)
    def test_rank_nullity(self, m):
        assert len(kernel(*m)) + rank_exact(*m) == m[1]

    @given(small_matrices)
    def test_kernel_annihilated_and_echelon(self, m):
        basis = kernel(*m)
        for v in basis:
            assert all(x == 0 for x in mat_vec(m[0], v))
        rows, _ = rref(basis, m[1])
        assert [tuple(r) for r in rows] == basis


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
            assert rank_exact(b, L.dim) == sympy_rank(b, L.dim)


@st.composite
def sparse_and_dense_rows(draw):
    """(rows as {col: value}, the equal dense rows, cols): zero and repeated rows,
    rational entries, empty columns, int and Fraction values; a mapping may
    keep some of its zero entries."""
    cols = draw(st.integers(0, 6))
    empty = draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=cols))
    entry = st.one_of(st.just(0), st.just(F(0)), st.integers(-9, 9), rationals)
    dense = [
        [0 if j in empty else x for j, x in enumerate(row)]
        for row in draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=6))
    ]
    for _ in range(draw(st.integers(0, 3))):
        dense.insert(draw(st.integers(0, len(dense))), list(draw(st.sampled_from(dense))) if dense else [0] * cols)
    keep_zeros = draw(st.booleans())
    sparse = [{j: x for j, x in enumerate(row) if x or keep_zeros and j % 2} for row in dense]
    return sparse, dense, cols


def sympy_matrix(rows, cols):
    return sympy.Matrix(len(rows), cols, [sympy.Rational(x) for row in rows for x in row])


class TestSparseRows:
    """rref, rank and kernel on {col: value} rows equal the same calls on the dense rows, and sympy."""

    @given(sparse_and_dense_rows())
    @example(([], [], 3))
    @example(([{}, {}], [[], []], 0))
    @example(([{0: F(1, 2), 2: 3}, {}, {0: 1, 2: 6}], [[F(1, 2), 0, 3], [0, 0, 0], [1, 0, 6]], 3))
    def test_matches_dense_and_sympy(self, case):
        sparse, dense, cols = case
        red, pivots = rref(sparse, cols)
        assert (red, pivots) == rref(dense, cols)
        ref, ref_pivots = sympy_matrix(dense, cols).rref()
        assert pivots == list(ref_pivots)
        assert red == [[F(int(x.p), int(x.q)) for x in ref.row(i)] for i in range(len(ref_pivots))]
        assert rank_exact(sparse, cols) == rank_exact(dense, cols) == len(ref_pivots)
        basis = kernel(sparse, cols)
        assert basis == kernel(dense, cols)
        null = sympy_matrix(dense, cols).nullspace()
        ref_null = sympy.Matrix.hstack(*null).T.rref()[0].tolist() if null else []
        assert basis == [tuple(F(int(x.p), int(x.q)) for x in row) for row in ref_null]

    @pytest.mark.parametrize("bad", [{3: 1}, {-1: 1}, {0: 1, 7: F(1, 2)}, {3: 0}])
    def test_column_outside_the_range_is_rejected(self, bad):
        rows = [{0: 1, 1: 2}, bad]
        for call in (rref, rank_exact, kernel):
            with pytest.raises(ValueError):
                call(rows, 3)

    def test_dense_entry_outside_the_range_is_rejected(self):
        with pytest.raises(ValueError):
            rref([[1, 0, 0, 5]], 3)


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
        assert evaluate(m, [0, 0, 0, 0]) == [{}, {}, {}, {}]

    def test_linear_form_difference(self):
        m = LinFormMatrix.build(1, 1, 2, lambda i, j: {0: F(1), 1: F(-1)})
        assert evaluate(m, [3, 1]) == [{0: 2}]

    def test_diamond_at_x_star(self):
        # Independent oracle: by hand, at f = x* the only surviving entries are
        # +-f(x) at positions (0,1)/(1,0), giving a rank-2 matrix.
        m = evaluate(diamond_bracket_matrix(), [0, 1, 0, 0])
        assert m == [{1: -1}, {0: 1}, {}, {}]
        assert rank_exact(m, 4) == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(diamond_bracket_matrix(), [1, 2, 3])

    def test_rows_scaled_by_the_lcm_of_their_denominators(self):
        m = LinFormMatrix(2, 2, 2, ({0: {0: F(1, 2)}, 1: {0: F(1), 1: F(-2, 3)}}, {}))
        assert m.scaled == ((6, ((0, ((0, 3),)), (1, ((0, 6), (1, -4))))), (1, ()))

    def test_rational_point_and_coefficients(self):
        # row 0 times 6 at the point times 4 is (9, 34); divided back by 24
        m = LinFormMatrix(2, 2, 2, ({0: {0: F(1, 2)}, 1: {0: F(1), 1: F(-2, 3)}}, {}))
        assert evaluate(m, (F(3, 4), F(-1))) == [{0: F(3, 8), 1: F(17, 12)}, {}]
        assert all(type(x) is F for x in evaluate(m, (1, 2))[0].values())


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
        assert sympy_generic_rank(m) == generic_rank(m).rank

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
        assert generic_rank(m, RankPolicy(certify=True)).rank == sympy_generic_rank(m)

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
            assert rank_exact(evaluate(m, point), 4) <= g

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

    def test_certify_is_on_by_default(self):
        assert RankPolicy().certify is True

    def test_certify_off_samples_only(self):
        # the B3 nilradical has term rank 8 and rank 6: no sample certifies it
        m = bracket_matrix(borel_data_classical("B", 3)[0])

        def eliminate(m, point):
            raise AssertionError("certify=False must not eliminate")

        assert generic_rank(m, RankPolicy(certify=False), eliminate=eliminate) == (6, False)

    def test_certify_auto_is_rejected(self, tmp_path):
        path = tmp_path / "diamond.alg"
        path.write_text(catalog.data_text("diamond.alg"))
        with pytest.raises(SystemExit) as exc:
            main(["index", str(path), "--certify", "auto"])
        assert exc.value.code == 2


class TestFullRankWitness:
    def test_first_full_rank_draw(self):
        rng = random.Random(0)
        d0, d1 = random_point(rng, 2, 10**6), random_point(rng, 2, 10**6)
        # diag(t0, t1) has full rank at the first draw; diag(t0 - (d0[0] / d0[1]) t1, t1) is singular
        # there and not at the second
        diag = LinFormMatrix(2, 2, 2, ({0: {0: F(1)}}, {1: {1: F(1)}}))
        assert full_rank_witness(diag, RankPolicy()) == d0
        missed = LinFormMatrix(2, 2, 2, ({0: {0: F(1), 1: -d0[0] / d0[1]}}, {1: {1: F(1)}}))
        assert full_rank_witness(missed, RankPolicy()) == d1

    @pytest.mark.parametrize("samples", [1, 5, 40])
    def test_rank_deficient(self, samples):
        # two proportional rows: no draw gives rank 2, so None after max(samples, 16) draws
        m = LinFormMatrix(2, 2, 1, ({0: {0: F(1)}}, {0: {0: F(2)}}))
        assert full_rank_witness(m, RankPolicy(samples=samples)) is None


class TestFirstMiss:
    """Under certify=True, generic_rank eliminates right after the first sample that misses."""

    @pytest.fixture
    def drawn(self, monkeypatch):
        points = []

        def recording(rng, n, bound):
            points.append(random_point(rng, n, bound))
            return points[-1]

        monkeypatch.setattr(exactla, "random_point", recording)
        return points

    def test_one_sample_then_elimination(self, drawn):
        m = bracket_matrix(borel_data_classical("B", 3)[0])
        passed = []

        def eliminate(m, point):
            passed.append(point)
            return 6

        assert generic_rank(m, RankPolicy(certify=True), eliminate=eliminate) == (6, True)
        assert len(drawn) == 1 and passed == drawn

    def test_certify_off_draws_every_sample(self, drawn):
        m = bracket_matrix(borel_data_classical("B", 3)[0])
        policy = RankPolicy(samples=7, certify=False)
        assert generic_rank(m, policy) == (6, False)
        assert len(drawn) == policy.samples


# Packed monomials for the polynomial helper tests: two variables, fields of
# WIDTH bits (the top one the guard bit), variable 0 most significant.
WIDTH = 5
GUARD = (1 << (2 * WIDTH - 1)) | (1 << (WIDTH - 1))


def pack(e0: int, e1: int) -> int:
    return (e0 << WIDTH) | e1


def evaluate_packed(p: dict[int, int], x0: int, x1: int) -> int:
    mask = (1 << WIDTH) - 1
    return sum(c * x0 ** (m >> WIDTH) * x1 ** (m & mask) for m, c in p.items())


int_polys = st.dictionaries(
    st.builds(pack, st.integers(0, 3), st.integers(0, 3)), st.integers(-9, 9).filter(bool), max_size=4
)


class TestIntPoly:
    @given(int_polys, int_polys)
    def test_mul_then_exact_div(self, a, b):
        if not b:
            return
        assert _exact_div(_mul_sub(a, b, {}, {}), b, GUARD) == a

    @given(int_polys, int_polys, int_polys, int_polys, st.integers(-5, 5), st.integers(-5, 5))
    def test_mul_sub_evaluates_as_ring_hom(self, a, b, c, d, x0, x1):
        value = evaluate_packed(_mul_sub(a, b, c, d), x0, x1)
        ev = [evaluate_packed(p, x0, x1) for p in (a, b, c, d)]
        assert value == ev[0] * ev[1] - ev[2] * ev[3]

    def test_monomial_that_does_not_divide_raises(self):
        # (t0 + 1) / t0: the remainder 1 has no multiple of t0
        with pytest.raises(ExactDivisionError):
            _exact_div({pack(1, 0): 1, pack(0, 0): 1}, {pack(1, 0): 1}, GUARD)
        # t0 / t1 borrows from variable 0's guard bit into variable 1's field
        with pytest.raises(ExactDivisionError):
            _exact_div({pack(1, 0): 1}, {pack(0, 1): 1}, GUARD)

    def test_coefficient_remainder_raises(self):
        with pytest.raises(ExactDivisionError):
            _exact_div({pack(1, 1): 3}, {pack(0, 1): 2}, GUARD)
        with pytest.raises(ExactDivisionError):
            _exact_div({pack(2, 0): 1, pack(1, 1): 1}, {pack(1, 0): 1, pack(0, 1): 2}, GUARD)


# Reference elimination: the same pivot rule and swaps over Q[x], with
# Fraction coefficients and exponent-tuple monomials.


def _ref_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, F(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _ref_sub(p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, F(0)) - c
    return {m: c for m, c in out.items() if c}


def _ref_exact_div(num, den):
    num, out = dict(num), {}
    lead_d = max(den)
    while num:
        lead = max(num)
        mono = tuple(a - b for a, b in zip(lead, lead_d))
        assert all(e >= 0 for e in mono), "division is not exact"
        out[mono] = num[lead] / den[lead_d]
        num = _ref_sub(num, _ref_mul({mono: out[mono]}, den))
    return out


def reference_symbolic_rank(m: LinFormMatrix) -> int:
    unit = [tuple(int(i == k) for i in range(m.nvars)) for k in range(m.nvars)]
    a = [[{unit[k]: F(c) for k, c in row.get(j, {}).items()} for j in range(m.cols)] for row in m.entries]
    nr, nc = m.rows, m.cols
    rank, prev = 0, None
    while rank < min(nr, nc):
        keys = [(len(a[i][j]), i, j) for i in range(rank, nr) for j in range(rank, nc) if a[i][j]]
        if not keys:
            break
        _, pi, pj = min(keys)
        a[rank], a[pi] = a[pi], a[rank]
        for row in a:
            row[rank], row[pj] = row[pj], row[rank]
        piv = a[rank][rank]
        for i in range(rank + 1, nr):
            rik = a[i][rank]
            for j in range(rank + 1, nc):
                num = _ref_sub(_ref_mul(piv, a[i][j]), _ref_mul(rik, a[rank][j]))
                a[i][j] = _ref_exact_div(num, prev) if prev is not None and num else num
            a[i][rank] = {}
        prev = piv
        rank += 1
    return rank


@st.composite
def deficient_linform_matrices(draw):
    """Rows are constant rational combinations of at most `k` base rows of
    linear forms in 3 variables, so the rank is at most k; a drawn column may be zeroed."""
    rows, cols, k = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(0, 3))
    forms = st.dictionaries(st.integers(0, 2), rationals.filter(bool), max_size=2)
    base = [draw(st.lists(forms, min_size=cols, max_size=cols)) for _ in range(k)]
    zero_col = draw(st.one_of(st.none(), st.integers(0, cols - 1)))
    data = []
    for _ in range(rows):
        coeffs = draw(st.lists(st.sampled_from([F(0), F(1), F(-2, 3), F(5, 7)]), min_size=k, max_size=k))
        row = []
        for j in range(cols):
            form = {}
            for c, b in zip(coeffs, base):
                for var, x in b[j].items():
                    form[var] = form.get(var, F(0)) + c * x
            row.append({} if j == zero_col else form)
        data.append(row)
    return LinFormMatrix.build(rows, cols, 3, lambda i, j: data[i][j])


# The A4, A5, B3, B4 and D4 Borel nilradicals (part 0) and the Borels among
# them that are not full rank (part 1); the B and D Borels here have index 0.
BOREL_CASES = [("A", 4, 0), ("A", 4, 1), ("A", 5, 0), ("A", 5, 1), ("B", 3, 0), ("B", 4, 0), ("D", 4, 0)]


class TestSymbolicRank:
    @given(deficient_linform_matrices())
    @example(LinFormMatrix.build(3, 3, 3, lambda i, j: {}))
    @example(LinFormMatrix.build(2, 2, 1, lambda i, j: {0: F(1 + i, 2 + j)}))
    @example(LinFormMatrix.build(2, 3, 3, lambda i, j: {0: F(1, 2), 2: F(-1, 3)} if j < 2 else {}))
    @example(LinFormMatrix.build(3, 2, 3, lambda i, j: {} if i == 1 else {j: F(i + 1, 4)}))
    def test_matches_sympy_on_rank_deficient_rational_matrices(self, m):
        assert _symbolic_rank(m) == sympy_generic_rank(m)

    @pytest.mark.parametrize("name", catalog.names())
    def test_catalog_matches_reference_elimination(self, name):
        m = bracket_matrix(catalog.get(name))
        assert _symbolic_rank(m) == reference_symbolic_rank(m)

    @pytest.mark.parametrize("family, rank, part", BOREL_CASES)
    def test_borel_matches_reference_elimination(self, family, rank, part):
        m = bracket_matrix(borel_data_classical(family, rank)[part])
        assert _symbolic_rank(m) == reference_symbolic_rank(m) < min(m.rows, m.cols)

    def test_type_a_nilradical_1_5_1(self):
        # numerators reach degree 2 * min(rows, cols) before their division;
        # fields sized for the entry degree alone overflow on this matrix
        L, _ = nilradical_A(CompositionA((1, 5, 1)))
        m = bracket_matrix(L)
        assert _symbolic_rank(m) == reference_symbolic_rank(m) == 10


sparse_forms = st.one_of(st.just({}), st.dictionaries(st.integers(0, 2), rationals.filter(bool), min_size=1, max_size=2))


@st.composite
def bounded_linform_matrices(draw):
    """Sparse matrices of linear forms in 3 variables; half of them alternating."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        upper = {(i, j): draw(sparse_forms) for i in range(n) for j in range(i + 1, n)}

        def entry(i, j):
            if i < j:
                return upper[i, j]
            return {k: -c for k, c in upper[j, i].items()} if i > j else {}

        return LinFormMatrix.build(n, n, 3, entry)
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    data = [[draw(sparse_forms) for _ in range(cols)] for _ in range(rows)]
    return LinFormMatrix.build(rows, cols, 3, lambda i, j: data[i][j])


def brute_force_term_rank(m: LinFormMatrix) -> int:
    """Largest k such that some k rows and k columns pair up through nonzero entries."""
    for k in range(min(m.rows, m.cols), 0, -1):
        for rows in itertools.combinations(range(m.rows), k):
            for cols in itertools.permutations(range(m.cols), k):
                if all(j in m.entries[i] for i, j in zip(rows, cols)):
                    return k
    return 0


class TestRankBound:
    @given(bounded_linform_matrices())
    @example(diamond_bracket_matrix())
    def test_bounds_the_symbolic_rank(self, m):
        bound = rank_bound(m)
        assert term_rank(m) == brute_force_term_rank(m)
        assert _symbolic_rank(m) <= bound
        if is_alternating(m):
            assert bound == term_rank(m) - term_rank(m) % 2
        else:
            assert bound == term_rank(m)

    @given(bounded_linform_matrices())
    def test_certified_sample_matches_elimination(self, m):
        rank, certified = generic_rank(m, RankPolicy(certify=False))
        if certified:
            assert rank == _symbolic_rank(m)

    def test_alternating_is_read_from_the_entries(self):
        assert is_alternating(diamond_bracket_matrix())
        assert not is_alternating(LinFormMatrix.build(2, 2, 1, lambda i, j: {0: F(1)} if i < j else {}))
        assert not is_alternating(LinFormMatrix.build(2, 2, 1, lambda i, j: {0: F(1)}))
        assert not is_alternating(LinFormMatrix.build(1, 2, 1, lambda i, j: {}))

    def test_odd_term_rank_of_an_alternating_matrix_is_rounded_down(self):
        # the 3 x 3 cross-product matrix has term rank 3 and rank 2
        m = LinFormMatrix.build(
            3, 3, 3, lambda i, j: {} if i == j else {3 - i - j: F(1) if (j - i) % 3 == 1 else F(-1)}
        )
        assert (term_rank(m), rank_bound(m)) == (3, 2)
        assert generic_rank(m, RankPolicy(certify=False)) == (2, True)

    def test_b3_nilradical_is_not_met_by_its_term_rank(self):
        m = bracket_matrix(borel_data_classical("B", 3)[0])
        assert (term_rank(m), rank_bound(m)) == (8, 8)
        assert generic_rank(m, RankPolicy(certify=False)) == (6, False)
