"""Nilradical realizations, index formulas, Borel data, normalizers."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from liecp import parabolic
from liecp.errors import InvalidComposition, UnsupportedType
from liecp.exactla import DEFAULT_POLICY, RankPolicy, kernel
from liecp.liealg import Subspace, is_abelian, is_ideal, new_lie_algebra
from liecp.index import index
from liecp.cp import is_cp, perp_of
from liecp.parabolic import (
    EXCEPTIONAL_TABLE1,
    CompositionA,
    CompositionC,
    borel_data_classical,
    cp_ideal_A,
    cp_ideal_C,
    index_formula_A,
    index_formula_C,
    nilradical_A,
    nilradical_C,
    NormalizerReport,
    principal_nilpotent_normalizer,
    regular_f_A,
    regular_f_C,
    table1_check,
    table1_row,
    verify_theorem62,
)

F = Fraction
P = RankPolicy()

compositions_a = st.lists(st.integers(1, 4), min_size=1, max_size=5).filter(
    lambda parts: sum(parts) <= 10
)


def compositions_c():
    halves = st.lists(st.integers(1, 3), min_size=0, max_size=3)
    r1s = st.integers(0, 3)
    return (
        st.tuples(halves, r1s)
        .filter(lambda hr: 0 < sum(hr[0]) + hr[1] <= 5)
        .map(lambda hr: CompositionC.from_half(hr[0], hr[1]))
    )


class TestCompositionA:
    def test_split_point_rule(self):
        assert CompositionA((1, 1, 1)).split_point() == 1  # tie between 1 and 2
        assert CompositionA((2, 2, 3)).split_point() == 4
        assert CompositionA((3, 1)).split_point() == 3
        assert CompositionA((7,)).split_point() == 7

    def test_validation(self):
        with pytest.raises(InvalidComposition):
            CompositionA((0, 2))


class TestCompositionC:
    def test_derived_quantities(self):
        c = CompositionC((1, 2, 2, 1))
        assert c.r == 3 and c.ell == 2 and c.r1 == 0
        c2 = CompositionC((1, 4, 1))
        assert c2.r == 3 and c2.ell == 1 and c2.r1 == 2

    def test_validation(self):
        with pytest.raises(InvalidComposition):
            CompositionC((1, 2))  # not palindromic
        with pytest.raises(InvalidComposition):
            CompositionC((1, 3, 1))  # odd middle part

    def test_from_half(self):
        assert CompositionC.from_half((1, 2), 0).parts == (1, 2, 2, 1)
        assert CompositionC.from_half((1,), 2).parts == (1, 4, 1)


def _ref_block_of(parts, pos):
    """1-based block index of a 1-based coordinate, found anew on every call."""
    total = 0
    for b, p in enumerate(parts, start=1):
        total += p
        if pos <= total:
            return b
    raise IndexError(pos)


def _ref_positions_A(comp):
    n = comp.n
    return [
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if _ref_block_of(comp.parts, i) < _ref_block_of(comp.parts, j)
    ]


def _ref_roots_C(comp):
    r = comp.r
    m = len(comp.parts)
    out = []
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            if _ref_block_of(comp.parts, i) < _ref_block_of(comp.parts, j):
                out.append(("m", i, j))
    for i in range(1, r + 1):
        for j in range(i, r + 1):
            if _ref_block_of(comp.parts, i) + _ref_block_of(comp.parts, j) <= m:
                out.append(("p", i, j))
    return out


class TestBlocks:
    """Each coordinate's block is computed once per composition; positions and roots keep their order."""

    @given(compositions_a)
    def test_type_a(self, parts):
        comp = CompositionA(tuple(parts))
        assert comp.blocks == tuple(_ref_block_of(comp.parts, pos) for pos in range(1, comp.n + 1))
        assert comp.blocks is comp.blocks
        assert parabolic._positions_A(comp) == _ref_positions_A(comp)

    @given(compositions_c())
    def test_type_c(self, comp):
        assert comp.blocks == tuple(_ref_block_of(comp.parts, pos) for pos in range(1, 2 * comp.r + 1))
        assert parabolic._roots_C(comp) == _ref_roots_C(comp)


class TestNilradicalA:
    def test_three_blocks_heisenberg(self):
        algebra, positions = nilradical_A(CompositionA((1, 1, 1)))
        assert algebra.dim == 3
        i12 = positions.index((1, 2))
        i23 = positions.index((2, 3))
        i13 = positions.index((1, 3))
        w = algebra.bracket(algebra.basis_vector(i12), algebra.basis_vector(i23))
        assert w == algebra.basis_vector(i13)

    def test_single_block_cut_abelian(self):
        algebra, _ = nilradical_A(CompositionA((2, 3)))
        assert algebra.dim == 6 and algebra.sc == {}

    def test_full_upper_triangular(self):
        algebra, _ = nilradical_A(CompositionA((1,) * 5))
        assert algebra.dim == 10

    @given(compositions_a)
    def test_dimension_identity(self, parts):
        comp = CompositionA(tuple(parts))
        algebra, _ = nilradical_A(comp)
        assert 2 * algebra.dim == comp.n**2 - sum(p * p for p in comp.parts)


class TestIndexFormulas:
    def test_borel_a_values(self):
        # odd n = 2t+1: all-ones composition has index t
        assert index_formula_A(CompositionA((1,) * 3)) == 1
        assert index_formula_A(CompositionA((1,) * 5)) == 2
        assert index_formula_A(CompositionA((1,) * 7)) == 3

    def test_two_two_three(self):
        assert index_formula_A(CompositionA((2, 2, 3))) == 8

    def test_c_borel_is_rank(self):
        assert index_formula_C(CompositionC((1, 1, 1, 1))) == 2
        assert index_formula_C(CompositionC((1, 1, 1, 1, 1, 1))) == 3

    def test_c_single_even_block(self):
        assert index_formula_C(CompositionC((2, 2))) == 3


class TestCPIdealA:
    def test_block_cut_whole_abelian_nilradical(self):
        comp = CompositionA((2, 3))
        assert cp_ideal_A(comp).dim == 6

    def test_three_ones(self):
        comp = CompositionA((1, 1, 1))
        p = cp_ideal_A(comp)
        assert p.dim == 2  # p = 1: positions (1,2), (1,3)

    def test_dim_equals_p_times_n_minus_p(self):
        comp = CompositionA((2, 2, 3))
        assert cp_ideal_A(comp).dim == 4 * 3

    @given(compositions_a)
    def test_cp_dimension_and_parity(self, parts):
        comp = CompositionA(tuple(parts))
        algebra, _ = nilradical_A(comp)
        i = index_formula_A(comp)
        assert (algebra.dim - i) % 2 == 0
        assert 2 * cp_ideal_A(comp).dim == algebra.dim + i


class TestCPIdealC:
    def test_borel_c2(self):
        comp = CompositionC((1, 1, 1, 1))
        assert cp_ideal_C(comp).dim == 3

    def test_one_two_two_one(self):
        comp = CompositionC((1, 2, 2, 1))
        assert cp_ideal_C(comp).dim == 6

    @given(compositions_c())
    def test_cp_dimension_formula(self, comp):
        r, r1 = comp.r, comp.r1
        assert 2 * cp_ideal_C(comp).dim == (r * r - r1 * r1) + (r - r1)


class TestTheorem62:
    @pytest.mark.parametrize(
        "parts,expected_index",
        [((1, 1, 1), 1), ((2, 3), 6), ((1, 1, 1, 1, 1), 2), ((3, 1), 3), ((2, 2, 3), 8)],
    )
    def test_type_a_cases(self, parts, expected_index):
        rep = verify_theorem62(parts, "A", P)
        assert rep.ok and rep.formula_index == expected_index

    @pytest.mark.parametrize(
        "parts,expected_index",
        [((1, 1, 1, 1), 2), ((1, 2, 2, 1), 4), ((2, 2), 3), ((1, 1, 1, 1, 1, 1), 3)],
    )
    def test_type_c_cases(self, parts, expected_index):
        rep = verify_theorem62(parts, "C", P)
        assert rep.ok and rep.formula_index == expected_index

    @given(compositions_a)
    def test_type_a_property(self, parts):
        rep = verify_theorem62(parts, "A", P)
        assert rep.ok

    @given(compositions_c())
    def test_type_c_property(self, comp):
        rep = verify_theorem62(comp.parts, "C", P)
        assert rep.ok

    def test_p_and_f_are_exact_partners(self):
        for parts, family in [((1, 2, 1), "A"), ((1, 1, 1, 1), "C")]:
            if family == "A":
                comp = CompositionA(parts)
                algebra, _ = nilradical_A(comp)
                p, f = cp_ideal_A(comp), regular_f_A(comp)
            else:
                comp = CompositionC(parts)
                algebra, _ = nilradical_C(comp)
                p, f = cp_ideal_C(comp), regular_f_C(comp)
            assert is_abelian(algebra, p) and is_ideal(algebra, p)
            assert perp_of(algebra, p, f) == p

    def test_unsupported_family(self):
        with pytest.raises(UnsupportedType):
            verify_theorem62((1, 1), "B", P)


class TestBorel:
    def test_type_a_matches_all_ones_nilradical(self):
        nilrad, borel = borel_data_classical("A", 3)
        direct, _ = nilradical_A(CompositionA((1, 1, 1, 1)))
        assert nilrad == direct
        assert borel.dim == nilrad.dim + 3

    def test_dimensions(self):
        for fam, rank, dim_n in [("A", 2, 3), ("B", 3, 9), ("C", 2, 4), ("D", 4, 12)]:
            nilrad, borel = borel_data_classical(fam, rank)
            assert nilrad.dim == dim_n
            assert borel.dim == dim_n + rank

    def test_rank_caps(self):
        with pytest.raises(UnsupportedType):
            borel_data_classical("A", 8)
        with pytest.raises(UnsupportedType):
            borel_data_classical("D", 3)
        with pytest.raises(UnsupportedType):
            borel_data_classical("Z", 2)


class TestTable1:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_type_a(self, rank):
        rep = table1_check("A", rank, P)
        assert rep.ok and rep.sum_rule

    @pytest.mark.parametrize("rank", [3, 4])
    def test_type_b(self, rank):
        rep = table1_check("B", rank, P)
        assert rep.ok and rep.half_exceeds_m

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_type_c(self, rank):
        rep = table1_check("C", rank, P)
        assert rep.ok and rep.cp.is_cp

    @pytest.mark.parametrize("rank", [4, 5])
    def test_type_d(self, rank):
        rep = table1_check("D", rank, P)
        assert rep.ok and rep.half_exceeds_m

    @pytest.mark.parametrize("family, rank", [("A", 6), ("A", 7), ("C", 5), ("D", 5)])
    def test_forced_certification(self, family, rank):
        # every index here is proved: by a sample meeting the term rank, or by
        # elimination on a coadjoint slice
        rep = table1_check(family, rank, RankPolicy(certify=True))
        row = table1_row(family, rank)
        assert (rep.dim_n, rep.index_n, rep.index_b) == (row.dim_n, row.index_n, row.index_b)
        assert rep.row == row and rep.ok and rep.certified

    @pytest.mark.parametrize(
        "family, rank",
        [(f, r) for f in "ABCD" for r in range(parabolic._RANK_MINS[f], parabolic._RANK_CAPS[f] + 1)],
    )
    def test_default_policy_certifies_every_borel(self, family, rank):
        for algebra in borel_data_classical(family, rank):
            assert index(algebra, DEFAULT_POLICY).certified

    def test_specific_rows(self):
        b3 = table1_row("B", 3)
        assert (b3.dim_n, b3.index_n, b3.index_b, b3.half, b3.max_abelian) == (9, 3, 0, 6, 5)
        c2 = table1_row("C", 2)
        assert (c2.dim_n, c2.index_n, c2.index_b) == (4, 2, 0)
        a3 = table1_row("A", 3)
        assert (a3.dim_n, a3.index_n, a3.index_b, a3.half) == (6, 2, 1, 4)
        d4 = table1_row("D", 4)
        assert (d4.dim_n, d4.index_n, d4.half, d4.max_abelian) == (12, 4, 8, 6)

    def test_exceptional_constants_document_no_cp(self):
        for row in EXCEPTIONAL_TABLE1.values():
            assert row.half > row.max_abelian


class TestNormalizer:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sl_n(self, n):
        rep = principal_nilpotent_normalizer(n, P)
        assert rep.ok
        assert rep.dim_centralizer == n - 1
        assert rep.dim_normalizer == 2 * (n - 1)
        assert rep.index_normalizer == 0
        assert rep.cp.is_cp and rep.cp.is_ideal

    def test_out_of_range(self):
        with pytest.raises(UnsupportedType):
            principal_nilpotent_normalizer(7, P)


class TestBorelConsistency:
    def test_index_sum_rule_and_parity_sweep(self):
        for fam, ranks in [("A", (1, 2, 3)), ("B", (3,)), ("C", (2, 3)), ("D", (4,))]:
            for rank in ranks:
                nilrad, borel = borel_data_classical(fam, rank)
                i_n = index(nilrad, P).index
                i_b = index(borel, P).index
                assert i_n + i_b == rank
                assert (nilrad.dim - i_n) % 2 == 0
                assert (borel.dim - i_b) % 2 == 0


# ---------------------------------------------------------------------------
# Reference: the lead-scan builder with hand-built lead lists, which read
# every commutator at every basis lead and rebuilt it to check the result
# ---------------------------------------------------------------------------


def _ref_e(a, b):
    return {(a, b): F(1)}


def _ref_add(m1, m2, c=F(1)):
    out = dict(m1)
    for pos, v in m2.items():
        out[pos] = out.get(pos, F(0)) + c * v
        if not out[pos]:
            del out[pos]
    return out


def _ref_commutator(m1, m2):
    out = {}
    for (a1, b1), v1 in m1.items():
        for (a2, b2), v2 in m2.items():
            if b1 == a2:
                out = _ref_add(out, {(a1, b2): v1 * v2})
            if b2 == a1:
                out = _ref_add(out, {(a2, b1): -v1 * v2})
    return out


def _ref_algebra(labels, mats, leads):
    brackets = {}
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            c = _ref_commutator(mats[i], mats[j])
            table = {k: c[lead] / mats[k][lead] for k, lead in enumerate(leads) if c.get(lead)}
            recon = {}
            for k, v in table.items():
                recon = _ref_add(recon, mats[k], v)
            if recon != c:
                raise ArithmeticError("commutator escapes the spanned set of matrices")
            if table:
                brackets[(i, j)] = table
    return new_lie_algebra(len(mats), tuple(labels), brackets)


def _ref_label(prefix, i, j, wide):
    return f"{prefix}{i}_{j}" if wide else f"{prefix}{i}{j}"


def _ref_basis_A(comp):
    positions = parabolic._positions_A(comp)
    labels = [_ref_label("E", i, j, comp.n > 9) for i, j in positions]
    return labels, [_ref_e(i, j) for i, j in positions], list(positions)


def _ref_basis_C(comp):
    n = 2 * comp.r
    labels, mats, leads = [], [], []
    for kind, i, j in parabolic._roots_C(comp):
        labels.append(_ref_label("Xm" if kind == "m" else "Xp", i, j, comp.r > 9))
        if kind == "m":
            mats.append(_ref_add(_ref_e(i, j), _ref_e(n + 1 - j, n + 1 - i), F(-1)))
            leads.append((i, j))
        elif i == j:
            mats.append(_ref_e(i, n + 1 - i))
            leads.append((i, n + 1 - i))
        else:
            mats.append(_ref_add(_ref_e(i, n + 1 - j), _ref_e(j, n + 1 - i)))
            leads.append((i, n + 1 - j))
    return labels, mats, leads


def _ref_basis_so(n):
    r = n // 2
    labels, mats, leads = [], [], []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if a + b >= n + 1:
                continue
            if b <= r:
                labels.append(_ref_label("Xm", a, b, r > 9))
            elif n % 2 and b == r + 1:
                labels.append(f"Xe{a}")
            else:
                labels.append(_ref_label("Xp", a, n + 1 - b, r > 9))
            mats.append(_ref_add(_ref_e(a, b), _ref_e(n + 1 - b, n + 1 - a), F(-1)))
            leads.append((a, b))
    return labels, mats, leads


def _ref_cartan(pairs):
    labels = [f"H{h}" for h in range(1, len(pairs) + 1)]
    return labels, [_ref_add(_ref_e(a, a), _ref_e(b, b), F(-1)) for a, b in pairs], [(a, a) for a, _ in pairs]


def _ref_borel(family, rank):
    if family == "A":
        n = rank + 1
        nil = _ref_basis_A(CompositionA((1,) * n))
        cartan = _ref_cartan([(a, a + 1) for a in range(1, n)])
    else:
        n = 2 * rank + 1 if family == "B" else 2 * rank
        nil = _ref_basis_C(CompositionC((1,) * n)) if family == "C" else _ref_basis_so(n)
        cartan = _ref_cartan([(a, n + 1 - a) for a in range(1, rank + 1)])
    return _ref_algebra(*nil), _ref_algebra(*(x + y for x, y in zip(nil, cartan)))


def _ref_normalizer(n, policy):
    off = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    mats = [_ref_e(i, j) for i, j in off] + _ref_cartan([(a, a + 1) for a in range(1, n)])[1]
    dim = len(mats)

    def coords(mat):
        diag = [mat.get((a, a), F(0)) for a in range(1, n + 1)]
        return tuple(mat.get(pos, F(0)) for pos in off) + tuple(sum(diag[: a + 1]) for a in range(n - 1))

    def as_matrix(vec):
        out = {}
        for coeff, m in zip(vec, mats):
            out = _ref_add(out, m, coeff)
        return out

    x = {(i, i + 1): F(1) for i in range(1, n)}
    ad_cols = [coords(_ref_commutator(x, m)) for m in mats]
    cx = Subspace(dim, tuple(kernel([[col[k] for col in ad_cols] for k in range(dim)], dim)))
    rows = []
    for cmat in [as_matrix(row) for row in cx.basis]:
        cols = [cx.residual(coords(_ref_commutator(m, cmat))) for m in mats]
        rows += [[cols[a][k] for a in range(dim)] for k in range(dim)]
    normalizer = Subspace(dim, tuple(kernel(rows, dim)))
    f_mats = [as_matrix(row) for row in normalizer.basis]
    brackets = {}
    for a in range(normalizer.dim):
        for b in range(a + 1, normalizer.dim):
            w = normalizer.coordinates_of(coords(_ref_commutator(f_mats[a], f_mats[b])))
            brackets[(a, b)] = dict(enumerate(w))
    f_alg = new_lie_algebra(normalizer.dim, tuple(f"y{k + 1}" for k in range(normalizer.dim)), brackets)
    cx_in_f = Subspace.span(normalizer.dim, [normalizer.coordinates_of(row) for row in cx.basis])
    abelian = is_abelian(f_alg, cx_in_f)
    idx = index(f_alg, policy)
    cp_rep = is_cp(f_alg, cx_in_f, policy)
    ok = cx.dim == n - 1 and normalizer.dim == 2 * (n - 1) and abelian and idx.index == 0 and cp_rep.is_cp
    return NormalizerReport(n, cx.dim, abelian, normalizer.dim, idx.index, cp_rep, ok and cp_rep.is_ideal)


def _all_compositions(n):
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in _all_compositions(n - first):
            yield (first,) + rest


SWEEP = [("A", c) for n in range(1, 8) for c in _all_compositions(n)]
SWEEP += [
    ("C", CompositionC.from_half(half, r - sum(half)).parts)
    for r in range(1, 5)
    for s in range(r + 1)
    for half in _all_compositions(s)
]


class TestFirstPositionBuilder:
    def test_every_sweep_composition(self):
        assert len(SWEEP) == 157
        for family, parts in SWEEP:
            if family == "A":
                comp = CompositionA(parts)
                new, ref = nilradical_A(comp)[0], _ref_algebra(*_ref_basis_A(comp))
            else:
                comp = CompositionC(parts)
                new, ref = nilradical_C(comp)[0], _ref_algebra(*_ref_basis_C(comp))
            assert new == ref, (family, parts)

    @pytest.mark.parametrize(
        "family, rank",
        [("A", r) for r in range(1, 8)] + [(f, r) for f in "BC" for r in range(2, 6)] + [("D", 4), ("D", 5)],
    )
    def test_borels(self, family, rank):
        assert borel_data_classical(family, rank) == _ref_borel(family, rank)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_normalizer(self, n):
        assert principal_nilpotent_normalizer(n, P) == _ref_normalizer(n, P)

    def test_shared_first_position_raises(self):
        mats = [{(1, 2): F(1)}, {(1, 2): F(1), (2, 3): F(1)}]
        with pytest.raises(ArithmeticError, match="first position"):
            parabolic._algebra_from_matrices(["a", "b"], mats)

    def test_commutator_outside_the_span_raises(self):
        # E_12 and E_23 without E_13
        with pytest.raises(ArithmeticError, match="escapes"):
            parabolic._algebra_from_matrices(["a", "b"], [{(1, 2): F(1)}, {(2, 3): F(1)}])

    def test_sl_n_cartan_needs_the_triangular_solve(self):
        # [E_13, E_31] = E_11 - E_33 = H1 + H2: the position (3, 3) is H3's
        # first position, so reading each position once would give H1 - H3
        labels = ["E13", "E31", "H1", "H2", "H3"]
        mats = [{(1, 3): F(1)}, {(3, 1): F(1)}] + parabolic._cartan([(1, 2), (2, 3), (3, 4)])[1]
        gl = parabolic._algebra_from_matrices(labels, mats)
        assert gl.bracket_table(0, 1) == {2: F(1), 3: F(1)}
