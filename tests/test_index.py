"""Index, stabilizers, stabilizer-span ideal, invariant forms."""

import random
from fractions import Fraction

import pytest
import sympy

from liecp import index as index_module
from liecp.errors import AmbientMismatch
from liecp.exactla import (
    RankPolicy,
    _symbolic_rank,
    evaluate,
    generic_rank,
    random_point,
    rank_bound,
    rank_exact,
    rref,
)
from liecp.liealg import (
    Functional,
    Subspace,
    center,
    direct_product,
    is_ideal,
    is_subalgebra,
    lie_algebra_from_label_table,
    new_assoc_algebra,
    new_lie_algebra,
    tensor_commutative,
)
from liecp.index import (
    bracket_matrix,
    frobenius_semiradical,
    has_nondeg_invariant_form,
    index,
    invariant_symmetric_forms,
    is_frobenius,
    is_square_integrable,
    sample_regular,
    slice_coordinates,
    slice_matrix,
    slice_rank,
    stabilizer,
    _spans_off_slice,
)
from liecp import catalog, parabolic
from liecp.parabolic import (
    CompositionA,
    CompositionC,
    borel_data_classical,
    nilradical_A,
    nilradical_C,
    verify_theorem62,
)

F = Fraction
P = RankPolicy()


def diamond():
    return lie_algebra_from_label_table(
        ("t", "x", "y", "z"),
        {("t", "x"): {"x": -1}, ("t", "y"): {"y": 1}, ("x", "y"): {"z": 1}},
    )


def h3():
    return lie_algebra_from_label_table(("x", "y", "z"), {("x", "y"): {"z": 1}})


def abelian(n):
    return new_lie_algebra(n, tuple(f"a{i}" for i in range(n)), {})


def morozov4():
    return lie_algebra_from_label_table(
        tuple(f"e{i}" for i in range(1, 7)),
        {("e1", "e2"): {"e5": 1}, ("e1", "e3"): {"e6": 1}, ("e2", "e4"): {"e6": 1}},
    )


def g5():
    return lie_algebra_from_label_table(
        tuple(f"x{i}" for i in range(1, 6)),
        {("x1", "x2"): {"x3": 1}, ("x1", "x3"): {"x4": 1}, ("x2", "x3"): {"x5": 1}},
    )


def seeley_12457n(xi):
    return lie_algebra_from_label_table(
        ("a", "b", "c", "d", "e", "f", "g"),
        {
            ("a", "b"): {"c": 1},
            ("a", "c"): {"d": 1},
            ("a", "d"): {"g": 1},
            ("a", "e"): {"f": 1},
            ("a", "f"): {"g": 1},
            ("b", "c"): {"e": 1},
            ("b", "d"): {"f": 1},
            ("b", "e"): {"g": xi},
            ("b", "f"): {"g": 1},
            ("c", "d"): {"g": 1},
            ("c", "e"): {"g": -1},
        },
    )


class TestBracketMatrix:
    def test_abelian_zero(self):
        m = bracket_matrix(abelian(3))
        assert m.entries == ({}, {}, {})

    def test_h3_single_entry(self):
        m = bracket_matrix(h3())
        assert m.entries[0][1] == {2: F(1)}
        assert m.entries[1][0] == {2: F(-1)}
        assert 2 not in m.entries[0] and 2 not in m.entries[2]

    def test_diamond_pattern(self):
        m = bracket_matrix(diamond())
        assert m.entries[0][1] == {1: F(-1)}
        assert m.entries[0][2] == {2: F(1)}
        assert m.entries[1][2] == {3: F(1)}

    @pytest.mark.parametrize("name", catalog.names())
    def test_rows_come_from_the_structure_constants_alone(self, name, monkeypatch):
        # one {col: form} row per row, no empty form, and no per-entry bracket_table lookup
        L = catalog.get(name)
        expected = [{j: L.bracket_table(i, j) for j in range(L.dim) if L.bracket_table(i, j)} for i in range(L.dim)]

        def lookup(*args):
            raise AssertionError("bracket_matrix looked up an entry")

        monkeypatch.setattr(type(L), "bracket_table", lookup)
        assert list(bracket_matrix(L).entries) == expected


class TestIndex:
    def test_diamond(self):
        assert index(diamond(), P).index == 2

    def test_abelian(self):
        assert index(abelian(5), P).index == 5

    def test_morozov4(self):
        assert index(morozov4(), P).index == 2

    def test_sympy_oracle_on_small_algebras(self):
        for algebra, expected in ((h3(), 1), (g5(), 3), (diamond(), 2)):
            m = bracket_matrix(algebra)
            ts = sympy.symbols(f"t0:{algebra.dim}")
            sm = sympy.Matrix(
                [
                    [sum(sympy.Rational(c) * ts[k] for k, c in m.entries[i].get(j, {}).items()) for j in range(algebra.dim)]
                    for i in range(algebra.dim)
                ]
            )
            assert algebra.dim - sm.rank() == expected == index(algebra, P).index

    def test_parity(self):
        for algebra in (diamond(), h3(), morozov4(), g5(), abelian(4)):
            rep = index(algebra, P)
            assert (algebra.dim - rep.index) % 2 == 0

    def test_invariant_under_global_bracket_scaling(self):
        from liecp.liealg import new_lie_algebra

        for base in (diamond(), morozov4(), g5()):
            for lam in (F(2), F(-1), F(1, 3)):
                scaled = new_lie_algebra(
                    base.dim,
                    base.labels,
                    {p: {k: lam * c for k, c in t.items()} for p, t in base.sc.items()},
                )
                assert index(scaled, P).index == index(base, P).index


class TestStabilizer:
    def test_diamond_x_star(self):
        L = diamond()
        f = Functional.from_coords((0, 1, 0, 0))
        assert stabilizer(L, f) == L.span_of_labels(["y", "z"])

    def test_zero_functional(self):
        L = diamond()
        assert stabilizer(L, Functional.from_coords((0, 0, 0, 0))).dim == 4

    def test_h3_z_star(self):
        L = h3()
        assert stabilizer(L, Functional.from_coords((0, 0, 1))) == L.span_of_labels(["z"])

    def test_contains_center_and_is_subalgebra(self):
        for L in (diamond(), morozov4(), g5()):
            for coords in [(1, 2, 3, 4, 5, 6)[: L.dim], (0, 1, 1, 0, 0, 1)[: L.dim]]:
                s = stabilizer(L, Functional.from_coords(coords))
                assert s.contains_subspace(center(L))
                assert is_subalgebra(L, s)


class TestRegular:
    def test_diamond_x_star_regular(self):
        L = diamond()
        assert stabilizer(L, Functional.from_coords((0, 1, 0, 0))).dim == index(L, P).index

    def test_zero_regular_iff_abelian(self):
        L = abelian(3)
        assert stabilizer(L, Functional.from_coords((0, 0, 0))).dim == index(L, P).index
        L = diamond()
        assert stabilizer(L, Functional.from_coords((0, 0, 0, 0))).dim != index(L, P).index

    def test_h3_x_star_not_regular(self):
        L = h3()
        assert stabilizer(L, Functional.from_coords((1, 0, 0))).dim != index(L, P).index

    def test_sample_regular_has_minimal_stabilizer(self):
        for L in (diamond(), h3(), morozov4()):
            f = sample_regular(L, P)
            assert stabilizer(L, f).dim == index(L, P).index

    def test_sample_regular_deterministic(self):
        assert sample_regular(diamond(), P) == sample_regular(diamond(), P)

    def test_sampling_exhausted_surfaces(self):
        from liecp.errors import SamplingExhausted

        with pytest.raises(SamplingExhausted):
            sample_regular(diamond(), P, attempts=0)

    def test_seed_independent_index(self):
        for seed in (0, 1, 2):
            pol = RankPolicy(seed=seed)
            f = sample_regular(diamond(), pol)
            assert stabilizer(diamond(), f).dim == 2


class TestFSR:
    @pytest.mark.parametrize("build", [diamond, lambda: catalog.get("morozov6_4")])
    def test_each_stabilizer_computed_once(self, monkeypatch, build):
        # the regularity test's stabilizer is the one added to the span
        L = build()
        index(L, P)
        calls = []

        def counted(L, f):
            calls.append(f)
            return stabilizer(L, f)

        monkeypatch.setattr(index_module, "stabilizer", counted)
        rep = frobenius_semiradical(L, P)
        assert len(calls) == rep.samples_used == len(rep.functionals) > 1
        assert tuple(calls) == rep.functionals

    def test_first_draw_is_sample_regular(self):
        L = catalog.get("morozov6_4")
        assert frobenius_semiradical(L, P).functionals[0] == sample_regular(L, P)

    def test_diamond_full(self):
        rep = frobenius_semiradical(diamond(), P)
        assert rep.subspace.dim == 4 and rep.converged

    def test_abelian_full(self):
        rep = frobenius_semiradical(abelian(3), P)
        assert rep.subspace.dim == 3 and rep.converged

    def test_contains_center_and_ideal_when_converged(self):
        for L in (diamond(), h3(), morozov4(), g5()):
            rep = frobenius_semiradical(L, P)
            assert rep.subspace.contains_subspace(center(L))
            if rep.converged:
                assert is_ideal(L, rep.subspace)

    def test_seeley_family_at_degenerate_parameter(self):
        L = seeley_12457n(F(1))
        rep = frobenius_semiradical(L, P)
        target = Subspace.span(
            7,
            [
                (1, -1, 0, 0, 0, 0, 0),
                (0, 0, 1, 0, 0, 0, 0),
                (0, 0, 0, 1, 0, 0, 0),
                (0, 0, 0, 0, 1, 0, 0),
                (0, 0, 0, 0, 0, 1, 0),
                (0, 0, 0, 0, 0, 0, 1),
            ],
        )
        assert target.contains_subspace(rep.subspace)
        assert rep.subspace == target  # sampling reaches the full span here

    @pytest.mark.parametrize("build", [diamond, g5, morozov4, lambda: catalog.get("morozov6_4")])
    def test_stop_is_asked_each_time_the_span_grows(self, build):
        L = build()
        asked = []
        rep = frobenius_semiradical(L, P, stop=lambda span: asked.append(span) or False)
        assert rep == frobenius_semiradical(L, P)
        assert [s.dim for s in asked] == sorted({s.dim for s in asked}) and asked[-1] == rep.subspace
        # stopping at the k-th growth keeps exactly the draws made up to it
        for span in asked:
            stopped = frobenius_semiradical(L, P, stop=lambda s: s.dim >= span.dim)
            assert stopped.subspace == span and not stopped.converged
            assert stopped.functionals == rep.functionals[: len(stopped.functionals)]

    def test_functionals_are_regular(self):
        rep = frobenius_semiradical(morozov4(), P)
        idx = index(morozov4(), P).index
        for f in rep.functionals:
            assert stabilizer(morozov4(), f).dim == idx


class TestInvariantForms:
    def test_g5_has_form(self):
        assert has_nondeg_invariant_form(g5(), P)

    def test_diamond_has_form(self):
        assert has_nondeg_invariant_form(diamond(), P)

    def test_h3_has_none(self):
        assert not has_nondeg_invariant_form(h3(), P)

    def test_g6_has_form(self):
        g6 = lie_algebra_from_label_table(
            tuple(f"x{i}" for i in range(1, 7)),
            {("x1", "x2"): {"x6": 1}, ("x1", "x3"): {"x4": 1}, ("x2", "x3"): {"x5": 1}},
        )
        assert has_nondeg_invariant_form(g6, P)

    def test_family_solutions_are_invariant(self):
        # every point of the solution family satisfies invariance exactly
        L = g5()
        fam = invariant_symmetric_forms(L)
        point = tuple(F(m + 1) for m in range(fam.nvars))
        from liecp.exactla import evaluate

        b = [[row.get(j, F(0)) for j in range(L.dim)] for row in evaluate(fam, point)]
        for i in range(L.dim):
            for j in range(L.dim):
                for k in range(L.dim):
                    lhs = sum(
                        (c * b[p][k] for p, c in L.bracket_table(i, j).items()), F(0)
                    )
                    rhs = sum(
                        (c * b[j][p] for p, c in L.bracket_table(i, k).items()), F(0)
                    )
                    assert lhs + rhs == 0
        # symmetry of the family
        for i in range(L.dim):
            for j in range(L.dim):
                assert b[i][j] == b[j][i]

    def test_known_g5_form_is_in_family(self):
        # b(x1,x5) = b(x3,x3) = 1, b(x2,x4) = -1 solves the system
        L = g5()
        fam = invariant_symmetric_forms(L)
        target = [[F(0)] * 5 for _ in range(5)]
        target[0][4] = target[4][0] = F(1)
        target[2][2] = F(1)
        target[1][3] = target[3][1] = F(-1)
        # solve for parameters reproducing the target matrix
        rows = []
        rhs = []
        for i in range(5):
            for j in range(i, 5):
                rows.append([fam.entries[i].get(j, {}).get(m, F(0)) for m in range(fam.nvars)])
                rhs.append(target[i][j])
        sol, params = sympy.Matrix(rows).gauss_jordan_solve(sympy.Matrix(rhs))
        point = [F(int(x.p), int(x.q)) for x in sol.subs({t: 0 for t in params})]
        assert evaluate(fam, point) == [{j: x for j, x in enumerate(row) if x} for row in target]

    @pytest.mark.parametrize("policy", [P, RankPolicy(certify=False)], ids=["certify", "sample"])
    def test_term_rank_below_dim_is_a_certified_no(self, policy, monkeypatch):
        # Z(L) + [L, L] has dimension 19 = dim L, but the 49-variable family has term
        # rank 14 < 19: a certified no with no sampling and no elimination
        L = direct_product(
            direct_product(catalog.get("free_two_step", n=4), catalog.get("morozov6_8")), catalog.get("h3")
        )
        forms = invariant_symmetric_forms(L)
        assert (L.dim, forms.nvars, index_module.rank_bound(forms)) == (19, 49, 14)
        assert center(L).dim + index_module.derived_subalgebra(L).dim == L.dim

        def fail(*args, **kwargs):
            raise AssertionError("sampled or eliminated")

        monkeypatch.setattr(index_module, "generic_rank", fail)
        monkeypatch.setattr(index_module, "_symbolic_rank", fail)
        assert index_module.nondeg_invariant_form(L, policy) == (False, True)


def _dense_invariant_forms(L):
    """Reference: one dense row per (i, j <= k), zero rows dropped, and the
    identity when no row is left."""
    from liecp.exactla import LinFormMatrix, kernel

    n = L.dim
    unknowns = n * (n + 1) // 2
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                row = [F(0)] * unknowns
                for p, c in L.bracket_table(i, j).items():
                    row[index_module._sym_index(n, p, k)] += c
                for p, c in L.bracket_table(i, k).items():
                    row[index_module._sym_index(n, j, p)] += c
                if any(x != 0 for x in row):
                    rows.append(row)
    if rows:
        basis = kernel(rows, unknowns)
    else:
        basis = [tuple(F(int(t == s)) for t in range(unknowns)) for s in range(unknowns)]

    def entry(p, q):
        s = index_module._sym_index(n, p, q)
        return {m: basis[m][s] for m in range(len(basis)) if basis[m][s]}

    return LinFormMatrix.build(n, n, len(basis), entry)


class TestInvariantFormsReference:
    @pytest.mark.parametrize("name", catalog.names())
    def test_catalog(self, name):
        L = catalog.get(name)
        assert invariant_symmetric_forms(L) == _dense_invariant_forms(L)

    @pytest.mark.parametrize("family, rank", [("B", 3), ("D", 4)])
    def test_borel_nilradicals(self, family, rank):
        L = borel_data_classical(family, rank)[0]
        assert invariant_symmetric_forms(L) == _dense_invariant_forms(L)

    def test_abelian_is_every_symmetric_form(self):
        fam = invariant_symmetric_forms(catalog.get("abelian"))
        assert fam.nvars == 10 and fam == _dense_invariant_forms(catalog.get("abelian"))


def _dense_build_invariant_forms(L):
    """The invariance system as dense rows through `kernel`, as `_build_invariant_forms` built it before sparse rows."""
    from liecp.exactla import LinFormMatrix, kernel

    n = L.dim
    unknowns = n * (n + 1) // 2
    rows = []
    for i in range(n):
        ad_i = [L.bracket_table(i, j) for j in range(n)]
        partners = [j for j in range(n) if ad_i[j]]
        for j in range(n):
            for k in range(j, n) if ad_i[j] else [k for k in partners if k >= j]:
                row = [F(0)] * unknowns
                for p, c in ad_i[j].items():
                    row[index_module._sym_index(n, p, k)] += c
                for p, c in ad_i[k].items():
                    row[index_module._sym_index(n, j, p)] += c
                rows.append(row)
    basis = kernel(rows, unknowns)
    nvars = len(basis)

    def entry(p, q):
        s = index_module._sym_index(n, p, q)
        return {m: basis[m][s] for m in range(nvars) if basis[m][s]}

    return LinFormMatrix.build(n, n, nvars, entry)


def _dense_center(L):
    """The stacked adjoint constraints as dense rows through `kernel`, as `center` built them before sparse rows."""
    from liecp.exactla import kernel

    rows = {}

    def row(j, k):
        return rows.setdefault((j, k), [F(0)] * L.dim)

    for (i, j), table in L.sc.items():
        for k, c in table.items():
            row(j, k)[i] += c
            row(i, k)[j] -= c
    return Subspace(L.dim, tuple(kernel([rows[key] for key in sorted(rows)], L.dim)))


def _dense_stabilizer(L, f):
    """The kernel of B_f built densely, as `stabilizer` computed it before sparse rows."""
    from liecp.exactla import kernel

    data = [[F(0)] * L.dim for _ in range(L.dim)]
    for (i, j), table in L.sc.items():
        data[i][j] = sum((c * f.coords[k] for k, c in table.items()), F(0))
        data[j][i] = -data[i][j]
    return Subspace(L.dim, tuple(kernel(data, L.dim)))


def _builder_cases():
    cases = [pytest.param(lambda name=name: catalog.get(name), id=name) for name in catalog.names()]
    return cases + [
        pytest.param(lambda f=f, r=r: borel_data_classical(f, r)[0], id=f"{f}{r} nilradical")
        for f, r in (("B", 3), ("B", 4), ("D", 4))
    ]


class TestSparseBuildersMatchDense:
    """The sparse-row builders give what the dense-row builders gave."""

    @pytest.mark.parametrize("build", _builder_cases())
    def test_invariant_forms(self, build):
        L = build()
        assert index_module._build_invariant_forms(L) == _dense_build_invariant_forms(L)

    @pytest.mark.parametrize("build", _builder_cases())
    def test_center(self, build):
        L = build()
        assert center(L) == _dense_center(L)

    @pytest.mark.parametrize("build", _builder_cases())
    def test_stabilizer_of_a_regular_functional(self, build):
        L = build()
        f = sample_regular(L, P)
        assert stabilizer(L, f) == _dense_stabilizer(L, f)
        assert stabilizer(L, f).dim == index(L, P).index


class TestPredicates:
    def test_morozov4_square_integrable(self):
        assert is_square_integrable(morozov4(), P)

    def test_diamond_not_square_integrable(self):
        assert not is_square_integrable(diamond(), P)

    def test_two_dim_nonabelian_frobenius(self):
        L = lie_algebra_from_label_table(("x", "y"), {("x", "y"): {"y": 1}})
        assert is_frobenius(L, P)
        assert not is_frobenius(h3(), P)


class TestIndexArithmetic:
    def test_direct_product_additivity(self):
        pairs = [(diamond(), h3()), (h3(), h3()), (g5(), abelian(2)), (morozov4(), h3())]
        for l1, l2 in pairs:
            prod = direct_product(l1, l2)
            assert index(prod, P).index == index(l1, P).index + index(l2, P).index

    def test_tensor_index_multiplicativity(self):
        dual = new_assoc_algebra(
            2, ("1", "t"), {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, unit=(1, 0)
        )
        for m, expect in ((h3(), 2), (diamond(), 4)):
            L = tensor_commutative(dual, m)
            assert index(L, P).index == expect

    def test_invariant_form_implies_full_fsr(self):
        # nondegenerate invariant form forces the stabilizer span to be everything
        from liecp import catalog

        g6 = lie_algebra_from_label_table(
            tuple(f"x{i}" for i in range(1, 7)),
            {("x1", "x2"): {"x6": 1}, ("x1", "x3"): {"x4": 1}, ("x2", "x3"): {"x5": 1}},
        )
        for L in (g5(), diamond(), g6, catalog.get("sl2_irr3")):
            assert has_nondeg_invariant_form(L, P)
            assert frobenius_semiradical(L, P).subspace.dim == L.dim

    def test_symplectic_extension_preserves_index_and_center(self):
        from liecp.liealg import heisenberg_extend

        L = diamond()
        extended = heisenberg_extend(L, L.basis_vector(3), 2)
        assert extended.dim == 8
        assert index(extended, P).index == 2
        assert center(extended).dim == 1


class TestBfMatrixDimension:
    @pytest.mark.parametrize("coords", [(1, 2, 3, 4), (1, 2)])
    def test_functional_of_wrong_length_rejected(self, coords):
        L = h3()
        f = Functional(len(coords), tuple(F(c) for c in coords))
        with pytest.raises(AmbientMismatch):
            stabilizer(L, f)


class TestIndexComputedOnce:
    """index(L, policy) runs generic_rank on the bracket matrix once per algebra instance and policy."""

    @pytest.fixture
    def rank_calls(self, monkeypatch):
        calls = []
        real = index_module.generic_rank

        def counting(m, policy=P, **kwargs):
            calls.append(policy)
            return real(m, policy, **kwargs)

        monkeypatch.setattr(index_module, "generic_rank", counting)
        return calls

    def test_verify_theorem62_one_call_per_policy(self, rank_calls):
        for policy in (P, RankPolicy(seed=5)):
            rank_calls.clear()
            assert verify_theorem62((2, 1, 2), "A", policy).ok
            assert rank_calls == [policy]

    def test_repeated_index_on_one_instance(self, rank_calls):
        L = morozov4()
        reports = [index(L, P) for _ in range(3)]
        assert rank_calls == [P] and reports == [reports[0]] * 3

    def test_distinct_policies_and_instances(self, rank_calls):
        first, second = morozov4(), morozov4()
        other = RankPolicy(seed=1)
        for L in (first, second):
            for policy in (P, other, P, other):
                index(L, policy)
        assert rank_calls == [P, other, P, other]
        assert index(first, other).index == index(second, P).index == 2


_SCALES = (F(2, 3), F(-5, 7), F(3), F(-1, 2), F(7, 4))


def rescaled(L):
    """L in the basis y_i = q_i x_i, q_i cycling through _SCALES: [y_i, y_j] = sum_k q_i q_j c_ij^k / q_k y_k."""
    q = [_SCALES[i % len(_SCALES)] for i in range(L.dim)]
    sc = {(i, j): {k: q[i] * q[j] * c / q[k] for k, c in table.items()} for (i, j), table in L.sc.items()}
    return new_lie_algebra(L.dim, L.labels, sc)


_RESCALED_CASES = [pytest.param(lambda name=name: catalog.get(name), id=name) for name in catalog.names()] + [
    pytest.param(lambda: borel_data_classical("A", 4)[1], id="A4 Borel"),
    pytest.param(lambda: borel_data_classical("B", 3)[1], id="B3 Borel"),
    pytest.param(lambda: borel_data_classical("B", 3)[0], id="B3 nilradical"),
]


class TestRationalStructureConstants:
    """A basis rescaled by rational factors gives rational structure constants and the same answers."""

    @pytest.mark.parametrize("build", _RESCALED_CASES)
    def test_same_index_rank_and_certificate(self, build):
        L = build()
        R = rescaled(L)
        if L.sc:
            assert any(c.denominator > 1 for table in R.sc.values() for c in table.values())
        for policy in (P, RankPolicy(certify=False)):
            assert index(R, policy) == index(L, policy)
        assert has_nondeg_invariant_form(R, P) == has_nondeg_invariant_form(L, P)


def _compositions(n):
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def _catalog_and_type_a_cases():
    """(name, constructor) pairs; constructing every algebra at collection time would slow collection."""
    cases = [(f"catalog {name}", lambda name=name: catalog.get(name)) for name in catalog.names()]
    type_a = [CompositionA(c) for n in range(1, 7) for c in _compositions(n)]
    return cases + [(f"A {c.parts}", lambda c=c: nilradical_A(c)[0]) for c in type_a]


def _slice_cases():
    cases = _catalog_and_type_a_cases()
    type_c = [CompositionC.from_half(h, r - s) for r in range(1, 4) for s in range(r + 1) for h in _compositions(s)]
    cases += [(f"C {c.parts}", lambda c=c: nilradical_C(c)[0]) for c in type_c]
    cases += [(f"{f}{r} Borel", lambda f=f, r=r: borel_data_classical(f, r)[1]) for f, r in (("A", 4), ("A", 5))]
    cases += [
        (f"{f}{r} nilradical", lambda f=f, r=r: borel_data_classical(f, r)[0])
        for f, r in (("B", 3), ("B", 4), ("B", 5), ("D", 4))
    ]
    return [pytest.param(build, id=name) for name, build in cases]


def _sample(m, seed=0):
    return random_point(random.Random(seed), m.nvars, P.coeff_bound)


def _spans_off_slice_zeroed(m, point, t):
    """Reference check: the whole of m evaluated at point zeroed off t."""
    keep = set(t)
    xi0 = [x if k in keep else F(0) for k, x in enumerate(point)]
    outside = [row for k, row in enumerate(evaluate(m, xi0)) if k not in keep]
    return rank_exact(outside, m.cols) == len(outside)


def _slice_guard_cases():
    cases = _catalog_and_type_a_cases()
    cases += [
        (f"{f}{r} {'NB'[part]}", lambda f=f, r=r, part=part: borel_data_classical(f, r)[part])
        for f in "ABCD"
        for r in range(parabolic._RANK_MINS[f], parabolic._RANK_CAPS[f] + 1)
        for part in (0, 1)
    ]
    return [pytest.param(build, id=name) for name, build in cases]


class TestCoadjointSlice:
    """slice_rank against symbolic elimination of the whole bracket matrix."""

    @pytest.mark.parametrize("build", _slice_guard_cases())
    def test_slice_search_matches_the_zeroed_point_check(self, build, monkeypatch):
        m = bracket_matrix(build())
        point = _sample(m)
        t = slice_coordinates(m, point)
        monkeypatch.setattr(index_module, "_spans_off_slice", _spans_off_slice_zeroed)
        assert slice_coordinates(m, point) == t

    @pytest.mark.parametrize("build", _slice_cases())
    def test_matches_full_elimination(self, build):
        m = bracket_matrix(build())
        point = _sample(m)
        t = slice_coordinates(m, point)
        assert _spans_off_slice(m, point, t)
        s = slice_matrix(m, t)
        assert slice_rank(m, point) == rank_bound(s) == _symbolic_rank(s) == _symbolic_rank(m)

    @pytest.mark.parametrize("name", catalog.names())
    def test_slice_below_the_index_is_rejected(self, name):
        # the rows outside t have rank at most dim - index at any point, so a t
        # with fewer than index coordinates (the empty one included) never passes
        L = catalog.get(name)
        m = bracket_matrix(L)
        point = _sample(m)
        assert not _spans_off_slice(m, point, [])
        assert not _spans_off_slice(m, point, list(range(index(L, P).index - 1)))

    @pytest.mark.parametrize("family, rank, part", [("A", 4, 1), ("B", 3, 0), ("D", 4, 0)])
    def test_dependent_rows_alone_are_rejected(self, family, rank, part):
        # the growth starts from the rows of the sample that depend on earlier
        # rows; here they fail the check, so the slice must grow past them
        m = bracket_matrix(borel_data_classical(family, rank)[part])
        point = _sample(m)
        sample = evaluate(m, point)
        columns = [{i: row[j] for i, row in enumerate(sample) if j in row} for j in range(m.cols)]
        independent = set(rref(columns, m.rows)[1])
        first = [k for k in range(m.rows) if k not in independent]
        assert not _spans_off_slice(m, point, first)
        assert slice_coordinates(m, point) != first

    def test_torus_slice_of_a_borel_is_rejected(self):
        # on the torus coordinates of the A4 Borel the bracket matrix vanishes,
        # so accepting them would report rank 0 instead of 12
        L = borel_data_classical("A", 4)[1]
        m = bracket_matrix(L)
        torus = [k for k, label in enumerate(L.labels) if label.startswith("H")]
        assert _symbolic_rank(slice_matrix(m, torus)) == 0 < _symbolic_rank(m) == 12
        assert not _spans_off_slice(m, _sample(m), torus)

    def test_index_eliminates_on_the_slice(self, monkeypatch):
        # a slice bound above the sampled rank leaves the slice to elimination
        seen = []
        real = index_module._symbolic_rank
        bound = index_module.rank_bound

        def recording(m):
            seen.append(m.nvars)
            return real(m)

        monkeypatch.setattr(index_module, "_symbolic_rank", recording)
        monkeypatch.setattr(index_module, "rank_bound", lambda m: bound(m) + 2)
        L = borel_data_classical("B", 3)[0]
        rep = index(L, RankPolicy(certify=True))
        assert (rep.index, rep.certified) == (3, True)
        assert seen and all(nvars < L.dim for nvars in seen)

    @pytest.mark.parametrize(
        "build, want",
        [
            (lambda: catalog.get("sl2_irr3"), 2),
            (lambda: borel_data_classical("A", 4)[1], 2),
            (lambda: borel_data_classical("B", 3)[0], 3),
            (lambda: borel_data_classical("D", 4)[0], 4),
            (lambda: rescaled(borel_data_classical("B", 3)[0]), 3),
        ],
        ids=["sl2_irr3", "A4 Borel", "B3 nilradical", "D4 nilradical", "rescaled B3 nilradical"],
    )
    def test_slice_term_rank_certifies_without_elimination(self, build, want, monkeypatch):
        # the sample misses the bracket matrix's term rank and reaches the slice, whose
        # term rank equals the sampled rank; each index is the full elimination's
        L = build()
        reached = []

        def recording(m, point):
            reached.append(m)
            return slice_rank(m, point)

        def fail(m):
            raise AssertionError("eliminated")

        monkeypatch.setattr(index_module, "slice_rank", recording)
        monkeypatch.setattr(index_module, "_symbolic_rank", fail)
        rep = index(L, RankPolicy(certify=True))
        assert reached and (rep.index, rep.certified) == (want, True)

    def test_elimination_below_a_sample_raises(self):
        m = bracket_matrix(borel_data_classical("B", 3)[0])
        with pytest.raises(ArithmeticError):
            generic_rank(m, RankPolicy(certify=True), eliminate=lambda m, point: 2)
