"""CP verification, witnesses, certificates, search, and lemma checks."""

import itertools
from dataclasses import replace
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, strategies as st

from liecp import catalog
from liecp import cp as cp_module
from liecp import index as index_module
from liecp.errors import (
    AmbientMismatch,
    ChainGap,
    InconsistentConditions,
    NotAnIdeal,
    NotASubalgebra,
    NotCodimOne,
    NotRegular,
    WrongCodimension,
)
from liecp.exactla import ONE, RankPolicy, RankResult, kernel
from liecp.liealg import (
    Functional,
    Subspace,
    center,
    direct_product,
    is_abelian,
    is_ideal,
    is_subalgebra,
    lie_algebra_from_label_table,
    new_lie_algebra,
    parse_span,
)
from liecp.index import frobenius_semiradical, has_nondeg_invariant_form, index
from liecp.parabolic import (
    CompositionA,
    CompositionC,
    borel_data_classical,
    nilradical_A,
    nilradical_C,
)
from liecp.cp import (
    FORM_KIND,
    FSR_KIND,
    _COMBO_COEFFS,
    centralizer_codim1_check,
    codim1_analysis,
    cp_witness_functional,
    is_cp,
    max_abelian_coordinate_ideal,
    no_cp_certificate,
    perp_of,
    quotient_cp_check,
    search_cp,
    subalgebra_cp_transfer,
    verify_index_chain,
    verify_no_cp_certificate,
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


def h5():
    return lie_algebra_from_label_table(
        tuple(f"x{i}" for i in range(1, 6)),
        {
            ("x1", "x2"): {"x3": 1},
            ("x1", "x3"): {"x4": 1},
            ("x1", "x4"): {"x5": 1},
            ("x2", "x3"): {"x5": 1},
        },
    )


def j5():
    return lie_algebra_from_label_table(
        tuple(f"x{i}" for i in range(1, 6)),
        {("x1", "x2"): {"x3": 1}, ("x1", "x3"): {"x4": 1}},
    )


def g5():
    return lie_algebra_from_label_table(
        tuple(f"x{i}" for i in range(1, 6)),
        {("x1", "x2"): {"x3": 1}, ("x1", "x3"): {"x4": 1}, ("x2", "x3"): {"x5": 1}},
    )


def g6():
    return lie_algebra_from_label_table(
        tuple(f"x{i}" for i in range(1, 7)),
        {("x1", "x2"): {"x6": 1}, ("x1", "x3"): {"x4": 1}, ("x2", "x3"): {"x5": 1}},
    )


def morozov4():
    return lie_algebra_from_label_table(
        tuple(f"e{i}" for i in range(1, 7)),
        {("e1", "e2"): {"e5": 1}, ("e1", "e3"): {"e6": 1}, ("e2", "e4"): {"e6": 1}},
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


def abelian(n):
    return new_lie_algebra(n, tuple(f"a{i}" for i in range(n)), {})


class TestIsCP:
    def test_morozov4_cp_ideal(self):
        L = morozov4()
        rep = is_cp(L, parse_span(L, "e3,e4,e5,e6"), P)
        assert rep.is_cp and rep.is_ideal
        assert rep.condition_dim and rep.condition_rank

    def test_h3_cp(self):
        L = h3()
        rep = is_cp(L, parse_span(L, "y,z"), P)
        assert rep.is_cp and rep.is_ideal
        assert rep.rank_value == 1

    def test_diamond_dimension_mismatch(self):
        L = diamond()
        rep = is_cp(L, parse_span(L, "y,z"), P)
        assert not rep.is_cp and not rep.condition_dim and not rep.condition_rank

    def test_conditions_agree_on_abelian_subalgebras(self):
        L = morozov4()
        for spec in ("e3,e4", "e5,e6", "e2,e4,e5,e6", "e1,e5,e6"):
            rep = is_cp(L, parse_span(L, spec), P)
            assert rep.condition_dim == rep.condition_rank

    def test_basis_invariance(self):
        L = morozov4()
        s1 = parse_span(L, "e3,e4,e5,e6")
        s2 = Subspace.span(6, [(0, 0, 1, 1, 0, 0), (0, 0, 1, -1, 2, 0), (0, 0, 0, 0, 1, 1), (0, 0, 0, 0, 0, 3)])
        assert s1 == s2
        assert is_cp(L, s1, P) == is_cp(L, s2, P)


class TestWitness:
    def test_morozov4_witness_found_and_verified(self):
        L = morozov4()
        p = parse_span(L, "e3,e4,e5,e6")
        f = cp_witness_functional(L, p, P)
        assert f is not None
        assert perp_of(L, p, f) == p

    def test_diamond_no_witness(self):
        L = diamond()
        assert cp_witness_functional(L, parse_span(L, "y,z"), P, attempts=24) is None

    def test_nonabelian_input_rejected(self):
        L = diamond()
        with pytest.raises(NotASubalgebra):
            cp_witness_functional(L, parse_span(L, "x,y"), P)


class TestCertificates:
    def test_diamond_both_kinds(self):
        L = diamond()
        fsr_cert = no_cp_certificate(L, P, kind=FSR_KIND)
        form_cert = no_cp_certificate(L, P, kind=FORM_KIND)
        assert fsr_cert is not None and verify_no_cp_certificate(L, fsr_cert, P)
        assert form_cert is not None and verify_no_cp_certificate(L, form_cert, P)

    def test_g5_and_g6_form_kind(self):
        for L in (g5(), g6()):
            cert = no_cp_certificate(L, P, kind=FORM_KIND)
            assert cert is not None and verify_no_cp_certificate(L, cert, P)

    def test_form_family_built_once_per_algebra(self, monkeypatch):
        builds = []
        build = index_module._build_invariant_forms
        monkeypatch.setattr(index_module, "_build_invariant_forms", lambda L: builds.append(L) or build(L))
        L = g5()
        cert = no_cp_certificate(L, P, kind=FORM_KIND)
        assert verify_no_cp_certificate(L, cert, P) and has_nondeg_invariant_form(L, P)
        assert len(builds) == 1

    def test_verification_reuses_the_default_index(self):
        # the default policy already certifies, so the re-check's certified
        # policy equals it and the index is computed once
        L = borel_data_classical("B", 4)[0]
        cert = no_cp_certificate(L, P)
        assert cert is not None and verify_no_cp_certificate(L, cert, P)
        assert list(L._index_reports) == [P]

    def test_morozov4_no_certificate(self):
        assert no_cp_certificate(morozov4(), P) is None

    def test_seeley_family_fsr_certificate_at_one(self):
        L = seeley_12457n(F(1))
        cert = no_cp_certificate(L, P)
        assert cert is not None and cert.kind == FSR_KIND
        assert verify_no_cp_certificate(L, cert, P)
        target = Subspace.span(
            7,
            [(1, -1, 0, 0, 0, 0, 0)] + [tuple(F(int(i == j)) for i in range(7)) for j in range(2, 7)],
        )
        u, v = cert.pair
        assert target.contains(u) and target.contains(v)

    def test_seeley_family_generic_parameter_has_cp(self):
        L = seeley_12457n(F(2))
        assert no_cp_certificate(L, P) is None
        rep = is_cp(L, parse_span(L, "d,e,f,g"), P)
        assert rep.is_cp and rep.is_ideal

    def test_abelian_rejected(self):
        with pytest.raises(ValueError):
            no_cp_certificate(abelian(2), P)

    def test_tampered_certificate_fails_verification(self):
        L = diamond()
        cert = no_cp_certificate(L, P, kind=FORM_KIND)
        bad = type(cert)(kind=FORM_KIND, form_point=tuple(F(0) for _ in cert.form_point))
        assert not verify_no_cp_certificate(L, bad, P)


class TestSearch:
    def test_h5(self):
        L = h5()
        found = search_cp(L, P)
        # the lexicographically first witness is <x2,x4,x5>; the classical
        # witness <x3,x4,x5> is a CP as well
        assert found == parse_span(L, "x2,x4,x5")
        assert is_cp(L, parse_span(L, "x3,x4,x5"), P).is_cp

    def test_j5(self):
        L = j5()
        found = search_cp(L, P)
        assert found == parse_span(L, "x2,x3,x4,x5")

    def test_g6_none(self):
        assert search_cp(g6(), P) is None
        assert no_cp_certificate(g6(), P) is not None

    def test_abelian_full_space(self):
        L = abelian(3)
        assert search_cp(L, P) == Subspace.full(3)

    def test_found_cp_contains_center_and_fsr(self):
        from liecp.liealg import center

        for L in (h5(), j5(), morozov4()):
            found = search_cp(L, P)
            assert found is not None
            assert found.contains_subspace(center(L))
            assert found.contains_subspace(frobenius_semiradical(L, P).subspace)

    def test_second_tier_combination_span(self):
        # [a,b] = c, [a,c] = z, [b,c] = z: index 2, so a CP has dimension 3,
        # but every 3-element coordinate span hits a nonzero bracket.  The
        # unique CP is <a-b, c, z>, reachable only through the combination
        # tier of the search.
        L = lie_algebra_from_label_table(
            ("a", "b", "c", "z"),
            {("a", "b"): {"c": 1}, ("a", "c"): {"z": 1}, ("b", "c"): {"z": 1}},
        )
        assert index(L, P).index == 2
        for spec in ("a,b,z", "a,c,z", "b,c,z", "a,b,c"):
            assert not is_cp(L, parse_span(L, spec), P).is_cp
        found = search_cp(L, P)
        expected = Subspace.span(
            4, [(1, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        )
        assert found == expected
        assert is_cp(L, found, P).is_cp


class TestChains:
    def test_h3_chain(self):
        L = h3()
        rep = verify_index_chain(L, [parse_span(L, "y,z")], P)
        assert rep.ok and rep.indices == (1, 2)
        assert rep.cp_report is not None and rep.cp_report.is_cp

    def test_morozov4_chain(self):
        L = morozov4()
        rep = verify_index_chain(
            L, [parse_span(L, "e2,e3,e4,e5,e6"), parse_span(L, "e3,e4,e5,e6")], P
        )
        assert rep.ok and rep.indices == (2, 3, 4)

    def test_diamond_chain_index_drops(self):
        L = diamond()
        rep = verify_index_chain(L, [parse_span(L, "x,y,z")], P)
        assert not rep.ok and rep.indices == (2, 1)

    def test_chain_gap(self):
        L = morozov4()
        with pytest.raises(ChainGap):
            verify_index_chain(L, [parse_span(L, "e3,e4,e5,e6")], P)

    def test_not_a_subalgebra_level(self):
        L = diamond()
        with pytest.raises(NotASubalgebra):
            verify_index_chain(L, [parse_span(L, "t,x,y")], P)


class TestQuotientCheck:
    def test_dixmier_lister_drop(self):
        L = lie_algebra_from_label_table(
            tuple(f"e{i}" for i in range(1, 9)),
            {
                ("e1", "e2"): {"e5": 1},
                ("e1", "e3"): {"e6": 1},
                ("e1", "e4"): {"e7": 1},
                ("e1", "e5"): {"e8": -1},
                ("e2", "e3"): {"e8": 1},
                ("e2", "e4"): {"e6": 1},
                ("e2", "e6"): {"e7": -1},
                ("e3", "e4"): {"e5": -1},
                ("e3", "e5"): {"e7": -1},
                ("e4", "e6"): {"e8": -1},
            },
        )
        a = parse_span(L, "e8")
        p = a + parse_span(L, "e5,e6,e7")  # some abelian ideal containing A
        f = Functional.from_coords((0, 0, 0, 0, 0, 0, 1, 0))
        assert index(L, P).index == 2
        rep = quotient_cp_check(L, p, a, f, P)
        assert rep.index_quotient == 1 and rep.drop_ok

    def test_trivial_ideal(self):
        L = morozov4()
        p = parse_span(L, "e3,e4,e5,e6")
        f = cp_witness_functional(L, p, P)
        rep = quotient_cp_check(L, p, Subspace.zero(6), f, P)
        assert rep.ok and rep.index_quotient == 2

    def test_h3_regularity_rejection(self):
        # every regular functional of h3 is nonzero on the center, so f = y*
        # cannot satisfy both regularity and f(A) = 0 for A = <z>
        L = h3()
        with pytest.raises(NotRegular):
            quotient_cp_check(
                L,
                parse_span(L, "y,z"),
                parse_span(L, "z"),
                Functional.from_coords((0, 1, 0)),
                P,
            )

    def test_not_an_ideal(self):
        L = diamond()
        with pytest.raises(NotAnIdeal):
            quotient_cp_check(
                L,
                parse_span(L, "x,z"),
                parse_span(L, "x"),
                Functional.from_coords((0, 0, 1, 0)),
                P,
            )


class TestCodim1:
    def test_diamond_derived(self):
        L = diamond()
        rep = codim1_analysis(L, parse_span(L, "x,y,z"), P)
        assert rep.direction == -1 and not rep.fsr_in_m
        assert rep.status == "certified"

    def test_b3_nilradical_sampled_is_probable(self):
        # the B3 nilradical's bracket matrix has term rank 8 but rank 6: no
        # sample reaches the term-rank bound to certify it
        L = borel_data_classical("B", 3)[0]
        m = parse_span(L, "Xm13,Xe1,Xp13,Xp12,Xm23,Xe2,Xp23,Xe3")
        rep = codim1_analysis(L, m, P.with_options(certify=False))
        assert rep.direction == -1 and not rep.fsr_in_m
        assert rep.status == "probable"

    def test_wrong_sampled_direction_is_not_certified(self):
        L = catalog.get("dixmier_lister")
        m = parse_span(L, "e2,e3,e4,e5,e6,e7,e8")
        weak = RankPolicy(samples=1, coeff_bound=2, certify=False, seed=1)
        rep = codim1_analysis(L, m, weak)
        # one unlucky sample reports the index too high and the direction wrong
        assert (rep.index_parent, rep.direction) == (4, -1)
        assert rep.status == "probable"
        truth = codim1_analysis(L, m, RankPolicy(certify=True))
        assert (truth.index_parent, truth.direction, truth.status) == (2, 1, "certified")

    def test_frobenius_2dim(self):
        L = lie_algebra_from_label_table(("x", "y"), {("x", "y"): {"y": 1}})
        rep = codim1_analysis(L, parse_span(L, "x"), P)
        assert rep.direction == 1
        assert rep.index_sub == 1 and rep.index_parent == 0

    def test_abelian_hyperplane(self):
        L = abelian(4)
        rep = codim1_analysis(L, parse_span(L, "a0,a1,a2"), P)
        assert rep.direction == -1

    def test_preconditions(self):
        L = diamond()
        with pytest.raises(NotCodimOne):
            codim1_analysis(L, parse_span(L, "y,z"), P)
        with pytest.raises(NotASubalgebra):
            codim1_analysis(
                lie_algebra_from_label_table(
                    ("x", "y", "z"), {("x", "y"): {"z": 1}}
                ),
                Subspace.span(3, [(1, 0, 0), (0, 1, 0)]),
                P,
            )


class TestSinglePass:
    """Equivalent conditions are evaluated once under the caller's policy, never re-run."""

    @pytest.fixture
    def missed_pairing_rank(self, monkeypatch):
        # the pairing rank comes out one short: a sampled miss without
        # certification, an elimination bug under it
        calls = []
        real = cp_module.generic_rank

        def missed(m, policy):
            calls.append(policy)
            return RankResult(real(m, policy).rank - 1, policy.certify)

        monkeypatch.setattr(cp_module, "generic_rank", missed)
        return calls

    def test_uncertified_miss_is_reported_not_rerun(self, missed_pairing_rank):
        L = h3()
        weak = RankPolicy(certify=False)
        rep = is_cp(L, parse_span(L, "y,z"), weak)
        assert rep.condition_dim and not rep.condition_rank and not rep.is_cp
        assert rep.certified is False
        assert missed_pairing_rank == [weak]

    def test_certified_disagreement_raises(self, missed_pairing_rank):
        L = h3()
        with pytest.raises(InconsistentConditions, match="CP conditions disagree: index 1, pairing rank 0"):
            is_cp(L, parse_span(L, "y,z"), P)
        assert missed_pairing_rank == [P]


class TestCentralizerCheck:
    def test_h5_x4(self):
        L = h5()
        rep = centralizer_codim1_check(L, L.basis_vector(3), P)
        assert rep.centralizer.dim == 4
        assert rep.index_sub == rep.index_parent + 1 == 2
        assert rep.index_ok

    def test_h3_x(self):
        L = h3()
        rep = centralizer_codim1_check(L, L.basis_vector(0), P)
        assert rep.index_sub == 2 and rep.index_ok
        assert rep.square_integrable_transfer is True
        assert rep.transferred_cp_ok

    def test_diamond_t_rejected(self):
        L = diamond()
        with pytest.raises(WrongCodimension):
            centralizer_codim1_check(L, L.basis_vector(0), P)


class TestMaxAbelianIdeal:
    def test_morozov4(self):
        from liecp.liealg import is_abelian, is_ideal

        L = morozov4()
        dim, sub = max_abelian_coordinate_ideal(L)
        assert dim == 4 and is_abelian(L, sub) and is_ideal(L, sub)
        assert 2 * dim == L.dim + index(L, P).index  # reaches the CP bound
        # the documented maximal abelian ideal is among the dimension-4 ones
        classical = parse_span(L, "e3,e4,e5,e6")
        assert is_abelian(L, classical) and is_ideal(L, classical)

    def test_abelian(self):
        L = abelian(4)
        dim, sub = max_abelian_coordinate_ideal(L)
        assert dim == 4 and sub == Subspace.full(4)

    def test_free_two_step_on_4_generators_stays_below_bound(self):
        labels = [f"e{i}" for i in range(1, 5)] + [f"e{i}{j}" for i in range(1, 5) for j in range(i + 1, 5)]
        table = {}
        for i in range(1, 5):
            for j in range(i + 1, 5):
                table[(f"e{i}", f"e{j}")] = {f"e{i}{j}": 1}
        L = lie_algebra_from_label_table(tuple(labels), table)
        dim, _ = max_abelian_coordinate_ideal(L)
        assert dim == 7
        assert 2 * dim < L.dim + index(L, P).index  # 14 < 16: no coordinate CP


class TestTransfer:
    def test_morozov4_transfer(self):
        L = morozov4()
        rep = subalgebra_cp_transfer(
            L, parse_span(L, "e2,e3,e4,e5,e6"), parse_span(L, "e3,e4,e5,e6"), P
        )
        assert rep.cp_of_parent and rep.cp_of_sub and rep.index_relation and rep.equivalent

    def test_degenerate_m_equals_l(self):
        L = morozov4()
        rep = subalgebra_cp_transfer(L, Subspace.full(6), parse_span(L, "e3,e4,e5,e6"), P)
        assert rep.cp_of_parent and rep.equivalent

    def test_diamond_counterexample(self):
        L = diamond()
        rep = subalgebra_cp_transfer(L, parse_span(L, "x,y,z"), parse_span(L, "y,z"), P)
        assert not rep.cp_of_parent and rep.cp_of_sub and not rep.index_relation
        assert rep.equivalent


class TestConsistency:
    def test_no_certificate_then_search_may_find(self):
        # positive and negative machinery never both fire
        for L in (h5(), j5(), morozov4(), g5(), g6(), diamond()):
            found = search_cp(L, P)
            cert = no_cp_certificate(L, P)
            assert found is None or cert is None

    def test_cp_contains_fsr_and_center(self):
        from liecp.liealg import center

        L = morozov4()
        p = search_cp(L, P)
        assert p.contains_subspace(frobenius_semiradical(L, P).subspace + center(L))


def perp_by_brackets(L, p, f):
    """P^f from its definition: the common kernel of x -> f([x, h]) over the basis of P."""
    rows = [[f(L.bracket(L.basis_vector(j), h)) for j in range(L.dim)] for h in p.basis]
    return Subspace(L.dim, tuple(kernel(rows, L.dim))) if rows else Subspace.full(L.dim)


_CATALOG = [catalog.get(name) for name in catalog.names()]


class TestPerpOf:
    @given(st.data())
    def test_equals_bracket_definition(self, data):
        L = data.draw(st.sampled_from(_CATALOG))
        vectors = st.lists(st.integers(-3, 3), min_size=L.dim, max_size=L.dim)
        p = Subspace.span(L.dim, data.draw(st.lists(vectors, max_size=3)))
        f = Functional(L.dim, tuple(F(x) for x in data.draw(vectors)))
        assert perp_of(L, p, f) == perp_by_brackets(L, p, f)

    def test_wrong_dimensions_rejected(self):
        L = h3()
        with pytest.raises(AmbientMismatch):
            perp_of(L, parse_span(L, "z"), Functional(4, (F(1),) * 4))
        with pytest.raises(AmbientMismatch):
            perp_of(L, parse_span(L, "z"), Functional(2, (F(1),) * 2))
        with pytest.raises(AmbientMismatch):
            perp_of(L, Subspace.full(4), Functional(3, (F(1),) * 3))


@cache
def _valid_certificates(name):
    L = catalog.get(name)
    return L, no_cp_certificate(L, P, kind=FSR_KIND), no_cp_certificate(L, P, kind=FORM_KIND)


def _first_functional(fsr, coords):
    return replace(fsr, functionals=(Functional(len(coords), coords),))


# one piece of evidence of the wrong shape, built from valid certificates of both kinds
_MALFORMED = {
    "truncated pair vector": lambda fsr, form: replace(fsr, pair=(fsr.pair[0][:-1], fsr.pair[1])),
    "extended pair vector": lambda fsr, form: replace(fsr, pair=(fsr.pair[0], fsr.pair[1] + (F(0),))),
    "pair of four vectors": lambda fsr, form: replace(fsr, pair=fsr.pair * 2),
    "short functional": lambda fsr, form: _first_functional(fsr, fsr.functionals[0].coords[:-1]),
    "long functional": lambda fsr, form: _first_functional(fsr, fsr.functionals[0].coords + (F(1),)),
    "short form point": lambda fsr, form: replace(form, form_point=form.form_point[:-1]),
    "long form point": lambda fsr, form: replace(form, form_point=form.form_point + (F(1),)),
}


class TestMalformedCertificates:
    @pytest.mark.parametrize("name", ["diamond", "g5", "g6", "sl2_irr3"])
    @pytest.mark.parametrize("shape", list(_MALFORMED))
    def test_rejected_not_raised(self, name, shape):
        L, fsr, form = _valid_certificates(name)
        assert verify_no_cp_certificate(L, fsr, P) and verify_no_cp_certificate(L, form, P)
        assert verify_no_cp_certificate(L, _MALFORMED[shape](fsr, form), P) is False


# ---------------------------------------------------------------------------
# The commuting-graph walk against the plain subset walks it replaces
# ---------------------------------------------------------------------------


def reference_search_cp(L, policy):
    """Every coordinate span, then every one-combination span, each re-checked by is_cp."""
    d = (L.dim + index(L, policy).index) // 2
    must_contain = frobenius_semiradical(L, policy).subspace + center(L)
    if must_contain.dim > d:
        return None
    support = {j for row in must_contain.basis for j, x in enumerate(row) if x != 0}

    def confirmed(c):
        return (
            c.dim == d
            and c.contains_subspace(must_contain)
            and is_abelian(L, c)
            and is_subalgebra(L, c)
            and is_cp(L, c, policy).is_cp
        )

    for subset in itertools.combinations(range(L.dim), d):
        if support <= set(subset):
            candidate = Subspace.span(L.dim, [L.basis_vector(i) for i in subset])
            if confirmed(candidate):
                return candidate
    if d == 0:
        return None
    for subset in itertools.combinations(range(L.dim), d - 1):
        rest = [i for i in range(L.dim) if i not in subset]
        for i, j in itertools.combinations(rest, 2):
            if not support <= set(subset) | {i, j}:
                continue
            for q in _COMBO_COEFFS:
                extra = [F(0)] * L.dim
                extra[i], extra[j] = F(1), q
                candidate = Subspace.span(L.dim, [L.basis_vector(s) for s in subset] + [tuple(extra)])
                if confirmed(candidate):
                    return candidate
    return None


def reference_max_abelian(L):
    for size in range(L.dim, 0, -1):
        for subset in itertools.combinations(range(L.dim), size):
            candidate = Subspace.span(L.dim, [L.basis_vector(i) for i in subset])
            if is_abelian(L, candidate) and is_ideal(L, candidate):
                return size, candidate
    return 0, Subspace.zero(L.dim)


def combination_tier():
    return lie_algebra_from_label_table(
        ("a", "b", "c", "z"),
        {("a", "b"): {"c": 1}, ("a", "c"): {"z": 1}, ("b", "c"): {"z": 1}},
    )


_WALK_INPUTS = {
    **{name: lambda name=name: catalog.get(name) for name in catalog.names()},
    "A(1,2,2,1)": lambda: nilradical_A(CompositionA((1, 2, 2, 1)))[0],
    "A(1,1,2,1,1)": lambda: nilradical_A(CompositionA((1, 1, 2, 1, 1)))[0],
    "C(1,2,2,1)": lambda: nilradical_C(CompositionC((1, 2, 2, 1)))[0],
    "B3 nilradical": lambda: borel_data_classical("B", 3)[0],
    "D4 nilradical": lambda: borel_data_classical("D", 4)[0],
    "combination tier": combination_tier,
}


@st.composite
def two_step_nilpotent(draw):
    """Generators g1..gk bracketing into central z1..zm, dim k + m <= 8."""
    k = draw(st.integers(2, 5))
    m = draw(st.integers(1, 8 - k))
    coeffs = st.dictionaries(st.integers(k, k + m - 1), st.integers(-2, 2).filter(bool), max_size=2)
    table = {(a, b): draw(coeffs) for a in range(k) for b in range(a + 1, k)}
    labels = [f"g{i}" for i in range(1, k + 1)] + [f"z{i}" for i in range(1, m + 1)]
    return new_lie_algebra(k + m, labels, table)


class TestCommutingWalk:
    @pytest.mark.parametrize("name", list(_WALK_INPUTS))
    def test_same_cp_as_reference(self, name):
        L = _WALK_INPUTS[name]()
        assert search_cp(L, P) == reference_search_cp(L, P)

    @pytest.mark.parametrize("name", list(_WALK_INPUTS))
    def test_same_max_abelian_ideal_as_reference(self, name):
        L = _WALK_INPUTS[name]()
        assert max_abelian_coordinate_ideal(L) == reference_max_abelian(L)

    @given(two_step_nilpotent())
    def test_two_step_nilpotent_against_reference(self, L):
        assert search_cp(L, P) == reference_search_cp(L, P)
        assert max_abelian_coordinate_ideal(L) == reference_max_abelian(L)

    def test_search_never_calls_is_cp(self, monkeypatch):
        # an abelian span of dimension (dim L + i_s)/2 is a CP, so no candidate is re-checked
        def refuse(*args, **kwargs):
            raise AssertionError("search_cp called is_cp")

        monkeypatch.setattr(cp_module, "is_cp", refuse)
        for name in ("h5", "j5", "morozov6_4", "abelian", "g6", "free_two_step"):
            search_cp(catalog.get(name), P)
        assert search_cp(combination_tier(), P).dim == 3

    def test_search_never_samples_the_stabilizer_span(self, monkeypatch):
        # one regular stabilizer is the whole required support
        def refuse(*args, **kwargs):
            raise AssertionError("search_cp sampled the stabilizer span or computed the center")

        monkeypatch.setattr(cp_module, "frobenius_semiradical", refuse)
        monkeypatch.setattr(cp_module, "center", refuse)
        for name in ("h5", "j5", "morozov6_4", "abelian", "g6", "diamond", "free_two_step"):
            search_cp(catalog.get(name), P)
        assert search_cp(combination_tier(), P).dim == 3

    def test_free_two_step_6_is_bounded(self, monkeypatch):
        # every commuting set holds at most one generator: 16 < d = 18, refuted
        # in a handful of walk nodes; counted in Subspace.span calls, not time
        span, calls = Subspace.span, []

        def counted(*args):
            calls.append(args)
            if len(calls) > 100:
                raise AssertionError("search_cp builds a subspace per candidate")
            return span(*args)

        monkeypatch.setattr(Subspace, "span", staticmethod(counted))
        assert search_cp(catalog.get("free_two_step", n=6), P) is None


# ---------------------------------------------------------------------------
# One regular stabilizer against the sampled span it replaces
# ---------------------------------------------------------------------------


def span_search_cp(L, policy):
    """`search_cp` as it stood with the sampled stabilizer span and the center
    as its required support, and with its early exit."""
    idx = index(L, policy)
    if (L.dim + idx.index) % 2 != 0:
        raise InconsistentConditions("dim + index must be even")
    d = (L.dim + idx.index) // 2
    must_contain = frobenius_semiradical(L, policy).subspace + center(L)
    if must_contain.dim > d:
        return None
    support = {j for row in must_contain.rows for j in row}
    first = next(cp_module._commuting_sets(L, d, support), None)
    if first is not None:
        return Subspace(L.dim, tuple({i: ONE} for i in first))
    for subset in cp_module._commuting_sets(L, d - 1, support, 2):
        rest = [i for i in range(L.dim) if i not in subset]
        for i, j in itertools.combinations(rest, 2):
            if not support <= {*subset, i, j}:
                continue
            for q in _COMBO_COEFFS:
                candidate = Subspace.span(L.dim, [{s: ONE} for s in subset] + [{i: ONE, j: q}])
                if candidate.contains_subspace(must_contain) and is_abelian(L, candidate):
                    return candidate
    return None


def _compositions(n):
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def _span_search_inputs():
    """The 39 algebras of the `search` benchmark workload, then the type-A
    nilradicals with n <= 6 and the type-C ones with r <= 3."""
    inputs = {name: lambda name=name: catalog.get(name) for name in catalog.names()}
    for fam, r in (("B", 3), ("B", 4), ("D", 4), ("D", 5), ("B", 5)):
        inputs[f"{fam}{r} nilradical"] = lambda fam=fam, r=r: borel_data_classical(fam, r)[0]
    parts_a = [(1, 2, 2, 1), (1, 1, 2, 1, 1), (2, 2, 2, 1), (1,) * 7]
    parts_a += [c for n in range(1, 7) for c in _compositions(n) if c not in parts_a]
    halves = [(r, s, half) for r in range(1, 4) for s in range(r + 1) for half in _compositions(s)]
    parts_c = [(1, 2, 2, 1), (2, 2, 2, 2)] + [CompositionC.from_half(h, r - s).parts for r, s, h in halves]
    for c in parts_a:
        inputs.setdefault(f"A{c}", lambda c=c: nilradical_A(CompositionA(c))[0])
    for c in parts_c:
        inputs.setdefault(f"C{c}", lambda c=c: nilradical_C(CompositionC(c))[0])
    return inputs


_SPAN_SEARCH_INPUTS = _span_search_inputs()


class TestOneRegularStabilizer:
    @pytest.mark.parametrize("name", list(_SPAN_SEARCH_INPUTS))
    def test_same_result_as_the_sampled_span(self, name):
        L = _SPAN_SEARCH_INPUTS[name]()
        assert search_cp(L, P) == span_search_cp(L, P)

    def test_inputs(self):
        # 28 catalog entries and 11 generated nilradicals make the workload's 39;
        # then 61 more type-A (63 with n <= 6, two already in) and 13 more type-C
        assert len(catalog.names()) == 28
        assert len(_SPAN_SEARCH_INPUTS) == 39 + 61 + 13


# ---------------------------------------------------------------------------
# The no-CP certificate stopped at the first noncommuting pair against the
# converged stabilizer span and the whole form family
# ---------------------------------------------------------------------------


def converged_certificate_kind(L, policy):
    """The kind `no_cp_certificate` gave when the stabilizer span was sampled
    to convergence and the form route took the generic rank of the family."""
    rep = frobenius_semiradical(L, policy)
    for u, v in itertools.combinations(rep.subspace.rows, 2):
        if L.sparse_bracket(u, v):
            return FSR_KIND
    family = index_module.invariant_symmetric_forms(L)
    if index_module.generic_rank(family, policy).rank < L.dim:
        return None
    return None if cp_module.full_rank_witness(family, policy) is None else FORM_KIND


def shortest_nonabelian_prefix(L, functionals):
    """The shortest prefix of `functionals` whose stabilizers span a nonabelian subspace, or None."""
    span = Subspace.zero(L.dim)
    for k, f in enumerate(functionals, 1):
        span = span + index_module.stabilizer(L, f)
        if not is_abelian(L, span):
            return functionals[:k]
    return None


def assert_early_stop_keeps_the_certificate(L, policy=P):
    if not L.sc:
        with pytest.raises(ValueError):
            no_cp_certificate(L, policy)
        return
    cert = no_cp_certificate(L, policy)
    assert (cert and cert.kind) == converged_certificate_kind(L, policy)
    prefix = shortest_nonabelian_prefix(L, frobenius_semiradical(L, policy).functionals)
    fsr_cert = no_cp_certificate(L, policy, kind=FSR_KIND)
    if prefix is None:
        assert fsr_cert is None
    else:
        # regular stabilizers are abelian (Duflo-Vergne), so one draw never suffices
        assert fsr_cert.functionals == prefix and len(prefix) >= 2
        assert verify_no_cp_certificate(L, fsr_cert, policy)


@st.composite
def products_of_small_algebras(draw):
    """A direct product of one to three small catalog algebras, with an abelian factor of dimension 0 to 2."""
    names = [name for name in catalog.names() if catalog.get(name).dim <= 6]
    factors = [catalog.get(name) for name in draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))]
    k = draw(st.integers(0, 2))
    if k:
        factors.append(new_lie_algebra(k, tuple(f"c{i}" for i in range(k)), {}))
    L = factors.pop(0)
    for factor in factors:
        L = direct_product(L, factor)
    return L


class TestEarlyStoppedCertificate:
    @pytest.mark.parametrize("name", list(_SPAN_SEARCH_INPUTS))
    def test_same_kind_as_the_converged_span(self, name):
        assert_early_stop_keeps_the_certificate(_SPAN_SEARCH_INPUTS[name]())

    @given(st.one_of(two_step_nilpotent(), products_of_small_algebras()))
    def test_same_kind_on_drawn_algebras(self, L):
        # sampled ranks: with certification on, the reference eliminates the whole form
        # family symbolically where Z(L) and [L, L] already rule a form out, which takes
        # about 20 s for morozov6_8 times a 4-dimensional abelian factor
        assert_early_stop_keeps_the_certificate(L, RankPolicy(certify=False))

    def test_stabilizer_span_certificates_take_two_draws(self):
        # the 9 stabilizer-span certificates of the search workload
        names = ["diamond", "g5", "g6", "sl2_irr3", "B3 nilradical", "B4 nilradical",
                 "D4 nilradical", "D5 nilradical", "B5 nilradical"]
        for name in names:
            L = _SPAN_SEARCH_INPUTS[name]()
            cert = no_cp_certificate(L, P)
            assert cert.kind == FSR_KIND and len(cert.functionals) == 2, name


def rank_test_form(L, policy):
    """`has_nondeg_invariant_form` as the generic rank of the whole form family against dim L."""
    return index_module.generic_rank(index_module.invariant_symmetric_forms(L), policy).rank == L.dim


def _form_check_inputs():
    """The catalog, N and B of the A7, B5, C5, D5 Borels, and the `sweep` nilradicals
    (type A with n <= 7, type C with r <= 4)."""
    inputs = {name: lambda name=name: catalog.get(name) for name in catalog.names()}
    for fam, r in (("A", 7), ("B", 5), ("C", 5), ("D", 5)):
        inputs[f"{fam}{r} nilradical"] = lambda fam=fam, r=r: borel_data_classical(fam, r)[0]
        inputs[f"{fam}{r} Borel"] = lambda fam=fam, r=r: borel_data_classical(fam, r)[1]
    for c in (c for n in range(1, 8) for c in _compositions(n)):
        inputs[f"A{c}"] = lambda c=c: nilradical_A(CompositionA(c))[0]
    halves = [(r, s, half) for r in range(1, 5) for s in range(r + 1) for half in _compositions(s)]
    for c in (CompositionC.from_half(h, r - s).parts for r, s, h in halves):
        inputs[f"C{c}"] = lambda c=c: nilradical_C(CompositionC(c))[0]
    return inputs


_FORM_CHECK_INPUTS = _form_check_inputs()


class TestInvariantFormCheck:
    @pytest.mark.parametrize("name", list(_FORM_CHECK_INPUTS))
    def test_same_answer_as_the_rank_test(self, name):
        L = _FORM_CHECK_INPUTS[name]()
        assert has_nondeg_invariant_form(L, P) == rank_test_form(L, P)

    @given(st.one_of(two_step_nilpotent(), products_of_small_algebras()))
    def test_same_answer_on_drawn_algebras(self, L):
        # sampled ranks, for the reason given in test_same_kind_on_drawn_algebras
        policy = RankPolicy(certify=False)
        assert has_nondeg_invariant_form(L, policy) == rank_test_form(L, policy)

    def test_inputs(self):
        # 28 catalog entries, 8 Borel algebras, 127 type-A and 30 type-C compositions
        assert len(_FORM_CHECK_INPUTS) == 28 + 8 + 127 + 30

    @pytest.mark.parametrize(
        "build", [lambda: catalog.get("heisenberg"), lambda: nilradical_A(CompositionA((1,) * 10))[0]],
        ids=["heisenberg", "A(1^10)"],
    )
    def test_center_and_derived_algebra_decide_without_the_family(self, build):
        # dim Z(L) + dim [L, L] < dim L: no form, and the n(n+1)/2-unknown system is never built
        L = build()
        assert not has_nondeg_invariant_form(L, P) and no_cp_certificate(L, P, kind=FORM_KIND) is None
        assert L._invariant_forms == []
