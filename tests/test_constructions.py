"""Equivalence reports for semidirect, associative, and left-symmetric builds."""

from fractions import Fraction

import pytest

from liecp import constructions
from liecp.errors import InconsistentConditions, NoUnit, NotCommutativeIdeal
from liecp.exactla import RankPolicy
from liecp.liealg import (
    is_abelian,
    is_ideal,
    lie_algebra_from_label_table,
    new_assoc_algebra,
    new_lsa_algebra,
    parse_span,
)
from liecp.index import index, is_frobenius
from liecp.constructions import (
    abelianization_semidirect_check,
    frobenius_associative_report,
    lsa_frobenius_report,
    semidirect_cp_report,
)

F = Fraction
P = RankPolicy()


def two_dim_nonabelian():
    return lie_algebra_from_label_table(("x", "y"), {("x", "y"): {"y": 1}})


def sl2():
    return lie_algebra_from_label_table(
        ("h", "e", "f"),
        {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}},
    )


def dual_numbers():
    return new_assoc_algebra(
        2, ("1", "t"), {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, unit=(1, 0)
    )


def mat2():
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    products = {}
    for (a, b), i in idx.items():
        for (c, d), j in idx.items():
            if b == c:
                products[(i, j)] = {idx[(a, d)]: 1}
    return new_assoc_algebra(4, ("E11", "E12", "E21", "E22"), products, unit=(1, 0, 0, 1))


def square_zero_surface():
    """k[x,y]/(x^2, xy, y^2): commutative, unital, not Frobenius."""
    return new_assoc_algebra(
        3,
        ("1", "x", "y"),
        {
            (0, 0): {0: 1},
            (0, 1): {1: 1},
            (1, 0): {1: 1},
            (0, 2): {2: 1},
            (2, 0): {2: 1},
        },
        unit=(1, 0, 0),
    )


class TestSemidirect:
    def test_identity_on_line(self):
        g = lie_algebra_from_label_table(("x",), {})
        rep = semidirect_cp_report(g, [[[1]]], 1, P)
        assert rep.consistent and all(rep.conditions.values())
        assert rep.built.dim == 2

    def test_adjoint_of_frobenius_algebra(self):
        g = two_dim_nonabelian()
        action = [g.ad(g.basis_vector(i)) for i in range(2)]
        rep = semidirect_cp_report(g, action, 2, P)
        assert all(rep.conditions.values())
        assert is_frobenius(rep.built, P)
        assert rep.built.dim == 4

    def test_sl2_on_adjoint_module_all_false(self):
        g = sl2()
        action = [g.ad(g.basis_vector(i)) for i in range(3)]
        rep = semidirect_cp_report(g, action, 3, P, v_labels=("w1", "w2", "w3"))
        assert rep.consistent and not any(rep.conditions.values())

    def test_dim_precondition(self):
        g = sl2()
        with pytest.raises(ValueError):
            semidirect_cp_report(g, [[[0]]] * 3, 1, P)

    def test_numeric_identity_when_conditions_hold(self):
        g = two_dim_nonabelian()
        action = [g.ad(g.basis_vector(i)) for i in range(2)]
        rep = semidirect_cp_report(g, action, 2, P)
        assert index(rep.built, P).index + g.dim == 2


class TestSinglePass:
    """The conditions are evaluated once under the caller's policy, never re-run."""

    @pytest.fixture
    def no_witness(self, monkeypatch):
        # the sampled witness misses although the other conditions hold
        calls = []

        def missed(form, policy):
            calls.append(policy)
            return False

        monkeypatch.setattr(constructions, "_stabilizer_vanishes_somewhere", missed)
        return calls

    @staticmethod
    def report(policy):
        g = lie_algebra_from_label_table(("x",), {})
        return semidirect_cp_report(g, [[[1]]], 1, policy)

    def test_uncertified_disagreement_is_reported(self, no_witness):
        weak = RankPolicy(certify=False)
        rep = self.report(weak)
        assert not rep.consistent
        assert rep.conditions == {
            "cp_ideal": True,
            "index_matches": True,
            "action_rank_full": True,
            "stabilizer_vanishes": False,
        }
        assert no_witness == [weak]

    def test_certified_disagreement_raises(self, no_witness):
        with pytest.raises(InconsistentConditions, match="equivalent conditions disagree"):
            self.report(P)
        assert no_witness == [P]


class TestAssociative:
    def test_dual_numbers_frobenius(self):
        rep = frobenius_associative_report(dual_numbers(), P)
        assert all(rep.conditions.values())
        assert rep.built.dim == 4

    def test_mat2_frobenius(self):
        rep = frobenius_associative_report(mat2(), P)
        assert all(rep.conditions.values())
        assert rep.built.dim == 8

    def test_square_zero_not_frobenius(self):
        rep = frobenius_associative_report(square_zero_surface(), P)
        assert rep.consistent and not any(rep.conditions.values())
        assert index(rep.built, P).index > 0

    def test_requires_unit(self):
        no_unit = new_assoc_algebra(1, ("n",), {})
        with pytest.raises(NoUnit):
            frobenius_associative_report(no_unit, P)

    def test_commutative_route_agrees_with_scalar_extension(self):
        # for commutative Frobenius coefficients, the module construction and
        # the scalar extension of an index-zero algebra are both index zero
        from liecp.liealg import tensor_commutative

        a = dual_numbers()
        rep = frobenius_associative_report(a, P)
        assert index(rep.built, P).index == 0
        tensored = tensor_commutative(a, two_dim_nonabelian())
        assert index(tensored, P).index == 2 * index(two_dim_nonabelian(), P).index == 0


class TestLSA:
    def test_ground_field(self):
        a = new_lsa_algebra(1, ("1",), {(0, 0): {0: 1}})
        rep = lsa_frobenius_report(a, P)
        assert all(rep.conditions.values())
        assert rep.built.dim == 2

    def test_dual_numbers_as_lsa(self):
        a = new_lsa_algebra(2, ("1", "t"), {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}})
        rep = lsa_frobenius_report(a, P)
        assert all(rep.conditions.values())
        assert rep.built.dim == 4 and is_frobenius(rep.built, P)

    def test_zero_product_negative(self):
        a = new_lsa_algebra(1, ("n",), {})
        rep = lsa_frobenius_report(a, P)
        assert rep.consistent and not any(rep.conditions.values())


class TestAbelianization:
    def test_morozov4(self):
        L = lie_algebra_from_label_table(
            tuple(f"e{i}" for i in range(1, 7)),
            {("e1", "e2"): {"e5": 1}, ("e1", "e3"): {"e6": 1}, ("e2", "e4"): {"e6": 1}},
        )
        v = parse_span(L, "e3,e4,e5,e6")
        rep = abelianization_semidirect_check(L, v, P)
        assert rep.cp_in_parent and rep.cp_in_flattened
        assert rep.index_match and rep.index_parent == rep.index_flattened == 2

    def test_h3_center_too_small(self):
        L = lie_algebra_from_label_table(("x", "y", "z"), {("x", "y"): {"z": 1}})
        rep = abelianization_semidirect_check(L, parse_span(L, "z"), P)
        assert not rep.cp_in_parent and not rep.cp_in_flattened
        assert rep.index_match is None

    def test_diamond_xz_ideal(self):
        L = lie_algebra_from_label_table(
            ("t", "x", "y", "z"),
            {("t", "x"): {"x": -1}, ("t", "y"): {"y": 1}, ("x", "y"): {"z": 1}},
        )
        v = parse_span(L, "x,z")
        assert is_ideal(L, v) and is_abelian(L, v)
        rep = abelianization_semidirect_check(L, v, P)
        assert not rep.cp_in_parent and not rep.cp_in_flattened

    def test_rejects_noncommutative_ideal(self):
        L = lie_algebra_from_label_table(
            ("t", "x", "y", "z"),
            {("t", "x"): {"x": -1}, ("t", "y"): {"y": 1}, ("x", "y"): {"z": 1}},
        )
        with pytest.raises(NotCommutativeIdeal):
            abelianization_semidirect_check(L, parse_span(L, "x,y,z"), P)
