"""Data model: algebras, subspaces, constructors, file format."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from liecp import catalog
from liecp.cli import vector_expr
from liecp.errors import (
    AmbientMismatch,
    DuplicatePair,
    IndexOutOfRange,
    JacobiViolation,
    NoUnit,
    NotADerivation,
    NotAnIdeal,
    NotARepresentation,
    NotCentral,
    NotCommutative,
    NotLeftSymmetric,
    ParseError,
    ZeroVector,
)
from liecp.liealg import (
    AssocAlgebra,
    Functional,
    LieAlgebra,
    Subspace,
    center,
    centralizer,
    derivation_extend,
    derived_subalgebra,
    direct_product,
    heisenberg_extend,
    is_abelian,
    is_ideal,
    is_subalgebra,
    left_mult_action,
    lie_algebra_from_label_table,
    lie_of_associative,
    lie_of_lsa,
    new_assoc_algebra,
    new_lie_algebra,
    new_lsa_algebra,
    parse_algebra,
    parse_assoc_algebra,
    parse_lsa_algebra,
    parse_span,
    parse_vector_expr,
    quotient,
    restrict,
    semidirect_product,
    serialize_algebra,
    serialize_product_algebra,
    tensor_commutative,
)

F = Fraction


def diamond() -> LieAlgebra:
    return lie_algebra_from_label_table(
        ("t", "x", "y", "z"),
        {("t", "x"): {"x": -1}, ("t", "y"): {"y": 1}, ("x", "y"): {"z": 1}},
    )


def h3() -> LieAlgebra:
    return lie_algebra_from_label_table(("x", "y", "z"), {("x", "y"): {"z": 1}})


def abelian(n: int) -> LieAlgebra:
    return new_lie_algebra(n, tuple(f"a{i + 1}" for i in range(n)), {})


def morozov4() -> LieAlgebra:
    return lie_algebra_from_label_table(
        tuple(f"e{i}" for i in range(1, 7)),
        {("e1", "e2"): {"e5": 1}, ("e1", "e3"): {"e6": 1}, ("e2", "e4"): {"e6": 1}},
    )


class TestConstruction:
    def test_abelian_line(self):
        L = new_lie_algebra(1, ("x",), {})
        assert L.dim == 1 and L.sc == {}

    def test_diamond_valid(self):
        L = diamond()
        assert L.bracket(L.basis_vector(1), L.basis_vector(2)) == L.basis_vector(3)

    def test_jacobi_violation(self):
        # [x1,x2] = x3, [x1,x3] = x1 breaks Jacobi on (x1,x2,x3):
        # [[x1,x2],x3] + [[x2,x3],x1] + [[x3,x1],x2] = [x3,x3] + 0 - [x1,x2] = -x3.
        with pytest.raises(JacobiViolation):
            new_lie_algebra(3, ("x1", "x2", "x3"), {(0, 1): {2: 1}, (0, 2): {0: 1}})

    def test_duplicate_and_order_errors(self):
        with pytest.raises(DuplicatePair):
            lie_algebra_from_label_table(("x", "y"), {("y", "x"): {"y": 1}})

    def test_bracket_antisymmetric(self):
        L = diamond()
        u = (F(1), F(2), F(0), F(5))
        assert all(c == 0 for c in L.bracket(u, u))
        v = (F(0), F(1), F(3), F(0))
        assert L.bracket(u, v) == tuple(-c for c in L.bracket(v, u))

    def test_abelian_bracket(self):
        L = abelian(3)
        assert L.bracket((1, 2, 3), (4, 5, 6)) == (F(0),) * 3


class TestSubspace:
    def test_canonical_equality(self):
        s1 = Subspace.span(3, [(1, 1, 0), (0, 1, 1)])
        s2 = Subspace.span(3, [(2, 2, 0), (1, 2, 1), (1, 0, -1)])
        assert s1 == s2

    def test_contains_and_coordinates(self):
        s = Subspace.span(3, [(1, 0, 2), (0, 1, 1)])
        v = (F(3), F(-1), F(5))
        assert s.contains(v)
        coords = s.coordinates_of(v)
        assert coords == (F(3), F(-1))
        assert not s.contains((0, 0, 1))
        assert s.coordinates_of((0, 0, 1)) is None

    def test_sum_and_intersection(self):
        a = Subspace.span(3, [(1, 0, 0), (0, 1, 0)])
        b = Subspace.span(3, [(0, 1, 0), (0, 0, 1)])
        assert (a + b).dim == 3
        assert a.intersection(b) == Subspace.span(3, [(0, 1, 0)])

    @pytest.mark.parametrize("vector", [(1, 2, 3, 4), (1, 2)])
    def test_span_rejects_wrong_length(self, vector):
        with pytest.raises(AmbientMismatch):
            Subspace.span(3, [vector])
        with pytest.raises(AmbientMismatch):
            h3().subspace([(0, 0, 1), vector])

    def test_intersection_generic(self):
        a = Subspace.span(4, [(1, 1, 0, 0), (0, 0, 1, 1)])
        b = Subspace.span(4, [(1, 1, 1, 1), (1, 0, 0, 0)])
        inter = a.intersection(b)
        assert inter.dim == 1
        assert a.contains(inter.basis[0]) and b.contains(inter.basis[0])


class TestStructuralSubspaces:
    def test_center_diamond(self):
        assert center(diamond()) == diamond().span_of_labels(["z"])

    def test_center_morozov4(self):
        L = morozov4()
        assert center(L) == L.span_of_labels(["e5", "e6"])

    def test_center_abelian(self):
        assert center(abelian(4)).dim == 4

    def test_derived_diamond(self):
        L = diamond()
        assert derived_subalgebra(L) == L.span_of_labels(["x", "y", "z"])

    def test_derived_abelian_and_h3(self):
        assert derived_subalgebra(abelian(3)).is_zero
        L = h3()
        assert derived_subalgebra(L) == L.span_of_labels(["z"])

    def test_centralizer(self):
        L = diamond()
        assert centralizer(L, L.basis_vector(3)).dim == 4
        Lh = h3()
        assert centralizer(Lh, Lh.basis_vector(0)) == Lh.span_of_labels(["x", "z"])

    def test_centralizer_of_root_vector_in_sl2(self):
        sl2 = lie_algebra_from_label_table(
            ("h", "e", "f"),
            {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}},
        )
        assert centralizer(sl2, sl2.basis_vector(1)) == sl2.span_of_labels(["e"])

    def test_predicates_on_morozov4(self):
        L = morozov4()
        p = L.span_of_labels(["e3", "e4", "e5", "e6"])
        assert is_ideal(L, p) and is_abelian(L, p) and is_subalgebra(L, p)

    def test_subalgebra_not_ideal(self):
        L = diamond()
        s = L.span_of_labels(["x"])
        assert is_subalgebra(L, s) and not is_ideal(L, s)

    def test_full_space(self):
        L = diamond()
        assert is_subalgebra(L, Subspace.full(4)) and is_ideal(L, Subspace.full(4))


class TestQuotient:
    def test_h3_mod_center(self):
        L = h3()
        q, _ = quotient(L, center(L))
        assert q.dim == 2 and q.sc == {}

    def test_quotient_by_all_and_nothing(self):
        L = diamond()
        q, _ = quotient(L, Subspace.full(4))
        assert q.dim == 0
        q2, _ = quotient(L, Subspace.zero(4))
        assert q2.dim == 4 and q2.sc == L.sc

    def test_not_an_ideal(self):
        L = diamond()
        with pytest.raises(NotAnIdeal):
            quotient(L, L.span_of_labels(["x"]))

    def test_projection_commutes_with_bracket(self):
        L = morozov4()
        a = L.span_of_labels(["e6"])
        q, qmap = quotient(L, a)
        u = (F(1), F(0), F(2), F(0), F(0), F(0))
        v = (F(0), F(1), F(0), F(3), F(0), F(0))
        assert qmap.project_vector(L.bracket(u, v)) == q.bracket(
            qmap.project_vector(u), qmap.project_vector(v)
        )

    def test_restrict_h3_inside_diamond(self):
        L = diamond()
        m = L.span_of_labels(["x", "y", "z"])
        r = restrict(L, m)
        assert r.dim == 3 and r.labels == ("x", "y", "z")
        assert r.bracket_table(0, 1) == {2: F(1)}


class TestProducts:
    def test_direct_product_dims_and_center(self):
        L = direct_product(h3(), h3())
        assert L.dim == 6
        assert center(L).dim == 2

    def test_direct_product_block_brackets(self):
        L = direct_product(diamond(), h3())
        assert L.dim == 7
        # no cross terms
        assert all(i < 4 and j < 4 or (i >= 4 and j >= 4) for i, j in L.sc)

    def test_abelian_product(self):
        L = direct_product(abelian(2), abelian(3))
        assert L.sc == {}

    def test_semidirect_identity_action(self):
        g = abelian(1)
        L = semidirect_product(g, [[[1]]], 1)
        assert L.dim == 2 and L.bracket_table(0, 1) == {1: F(1)}

    def test_semidirect_module_is_abelian_ideal(self):
        g = lie_algebra_from_label_table(("h", "e", "f"), {
            ("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1},
        })
        action = [g.ad(g.basis_vector(i)) for i in range(3)]
        L = semidirect_product(g, action, 3, v_labels=("w1", "w2", "w3"))
        v = L.span_of_labels(["w1", "w2", "w3"])
        assert is_ideal(L, v) and is_abelian(L, v)
        r = restrict(L, L.span_of_labels(["h", "e", "f"]))
        assert r.sc == g.sc

    def test_semidirect_rejects_non_representation(self):
        g = lie_algebra_from_label_table(("x", "y"), {("x", "y"): {"y": 1}})
        bad = [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]
        with pytest.raises(NotARepresentation):
            semidirect_product(g, bad, 2)


class TestExtensions:
    def test_identity_derivation_on_abelian(self):
        L = derivation_extend(abelian(4), {(i, i): 1 for i in range(4)}, new_label="E")
        assert L.dim == 5
        # [E, v] = v, stored as [v, E] = -v
        assert L.bracket_table(0, 4) == {0: F(-1)}

    def test_zero_derivation(self):
        L = derivation_extend(h3(), [[0] * 3] * 3)
        assert L.dim == 4 and (0, 3) not in L.sc

    def test_h3_weighted_derivation(self):
        d = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]
        L = derivation_extend(h3(), d)
        assert L.dim == 4

    def test_rejects_non_derivation(self):
        d = [[1, 0, 0], [0, 1, 0], [0, 0, 5]]
        with pytest.raises(NotADerivation):
            derivation_extend(h3(), d)

    def test_heisenberg_extend_line(self):
        line = new_lie_algebra(1, ("z",), {})
        L = heisenberg_extend(line, (1,), 1)
        assert L.dim == 3
        assert L.bracket_table(1, 2) == {0: F(1)}

    def test_heisenberg_extend_checks(self):
        with pytest.raises(ZeroVector):
            heisenberg_extend(h3(), (0, 0, 0), 1)
        with pytest.raises(NotCentral):
            heisenberg_extend(h3(), (1, 0, 0), 1)

    def test_heisenberg_extend_symplectic_table(self):
        L = heisenberg_extend(h3(), (0, 0, 1), 2)
        assert L.dim == 7
        s1, s2, t1, t2 = (L.basis_vector(3 + i) for i in range(4))
        z = L.basis_vector(2)
        assert L.bracket(s1, t1) == z and L.bracket(s2, t2) == z
        assert all(c == 0 for c in L.bracket(s1, t2))
        assert all(c == 0 for c in L.bracket(s1, s2))


def dual_numbers() -> AssocAlgebra:
    """k[t]/(t^2) with basis (1, t)."""
    return new_assoc_algebra(
        2,
        ("1", "t"),
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
        unit=(1, 0),
    )


def mat2() -> AssocAlgebra:
    """2x2 matrices with basis E11, E12, E21, E22."""
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    products = {}
    for (a, b), i in idx.items():
        for (c, d), j in idx.items():
            if b == c:
                products[(i, j)] = {idx[(a, d)]: 1}
    return new_assoc_algebra(4, ("E11", "E12", "E21", "E22"), products, unit=(1, 0, 0, 1))


def split_pair() -> AssocAlgebra:
    """Q x Q with idempotent basis labelled 1 and 2."""
    return new_assoc_algebra(2, ("1", "2"), {(0, 0): {0: 1}, (1, 1): {1: 1}}, unit=(1, 1))


class TestAssociative:
    def test_associativity_enforced(self):
        with pytest.raises(ValueError):
            new_assoc_algebra(2, ("a", "b"), {(0, 0): {1: 1}, (1, 0): {0: 1}})

    def test_unit_checked(self):
        with pytest.raises(NoUnit):
            new_assoc_algebra(2, ("1", "t"), {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, unit=(0, 1))

    @pytest.mark.parametrize("unit", [(1, 0, 5), (1,)])
    def test_unit_length_checked(self, unit):
        # (1, 0, 5) was stored and broke serialization; (1,) raised a bare IndexError
        with pytest.raises(AmbientMismatch):
            new_assoc_algebra(2, ("1", "t"), {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, unit=unit)

    def test_commutative_gives_abelian_lie(self):
        g = lie_of_associative(dual_numbers())
        assert g.sc == {}

    def test_mat2_gives_gl2(self):
        g = lie_of_associative(mat2())
        # [E11, E12] = E12, [E12, E21] = E11 - E22
        assert g.bracket_table(0, 1) == {1: F(1)}
        assert g.bracket_table(1, 2) == {0: F(1), 3: F(-1)}

    def test_left_mult_unit_is_identity(self):
        a = dual_numbers()
        mats = left_mult_action(a)
        combo = [
            [sum(a.unit[i] * mats[i].get((r, c), 0) for i in range(2)) for c in range(2)]
            for r in range(2)
        ]
        assert combo == [[1, 0], [0, 1]]


class TestLSA:
    def test_associative_passes_validator(self):
        new_lsa_algebra(2, ("1", "t"), {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}})

    def test_field_as_lsa(self):
        a = new_lsa_algebra(1, ("1",), {(0, 0): {0: 1}})
        g, mats = lie_of_lsa(a)
        assert g.sc == {} and mats[0] == {(0, 0): 1}

    def test_dual_numbers_as_lsa(self):
        a = new_lsa_algebra(2, ("1", "t"), {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}})
        g, mats = lie_of_lsa(a)
        assert g.sc == {}
        assert mats[0] == {(0, 0): 1, (1, 1): 1}
        assert mats[1] == {(1, 0): 1}

    def test_rejects_non_left_symmetric(self):
        with pytest.raises(NotLeftSymmetric):
            new_lsa_algebra(2, ("a", "b"), {(0, 1): {0: 1}, (1, 1): {1: 1}, (1, 0): {1: -1}})


class TestTensor:
    def test_ground_field_tensor_is_identity(self):
        k = new_assoc_algebra(1, ("1",), {(0, 0): {0: 1}}, unit=(1,))
        L = tensor_commutative(k, diamond())
        assert L.dim == 4
        assert {k_: dict(v) for k_, v in L.sc.items()} == {k_: dict(v) for k_, v in diamond().sc.items()}

    def test_dual_numbers_tensor_h3(self):
        L = tensor_commutative(dual_numbers(), h3())
        assert L.dim == 6
        # [1x, 1y] = 1z ; [1x, ty] = tz ; [tx, ty] = 0
        assert L.bracket_table(0, 1) == {2: F(1)}
        assert L.bracket_table(0, 4) == {5: F(1)}
        assert L.bracket_table(3, 4) == {}

    def test_rejects_noncommutative(self):
        with pytest.raises(NotCommutative):
            tensor_commutative(mat2(), h3())


class TestFileFormat:
    def test_round_trip(self):
        L = diamond()
        text = serialize_algebra(L, name="diamond")
        assert parse_algebra(text) == L

    def test_unknown_label(self):
        text = serialize_algebra(diamond()).replace('"z": "1"', '"w": "1"')
        with pytest.raises(ParseError):
            parse_algebra(text)

    def test_jacobi_violation_surfaced(self):
        bad = {
            "name": "bad",
            "dim": 3,
            "basis": ["x1", "x2", "x3"],
            "brackets": [
                {"lhs": "x1", "rhs": "x2", "terms": {"x3": "1"}},
                {"lhs": "x1", "rhs": "x3", "terms": {"x1": "1"}},
            ],
        }
        import json

        with pytest.raises(JacobiViolation):
            parse_algebra(json.dumps(bad))

    def test_malformed_rational(self):
        text = serialize_algebra(diamond()).replace('"1"', '"1/0"')
        with pytest.raises(ParseError):
            parse_algebra(text)

    @pytest.mark.parametrize(
        "changes, message, location",
        [
            ({"dim": True}, "field 'dim' must be a nonnegative integer", "dim"),  # was dimension 1
            ({"basis": ["x\n", "y"]}, "bad basis label 'x\\n'", "basis[0]"),
            ({"terms": {"y": "3\n"}}, "malformed rational '3\\n'", "brackets[0].y"),
            # an Arabic-Indic three, which \d and Fraction both take for 3
            ({"terms": {"y": "\u0663"}}, "malformed rational '\u0663'", "brackets[0].y"),
            # + and - join the terms of a span expression, so "a-b" would also read as x_a - x_b
            ({"basis": ["x", "x-y"]}, "bad basis label 'x-y'", "basis[1]"),
            ({"basis": ["x+y", "y"]}, "bad basis label 'x+y'", "basis[0]"),
        ],
    )
    def test_non_strict_input_rejected(self, changes, message, location):
        import json

        def text(dim=2, basis=("x", "y"), terms={"y": "3"}):
            brackets = [{"lhs": "x", "rhs": "y", "terms": terms}]
            return json.dumps({"name": "ok", "dim": dim, "basis": list(basis), "brackets": brackets})

        assert parse_algebra(text()).sc == {(0, 1): {1: F(3)}}
        with pytest.raises(ParseError) as err:
            parse_algebra(text(**changes))
        assert err.value.location == location
        assert str(err.value) == f"{message} at {location}"

    def test_wrong_pair_order(self):
        bad = {
            "name": "bad",
            "dim": 2,
            "basis": ["x", "y"],
            "brackets": [{"lhs": "y", "rhs": "x", "terms": {"y": "1"}}],
        }
        import json

        with pytest.raises(ParseError):
            parse_algebra(json.dumps(bad))

    def test_product_round_trip(self):
        a = dual_numbers()
        text = serialize_product_algebra(a, name="dual")
        assert parse_assoc_algebra(text) == a

    def test_lsa_round_trip(self):
        a = new_lsa_algebra(2, ("1", "t"), {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}})
        text = serialize_product_algebra(a, name="dual")
        assert '"unit"' not in text
        assert parse_lsa_algebra(text) == a


def _dual_numbers_file(**changes) -> str:
    import json

    obj = json.loads(serialize_product_algebra(dual_numbers(), name="dual"))
    obj.update(changes)
    return json.dumps(obj)


_DUAL_PRODUCT = [
    {"lhs": "1", "rhs": "1", "terms": {"1": "1"}},
    {"lhs": "1", "rhs": "t", "terms": {"t": "1"}},
    {"lhs": "t", "rhs": "1", "terms": {"t": "1"}},
]


class TestBracketFileErrors:
    @pytest.mark.parametrize(
        "brackets, message, location",
        [
            ({}, "field 'brackets' must be an array", "brackets"),
            ([{"lhs": "x", "rhs": "y"}], "bracket entries need exactly lhs/rhs/terms", "brackets[0]"),
            (
                [{"lhs": "y", "rhs": "x", "terms": {}}],
                "pair (y, x) must list the earlier basis label first",
                "brackets[0]",
            ),
            (
                [{"lhs": "x", "rhs": "y", "terms": {}}, {"lhs": "x", "rhs": "y", "terms": {}}],
                "duplicate pair (x, y)",
                "brackets[1]",
            ),
            ([{"lhs": ["x"], "rhs": "y", "terms": {}}], "unknown label ['x']", "brackets[0]"),
        ],
    )
    def test_error_and_location(self, brackets, message, location):
        import json

        text = json.dumps({"name": "bad", "dim": 2, "basis": ["x", "y"], "brackets": brackets})
        with pytest.raises(ParseError) as err:
            parse_algebra(text)
        assert str(err.value) == f"{message} at {location}"


class TestProductFileErrors:
    @pytest.mark.parametrize(
        "changes, message, location",
        [
            ({"product": {}}, "field 'product' must be an array", "product"),
            (
                {"product": [{"lhs": "1", "rhs": "t"}]},
                "product entries need exactly lhs/rhs/terms",
                "product[0]",
            ),
            (
                {"product": [{"lhs": "1", "rhs": "t", "terms": {}, "extra": 1}]},
                "product entries need exactly lhs/rhs/terms",
                "product[0]",
            ),
            (
                {"product": _DUAL_PRODUCT[:1] + [{"lhs": "1", "rhs": "s", "terms": {}}]},
                "unknown label 's'",
                "product[1]",
            ),
            (
                {"product": _DUAL_PRODUCT + [{"lhs": "t", "rhs": "1", "terms": {}}]},
                "duplicate pair (t, 1)",
                "product[3]",
            ),
            ({"unit": {"u": "1"}}, "unknown label 'u'", "unit"),
            ({"unit": {"1": "one"}}, "malformed rational 'one'", "unit.1"),
            (
                {"product": _DUAL_PRODUCT[:1] + [{"lhs": "1", "rhs": {"t": "1"}, "terms": {}}]},
                "unknown label {'t': '1'}",
                "product[1]",
            ),
        ],
    )
    def test_error_and_location(self, changes, message, location):
        text = _dual_numbers_file(**changes)
        for parse in (parse_assoc_algebra, parse_lsa_algebra):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert err.value.location == location
            assert str(err.value) == f"{message} at {location}"


class TestSpanParsing:
    def test_single_labels(self):
        L = diamond()
        s = parse_span(L, "y,z")
        assert s == L.span_of_labels(["y", "z"])

    def test_combination(self):
        L = morozov4()
        v = parse_vector_expr(L, "e1-e2")
        assert v == (F(1), F(-1), F(0), F(0), F(0), F(0))
        v2 = parse_vector_expr(L, "-e1+1/2*e3")
        assert v2 == (F(-1), F(0), F(1, 2), F(0), F(0), F(0))

    def test_bad_expression(self):
        with pytest.raises(ParseError):
            parse_vector_expr(diamond(), "x ! y")

    @pytest.mark.parametrize("expr", ["1/0*z", "x+2/0*y", "3/00*z"])
    def test_zero_denominator(self, expr):
        # was an uncaught ZeroDivisionError from Fraction
        with pytest.raises(ParseError):
            parse_vector_expr(diamond(), expr)

    def test_a_label_is_read_before_a_coefficient(self):
        # "1*y" once read as 1 times y, silently picking the wrong basis vector
        L = new_lie_algebra(3, ("1*x", "1*y", "y"), {})
        assert parse_vector_expr(L, "1*y") == (0, 1, 0)
        assert parse_vector_expr(L, "2*1*y - y + 1/2*1*x") == (F(1, 2), 2, -1)
        assert parse_vector_expr(L, "3 * y") == (0, 0, 3)

    def test_a_label_counts_only_before_a_separator(self):
        L = new_lie_algebra(3, ("2", "x", "x.1"), {})
        assert parse_vector_expr(L, "2*x") == (0, 2, 0)
        assert parse_vector_expr(L, "3*2-x.1") == (3, 0, -1)
        with pytest.raises(IndexOutOfRange, match="unknown basis label 'x.2'"):
            parse_vector_expr(L, "x.2")
        with pytest.raises(ParseError, match="missing"):
            parse_vector_expr(L, "2 x")

    @pytest.mark.parametrize(
        "algebra",
        [
            pytest.param(lambda: tensor_commutative(dual_numbers(), h3()), id="dual numbers x h3"),
            pytest.param(lambda: tensor_commutative(split_pair(), diamond()), id="Q x Q x diamond"),
        ]
        + [pytest.param(lambda name=name: catalog.get(name), id=name) for name in catalog.names()],
    )
    def test_rendered_vectors_read_back(self, algebra):
        L = algebra()
        coeffs = st.sampled_from([0, 0, 1, -1, 2, F(-1, 2), F(3, 7)])

        @given(st.lists(coeffs, min_size=L.dim, max_size=L.dim).filter(any))
        def round_trip(v):
            assert parse_vector_expr(L, vector_expr(L.labels, v)) == tuple(v)

        round_trip()


class TestFunctional:
    def test_application(self):
        f = Functional.from_coords((0, 1, 0, 0))
        assert f((3, 5, 7, 9)) == 5


_scalars = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))


def _scale_brackets(L, lam):
    """Scaling every bracket by a nonzero rational preserves the Jacobi identity."""
    scaled = {
        pair: {k: lam * c for k, c in table.items()} for pair, table in L.sc.items()
    }
    return new_lie_algebra(L.dim, L.labels, scaled)


class TestScalingProperties:
    @given(_scalars)
    def test_scaled_tables_round_trip(self, lam):
        for base in (diamond(), morozov4(), h3()):
            scaled = _scale_brackets(base, lam)
            assert parse_algebra(serialize_algebra(scaled)) == scaled

    @given(st.lists(st.lists(_scalars, min_size=3, max_size=3), min_size=2, max_size=4))
    def test_span_idempotent_and_containing(self, vectors):
        s = Subspace.span(3, vectors)
        assert Subspace.span(3, s.basis) == s
        for v in vectors:
            assert s.contains(v)


# ---------------------------------------------------------------------------
# Sparse bracket and Jacobi check against dense references
# ---------------------------------------------------------------------------

from itertools import combinations

from liecp import catalog, liealg
from liecp.liealg import _jacobi_defect
from liecp.parabolic import CompositionA, borel_data_classical, nilradical_A

_CATALOG_ALGEBRAS = [catalog.get(name) for name in catalog.names()]
# the catalog and the dim-21 type-A nilradical of the composition 1^7
_REFERENCE_ALGEBRAS = _CATALOG_ALGEBRAS + [nilradical_A(CompositionA((1,) * 7))[0]]


def dense_bracket(L, u, v):
    """The dense bracket: sum over every key of sc of (u_i v_j - u_j v_i) [x_i, x_j]."""
    acc = [F(0)] * L.dim
    for (i, j), table in L.sc.items():
        coeff = F(u[i]) * F(v[j]) - F(u[j]) * F(v[i])
        for k, c in table.items():
            acc[k] += coeff * c
    return tuple(acc)


def dense_jacobi_failure(dim, sc):
    """First triple i < j < k with a nonzero dense Jacobi defect, and that defect."""
    L = LieAlgebra(dim, tuple(f"x{i}" for i in range(dim)), sc)
    e = [L.basis_vector(i) for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                cyclic = ((i, j, k), (j, k, i), (k, i, j))
                terms = [dense_bracket(L, dense_bracket(L, e[a], e[b]), e[c]) for a, b, c in cyclic]
                defect = tuple(sum(column, F(0)) for column in zip(*terms))
                if any(defect):
                    return (i, j, k), defect
    return None


_entries = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


@st.composite
def _vectors(draw, dim):
    """A dense vector, or a sparse one with at most three nonzero coordinates."""
    if draw(st.booleans()):
        return draw(st.lists(_entries, min_size=dim, max_size=dim))
    support = draw(st.dictionaries(st.integers(0, dim - 1), _entries, max_size=3))
    return [support.get(k, 0) for k in range(dim)]


@st.composite
def _tables(draw, dim):
    """Random bracket tables on dim basis elements; most break the Jacobi identity."""
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return {key: draw(st.dictionaries(st.integers(0, dim - 1), st.integers(-2, 2), max_size=2)) for key in keys}


class TestSparseAgainstDense:
    @given(st.data())
    def test_bracket_equals_dense_reference(self, data):
        L = data.draw(st.sampled_from(_REFERENCE_ALGEBRAS))
        u, v = data.draw(_vectors(L.dim)), data.draw(_vectors(L.dim))
        assert L.bracket(u, v) == dense_bracket(L, u, v)

    @given(st.data())
    def test_ad_columns_equal_dense_reference(self, data):
        L = data.draw(st.sampled_from(_REFERENCE_ALGEBRAS))
        u = data.draw(_vectors(L.dim))
        cols = L.ad_columns({k: F(x) for k, x in enumerate(u) if x})
        assert all(0 not in col.values() for col in cols)
        assert [tuple(col.get(k, F(0)) for k in range(L.dim)) for col in cols] == [
            tuple(dense_bracket(L, u, L.basis_vector(j))) for j in range(L.dim)
        ]

    def test_partners_are_built_on_first_use(self):
        L = morozov4()
        assert "_partners" not in vars(L)
        L.ad_columns({0: F(1)})
        assert [[j for j, _, _ in row] for row in L._partners] == [[1, 2], [0, 3], [0], [1], [], []]

    def test_nilradical_basis_brackets(self):
        L = _REFERENCE_ALGEBRAS[-1]
        assert L.dim == 21
        for i in range(L.dim):
            for j in range(L.dim):
                u, v = L.basis_vector(i), L.basis_vector(j)
                assert L.bracket(u, v) == dense_bracket(L, u, v)

    @given(st.integers(3, 7).flatmap(lambda dim: st.tuples(st.just(dim), _tables(dim))))
    def test_jacobi_check_matches_dense_check(self, case):
        dim, table = case
        sc = {key: {k: F(c) for k, c in terms.items() if c} for key, terms in table.items()}
        sc = {key: terms for key, terms in sc.items() if terms}
        expected = dense_jacobi_failure(dim, sc)
        if expected is None:
            assert new_lie_algebra(dim, tuple(f"x{i}" for i in range(dim)), table).sc == sc
        else:
            with pytest.raises(JacobiViolation) as info:
                new_lie_algebra(dim, tuple(f"x{i}" for i in range(dim)), table)
            assert (info.value.triple, info.value.defect) == expected

    def test_several_failures_report_the_first(self):
        # [x1,x3] = x1, [x2,x4] = x3, [x3,x4] = x3.  On (x1,x2,x4) the defect is
        # [[x2,x4],x1] = [x3,x1] = -x1, on (x1,x3,x4) it is [[x3,x4],x1] = -x1;
        # every other triple has zero defect, so (1, 2, 4) is reported.
        table = {(1, 3): {1: 1}, (2, 4): {3: 1}, (3, 4): {3: 1}}
        with pytest.raises(JacobiViolation) as info:
            new_lie_algebra(5, tuple(f"x{i}" for i in range(5)), table)
        assert info.value.triple == (1, 2, 4)
        assert info.value.defect == (F(0), F(-1), F(0), F(0), F(0))
        sc = {key: {k: F(c) for k, c in terms.items()} for key, terms in table.items()}
        assert dense_jacobi_failure(5, sc) == ((1, 2, 4), info.value.defect)

    @given(st.data())
    def test_perturbed_catalog_algebra_matches_dense_check(self, data):
        # change one coefficient of a catalog algebra, or add or drop one term
        L = data.draw(st.sampled_from(_CATALOG_ALGEBRAS))
        pair = data.draw(st.sampled_from(list(combinations(range(L.dim), 2))))
        sc = {key: dict(table) for key, table in L.sc.items()}
        table = sc.setdefault(pair, {})
        k = data.draw(st.integers(0, L.dim - 1))
        c = data.draw(st.sampled_from([F(0), F(-1), F(1, 2), F(2)]).filter(lambda c: c != table.get(k, 0)))
        table[k] = c
        brackets = {key: terms for key, terms in sc.items() if any(terms.values())}
        sc = {key: {q: x for q, x in terms.items() if x} for key, terms in brackets.items()}
        expected = dense_jacobi_failure(L.dim, sc)
        if expected is None:
            assert new_lie_algebra(L.dim, L.labels, brackets).sc == sc
        else:
            with pytest.raises(JacobiViolation) as info:
                new_lie_algebra(L.dim, L.labels, brackets)
            assert (info.value.triple, info.value.defect) == expected

    @given(st.data())
    def test_perturbed_rational_algebra_matches_dense_check(self, data):
        # rescale the basis of a catalog algebra, x_i -> q_i x_i, so its constants are
        # rational, then change one coefficient to a rational one, or drop it
        L = data.draw(st.sampled_from(_CATALOG_ALGEBRAS))
        q = data.draw(st.lists(st.sampled_from([F(2, 3), F(-5, 7), F(3), F(-1, 2)]), min_size=L.dim, max_size=L.dim))
        sc = {(i, j): {k: q[i] * q[j] * c / q[k] for k, c in t.items()} for (i, j), t in L.sc.items()}
        assert new_lie_algebra(L.dim, L.labels, sc).sc == sc
        pair = data.draw(st.sampled_from(list(combinations(range(L.dim), 2))))
        table = sc.setdefault(pair, {})
        k = data.draw(st.integers(0, L.dim - 1))
        c = data.draw(st.sampled_from([F(0), F(-5, 7), F(2, 3), F(9, 4)]).filter(lambda c: c != table.get(k, 0)))
        table[k] = c
        brackets = {key: terms for key, terms in sc.items() if any(terms.values())}
        sc = {key: {p: x for p, x in terms.items() if x} for key, terms in brackets.items()}
        expected = dense_jacobi_failure(L.dim, sc)
        if expected is None:
            assert new_lie_algebra(L.dim, L.labels, brackets).sc == sc
        else:
            with pytest.raises(JacobiViolation) as info:
                new_lie_algebra(L.dim, L.labels, brackets)
            assert (info.value.triple, info.value.defect) == expected
            assert all(type(x) is F for x in info.value.defect)


def _triples_with_a_double_bracket(L):
    """The triples i < j < k where some cyclic [[x_a, x_b], x_c] has a term in the tables."""
    return [
        (i, j, k)
        for i, j, k in combinations(range(L.dim), 3)
        if any(L.bracket_table(p, c) for a, b, c in ((i, j, k), (j, k, i), (k, i, j)) for p in L.bracket_table(a, b))
    ]


_VISIT_ALGEBRAS = _CATALOG_ALGEBRAS + [nilradical_A(CompositionA((1,) * 10))[0]] + [
    borel_data_classical(family, rank)[1] for family, rank in (("A", 7), ("B", 5), ("C", 5), ("D", 5))
]


def test_jacobi_check_visits_exactly_the_triples_with_a_double_bracket(monkeypatch):
    visited = []

    def recording(signed, i, j, k):
        visited.append((i, j, k))
        return _jacobi_defect(signed, i, j, k)

    monkeypatch.setattr(liealg, "_jacobi_defect", recording)
    counts = []
    for L in _VISIT_ALGEBRAS:
        visited.clear()
        assert new_lie_algebra(L.dim, L.labels, L.sc) == L
        assert visited == _triples_with_a_double_bracket(L)
        counts.append(len(visited))
    # of C(45, 3) = 14190 triples on the 1^10 nilradical, C(35, 3) on the A7 Borel, C(25, 3) on the D5 Borel
    assert [L.dim for L in _VISIT_ALGEBRAS[-5:]] == [45, 35, 30, 30, 25]
    assert (counts[-5], counts[-4], counts[-1]) == (210, 430, 190)
