"""Acceptance criteria, one test per criterion (criterion 1 per value).

Each check prints one ACCEPTANCE line so a -s run shows the roster.  All
comparisons are exact; randomized results carry their certification
status and the conclusions must be seed-independent.
"""

import io
import itertools
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from liecp import catalog
from liecp.exactla import RankPolicy, generic_rank
from liecp.liealg import (
    Subspace,
    center,
    derivation_extend,
    direct_product,
    heisenberg_extend,
    is_ideal,
    is_subalgebra,
    new_assoc_algebra,
    parse_span,
    quotient,
    tensor_commutative,
)
from liecp.index import Functional, bracket_matrix, index, stabilizer
from liecp.cp import (
    FORM_KIND,
    FSR_KIND,
    codim1_analysis,
    is_cp,
    no_cp_certificate,
    verify_no_cp_certificate,
)
from liecp.constructions import frobenius_associative_report, semidirect_cp_report
from liecp.parabolic import (
    CompositionC,
    principal_nilpotent_normalizer,
    table1_check,
    verify_theorem62,
)

F = Fraction
POLICY = RankPolicy()


def record(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _instances():
    """Catalog entries at default parameters."""
    return {name: catalog.get(name) for name in catalog.names()}


# ---------------------------------------------------------------------------
# 1. Index regression
# ---------------------------------------------------------------------------

# g5 is [x1,x2]=x3, [x1,x3]=x4, [x2,x3]=x5.  At f with f(x_k) = t_k its
# bracket matrix is zero on the central x4, x5; what is left is the skew
# block [[0,t3,t4],[-t3,0,t5],[-t4,-t5,0]].  Skew of odd order is singular,
# and t3 != 0 gives rank exactly 2, so i(g5) = 5 - 2 = 3.  With i = 1 the
# abelian ideal <x3,x4,x5> would be a CP, against criterion 4's certificate.
INDEX_REGRESSION = [
    ("diamond", {}, 2),
    ("h3", {}, 1),
    ("g5", {}, 3),
    ("g6", {}, 4),
    ("dixmier_lister", {}, 2),
    ("free_two_step", {"n": 4}, 6),
    ("id_ext", {"n": 4}, 3),
]


@pytest.mark.parametrize("name,params,expected", INDEX_REGRESSION, ids=[r[0] for r in INDEX_REGRESSION])
def test_criterion_1_index_regression(name, params, expected):
    rep = index(catalog.get(name, **params), POLICY)
    catalog_index = catalog.expected(name, **params).index
    record(
        f"1 ({name})",
        rep.index == expected and rep.certified and catalog_index == expected,
        f"index {rep.index}, expected {expected}, certified={rep.certified}, "
        f"catalog {catalog_index}",
    )


# ---------------------------------------------------------------------------
# 2. Parity under random perturbations
# ---------------------------------------------------------------------------


def _coordinate_ideals(L, rng, want=3):
    found = []
    indices = list(range(L.dim))
    for _ in range(30):
        size = rng.randint(1, max(1, L.dim - 1))
        subset = sorted(rng.sample(indices, size))
        s = Subspace.span(L.dim, [L.basis_vector(i) for i in subset])
        if is_ideal(L, s) and s.dim:
            found.append(s)
            if len(found) >= want:
                break
    return found


def test_criterion_2_parity():
    rng = random.Random(20260808)
    instances = _instances()
    for name, L in instances.items():
        rep = index(L, POLICY)
        assert (L.dim - rep.index) % 2 == 0, name
    small = [L for L in instances.values() if L.dim <= 6]
    medium = [L for L in instances.values() if L.dim <= 8]
    produced = 0
    checked = 0
    while checked < 200:
        if produced % 2 == 0:
            l1, l2 = rng.choice(small), rng.choice(small)
            candidate = direct_product(l1, l2)
        else:
            parent = rng.choice(medium)
            ideals = _coordinate_ideals(parent, rng)
            if not ideals:
                produced += 1
                continue
            candidate, _ = quotient(parent, rng.choice(ideals))
        produced += 1
        rep = index(candidate, POLICY)
        assert (candidate.dim - rep.index) % 2 == 0
        checked += 1
    record("2", checked == 200, f"{checked} perturbations, parity exact")


# ---------------------------------------------------------------------------
# 3. Square-integrable catalog reproduction
# ---------------------------------------------------------------------------


def test_criterion_3_catalog_reproduction():
    for k in range(4, 12):
        name = f"morozov6_{k}"
        L = catalog.get(name)
        rep = index(L, POLICY)
        assert (L.dim, rep.index, center(L).dim) == (6, 2, 2), name
        cp = is_cp(L, parse_span(L, "e3,e4,e5,e6"), POLICY)
        assert cp.is_cp and cp.is_ideal, name
    for name in ("seeley_37b", "seeley_37c", "seeley_37d", "seeley_357a", "seeley_357b", "seeley_357c"):
        L = catalog.get(name)
        assert index(L, POLICY).index == 3, name
        witness = catalog.expected(name).cp_witness
        cp = is_cp(L, L.span_of_labels(witness), POLICY)
        assert cp.is_cp and cp.is_ideal, name
    family = catalog.get("seeley_12457n", xi=F(2))
    cp = is_cp(family, parse_span(family, "d,e,f,g"), POLICY)
    assert cp.is_cp and cp.is_ideal
    record("3", True, "8 Morozov + 6 Seeley entries + one-parameter family at xi=2")


# ---------------------------------------------------------------------------
# 4. No-CP certificates
# ---------------------------------------------------------------------------


def test_criterion_4_certificates():
    for name in ("g5", "g6", "diamond", "sl2_irr3"):
        L = catalog.get(name)
        cert = no_cp_certificate(L, POLICY, kind=FORM_KIND)
        assert cert is not None and verify_no_cp_certificate(L, cert, POLICY), name
    diamond = catalog.get("diamond")
    fsr_cert = no_cp_certificate(diamond, POLICY, kind=FSR_KIND)
    assert fsr_cert is not None and verify_no_cp_certificate(diamond, fsr_cert, POLICY)
    family = catalog.get("seeley_12457n", xi=F(1))
    cert = no_cp_certificate(family, POLICY)
    assert cert is not None and cert.kind == FSR_KIND
    assert verify_no_cp_certificate(family, cert, POLICY)
    span = Subspace.span(
        7,
        [(1, -1, 0, 0, 0, 0, 0)]
        + [tuple(F(int(i == j)) for i in range(7)) for j in range(2, 7)],
    )
    u, v = cert.pair
    assert span.contains(u) and span.contains(v)
    record("4", True, "invariant-form x4, stabilizer-span for diamond and the xi=1 family")


# ---------------------------------------------------------------------------
# 5. Lemma property suites
# ---------------------------------------------------------------------------


def test_criterion_5a_product_additivity():
    instances = _instances()
    names = sorted(instances)
    pairs = 0
    for a, b in itertools.combinations_with_replacement(names, 2):
        la, lb = instances[a], instances[b]
        if la.dim + lb.dim > 12:
            continue
        prod = direct_product(la, lb)
        expected = index(la, POLICY).index + index(lb, POLICY).index
        assert index(prod, POLICY).index == expected, (a, b)
        pairs += 1
    record("5a", pairs > 0, f"index additivity on {pairs} catalog pairs (total dim <= 12)")


def test_criterion_5b_quotient_formula():
    dl = catalog.get("dixmier_lister")
    a = parse_span(dl, "e8")
    f = Functional.from_coords((0, 0, 0, 0, 0, 0, 1, 0))
    assert stabilizer(dl, f).dim == index(dl, POLICY).index  # e7* is regular
    assert all(f(row) == 0 for row in a.basis)
    q, _ = quotient(dl, a)
    assert index(q, POLICY).index == index(dl, POLICY).index - 1 == 1
    rng = random.Random(555)
    eligible = [
        name for name in catalog.names() if catalog.expected(name).cp_witness is not None
    ]
    done = 0
    attempts = 0
    while done < 20 and attempts < 400:
        attempts += 1
        name = rng.choice(eligible)
        L = catalog.get(name)
        witness = catalog.expected(name).cp_witness
        p = L.span_of_labels(witness)
        size = rng.randint(0, len(witness))
        subset = sorted(rng.sample(list(witness), size))
        a = L.span_of_labels(subset)
        if not is_ideal(L, a):
            continue
        idx = index(L, POLICY)
        zero_coords = set(a.pivots)
        f = None
        for _ in range(40):
            coords = [
                F(0) if i in zero_coords else F(rng.randint(-50, 50)) for i in range(L.dim)
            ]
            cand = Functional.from_coords(coords)
            if stabilizer(L, cand).dim == idx.index:
                f = cand
                break
        if f is None:
            continue
        q, _ = quotient(L, a)
        assert index(q, POLICY).index == idx.index - a.dim, (name, subset)
        done += 1
    record("5b", done == 20, f"index drop formula on the 8-dim example and {done} random triples")


def test_criterion_5c_codim1_dichotomy():
    rng = random.Random(777)
    instances = _instances()
    pool = []
    for name, L in instances.items():
        for drop in range(L.dim):
            keep = [i for i in range(L.dim) if i != drop]
            s = Subspace.span(L.dim, [L.basis_vector(i) for i in keep])
            if is_subalgebra(L, s):
                pool.append((name, L, s))
    assert pool
    for _ in range(100):
        name, L, s = rng.choice(pool)
        rep = codim1_analysis(L, s, POLICY)
        assert rep.direction in (-1, 1), name
    record("5c", True, "dichotomy held on 100 random codim-1 coordinate subalgebras")


# ---------------------------------------------------------------------------
# 6. Equivalence report consistency
# ---------------------------------------------------------------------------


def test_criterion_6_equivalence_consistency():
    aff = catalog.get("nonabelian2d")
    adjoint = [aff.ad(aff.basis_vector(i)) for i in range(2)]
    rep = semidirect_cp_report(aff, adjoint, 2, POLICY)
    assert rep.consistent and all(rep.conditions.values())

    sl2 = catalog.get("sl2_irr3")  # already the semidirect product; rebuild from parts
    from liecp.liealg import lie_algebra_from_label_table

    g = lie_algebra_from_label_table(
        ("h", "e", "f"),
        {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}},
    )
    action = [g.ad(g.basis_vector(i)) for i in range(3)]
    rep = semidirect_cp_report(g, action, 3, POLICY, v_labels=("w1", "w2", "w3"))
    assert rep.consistent and not any(rep.conditions.values())
    assert rep.built.sc == sl2.sc

    dual = new_assoc_algebra(
        2, ("1", "t"), {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, unit=(1, 0)
    )
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    mat_products = {}
    for (a, b), i in idx.items():
        for (c, d), j in idx.items():
            if b == c:
                mat_products[(i, j)] = {idx[(a, d)]: 1}
    mat2 = new_assoc_algebra(4, ("E11", "E12", "E21", "E22"), mat_products, unit=(1, 0, 0, 1))
    surface = new_assoc_algebra(
        3,
        ("1", "x", "y"),
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (0, 2): {2: 1}, (2, 0): {2: 1}},
        unit=(1, 0, 0),
    )
    for algebra, positive in ((dual, True), (mat2, True), (surface, False)):
        rep = frobenius_associative_report(algebra, POLICY)
        assert rep.consistent
        assert all(rep.conditions.values()) == positive
        assert any(rep.conditions.values()) == positive
    record("6", True, "semidirect and associative reports consistent, outcomes as listed")


# ---------------------------------------------------------------------------
# 7. Parabolic sweep
# ---------------------------------------------------------------------------


def _compositions_a(n):
    if n == 1:
        yield (1,)
        return
    for first in range(1, n + 1):
        if first == n:
            yield (n,)
        else:
            for rest in _compositions_a(n - first):
                yield (first,) + rest


def _compositions_c(r):
    for s in range(0, r + 1):
        r1 = r - s
        if s == 0:
            if r1:
                yield CompositionC.from_half((), r1)
            continue
        for half in _compositions_a(s):
            yield CompositionC.from_half(half, r1)


def test_criterion_7_parabolic_sweep():
    count = 0
    for n in range(1, 8):
        for parts in _compositions_a(n):
            rep = verify_theorem62(parts, "A", POLICY)
            assert rep.ok, ("A", parts)
            if rep.dim_n <= 12:
                assert rep.certified, ("A", parts)
            count += 1
    for r in range(1, 5):
        for comp in _compositions_c(r):
            rep = verify_theorem62(comp.parts, "C", POLICY)
            assert rep.ok, ("C", comp.parts)
            if rep.dim_n <= 12:
                assert rep.certified, ("C", comp.parts)
            count += 1
    borel_cases = [
        ("A", (1, 1, 1), 1),
        ("A", (1, 1, 1, 1), 2),
        ("A", (1, 1, 1, 1, 1), 2),
        ("C", (1, 1, 1, 1), 2),
        ("C", (1, 1, 1, 1, 1, 1), 3),
    ]
    for family, parts, expected in borel_cases:
        rep = verify_theorem62(parts, family, POLICY)
        assert rep.ok and rep.formula_index == expected, (family, parts)
    record("7", True, f"{count} compositions verified (formula = computed, CP-ideal, perp fixed)")


# ---------------------------------------------------------------------------
# 8. Table 1 classical rows
# ---------------------------------------------------------------------------


def test_criterion_8_table1():
    cases = (
        [("A", r) for r in range(1, 6)]
        + [("B", r) for r in (3, 4)]
        + [("C", r) for r in (2, 3, 4)]
        + [("D", r) for r in (4, 5)]
    )
    for family, rank in cases:
        rep = table1_check(family, rank, POLICY)
        assert rep.ok, (family, rank)
        assert rep.index_n + rep.index_b == rank
        if family in ("A", "C"):
            assert rep.cp.is_cp and rep.cp.dim_p == rep.row.half == rep.row.max_abelian
        else:
            assert rep.row.half > rep.row.max_abelian
    record("8", True, f"{len(cases)} classical rows match the closed forms")


# ---------------------------------------------------------------------------
# 9. Principal nilpotent normalizer
# ---------------------------------------------------------------------------


def test_criterion_9_normalizer():
    for n in range(2, 6):
        rep = principal_nilpotent_normalizer(n, POLICY)
        assert rep.ok, n
        assert rep.dim_centralizer == n - 1
        assert rep.centralizer_abelian
        assert rep.dim_normalizer == 2 * (n - 1)
        assert rep.index_normalizer == 0
        assert rep.cp.is_cp and rep.cp.is_ideal
    record("9", True, "sl_n normalizer data exact for n = 2..5")


# ---------------------------------------------------------------------------
# 10. Extension suite
# ---------------------------------------------------------------------------


def test_criterion_10_extensions():
    # one-dimensional extensions by derivations nonzero on the center
    h3 = catalog.get("h3")
    diamond = catalog.get("diamond")
    abelian4 = catalog.get("abelian", n=4)
    cases = [
        (abelian4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
        (h3, [[1, 0, 0], [0, 1, 0], [0, 0, 2]]),
        (diamond, [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]]),
    ]
    for m, d in cases:
        z = center(m)
        assert any(any(sum(a * x for a, x in zip(d_row, row)) != 0 for d_row in d) for row in z.basis)
        extended = derivation_extend(m, d, new_label="D")
        assert index(m, POLICY).index == index(extended, POLICY).index + 1

    # central symplectic extensions preserve index, center, and polarizations
    for name, z_label, r in (("h3", "z", 1), ("h3", "z", 2), ("morozov6_4", "e5", 1)):
        m = catalog.get(name)
        z = m.basis_vector(m.label_index(z_label))
        extended = heisenberg_extend(m, z, r)
        assert index(extended, POLICY).index == index(m, POLICY).index, name
        center_m = center(m)
        center_l = center(extended)
        embedded = Subspace.span(
            extended.dim, [row + (F(0),) * 2 * r for row in center_m.basis]
        )
        assert center_l == embedded, name
        witness = catalog.expected(name).cp_witness
        lifted = Subspace.span(
            extended.dim,
            [m.basis_vector(m.label_index(lb)) + (F(0),) * 2 * r for lb in witness]
            + [extended.basis_vector(m.dim + i) for i in range(r)],
        )
        rep = is_cp(extended, lifted, POLICY)
        assert rep.is_cp, name

    # scalar-extension multiplicativity and lifted polarizations
    dual = new_assoc_algebra(
        2, ("1", "t"), {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, unit=(1, 0)
    )
    triple = new_assoc_algebra(
        3,
        ("1", "t", "t2"),
        {
            (0, 0): {0: 1},
            (0, 1): {1: 1},
            (1, 0): {1: 1},
            (0, 2): {2: 1},
            (2, 0): {2: 1},
            (1, 1): {2: 1},
        },
        unit=(1, 0, 0),
    )
    for a in (dual, triple):
        for name in ("h3", "diamond", "morozov6_4"):
            m = catalog.get(name)
            big = tensor_commutative(a, m)
            assert index(big, POLICY).index == a.dim * index(m, POLICY).index, (name, a.dim)
            witness = catalog.expected(name).cp_witness
            if witness is None:
                continue
            lifted_labels = [
                f"{a.labels[i]}*{lb}" for i in range(a.dim) for lb in witness
            ]
            rep = is_cp(big, big.span_of_labels(lifted_labels), POLICY)
            assert rep.is_cp and rep.is_ideal, (name, a.dim)
    record("10", True, "derivation, symplectic, and scalar extensions all exact")


# ---------------------------------------------------------------------------
# 11. Determinism
# ---------------------------------------------------------------------------


def test_criterion_11_determinism():
    conclusions = []
    for seed in (0, 1, 2):
        policy = RankPolicy(seed=seed)
        snapshot = {}
        for name in catalog.names():
            rep = catalog.verify(name, policy)
            snapshot[name] = (rep.ok, rep.observed["index"], rep.observed["center_dim"])
        conclusions.append(snapshot)
    assert conclusions[0] == conclusions[1] == conclusions[2]

    from liecp.cli import main as cli_main
    from liecp.catalog import data_text

    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "diamond.alg")
        with open(path, "w") as fh:
            fh.write(data_text("diamond.alg"))
        for seed in ("0", "1", "2"):
            outputs = []
            for _ in range(2):
                buf = io.StringIO()
                with redirect_stdout(buf):
                    code = cli_main(["index", path, "--seed", seed, "--json"])
                assert code == 0
                outputs.append(buf.getvalue())
            assert outputs[0] == outputs[1]
            json.loads(outputs[0])
    record("11", True, "conclusions identical across seeds 0, 1, 2; JSON byte-stable")


# ---------------------------------------------------------------------------
# 12. Randomized vs symbolic rank
# ---------------------------------------------------------------------------


def test_criterion_12_oracle_cross_check():
    checked = 0
    for name in catalog.names():
        L = catalog.get(name)
        if L.dim > 8:
            continue
        m = bracket_matrix(L)
        sampled = generic_rank(m, POLICY.with_options(certify=False))
        symbolic = generic_rank(m, POLICY.with_options(certify=True))
        assert symbolic.certified
        assert sampled.rank == symbolic.rank, name
        checked += 1
    record("12", checked > 0, f"randomized = symbolic rank on {checked} catalog algebras")
