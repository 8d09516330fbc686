"""The sparse subspace calculus against the dense code it replaced.

The `dense_*` functions below are the dense implementations of the subspace
calculus as they stood before `Subspace` kept sparse rows, copied verbatim
up to turning methods into functions of a dense echelon basis.  The sparse
code must give the same verdicts and the same subspaces on every catalog
entry, on the 157 Theorem 6.2 sweep nilradicals with their CP ideal P and
regular functional f, and on drawn subspaces that are not subalgebras or
ideals.
"""

import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from liecp import catalog
from liecp.cp import is_cp, pairing_matrix, perp_of, search_cp
from liecp.errors import AmbientMismatch
from liecp.exactla import ZERO, ONE, LinFormMatrix, as_vector, kernel, rref
from liecp.index import _bf_rows, sample_regular, stabilizer
from liecp.liealg import (
    Subspace,
    center,
    centralizer,
    derived_subalgebra,
    is_abelian,
    is_ideal,
    is_subalgebra,
    new_lie_algebra,
    quotient,
    restrict,
)
from liecp.parabolic import FAMILIES, CompositionC

F = Fraction


# ---------------------------------------------------------------------------
# The dense code, verbatim
# ---------------------------------------------------------------------------


def _zero_vec(n):
    return [ZERO] * n


def _add_scaled(acc, table, coeff):
    if not coeff:
        return
    for k, c in table.items():
        acc[k] += coeff * c


def _unit(n, i):
    v = _zero_vec(n)
    v[i] = ONE
    return v


def dense_bracket(L, u, v):
    uu, vv = as_vector(u), as_vector(v)
    if len(uu) != L.dim or len(vv) != L.dim:
        raise AmbientMismatch("vectors must have length dim")
    acc = _zero_vec(L.dim)
    nonzero_v = [(j, y) for j, y in enumerate(vv) if y]
    for i, x in enumerate(uu):
        if x:
            for j, y in nonzero_v:
                table = L.sc.get((i, j) if i < j else (j, i))
                if table:
                    _add_scaled(acc, table, x * y if i < j else -x * y)
    return tuple(acc)


def dense_basis_vector(L, i):
    return tuple(_unit(L.dim, i))


def dense_span(ambient_dim, vectors):
    red, _ = rref(list(vectors), ambient_dim)
    return tuple(tuple(r) for r in red)


def dense_pivots(basis):
    return tuple(next(j for j, x in enumerate(row) if x != 0) for row in basis)


def dense_residual(basis, v):
    w = list(as_vector(v))
    for row, p in zip(basis, dense_pivots(basis)):
        c = w[p]
        if c:
            for j, x in enumerate(row):
                if x:
                    w[j] -= c * x
    return tuple(w)


def dense_contains(basis, v):
    return all(x == 0 for x in dense_residual(basis, v))


def dense_intersection(n, basis, other):
    """Intersection via the kernel of [P^T | -M^T]."""
    p, m = len(basis), len(other)
    if p == 0 or m == 0:
        return ()
    cols = list(zip(*basis))
    rows = [col + tuple(-x for x in other_col) for col, other_col in zip(cols, zip(*other))]
    solutions = kernel(rows, p + m)
    vectors = [[sum((a * b for a, b in zip(col, sol)), ZERO) for col in cols] for sol in solutions]
    return dense_span(n, vectors)


def dense_is_abelian(L, rows):
    return all(
        all(x == 0 for x in dense_bracket(L, rows[a], rows[b]))
        for a in range(len(rows))
        for b in range(a + 1, len(rows))
    )


def dense_is_subalgebra(L, rows):
    return all(
        dense_contains(rows, dense_bracket(L, rows[a], rows[b]))
        for a in range(len(rows))
        for b in range(a + 1, len(rows))
    )


def dense_is_ideal(L, rows):
    return all(
        dense_contains(rows, dense_bracket(L, dense_basis_vector(L, i), row)) for i in range(L.dim) for row in rows
    )


def Bf_matrix(L, f):
    """Alternating form (i, j) -> f([x_i, x_j]), as dense rows."""
    return tuple(tuple(row.get(j, ZERO) for j in range(L.dim)) for row in _bf_rows(L, f))


def dense_mul_vector(m, v):
    return tuple(sum((a * x for a, x in zip(row, as_vector(v))), ZERO) for row in m)


def dense_perp_of(L, rows, f):
    bf = Bf_matrix(L, f)
    return tuple(kernel([dense_mul_vector(bf, h) for h in rows], L.dim))


def dense_pairing_matrix(L, rows):
    def entry(r, j):
        form = {}
        for a, coeff in enumerate(rows[r]):
            if coeff:
                for k, c in L.bracket_table(a, j).items():
                    form[k] = form.get(k, ZERO) + coeff * c
        return form  # build drops the coefficients that cancelled to zero

    return LinFormMatrix.build(len(rows), L.dim, L.dim, entry)


def dense_ad(L, v):
    """Rows of the matrix whose columns are [v, x_j]."""
    cols = tuple(dense_bracket(L, v, dense_basis_vector(L, j)) for j in range(L.dim))
    return tuple(zip(*cols)) if cols else ()


def dense_centralizer(L, u):
    return tuple(kernel(dense_ad(L, u), L.dim))


def dense_quotient(L, rows):
    pivot_set = set(dense_pivots(rows))
    complement = tuple(c for c in range(L.dim) if c not in pivot_set)
    labels = tuple(L.labels[c] for c in complement)
    brackets = {}
    for ai in range(len(complement)):
        for bj in range(ai + 1, len(complement)):
            w = dense_bracket(L, dense_basis_vector(L, complement[ai]), dense_basis_vector(L, complement[bj]))
            reduced = dense_residual(rows, w)
            brackets[(ai, bj)] = dict(enumerate(tuple(reduced[c] for c in complement)))
    return new_lie_algebra(len(complement), labels, brackets)


def dense_restrict(L, rows):
    pivots = dense_pivots(rows)
    labels = tuple(L.labels[p] for p in pivots)
    brackets = {}
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            w = as_vector(dense_bracket(L, rows[a], rows[b]))
            coords = tuple(w[p] for p in pivots) if dense_contains(rows, w) else None
            assert coords is not None
            brackets[(a, b)] = dict(enumerate(coords))
    return new_lie_algebra(len(rows), tuple(labels), brackets)


# ---------------------------------------------------------------------------
# Cases: (name, L, list of subspaces, functional)
# ---------------------------------------------------------------------------


def _compositions(n):
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def _sweep_compositions():
    """The compositions of the benchmark sweep: type A with n <= 7, palindromic type C with r <= 4."""
    comps = [("A", c) for n in range(1, 8) for c in _compositions(n)]
    halves = [(r, s, half) for r in range(1, 5) for s in range(r + 1) for half in _compositions(s)]
    return comps + [("C", CompositionC.from_half(half, r - s).parts) for r, s, half in halves]


@cache
def sweep_cases():
    cases = []
    for fam, parts in _sweep_compositions():
        family = FAMILIES[fam]
        comp = family.composition(parts)
        L, _ = family.nilradical(comp)
        cases.append((f"{fam}{parts}", L, [family.cp_ideal(comp)], family.regular_f(comp)))
    return cases


@cache
def catalog_cases():
    cases = []
    for name in catalog.names():
        L = catalog.get(name)
        f = sample_regular(L)
        spaces = [center(L), derived_subalgebra(L), stabilizer(L, f), Subspace.full(L.dim), Subspace.zero(L.dim)]
        found = search_cp(L) if L.dim <= 12 else None
        spaces += [found] if found is not None else []
        cases.append((name, L, spaces, f))
    return cases


def all_cases():
    return catalog_cases() + sweep_cases()


def test_sweep_cases_are_the_benchmark_sweep():
    assert len(sweep_cases()) == 157
    assert len(catalog_cases()) == 28


def test_the_cases_reach_every_verdict():
    verdicts = {
        (is_abelian(L, s), is_subalgebra(L, s), is_ideal(L, s)) for _, L, spaces, _ in all_cases() for s in spaces
    }
    assert {(True, True, True), (False, True, True), (True, True, False)} <= verdicts


# ---------------------------------------------------------------------------
# Sparse against dense
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cases", [catalog_cases, sweep_cases])
def test_closure_predicates_match_dense(cases):
    for name, L, spaces, _ in cases():
        for s in spaces:
            rows = s.basis
            assert is_abelian(L, s) == dense_is_abelian(L, rows), name
            assert is_subalgebra(L, s) == dense_is_subalgebra(L, rows), name
            assert is_ideal(L, s) == dense_is_ideal(L, rows), name
            if is_abelian(L, s) and is_subalgebra(L, s):
                # the dimension and rank characterizations of a CP are equivalent theorems
                rep = is_cp(L, s)
                assert rep.condition_dim == rep.condition_rank and rep.certified, name


@pytest.mark.parametrize("cases", [catalog_cases, sweep_cases])
def test_perp_and_pairing_match_dense(cases):
    for name, L, spaces, f in cases():
        for s in spaces:
            assert perp_of(L, s, f).basis == dense_perp_of(L, s.basis, f), name
            assert pairing_matrix(L, s) == dense_pairing_matrix(L, s.basis), name


@pytest.mark.parametrize("cases", [catalog_cases, sweep_cases])
def test_centralizer_matches_dense(cases):
    for name, L, _, f in cases():
        for u in (f.coords, dense_basis_vector(L, 0) if L.dim else ()):
            assert centralizer(L, u).basis == dense_centralizer(L, u), name


@pytest.mark.parametrize("cases", [catalog_cases, sweep_cases])
def test_quotient_and_restrict_match_dense(cases):
    for name, L, spaces, _ in cases():
        for s in spaces:
            if is_ideal(L, s):
                assert quotient(L, s)[0] == dense_quotient(L, s.basis), name
            if is_subalgebra(L, s):
                assert restrict(L, s) == dense_restrict(L, s.basis), name


@pytest.mark.parametrize("cases", [catalog_cases, sweep_cases])
def test_residual_contains_and_intersection_match_dense(cases):
    for name, L, spaces, f in cases():
        probes = [f.coords] + [dense_basis_vector(L, i) for i in range(L.dim)]
        for s in spaces:
            for v in probes:
                assert s.residual(v) == dense_residual(s.basis, v), name
                assert s.contains(v) == dense_contains(s.basis, v), name
            for t in spaces:
                assert s.intersection(t).basis == dense_intersection(L.dim, s.basis, t.basis), name


# ---------------------------------------------------------------------------
# Drawn subspaces, most of them neither subalgebras nor ideals
# ---------------------------------------------------------------------------

_coeffs = st.integers(min_value=-3, max_value=3).map(F)


@st.composite
def algebra_and_span(draw):
    name, L, _, f = draw(st.sampled_from([c for c in catalog_cases() if 0 < c[1].dim <= 12]))
    vectors = draw(st.lists(st.lists(_coeffs, min_size=L.dim, max_size=L.dim), min_size=1, max_size=4))
    return L, Subspace.span(L.dim, vectors), vectors, f


@settings(max_examples=150, deadline=None)
@given(algebra_and_span(), st.data())
def test_drawn_spans_match_dense(case, data):
    L, s, vectors, f = case
    rows = s.basis
    assert rows == dense_span(L.dim, vectors)
    assert is_abelian(L, s) == dense_is_abelian(L, rows)
    assert is_subalgebra(L, s) == dense_is_subalgebra(L, rows)
    assert is_ideal(L, s) == dense_is_ideal(L, rows)
    assert perp_of(L, s, f).basis == dense_perp_of(L, rows, f)
    assert pairing_matrix(L, s) == dense_pairing_matrix(L, rows)
    v = data.draw(st.lists(_coeffs, min_size=L.dim, max_size=L.dim))
    assert s.residual(v) == dense_residual(rows, v)
    assert s.contains(v) == dense_contains(rows, v)
    assert centralizer(L, v).basis == dense_centralizer(L, v)
    other = center(L) + Subspace.span(L.dim, [v])
    assert s.intersection(other).basis == dense_intersection(L.dim, rows, other.basis)


def test_seeded_spans_reach_false_verdicts():
    rng = random.Random(0)
    seen = set()
    for name, L, _, _ in catalog_cases():
        if not L.sc:
            continue
        for _ in range(10):
            vectors = [[F(rng.randint(-2, 2)) for _ in range(L.dim)] for _ in range(rng.randint(1, 3))]
            s = Subspace.span(L.dim, vectors)
            verdict = (is_abelian(L, s), is_subalgebra(L, s), is_ideal(L, s))
            rows = s.basis
            assert verdict == (dense_is_abelian(L, rows), dense_is_subalgebra(L, rows), dense_is_ideal(L, rows))
            seen.add(verdict)
    assert (False, False, False) in seen and (True, True, False) in seen


# ---------------------------------------------------------------------------
# The dense view and the sparse rows
# ---------------------------------------------------------------------------


@given(st.lists(st.lists(_coeffs, min_size=5, max_size=5), max_size=6))
def test_basis_view_is_the_rref_of_the_spanning_vectors(vectors):
    s = Subspace.span(5, vectors)
    red, pivots = rref(vectors, 5)
    assert s.basis == tuple(tuple(r) for r in red)
    assert s.pivots == tuple(pivots)
    assert s == Subspace(5, s.basis) == Subspace.span(5, [dict(enumerate(v)) for v in vectors])
    assert hash(s) == hash(Subspace(5, s.basis))
    sparse_red, sparse_pivots = rref(vectors, 5, sparse=True)
    assert [[row.get(j, ZERO) for j in range(5)] for row in sparse_red] == red and sparse_pivots == pivots
    assert [tuple(row.get(j, ZERO) for j in range(5)) for row in kernel(vectors, 5, sparse=True)] == (
        kernel(vectors, 5)
    )


# ---------------------------------------------------------------------------
# Sparse inputs at the Subspace boundary
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("row", [{3: F(1)}, {-1: F(1)}, {0: F(1), 1: F(1), 3: F(2)}, (1, 2), (1, 2, 3, 4)])
def test_rows_outside_the_ambient_space_are_rejected(row):
    s = Subspace.span(3, [(1, 0, 2)])
    with pytest.raises(AmbientMismatch):
        Subspace.span(3, [row])
    with pytest.raises(AmbientMismatch):
        s.residual(row)
    with pytest.raises(AmbientMismatch):
        s.contains(row)
    with pytest.raises(AmbientMismatch):
        s.coordinates_of(row)


def test_mapping_rows_inside_the_ambient_space_are_accepted():
    s = Subspace.span(3, [{0: F(1), 2: F(2)}, {1: 1}])
    assert s == Subspace.span(3, [(1, 0, 2), (0, 1, 0)])
    assert s.contains({0: F(2), 1: F(-1), 2: F(4)}) and not s.contains({2: F(1)})
    assert s.coordinates_of({0: F(2), 1: F(-1), 2: F(4)}) == (F(2), F(-1))
    assert s.residual({2: F(1)}) == (F(0), F(0), F(1))
