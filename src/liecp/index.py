"""Index, coadjoint stabilizers, the stabilizer-span ideal, invariant forms.

The index is dim L minus the generic rank of the bracket matrix, the
antisymmetric matrix of linear forms whose (i, j) entry expands [x_i, x_j]
in dual coordinates; a sample meeting its term rank certifies that rank.
Otherwise, unless the policy turns certification off, a coadjoint slice
(`slice_rank`) does: the sample meeting the slice's term rank, or else
symbolic elimination on the slice.  Samples and slice checks run on
integer rows (`exactla._scaled_rows`).  A functional is regular when its
stabilizer reaches that minimum; the span of stabilizers over sampled
regular functionals is a certified *subset* of the full stabilizer-span
ideal, which is all the soundness downstream no-CP certificates need.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import AmbientMismatch, SamplingExhausted
from .exactla import (
    DEFAULT_POLICY,
    ZERO,
    LinFormMatrix,
    RankPolicy,
    _echelon,
    _int_point,
    _scaled_rows,
    _symbolic_rank,
    generic_rank,
    kernel,
    random_point,
    rank_bound,
    rank_exact,
)
from .liealg import Functional, LieAlgebra, Subspace, center, derived_subalgebra


@dataclass(frozen=True)
class IndexReport:
    index: int
    rank: int
    certified: bool
    seed: int


def bracket_matrix(L: LieAlgebra) -> LinFormMatrix:
    """n x n matrix with entry (i, j) = sum_k c_ij^k t_k, filled from the structure constants in one pass."""
    rows: list[dict[int, dict[int, Fraction]]] = [{} for _ in range(L.dim)]
    for (i, j), table in L.sc.items():
        rows[i][j] = dict(table)
        rows[j][i] = {k: -c for k, c in table.items()}
    return LinFormMatrix(L.dim, L.dim, L.dim, tuple(rows))


def _spans_off_slice(m: LinFormMatrix, point: Sequence[Fraction | int], t: Sequence[int]) -> bool:
    """At point zeroed off t, the rows of m outside t have rank n - |t|.

    Only those rows are evaluated (`_scaled_rows`), at the zeroed point cleared of denominators.
    """
    keep = set(t)
    xi0, _ = _int_point([x if k in keep else 0 for k, x in enumerate(point)])
    outside = _scaled_rows(m, xi0, [i for i in range(m.rows) if i not in keep])
    return rank_exact(outside, m.cols) == len(outside)


def _slice(m: LinFormMatrix, point: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """`slice_coordinates(m, point)`, and the rank of m at point."""
    n = m.rows
    pt = _int_point(point)[0]  # point times a positive integer: the same slice checks
    # m(point) is alternating, so its rows that depend on earlier rows are the non-pivot columns
    independent = _echelon(_scaled_rows(m, pt, range(n)), n)
    t = [k for k in range(n) if k not in independent]
    spare = [k for k in range(n) if k in independent]
    while not _spans_off_slice(m, pt, t):
        t = sorted(t + [spare.pop(0)])
    for k in list(t):
        smaller = [c for c in t if c != k]
        if _spans_off_slice(m, pt, smaller):
            t = smaller
    return t, len(independent)


def slice_coordinates(m: LinFormMatrix, point: Sequence[Fraction | int]) -> list[int]:
    """Coordinates t of a coadjoint slice for the bracket matrix m, found from one sample.

    Starts from the rows of m(point) that depend on earlier rows (the
    non-pivot columns of `_echelon` on m(point), which is alternating), adds
    coordinates in basis order until `_spans_off_slice` holds, then drops
    every coordinate whose removal keeps it.  All coordinates always pass.
    """
    return _slice(m, point)[0]


def slice_matrix(m: LinFormMatrix, t: Sequence[int]) -> LinFormMatrix:
    """m on {xi : xi_k = 0 for k not in t}, in the |t| variables of t in order."""
    var = {k: v for v, k in enumerate(t)}
    rows = []
    for row in m.entries:
        forms = ((j, {var[k]: c for k, c in form.items() if k in var}) for j, form in row.items())
        rows.append({j: form for j, form in forms if form})
    return LinFormMatrix(m.rows, m.cols, len(t), tuple(rows))


def slice_rank(m: LinFormMatrix, point: Sequence[Fraction | int]) -> int:
    """Generic rank of a bracket matrix, certified on a coadjoint slice.

    Let m(xi) be the bracket matrix of L at xi in L*, t a set of
    coordinates, S = {xi : xi_k = 0 for k not in t}, and xi0 in S a point
    at which the rows of m(xi0) outside t have rank n - |t|
    (`_spans_off_slice`).  Then the generic rank r of m equals the generic
    rank r_S of m restricted to S, a matrix of linear forms in |t|
    variables.

    Proof.  r_S <= r, since m on S is a specialization of m.  For the
    converse, write ad*_X xi = m(xi) a for X = sum a_j x_j.  The Jacobi
    identity gives m(ad*_X xi) = A^T m(xi) + m(xi) A with A the matrix of
    ad X, so the derivative along the linear vector field xi -> ad*_X xi
    maps every (r_S + 1)-minor of m into the span W of those minors.
    Along s -> exp(s ad*_X) xi the minors therefore solve a linear ODE, and
    the common zero set V of W over C is stable under every such flow.  V
    contains S.  The map (s_1, ..., s_n, sigma) ->
    exp(s_1 ad*_{x_1}) ... exp(s_n ad*_{x_n}) (xi0 + sigma), sigma in S, lands
    in V, and its differential at 0 has image m(xi0) C^n + S.  That is all
    of C^n exactly when the rows of m(xi0) outside t have rank n - |t|, so
    then V contains an open set, hence is everything: every
    (r_S + 1)-minor of m vanishes identically and r <= r_S.

    The slice's term rank often settles r_S with no elimination.  m on S is
    alternating, since m is, so r_S <= b := `rank_bound(m on S)`, its term
    rank rounded down to even.  The rank r_0 of m(point) is a lower bound
    for r, so r_0 <= r = r_S <= b, and r_0 = b proves r = r_0.  Only when
    r_0 < b is m on S eliminated symbolically (`_symbolic_rank`).
    """
    t, sampled = _slice(m, point)
    s = slice_matrix(m, t)
    return sampled if rank_bound(s) == sampled else _symbolic_rank(s)


def index(L: LieAlgebra, policy: RankPolicy = DEFAULT_POLICY) -> IndexReport:
    """Computed once per algebra instance and policy, then kept on the instance.

    When a sample misses the term rank and `policy.certify` is on, the
    rank is certified on a coadjoint slice (`slice_rank`).
    """
    if policy not in L._index_reports:
        rank, certified = generic_rank(bracket_matrix(L), policy, eliminate=slice_rank)
        L._index_reports[policy] = IndexReport(L.dim - rank, rank, certified, policy.seed)
    return L._index_reports[policy]


def _bf_rows(L: LieAlgebra, f: Functional) -> list[dict[int, Fraction]]:
    """Rows of B_f, (i, j) -> f([x_i, x_j]), as {j: value} over the bracketing pairs."""
    if f.ambient_dim != L.dim:
        raise AmbientMismatch("functional dimension differs from the algebra")
    rows: list[dict[int, Fraction]] = [{} for _ in range(L.dim)]
    for (i, j), table in L.sc.items():
        v = sum((c * f.coords[k] for k, c in table.items()), ZERO)
        rows[i][j], rows[j][i] = v, -v
    return rows


def stabilizer(L: LieAlgebra, f: Functional) -> Subspace:
    """Kernel of B_f; contains the center for every f."""
    return Subspace(L.dim, tuple(kernel(_bf_rows(L, f), L.dim, sparse=True)))


def _draw_regular(
    L: LieAlgebra, target_dim: int, rng: random.Random, bound: int, attempts: int
) -> tuple[Functional, Subspace]:
    """Next functional of the stream whose stabilizer has `target_dim`, with that stabilizer."""
    for _ in range(attempts):
        f = Functional(L.dim, random_point(rng, L.dim, bound))
        s = stabilizer(L, f)
        if s.dim == target_dim:
            return f, s
    raise SamplingExhausted(
        f"no regular functional found in {attempts} attempts; regular functionals are dense, "
        "so this indicates a wrong index value"
    )


def sample_regular(
    L: LieAlgebra, policy: RankPolicy = DEFAULT_POLICY, attempts: int = 128
) -> Functional:
    """First integer-coordinate functional from the seeded stream whose stabilizer is minimal."""
    idx = index(L, policy)
    rng = random.Random(policy.seed)
    return _draw_regular(L, idx.index, rng, policy.coeff_bound, attempts)[0]


# frobenius_semiradical draws at most FSR_MAX_SAMPLES functionals, and stops
# early once FSR_STABLE_RUN draws in a row leave the span unchanged
FSR_MAX_SAMPLES = 64
FSR_STABLE_RUN = 3


@dataclass(frozen=True)
class FSRReport:
    """Span of the stabilizers of the sampled regular `functionals`.

    subspace is always contained in the true stabilizer-span ideal; when
    converged, the last FSR_STABLE_RUN draws left it unchanged.
    """

    subspace: Subspace
    converged: bool
    functionals: tuple[Functional, ...]

    @property
    def samples_used(self) -> int:
        return len(self.functionals)


def frobenius_semiradical(
    L: LieAlgebra,
    policy: RankPolicy = DEFAULT_POLICY,
    attempts: int = 128,
    stop: Callable[[Subspace], bool] | None = None,
) -> FSRReport:
    """Span of regular stabilizers drawn from the seeded stream until it stops growing.

    Each draw's stabilizer is computed once, by the regularity test that
    accepts it.  The first draw is `sample_regular`'s.  `stop`, if given,
    is asked each time the span grows; once it holds, sampling ends there,
    unconverged, and `functionals` are exactly the draws made.
    """
    idx = index(L, policy)
    rng = random.Random(policy.seed)
    span = Subspace.zero(L.dim)
    stable = 0
    funcs: list[Functional] = []
    while len(funcs) < FSR_MAX_SAMPLES and stable < FSR_STABLE_RUN:
        f, s = _draw_regular(L, idx.index, rng, policy.coeff_bound, attempts)
        funcs.append(f)
        grown = span + s
        if grown.dim == span.dim:
            stable += 1
        else:
            stable = 0
            span = grown
            if stop is not None and stop(span):
                break
    return FSRReport(span, stable >= FSR_STABLE_RUN, tuple(funcs))


def _sym_index(n: int, p: int, q: int) -> int:
    """Position of the unknown b(x_p, x_q), p <= q, in row-major packed order."""
    if p > q:
        p, q = q, p
    return p * n - p * (p - 1) // 2 + (q - p)


def invariant_symmetric_forms(L: LieAlgebra) -> LinFormMatrix:
    """Solution space of b([x,y],w) + b(y,[x,w]) = 0 over symmetric b.

    Returns the n x n symmetric matrix of linear forms in the free
    parameters of the solution space (one variable per kernel basis
    vector); a nondegenerate invariant form exists iff its generic rank
    is dim L.  Built once per algebra instance, then kept on the instance.
    """
    if not L._invariant_forms:
        L._invariant_forms.append(_build_invariant_forms(L))
    return L._invariant_forms[0]


def _build_invariant_forms(L: LieAlgebra) -> LinFormMatrix:
    n = L.dim
    unknowns = n * (n + 1) // 2
    rows = []
    for i in range(n):
        ad_i = [L.bracket_table(i, j) for j in range(n)]
        partners = [j for j in range(n) if ad_i[j]]
        for j in range(n):
            # the (i, j, k) row is zero unless [x_i, x_j] or [x_i, x_k] is nonzero
            for k in range(j, n) if ad_i[j] else [k for k in partners if k >= j]:
                row = Counter()
                for p, c in ad_i[j].items():
                    row[_sym_index(n, p, k)] += c
                for p, c in ad_i[k].items():
                    row[_sym_index(n, j, p)] += c
                rows.append(row)
    basis = kernel(rows, unknowns)
    nvars = len(basis)

    def entry(p: int, q: int):
        s = _sym_index(n, p, q)
        return {m: basis[m][s] for m in range(nvars) if basis[m][s]}

    return LinFormMatrix.build(n, n, nvars, entry)


def nondeg_invariant_form(L: LieAlgebra, policy: RankPolicy = DEFAULT_POLICY) -> tuple[bool, bool]:
    """Whether L has a nondegenerate invariant symmetric form, and whether that answer is certified.

    First an exact test that needs no form family.  A nondegenerate
    invariant B has B(z, [x, y]) = B([z, x], y), so z is orthogonal to
    [L, L] iff [z, x] = 0 for every x: [L, L]^perp = Z(L), and
    dim Z(L) + dim [L, L] = dim L.  When that fails the answer is a
    certified no.  Next the term rank of the family
    (`invariant_symmetric_forms`), an upper bound for its rank: below dim L,
    it too proves "no", with no sampling.  Otherwise the answer is the
    generic rank of the family against dim L.  A "yes" is always certified,
    since a sample at full rank proves it; a "no" is certified only when
    the rank is.
    """
    if center(L).dim + derived_subalgebra(L).dim != L.dim:
        return False, True
    forms = invariant_symmetric_forms(L)
    if rank_bound(forms) < L.dim:
        return False, True
    rank, certified = generic_rank(forms, policy)
    return rank == L.dim, certified


def has_nondeg_invariant_form(L: LieAlgebra, policy: RankPolicy = DEFAULT_POLICY) -> bool:
    return nondeg_invariant_form(L, policy)[0]


def is_square_integrable(L: LieAlgebra, policy: RankPolicy = DEFAULT_POLICY) -> bool:
    return index(L, policy).index == center(L).dim


def is_frobenius(L: LieAlgebra, policy: RankPolicy = DEFAULT_POLICY) -> bool:
    return index(L, policy).index == 0
