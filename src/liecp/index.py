"""Index, coadjoint stabilizers, the stabilizer-span ideal, invariant forms.

The index is dim L minus the generic rank of the bracket matrix, the
antisymmetric matrix of linear forms whose (i, j) entry expands [x_i, x_j]
in dual coordinates.  A functional is regular when its stabilizer reaches
that minimum; the span of stabilizers over sampled regular functionals is
a certified *subset* of the full stabilizer-span ideal, which is all the
soundness downstream no-CP certificates need.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import AmbientMismatch, SamplingExhausted
from .exactla import (
    DEFAULT_POLICY,
    ZERO,
    LinFormMatrix,
    QMatrix,
    RankPolicy,
    generic_rank,
    kernel,
    random_point,
)
from .liealg import Functional, LieAlgebra, Subspace, center


@dataclass(frozen=True)
class IndexReport:
    index: int
    rank: int
    certified: bool
    seed: int


def bracket_matrix(L: LieAlgebra) -> LinFormMatrix:
    """n x n matrix with entry (i, j) = sum_k c_ij^k t_k."""
    return LinFormMatrix.build(L.dim, L.dim, L.dim, lambda i, j: L.bracket_table(i, j))


def index(L: LieAlgebra, policy: RankPolicy = DEFAULT_POLICY) -> IndexReport:
    """Computed once per algebra instance and policy, then kept on the instance."""
    if policy not in L._index_reports:
        rank, certified = generic_rank(bracket_matrix(L), policy)
        L._index_reports[policy] = IndexReport(L.dim - rank, rank, certified, policy.seed)
    return L._index_reports[policy]


def Bf_matrix(L: LieAlgebra, f: Functional) -> QMatrix:
    """Alternating form (i, j) -> f([x_i, x_j])."""
    if f.ambient_dim != L.dim:
        raise AmbientMismatch("functional dimension differs from the algebra")
    data = [[ZERO] * L.dim for _ in range(L.dim)]
    for (i, j), table in L.sc.items():
        data[i][j] = sum((c * f.coords[k] for k, c in table.items()), ZERO)
        data[j][i] = -data[i][j]
    return QMatrix(L.dim, L.dim, tuple(map(tuple, data)))


def stabilizer(L: LieAlgebra, f: Functional) -> Subspace:
    """Kernel of B_f; contains the center for every f."""
    return Subspace(L.dim, tuple(kernel(Bf_matrix(L, f))))


def is_regular(L: LieAlgebra, f: Functional, policy: RankPolicy = DEFAULT_POLICY) -> bool:
    return stabilizer(L, f).dim == index(L, policy).index


def _draw_regular(
    L: LieAlgebra, target_dim: int, rng: random.Random, bound: int, attempts: int
) -> Functional:
    for _ in range(attempts):
        f = Functional(L.dim, random_point(rng, L.dim, bound))
        if stabilizer(L, f).dim == target_dim:
            return f
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
    return _draw_regular(L, idx.index, rng, policy.coeff_bound, attempts)


@dataclass(frozen=True)
class FSRReport:
    """Span of stabilizers of sampled regular functionals.

    subspace is always contained in the true stabilizer-span ideal; when
    converged, sampling saw no growth for a full stable run.
    """

    subspace: Subspace
    converged: bool
    samples_used: int
    functionals: tuple[Functional, ...]


def frobenius_semiradical(
    L: LieAlgebra,
    policy: RankPolicy = DEFAULT_POLICY,
    max_samples: int = 64,
    stable_run: int = 3,
    attempts: int = 128,
) -> FSRReport:
    idx = index(L, policy)
    rng = random.Random(policy.seed)
    span = Subspace.zero(L.dim)
    used = 0
    stable = 0
    funcs: list[Functional] = []
    while used < max_samples and stable < stable_run:
        f = _draw_regular(L, idx.index, rng, policy.coeff_bound, attempts)
        funcs.append(f)
        used += 1
        grown = span + stabilizer(L, f)
        if grown.dim == span.dim:
            stable += 1
        else:
            stable = 0
            span = grown
    return FSRReport(span, stable >= stable_run, used, tuple(funcs))


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
                row = [ZERO] * unknowns
                for p, c in ad_i[j].items():
                    row[_sym_index(n, p, k)] += c
                for p, c in ad_i[k].items():
                    row[_sym_index(n, j, p)] += c
                rows.append(row)
    basis = kernel(QMatrix.from_rows(rows, unknowns))
    nvars = len(basis)

    def entry(p: int, q: int):
        s = _sym_index(n, p, q)
        return {m: basis[m][s] for m in range(nvars) if basis[m][s]}

    return LinFormMatrix.build(n, n, nvars, entry)


def has_nondeg_invariant_form(L: LieAlgebra, policy: RankPolicy = DEFAULT_POLICY) -> bool:
    family = invariant_symmetric_forms(L)
    return generic_rank(family, policy).rank == L.dim


def is_square_integrable(L: LieAlgebra, policy: RankPolicy = DEFAULT_POLICY) -> bool:
    return index(L, policy).index == center(L).dim


def is_frobenius(L: LieAlgebra, policy: RankPolicy = DEFAULT_POLICY) -> bool:
    return index(L, policy).index == 0
