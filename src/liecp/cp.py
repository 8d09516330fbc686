"""Commutative polarizations: verification, witnesses, search, certificates.

A commutative polarization (CP) of L is an abelian subalgebra P with
dim P = (dim L + index L) / 2; equivalently P = P^f for some functional f
(necessarily regular), equivalently the generic rank of the bracket
pairing between P and L equals dim L - dim P.  Every check of provably
equivalent conditions, here and in constructions.py, evaluates each
condition once under the caller's policy.  Under `policy.certify` every
rank is exact, so a disagreement can only be an elimination bug and raises
`InconsistentConditions`; with certification off the report carries what
was computed, uncertified or inconsistent, and nothing is re-run.

`search_cp` walks cliques of the commuting graph and re-checks no candidate:
an abelian subalgebra a is isotropic for every B_f, so dim a <= (dim L + i)/2;
the sampled index i_s is at least i; so an abelian span of dimension
(dim L + i_s)/2 forces i_s = i and is a CP.  A CP is then maximal isotropic
for every regular B_f, so it contains every regular stabilizer L^f, and the
walk is pruned with one of them.

Negative results are certified soundly through two routes: a pair of
vectors with nonzero bracket in the span of the stabilizers of sampled
regular functionals (a CP contains each of those stabilizers, so it would
contain the pair and not be commutative), or a nondegenerate invariant
symmetric form on a nonabelian algebra (which forces the stabilizer span
to be everything).

Every check here (generic ranks, echelon subspace identities) is
insensitive to extending the ground field, so conclusions drawn over the
rationals remain valid over any extension.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import (
    AmbientMismatch,
    ChainGap,
    FunctionalNotVanishing,
    InconsistentConditions,
    NotAnIdeal,
    NotASubalgebra,
    NotCodimOne,
    NotContained,
    NotRegular,
    WrongCodimension,
)
from .exactla import (
    DEFAULT_POLICY,
    ZERO,
    ONE,
    LinFormMatrix,
    RankPolicy,
    evaluate,
    full_rank_witness,
    generic_rank,
    kernel,
    random_point,
    rank_exact,
)
from .index import (
    _bf_rows,
    _draw_regular,
    frobenius_semiradical,
    has_nondeg_invariant_form,
    index,
    invariant_symmetric_forms,
    stabilizer,
)
from .liealg import (
    _accumulate,
    Functional,
    LieAlgebra,
    Subspace,
    center,
    is_abelian,
    is_ideal,
    is_subalgebra,
    quotient,
    restrict,
)

Vector = tuple[Fraction, ...]

FSR_KIND = "fsr_noncommutative"
FORM_KIND = "invariant_form_nonabelian"


# ---------------------------------------------------------------------------
# CP verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CPReport:
    is_cp: bool
    is_ideal: bool
    abelian: bool
    subalgebra: bool
    condition_dim: bool
    condition_rank: bool
    dim_p: int
    index: int
    rank_value: int
    certified: bool
    witness_f: Functional | None = None


def pairing_matrix(L: LieAlgebra, p: Subspace) -> LinFormMatrix:
    """dim P x dim L matrix of linear forms expanding [h_i, x_j] in dual coordinates."""
    rows = [{j: col for j, col in enumerate(L.ad_columns(row)) if col} for row in p.rows]
    return LinFormMatrix(p.dim, L.dim, L.dim, tuple(rows))


def is_cp(L: LieAlgebra, p: Subspace, policy: RankPolicy = DEFAULT_POLICY) -> CPReport:
    """Check the dimension and generic-rank characterizations and their agreement."""
    if p.ambient_dim != L.dim:
        raise AmbientMismatch("subspace ambient dimension differs from the algebra")
    abelian = is_abelian(L, p)
    subalg = abelian or is_subalgebra(L, p)  # an abelian span is closed
    ideal = is_ideal(L, p)

    rep = index(L, policy)
    cond_dim = 2 * p.dim == L.dim + rep.index
    rank, rank_certified = generic_rank(pairing_matrix(L, p), policy)
    cond_rank = rank == L.dim - p.dim
    # cond_dim and cond_rank are equivalent theorems for an abelian subalgebra
    if policy.certify and abelian and subalg and cond_dim != cond_rank:
        raise InconsistentConditions(f"CP conditions disagree: index {rep.index}, pairing rank {rank}")
    return CPReport(
        is_cp=abelian and subalg and cond_dim and cond_rank,
        is_ideal=ideal,
        abelian=abelian,
        subalgebra=subalg,
        condition_dim=cond_dim,
        condition_rank=cond_rank,
        dim_p=p.dim,
        index=rep.index,
        rank_value=rank,
        certified=rep.certified and rank_certified,
    )


def perp_of(L: LieAlgebra, p: Subspace, f: Functional) -> Subspace:
    """P^f = {x in L : f([x, h]) = 0 for all h in P}, computed exactly.

    The condition for h is the row B_f h, since f([x_j, h]) = sum_a h_a f([x_j, x_a]).
    """
    if p.ambient_dim != L.dim:
        raise AmbientMismatch("subspace ambient dimension differs from the algebra")
    bf = _bf_rows(L, f)
    rows = []
    for h in p.rows:
        # the row h^T B_f = -(B_f h)^T, a combination of the rows of B_f
        row: dict[int, Fraction] = {}
        for a, x in h.items():
            _accumulate(row, bf[a], x)
        rows.append(row)
    return Subspace(L.dim, tuple(kernel(rows, L.dim, sparse=True)))


def cp_witness_functional(
    L: LieAlgebra, p: Subspace, policy: RankPolicy = DEFAULT_POLICY, attempts: int = 128
) -> Functional | None:
    """First sampled functional with P^f = P, verified regular; None if the cap runs out."""
    if not (is_abelian(L, p) and is_subalgebra(L, p)):
        raise NotASubalgebra("witness search requires an abelian subalgebra")
    idx = index(L, policy)
    rng = random.Random(policy.seed)
    for _ in range(attempts):
        f = Functional(L.dim, random_point(rng, L.dim, policy.coeff_bound))
        if perp_of(L, p, f) == p and stabilizer(L, f).dim == idx.index:
            return f
    return None


# ---------------------------------------------------------------------------
# No-CP certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoCPCertificate:
    """Machine-checkable evidence that no CP exists.

    fsr_noncommutative: `pair` lies in the span of the stabilizers of the
    listed regular `functionals` and has nonzero bracket.  Any CP would
    contain every such stabilizer and be commutative, a contradiction.

    invariant_form_nonabelian: `form_point` evaluates the invariant-form
    family to a nondegenerate symmetric invariant form on a nonabelian
    algebra, which forces the stabilizer span to be the whole algebra.
    """

    kind: str
    pair: tuple[Vector, Vector] | None = None
    functionals: tuple[Functional, ...] = ()
    form_point: Vector | None = None


def _fsr_certificate(L: LieAlgebra, policy: RankPolicy) -> NoCPCertificate | None:
    """A pair with nonzero bracket in the span of the shortest nonabelian prefix of draws.

    Sampling stops as soon as the span is not abelian.  The draws come from
    the same seeded stream as a converged `frobenius_semiradical`, and the
    span only grows, so some prefix span is nonabelian iff the converged
    span is: the certificate exists for exactly the same algebras, and only
    its `pair` and `functionals` are shorter.  Regular stabilizers are
    abelian (Duflo-Vergne), so it always takes at least two draws.
    """
    rep = frobenius_semiradical(L, policy, stop=lambda span: not is_abelian(L, span))
    for (a, u), (b, v) in itertools.combinations(enumerate(rep.subspace.rows), 2):
        if L.sparse_bracket(u, v):
            basis = rep.subspace.basis
            return NoCPCertificate(FSR_KIND, pair=(basis[a], basis[b]), functionals=rep.functionals)
    return None


def _form_certificate(L: LieAlgebra, policy: RankPolicy) -> NoCPCertificate | None:
    if not has_nondeg_invariant_form(L, policy):
        return None
    point = full_rank_witness(invariant_symmetric_forms(L), policy)
    return None if point is None else NoCPCertificate(FORM_KIND, form_point=point)


def no_cp_certificate(
    L: LieAlgebra, policy: RankPolicy = DEFAULT_POLICY, kind: str | None = None
) -> NoCPCertificate | None:
    """Try the stabilizer-span route, then the invariant-form route.

    Absence of a certificate is not a proof that a CP exists.
    """
    if not L.sc:
        raise ValueError("no-CP certificates only apply to nonabelian algebras")
    if kind == FSR_KIND:
        return _fsr_certificate(L, policy)
    if kind == FORM_KIND:
        return _form_certificate(L, policy)
    if kind is not None:
        raise ValueError(f"unknown certificate kind {kind!r}")
    return _fsr_certificate(L, policy) or _form_certificate(L, policy)


def verify_no_cp_certificate(
    L: LieAlgebra, cert: NoCPCertificate, policy: RankPolicy = DEFAULT_POLICY
) -> bool:
    """Re-check the evidence exactly (certified index for the regularity checks)."""
    certified = policy.with_options(certify=True)
    if cert.kind == FSR_KIND:
        pair_ok = cert.pair is not None and len(cert.pair) == 2 and all(len(w) == L.dim for w in cert.pair)
        if not pair_ok or not cert.functionals or any(f.ambient_dim != L.dim for f in cert.functionals):
            return False
        idx = index(L, certified)
        span = Subspace.zero(L.dim)
        for f in cert.functionals:
            s = stabilizer(L, f)
            if s.dim != idx.index:
                return False
            span = span + s
        u, v = cert.pair
        return span.contains(u) and span.contains(v) and any(c != 0 for c in L.bracket(u, v))
    if cert.kind == FORM_KIND:
        family = invariant_symmetric_forms(L)
        if cert.form_point is None or len(cert.form_point) != family.nvars:
            return False
        b = evaluate(family, cert.form_point)
        symmetric = all(b[j].get(i) == x for i, row in enumerate(b) for j, x in row.items())
        if not symmetric or rank_exact(b, L.dim) != L.dim:
            return False
        for i in range(L.dim):
            # b([x_i, x_j], x_k) + b(x_j, [x_i, x_k]) = 0 for every j, k says that B A + (B A)^T = 0
            # for symmetric B and A = ad x_i, whose column k is [x_i, x_k]
            ba: list[dict[int, Fraction]] = [{} for _ in range(L.dim)]
            for k, col in enumerate(L.ad_columns({i: ONE})):
                for j, row in enumerate(b):
                    v = sum([row[p] * c for p, c in col.items() if p in row], ZERO)
                    if v:
                        ba[j][k] = v
            if any(ba[k].get(j) != -x for j, row in enumerate(ba) for k, x in row.items()):
                return False
        return not is_abelian(L, Subspace.full(L.dim))
    return False


# ---------------------------------------------------------------------------
# CP search
# ---------------------------------------------------------------------------

_COMBO_COEFFS = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(-1, 2),
)


def _commuting_sets(
    L: LieAlgebra, size: int, required: frozenset[int] | set[int] = frozenset(), missing: int = 0
) -> Iterator[tuple[int, ...]]:
    """Label sets of `size` whose basis vectors pairwise commute and that miss at
    most `missing` labels of `required`, in `itertools.combinations` order."""
    clash = [{j for j in range(L.dim) if L.bracket_table(i, j)} for i in range(L.dim)]

    def walk(chosen, free):
        if len(chosen) == size:
            yield chosen
            return
        for t, v in enumerate(free):
            rest = [w for w in free[t + 1:] if w not in clash[v]]
            if len(chosen) + 1 + len(rest) >= size and len(required - {*chosen, v, *rest}) <= missing:
                yield from walk((*chosen, v), rest)

    return walk((), list(range(L.dim)))


def search_cp(L: LieAlgebra, policy: RankPolicy = DEFAULT_POLICY) -> Subspace | None:
    """First abelian span of dimension d = (dim L + i_s)/2 containing the
    stabilizer L^f of the first regular functional f of the seeded stream
    (the draw of `sample_regular`): a commuting coordinate span, else one
    with a two-label combination, in lexicographic order.  It is a CP
    unchecked: an abelian subalgebra is isotropic for every B_f, so its
    dimension is at most (dim L + i)/2; the sampled index i_s is at least i;
    so d forces i_s = i.  Absence of a result is NOT a proof of non-existence.

    Requiring L^f only prunes the walk.  Let P be abelian with dim P = d and
    g regular.  P is isotropic for B_g, and (dim L + dim L^g)/2 = d is the
    largest dimension of an isotropic subspace, so P is maximal isotropic
    and contains the radical L^g of B_g.  So every set the walk can return,
    in either stage, contains every regular stabilizer (and the center, and
    the whole stabilizer span), and a required support inside that span
    never changes the first set found.  dim L^f = i_s <= d, so requiring it
    never rules out the search up front.
    """
    idx = index(L, policy)
    if (L.dim + idx.index) % 2 != 0:
        raise InconsistentConditions("dim + index must be even")
    d = (L.dim + idx.index) // 2
    _, must_contain = _draw_regular(L, idx.index, random.Random(policy.seed), policy.coeff_bound, 128)
    support = {j for row in must_contain.rows for j in row}
    first = next(_commuting_sets(L, d, support), None)
    if first is not None:
        return Subspace(L.dim, tuple({i: ONE} for i in first))
    for subset in _commuting_sets(L, d - 1, support, 2):
        rest = [i for i in range(L.dim) if i not in subset]
        for i, j in itertools.combinations(rest, 2):
            if not support <= {*subset, i, j}:
                continue
            for q in _COMBO_COEFFS:
                candidate = Subspace.span(L.dim, [{s: ONE} for s in subset] + [{i: ONE, j: q}])
                if candidate.contains_subspace(must_contain) and is_abelian(L, candidate):
                    return candidate
    return None


def max_abelian_coordinate_ideal(L: LieAlgebra) -> tuple[int, Subspace]:
    """Largest coordinate-span abelian ideal; a lower bound for the true maximum."""
    for size in range(L.dim, 0, -1):
        for subset in _commuting_sets(L, size):
            candidate = Subspace(L.dim, tuple({i: ONE} for i in subset))
            if is_ideal(L, candidate):
                return size, candidate
    return 0, Subspace.zero(L.dim)


# ---------------------------------------------------------------------------
# Structural lemma checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainReport:
    dims: tuple[int, ...]
    indices: tuple[int, ...]
    steps_ok: bool
    final_abelian: bool
    cp_report: CPReport | None
    ok: bool


def verify_index_chain(
    L: LieAlgebra, chain: Sequence[Subspace], policy: RankPolicy = DEFAULT_POLICY
) -> ChainReport:
    """Descending chain from L, each step a codim-1 subalgebra with index up by 1."""
    levels = list(chain)
    if not levels or levels[0] != Subspace.full(L.dim):
        levels = [Subspace.full(L.dim)] + levels
    for t in range(1, len(levels)):
        prev, cur = levels[t - 1], levels[t]
        if cur.dim != prev.dim - 1:
            raise ChainGap(f"level {t} has dimension {cur.dim}, expected {prev.dim - 1}")
        if not prev.contains_subspace(cur) or not is_subalgebra(L, cur):
            raise NotASubalgebra(f"level {t} is not a subalgebra of the previous level")
    indices = tuple(index(restrict(L, lv), policy).index for lv in levels)
    steps_ok = all(indices[t] == indices[t - 1] + 1 for t in range(1, len(levels)))
    final = levels[-1]
    final_abelian = is_abelian(L, final)
    cp_report = None
    if steps_ok and final_abelian:
        # a valid increasing-index chain ends in a commutative polarization
        cp_report = is_cp(L, final, policy)
        if policy.certify and not cp_report.is_cp:
            raise InconsistentConditions("the index chain ends in an abelian level that is not a CP")
    return ChainReport(
        dims=tuple(lv.dim for lv in levels),
        indices=indices,
        steps_ok=steps_ok,
        final_abelian=final_abelian,
        cp_report=cp_report,
        ok=steps_ok,
    )


@dataclass(frozen=True)
class QuotientCPReport:
    quotient_dim: int
    index_parent: int
    index_quotient: int
    drop_ok: bool
    projected_p: Subspace | None
    cp_in_quotient: CPReport | None
    ok: bool


def quotient_cp_check(
    L: LieAlgebra,
    p: Subspace | None,
    a: Subspace,
    f: Functional,
    policy: RankPolicy = DEFAULT_POLICY,
) -> QuotientCPReport:
    """CP descends to L/A when A is an ideal inside P killed by a regular f.

    With p None only the index drop i(L/A) = i(L) - dim A is checked.
    """
    if not is_ideal(L, a):
        raise NotAnIdeal("A must be an ideal of L")
    if p is not None and not p.contains_subspace(a):
        raise NotContained("A must be contained in P")
    if any(f(row) != 0 for row in a.rows):
        raise FunctionalNotVanishing("f must vanish on A")
    idx = index(L, policy)
    if stabilizer(L, f).dim != idx.index:
        raise NotRegular("f must be regular")
    q, qmap = quotient(L, a)
    q_idx = index(q, policy)
    drop_ok = q_idx.index == idx.index - a.dim
    projected = None if p is None else qmap.project_subspace(p)
    cp_rep = None if p is None else is_cp(q, projected, policy)
    return QuotientCPReport(
        quotient_dim=q.dim,
        index_parent=idx.index,
        index_quotient=q_idx.index,
        drop_ok=drop_ok,
        projected_p=projected,
        cp_in_quotient=cp_rep,
        ok=drop_ok and (cp_rep is None or cp_rep.is_cp),
    )


@dataclass(frozen=True)
class Codim1Report:
    index_parent: int
    index_sub: int
    direction: int
    fsr_in_m: bool
    fsr_converged: bool
    status: str  # "certified" iff both indices are certified, else "probable"


def codim1_analysis(
    L: LieAlgebra, m: Subspace, policy: RankPolicy = DEFAULT_POLICY
) -> Codim1Report:
    """Index of a codim-1 subalgebra moves by exactly 1.

    The status is "certified" only when both indices are certified; a
    sampled index may be too high, so the direction is then only probable.
    `fsr_in_m` reports whether the sampled stabilizer span lies in M.
    """
    if m.ambient_dim != L.dim:
        raise AmbientMismatch("subspace ambient dimension differs from the algebra")
    if m.dim != L.dim - 1:
        raise NotCodimOne(f"expected codimension 1, got {L.dim - m.dim}")
    if not is_subalgebra(L, m):
        raise NotASubalgebra("M must be a subalgebra")

    i_l, i_m = index(L, policy), index(restrict(L, m), policy)
    if policy.certify and abs(i_m.index - i_l.index) != 1:
        raise InconsistentConditions(f"indices of L and M differ by {i_m.index - i_l.index}, not by 1")
    fsr_rep = frobenius_semiradical(L, policy)
    return Codim1Report(
        index_parent=i_l.index,
        index_sub=i_m.index,
        direction=i_m.index - i_l.index,
        fsr_in_m=m.contains_subspace(fsr_rep.subspace),
        fsr_converged=fsr_rep.converged,
        status="certified" if i_l.certified and i_m.certified else "probable",
    )


@dataclass(frozen=True)
class CentralizerReport:
    centralizer: Subspace
    index_parent: int
    index_sub: int
    index_ok: bool
    square_integrable_transfer: bool | None
    cp_of_parent: Subspace | None
    transferred_cp: Subspace | None
    transferred_cp_ok: bool | None


def centralizer_codim1_check(
    L: LieAlgebra,
    u: Sequence,
    policy: RankPolicy = DEFAULT_POLICY,
    p: Subspace | None = None,
) -> CentralizerReport:
    """Codim-1 centralizers raise the index by one and transfer CPs both ways."""
    from .liealg import centralizer as centralizer_of
    from .index import is_square_integrable

    m = centralizer_of(L, u)
    if m.dim != L.dim - 1:
        raise WrongCodimension(f"centralizer has codimension {L.dim - m.dim}, expected 1")
    m_alg = restrict(L, m)
    i_l = index(L, policy)
    i_m = index(m_alg, policy)
    index_ok = i_m.index == i_l.index + 1
    sq_transfer = None
    if is_square_integrable(L, policy):
        sq_transfer = center(m_alg).dim == i_m.index
    if p is None:
        p = search_cp(L, policy)
    transferred = None
    transferred_ok = None
    if p is not None:
        if m.contains_subspace(p):
            inner = p
        else:
            inner = p.intersection(m) + Subspace.span(L.dim, [u])
        coords = [m.coordinates_of(row) for row in inner.rows]
        if all(c is not None for c in coords):
            transferred = Subspace.span(m.dim, coords)
            transferred_ok = is_cp(m_alg, transferred, policy).is_cp
    return CentralizerReport(
        centralizer=m,
        index_parent=i_l.index,
        index_sub=i_m.index,
        index_ok=index_ok,
        square_integrable_transfer=sq_transfer,
        cp_of_parent=p,
        transferred_cp=transferred,
        transferred_cp_ok=transferred_ok,
    )


@dataclass(frozen=True)
class TransferReport:
    cp_of_parent: bool
    cp_of_sub: bool
    index_relation: bool
    equivalent: bool


def subalgebra_cp_transfer(
    L: LieAlgebra, m: Subspace, p: Subspace, policy: RankPolicy = DEFAULT_POLICY
) -> TransferReport:
    """P is a CP of L iff P is a CP of M and i(M) = i(L) + dim L - dim M."""
    if not m.contains_subspace(p):
        raise NotContained("P must be contained in M")
    if not is_subalgebra(L, m):
        raise NotASubalgebra("M must be a subalgebra")
    m_alg = restrict(L, m)
    coords = [m.coordinates_of(row) for row in p.rows]
    if any(c is None for c in coords):
        raise NotContained("P must be contained in M")
    p_in_m = Subspace.span(m.dim, coords)
    lhs = is_cp(L, p, policy).is_cp
    cp_sub = is_cp(m_alg, p_in_m, policy).is_cp
    relation = index(m_alg, policy).index == index(L, policy).index + L.dim - m.dim
    equivalent = lhs == (cp_sub and relation)
    if policy.certify and not equivalent:
        raise InconsistentConditions(f"transfer conditions disagree: {lhs=}, {cp_sub=}, {relation=}")
    return TransferReport(cp_of_parent=lhs, cp_of_sub=cp_sub, index_relation=relation, equivalent=equivalent)
