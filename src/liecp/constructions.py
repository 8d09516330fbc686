"""Equivalence reports tying module constructions to index-zero algebras.

Each report evaluates a set of provably equivalent conditions once,
through independent computational routes, under the caller's policy.
Under `policy.certify` every rank is exact, so a disagreement raises
`InconsistentConditions`; with certification off the report is returned
with `consistent` (or `equivalent`) false instead.  The one sampled
condition, a functional with trivial stabilizer, draws at least 16 points
under either policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InconsistentConditions, NoUnit, NotCommutativeIdeal
from .exactla import (
    DEFAULT_POLICY,
    ONE,
    LinFormMatrix,
    RankPolicy,
    full_rank_witness,
    generic_rank,
)
from .cp import is_cp
from .index import index
from .liealg import (
    AssocAlgebra,
    LieAlgebra,
    LSAAlgebra,
    SparseMat,
    Subspace,
    _as_matrix,
    is_abelian,
    is_ideal,
    left_mult_action,
    lie_of_associative,
    lie_of_lsa,
    quotient,
    semidirect_product,
)


@dataclass(frozen=True)
class EquivalenceReport:
    conditions: dict[str, bool]
    consistent: bool
    built: LieAlgebra


def _report(conditions: dict[str, bool], built: LieAlgebra, policy: RankPolicy) -> EquivalenceReport:
    consistent = len(set(conditions.values())) == 1
    if policy.certify and not consistent:
        raise InconsistentConditions(f"equivalent conditions disagree: {conditions}")
    return EquivalenceReport(conditions=conditions, consistent=consistent, built=built)


def _module_subspace(L: LieAlgebra, dim_g: int) -> Subspace:
    return Subspace.span(L.dim, [{k: ONE} for k in range(dim_g, L.dim)])


def _action_form_matrix(action: Sequence[SparseMat], dim_g: int, dim_v: int) -> LinFormMatrix:
    """dim g x dim V matrix of f(x_i v_j) = sum_k (A_i)_kj f_k with f symbolic on V."""
    rows = []
    for m in action:
        row: dict[int, dict[int, Fraction]] = {}
        for (k, j), c in m.items():
            row.setdefault(j, {})[k] = c
        rows.append(row)
    return LinFormMatrix(dim_g, dim_v, dim_v, tuple(rows))


def _stabilizer_vanishes_somewhere(form: LinFormMatrix, policy: RankPolicy) -> bool:
    """Sampled witness for: some functional on V has zero stabilizer in g.

    The stabilizer at a concrete f is the left kernel of the specialized
    matrix, computed exactly: it is zero when the rows have full rank.
    Finding a witness is randomized but the positive answer it gives is
    certain.  The draws are those of `cp._form_certificate` (`full_rank_witness`).
    """
    return full_rank_witness(form, policy) is not None


def _cp_ideal(L: LieAlgebra, v: Subspace, policy: RankPolicy) -> bool:
    rep = is_cp(L, v, policy)
    return rep.is_cp and rep.is_ideal


def semidirect_cp_report(
    g: LieAlgebra,
    action: Sequence,
    dim_v: int,
    policy: RankPolicy = DEFAULT_POLICY,
    v_labels: Sequence[str] | None = None,
) -> EquivalenceReport:
    """Equivalent characterizations of the module being a CP-ideal of g + V.

    Requires dim g <= dim V.  Conditions: the module is a CP-ideal; the
    index equals dim V - dim g; the symbolic action pairing has full rank
    dim g; some functional on V has trivial stabilizer in g.
    """
    if g.dim > dim_v:
        raise ValueError("requires dim g <= dim V")
    action_mats = [_as_matrix(m, dim_v) for m in action]
    L = semidirect_product(g, action_mats, dim_v, v_labels=v_labels)
    v = _module_subspace(L, g.dim)
    form = _action_form_matrix(action_mats, g.dim, dim_v)

    conditions = {
        "cp_ideal": _cp_ideal(L, v, policy),
        "index_matches": index(L, policy).index == dim_v - g.dim,
        "action_rank_full": generic_rank(form, policy).rank == g.dim,
        "stabilizer_vanishes": _stabilizer_vanishes_somewhere(form, policy),
    }
    return _report(conditions, L, policy)


def frobenius_associative_report(
    a: AssocAlgebra, policy: RankPolicy = DEFAULT_POLICY
) -> EquivalenceReport:
    """Nondegenerate multiplication pairing <=> index-zero commutator extension.

    The pairing condition asks for a functional f with (u, v) -> f(uv)
    nondegenerate, i.e. full generic rank of the symbolic pairing matrix.
    The built algebra is the commutator Lie algebra acting on A by left
    multiplication.
    """
    if a.unit is None:
        raise NoUnit("a unit element is required")
    g = lie_of_associative(a)
    mats = left_mult_action(a)
    n = a.dim

    # entry (i, j) is the form f -> f(x_i x_j), filled from the product table in one pass
    rows: list[dict[int, dict[int, Fraction]]] = [{} for _ in range(n)]
    for (i, j), table in a.sc.items():
        rows[i][j] = dict(table)
    pairing = LinFormMatrix(n, n, n, tuple(rows))
    L = semidirect_product(g, mats, n, v_labels=tuple(f"m.{lb}" for lb in a.labels))
    v = _module_subspace(L, n)

    conditions = {
        "pairing_nondegenerate": generic_rank(pairing, policy).rank == n,
        "lie_frobenius": index(L, policy).index == 0,
        "module_cp_ideal": _cp_ideal(L, v, policy),
    }
    return _report(conditions, L, policy)


def lsa_frobenius_report(
    a: LSAAlgebra, policy: RankPolicy = DEFAULT_POLICY
) -> EquivalenceReport:
    """Left-symmetric products acting on the dual of their module.

    The dual action is the negative transpose of left multiplication, so a
    functional has trivial stabilizer exactly when the corresponding
    element of A is not annihilated by left multiplication (not a right
    zero divisor).  The equivalence with index zero and the CP-ideal
    property is the square case dim g = dim V*.
    """
    g, mats = lie_of_lsa(a)
    n = a.dim
    dual_mats = [{(c, r): -x for (r, c), x in m.items()} for m in mats]
    L = semidirect_product(g, dual_mats, n, v_labels=tuple(f"d.{lb}" for lb in a.labels))
    v = _module_subspace(L, n)
    form = _action_form_matrix(dual_mats, n, n)

    conditions = {
        "stabilizer_vanishes": _stabilizer_vanishes_somewhere(form, policy),
        "lie_frobenius": index(L, policy).index == 0,
        "dual_cp_ideal": _cp_ideal(L, v, policy),
    }
    return _report(conditions, L, policy)


@dataclass(frozen=True)
class AbelianizationReport:
    cp_in_parent: bool
    cp_in_flattened: bool
    equivalent: bool
    index_parent: int
    index_flattened: int
    index_match: bool | None
    built: LieAlgebra


def abelianization_semidirect_check(
    L: LieAlgebra, v: Subspace, policy: RankPolicy = DEFAULT_POLICY
) -> AbelianizationReport:
    """Being a CP is preserved when the action of L/V replaces the extension.

    Builds L1 = (L/V) acting on V and compares the CP property of V on both
    sides; when both hold the indices agree.
    """
    if not (is_ideal(L, v) and is_abelian(L, v)):
        raise NotCommutativeIdeal("V must be a commutative ideal")
    q, qmap = quotient(L, v)
    # [x_c, h] = -[h, x_c] lies in V, so its coordinates are its pivot coordinates
    ad_rows = [L.ad_columns(row) for row in v.rows]
    position = {p: i for i, p in enumerate(v.pivots)}
    action = [
        {(position[p], j): -x for j, ad in enumerate(ad_rows) for p, x in ad[c].items() if p in position}
        for c in qmap.complement
    ]
    flat_labels = tuple(f"w{j + 1}" for j in range(v.dim))
    L1 = semidirect_product(q, action, v.dim, v_labels=flat_labels)
    v1 = _module_subspace(L1, q.dim)

    lhs = is_cp(L, v, policy).is_cp
    rhs = is_cp(L1, v1, policy).is_cp
    i_l, i_l1 = index(L, policy).index, index(L1, policy).index
    if policy.certify and lhs != rhs:
        raise InconsistentConditions(f"CP of V in L ({lhs}) and in the flattened extension ({rhs}) disagree")
    index_match = (i_l1 == i_l) if lhs else None
    return AbelianizationReport(
        cp_in_parent=lhs,
        cp_in_flattened=rhs,
        equivalent=lhs == rhs,
        index_parent=i_l,
        index_flattened=i_l1,
        index_match=index_match,
        built=L1,
    )
