"""Lie algebra data model, subspace calculus, constructors, and file format.

Structure constants are stored sparsely, one table per basis pair (i, j)
with i < j; antisymmetry is implicit.  The subspace calculus works on
sparse {index: Fraction} rows: `LieAlgebra.sparse_bracket` looks up only the
pairs of nonzero coordinates, and a `Subspace` keeps the unique reduced
echelon rows of `rref`, so equal subspaces have equal rows; dense tuples
appear only at the API boundary (`bracket`, `basis`, `residual`).  Every
constructor re-validates the Jacobi identity exactly, over the basis triples
with a nonzero double bracket [[x_a, x_b], x_c] in the tables (any other
triple has zero defect; see `new_lie_algebra`).  Associative and
left-symmetric products are validated and turned into Lie algebras on their
sparse tables as well, through `_associator`.
"""

from __future__ import annotations

import json
import re
from collections import Counter, defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, combinations_with_replacement, product
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, TypeVar

from .errors import (
    AmbientMismatch,
    DuplicatePair,
    IndexOutOfRange,
    JacobiViolation,
    NoUnit,
    NotADerivation,
    NotAnIdeal,
    NotARepresentation,
    NotASubalgebra,
    NotCentral,
    NotCommutative,
    NotLeftSymmetric,
    ParseError,
    ZeroVector,
)
from .exactla import ONE, ZERO, RowLike, VecLike, as_vector, format_rat, kernel, rref

Vector = tuple[Fraction, ...]
SparseVector = dict[int, Fraction]  # nonzero coordinates by basis index
SparseMat = dict[tuple[int, int], Fraction]  # a matrix: nonzero entries by (row, col)
ScTable = Mapping[int, Fraction]
T = TypeVar("T", int, Fraction)


def _sparse_vector(v: RowLike, n: int) -> SparseVector:
    """v, dense or {col: value}, as {col: Fraction} without zeros; AmbientMismatch unless v lies in Q^n."""
    mapping = isinstance(v, Mapping)
    if any(not 0 <= j < n for j in v) if mapping else len(v) != n:
        raise AmbientMismatch("vector coordinates must lie in range(ambient_dim)")
    return {j: x if type(x) is Fraction else Fraction(x) for j, x in (v.items() if mapping else enumerate(v)) if x}


def _accumulate(acc: SparseVector, v: Mapping[int, Fraction], coeff: Fraction) -> None:
    """acc += coeff * v, sparse; entries that cancel stay in acc as zeros."""
    for k, c in v.items():
        x = coeff * c
        acc[k] = acc[k] + x if k in acc else x


def _dense(v: Mapping[int, Fraction], n: int) -> Vector:
    return tuple(v.get(j, ZERO) for j in range(n))


# ---------------------------------------------------------------------------
# Subspaces and functionals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^n given by its reduced echelon rows as {col: Fraction}, in pivot order.

    Each row is 1 at its pivot (its lowest column) and 0 at the other pivots.
    Rows given dense are stored sparse; `basis` is the dense view, for output.
    """

    ambient_dim: int
    rows: tuple[SparseVector, ...]

    def __post_init__(self):
        n = self.ambient_dim
        object.__setattr__(self, "rows", tuple(r if type(r) is dict else _sparse_vector(r, n) for r in self.rows))

    def __hash__(self) -> int:
        return hash((self.ambient_dim, tuple(tuple(sorted(r.items())) for r in self.rows)))

    @staticmethod
    def span(ambient_dim: int, vectors: Iterable[RowLike]) -> Subspace:
        rows = [_sparse_vector(v, ambient_dim) for v in vectors]
        return Subspace(ambient_dim, tuple(rref(rows, ambient_dim, sparse=True)[0]))

    @staticmethod
    def zero(ambient_dim: int) -> Subspace:
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> Subspace:
        return Subspace(ambient_dim, tuple({i: ONE} for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return not self.rows

    @cached_property
    def basis(self) -> tuple[Vector, ...]:
        return tuple(_dense(r, self.ambient_dim) for r in self.rows)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        return tuple(min(r) for r in self.rows)

    @cached_property
    def _by_pivot(self) -> dict[int, SparseVector]:
        return dict(zip(self.pivots, self.rows))

    def _reduce(self, w: SparseVector) -> SparseVector:
        """w minus its projection through the echelon rows, without zeros; consumes w.

        Each row is 0 at the other pivots, so clearing w at one pivot leaves the others."""
        for p in [p for p in w if p in self._by_pivot]:
            c = w.pop(p)
            for j, x in self._by_pivot[p].items():
                if j != p:
                    w[j] = w.get(j, ZERO) - c * x
        return {j: x for j, x in w.items() if x}

    def residual(self, v: RowLike) -> Vector:
        """v minus its projection through the echelon rows (pivot elimination)."""
        return _dense(self._reduce(_sparse_vector(v, self.ambient_dim)), self.ambient_dim)

    def contains(self, v: RowLike) -> bool:
        return not self._reduce(_sparse_vector(v, self.ambient_dim))

    def coordinates_of(self, v: RowLike) -> Vector | None:
        """Coefficients c with v = sum c_i basis_i, or None if v is outside.

        The pivot columns of the reduced echelon rows are unit vectors, so the
        coefficients are v's pivot coordinates."""
        w = _sparse_vector(v, self.ambient_dim)
        coords = tuple(w.get(p, ZERO) for p in self.pivots)
        return None if self._reduce(w) else coords

    def contains_subspace(self, other: Subspace) -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch("ambient dimensions differ")
        return not any(self._reduce(dict(row)) for row in other.rows)

    def __add__(self, other: Subspace) -> Subspace:
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch("ambient dimensions differ")
        return Subspace.span(self.ambient_dim, self.rows + other.rows)

    def intersection(self, other: Subspace) -> Subspace:
        """The combinations sum a_i row_i whose residual modulo other vanishes: a kernel in the a_i."""
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch("ambient dimensions differ")
        residuals = [other._reduce(dict(row)) for row in self.rows]
        equations = [{i: r[j] for i, r in enumerate(residuals) if j in r} for j in range(self.ambient_dim)]
        vectors = []
        for sol in kernel(equations, self.dim, sparse=True):
            acc: SparseVector = {}
            for i, a in sol.items():
                _accumulate(acc, self.rows[i], a)
            vectors.append(acc)
        return Subspace.span(self.ambient_dim, vectors)


@dataclass(frozen=True)
class Functional:
    """Element of the dual space, as its values on the basis."""

    ambient_dim: int
    coords: Vector

    def __post_init__(self):
        if len(self.coords) != self.ambient_dim:
            raise AmbientMismatch("coords length must equal ambient_dim")

    @staticmethod
    def from_coords(coords: VecLike) -> Functional:
        v = as_vector(coords)
        return Functional(len(v), v)

    def __call__(self, v: RowLike) -> Fraction:
        return sum((self.coords[j] * x for j, x in _sparse_vector(v, self.ambient_dim).items()), ZERO)


# ---------------------------------------------------------------------------
# Lie algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    labels: tuple[str, ...]
    sc: Mapping[tuple[int, int], ScTable]

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise IndexOutOfRange(f"unknown basis label {label!r}") from None

    def bracket_table(self, i: int, j: int) -> dict[int, Fraction]:
        """Table of [x_i, x_j] for basis indices, sign handled."""
        if i <= j:
            return dict(self.sc.get((i, j), {}))
        return {k: -c for k, c in self.sc.get((j, i), {}).items()}

    def sparse_bracket(self, u: Mapping[int, Fraction], v: Mapping[int, Fraction]) -> SparseVector:
        """[u, v] for vectors given as {k: c}, as {k: c} without zeros; reads `sc` only at their pairs."""
        sc, acc = self.sc, {}
        for i, x in u.items():
            for j, y in v.items():
                table = sc.get((i, j)) if i < j else sc.get((j, i))
                if table:
                    _accumulate(acc, table, x * y if i < j else -x * y)
        return {k: c for k, c in acc.items() if c}

    def bracket(self, u: VecLike, v: VecLike) -> Vector:
        return _dense(self.sparse_bracket(_sparse_vector(u, self.dim), _sparse_vector(v, self.dim)), self.dim)

    @cached_property
    def _partners(self) -> tuple[tuple[tuple[int, ScTable, bool], ...], ...]:
        """For each basis index a, (j, table, a < j) over the j with [x_a, x_j] != 0, in order of j;
        the table is that of [x_a, x_j] when a < j and of [x_j, x_a] otherwise.  Built on first use."""
        partners: list[list[tuple[int, ScTable, bool]]] = [[] for _ in range(self.dim)]
        for (i, j), table in self.sc.items():
            partners[i].append((j, table, True))
            partners[j].append((i, table, False))
        return tuple(tuple(sorted(row, key=lambda t: t[0])) for row in partners)

    def ad_columns(self, h: Mapping[int, Fraction]) -> list[SparseVector]:
        """[h, x_j] for every basis index j, as {k: c} without zeros: the columns of ad h.

        Only the partners of each nonzero coordinate of h are visited (`_partners`)."""
        partners, cols = self._partners, [{} for _ in range(self.dim)]
        for a, x in h.items():
            for j, table, forward in partners[a]:
                _accumulate(cols[j], table, x if forward else -x)
        return [{k: c for k, c in col.items() if c} for col in cols]

    def basis_vector(self, i: int) -> Vector:
        return _dense({i: ONE}, self.dim)

    def ad(self, v: VecLike) -> SparseMat:
        """Matrix of w -> [v, w] in the basis (columns are [v, x_j])."""
        cols = self.ad_columns(_sparse_vector(v, self.dim))
        return {(k, j): c for j, col in enumerate(cols) for k, c in col.items()}

    def subspace(self, vectors: Iterable[VecLike]) -> Subspace:
        return Subspace.span(self.dim, vectors)

    def span_of_labels(self, labels: Iterable[str]) -> Subspace:
        return self.subspace([self.basis_vector(self.label_index(lb)) for lb in labels])

    @cached_property
    def _index_reports(self) -> dict:
        """IndexReport per RankPolicy, filled by `index.index`."""
        return {}

    @cached_property
    def _invariant_forms(self) -> list:
        """The family of `index.invariant_symmetric_forms` once built (at most one item)."""
        return []


def _signed(sc: Mapping[tuple[int, int], Mapping[int, T]]) -> dict[tuple[int, int], Mapping[int, T]]:
    """The table for both orders of each key: [x_j, x_i] = -[x_i, x_j]."""
    return {(j, i): {k: -c for k, c in table.items()} for (i, j), table in sc.items()} | dict(sc)


def _jacobi_defect(signed: Mapping[tuple[int, int], Mapping[int, T]], i: int, j: int, k: int) -> dict[int, T]:
    """Nonzero coordinates of [[x_i, x_j], x_k] + [[x_j, x_k], x_i] + [[x_k, x_i], x_j].

    They are ints or Fractions, as the table's entries are."""
    acc = {}
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        for p, coeff in signed.get((a, b), {}).items():
            for q, d in signed.get((p, c), {}).items():
                acc[q] = acc.get(q, 0) + coeff * d
    return {q: x for q, x in acc.items() if x}


def _clean_table(
    kind: str, dim: int, labels: tuple[str, ...], table: Mapping[tuple[int, int], Mapping[int, "Fraction | int"]]
) -> dict[tuple[int, int], dict[int, Fraction]]:
    """Structure constants as Fractions without zeros, every index checked
    against dim; a "bracket" table must also have keys i < j."""
    if len(labels) != dim:
        raise ValueError("label count must equal dim")
    if len(set(labels)) != dim:
        raise ValueError("labels must be distinct")
    sc: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (i, j), terms in table.items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise IndexOutOfRange(f"{kind} pair ({i}, {j}) out of range")
        if kind == "bracket" and i >= j:
            raise DuplicatePair(f"bracket keys must have i < j, got ({i}, {j})")
        clean = {}
        for k, c in terms.items():
            if not (0 <= k < dim):
                raise IndexOutOfRange(f"{kind} target {k} out of range in pair ({i}, {j})")
            c = Fraction(c)
            if c:
                clean[k] = c
        if clean:
            sc[(i, j)] = clean
    return sc


def new_lie_algebra(
    dim: int,
    labels: Sequence[str],
    brackets: Mapping[tuple[int, int], Mapping[int, "Fraction | int"]],
) -> LieAlgebra:
    """Validated constructor: distinct labels, i < j keys, exact Jacobi check.

    The check visits only the triples i < j < k that can have a nonzero defect,
    in lexicographic order, so a `JacobiViolation` names the first failing
    triple.  Write c_ab^p for the table entries, [x_a, x_b] = sum_p c_ab^p x_p.
    The defect of (i, j, k) is the sum over its cyclic orders (a, b, c) of
    [[x_a, x_b], x_c] = sum_p c_ab^p [x_p, x_c].  A term of that sum can be
    nonzero only if p is in the support of the table of (a, b) and the table of
    (p, c) is nonempty, that is, c is a partner of p.  So a triple none of whose
    cyclic orders arises that way (from a table key (a, b), a label p in its
    support and a partner c of p outside {a, b}) has defect zero, and skipping
    it loses no failure.  Swapping a and b only flips the sign of the table, so
    the keys a < b suffice.

    The defects are computed on integers: on the table times D, the lcm of its
    denominators, every defect is D^2 times the true one, so it is zero exactly
    when the true one is.  Only the first failing triple's defect is computed
    again on the table itself, for the `JacobiViolation`.
    """
    labels = tuple(labels)
    sc = _clean_table("bracket", dim, labels, brackets)
    den = lcm(*[c.denominator for table in sc.values() for c in table.values()])
    scaled = {key: {k: c.numerator * (den // c.denominator) for k, c in table.items()} for key, table in sc.items()}
    signed = _signed(scaled)
    partners: list[set[int]] = [set() for _ in range(dim)]
    for i, j in signed:
        partners[i].add(j)
    triples = {
        tuple(sorted((a, b, c)))
        for (a, b), table in sc.items()
        for p in table
        for c in partners[p]
        if c != a and c != b
    }
    for i, j, k in sorted(triples):
        if _jacobi_defect(signed, i, j, k):
            defect = _jacobi_defect(_signed(sc), i, j, k)
            raise JacobiViolation((i, j, k), tuple(defect.get(q, ZERO) for q in range(dim)), labels)
    return LieAlgebra(dim, labels, sc)


def lie_algebra_from_label_table(
    labels: Sequence[str],
    table: Mapping[tuple[str, str], Mapping[str, "Fraction | int"]],
) -> LieAlgebra:
    """Convenience constructor with label-keyed brackets (lhs before rhs)."""
    idx = {lb: i for i, lb in enumerate(labels)}
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (lhs, rhs), terms in table.items():
        i, j = idx[lhs], idx[rhs]
        if i >= j:
            raise DuplicatePair(f"bracket ({lhs}, {rhs}) must list the earlier basis label first")
        brackets[(i, j)] = {idx[t]: c for t, c in terms.items()}
    return new_lie_algebra(len(labels), labels, brackets)


# ---------------------------------------------------------------------------
# Structural subspaces
# ---------------------------------------------------------------------------


def center(L: LieAlgebra) -> Subspace:
    """{z : [z, x_j] = 0 for all j}, via the stacked adjoint constraints."""
    rows: defaultdict[tuple[int, int], Counter] = defaultdict(Counter)
    for (i, j), table in L.sc.items():
        for k, c in table.items():
            rows[j, k][i] += c
            rows[i, k][j] -= c
    return Subspace(L.dim, tuple(kernel(rows.values(), L.dim, sparse=True)))


def derived_subalgebra(L: LieAlgebra) -> Subspace:
    return Subspace.span(L.dim, L.sc.values())


def centralizer(L: LieAlgebra, u: VecLike) -> Subspace:
    """Kernel of v -> [v, u], which is the kernel of ad u: row k of ad u is {j: [u, x_j]_k}."""
    cols = L.ad_columns(_sparse_vector(u, L.dim))
    rows = [{j: col[k] for j, col in enumerate(cols) if k in col} for k in range(L.dim)]
    return Subspace(L.dim, tuple(kernel(rows, L.dim, sparse=True)))


def is_abelian(L: LieAlgebra, s: Subspace) -> bool:
    _check_ambient(L, s)
    return not any(L.sparse_bracket(u, v) for u, v in combinations(s.rows, 2))


def is_subalgebra(L: LieAlgebra, s: Subspace) -> bool:
    _check_ambient(L, s)
    return not any(s._reduce(L.sparse_bracket(u, v)) for u, v in combinations(s.rows, 2))


def is_ideal(L: LieAlgebra, s: Subspace) -> bool:
    """[h, x_i] lies in s for every echelon row h and basis index i (`ad_columns`); zero columns do."""
    _check_ambient(L, s)
    return not any(s._reduce(col) for row in s.rows for col in L.ad_columns(row) if col)


def _check_ambient(L: LieAlgebra, s: Subspace) -> None:
    if s.ambient_dim != L.dim:
        raise AmbientMismatch("subspace ambient dimension differs from the algebra")


# ---------------------------------------------------------------------------
# Quotients and restrictions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientMap:
    """Projection L -> L/A along the ideal's pivot coordinates."""

    ideal: Subspace
    complement: tuple[int, ...]

    def _project(self, w: SparseVector) -> SparseVector:
        """The residual of w (which it consumes) in the quotient's coordinates."""
        position = {c: k for k, c in enumerate(self.complement)}
        return {position[c]: x for c, x in sorted(self.ideal._reduce(w).items())}

    def project_vector(self, v: VecLike) -> Vector:
        return _dense(self._project(_sparse_vector(v, self.ideal.ambient_dim)), len(self.complement))

    def project_subspace(self, s: Subspace) -> Subspace:
        return Subspace.span(len(self.complement), [self._project(dict(row)) for row in s.rows])


def quotient(L: LieAlgebra, a: Subspace) -> tuple[LieAlgebra, QuotientMap]:
    """Quotient by an ideal, on the non-pivot coordinates of its echelon basis."""
    if not is_ideal(L, a):
        raise NotAnIdeal("quotient requires an ideal")
    pivot_set = set(a.pivots)
    complement = tuple(c for c in range(L.dim) if c not in pivot_set)
    qmap = QuotientMap(a, complement)
    labels = tuple(L.labels[c] for c in complement)
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for ai in range(len(complement)):
        for bj in range(ai + 1, len(complement)):
            table = L.sc.get((complement[ai], complement[bj]))
            if table:
                brackets[(ai, bj)] = qmap._project(dict(table))
    return new_lie_algebra(len(complement), labels, brackets), qmap


def restrict(L: LieAlgebra, s: Subspace, labels: Sequence[str] | None = None) -> LieAlgebra:
    """Standalone algebra on a subalgebra's echelon basis (pivot labels)."""
    if not is_subalgebra(L, s):
        raise NotASubalgebra("restriction requires a subalgebra")
    if labels is None:
        labels = tuple(L.labels[p] for p in s.pivots)
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (a, u), (b, v) in combinations(enumerate(s.rows), 2):
        # the bracket lies in s, so its coordinates are its pivot coordinates
        w = L.sparse_bracket(u, v)
        brackets[(a, b)] = {k: w[p] for k, p in enumerate(s.pivots) if p in w}
    return new_lie_algebra(s.dim, tuple(labels), brackets)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def direct_product(l1: LieAlgebra, l2: LieAlgebra) -> LieAlgebra:
    """Block structure constants, no cross brackets; labels suffixed on collision."""
    if set(l1.labels) & set(l2.labels):
        labels = tuple(f"{lb}~1" for lb in l1.labels) + tuple(f"{lb}~2" for lb in l2.labels)
    else:
        labels = l1.labels + l2.labels
    brackets = dict(l1.sc)
    off = l1.dim
    for (i, j), table in l2.sc.items():
        brackets[(i + off, j + off)] = {k + off: c for k, c in table.items()}
    return new_lie_algebra(l1.dim + l2.dim, labels, brackets)


def _as_matrix(m, size: int) -> SparseMat:
    """A size x size matrix, given as {(row, col): value} or as a list of rows, as {(row, col): Fraction}."""
    if isinstance(m, Mapping):
        square = all(0 <= r < size and 0 <= c < size for r, c in m)
    else:
        square = len(m) == size and all(len(row) == size for row in m)
        m = {(r, c): x for r, row in enumerate(m) for c, x in enumerate(row)}
    if not square:
        raise ValueError(f"matrix has the wrong shape: expected {size} x {size}")
    return {pos: x if type(x) is Fraction else Fraction(x) for pos, x in m.items() if x}


def _mat_add(m1: SparseMat, m2: SparseMat, c: Fraction = ONE) -> SparseMat:
    """m1 + c * m2."""
    out = dict(m1)
    for pos, v in m2.items():
        w = out.get(pos, ZERO) + c * v
        if w:
            out[pos] = w
        else:
            out.pop(pos, None)
    return out


def _mat_commutator(m1: SparseMat, m2: SparseMat) -> SparseMat:
    out: SparseMat = {}
    for (a1, b1), v1 in m1.items():
        for (a2, b2), v2 in m2.items():
            if b1 == a2:
                w = out.get((a1, b2), ZERO) + v1 * v2
                if w:
                    out[(a1, b2)] = w
                else:
                    out.pop((a1, b2), None)
            if b2 == a1:
                w = out.get((a2, b1), ZERO) - v1 * v2
                if w:
                    out[(a2, b1)] = w
                else:
                    out.pop((a2, b1), None)
    return out


def semidirect_product(
    g: LieAlgebra,
    action: Sequence,
    dim_v: int,
    v_labels: Sequence[str] | None = None,
) -> LieAlgebra:
    """g acting on an abelian ideal V through the given matrices.

    action[i] is the matrix of x_i on V; the list must be a Lie algebra
    homomorphism, checked exactly on basis pairs.
    """
    mats = [_as_matrix(m, dim_v) for m in action]
    if len(mats) != g.dim:
        raise ValueError("one action matrix per basis element of g is required")
    for i, j in combinations(range(g.dim), 2):
        # [A_i, A_j] - sum_k c_ij^k A_k must vanish
        rest = _mat_commutator(mats[i], mats[j])
        for k, c in g.sc.get((i, j), {}).items():
            rest = _mat_add(rest, mats[k], -c)
        if rest:
            raise NotARepresentation(f"action fails on basis pair ({g.labels[i]}, {g.labels[j]})")
    if v_labels is None:
        v_labels = tuple(f"v{j + 1}" for j in range(dim_v))
    v_labels = tuple(v_labels)
    if set(v_labels) & set(g.labels):
        raise ValueError("module labels collide with algebra labels")
    labels = g.labels + v_labels
    brackets = dict(g.sc)
    for i, m in enumerate(mats):
        # [x_i, v_j] = A_i v_j, column j of A_i
        for (k, j), c in m.items():
            brackets.setdefault((i, g.dim + j), {})[g.dim + k] = c
    return new_lie_algebra(g.dim + dim_v, labels, brackets)


def derivation_extend(m: LieAlgebra, d, new_label: str = "d") -> LieAlgebra:
    """Extension by one outer element acting as the given derivation."""
    images: list[SparseVector] = [{} for _ in range(m.dim)]  # d(x_i), column i of d
    for (k, i), c in _as_matrix(d, m.dim).items():
        images[i][k] = c
    for i, j in combinations(range(m.dim), 2):
        # d[x_i, x_j] = [d x_i, x_j] + [x_i, d x_j], including pairs with zero bracket
        defect = m.sparse_bracket(images[i], {j: ONE})
        _accumulate(defect, m.sparse_bracket({i: ONE}, images[j]), ONE)
        for p, c in m.sc.get((i, j), {}).items():
            _accumulate(defect, images[p], -c)
        if any(defect.values()):
            raise NotADerivation(f"derivation identity fails on ({m.labels[i]}, {m.labels[j]})")
    if new_label in m.labels:
        raise ValueError("new label collides with an existing basis label")
    labels = m.labels + (new_label,)
    brackets = dict(m.sc)
    for i in range(m.dim):
        # stored as [x_i, d] = -d(x_i) to keep i < j ordering
        brackets[(i, m.dim)] = {k: -c for k, c in images[i].items()}
    return new_lie_algebra(m.dim + 1, labels, brackets)


def heisenberg_extend(m: LieAlgebra, z: VecLike, r: int) -> LieAlgebra:
    """Adjoin a symplectic plane pair basis s_1..s_r, t_1..t_r with [s_i, t_j] = delta_ij z."""
    zv = as_vector(z)
    if all(x == 0 for x in zv):
        raise ZeroVector("z must be nonzero")
    if not center(m).contains(zv):
        raise NotCentral("z must be central in M")
    if r < 1:
        raise ValueError("r must be >= 1")
    s_labels = tuple(f"s{i + 1}" for i in range(r))
    t_labels = tuple(f"t{i + 1}" for i in range(r))
    if (set(s_labels) | set(t_labels)) & set(m.labels):
        raise ValueError("adjoined labels collide with existing basis labels")
    labels = m.labels + s_labels + t_labels
    brackets = dict(m.sc)
    for i in range(r):
        brackets[(m.dim + i, m.dim + r + i)] = dict(enumerate(zv))
    return new_lie_algebra(m.dim + 2 * r, labels, brackets)


# ---------------------------------------------------------------------------
# Associative and left-symmetric algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductAlgebra:
    """Algebra with a bilinear product given by structure constants for
    every ordered basis pair: x_i x_j = sum_k sc[i, j][k] x_k.  Whether it is
    associative (with an optional unit) or left-symmetric is established by
    the validating constructor that built it."""

    dim: int
    labels: tuple[str, ...]
    sc: Mapping[tuple[int, int], ScTable]
    unit: Vector | None = None


# one type for both kinds; only their validating constructors differ
AssocAlgebra = ProductAlgebra
LSAAlgebra = ProductAlgebra


def _associator(sc: Mapping[tuple[int, int], ScTable], i: int, j: int, k: int) -> dict[int, Fraction]:
    """Nonzero coordinates of (x_i x_j) x_k - x_i (x_j x_k), read off the product table."""
    acc: dict[int, Fraction] = {}
    for p, c in sc.get((i, j), {}).items():
        _accumulate(acc, sc.get((p, k), {}), c)
    for p, c in sc.get((j, k), {}).items():
        _accumulate(acc, sc.get((i, p), {}), -c)
    return {q: x for q, x in acc.items() if x}


def new_assoc_algebra(
    dim: int,
    labels: Sequence[str],
    products: Mapping[tuple[int, int], Mapping[int, "Fraction | int"]],
    unit: VecLike | None = None,
) -> ProductAlgebra:
    """Validated constructor: every associator vanishes, then the unit, if
    given, is a two-sided identity; the first failing triple is named."""
    labels = tuple(labels)
    sc = _clean_table("product", dim, labels, products)
    for i, j, k in product(range(dim), repeat=3):
        if _associator(sc, i, j, k):
            raise ValueError(f"associativity fails on basis triple ({i}, {j}, {k})")
    if unit is None:
        return ProductAlgebra(dim, labels, sc)
    u = _sparse_vector(unit, dim)
    for i in range(dim):
        left: SparseVector = {}
        right: SparseVector = {}
        for a, x in u.items():
            _accumulate(left, sc.get((a, i), {}), x)
            _accumulate(right, sc.get((i, a), {}), x)
        if any({k: c for k, c in side.items() if c} != {i: ONE} for side in (left, right)):
            raise NoUnit("declared unit is not a two-sided identity")
    return ProductAlgebra(dim, labels, sc, _dense(u, dim))


def new_lsa_algebra(
    dim: int,
    labels: Sequence[str],
    products: Mapping[tuple[int, int], Mapping[int, "Fraction | int"]],
) -> ProductAlgebra:
    """Validated constructor: the associator is symmetric in its first two
    arguments, (x_i, x_j, x_k) = (x_j, x_i, x_k); the first failing triple is named."""
    labels = tuple(labels)
    sc = _clean_table("product", dim, labels, products)
    for i, j, k in product(range(dim), repeat=3):
        if _associator(sc, i, j, k) != _associator(sc, j, i, k):
            raise NotLeftSymmetric(f"left-symmetric identity fails on triple ({i}, {j}, {k})")
    return ProductAlgebra(dim, labels, sc)


def lie_of_associative(a: ProductAlgebra) -> LieAlgebra:
    """Commutator Lie algebra [u, v] = uv - vu (associative or left-symmetric a)."""
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i, j in combinations(range(a.dim), 2):
        w = dict(a.sc.get((i, j), {}))
        _accumulate(w, a.sc.get((j, i), {}), -ONE)
        brackets[(i, j)] = w
    return new_lie_algebra(a.dim, a.labels, brackets)


def left_mult_action(a: ProductAlgebra) -> list[SparseMat]:
    """Matrices of u -> (v -> uv), one per basis element: column j of the i-th is x_i x_j."""
    return [{(k, j): c for j in range(a.dim) for k, c in a.sc.get((i, j), {}).items()} for i in range(a.dim)]


def lie_of_lsa(a: ProductAlgebra) -> tuple[LieAlgebra, list[SparseMat]]:
    """Commutator algebra of a left-symmetric product and its left-multiplication module."""
    return lie_of_associative(a), left_mult_action(a)


def tensor_commutative(a: ProductAlgebra, m: LieAlgebra) -> LieAlgebra:
    """Current-algebra bracket [a x, a' y] = (a a') [x, y] for commutative a.

    The basis element a_i * x_j has index i * dim m + j.  Only pairs with a
    nonzero product in a and a nonzero bracket in m give a table."""
    for i, j in combinations(range(a.dim), 2):
        if a.sc.get((i, j), {}) != a.sc.get((j, i), {}):
            raise NotCommutative(f"product is not commutative on ({a.labels[i]}, {a.labels[j]})")
    n = m.dim
    signed = sorted(({(l, j): {q: -c for q, c in t.items()} for (j, l), t in m.sc.items()} | dict(m.sc)).items())
    labels = tuple(f"{a.labels[i]}*{m.labels[j]}" for i in range(a.dim) for j in range(n))
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i, k in combinations_with_replacement(range(a.dim), 2):
        prod = a.sc.get((i, k))
        if not prod:
            continue
        for (j, l), table in signed:
            u, v = i * n + j, k * n + l
            if u < v:
                brackets[(u, v)] = {p * n + q: pc * qc for p, pc in prod.items() for q, qc in table.items()}
    return new_lie_algebra(a.dim * n, labels, brackets)


# ---------------------------------------------------------------------------
# Algebra file format (strict, structured JSON text)
# ---------------------------------------------------------------------------

# ASCII classes, matched with fullmatch: \d takes other scripts' digits and $ a trailing newline
_RAT_RE = re.compile(r"-?[0-9]+(?:/[1-9][0-9]*)?")
_LABEL_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.~'*]*")  # no + or -: they join the terms of a span expression


def _parse_rat(text: str, location: str) -> Fraction:
    if not isinstance(text, str) or not _RAT_RE.fullmatch(text):
        raise ParseError(f"malformed rational {text!r}", location)
    return Fraction(text)


def _json_object(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ParseError("top-level value must be an object")
    return obj


def _parse_header(obj: dict, kind_field: str) -> tuple[str, int, tuple[str, ...]]:
    name = obj.get("name")
    if not isinstance(name, str):
        raise ParseError("field 'name' must be a string", "name")
    dim = obj.get("dim")
    if type(dim) is not int or dim < 0:
        raise ParseError("field 'dim' must be a nonnegative integer", "dim")
    basis = obj.get("basis")
    if not isinstance(basis, list) or len(basis) != dim:
        raise ParseError("field 'basis' must be an array of dim labels", "basis")
    for idx, lb in enumerate(basis):
        if not isinstance(lb, str) or not _LABEL_RE.fullmatch(lb):
            raise ParseError(f"bad basis label {lb!r}", f"basis[{idx}]")
    if len(set(basis)) != dim:
        raise ParseError("basis labels must be distinct", "basis")
    if kind_field not in obj:
        raise ParseError(f"missing field '{kind_field}'", kind_field)
    return name, dim, tuple(basis)


def _parse_terms(terms, idx_of: Mapping[str, int], location: str) -> dict[int, Fraction]:
    if not isinstance(terms, dict):
        raise ParseError("'terms' must be a map label -> rational string", location)
    out = {}
    for lb, val in terms.items():
        if lb not in idx_of:
            raise ParseError(f"unknown label {lb!r}", location)
        out[idx_of[lb]] = _parse_rat(val, f"{location}.{lb}")
    return out


def parse_action(text: str) -> tuple[int, list[list[list[Fraction]]]]:
    """dim_v and the matrices of a module action file: {"dim_v": n, "matrices": [...]},
    one array of rows of rational strings per basis element of the acting algebra."""
    spec = _json_object(text)
    dim_v = spec.get("dim_v")
    if type(dim_v) is not int:
        raise ParseError("field 'dim_v' must be an integer", "dim_v")
    matrices = spec.get("matrices")
    if not isinstance(matrices, list):
        raise ParseError("field 'matrices' must be an array", "matrices")
    for m, mat in enumerate(matrices):
        if not isinstance(mat, list) or not all(isinstance(row, list) for row in mat):
            raise ParseError("a matrix must be an array of rows", f"matrices[{m}]")
    return dim_v, [
        [[_parse_rat(x, f"matrices[{m}][{r}][{c}]") for c, x in enumerate(row)] for r, row in enumerate(mat)]
        for m, mat in enumerate(matrices)
    ]


def _parse_file(text: str, field: str) -> tuple[int, tuple[str, ...], dict, Vector | None]:
    """Header, lhs/rhs/terms entries under `field`, and the optional unit.

    The Lie format ("brackets") stores each pair once, earlier label first;
    the product format ("product") lists ordered pairs and may give a unit.
    """
    obj = _json_object(text)
    _, dim, basis = _parse_header(obj, field)
    lie = field == "brackets"
    idx_of = {lb: i for i, lb in enumerate(basis)}
    entries = obj[field]
    if not isinstance(entries, list):
        raise ParseError(f"field '{field}' must be an array", field)
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for pos, item in enumerate(entries):
        location = f"{field}[{pos}]"
        if not isinstance(item, dict) or set(item) != {"lhs", "rhs", "terms"}:
            raise ParseError(f"{'bracket' if lie else 'product'} entries need exactly lhs/rhs/terms", location)
        lhs, rhs = item["lhs"], item["rhs"]
        for side in (lhs, rhs):
            if not isinstance(side, str) or side not in idx_of:
                raise ParseError(f"unknown label {side!r}", location)
        key = (idx_of[lhs], idx_of[rhs])
        if lie and key[0] >= key[1]:
            raise ParseError(f"pair ({lhs}, {rhs}) must list the earlier basis label first", location)
        if key in table:
            raise ParseError(f"duplicate pair ({lhs}, {rhs})", location)
        table[key] = _parse_terms(item["terms"], idx_of, location)
    unit = None
    if not lie and "unit" in obj:
        terms = _parse_terms(obj["unit"], idx_of, "unit")
        unit = tuple(terms.get(k, ZERO) for k in range(dim))
    return dim, basis, table, unit


def _serialize(
    name: str, labels: tuple[str, ...], field: str, sc: Mapping[tuple[int, int], ScTable], unit: Vector | None = None
) -> str:
    items = []
    for (i, j) in sorted(sc):
        terms = {labels[k]: format_rat(c) for k, c in sorted(sc[(i, j)].items())}
        items.append({"lhs": labels[i], "rhs": labels[j], "terms": terms})
    obj: dict = {"name": name, "dim": len(labels), "basis": list(labels), field: items}
    if unit is not None:
        obj["unit"] = {labels[k]: format_rat(c) for k, c in enumerate(unit) if c}
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"


def parse_algebra(text: str) -> LieAlgebra:
    """Parse the strict Lie-algebra file format; see serialize_algebra."""
    dim, basis, brackets, _ = _parse_file(text, "brackets")
    return new_lie_algebra(dim, basis, brackets)


def serialize_algebra(L: LieAlgebra, name: str = "algebra") -> str:
    """Canonical text form; parse(serialize(L)) == L."""
    return _serialize(name, L.labels, "brackets", L.sc)


def parse_assoc_algebra(text: str) -> ProductAlgebra:
    return new_assoc_algebra(*_parse_file(text, "product"))


def parse_lsa_algebra(text: str) -> ProductAlgebra:
    dim, basis, products, _ = _parse_file(text, "product")
    return new_lsa_algebra(dim, basis, products)


def serialize_product_algebra(a: ProductAlgebra, name: str = "algebra") -> str:
    return _serialize(name, a.labels, "product", a.sc, a.unit)


# ---------------------------------------------------------------------------
# Span expressions ("a", "a-b", "1/2*c", ...)
# ---------------------------------------------------------------------------

_COEFF = r"[0-9]+(?:/[1-9][0-9]*)?"
_NAME = r"[A-Za-z_][A-Za-z0-9_.~']*"  # a word that is no label, read whole so that it is reported


def _term_re(labels: Sequence[str]) -> re.Pattern:
    """One signed term of a span expression over these labels.

    A label is read before a coefficient, so "1*y" is the label 1*y when there
    is one.  Labels are tried longest first, and one counts only where
    whitespace, a sign or the end follows it; otherwise the text is read as
    a coefficient, "*" and a label."""
    known = "|".join(re.escape(lb) for lb in sorted(labels, key=len, reverse=True)) or "(?!)"
    return re.compile(rf"\s*([+-])?\s*(?:({_COEFF})\s*\*\s*)??((?:{known})(?=[\s+-]|\Z)|{_NAME})\s*")


def parse_vector_expr(L: LieAlgebra, expr: str) -> Vector:
    """Rational combination of basis labels, e.g. "a-b" or "x+1/2*y"; see `_term_re`."""
    term = _term_re(L.labels)
    pos = 0
    acc = [ZERO] * L.dim
    seen = False
    while pos < len(expr):
        m = term.match(expr, pos)
        if not m or m.start() != pos:
            raise ParseError(f"cannot parse span expression {expr!r}", f"offset {pos}")
        sign, coeff, label = m.groups()
        if seen and sign is None:
            raise ParseError(f"missing +/- between terms in {expr!r}", f"offset {pos}")
        value = Fraction(coeff) if coeff else ONE
        if sign == "-":
            value = -value
        acc[L.label_index(label)] += value
        pos = m.end()
        seen = True
    if not seen:
        raise ParseError(f"empty span expression {expr!r}")
    return tuple(acc)


def parse_span(L: LieAlgebra, spec: "str | Iterable[str]") -> Subspace:
    """Comma-separated span expressions -> subspace."""
    parts = [p for p in spec.split(",")] if isinstance(spec, str) else list(spec)
    vectors = [parse_vector_expr(L, p) for p in parts if p.strip()]
    return Subspace.span(L.dim, vectors)
