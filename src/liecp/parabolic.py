"""Nilradicals of parabolic subalgebras in matrix form, types A and C.

Conventions.  Type A lives inside sl_n: a composition (p_1, ..., p_m) of n
cuts the coordinates into consecutive blocks, and the nilradical N is the
span of the elementary matrices E_ij whose row block precedes the column
block.  Type C lives inside sp_2r with respect to a Witt basis
e_1, ..., e_r, e_-r, ..., e_-1 pairing e_i with e_-i; block sizes are
palindromic and N is the strictly-block-upper part.  Its basis splits into
  Xm i j  <->  E_ij - E_-j,-i           (i < j <= r)
  Xp i j  <->  E_i,-j + E_j,-i          (i < j <= r)
  Xp i i  <->  E_i,-i
with membership decided by block positions.  Types B and D (odd/even
orthogonal, anti-diagonal symmetric form) are realized only for Borel
data; their nilradicals carry no polarization construction here.

The distinguished abelian ideal in type A is the full off-diagonal block
cut at the prefix sum p closest to n/2; in type C it is the span of all
Xp i j with i <= r - r1.  The distinguished functional is supported on the
anti-diagonal of that block (type A) or on the Xp i i vectors (type C).
When the type-A cut lands above n/2 the same ideal works but the
functional must be supported on the first n - p anti-diagonal positions;
this is the image of the standard construction under the anti-transpose
isomorphism with the reversed composition.

Structure constants.  Every algebra here is the span of a list of sparse
matrices, and `_algebra_from_matrices` reads its structure constants off
the matrix commutators.  A basis matrix is keyed by its first position,
the smallest (row, column) with a nonzero entry.  These are distinct for
every basis built here: E_ij, Xm and Xp, the so_n basis, and both Cartan
forms E_aa - E_{a+1,a+1} and E_aa - E_{n+1-a,n+1-a}.  A commutator is then
expanded by an exact triangular solve over its own nonzero positions: its
first remaining position names the basis matrix to subtract next, and a
first position that names none means the commutator left the span.

Families.  `FAMILIES` maps "A" and "C" to their composition type, basis,
nilradical, index formula, distinguished CP ideal and functional.  The
Theorem 6.2 check, the Table 1 CP check, the type-A and type-C Borels and
the CLI all dispatch through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from .errors import InvalidComposition, UnsupportedType
from .exactla import DEFAULT_POLICY, ONE, ZERO, RankPolicy, kernel
from .cp import CPReport, is_cp, perp_of
from .index import index, stabilizer
from .liealg import (
    Functional,
    LieAlgebra,
    SparseMat,
    Subspace,
    _mat_add,
    _mat_commutator,
    centralizer,
    is_abelian,
    new_lie_algebra,
    restrict,
)


# ---------------------------------------------------------------------------
# Compositions
# ---------------------------------------------------------------------------


class _Blocks:
    """The block of each coordinate, computed once per composition."""

    parts: tuple[int, ...]

    @cached_property
    def blocks(self) -> tuple[int, ...]:
        """1-based block index of each coordinate in order: coordinate pos (1-based) is in blocks[pos - 1]."""
        return tuple([b for b, p in enumerate(self.parts, start=1) for _ in range(p)])


@dataclass(frozen=True)
class CompositionA(_Blocks):
    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts or any(p < 1 for p in self.parts):
            raise InvalidComposition("parts must be positive")
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def prefix_sums(self) -> tuple[int, ...]:
        out = []
        total = 0
        for p in self.parts:
            total += p
            out.append(total)
        return tuple(out)

    def split_point(self) -> int:
        """Prefix sum closest to n/2, ties toward the smaller value."""
        return min(self.prefix_sums, key=lambda s: (abs(2 * s - self.n), s))


@dataclass(frozen=True)
class CompositionC(_Blocks):
    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts or any(p < 1 for p in parts):
            raise InvalidComposition("parts must be positive")
        if parts != tuple(reversed(parts)):
            raise InvalidComposition("parts must be palindromic")
        if sum(parts) % 2:
            raise InvalidComposition("parts must sum to an even number")
        if len(parts) % 2 and parts[len(parts) // 2] % 2:
            raise InvalidComposition("an odd number of parts needs an even middle part")

    @staticmethod
    def from_half(half: Sequence[int], r1: int = 0) -> CompositionC:
        half = tuple(int(p) for p in half)
        middle = (2 * r1,) if r1 else ()
        return CompositionC(half + middle + tuple(reversed(half)))

    @property
    def r(self) -> int:
        return sum(self.parts) // 2

    @property
    def ell(self) -> int:
        return len(self.parts) // 2

    @property
    def r1(self) -> int:
        return self.parts[self.ell] // 2 if len(self.parts) % 2 else 0


# ---------------------------------------------------------------------------
# Sparse matrices
# ---------------------------------------------------------------------------


def _e(a: int, b: int) -> SparseMat:
    return {(a, b): ONE}


def _algebra_from_matrices(labels: Sequence[str], mats: Sequence[SparseMat]) -> LieAlgebra:
    """Structure constants of the span of matrices with distinct first positions.

    Each commutator is expanded exactly: the basis matrix keyed by its first
    remaining position is subtracted until nothing remains."""
    basis_at: dict[tuple[int, int], int] = {}
    for k, m in enumerate(mats):
        pos = min(m)
        if pos in basis_at:
            raise ArithmeticError(f"{labels[basis_at[pos]]} and {labels[k]} share their first position {pos}")
        basis_at[pos] = k
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            rest = _mat_commutator(mats[i], mats[j])
            table = brackets[(i, j)] = {}
            while rest:
                pos = min(rest)
                if pos not in basis_at:
                    raise ArithmeticError("commutator escapes the span of the basis matrices")
                k = basis_at[pos]
                table[k] = rest[pos] / mats[k][pos]
                rest = _mat_add(rest, mats[k], -table[k])
    return new_lie_algebra(len(mats), tuple(labels), brackets)


def _pos_label(prefix: str, i: int, j: int, wide: bool) -> str:
    return f"{prefix}{i}_{j}" if wide else f"{prefix}{i}{j}"


# ---------------------------------------------------------------------------
# Type A
# ---------------------------------------------------------------------------


def _positions_A(comp: CompositionA) -> list[tuple[int, int]]:
    coords = list(enumerate(comp.blocks, start=1))
    return [(i, j) for i, bi in coords for j, bj in coords if bi < bj]


def _basis_A(comp: CompositionA) -> tuple[list[str], list[SparseMat]]:
    positions = _positions_A(comp)
    return [_pos_label("E", i, j, comp.n > 9) for i, j in positions], [_e(i, j) for i, j in positions]


def nilradical_A(comp: CompositionA) -> tuple[LieAlgebra, tuple[tuple[int, int], ...]]:
    """Strictly block-upper matrices; returns the algebra and its (i, j) basis order."""
    n = comp.n
    positions = _positions_A(comp)
    assert len(positions) == (n * n - sum(p * p for p in comp.parts)) // 2
    return _algebra_from_matrices(*_basis_A(comp)), tuple(positions)


def index_formula_A(comp: CompositionA) -> int:
    n = comp.n
    p = comp.split_point()
    value = 2 * p * (n - p) - (n * n - sum(q * q for q in comp.parts)) // 2
    assert value >= 0
    return value


def cp_ideal_A(comp: CompositionA) -> Subspace:
    """Full off-diagonal block cut at the split point, as a coordinate span."""
    positions = _positions_A(comp)
    p = comp.split_point()
    dim = len(positions)
    vectors = []
    for k, (i, j) in enumerate(positions):
        if i <= p < j:
            v = [ZERO] * dim
            v[k] = ONE
            vectors.append(v)
    return Subspace.span(dim, vectors)


def regular_f_A(comp: CompositionA) -> Functional:
    """Indicator of the anti-diagonal positions (i, n+1-i), ile min(p, n-p)."""
    positions = _positions_A(comp)
    n = comp.n
    p = comp.split_point()
    cut = min(p, n - p)
    coords = [ZERO] * len(positions)
    for k, (i, j) in enumerate(positions):
        if i <= cut and j == n + 1 - i:
            coords[k] = ONE
    return Functional(len(positions), tuple(coords))


# ---------------------------------------------------------------------------
# Type C
# ---------------------------------------------------------------------------

RootC = tuple[str, int, int]  # ("m", i, j) or ("p", i, j) with i <= j


def _roots_C(comp: CompositionC) -> list[RootC]:
    m = len(comp.parts)
    coords = list(enumerate(comp.blocks[: comp.r], start=1))
    out: list[RootC] = [("m", i, j) for i, bi in coords for j, bj in coords if bi < bj]
    return out + [("p", i, j) for i, bi in coords for j, bj in coords if i <= j and bi + bj <= m]


def _root_matrix_C(root: RootC, r: int) -> SparseMat:
    """Coordinates p_1..p_r, p_-r..p_-1 are 1..2r."""
    n = 2 * r
    kind, i, j = root
    if kind == "m":
        return _mat_add(_e(i, j), _e(n + 1 - j, n + 1 - i), -ONE)
    if i == j:
        return _e(i, n + 1 - i)
    return _mat_add(_e(i, n + 1 - j), _e(j, n + 1 - i))


def _basis_C(comp: CompositionC) -> tuple[list[str], list[SparseMat]]:
    roots = _roots_C(comp)
    labels = [_pos_label("Xm" if kind == "m" else "Xp", i, j, comp.r > 9) for kind, i, j in roots]
    return labels, [_root_matrix_C(root, comp.r) for root in roots]


def nilradical_C(comp: CompositionC) -> tuple[LieAlgebra, tuple[RootC, ...]]:
    roots = _roots_C(comp)
    r, r1, ell = comp.r, comp.r1, comp.ell
    numerator = 2 * (r * r - r1 * r1) - sum(p * p for p in comp.parts[:ell]) + (r - r1)
    assert numerator % 2 == 0
    assert len(roots) == numerator // 2, (len(roots), numerator // 2)
    return _algebra_from_matrices(*_basis_C(comp)), tuple(roots)


def index_formula_C(comp: CompositionC) -> int:
    return sum(p * (p + 1) for p in comp.parts[: comp.ell]) // 2


def cp_ideal_C(comp: CompositionC) -> Subspace:
    roots = _roots_C(comp)
    r, r1 = comp.r, comp.r1
    dim = len(roots)
    vectors = []
    for k, (kind, i, j) in enumerate(roots):
        if kind == "p" and i <= r - r1:
            v = [ZERO] * dim
            v[k] = ONE
            vectors.append(v)
    return Subspace.span(dim, vectors)


def regular_f_C(comp: CompositionC) -> Functional:
    roots = _roots_C(comp)
    r, r1 = comp.r, comp.r1
    coords = [ZERO] * len(roots)
    for k, (kind, i, j) in enumerate(roots):
        if kind == "p" and i == j and i <= r - r1:
            coords[k] = ONE
    return Functional(len(roots), tuple(coords))


@dataclass(frozen=True)
class Family:
    """The Theorem 6.2 data of one type, each a function of a composition."""

    composition: Callable
    basis: Callable
    nilradical: Callable
    index_formula: Callable
    cp_ideal: Callable
    regular_f: Callable


# the nilradicals are looked up when called, so that a wrapper bound to the
# module attribute (as the perfbench tracer does) sees every construction
FAMILIES = {
    "A": Family(CompositionA, _basis_A, lambda c: nilradical_A(c), index_formula_A, cp_ideal_A, regular_f_A),
    "C": Family(CompositionC, _basis_C, lambda c: nilradical_C(c), index_formula_C, cp_ideal_C, regular_f_C),
}


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Theorem62Report:
    family: str
    parts: tuple[int, ...]
    dim_n: int
    formula_index: int
    computed_index: int
    certified: bool
    cp: CPReport
    perp_equal: bool
    f_regular: bool
    ok: bool


def verify_theorem62(
    parts: Sequence[int], family: str, policy: RankPolicy = DEFAULT_POLICY
) -> Theorem62Report:
    """Build N, P, f for a composition and check every claimed property."""
    family = family.upper()
    if family not in FAMILIES:
        raise UnsupportedType("only types A and C carry the construction")
    fam = FAMILIES[family]
    comp = fam.composition(tuple(parts))
    algebra, _ = fam.nilradical(comp)
    p, f, formula = fam.cp_ideal(comp), fam.regular_f(comp), fam.index_formula(comp)
    rep = index(algebra, policy)
    cp_rep = is_cp(algebra, p, policy)
    perp_equal = perp_of(algebra, p, f) == p
    f_regular = stabilizer(algebra, f).dim == formula
    ok = (
        rep.index == formula
        and cp_rep.is_cp
        and cp_rep.is_ideal
        and perp_equal
        and f_regular
    )
    return Theorem62Report(
        family=family,
        parts=tuple(parts),
        dim_n=algebra.dim,
        formula_index=formula,
        computed_index=rep.index,
        certified=rep.certified,
        cp=cp_rep,
        perp_equal=perp_equal,
        f_regular=f_regular,
        ok=ok,
    )


# ---------------------------------------------------------------------------
# Borel subalgebras of the classical types
# ---------------------------------------------------------------------------

_RANK_CAPS = {"A": 7, "B": 5, "C": 5, "D": 5}
_RANK_MINS = {"A": 1, "B": 2, "C": 2, "D": 4}


def _matrix_size(family: str, rank: int) -> int:
    return {"A": rank + 1, "B": 2 * rank + 1}.get(family, 2 * rank)


def _so_basis(n: int) -> tuple[list[str], list[SparseMat]]:
    """Strictly upper part of so_n with the anti-diagonal symmetric form."""
    r = n // 2
    labels, mats = [], []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1 - a):
            if b <= r:
                labels.append(_pos_label("Xm", a, b, r > 9))
            elif n % 2 and b == r + 1:
                labels.append(f"Xe{a}")
            else:
                labels.append(_pos_label("Xp", a, n + 1 - b, r > 9))
            mats.append(_mat_add(_e(a, b), _e(n + 1 - b, n + 1 - a), -ONE))
    return labels, mats


def _cartan(pairs: Sequence[tuple[int, int]]) -> tuple[list[str], list[SparseMat]]:
    """H_1, H_2, ... = E_aa - E_bb over the given (a, b)."""
    return [f"H{h}" for h in range(1, len(pairs) + 1)], [_mat_add(_e(a, a), _e(b, b), -ONE) for a, b in pairs]


def borel_data_classical(family: str, rank: int) -> tuple[LieAlgebra, LieAlgebra]:
    """Nilradical N and Borel B = N + Cartan for the classical families.

    Realizations use anti-diagonal bilinear/symplectic forms so that N is
    literally strictly upper triangular; types A and C use the nilradical
    bases of the all-ones composition, label for label.
    """
    family = family.upper()
    if family not in _RANK_CAPS:
        raise UnsupportedType(f"unknown family {family!r}")
    if rank < 1 or rank > _RANK_CAPS[family]:
        raise UnsupportedType(f"family {family} supported for rank 1..{_RANK_CAPS[family]}")
    if rank < _RANK_MINS[family]:
        raise UnsupportedType(f"type {family} needs rank >= {_RANK_MINS[family]}")
    n = _matrix_size(family, rank)
    if family in FAMILIES:
        labels, mats = FAMILIES[family].basis(FAMILIES[family].composition((1,) * n))
    else:
        labels, mats = _so_basis(n)
    h_labels, h_mats = _cartan([(a, a + 1 if family == "A" else n + 1 - a) for a in range(1, rank + 1)])
    B = _algebra_from_matrices(labels + h_labels, mats + h_mats)
    # N is the ideal spanned by B's first len(labels) basis vectors
    m = len(labels)
    return new_lie_algebra(m, B.labels[:m], {k: v for k, v in B.sc.items() if k[1] < m}), B


@dataclass(frozen=True)
class Table1Row:
    dim_n: int
    index_n: int
    index_b: int
    half: int
    max_abelian: int


#: Exceptional rows are shipped as documentation constants; no computation path.
EXCEPTIONAL_TABLE1 = {
    "E6": Table1Row(36, 4, 2, 20, 16),
    "E7": Table1Row(63, 7, 0, 35, 27),
    "E8": Table1Row(120, 8, 0, 64, 36),
    "F4": Table1Row(24, 4, 0, 14, 9),
    "G2": Table1Row(6, 2, 0, 4, 3),
}


def table1_row(family: str, rank: int) -> Table1Row:
    family = family.upper()
    if family == "A":
        if rank % 2 == 0:
            t = rank // 2
            return Table1Row(t * (2 * t + 1), t, t, t * (t + 1), t * (t + 1))
        t = (rank - 1) // 2
        return Table1Row((t + 1) * (2 * t + 1), t + 1, t, (t + 1) ** 2, (t + 1) ** 2)
    if family == "B":
        if rank == 3:
            return Table1Row(9, 3, 0, 6, 5)
        if rank >= 4:
            return Table1Row(rank * rank, rank, 0, rank * (rank + 1) // 2, rank * (rank - 1) // 2 + 1)
        raise UnsupportedType("type B rows start at rank 3")
    if family == "C":
        if rank >= 2:
            return Table1Row(rank * rank, rank, 0, rank * (rank + 1) // 2, rank * (rank + 1) // 2)
        raise UnsupportedType("type C rows start at rank 2")
    if family == "D":
        if rank >= 4:
            t = rank // 2
            if rank % 2 == 0:
                return Table1Row(2 * t * (2 * t - 1), 2 * t, 0, 2 * t * t, t * (2 * t - 1))
            return Table1Row(2 * t * (2 * t + 1), 2 * t, 1, 2 * t * (t + 1), t * (2 * t + 1))
        raise UnsupportedType("type D rows start at rank 4")
    raise UnsupportedType(f"unknown family {family!r}")


@dataclass(frozen=True)
class Table1Report:
    family: str
    rank: int
    row: Table1Row
    dim_n: int
    index_n: int
    index_b: int
    sum_rule: bool
    cp: CPReport | None
    cp_expected: bool
    half_exceeds_m: bool | None
    certified: bool
    ok: bool


def table1_check(family: str, rank: int, policy: RankPolicy = DEFAULT_POLICY) -> Table1Report:
    """Compare computed Borel data against the closed-form row.

    For types A and C the distinguished abelian ideal is verified as a CP
    of dimension (dim N + i(N))/2 = m.  For B and D the bound exceeds the
    recorded maximal abelian dimension, so no CP is expected; the m value
    is a recorded constant, never recomputed.  `certified` holds when both
    indices are certified.
    """
    family = family.upper()
    row = table1_row(family, rank)
    nilradical, borel = borel_data_classical(family, rank)
    i_n = index(nilradical, policy)
    i_b = index(borel, policy)
    ok = (
        nilradical.dim == row.dim_n
        and i_n.index == row.index_n
        and i_b.index == row.index_b
        and i_n.index + i_b.index == rank
    )
    cp_rep = half_exceeds = None
    cp_expected = family in FAMILIES
    if cp_expected:
        fam = FAMILIES[family]
        cp_rep = is_cp(nilradical, fam.cp_ideal(fam.composition((1,) * _matrix_size(family, rank))), policy)
        ok = ok and cp_rep.is_cp and cp_rep.is_ideal and cp_rep.dim_p == row.half == row.max_abelian
    else:
        half_exceeds = row.half > row.max_abelian
        ok = ok and half_exceeds
    return Table1Report(
        family=family,
        rank=rank,
        row=row,
        dim_n=nilradical.dim,
        index_n=i_n.index,
        index_b=i_b.index,
        sum_rule=i_n.index + i_b.index == rank,
        cp=cp_rep,
        cp_expected=cp_expected,
        half_exceeds_m=half_exceeds,
        certified=i_n.certified and i_b.certified,
        ok=ok,
    )


# ---------------------------------------------------------------------------
# Normalizer of a principal nilpotent centralizer in sl_n
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalizerReport:
    n: int
    dim_centralizer: int
    centralizer_abelian: bool
    dim_normalizer: int
    index_normalizer: int
    cp: CPReport
    ok: bool


def principal_nilpotent_normalizer(
    n: int, policy: RankPolicy = DEFAULT_POLICY
) -> NormalizerReport:
    """In sl_n: the centralizer of the regular nilpotent sum of simple root
    vectors, and its normalizer, which is index zero with the centralizer
    as a commutative polarization ideal."""
    if not 2 <= n <= 6:
        raise UnsupportedType("supported for 2 <= n <= 6")
    off = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    h_labels, h_mats = _cartan([(a, a + 1) for a in range(1, n)])
    sl = _algebra_from_matrices(
        [_pos_label("E", i, j, n > 9) for i, j in off] + h_labels, [_e(i, j) for i, j in off] + h_mats
    )
    x = [ONE if j == i + 1 else ZERO for i, j in off] + [ZERO] * (n - 1)
    cx = centralizer(sl, x)
    rows = []
    for c in cx.rows:
        # y normalizes cx iff [y, c] = -[c, y] has no component off cx for every c
        off_cx = [cx._reduce(col) for col in sl.ad_columns(c)]
        rows += [{a: col[k] for a, col in enumerate(off_cx) if k in col} for k in range(sl.dim)]
    normalizer = Subspace(sl.dim, tuple(kernel(rows, sl.dim, sparse=True)))
    f_alg = restrict(sl, normalizer, labels=[f"y{k + 1}" for k in range(normalizer.dim)])

    cx_coords = [normalizer.coordinates_of(row) for row in cx.rows]
    assert all(c is not None for c in cx_coords), "centralizer must sit inside its normalizer"
    cx_in_f = Subspace.span(f_alg.dim, cx_coords)
    abelian = is_abelian(f_alg, cx_in_f)
    idx = index(f_alg, policy)
    cp_rep = is_cp(f_alg, cx_in_f, policy)
    ok = (
        cx.dim == n - 1
        and normalizer.dim == 2 * (n - 1)
        and abelian
        and idx.index == 0
        and cp_rep.is_cp
        and cp_rep.is_ideal
    )
    return NormalizerReport(
        n=n,
        dim_centralizer=cx.dim,
        centralizer_abelian=abelian,
        dim_normalizer=normalizer.dim,
        index_normalizer=idx.index,
        cp=cp_rep,
        ok=ok,
    )
