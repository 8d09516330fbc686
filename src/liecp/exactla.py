"""Exact rational linear algebra and generic rank.

All arithmetic is exact.  Every elimination over Q runs through one
fraction-free integer echelon routine on sparse rows, `_echelon`.  Each
row, a dense sequence or a {col: value} mapping, is cleared of
denominators by their lcm into a primitive {col: int} and reduced at its
lowest column against the pivot row there.  Pivot columns, and so the
reduced echelon form, depend only on the row space, not on row order.
`rank_exact` counts the pivots; `rref` back-substitutes on the sparse
rows and returns them sparse or dense; `kernel` and the subspace calculus
in `liealg`, which keeps them sparse, use `rref`.  There is no dense
matrix type: a matrix of linear forms keeps one {col: form} mapping per
row.  Its rows are scaled once, on first use, by the lcm of their
coefficient denominators (`LinFormMatrix.scaled`), which keeps the rank at
every point; `_scaled_rows` evaluates them at an integer point, the one
evaluation loop, and `evaluate` divides its {col: int} rows back into
{col: Fraction} values.

Rank over the field of rational functions in several variables
(`generic_rank`) takes the first of these routes that settles it.

* A sample meeting the term rank.  The matrix of linear forms is evaluated
  on integers at integer points drawn uniformly from [-B, B]^nvars.  Any
  specialization rank is a lower bound for the generic rank; by the
  Schwartz-Zippel lemma a single sample misses with probability at most
  min(rows, cols) / (2B + 1).  The term rank (`rank_bound`, rounded down
  to even for an alternating matrix) is an upper bound, so a sample that
  meets it certifies the rank with no elimination.
* The slice's term rank, for bracket matrices: `index` hands
  `generic_rank` a coadjoint slice (`index.slice_rank`), a matrix in far
  fewer variables with the same generic rank.  Its term rank is again an
  upper bound, so a sample that meets it certifies the rank.
* Slice elimination: otherwise the slice is eliminated symbolically.
* Full elimination for every other matrix: fraction-free (Bareiss)
  elimination carried out symbolically over Z[x] on the scaled rows.  Each
  entry is a sparse polynomial with integer coefficients and monomials
  packed into one int each.  All divisions are exact by Sylvester's
  identity.

The slice and both eliminations run unless `RankPolicy.certify` is off;
then the highest sampled rank is returned uncertified.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import ExactDivisionError

ZERO = Fraction(0)
ONE = Fraction(1)

VecLike = Sequence["Fraction | int"]
RowLike = VecLike | Mapping[int, "Fraction | int"]  # a dense row, or its entries by column
Row = dict[int, int]  # a sparse integer row: nonzero entries by column


def as_vector(values: VecLike) -> tuple[Fraction, ...]:
    """values as a tuple of Fractions; entries that already are pass through."""
    # Hot tuples here are built from lists: tuple() of a generator allocates a guessed size and
    # resizes it, so the tuple is freed onto another size's free list than it was taken from;
    # CPython empties those lists only in full collections, and between them they hold megabytes.
    return tuple([v if type(v) is Fraction else Fraction(v) for v in values])


def random_point(rng: random.Random, n: int, bound: int) -> tuple[Fraction, ...]:
    """n integer coordinates drawn uniformly from [-bound, bound], in order."""
    return tuple([Fraction(rng.randint(-bound, bound)) for _ in range(n)])


def format_rat(x: Fraction) -> str:
    """Canonical string form: "p" for integers, "p/q" with q > 0 otherwise."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _primitive(row: Row) -> Row | None:
    """row divided by the gcd of its entries, or None for a zero row."""
    g = gcd(*row.values())
    if g == 0:
        return None
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _int_row(r: RowLike, cols: int) -> Row | None:
    """r cleared of denominators by their lcm into a primitive {col: int}; columns must lie in range(cols).

    Rows of ints, as `_scaled_rows` gives them, have lcm 1 and are only made primitive."""
    if isinstance(r, Mapping):
        nonzero = {j: x for j, x in r.items() if x}
        outside = r and (min(r) < 0 or max(r) >= cols)
    else:
        nonzero = {j: x for j, x in enumerate(r) if x}
        outside = nonzero and max(nonzero) >= cols
    if outside:
        raise ValueError(f"row has a column outside range({cols})")
    den = lcm(*[x.denominator for x in nonzero.values()])
    return _primitive({j: x.numerator * (den // x.denominator) for j, x in nonzero.items()})


def _eliminate(row: Row, piv: Row, c: int) -> Row | None:
    """A multiple of row minus a multiple of piv made primitive: zero in column c.  May reuse row's dict."""
    g = gcd(piv[c], row[c])
    a, b = piv[c] // g, row[c] // g
    out = row if a == 1 else {j: a * x for j, x in row.items()}
    for j, y in piv.items():
        v = out.get(j, 0) - b * y
        if v:
            out[j] = v
        else:
            del out[j]
    return _primitive(out)


def _echelon(rows: Iterable[RowLike], cols: int) -> dict[int, Row]:
    """Fraction-free forward elimination over the integers: {pivot column: pivot row}.

    Each row becomes a primitive {col: int} (`_int_row`) and is reduced at
    its lowest column against the pivot row there until it vanishes or
    opens a new pivot; no row is read once every column has a pivot.
    """
    pivots: dict[int, Row] = {}
    for r in rows:
        row = _int_row(r, cols)
        while row is not None:
            c = min(row)
            if c not in pivots:
                pivots[c] = row
                break
            row = _eliminate(row, pivots[c], c)
        if len(pivots) == cols:
            break
    return pivots


def rref(rows: Iterable[RowLike], cols: int, sparse: bool = False) -> tuple[list, list[int]]:
    """Reduced row echelon form of rows, dense or {col: value}: (nonzero rows, pivot columns).

    `_echelon`, then integer back-substitution on its sparse rows, from the last pivot up;
    each row is divided by its pivot, and is a {col: Fraction} mapping when `sparse`."""
    ech = _echelon(rows, cols)
    pivots = sorted(ech)
    red = [ech[c] for c in pivots]
    for k in range(len(red) - 1, 0, -1):
        for i in range(k):
            if pivots[k] in red[i]:
                red[i] = _eliminate(red[i], red[k], pivots[k])
    out = [{j: Fraction(x, row[c]) for j, x in row.items()} for row, c in zip(red, pivots)]
    return (out if sparse else [[row.get(j, ZERO) for j in range(cols)] for row in out]), pivots


def rank_exact(rows: Iterable[RowLike], cols: int) -> int:
    """Rank over the rationals of rows, dense or {col: value}: the pivot count of `_echelon`."""
    return len(_echelon(rows, cols))


def kernel(rows: Iterable[RowLike], cols: int, sparse: bool = False) -> list:
    """Reduced-echelon basis of {v : r . v = 0 for every row r}, rows dense or {col: value}.

    Each free column c gives a null vector, as a mapping: 1 at c, -red[i][c] at red[i]'s pivot.
    The basis vectors come as {col: Fraction} mappings when `sparse`, dense tuples otherwise."""
    red, pivots = rref(rows, cols, sparse=True)
    free = sorted(set(range(cols)).difference(pivots))
    null = [{c: ONE} | {p: -row[c] for row, p in zip(red, pivots) if c in row} for c in free]
    basis, _ = rref(null, cols, sparse)
    return basis if sparse else [tuple(r) for r in basis]


# ---------------------------------------------------------------------------
# Integer polynomials with packed monomials
# ---------------------------------------------------------------------------
#
# A polynomial maps monomials to nonzero integer coefficients.  A monomial
# is one int holding one field per variable, variable 0 in the most
# significant field, so int order is lex order and the product of two
# monomials is their sum.  The top bit of each field is a guard bit: it is
# clear in every monomial whose exponents fit below it, and a subtraction
# that borrows across a field boundary clears it.


def _mul_sub(p: dict[int, int], q: dict[int, int], r: dict[int, int], s: dict[int, int]) -> dict[int, int]:
    """p*q - r*s."""
    acc: dict[int, int] = {}
    get = acc.get
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = m1 + m2
            acc[m] = get(m, 0) + c1 * c2
    for m1, c1 in r.items():
        for m2, c2 in s.items():
            m = m1 + m2
            acc[m] = get(m, 0) - c1 * c2
    return {m: c for m, c in acc.items() if c}


def _exact_div(num: dict[int, int], den: dict[int, int], guard: int) -> dict[int, int]:
    """Exact quotient num / den over Z; guard has the guard bit of every field set.

    Repeatedly cancels the leading term.  Raises ExactDivisionError when a
    leading monomial is not divisible by den's (a field borrows its guard
    bit) or a leading coefficient leaves a remainder.
    """
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    lead_d = max(den)
    coeff_d = den[lead_d]
    tail = [(m, c) for m, c in den.items() if m != lead_d]
    num = dict(num)
    out: dict[int, int] = {}
    while num:
        lead = max(num)
        mono = (lead | guard) - lead_d
        if mono & guard != guard:
            raise ExactDivisionError("division is not exact")
        mono ^= guard
        c, rem = divmod(num.pop(lead), coeff_d)
        if rem:
            raise ExactDivisionError("division is not exact")
        out[mono] = c
        for m2, c2 in tail:
            m3 = mono + m2
            v = num.get(m3, 0) - c * c2
            if v:
                num[m3] = v
            else:
                del num[m3]
    return out


# ---------------------------------------------------------------------------
# Matrices of linear forms and generic rank
# ---------------------------------------------------------------------------

LinForm = Mapping[int, Fraction]


@dataclass(frozen=True)
class LinFormMatrix:
    """Matrix whose entries are linear forms (no constant term) in nvars symbols.

    `entries` holds one {col: form} mapping per row; a form maps a variable
    index to its nonzero coefficient, and zero entries are left out."""

    rows: int
    cols: int
    nvars: int
    entries: tuple[Mapping[int, LinForm], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows or any(not 0 <= j < self.cols for r in self.entries for j in r):
            raise ValueError("entries must be one {col: form} row per row, with columns in range(cols)")

    @staticmethod
    def build(rows: int, cols: int, nvars: int, entry) -> LinFormMatrix:
        """entry(i, j) returns a mapping var-index -> coefficient."""
        data = []
        for i in range(rows):
            forms = ((j, {k: Fraction(c) for k, c in entry(i, j).items() if c}) for j in range(cols))
            data.append({j: form for j, form in forms if form})
        return LinFormMatrix(rows, cols, nvars, tuple(data))

    @cached_property
    def scaled(self) -> tuple[tuple[int, tuple[tuple[int, tuple[tuple[int, int], ...]], ...]], ...]:
        """Per row, (s, forms): s is the lcm of the row's coefficient denominators, and forms holds
        (col, ((var, s * coefficient), ...)) for each entry, with integer coefficients.

        Scaling a row by s keeps the rank, and keeps rows independent, at every point.
        Computed on first use and kept on this matrix only."""
        out = []
        for row in self.entries:
            s = lcm(*[c.denominator for form in row.values() for c in form.values()])
            forms = tuple(
                (j, tuple([(k, c.numerator * (s // c.denominator)) for k, c in form.items()]))
                for j, form in row.items()
            )
            out.append((s, forms))
        return tuple(out)


def _int_point(point: VecLike) -> tuple[list[int], int]:
    """point times d, the lcm of its denominators, as ints; and d."""
    d = lcm(*[x.denominator for x in point])
    return [x.numerator * (d // x.denominator) for x in point], d


def _scaled_rows(m: LinFormMatrix, point: Sequence[int], rows: Iterable[int]) -> list[Row]:
    """For each i in rows, row i of m at the integer point times the row's scale: {col: int} without zeros.

    The one evaluation loop: it reads `m.scaled`, so every value is an integer.
    """
    if len(point) != m.nvars:
        raise ValueError("point length must equal nvars")
    scaled = m.scaled
    out = []
    for i in rows:
        values = {}
        for j, form in scaled[i][1]:
            v = 0
            for k, c in form:
                v += c * point[k]
            if v:
                values[j] = v
        out.append(values)
    return out


def evaluate(m: LinFormMatrix, point: VecLike) -> list[dict[int, Fraction]]:
    """Every linear form specialized at the given point: one {col: value} row per row, without zeros.

    `_scaled_rows` at the point cleared of denominators, each row divided back by its scale."""
    pt, d = _int_point(point)
    rows = _scaled_rows(m, pt, range(m.rows))
    return [{j: Fraction(v, s * d) for j, v in row.items()} for (s, _), row in zip(m.scaled, rows)]


@dataclass(frozen=True)
class RankPolicy:
    """Controls randomized rank evaluation and symbolic certification.

    certify=True (the default) proves every generic rank: a sample that
    meets the term rank, or else an exact elimination.  certify=False
    samples only and may return an uncertified lower bound.  All
    randomness flows from `seed`; identical seeds reproduce identical
    results.
    """

    samples: int = 5
    coeff_bound: int = 10**6
    certify: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.coeff_bound < 2:
            raise ValueError("coeff_bound must be >= 2")

    def with_options(self, **kwargs) -> RankPolicy:
        return replace(self, **kwargs)


DEFAULT_POLICY = RankPolicy()


class RankResult(NamedTuple):
    rank: int
    certified: bool


def _symbolic_rank(m: LinFormMatrix) -> int:
    """Fraction-free (Bareiss) elimination over Z[x], on a dense working array built from `m.scaled`.

    Scaling each row by the lcm of its coefficient denominators keeps the
    rank and every entry's term count.  Pivot selection:
    fewest-terms nonzero entry first, ties by lowest (row, col), which limits
    term growth and is deterministic.  Row and column swaps both preserve
    rank.  Every division is exact by Sylvester's identity.
    """
    nr, nc = m.rows, m.cols
    # Entries are homogeneous; a numerator piv*a_ij - rik*a_rj before its
    # division has degree up to 2 * min(nr, nc), so every field holds that.
    width = (2 * min(nr, nc)).bit_length() + 1
    var = [1 << ((m.nvars - 1 - k) * width) for k in range(m.nvars)]
    guard = sum(var) << (width - 1)
    a = []
    for _, forms in m.scaled:
        dense: list[dict[int, int]] = [{}] * nc  # entries are replaced below, never changed in place
        for j, form in forms:
            dense[j] = {var[k]: c for k, c in form}
        a.append(dense)
    rank = 0
    prev: dict[int, int] | None = None
    while rank < min(nr, nc):
        best: tuple[int, int, int] | None = None
        for i in range(rank, nr):
            row = a[i]
            for j in range(rank, nc):
                if row[j]:
                    key = (len(row[j]), i, j)
                    if best is None or key < best:
                        best = key
        if best is None:
            break
        _, pi, pj = best
        if pi != rank:
            a[rank], a[pi] = a[pi], a[rank]
        if pj != rank:
            for row in a:
                row[rank], row[pj] = row[pj], row[rank]
        prow = a[rank]
        piv = prow[rank]
        for i in range(rank + 1, nr):
            row = a[i]
            rik = row[rank]
            for j in range(rank + 1, nc):
                num = _mul_sub(piv, row[j], rik, prow[j])
                row[j] = _exact_div(num, prev, guard) if prev is not None and num else num
            row[rank] = {}
        prev = piv
        rank += 1
    return rank


def term_rank(m: LinFormMatrix) -> int:
    """Size of a maximum matching of rows to columns through nonzero entries.

    Every nonzero minor of m has a nonzero term in its permutation expansion,
    which picks one nonzero entry per row and per column, so the rank of m
    over any field never exceeds its term rank.  Each row in turn searches
    breadth-first for an augmenting path.
    """
    support = [sorted(row) for row in m.entries]
    row_of = [-1] * m.cols
    col_of = [-1] * m.rows
    size = 0
    for root in range(m.rows):
        via: dict[int, int] = {}  # column -> the row it was reached from
        frontier, free = [root], -1
        while frontier and free < 0:
            reached = []
            for i in frontier:
                for j in support[i]:
                    if j not in via:
                        via[j] = i
                        if row_of[j] < 0:
                            free = j
                            break
                        reached.append(row_of[j])
                if free >= 0:
                    break
            frontier = reached
        j = free
        while j >= 0:
            i = via[j]
            row_of[j], col_of[i], j = i, j, col_of[i]
        size += free >= 0
    return size


def is_alternating(m: LinFormMatrix) -> bool:
    """m is square with zero diagonal and m[j][i] = -m[i][j] for every entry.

    Each pair i < j is compared once, on the coefficients' numerators and
    denominators (both are in lowest terms); every entry (i, j) above the
    diagonal then has its negative at (j, i), and the entries below the
    diagonal are exactly those when there are as many of them."""
    e = m.entries
    if m.rows != m.cols:
        return False
    upper = 0
    for i, row in enumerate(e):
        if i in row:
            return False
        for j, form in row.items():
            if j > i:
                upper += 1
                other = e[j].get(i)
                if other is None or len(other) != len(form):
                    return False
                for k, c in form.items():
                    d = other.get(k)
                    if d is None or d.numerator != -c.numerator or d.denominator != c.denominator:
                        return False
    return 2 * upper == sum(map(len, e))


def rank_bound(m: LinFormMatrix) -> int:
    """Term rank of m, rounded down to even when m is alternating.

    An alternating matrix over a field has even rank, so its rank is at
    most the largest even number not above its term rank.
    """
    bound = term_rank(m)
    return bound - bound % 2 if is_alternating(m) else bound


def generic_rank(
    m: LinFormMatrix,
    policy: RankPolicy = DEFAULT_POLICY,
    eliminate: Callable[[LinFormMatrix, tuple[Fraction, ...]], int] | None = None,
) -> RankResult:
    """Rank of m over the field of rational functions in nvars variables.

    Returns (rank, certified).  The routes, in order:

    1. Sampling.  Seeded samples, one under `policy.certify` and up to
       `policy.samples` otherwise, are drawn until one reaches `rank_bound(m)`
       (the term rank, rounded down to even for an alternating m).  A sampled
       rank is a lower bound and the term rank an upper bound, so a sample
       that meets it certifies the rank with no elimination.  Full rank is
       the special case where the term rank is min(rows, cols).
    2. Under `policy.certify`, right after the first sample that misses the
       bound (further samples cannot change an exact result):
       `eliminate(m, point)` with `point` that sample, or else the symbolic
       Bareiss elimination of the whole of m.  `index` passes
       `index.slice_rank` for bracket matrices here; it certifies the rank
       by the term rank of a coadjoint slice when the sample meets it, and
       eliminates on the slice only otherwise.
    3. Otherwise, with certification off, the highest sampled rank,
       uncertified.
    """
    bound = rank_bound(m)
    if bound == 0:
        return RankResult(0, True)
    rng = random.Random(policy.seed)
    best, best_point = -1, ()
    for _ in range(1 if policy.certify else policy.samples):
        point = random_point(rng, m.nvars, policy.coeff_bound)
        r = rank_exact(_scaled_rows(m, _int_point(point)[0], range(m.rows)), m.cols)
        if r == bound:
            return RankResult(r, True)
        if r > best:
            best, best_point = r, point
    if not policy.certify:
        return RankResult(best, False)
    sym = _symbolic_rank(m) if eliminate is None else eliminate(m, best_point)
    if sym < best:
        raise ArithmeticError("symbolic rank below a sampled rank; elimination bug")
    return RankResult(sym, True)


def full_rank_witness(m: LinFormMatrix, policy: RankPolicy = DEFAULT_POLICY) -> tuple[Fraction, ...] | None:
    """The first seeded point at which m has rank m.rows, or None.

    At least 16 points are drawn, under either policy.  A point found proves
    full row rank there, and so generically; None proves nothing.
    """
    rng = random.Random(policy.seed)
    for _ in range(max(policy.samples, 16)):
        point = random_point(rng, m.nvars, policy.coeff_bound)
        if rank_exact(_scaled_rows(m, _int_point(point)[0], range(m.rows)), m.cols) == m.rows:
            return point
    return None
