"""Fixed op lists for the four benchmark workloads, with an expected outcome per op.

Every op is one `liecp ... --json --seed S` command line.  Its expected
outcome comes from a source independent of the command that produces it:
the catalog's expectations.json, the closed-form index formulas for
parabolic nilradicals, the Table 1 rows for Borel subalgebras, or the
standard fact that the center of a Borel nilradical is the highest root
space.  Where a command returns a CP, the benchmark re-checks it exactly
(`check_cp`): the listed vectors are independent, pairwise commuting, and
span (dim + index) / 2 dimensions.

Importing this module imports `liecp`, so `src/` must be on sys.path.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from liecp import catalog
from liecp.liealg import serialize_algebra
from liecp.parabolic import (
    CompositionA,
    CompositionC,
    borel_data_classical,
    index_formula_A,
    index_formula_C,
    nilradical_A,
    nilradical_C,
    table1_row,
)

#: Why each workload exists; the same lines are in BENCHMARK.json.
WHY = {
    "sweep": "Theorem 6.2 verify over 157 type A/C compositions: liealg bracket and subspace work dominates",
    "certify": "forced symbolic certification of the same compositions plus Table 1 rows: exactla Bareiss dominates",
    "search": "cp-find and certify-no-cp on 39 algebras plus catalog verify: CP search, index kernels, re-verification",
    "files": "index and center on 62 algebra files up to dim 45: parsing, the Jacobi check and cli dominate",
}


@dataclass
class Op:
    """One command line and the outcome it must produce."""

    argv: list[str]
    exit: int
    fields: dict = field(default_factory=dict)
    #: for cp-find: (algebra file, expected CP dimension), re-checked exactly
    cp: tuple[str, int] | None = None
    #: for center: (algebra file, expected center dimension), re-checked exactly
    center: tuple[str, int] | None = None

    @property
    def id(self) -> str:
        """The command without its `--json --seed S` tail, with file names shortened."""
        return " ".join(Path(a).name if a.endswith(".alg") else a for a in self.argv[:-3])


def compositions_a(n: int):
    """All compositions of n, in the order the acceptance sweep uses."""
    for first in range(1, n + 1):
        if first == n:
            yield (n,)
        else:
            for rest in compositions_a(n - first):
                yield (first,) + rest


def compositions_c(r: int):
    """All palindromic type-C compositions of 2r."""
    for s in range(r + 1):
        if s == 0:
            yield CompositionC.from_half((), r).parts
            continue
        for half in compositions_a(s):
            yield CompositionC.from_half(half, r - s).parts


def _sweep_compositions():
    comps = [("A", c) for n in range(1, 8) for c in compositions_a(n)]
    comps += [("C", c) for r in range(1, 5) for c in compositions_c(r)]
    return comps


def _formula(family: str, parts) -> int:
    if family == "A":
        return index_formula_A(CompositionA(parts))
    return index_formula_C(CompositionC(parts))


def _join(parts) -> str:
    return ",".join(map(str, parts))


TABLE1_ROWS = [("A", r) for r in range(1, 6)] + [("B", r) for r in (3, 4, 5)]
TABLE1_ROWS += [("C", r) for r in (2, 3, 4)] + [("D", 4)]

#: nilradicals generated for the search workload (Borel ones have no CP)
SEARCH_BORELS = [("B", 3), ("B", 4), ("D", 4), ("D", 5), ("B", 5)]
SEARCH_A = [(1, 2, 2, 1), (1, 1, 2, 1, 1), (2, 2, 2, 1), (1,) * 7]
SEARCH_C = [(1, 2, 2, 1), (2, 2, 2, 2)]

#: large files for the files workload (dims 16 to 45); there are more of them than
#: catalog files, so the median op lies inside one size class, not between two
FILES_A = [
    (1,) * 8, (2, 2, 2, 2), (1, 2, 2, 2, 1), (3, 2, 3), (1, 1, 2, 2, 1, 1), (1, 3, 3, 1),
    (4, 4), (2, 4, 2), (1, 2, 1, 1, 2, 1),
    (1,) * 9, (3, 3, 3), (2, 2, 1, 2, 2), (1, 2, 3, 2, 1), (1, 1, 1, 3, 1, 1, 1), (2, 3, 2, 2),
    (3, 3, 2, 1), (1, 1, 3, 3, 1), (4, 5),
    (1,) * 10, (2, 2, 2, 2, 2), (5, 5), (1, 2, 1, 2, 1, 2, 1), (3, 4, 3), (1, 1, 1, 1, 2, 1, 1, 1, 1),
    (2, 3, 3, 2), (1, 4, 4, 1),
]
FILES_BORELS = [("A", 7), ("B", 5), ("C", 5), ("D", 5)]


def _tag(parts) -> str:
    return "_".join(map(str, parts))


class Builder:
    """Builds a workload's op list, writing generated algebra files under `work`."""

    def __init__(self, root: Path, work: Path, seed: int):
        self.data = root / "src" / "liecp" / "data"
        self.work = work
        self.seed = seed
        self.expectations = json.loads((self.data / "expectations.json").read_text())

    def op(self, argv, exit, **kw) -> Op:
        return Op(list(argv) + ["--json", "--seed", str(self.seed)], exit, **kw)

    def write(self, name: str, algebra) -> str:
        path = self.work / f"{name}.alg"
        path.write_text(serialize_algebra(algebra, name=name))
        return str(path)

    def catalog_file(self, name: str) -> str:
        return str(self.data / f"{name}.alg")

    # -- workloads: each returns units, the ops that must run back to back ----

    def sweep(self) -> list[list[Op]]:
        return [
            [self.op(["parabolic", "--type", fam, "--composition", _join(c), "--verify"], 0,
                     fields={"ok": True, "computed_index": _formula(fam, c)})]
            for fam, c in _sweep_compositions()
        ]

    def certify(self) -> list[list[Op]]:
        units = [
            [self.op(["parabolic", "--type", fam, "--composition", _join(c), "--certify", "on"], 0,
                     fields={"computed_index": _formula(fam, c), "certified": True})]
            for fam, c in _sweep_compositions()
        ]
        for fam, r in TABLE1_ROWS:
            row = table1_row(fam, r)
            units.append([self.op(["table1", "--type", fam, "--rank", str(r), "--certify", "on"], 0,
                                  fields={"ok": True, "dim_n": row.dim_n, "index_n": row.index_n,
                                          "index_b": row.index_b, "sum_rule": True})])
        return units

    def search(self) -> list[list[Op]]:
        # cp-find and certify-no-cp on one algebra run back to back, so work they
        # could share stays adjacent
        units: list[list[Op]] = []
        for name in catalog.names():
            want = self.expectations[name]["expected"]
            path = self.catalog_file(name)
            if want["cp_witness"] is not None:
                unit = [self.op(["cp-find", path], 0, fields={"found": True},
                                cp=(path, (want["dim"] + want["index"]) // 2))]
            else:
                unit = [self.op(["cp-find", path], 1, fields={"found": False})]
            if want["no_cp_kinds"]:
                unit.append(self.op(["certify-no-cp", path], 0, fields={"verified": True}))
            elif name != "abelian":  # certify-no-cp rejects abelian algebras by design
                unit.append(self.op(["certify-no-cp", path], 1, fields={"certificate": None}))
            units.append(unit)
        for fam, r in SEARCH_BORELS:
            path = self.write(f"borel_{fam}{r}_N", borel_data_classical(fam, r)[0])
            # Table 1: half > max abelian dimension, so no CP exists
            units.append([self.op(["cp-find", path], 1, fields={"found": False}),
                          self.op(["certify-no-cp", path], 0, fields={"verified": True})])
        nilradicals = [("A", c, nilradical_A(CompositionA(c))[0]) for c in SEARCH_A]
        nilradicals += [("C", c, nilradical_C(CompositionC(c))[0]) for c in SEARCH_C]
        for fam, c, nil in nilradicals:
            path = self.write(f"nil_{fam}_{_tag(c)}", nil)
            # Theorem 6.2: a CP exists, so no no-CP certificate can exist
            units.append([self.op(["cp-find", path], 0, fields={"found": True},
                                  cp=(path, (nil.dim + _formula(fam, c)) // 2)),
                          self.op(["certify-no-cp", path], 1, fields={"certificate": None})])
        units += [[self.op(["catalog", "verify", name], 0)] for name in catalog.names()]
        return units

    def files(self) -> list[list[Op]]:
        files = []  # (path, dim, index, center_dim)
        for name in catalog.names():
            want = self.expectations[name]["expected"]
            files.append((self.catalog_file(name), want["dim"], want["index"], want["center_dim"]))
        for c in FILES_A:
            nil = nilradical_A(CompositionA(c))[0]
            # the center of a type-A parabolic nilradical is its corner block
            files.append((self.write(f"nil_A_{_tag(c)}", nil), nil.dim,
                          _formula("A", c), c[0] * c[-1]))
        for fam, r in FILES_BORELS:
            nil, borel = borel_data_classical(fam, r)
            row = table1_row(fam, r)
            # Z(N) is the highest root space; a Borel of a simple algebra has no center
            files.append((self.write(f"borel_{fam}{r}_N", nil), row.dim_n, row.index_n, 1))
            files.append((self.write(f"borel_{fam}{r}_B", borel), row.dim_n + r, row.index_b, 0))
        return [
            [self.op(["index", path], 0, fields={"dim": dim, "index": idx}),
             self.op(["center", path], 0, fields={"dim": dim, "center_dim": zdim},
                     center=(path, zdim))]
            for path, dim, idx, zdim in files
        ]


def build_ops(workload: str, root: Path, work: Path, seed: int) -> list[Op]:
    """The op list of `workload`, its units in an order drawn from `seed`.

    Shuffling spreads cheap and expensive ops over the run, so that a slow
    stretch of the machine does not land on one kind of op.  Generated
    algebra files are written into `work`.
    """
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}")
    work.mkdir(parents=True, exist_ok=True)
    units = getattr(Builder(root, work, seed), workload)()
    random.Random(seed).shuffle(units)
    return [op for unit in units for op in unit]


# ---------------------------------------------------------------------------
# Output oracle
# ---------------------------------------------------------------------------


class ExactAlgebra:
    """Structure constants read straight from an algebra file, for exact re-checks."""

    def __init__(self, path: str):
        obj = json.loads(Path(path).read_text())
        self.labels = obj["basis"]
        self.dim = len(self.labels)
        pos = {lb: i for i, lb in enumerate(self.labels)}
        self.sc: dict[tuple[int, int], dict[int, Fraction]] = {}
        for item in obj["brackets"]:
            i, j = pos[item["lhs"]], pos[item["rhs"]]
            table = {pos[lb]: Fraction(c) for lb, c in item["terms"].items()}
            self.sc[(i, j)] = table
            self.sc[(j, i)] = {k: -c for k, c in table.items()}
        alternatives = "|".join(re.escape(lb) for lb in sorted(self.labels, key=len, reverse=True))
        self._term = re.compile(rf"([+-]?)(?:(\d+(?:/\d+)?)\*)?({alternatives})")

    def vector(self, expr: str) -> list[Fraction]:
        """Parse a rendered combination such as "a-2*b+1/2*c"."""
        v = [Fraction(0)] * self.dim
        pos = 0
        while pos < len(expr):
            m = self._term.match(expr, pos)
            if m is None or m.end() == pos:
                raise ValueError(f"cannot parse vector {expr!r}")
            coeff = Fraction(m.group(2) or 1) * (-1 if m.group(1) == "-" else 1)
            v[self.labels.index(m.group(3))] += coeff
            pos = m.end()
        return v

    def bracket(self, u, v) -> list[Fraction]:
        out = [Fraction(0)] * self.dim
        for (i, j), table in self.sc.items():
            c = u[i] * v[j]
            if c:
                for k, x in table.items():
                    out[k] += c * x
        return out


def rank(vectors) -> int:
    rows = [list(v) for v in vectors]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][col] / rows[r][col]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def _basis(path: str, basis: list[str], want_dim: int) -> tuple[ExactAlgebra, list, str | None]:
    """Parse `basis` in the algebra at `path`; the error says if it is not want_dim independent vectors."""
    alg = ExactAlgebra(path)
    vecs = [alg.vector(e) for e in basis]
    r = rank(vecs)
    if len(vecs) != want_dim or r != want_dim:
        return alg, vecs, f"basis of {len(vecs)} vectors has rank {r}, want {want_dim}"
    return alg, vecs, None


def check_cp(path: str, basis: list[str], want_dim: int) -> str | None:
    """None if `basis` spans an abelian subalgebra of dimension want_dim."""
    alg, vecs, error = _basis(path, basis, want_dim)
    if error is not None:
        return error
    for a in range(len(vecs)):
        for b in range(a + 1, len(vecs)):
            if any(alg.bracket(vecs[a], vecs[b])):
                return f"CP basis elements {basis[a]} and {basis[b]} do not commute"
    return None


def check_center(path: str, basis: list[str], want_dim: int) -> str | None:
    """None if `basis` is want_dim independent vectors commuting with every basis vector."""
    alg, vecs, error = _basis(path, basis, want_dim)
    if error is not None:
        return error
    units = [[Fraction(int(i == j)) for j in range(alg.dim)] for i in range(alg.dim)]
    for z, expr in zip(vecs, basis):
        if any(any(alg.bracket(z, x)) for x in units):
            return f"center element {expr} is not central"
    return None


def check(op: Op, code: int, out: dict) -> str | None:
    """None when the command's exit code and JSON output match the op's expected outcome."""
    if code != op.exit or out.get("exit") != op.exit:
        return f"exit {code} (json {out.get('exit')}), want {op.exit}: {out.get('error', '')}"
    for key, want in op.fields.items():
        if out.get(key) != want:
            return f"{key} = {out.get(key)!r}, want {want!r}"
    if "reports" in out and not all(rep["ok"] for rep in out["reports"]):
        return "catalog verification reported a mismatch"
    if op.cp is not None:
        return check_cp(op.cp[0], out["basis"], op.cp[1])
    if op.center is not None:
        return check_center(op.center[0], out["basis"], op.center[1])
    return None


def verdict(out: dict) -> tuple:
    """The seed-independent part of an output: exit code and yes/no flags."""
    return tuple(out.get(k) for k in ("exit", "ok", "verified", "found"))
