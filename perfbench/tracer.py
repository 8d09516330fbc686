"""Outside-in tracer for liecp: timing spans around calls into each module's public functions.

`Tracer.install()` replaces every function listed in TRACED with a timing
wrapper.  A module-level function is rebound in every `liecp.*` module
that holds the same function object (cp, parabolic, catalog and cli import
`index`, `is_cp` and others by name); a method is set on its class.
Nothing under src/ changes, and `uninstall()` restores the originals.

Each call records a span (id, parent, op, name, start, end) in memory;
`write_spans` writes them out.  Counts that the functions do not report
themselves are taken at the span boundary from arguments and results:
generic_rank routes, search_cp candidates, redundant index calls, sampled
functionals, Jacobi triples and parsed bytes.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from collections import defaultdict
from math import comb

#: (module, attribute, span name); a dotted attribute is a method set on its class
TRACED = [
    ("liecp.cli", "main", "cli.main"),
    ("liecp.liealg", "LieAlgebra.bracket", "liealg.bracket"),
    ("liecp.liealg", "Subspace.span", "liealg.subspace.span"),
    ("liecp.liealg", "Subspace.contains", "liealg.subspace.contains"),
    ("liecp.liealg", "Subspace.__add__", "liealg.subspace.add"),
    ("liecp.liealg", "Subspace.intersection", "liealg.subspace.intersection"),
    ("liecp.liealg", "is_abelian", "liealg.is_abelian"),
    ("liecp.liealg", "is_subalgebra", "liealg.is_subalgebra"),
    ("liecp.liealg", "is_ideal", "liealg.is_ideal"),
    ("liecp.liealg", "center", "liealg.center"),
    ("liecp.liealg", "parse_algebra", "liealg.parse_algebra"),
    ("liecp.liealg", "new_lie_algebra", "liealg.new_lie_algebra"),
    ("liecp.exactla", "generic_rank", "exactla.generic_rank"),
    ("liecp.exactla", "rank_exact", "exactla.rank_exact"),
    ("liecp.exactla", "rref", "exactla.rref"),
    ("liecp.exactla", "kernel", "exactla.kernel"),
    ("liecp.exactla", "evaluate", "exactla.evaluate"),
    ("liecp.index", "index", "index.index"),
    ("liecp.index", "stabilizer", "index.stabilizer"),
    ("liecp.index", "frobenius_semiradical", "index.frobenius_semiradical"),
    ("liecp.index", "invariant_symmetric_forms", "index.invariant_symmetric_forms"),
    ("liecp.cp", "is_cp", "cp.is_cp"),
    ("liecp.cp", "perp_of", "cp.perp_of"),
    ("liecp.cp", "search_cp", "cp.search_cp"),
    ("liecp.cp", "no_cp_certificate", "cp.no_cp_certificate"),
    ("liecp.cp", "verify_no_cp_certificate", "cp.verify_no_cp_certificate"),
    ("liecp.parabolic", "nilradical_A", "parabolic.nilradical_A"),
    ("liecp.parabolic", "nilradical_C", "parabolic.nilradical_C"),
    ("liecp.parabolic", "borel_data_classical", "parabolic.borel_data_classical"),
    ("liecp.parabolic", "verify_theorem62", "parabolic.verify_theorem62"),
    ("liecp.parabolic", "table1_check", "parabolic.table1_check"),
    ("liecp.catalog", "verify", "catalog.verify"),
]

NAMES = [name for _, _, name in TRACED]
SUBSPACE = [n for n in NAMES if n.startswith("liealg.subspace.")]
CLOSURE = ["liealg.is_abelian", "liealg.is_subalgebra", "liealg.is_ideal"]
CONSTRUCT = ["parabolic.nilradical_A", "parabolic.nilradical_C", "parabolic.borel_data_classical"]

#: Bound on |sum of span self times in an op - the op's traced duration|.  The op
#: timer also covers stdout capture and the root wrapper's own bookkeeping.
SELF_SUM_BOUND_S = 5e-4


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _route(tr, args, kwargs, result, dur):
    m = _arg(args, kwargs, 0, "m")
    if result.certified and result.rank == min(m.rows, m.cols):
        route = "full_rank"
    elif result.certified:
        route = "symbolic"
        tr.counts["exactla.generic_rank.route.symbolic.total_s"] += dur
        side = max(m.rows, m.cols)
        tr.counts["exactla.generic_rank.route.symbolic.max_side"] = max(
            tr.counts["exactla.generic_rank.route.symbolic.max_side"], side
        )
    else:
        route = "uncertified"
    tr.counts[f"exactla.generic_rank.route.{route}.calls"] += 1


def _index_repeat(tr, args, kwargs, result, dur):
    algebra = _arg(args, kwargs, 0, "L")
    policy = args[1] if len(args) > 1 else kwargs.get("policy", tr.default_policy)
    key = (id(algebra), policy)
    if key in tr.index_seen:
        tr.counts["index.index.redundant_calls"] += 1
    tr.index_seen[key] = algebra  # holding the algebra keeps its id unique within the op


def _samples(tr, args, kwargs, result, dur):
    tr.counts["index.frobenius_semiradical.samples_used"] += result.samples_used


def _candidate(tr, args, kwargs, result, dur):
    if tr.depth[NAMES.index("cp.search_cp")]:
        tr.counts["cp.search_cp.candidates"] += 1


def _found(tr, args, kwargs, result, dur):
    tr.counts["cp.search_cp.found"] += result is not None


def _triples(tr, args, kwargs, result, dur):
    tr.counts["liealg.new_lie_algebra.jacobi_triples"] += comb(_arg(args, kwargs, 0, "dim"), 3)


def _bytes(tr, args, kwargs, result, dur):
    tr.counts["liealg.parse_algebra.bytes"] += len(_arg(args, kwargs, 0, "text").encode())


HOOKS = {
    "exactla.generic_rank": _route,
    "index.index": _index_repeat,
    "index.frobenius_semiradical": _samples,
    "cp.is_cp": _candidate,
    "cp.search_cp": _found,
    "liealg.new_lie_algebra": _triples,
    "liealg.parse_algebra": _bytes,
}


def liecp_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "liecp" or name.startswith("liecp.")]


class Tracer:
    """Span recorder; aggregates calls, self time and inclusive time per span name."""

    def __init__(self):
        n = len(NAMES)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.total_s = [0.0] * n  # outermost calls only, so recursion is not double counted
        self.depth = [0] * n
        self.counts: dict[str, float] = defaultdict(float)
        self.stack: list[list] = []  # open spans: [span id, time covered by children]
        self.next_id = 0
        self.op = -1
        self.index_seen: dict = {}
        self.spans: list[tuple] = []  # (id, parent id or -1, op, name index, start, end)
        self.originals: list = []
        self._patched: list = []  # (owner, attribute, previous value)
        self.default_policy = None

    def begin_op(self, op: int) -> None:
        self.op = op
        self.index_seen.clear()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self.default_policy = importlib.import_module("liecp.exactla").DEFAULT_POLICY
        for k, (modname, attr, name) in enumerate(TRACED):
            module = importlib.import_module(modname)
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[member]
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapped = self._wrap(k, fn, HOOKS.get(name))
                self._patched.append((owner, member, raw))
                setattr(owner, member, staticmethod(wrapped) if is_static else wrapped)
            else:
                fn = getattr(module, attr)
                wrapped = self._wrap(k, fn, HOOKS.get(name))
                for mod in liecp_modules():
                    for a, value in list(vars(mod).items()):
                        if value is fn:
                            self._patched.append((mod, a, fn))
                            setattr(mod, a, wrapped)
            self.originals.append(fn)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def _wrap(self, k: int, fn, hook):
        stack, depth, perf = self.stack, self.depth, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [self.next_id, 0.0]
            self.next_id += 1
            stack.append(frame)
            depth[k] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                depth[k] -= 1
                self._close(k, frame, t0, t1)
            if hook is not None:
                hook(self, args, kwargs, result, t1 - t0)
            return result

        return traced

    def _close(self, k: int, frame: list, t0: float, t1: float) -> None:
        dur = t1 - t0
        self.calls[k] += 1
        self.self_s[k] += dur - frame[1]
        if not self.depth[k]:
            self.total_s[k] += dur
        parent = -1
        if self.stack:
            self.stack[-1][1] += dur
            parent = self.stack[-1][0]
        self.spans.append((frame[0], parent, self.op, k, t0, t1))

    # -- results -----------------------------------------------------------

    def calls_of(self, *names) -> int:
        return sum(self.calls[NAMES.index(n)] for n in names)

    def self_of(self, *names) -> float:
        return sum(self.self_s[NAMES.index(n)] for n in names)

    def total_of(self, *names) -> float:
        return sum(self.total_s[NAMES.index(n)] for n in names)

    def op_self_sums(self) -> dict[int, float]:
        """Sum of span self times per op, recomputed from the recorded spans and their parents."""
        self_time = {sid: [op, end - start] for sid, _, op, _, start, end in self.spans}
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                self_time[parent][1] -= end - start
        sums: dict[int, float] = defaultdict(float)
        for op, t in self_time.values():
            sums[op] += t
        return dict(sums)

    def write_spans(self, path) -> None:
        """Tab-separated spans: id, parent, op, name, start and end in seconds."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\n")
            for sid, parent, op, k, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{op}\t{NAMES[k]}\t{start:.9f}\t{end:.9f}\n")


def leftover_originals(tracer: Tracer) -> list[str]:
    """Attributes of liecp modules and their classes that still hold an unwrapped original."""
    originals = {id(fn) for fn in tracer.originals}
    found = []
    for mod in liecp_modules():
        for attr, value in vars(mod).items():
            if id(value) in originals:
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__.startswith("liecp"):
                for member, raw in vars(value).items():
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    if id(fn) in originals:
                        found.append(f"{mod.__name__}.{attr}.{member}")
    return found


#: Per-layer metrics: (name, unit, better, value from a finished traced pass)
PER_LAYER = [
    ("liealg.bracket.calls", "count", "lower", lambda t: t.calls_of("liealg.bracket")),
    ("liealg.bracket.self_s", "s", "lower", lambda t: t.self_of("liealg.bracket")),
    ("liealg.subspace.calls", "count", "lower", lambda t: t.calls_of(*SUBSPACE)),
    ("liealg.subspace.self_s", "s", "lower", lambda t: t.self_of(*SUBSPACE)),
    ("liealg.closure.self_s", "s", "lower", lambda t: t.self_of(*CLOSURE)),
    ("liealg.center.total_s", "s", "lower", lambda t: t.total_of("liealg.center")),
    ("liealg.parse_algebra.calls", "count", "lower", lambda t: t.calls_of("liealg.parse_algebra")),
    ("liealg.parse_algebra.self_s", "s", "lower", lambda t: t.self_of("liealg.parse_algebra")),
    ("liealg.parse_algebra.bytes", "bytes", "lower", lambda t: t.counts["liealg.parse_algebra.bytes"]),
    ("liealg.new_lie_algebra.self_s", "s", "lower", lambda t: t.self_of("liealg.new_lie_algebra")),
    ("liealg.new_lie_algebra.jacobi_triples", "count", "lower",
     lambda t: t.counts["liealg.new_lie_algebra.jacobi_triples"]),
    ("exactla.generic_rank.calls", "count", "lower", lambda t: t.calls_of("exactla.generic_rank")),
    ("exactla.generic_rank.total_s", "s", "lower", lambda t: t.total_of("exactla.generic_rank")),
    ("exactla.generic_rank.route.full_rank.calls", "count", "higher",
     lambda t: t.counts["exactla.generic_rank.route.full_rank.calls"]),
    ("exactla.generic_rank.route.symbolic.calls", "count", "lower",
     lambda t: t.counts["exactla.generic_rank.route.symbolic.calls"]),
    ("exactla.generic_rank.route.uncertified.calls", "count", "lower",
     lambda t: t.counts["exactla.generic_rank.route.uncertified.calls"]),
    ("exactla.generic_rank.route.symbolic.total_s", "s", "lower",
     lambda t: t.counts["exactla.generic_rank.route.symbolic.total_s"]),
    ("exactla.generic_rank.route.symbolic.max_side", "count", "lower",
     lambda t: t.counts["exactla.generic_rank.route.symbolic.max_side"]),
    ("exactla.rank_exact.calls", "count", "lower", lambda t: t.calls_of("exactla.rank_exact")),
    ("exactla.rank_exact.self_s", "s", "lower", lambda t: t.self_of("exactla.rank_exact")),
    ("exactla.rref.calls", "count", "lower", lambda t: t.calls_of("exactla.rref")),
    ("exactla.rref.self_s", "s", "lower", lambda t: t.self_of("exactla.rref")),
    ("exactla.kernel.calls", "count", "lower", lambda t: t.calls_of("exactla.kernel")),
    ("exactla.kernel.self_s", "s", "lower", lambda t: t.self_of("exactla.kernel")),
    ("exactla.evaluate.self_s", "s", "lower", lambda t: t.self_of("exactla.evaluate")),
    ("index.index.calls", "count", "lower", lambda t: t.calls_of("index.index")),
    ("index.index.total_s", "s", "lower", lambda t: t.total_of("index.index")),
    ("index.index.redundant_calls", "count", "lower", lambda t: t.counts["index.index.redundant_calls"]),
    ("index.stabilizer.calls", "count", "lower", lambda t: t.calls_of("index.stabilizer")),
    ("index.stabilizer.total_s", "s", "lower", lambda t: t.total_of("index.stabilizer")),
    ("index.frobenius_semiradical.total_s", "s", "lower",
     lambda t: t.total_of("index.frobenius_semiradical")),
    ("index.frobenius_semiradical.samples_used", "count", "lower",
     lambda t: t.counts["index.frobenius_semiradical.samples_used"]),
    ("index.invariant_symmetric_forms.calls", "count", "lower",
     lambda t: t.calls_of("index.invariant_symmetric_forms")),
    ("index.invariant_symmetric_forms.total_s", "s", "lower",
     lambda t: t.total_of("index.invariant_symmetric_forms")),
    ("cp.is_cp.calls", "count", "lower", lambda t: t.calls_of("cp.is_cp")),
    ("cp.is_cp.total_s", "s", "lower", lambda t: t.total_of("cp.is_cp")),
    ("cp.perp_of.total_s", "s", "lower", lambda t: t.total_of("cp.perp_of")),
    ("cp.search_cp.calls", "count", "lower", lambda t: t.calls_of("cp.search_cp")),
    ("cp.search_cp.total_s", "s", "lower", lambda t: t.total_of("cp.search_cp")),
    ("cp.search_cp.candidates", "count", "lower", lambda t: t.counts["cp.search_cp.candidates"]),
    ("cp.search_cp.found", "count", "higher", lambda t: t.counts["cp.search_cp.found"]),
    ("cp.no_cp_certificate.total_s", "s", "lower", lambda t: t.total_of("cp.no_cp_certificate")),
    ("cp.verify_no_cp_certificate.total_s", "s", "lower",
     lambda t: t.total_of("cp.verify_no_cp_certificate")),
    ("parabolic.construct.calls", "count", "lower", lambda t: t.calls_of(*CONSTRUCT)),
    ("parabolic.construct.total_s", "s", "lower", lambda t: t.total_of(*CONSTRUCT)),
    ("parabolic.verify_theorem62.total_s", "s", "lower",
     lambda t: t.total_of("parabolic.verify_theorem62")),
    ("parabolic.table1_check.total_s", "s", "lower", lambda t: t.total_of("parabolic.table1_check")),
    ("catalog.verify.calls", "count", "lower", lambda t: t.calls_of("catalog.verify")),
    ("catalog.verify.total_s", "s", "lower", lambda t: t.total_of("catalog.verify")),
    ("cli.main.self_s", "s", "lower", lambda t: t.self_of("cli.main")),
    ("trace.spans", "count", "lower", lambda t: t.next_id),
]
