#!/usr/bin/env python3
"""Benchmark of the liecp command line: four fixed workloads, end-to-end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 0            # all four workloads, each in its own process

Each op is one `liecp ... --json --seed S` command executed in-process
through `liecp.cli.main(argv)`, with stdout captured and checked against
the op's expected outcome (see workloads.py).  Ops run one after another
on a single thread (a closed loop with one client), cycling through the
workload's op list until `--seconds` have passed and every op has run at
least once.  The latency percentiles are over all op runs; ops_per_s
takes each op's fastest run, since on a shared machine the slower runs
measure interference from other tenants.  Timings are then
divided by the run's slowdown, measured with `reference_task`, so that they
read as seconds at the speed of the machine the benchmark was built on; the
wall-clock values go to the result file.

With `--trace 0` the end-to-end metrics are printed.  With `--trace 1`
the op list runs once untraced and once under the tracer (tracer.py), the
outputs of both passes must be byte-identical, and the per-layer metrics
plus the tracing overhead are printed.  The last line of stdout is one
JSON object; a result file with an environment block goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORK = BENCH / ".work"
WORKLOADS = ("sweep", "certify", "search", "files")

#: set-up is repeated in fresh interpreters, at least SETUP_MIN_REPEATS times and then
#: until SETUP_SECONDS are spent or SETUP_MAX_REPEATS is reached; setup_s is the median
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_SECONDS = 3, 9, 3.0
#: measuring stops after this long even with ops left, and the run reports
#: correct=false; a traced run has two passes and gives each half
RUN_CAP_S = 150.0

#: (name, unit, better, bound): bound is the share of the parent's median by
#: which the metric may worsen before a change counts as a regression.  Over
#: two sets of ten seeds the calibrated timings spread by 2-11% (ops_per_s) and
#: 5-21% (the percentiles) of their median, and the two sets' medians agreed
#: within 5%; certified_frac is exact and peak_rss_mb moves by about 1%.
END_TO_END = [
    ("ops_per_s", "ops/s", "higher", 0.2),
    ("op_p50_s", "s", "lower", 0.25),
    ("op_p90_s", "s", "lower", 0.25),
    ("certified_frac", "ratio", "higher", 0.01),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

#: traced wall time over untraced wall time, reported with the per-layer metrics
OVERHEAD = ("trace.overhead_ratio", "ratio", "lower")

#: Median duration of `reference_task` on the machine the benchmark was built on
#: (2-vCPU Intel Xeon, Python 3.11.7).  End-to-end timings are scaled to that speed.
REFERENCE_S = 1.78e-3


def reference_task() -> Fraction:
    """Fixed stdlib-only work in liecp's style: Fraction elimination on a 10 x 10 matrix.

    The shared machine's speed drifts by up to 25% between minutes.  Timing
    this task after every op measures the speed the ops ran at; it calls
    nothing in liecp, so a change to liecp does not change its work.
    """
    n = 10
    a = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(n)] for i in range(n)]
    total = Fraction(0)
    for r in range(n):
        p = next((i for i in range(r, n) if a[i][r]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        for i in range(r + 1, n):
            f = a[i][r] / a[r][r]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        total += sum(a[r])
    return total


def import_liecp():
    """Import liecp from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "liecp" / "__init__.py").is_file():
        raise SystemExit(f"error: no liecp sources under {src}")
    sys.path.insert(0, str(src))
    import liecp

    if Path(liecp.__file__).resolve().parent != src / "liecp":
        raise SystemExit(f"error: liecp imported from {liecp.__file__}, not from {src}")
    return liecp


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> None:
    """Import liecp, build the op list and write its files; print when ready."""
    import_liecp()
    from workloads import build_ops

    ops = build_ops(workload, ROOT, WORK / workload, seed)
    print(json.dumps({"ready": time.monotonic(), "ops": len(ops)}))


def timed_setups(workload: str, seed: int) -> list[float]:
    """Seconds from interpreter start to a ready op list, once per fresh process."""
    samples: list[float] = []
    while len(samples) < SETUP_MIN_REPEATS or (
        len(samples) < SETUP_MAX_REPEATS and sum(samples) < SETUP_SECONDS
    ):
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                "--workload", workload, "--seed", str(seed)]
        start = time.monotonic()  # CLOCK_MONOTONIC is shared by all processes
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["ready"] - start)
    return samples


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------


class Pass:
    """Latencies and outputs of ops run in order, cycling through the list."""

    def __init__(self, ops):
        self.ops = ops
        self.latency: list[list[float]] = [[] for _ in ops]
        self.reference: list[float] = []  # reference_task durations, one after each op
        self.outputs: list[str | None] = [None] * len(ops)
        self.failures: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.complete = False

    def run(self, seconds: float, tracer=None, cap: float = RUN_CAP_S) -> "Pass":
        from liecp import cli
        from workloads import check

        start = time.perf_counter()
        n = 0
        while True:
            i = n % len(self.ops)
            op = self.ops[i]
            if tracer is not None:
                tracer.begin_op(i)
            buf = io.StringIO()
            error = None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(op.argv)
            except (Exception, SystemExit) as exc:  # one failed op must not end the run
                code, error = None, f"raised {exc!r}"
            t1 = time.perf_counter()
            reference_task()
            self.reference.append(time.perf_counter() - t1)
            n += 1
            self.attempted += 1
            self.latency[i].append(t1 - t0)
            text = buf.getvalue()
            if error is None:
                if self.outputs[i] is None:
                    try:
                        error = check(op, code, json.loads(text))
                    except (ValueError, KeyError, TypeError) as exc:
                        error = f"unreadable output {text[:200]!r}: {exc!r}"
                    self.outputs[i] = text
                elif text != self.outputs[i]:
                    error = "output differs from the first run of the op"
            if error is not None:
                self.failed += 1
                self.failures.setdefault(i, error)
            elapsed = t1 - start
            if n >= len(self.ops) and elapsed >= seconds:
                self.complete = True
                return self
            if elapsed > cap:
                return self

    def best(self) -> list[float]:
        """Each op's fastest run: slower runs are the machine's other tenants, not liecp."""
        return [min(s) for s in self.latency if s]

    def slowdown(self) -> float:
        """How much slower this machine ran than the one REFERENCE_S was measured on."""
        return statistics.median(self.reference) / REFERENCE_S

    def digest(self) -> str:
        return hashlib.sha256("".join(o or "\n" for o in self.outputs).encode()).hexdigest()

    def verdict_digest(self) -> str:
        from workloads import verdict

        verdicts = sorted((op.id, verdict(json.loads(o)) if o else None)
                          for op, o in zip(self.ops, self.outputs))
        return hashlib.sha256(json.dumps(verdicts).encode()).hexdigest()

    def certified_frac(self) -> tuple[int, int]:
        flags = []
        for text in self.outputs:
            out = json.loads(text) if text else {}
            flag = out.get("certified", out.get("verified"))
            if flag is not None:
                flags.append(bool(flag))
        return sum(flags), len(flags)


# ---------------------------------------------------------------------------
# Environment and results
# ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "liecp").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(workload: str, seed: int, n_ops: int) -> dict:
    return {
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "workload": workload,
        "ops": n_ops,
    }


def metric(value, unit: str) -> dict:
    if isinstance(value, float) and value.is_integer() and unit != "s":
        value = int(value)
    return {"value": value, "unit": unit}


def save(name: str, record: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / name
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    setups = timed_setups(workload, seed)
    import_liecp()
    from workloads import build_ops

    ops = build_ops(workload, ROOT, WORK / workload, seed)
    run = Pass(ops).run(seconds)
    slowdown = run.slowdown()
    wall = run.best()
    best = [t / slowdown for t in wall]
    wall_runs = [t for s in run.latency for t in s]
    runs = [t / slowdown for t in wall_runs]
    p90 = statistics.quantiles(runs, n=10)[8]
    certified, flagged = run.certified_frac()
    ok_ops = len(ops) - len(run.failures)
    values = {
        "ops_per_s": ok_ops / sum(best),
        "op_p50_s": statistics.median(runs),
        "op_p90_s": p90,
        "certified_frac": certified / flagged if flagged else 0.0,
        "setup_s": statistics.median(setups) / slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: metric(values[name], unit) for name, unit, _, _ in END_TO_END}
    record = {
        "env": environment(workload, seed, len(ops)),
        "trace": 0,
        "seconds": seconds,
        "metrics": metrics,
        "slowdown": slowdown,
        "reference_s": REFERENCE_S,
        "wall_clock": {
            "ops_per_s": ok_ops / sum(wall),
            "op_p50_s": statistics.median(wall_runs),
            "op_p90_s": statistics.quantiles(wall_runs, n=10)[8],
            "setup_s": statistics.median(setups),
        },
        "failed_frac": run.failed / run.attempted,
        "attempted": run.attempted,
        "failed": run.failed,
        "complete": run.complete,
        "certified": [certified, flagged],
        "p90_beyond": sum(t > p90 for t in runs),
        "setup_samples_s": setups,
        "digest": run.digest(),
        "verdict_digest": run.verdict_digest(),
        "failures": {ops[i].id: msg for i, msg in sorted(run.failures.items())},
        "per_op": [{"op": op.id, "runs": len(s), "best_s": min(s), "median_s": statistics.median(s)}
                   for op, s in zip(ops, run.latency) if s],
    }
    path = save(f"{workload}-seed{seed}-trace0.json", record)
    for name, unit, _, _ in END_TO_END:
        print(f"{workload:8s} {name:15s} {values[name]:12.6g} {unit}")
    print(f"{workload:8s} {'failed_frac':15s} {record['failed_frac']:12.6g} ratio"
          f"  ({run.failed} of {run.attempted} op runs)")
    print(f"{workload:8s} wall clock at slowdown {slowdown:.3f}: "
          + ", ".join(f"{k} {v:.6g}" for k, v in record["wall_clock"].items()))
    print(f"{workload:8s} {len(ops)} ops, {run.attempted} runs, {record['p90_beyond']} runs beyond p90,"
          f" certified {certified}/{flagged}, digest {record['digest'][:16]}; {path.relative_to(ROOT)}")
    for op_id, msg in record["failures"].items():
        print(f"{workload:8s} FAILED {op_id}: {msg}")
    return {"correct": run.complete and not run.failed, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def traced(workload: str, seed: int) -> dict:
    import_liecp()
    from tracer import NAMES, PER_LAYER, SELF_SUM_BOUND_S, Tracer
    from workloads import build_ops

    ops = build_ops(workload, ROOT, WORK / workload, seed)
    plain = Pass(ops).run(0, cap=RUN_CAP_S / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced_run = Pass(ops).run(0, tracer, cap=RUN_CAP_S / 2)
    finally:
        tracer.uninstall()
    overhead = sum(map(sum, traced_run.latency)) / sum(map(sum, plain.latency))
    metrics = {name: metric(float(get(tracer)), unit) for name, unit, _, get in PER_LAYER}
    metrics[OVERHEAD[0]] = metric(overhead, OVERHEAD[1])
    identical = plain.outputs == traced_run.outputs
    self_sums = tracer.op_self_sums()
    self_gap = max(abs(self_sums.get(i, 0.0) - lat[0]) for i, lat in enumerate(traced_run.latency))
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"{workload}-seed{seed}-spans.tsv.gz"
    tracer.write_spans(spans)
    attempted = plain.attempted + traced_run.attempted
    failed = plain.failed + traced_run.failed
    record = {
        "env": environment(workload, seed, len(ops)),
        "trace": 1,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "outputs_identical": identical,
        "digest": plain.digest(),
        "untraced_s": sum(map(sum, plain.latency)),
        "traced_s": sum(map(sum, traced_run.latency)),
        "spans_file": spans.name,
        "self_time_gap_s": self_gap,
        "self_time_bound_s": SELF_SUM_BOUND_S,
        "layers": {name: {"calls": tracer.calls[k], "self_s": tracer.self_s[k],
                          "total_s": tracer.total_s[k]} for k, name in enumerate(NAMES)},
        "failures": {ops[i].id: msg for i, msg in sorted({**plain.failures, **traced_run.failures}.items())},
    }
    path = save(f"{workload}-seed{seed}-trace1.json", record)
    for name, m in metrics.items():
        print(f"{workload:8s} {name:45s} {m['value']:14.6g} {m['unit']}")
    print(f"{workload:8s} traced outputs identical to untraced: {identical};"
          f" overhead {overhead:.3f}x over {record['untraced_s']:.2f} s;"
          f" span self times within {self_gap * 1e6:.0f} us of op times; {path.relative_to(ROOT)}")
    return {"correct": identical and plain.complete and traced_run.complete and not failed,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, untraced then traced, each in a fresh process; prints a summary."""
    import_liecp()  # fail before starting anything when the sources are missing
    summary = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0:
                raise SystemExit(f"error: {workload} failed\n{proc.stderr}")
            summary[f"{workload}.trace{trace}"] = json.loads(lines[-1])
    print()
    print(f"{'workload':8s} " + " ".join(f"{n:>16s}" for n, *_ in END_TO_END) + f" {'failed_frac':>16s}")
    for workload in WORKLOADS:
        res = summary[f"{workload}.trace0"]
        cells = [f"{res['metrics'][n]['value']:.4g} {u:5s}" for n, u, *_ in END_TO_END]
        cells.append(f"{res['failed'] / res['attempted']:.4g} ratio")
        print(f"{workload:8s} " + " ".join(f"{c:>16s}" for c in cells))
    correct = all(r["correct"] for r in summary.values())
    return {"correct": correct, "attempted": sum(r["attempted"] for r in summary.values()),
            "failed": sum(r["failed"] for r in summary.values()), "metrics": {}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload; all four when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload is None:
        result = run_all(args.seed, args.seconds)
    elif args.trace:
        result = traced(args.workload, args.seed)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
