"""Self-tests of the benchmark: its tracer, its output oracle and BENCHMARK.json.

Run with `python3 -m pytest -q perfbench` from the root of the repository.
"""

from __future__ import annotations

import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import run

run.import_liecp()

import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from liecp import catalog, cp, exactla, index, liealg  # noqa: E402
from liecp.cli import vector_expr  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


KEEP = {
    "sweep": {"parabolic --type A --composition 1,2,1 --verify",
              "parabolic --type C --composition 1,2,2,1 --verify"},
    "certify": {"table1 --type C --rank 3 --certify on"},
    "search": {"cp-find h5.alg", "certify-no-cp diamond.alg", "certify-no-cp sl2_irr3.alg",
               "cp-find borel_B3_N.alg", "catalog verify g5"},
    "files": {"index heisenberg.alg", "center heisenberg.alg", "center borel_D5_B.alg"},
}


def build_all(work: Path, seed: int) -> dict[str, list]:
    return {name: workloads.build_ops(name, ROOT, work / name, seed) for name in run.WORKLOADS}


def pick(built) -> list:
    """A few cheap ops from every workload, covering every traced layer."""
    return [op for name, ops in built.items() for op in ops if op.id in KEEP[name]]


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    return build_all(tmp_path_factory.mktemp("work"), 0)


@pytest.fixture
def ops(built):
    picked = pick(built)
    assert len(picked) == sum(map(len, KEEP.values()))
    return picked


@pytest.fixture
def installed():
    t = tr.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["workloads"] == [{"name": n, "why": w} for n, w in workloads.WHY.items()]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in run.END_TO_END
    ]
    layer = [{"name": n, "unit": u, "better": b} for n, u, b, _ in tr.PER_LAYER]
    assert spec["per_layer"] == layer + [dict(zip(("name", "unit", "better"), run.OVERHEAD))]


def test_workload_sizes(built):
    assert {name: len(ops) for name, ops in built.items()} == {
        "sweep": 157, "certify": 169, "search": 105, "files": 124}


def test_install_leaves_no_unwrapped_original(installed):
    assert len(installed.originals) == len(tr.TRACED)
    assert tr.leftover_originals(installed) == []
    # names imported into other modules are rebound too
    assert cp.index is index.index is catalog.index
    assert cp.index is not installed.originals[tr.NAMES.index("index.index")]


def test_uninstall_restores_every_original():
    t = tr.Tracer()
    before = cp.is_cp, exactla.generic_rank, liealg.Subspace.__dict__["span"]
    t.install()
    t.uninstall()
    assert (cp.is_cp, exactla.generic_rank, liealg.Subspace.__dict__["span"]) == before
    assert not hasattr(cp.index, "__wrapped__")


def test_traced_outputs_identical_and_self_times_add_up(ops):
    plain = run.Pass(ops).run(0)
    t = tr.Tracer()
    t.install()
    try:
        traced = run.Pass(ops).run(0, t)
    finally:
        t.uninstall()
    assert plain.failures == {} and traced.failures == {}
    assert plain.outputs == traced.outputs
    sums = t.op_self_sums()
    for i, samples in enumerate(traced.latency):
        assert abs(sums[i] - samples[0]) <= tr.SELF_SUM_BOUND_S, ops[i].id
    assert sum(sums.values()) == pytest.approx(sum(t.self_s), abs=1e-9)
    # boundary counts agree with the span counts they refine
    routes = sum(t.counts[f"exactla.generic_rank.route.{r}.calls"]
                 for r in ("full_rank", "symbolic", "uncertified"))
    assert routes == t.calls_of("exactla.generic_rank")
    assert t.counts["cp.search_cp.candidates"] <= t.calls_of("cp.is_cp")
    assert t.counts["cp.search_cp.found"] == 1  # h5 has a CP, borel B3 N has none
    assert t.calls_of("liealg.parse_algebra") == 7  # one per op that reads a file
    metrics = {name: get(t) for name, _, _, get in tr.PER_LAYER}
    for name in ("liealg.bracket.calls", "exactla.rref.calls", "index.stabilizer.calls",
                 "index.invariant_symmetric_forms.calls", "cp.search_cp.calls",
                 "parabolic.construct.calls", "catalog.verify.calls",
                 "liealg.new_lie_algebra.jacobi_triples", "liealg.parse_algebra.bytes",
                 "index.frobenius_semiradical.samples_used", "index.index.redundant_calls"):
        assert metrics[name] > 0, name


def test_same_seed_same_bytes_other_seed_same_verdicts(ops):
    first = run.Pass(ops).run(0)
    again = run.Pass(ops).run(0)
    other = run.Pass([replace(op, argv=op.argv[:-1] + ["1"]) for op in ops]).run(0)
    assert first.digest() == again.digest()
    assert len(first.reference) == first.attempted and first.slowdown() > 0
    assert first.verdict_digest() == other.verdict_digest()
    assert other.failures == {}


def test_oracle_rejects_wrong_outputs(ops):
    ops = {op.id: op for op in ops}
    cp_op = ops["cp-find h5.alg"]
    good = {"exit": 0, "found": True, "dim": 3, "basis": ["x2", "x4", "x5"]}
    assert workloads.check(cp_op, 0, good) is None
    assert "commute" in workloads.check(cp_op, 0, {**good, "basis": ["x1", "x3", "x5"]})
    assert "rank 2" in workloads.check(cp_op, 0, {**good, "basis": ["x2", "x4", "x2+x4"]})
    assert "exit" in workloads.check(cp_op, 1, {**good, "exit": 1})
    center_op = ops["center heisenberg.alg"]
    good = {"exit": 0, "dim": 5, "center_dim": 1, "basis": ["z"]}
    assert workloads.check(center_op, 0, good) is None
    assert "not central" in workloads.check(center_op, 0, {**good, "basis": ["x1"]})
    index_op = ops["index heisenberg.alg"]
    assert "index" in workloads.check(index_op, 0, {"exit": 0, "dim": 5, "index": 3})


def test_vector_parser_reads_rendered_combinations(ops):
    path = next(op.cp[0] for op in ops if op.cp)
    alg = workloads.ExactAlgebra(path)
    row = [Fraction(0), Fraction(-2), Fraction(1), Fraction(0), Fraction(1, 2)]
    assert alg.vector(vector_expr(alg.labels, row)) == row
