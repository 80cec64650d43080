"""The benchmark harness: tracer wrapping, failure accounting, repeatable
counts, and refusal to run without the library sources."""

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import qcgraph
import qcgraph.cli
from conftest import BENCH, ROOT
from oracle import GraphSpec
from tracer import LAYERS, Tracer
from worker import _run_round
from workloads import Census, Job, check_census


def _public_functions():
    """(module, attribute) for every binding of a public qcgraph function."""
    out = []
    for name, mod in sorted(sys.modules.items()):
        if name != "qcgraph" and not name.startswith("qcgraph."):
            continue
        for attr, obj in vars(mod).items():
            module = getattr(obj, "__module__", "") or ""
            if (
                callable(obj)
                and not isinstance(obj, type)
                and not attr.startswith("_")
                and module.split(".")[-1] in LAYERS
                and module.startswith("qcgraph.")
            ):
                out.append((mod, attr))
    return out


def test_tracer_wraps_every_binding_and_restores_them():
    before = {(mod.__name__, attr): getattr(mod, attr) for mod, attr in _public_functions()}
    tracer = Tracer()
    tracer.install()
    try:
        for mod, attr in _public_functions():
            assert hasattr(getattr(mod, attr), "__wrapped__"), f"{mod.__name__}.{attr}"
        assert qcgraph.cohomology.act is qcgraph.weights.act is qcgraph.act
        graph, _ = qcgraph.parse_graph("edge a u v\nedge b u v\nedge c u v\n")
        chain = {w: qcgraph.ONE for w in qcgraph.enumerate_admissible(graph, 2, {})}
        tracer.run_job("j", lambda: qcgraph.is_coboundary(qcgraph.coboundary_of(graph, 2, {}, chain)))
    finally:
        tracer.uninstall()
    after = {(mod.__name__, attr): getattr(mod, attr) for mod, attr in _public_functions()}
    assert after == before
    totals = tracer.totals()
    for name in ("weights.act", "circle.mul", "circle.new", "cohomology.CocycleTable.value",
                 "f2.F2Span.solve", "graph.cycle_basis", "cohomology.is_twisted_cocycle"):
        assert totals[name]["calls"] > 0, name
    assert totals["weights.enumerate_admissible"]["distinct"] == 1
    job_span = [s for s in tracer.spans if tracer.names[s[1]] == "job"]
    assert len(job_span) == 1
    job_s = job_span[0][3] - job_span[0][2]
    self_total = sum(e["self_s"] for e in totals.values())
    assert all(e["self_s"] >= 0 for e in totals.values())
    assert self_total == pytest.approx(job_s, rel=1e-6)
    assert {s[4] for s in tracer.spans if s[4] is not None} <= {s[0] for s in tracer.spans}


def test_failed_jobs_are_counted_with_their_latency(tmp_path):
    # genus 3 at level 6 has 1680 weights: 2^3 * 1680 is beyond the
    # default --cap of 4096, so oracle-count exits with code 2
    edges = (("e1", "v1", "v2"), ("e2", "v1", "v2"), ("h1", "v1", "u1"),
             ("h2", "u1", "u2"), ("h3", "u1", "u2"), ("h4", "u2", "v2"))
    spec = GraphSpec(edges, ())
    path = tmp_path / "g.txt"
    path.write_text(spec.text())

    def default_cap():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = qcgraph.cli.run(["oracle-count", "--graph", str(path), "--level", "6"])
        return code, out.getvalue(), err.getvalue()

    def check(result):
        return check_census("oracle-count", result, spec, 6)

    explicit_cap = Census(0, str(tmp_path), qcgraph).job(spec, 6, "oracle-count", "x")
    raising = Job("raises", lambda: 1 // 0, lambda out: None)
    latencies, failures = [], []
    _run_round([Job("default cap", default_cap, check), raising, explicit_cap],
               None, 0, latencies, failures)
    assert len(latencies) == 3
    assert len(failures) == 2
    assert failures[0].startswith("default cap: exit code 2: error: instance beyond cap 4096")
    assert failures[1] == "raises: raised ZeroDivisionError: integer division or modulo by zero"


def _worker(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["census", "cocycles", "factorization"])
def test_traced_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "11", "--rounds", "1", "--trace")
    first, second = _worker(*args), _worker(*args)
    assert first["failures"] == second["failures"] == []
    counts = [
        {name: (e["calls"], e.get("distinct")) for name, e in run["trace"]["totals"].items()}
        for run in (first, second)
    ]
    assert counts[0] == counts[1]


@pytest.mark.parametrize("workload", ["census", "cocycles", "factorization"])
def test_second_seed_runs_cleanly(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {"jobs_per_s", "job_p50_ms", "job_tail_ms", "setup_s",
                                      "peak_rss_mb", "job_success_rate"}


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_metrics_match_the_benchmark_definition():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = (
        {f"{n}.calls" for n in run.PER_LAYER_COUNTS}
        | {f"{n}.distinct_ratio" for n in run.PER_LAYER_DISTINCT}
        | {f"{n}.self_s" for n in run.PER_LAYER_FUNCTION_TIMES + run.PER_LAYER_LAYER_TIMES}
        | {"trace.overhead_ratio"}
    )
    assert per_layer == {m["name"] for m in spec["per_layer"]}
    assert set(run.TAIL_PERCENTILE) == {w["name"] for w in spec["workloads"]}
