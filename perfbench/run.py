"""qcgraph benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

The benchmark is one closed-loop client: a single process and thread runs
jobs back to back, each job starting when the previous one has returned.
Each workload runs in its own fresh worker process (``worker.py``), so its
peak memory and anything the library caches belong to that workload alone.

``--trace 0`` prints the end-to-end metrics.  Set-up time is the median
over several fresh processes, because one set-up per run is too noisy.
``--trace 1`` runs a fixed number of rounds twice on the same seed, once
plain and once with every qcgraph call traced (``tracer.py``), and prints
the per-layer metrics with the tracing overhead.  The full trace is written
to ``.perfbench_out/``.

Every job's output is checked against an oracle that shares no code with
the library (``oracle.py``).  A job that raises, exits with an unexpected
code or disagrees with its oracle counts as failed; its latency is still
recorded.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROCESSES = 11  # fresh processes timed for setup_s, the timed run included
TIME_LIMIT = 170.0  # wall seconds for the whole run

# the percentile reported as job_tail_ms, per workload: the highest of
# 50/75/90/95/99 that leaves at least ten jobs beyond it at the baseline
TAIL_PERCENTILE = {"census": 95, "cocycles": 90, "factorization": 95}
# rounds of the traced and the plain run in --trace 1 mode
TRACE_ROUNDS = {"census": 3, "cocycles": 8, "factorization": 3}

PER_LAYER_COUNTS = (
    "circle.mul",
    "circle.new",
    "weights.enumerate_admissible",
    "weights.orbits",
    "factorize.restrict_cocycle",
    "graph.incident_edges",
    "graph.cycle_basis",
    "graph.all_cycles",
    "f2.f2_rank",
    "f2.F2Span.solve",
    "cohomology.CocycleTable.value",
    "cohomology.is_twisted_cocycle",
    "weights.act",
    "external.construct_external_cocycle",
    "represent.character",
)
PER_LAYER_DISTINCT = ("weights.enumerate_admissible", "weights.orbits")
PER_LAYER_FUNCTION_TIMES = (
    "factorize.restrict_cocycle",
    "weights.enumerate_admissible",
    "weights.orbits",
    "cohomology.brute_force_class_count",
    "cli.run",
    "graph.parse_graph",
)
PER_LAYER_LAYER_TIMES = (
    "circle",
    "factorize",
    "weights",
    "graph",
    "f2",
    "cohomology",
    "external",
    "represent",
)


class BenchError(Exception):
    pass


def worker(args, *extra: str, timeout: float) -> dict:
    """Run worker.py in a fresh process and return its JSON result."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        *extra,
    ]
    # a fixed hash seed makes set iteration, and so call counts, repeatable
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout:.0f} s: {' '.join(extra)}")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    setups = [
        worker(args, "--setup-only", timeout=deadline - time.monotonic())
        for _ in range(SETUP_PROCESSES - 1)
    ]
    remaining = deadline - time.monotonic()
    run = worker(
        args,
        "--seconds",
        str(args.seconds),
        "--deadline",
        str(max(1.0, remaining - 30.0)),
        timeout=remaining,
    )
    lat = sorted(run["latencies"])
    n = len(lat)
    failed = len(run["failures"])
    pct = TAIL_PERCENTILE[args.workload]
    rank = max(1, -(-pct * n // 100))
    info = {
        "rounds": run["rounds"],
        "truncated": run["truncated"],
        "job_error_rate": failed / n,
        "tail_percentile": pct,
        "tail_samples": n,
        "tail_beyond": n - rank,
        "setup_samples": [s["setup_s"] for s in setups] + [run["setup_s"]],
        "failures": run["failures"][:20],
        "warmup_failures": [f for s in setups + [run] for f in s["warmup_failures"]],
    }
    metrics = {
        "jobs_per_s": metric(n / sum(lat), "1/s"),
        "job_p50_ms": metric(statistics.median(lat) * 1000, "ms"),
        "job_tail_ms": metric(lat[rank - 1] * 1000, "ms"),
        "setup_s": metric(statistics.median(info["setup_samples"]), "s"),
        "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
        "job_success_rate": metric(1 - failed / n, "ratio"),
    }
    return metrics, {"attempted": n, "failed": failed, **info}


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    rounds = ["--rounds", str(TRACE_ROUNDS[args.workload])]
    plain = worker(args, *rounds, timeout=deadline - time.monotonic())
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    traced = worker(
        args,
        *rounds,
        "--trace",
        "--trace-out",
        str(trace_path),
        timeout=deadline - time.monotonic(),
    )
    totals = traced["trace"]["totals"]
    layers = traced["trace"]["layer_self_s"]
    metrics = {}
    for name in PER_LAYER_COUNTS:
        metrics[f"{name}.calls"] = metric(totals[name]["calls"], "count")
    for name in PER_LAYER_DISTINCT:
        calls = totals[name]["calls"]
        metrics[f"{name}.distinct_ratio"] = metric(
            totals[name]["distinct"] / calls if calls else 0.0, "ratio"
        )
    for name in PER_LAYER_FUNCTION_TIMES:
        metrics[f"{name}.self_s"] = metric(totals[name]["self_s"], "s")
    for layer in PER_LAYER_LAYER_TIMES:
        metrics[f"{layer}.self_s"] = metric(layers[layer], "s")
    metrics["trace.overhead_ratio"] = metric(
        sum(traced["latencies"]) / sum(plain["latencies"]), "ratio"
    )
    failures = plain["failures"] + traced["failures"]
    info = {
        "jobs": len(traced["latencies"]),
        "rounds": traced["rounds"],
        "trace_file": str(trace_path.relative_to(ROOT)),
        "failures": failures[:20],
        "warmup_failures": plain["warmup_failures"] + traced["warmup_failures"],
    }
    attempted = len(plain["latencies"]) + len(traced["latencies"])
    return metrics, {"attempted": attempted, "failed": len(failures), **info}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="qcgraph benchmark")
    p.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENTILE))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "qcgraph" / "__init__.py").is_file():
        print(f"error: no qcgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT
    try:
        if args.trace:
            metrics, info = per_layer(args, deadline)
        else:
            metrics, info = end_to_end(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in info.pop("failures") + info["warmup_failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    correct = info["failed"] == 0 and not info.pop("warmup_failures")
    print(json.dumps({"workload": args.workload, "seed": args.seed, **info}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": info["attempted"],
                "failed": info["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
