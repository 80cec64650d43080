"""One workload in one fresh process: set-up, then rounds of jobs.

Usage (from the repository root):

    python3 perfbench/worker.py --workload census --seed 1 --seconds 30
    python3 perfbench/worker.py --workload census --seed 1 --setup-only
    python3 perfbench/worker.py --workload census --seed 1 --rounds 3 --trace

Set-up is timed from just before ``import qcgraph`` to the end of one
untimed warm-up job on an instance outside the timed set, and includes
generating the first round's inputs.  The timed phase runs whole rounds
until ``--seconds`` of job time have passed (or exactly ``--rounds``
rounds); each job's latency covers its call chain only, while generating a
round's inputs and checking outputs happen off the clock.  The last line
of standard output is one JSON object with the raw results.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run_round(jobs, tracer, r, latencies, failures):
    for i, job in enumerate(jobs):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = job.run()
            else:
                out = tracer.run_job(f"{r}.{i}", job.run)
            error = None
        except Exception as exc:  # a raising job is a failed job
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if error is None:
            try:
                error = job.check(out)
            except Exception as exc:  # output the check cannot even parse
                error = f"check raised {type(exc).__name__}: {exc}"
        job.cleanup()
        if error is not None:
            failures.append(f"{job.label}: {error}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--rounds", type=int, help="run exactly this many rounds")
    p.add_argument("--deadline", type=float, default=150.0,
                   help="start no round after this many wall seconds")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--trace-out", help="write the trace as JSON to this file")
    args = p.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        start = time.perf_counter()
        sys.path.insert(0, str(ROOT / "src"))
        qc = importlib.import_module("qcgraph")
        importlib.import_module("qcgraph.cli")
        workload = WORKLOADS[args.workload](args.seed, str(workdir), qc)
        jobs = workload.round(0)
        failures: list[str] = []
        _run_round([workload.warmup()], None, "warmup", [], failures)
        setup_s = time.perf_counter() - start
        result = {"setup_s": setup_s, "warmup_failures": failures}
        if not args.setup_only:
            result.update(_timed(args, workload, jobs, start))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another worker's directory is still there
            pass
    print(json.dumps(result))
    return 0


def _timed(args, workload, jobs, start) -> dict:
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    latencies: list[float] = []
    failures: list[str] = []
    r = 0
    truncated = False
    while True:
        _run_round(jobs, tracer, r, latencies, failures)
        r += 1
        if args.rounds is not None:
            if r >= args.rounds:
                break
        elif sum(latencies) >= args.seconds:
            break
        if time.perf_counter() - start > args.deadline:
            truncated = True
            break
        jobs = workload.round(r)
    out = {
        "rounds": r,
        "truncated": truncated,
        "latencies": latencies,
        "failures": failures,
    }
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = {
            "totals": tracer.totals(),
            "layer_self_s": tracer.layer_self_s(),
        }
        if args.trace_out:
            tracer.dump(args.trace_out)
    return out


if __name__ == "__main__":
    sys.exit(main())
