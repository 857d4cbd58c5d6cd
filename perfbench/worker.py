"""Run one benchmark workload in this fresh process; print a JSON result.

Started by run.py, never by hand.  Modes:

* ``setup``: set the workload up once and report ``setup_s``;
* ``run``: set up, repeat the untraced timed section until ``--seconds``
  have been measured (at least once), check the outputs;
* ``trace``: set up and run once untraced, then set up and run again with
  the tracer installed, and report the per-layer metrics.

``setup_s`` runs from ``--spawned-at`` (the parent's CLOCK_MONOTONIC just
before it started this process) to the end of set-up, so the interpreter
start and ``import gaussdesign`` are part of it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import warnings
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _no_span(name):
    return nullcontext()


def execute(workload, state, span):
    """One timed section; a raising execution is a failed one, not a fast one."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            out, error = workload.run(state, span), None
        except Exception as exc:  # boundary: report the failure, keep the run
            out, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    digest = None if error else workload.digest(state, out)
    return {"out": out, "error": error, "wall_s": wall, "digest": digest,
            "warnings": caught}


def checked(workload, state, ex):
    if ex["error"]:
        return {"failures": [ex["error"]], "ops_failed": workload.ops_total,
                "quality": {}, "layer": {}}
    return workload.check(state, ex["out"])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    import gaussdesign
    src = ROOT / "src"
    if not Path(gaussdesign.__file__).resolve().is_relative_to(src):
        sys.exit(f"worker: imported gaussdesign from {gaussdesign.__file__}, not {src}")
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = Path(args.out_dir) / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        state = workload.setup(args.seed, str(workdir))
        setup_s = time.monotonic() - args.spawned_at
        if args.mode == "setup":
            result = {"setup_s": setup_s}
        elif args.mode == "run":
            result = run_mode(workload, state, args.seconds, setup_s)
        else:
            result = trace_mode(workload, state, args, workdir)
    finally:
        shutil.rmtree(workdir)
    print(json.dumps(result))


def run_mode(workload, state, seconds, setup_s):
    first = execute(workload, state, _no_span)
    # Peak RSS of set-up plus one timed section, read before the checks run
    # and independent of how many executions fit in the run.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res = checked(workload, state, first)
    first["out"] = None
    executions = [first]
    while sum(e["wall_s"] for e in executions) < seconds:
        ex = execute(workload, state, _no_span)
        ex["out"] = None  # only the first output is checked in full
        executions.append(ex)
    failures = list(res["failures"])
    digests = [e["digest"] for e in executions]
    if len(set(digests)) != 1:
        failures.append(f"outputs differ between executions at one seed: {digests}")
    failed_executions = sum(1 for e in executions if e["error"]) or int(bool(failures))
    return {"setup_s": setup_s, "walls": [e["wall_s"] for e in executions],
            "peak_rss_mb": peak_rss_mb, "digest": first["digest"],
            "failures": failures, "executions": len(executions),
            "failed_executions": failed_executions,
            "ops_attempted": workload.ops_total, "ops_failed": res["ops_failed"],
            "ops_label": workload.ops_label,
            "quality": res["quality"], "env": environment()}


def trace_mode(workload, state, args, workdir):
    import gaussdesign
    from tracer import Tracer

    plain = execute(workload, state, _no_span)
    res = checked(workload, state, plain)
    tracer = Tracer()
    tracer.install(gaussdesign)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traced_state = workload.setup(args.seed, str(workdir))
        traced = execute(workload, traced_state, tracer.span)
    finally:
        tracer.uninstall()
    tracer.count_warnings(list(caught) + list(traced["warnings"]))
    failures = list(res["failures"])
    if traced["digest"] != plain["digest"]:
        failures.append(f"traced outputs {traced['digest']} != untraced {plain['digest']}")
    layer = tracer.layer_metrics()
    layer.update({"simbench.mc_coverage.replicate_p50_ms": 0.0,
                  "simbench.mc_coverage.replicate_p99_ms": 0.0,
                  "cli.sample.bytes_written": 0, "cli.exit_nonzero": 0})
    layer.update(res["layer"])
    layer["trace.wall_s"] = traced["wall_s"]
    layer["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    spans_path = Path(args.out_dir) / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.dump(spans_path)
    return {"walls": [plain["wall_s"]], "digest": plain["digest"],
            "failures": failures, "executions": 1,
            "failed_executions": int(bool(failures)),
            "ops_attempted": workload.ops_total, "ops_failed": res["ops_failed"],
            "ops_label": workload.ops_label,
            "quality": res["quality"], "layer": layer, "spans_file": str(spans_path),
            "env": environment()}


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


if __name__ == "__main__":
    main()
