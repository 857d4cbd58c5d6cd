"""gaussdesign benchmark: one workload per call, each in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of simulate_factorial, coverage_factorial, optimize_n3200,
analyze_n800, or ``all`` for the four in turn.  With ``--trace 0`` the
workload is set up SETUP_SAMPLES times (each in its own process; the last
one also runs the timed section) and the end-to-end metrics are printed.
With ``--trace 1`` a traced process gives the per-layer metrics.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  Run it from the repository root; the package is imported from
``src/``.  See perfbench/NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("simulate_factorial", "coverage_factorial", "optimize_n3200",
             "analyze_n800")
SETUP_SAMPLES = 3
# Whole-run budget; the contract allows 180 s per call.
BUDGET_S = 170.0
NPROC = len(os.sched_getaffinity(0))
# OpenBLAS threads per workload, fixed and capped at nproc.  Chosen on a
# 2-vCPU machine from runs alternating 1 and 2 threads (quartile spread /
# median of wall_s): coverage_factorial's many small products are steadier
# on 1 (0.11 vs 0.20), simulate_factorial (0.06 vs 0.16) and
# optimize_n3200 (0.06 vs 0.28) on 2.
BLAS_THREADS = {"simulate_factorial": 2, "coverage_factorial": 1,
                "optimize_n3200": 2, "analyze_n800": 2}

# End-to-end figures that apply to some workloads only, so they are printed
# here and not listed in BENCHMARK.json (which needs every metric on every
# workload): (name, unit, definition).
QUALITY = (("objective_ratio", "ratio", "final/initial PGD objective of the optimized design"),
           ("og_cr_mse_ratio", "ratio", "mean over tau_1, tau_2, tau_12 of MSE(og)/MSE(cr)"),
           ("ci_mean_width", "tau_1", "mean width of the randomization CIs that succeeded"),
           ("coverage", "ratio", "share of CIs covering tau_1 (a check, not a metric)"))


class BenchError(RuntimeError):
    pass


def worker_env(workload):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(BLAS_THREADS[workload], NPROC))
    return env


def spawn(workload, seed, seconds, mode, deadline):
    """Run worker.py in a new process; return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: time budget spent before {mode}")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--out-dir", str(OUT), "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(workload), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode}: timed out after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise BenchError(f"{workload} {mode}: worker exited {proc.returncode}")
    return json.loads(lines[-1])


def git_sha():
    """HEAD of the checkout if it is a git work tree, without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def host_env(seed):
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"nproc": NPROC, "ram_gib": round(ram / 2 ** 30, 2),
            "git_sha": git_sha(), "seed": seed,
            "platform": platform.platform()}


def run_workload(name, seed, seconds, trace, deadline):
    if trace:
        res = spawn(name, seed, seconds, "trace", deadline)
        res["metrics"] = res.pop("layer")
        return res
    setups = [spawn(name, seed, seconds, "setup", deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    res = spawn(name, seed, seconds, "run", deadline)
    setups.append(res["setup_s"])
    res["setups"] = setups
    res["metrics"] = {"wall_s": statistics.median(res["walls"]),
                      "setup_s": statistics.median(setups),
                      "peak_rss_mb": res["peak_rss_mb"]}
    return res


def report(name, res, trace, env, units):
    """Human-readable block: every metric by name with unit and sample count."""
    e = res["env"]
    print(f"== {name} seed={env['seed']} trace={trace}")
    print(f"   env: python {e['python']} numpy {e['numpy']} scipy {e['scipy']} "
          f"blas {e['blas']} threads={e['blas_threads']} nproc={env['nproc']} "
          f"ram={env['ram_gib']}GiB git={env['git_sha'][:12]}")
    m, q = res["metrics"], res["quality"]
    if trace:
        rows = [(k, m[k], units[k], "traced run") for k in units]
    else:
        rows = [("wall_s", m["wall_s"], "s",
                 f"median of {len(res['walls'])} untraced timed section(s)"),
                ("setup_s", m["setup_s"], "s",
                 f"median of {len(res['setups'])} set-ups, each in a fresh process"),
                ("peak_rss_mb", m["peak_rss_mb"], "MB",
                 "ru_maxrss of the workload process, n=1")]
    rows.append(("ops_failed_frac", res["ops_failed"] / res["ops_attempted"], "ratio",
                 f"{res['ops_failed']}/{res['ops_attempted']} {res['ops_label']}"))
    for key, unit, what in QUALITY:
        if key in q:
            rows.append((key, q[key], unit, f"{what}, n=1"))
        else:
            rows.append((key, None, "", "n/a for this workload"))
    for key, value, unit, note in rows:
        shown = "n/a" if value is None else (
            str(value) if isinstance(value, int) else f"{value:.6g}")
        print(f"   {key:<44} {shown:>14} {unit:<8} {note}")
    status = "pass" if not res["failures"] else "FAIL: " + "; ".join(res["failures"])
    print(f"   checks: {status}; output digest {res['digest']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "gaussdesign" / "__init__.py").is_file():
        sys.exit(f"run.py: no package at {ROOT / 'src' / 'gaussdesign'}; "
                 "run from a full checkout")
    OUT.mkdir(exist_ok=True)
    env = host_env(args.seed)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + BUDGET_S * len(names)
    units = declared_units(args.trace)
    results = {}
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            if set(res["metrics"]) != set(units):
                raise BenchError(f"{name} metrics differ from BENCHMARK.json: "
                                 f"{sorted(set(res['metrics']) ^ set(units))}")
            report(name, res, args.trace, env, units)
            record = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
            record.write_text(json.dumps({"host": env, **res}, indent=1))
            results[name] = res
    except BenchError as exc:
        sys.exit(f"run.py: {exc}")

    metrics = {}
    for name, res in results.items():
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]}
                        for k, v in res["metrics"].items()})
    print(json.dumps({
        "correct": all(not r["failures"] for r in results.values()),
        "attempted": sum(r["executions"] for r in results.values()),
        "failed": sum(r["failed_executions"] for r in results.values()),
        "metrics": metrics,
    }))


def declared_units(trace):
    """Metric name -> unit, from BENCHMARK.json (per_layer when tracing)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    main()
