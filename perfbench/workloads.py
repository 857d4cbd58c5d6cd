"""The four benchmark workloads: set-up, timed section, digest and checks.

Every input is generated here from the benchmark seed; the program only sees
the generated inputs.  Each workload is a ``Workload`` of four functions:

* ``setup(seed, workdir)`` builds the inputs (and any design needed first);
* ``run(state, span)`` is the timed section; ``span(name)`` opens a trace
  span around a call (a no-op in untraced runs);
* ``digest(state, out)`` hashes the outputs, which must repeat at one seed;
* ``check(state, out)`` returns the correctness failures, the operation
  count with its failures, quality figures and per-layer extras.

Only public names of the package are used.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gaussdesign import (cli, covmap, elliptope, estimators, inference,
                         optimizer, rng, simbench)

# simulate_factorial / coverage_factorial: the README's `simulate` config.
FACTORIAL_DESIGNS = "bg,og,cr,rr"
FACTORIAL_REPLICATES = 10_000
FACTORIAL_ITERS = 200
COVERAGE_OUTER = 1_000
COVERAGE_INNER = 500
ALPHA = 0.05
# The check's coverage range.  Its upper end is 1.0, not 0.99: with the
# program unchanged, seeds 1 and 2 cover 1.000 and 0.995 of 1,000 draws.
COVERAGE_RANGE = (0.90, 1.0)

# optimize_n3200: two PGD iterations from the identity (full rank, k = n).
OPT_N, OPT_D, OPT_K, OPT_ITERS = 3200, 5, 3, 2
# pgd_gauss accepts a step when it raises the objective by at most this.
ACCEPT_SLACK = 1e-12
ROW_NORM_TOL = 1e-12

# analyze_n800: CSV inputs for the CLI.
AN_N, AN_D, AN_K, AN_RANK = 800, 5, 3, 20
AN_DRAWS, AN_RAND_B = 200, 2_000
AN_CONTRAST = (1.0, -1.0, 0.0)


@dataclass(frozen=True)
class Workload:
    name: str
    ops_label: str
    ops_total: int
    setup: Callable
    run: Callable
    digest: Callable
    check: Callable


def _hash(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()[:16]


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def _ratio_trace(trace):
    final = trace.rows[-1].objective if trace.rows else trace.initial_objective
    return final / trace.initial_objective


def _og_design(scenario, iters):
    """The og design exactly as run_scenario builds it, via the public API."""
    w = scenario.estimands[0].arm_weights
    problem = optimizer.design_problem(
        scenario.X, cmap=covmap.weighted_discrete_map(w, scenario.K), norm="nuc")
    return optimizer.pgd_gauss(problem, elliptope.identity_factor(scenario.n), iters)


# -- simulate_factorial -------------------------------------------------------

def setup_simulate(seed, workdir):
    return {"seed": seed,
            "config": {"generator": "factorial", "seed": seed,
                       "designs": FACTORIAL_DESIGNS,
                       "replicates": FACTORIAL_REPLICATES,
                       "iters": FACTORIAL_ITERS}}


def run_simulate(state, span):
    return simbench.run_scenario(dict(state["config"]))


def digest_simulate(state, report):
    return _hash([(r.design, r.estimand, _hex([r.mse, r.balance_objective_nuc]))
                  for r in report.rows])


def check_simulate(state, report):
    rows = {(r.design, r.estimand): r for r in report.rows}
    labels = sorted({r.estimand for r in report.rows})
    failures = []
    ratios = []
    for e in labels:
        og, cr, bg = rows[("og", e)], rows[("cr", e)], rows[("bg", e)]
        if not og.mse <= cr.mse:
            failures.append(f"{e}: MSE(og) {og.mse:.6g} > MSE(cr) {cr.mse:.6g}")
        if not og.balance_objective_nuc < bg.balance_objective_nuc:
            failures.append(f"{e}: og balance {og.balance_objective_nuc:.6g} "
                            f">= bg balance {bg.balance_objective_nuc:.6g}")
        ratios.append(og.mse / cr.mse)
    # run_scenario does not return its og trace; rebuilding the design
    # (a pure function of the seed) gives it back.
    _, trace = _og_design(simbench.gen_factorial(state["seed"]), FACTORIAL_ITERS)
    return {"failures": failures, "ops_failed": 0,
            "quality": {"objective_ratio": _ratio_trace(trace),
                        "og_cr_mse_ratio": float(np.mean(ratios))},
            "layer": {}}


# -- coverage_factorial -------------------------------------------------------

def setup_coverage(seed, workdir):
    scenario = simbench.gen_factorial(seed)
    factor, trace = _og_design(scenario, FACTORIAL_ITERS)
    return {"scenario": scenario, "estimand": scenario.estimands[0],
            "factor": factor, "trace": trace,
            "design": simbench.GaussianDesign(factor, name="og"),
            "mc_seed": rng.derive_seed(seed, 12)}


def run_coverage(state, span):
    scenario, factor = state["scenario"], state["factor"]
    w = state["estimand"].arm_weights
    widths, failed, stamps = [], [], []

    def procedure(records, ci_seed):
        # The same procedure run_scenario builds.  A replicate whose CI
        # raises (an outer draw with an empty arm) is kept as a miss.
        try:
            interval = inference.randomization_ci_discrete(
                records, factor, scenario.K, w, COVERAGE_INNER, ALPHA, ci_seed)
        except ValueError:
            failed.append(len(stamps))
            interval = inference.IntervalReport(lower=float("nan"), upper=float("nan"),
                                                alpha=ALPHA, method="failed")
        else:
            widths.append(interval.width)
        stamps.append(time.perf_counter())
        return interval

    start = time.perf_counter()
    result = simbench.mc_coverage(scenario, state["design"], state["estimand"],
                                  procedure, COVERAGE_OUTER, state["mc_seed"])
    return {"coverage": result["coverage"], "widths": widths, "failed": failed,
            "replicate_s": np.diff([start] + stamps)}


def digest_coverage(state, out):
    return _hash(_hex(out["coverage"]), _hex(out["widths"]), out["failed"])


def check_coverage(state, out):
    failures = []
    lo, hi = COVERAGE_RANGE
    if not lo <= out["coverage"] <= hi:
        failures.append(f"coverage {out['coverage']} outside [{lo}, {hi}]")
    # Direct count of the outer draws that leave an arm empty.
    K = state["scenario"].K
    arms = state["design"].arms(state["mc_seed"], np.arange(COVERAGE_OUTER), K)
    empty = [b for b in range(COVERAGE_OUTER)
             if np.unique(arms[b]).size < K]
    if out["failed"] != empty:
        failures.append(f"CI failures at replicates {out['failed']} != "
                        f"empty-arm draws {empty}")
    ms = 1e3 * np.asarray(out["replicate_s"])
    return {"failures": failures, "ops_failed": len(out["failed"]),
            "quality": {"objective_ratio": _ratio_trace(state["trace"]),
                        "ci_mean_width": float(np.mean(out["widths"])),
                        "coverage": out["coverage"]},
            "layer": {"simbench.mc_coverage.replicate_p50_ms": float(np.percentile(ms, 50)),
                      "simbench.mc_coverage.replicate_p99_ms": float(np.percentile(ms, 99))}}


# -- optimize_n3200 -----------------------------------------------------------

def setup_optimize(seed, workdir):
    X = np.random.default_rng(seed).standard_normal((OPT_N, OPT_D))
    cmap = covmap.weighted_discrete_map(np.full(OPT_K, 1.0 / OPT_K), OPT_K)
    return {"problem": optimizer.design_problem(X, cmap=cmap, norm="nuc"),
            "init": elliptope.identity_factor(OPT_N)}


def run_optimize(state, span):
    return optimizer.pgd_gauss(state["problem"], state["init"], OPT_ITERS)


def digest_optimize(state, out):
    factor, trace = out
    return _hash(factor.rows.tobytes(), _hex([trace.initial_objective]),
                 _hex(trace.objectives))


def check_optimize(state, out):
    factor, trace = out
    failures = []
    objs = np.concatenate([[trace.initial_objective], trace.objectives])
    if np.any(np.diff(objs) > ACCEPT_SLACK):
        failures.append(f"objective trace increases: {objs.tolist()}")
    if len(trace.rows) != OPT_ITERS:
        failures.append(f"{len(trace.rows)} iterations run, {OPT_ITERS} asked")
    if not objs[-1] < objs[0]:
        failures.append(f"objective did not fall: {objs[0]} -> {objs[-1]}")
    dev = float(np.max(np.abs(np.linalg.norm(factor.rows, axis=1) - 1.0)))
    if dev > ROW_NORM_TOL:
        failures.append(f"factor row norm off by {dev:.3g}")
    return {"failures": failures, "ops_failed": 0,
            "quality": {"objective_ratio": float(objs[-1] / objs[0])}, "layer": {}}


# -- analyze_n800 -------------------------------------------------------------

def setup_analyze(seed, workdir):
    from scipy.special import ndtri

    g = np.random.default_rng(seed)
    X = g.standard_normal((AN_N, AN_D))
    V = g.standard_normal((AN_N, AN_RANK))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    T = V @ g.standard_normal(AN_RANK)
    D = np.searchsorted(ndtri(np.arange(1, AN_K) / AN_K), T, side="left") + 1
    Y = 1.0 + X @ g.normal(0.0, 1.0, AN_D) + np.array([0.0, 0.5, 1.0])[D - 1] \
        + 0.5 * g.standard_normal(AN_N)
    paths = {k: os.path.join(workdir, f"{k}.csv")
             for k in ("factor", "records", "draws", "estimate", "ci_normal",
                       "ci_randomization")}
    np.savetxt(paths["factor"], V, delimiter=",", fmt="%.17g")
    with open(paths["records"], "w") as fh:
        fh.write("unit,T,D,Y," + ",".join(f"x{j + 1}" for j in range(AN_D)) + "\n")
        for i in range(AN_N):
            fh.write(",".join([str(i + 1), f"{T[i]:.17g}", str(D[i]), f"{Y[i]:.17g}"]
                              + [f"{x:.17g}" for x in X[i]]) + "\n")
    contrast = "contrast:" + ",".join(f"{c:g}" for c in AN_CONTRAST)
    common = ["--records", paths["records"], "--arms", str(AN_K)]
    commands = [
        ("sample", ["sample", "--factor", paths["factor"], "--draws", str(AN_DRAWS),
                    "--seed", str(seed), "--discretize", str(AN_K),
                    "--out", paths["draws"]]),
        ("estimate", ["estimate", *common, "--estimand", contrast,
                      "--out", paths["estimate"]]),
        ("ci_normal", ["ci", *common, "--factor", paths["factor"], "--method", "normal",
                       "--estimand", "arm:1", "--out", paths["ci_normal"]]),
        ("ci_randomization", ["ci", *common, "--factor", paths["factor"],
                              "--method", "randomization", "--estimand", contrast,
                              "--replicates", str(AN_RAND_B), "--seed", str(seed + 1),
                              "--out", paths["ci_randomization"]]),
    ]
    return {"paths": paths, "commands": commands, "V": V, "X": X, "T": T, "D": D, "Y": Y}


def run_analyze(state, span):
    paths = state["paths"]
    codes = {}
    for label, argv in state["commands"]:
        with span(f"cli.{label}"):
            codes[label] = cli.main(argv)
    # The CLI has no subcommand for the conservative bound.
    records = estimators.records_from_csv(paths["records"])
    factor = elliptope.load_factor(paths["factor"])
    bound = inference.aronow_samii_bound(records, factor, np.array(AN_CONTRAST), AN_K)
    return {"codes": codes, "bound": bound}


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _csv_row(path):
    """The single data row of a header + one-row CSV, as a dict."""
    header, row = _read(path).decode().strip().split("\n")
    return dict(zip(header.split(","), row.split(",")))


def digest_analyze(state, out):
    p = state["paths"]
    files = [_read(p[k]) for k in ("draws", "estimate", "ci_normal", "ci_randomization")
             if os.path.exists(p[k])]
    return _hash(*files, out["codes"], _hex([out["bound"].point or 0.0]))


def check_analyze(state, out):
    p, codes, bound = state["paths"], out["codes"], out["bound"]
    records = estimators.ExperimentRecords(Y=state["Y"], X=state["X"], T=state["T"],
                                           D=state["D"])
    failed = [label for label, code in codes.items() if code != 0]
    # Known defect: the unbiased HT variance estimate can be negative (seed 8
    # of 0-19); normal_ci then raises and the CLI exits 2.  Counted as a
    # failed command, accepted only when the library confirms the cause.
    known = False
    if "ci_normal" in failed:
        point = inference.variance_ht_arm(
            records, elliptope.CorrelationFactor(state["V"]), 1, AN_K).point
        known = point is not None and point < 0.0
    failures = [f"cli {label} exited {codes[label]}" for label in failed
                if not (known and label == "ci_normal")]
    if failures:
        return {"failures": failures, "ops_failed": len(failed), "quality": {},
                "layer": {"cli.sample.bytes_written": 0, "cli.exit_nonzero": len(failed)}}
    w = np.array(AN_CONTRAST)
    expected = {"estimate": estimators.ht_contrast(records, w, AN_K),
                "ci_normal": estimators.ht_arm(records, 1, AN_K),
                "ci_randomization": estimators.ht_contrast(records, w, AN_K)}
    for label, value in expected.items():
        if label in failed:
            continue
        row = _csv_row(p[label])
        got = float(row["value"] if label == "estimate" else row["point"])
        if got != value:
            failures.append(f"cli {label} point {got!r} != library {value!r}")
        if label != "estimate" and not float(row["lower"]) <= float(row["upper"]):
            failures.append(f"cli {label} bounds out of order: {row}")
    lines = _read(p["draws"]).count(b"\n")
    if lines != 1 + AN_DRAWS * AN_N:
        failures.append(f"draws.csv has {lines} lines, expected {1 + AN_DRAWS * AN_N}")
    if not (bound.well_defined and bound.point >= 0.0):
        failures.append(f"Aronow-Samii bound {bound.point} (well defined: "
                        f"{bound.well_defined})")
    return {"failures": failures, "ops_failed": len(failed), "quality": {},
            "layer": {"cli.sample.bytes_written": os.path.getsize(p["draws"]),
                      "cli.exit_nonzero": len(failed)}}


WORKLOADS = {w.name: w for w in (
    Workload("simulate_factorial", "MC cells (design x estimand)", 12,
             setup_simulate, run_simulate, digest_simulate, check_simulate),
    Workload("coverage_factorial", "outer replicates", COVERAGE_OUTER,
             setup_coverage, run_coverage, digest_coverage, check_coverage),
    Workload("optimize_n3200", "pgd_gauss calls", 1,
             setup_optimize, run_optimize, digest_optimize, check_optimize),
    Workload("analyze_n800", "CLI commands + library bound", 5,
             setup_analyze, run_analyze, digest_analyze, check_analyze),
)}
