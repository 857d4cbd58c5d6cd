"""Command-line front end.

Subcommands: optimize, sample, estimate, ci, simulate, covmap-table.
All file I/O is CSV; ``simulate`` also reads a line-oriented ``key = value``
config ('#' starts a comment, unknown keys are rejected).  Exit codes:
0 success, 2 usage/input error, 3 computation error (running out of memory
included).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import elliptope
from .covmap import (discretize, f_arm, f_cross, quantile_thresholds,
                     weighted_discrete_map)
from .elliptope import identity_factor, load_factor
from .estimators import (EstimandSpec, WeightFn, records_from_csv, rescale_treatment,
                         write_rows)
from .hermite import continuous_cov_maps
from .inference import (ContinuousModelSpec, EmptyArmError, aronow_samii_bound, normal_ci,
                        randomization_ci_continuous, randomization_ci_discrete)
from .optimizer import (DesignProblem, FixedStep, OptimizationError,
                        discrete_problem, pgd_gauss)
from .simbench import run_scenario

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_COMPUTE = 3


class UsageError(ValueError):
    pass


class ComputeError(RuntimeError):
    pass


def parse_config(path):
    """Line-oriented key = value config; '#' comments; fail-closed keys (an
    unknown or repeated key is a UsageError)."""
    config, seen = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise UsageError(f"{path}:{lineno}: empty key")
            if key in seen:
                raise UsageError(f"{path}:{lineno}: key {key!r} repeated "
                                 f"(first set on line {seen[key]})")
            config[key], seen[key] = value, lineno
    return config


def _is_number(field):
    try:
        float(field)
    except ValueError:
        return False
    return True


def _load_covariates(path):
    try:
        X = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        # an optional x1..xd header line: one whose fields are all non-numeric;
        # a numeric first line is data, so the error stands
        with open(path) as fh:
            if any(map(_is_number, fh.readline().split(","))):
                raise UsageError(f"{path}: {exc}") from None
        X = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if not np.all(np.isfinite(X)):
        raise UsageError(f"{path}: covariates contain non-finite values")
    return X


def _values(flag, text, count, kind=float):
    """The ``count`` comma-separated ``kind`` values of ``text``, given to
    ``flag``; a UsageError naming the flag otherwise."""
    try:
        values = [kind(v) for v in text.split(",")]
    except ValueError:
        values = []
    if len(values) != count:
        raise UsageError(f"{flag} needs {count} comma-separated {kind.__name__} "
                         f"values, got {text!r}")
    return values


def _parse_weight(spec):
    """The WeightFn of ``tag[:p1,p2,..]``, made by the WeightFn constructor
    named by the tag."""
    tag, _, params = spec.partition(":")
    if tag not in ("interval", "first_derivative", "second_derivative"):
        raise UsageError(f"unknown weight tag {tag!r}; expected interval, "
                         "first_derivative or second_derivative")
    try:
        vals = [float(v) for v in params.split(",")] if params else []
        return getattr(WeightFn, tag)(*vals)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad --weight spec {spec!r}: {exc}") from None


def _fmt(x):
    return f"{x:.17g}"


def cmd_optimize(args):
    X = _load_covariates(args.covariates)
    norms = elliptope._row_norms(X)
    if args.normalize_rows:
        if np.any(norms == 0):
            raise UsageError("cannot row-normalize: zero covariate row")
        X = X / norms[:, None]
    elif np.any(np.abs(norms - 1.0) > 0.5):
        print("warning: covariate rows far from unit norm; "
              "pass --normalize-rows to enforce the unit-norm convention",
              file=sys.stderr)
    if args.arms is not None:
        K = args.arms
        quantile_thresholds(K)   # rejects K outside [2, 64] before 1 / K is formed
        w = np.full(K, 1.0 / K) if args.contrast is None else \
            _values("--contrast", args.contrast, K)
        problem = discrete_problem(X, w, args.norm)
    elif args.continuous:
        weight = _parse_weight(args.weight or "first_derivative")
        y0_slope, y0_icept = args.y0_slope, args.y0_intercept

        def y0(t):
            return y0_icept + y0_slope * np.asarray(t, dtype=float)

        pair = continuous_cov_maps(y0, weight)
        problem = DesignProblem(X=X, maps=(pair.map_y0w, pair.map_w),
                                weights=np.ones(2), norm=args.norm)
    else:
        raise UsageError("specify --arms K or --continuous")
    policy = FixedStep(args.step_size) if args.step_size is not None else None
    try:
        # the identity start is not named here, so it is freed once PGD
        # steps off it
        factor, trace = pgd_gauss(problem, identity_factor(X.shape[0]), args.iters, policy)
    except OptimizationError as exc:
        raise ComputeError(f"optimization failed: {exc}") from exc
    os.makedirs(args.out_dir, exist_ok=True)
    elliptope.save_factor(os.path.join(args.out_dir, "factor.csv"), factor)
    trace.to_csv(os.path.join(args.out_dir, "trace.csv"))
    final = trace.rows[-1].objective if trace.rows else trace.initial_objective
    print(f"optimize: objective {_fmt(trace.initial_objective)} -> {_fmt(final)} "
          f"({len(trace.rows)} iterations); outputs in {args.out_dir}")
    return EXIT_OK


def cmd_sample(args):
    # load_factor rejects rows off unit norm, so V V^T is on the elliptope
    factor = load_factor(args.factor)
    if args.draws < 1:
        raise UsageError("need at least one draw")
    cols = ["unit", "rep", "T"]
    row_format = "%d,%d,%.17g"
    extra = []   # the optional columns, each a function of a chunk of draws
    if args.discretize is not None:
        thresholds = quantile_thresholds(args.discretize)
        extra.append(lambda t: discretize(t, thresholds))
        cols.append("D")
        row_format += ",%d"
    if args.rescale is not None:
        a, b = args.rescale
        if not a < b:
            raise UsageError("--rescale needs a < b")
        extra.append(lambda t: rescale_treatment(t, a, b))
        cols.append("T_rescaled")
        row_format += ",%.17g"
    units = list(range(1, factor.n + 1))
    out = args.out or "draws.csv"
    with open(out, "w") as fh:
        fh.write(",".join(cols) + "\n")
        # one chunk of replicates at a time, never the B x n draws
        for lo, hi, draws in elliptope._draw_chunks(factor, args.draws, args.seed):
            columns = [draws] + [column(draws) for column in extra]
            for b_idx in range(hi - lo):
                write_rows(fh, row_format, [units, [lo + b_idx + 1] * factor.n]
                           + [c[b_idx] for c in columns])
    print(f"sample: wrote {args.draws} x {factor.n} draws to {out}")
    return EXIT_OK


def _estimand_from_args(args):
    if args.estimand.startswith("arm:"):
        if args.arms is None:
            raise UsageError("arm estimand needs --arms K")
        quantile_thresholds(args.arms)   # rejects K outside [2, 64]
        return EstimandSpec.arm(int(args.estimand[4:]), args.arms)
    if args.estimand.startswith("contrast:"):
        if args.arms is None:
            raise UsageError("contrast estimand needs --arms K")
        quantile_thresholds(args.arms)
        w = _values("--estimand contrast", args.estimand[9:], args.arms)
        return EstimandSpec.contrast(w, args.arms)
    if args.estimand == "continuous":
        return EstimandSpec.continuous(_parse_weight(args.weight or "first_derivative"))
    raise UsageError(f"bad --estimand {args.estimand!r}; expected arm:k, "
                     "contrast:w1,..,wK or continuous")


def cmd_estimate(args):
    records = records_from_csv(args.records)
    spec = _estimand_from_args(args)
    line = f"{spec.label},{_fmt(spec.estimate(records))}"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("estimand,value\n" + line + "\n")
    print(line)
    return EXIT_OK


_MODEL_TERMS = {"1", "x", "t", "t2", "t3", "xt", "xt2", "xt3"}


def _model_regressors(spec):
    terms = [s.strip() for s in spec.split(",") if s.strip()]
    bad = set(terms) - _MODEL_TERMS
    if bad:
        raise UsageError(f"unknown model terms {sorted(bad)}; "
                         f"choose from {sorted(_MODEL_TERMS)}")

    def build(X, t):
        t = np.asarray(t, dtype=float)
        cols = []
        for term in terms:
            if term == "1":
                cols.append(np.ones((t.size, 1)))
            elif term.startswith("x") and X is None:
                raise UsageError(f"model term {term!r} needs covariate columns "
                                 "x1..xd in the records")
            elif term == "x":
                cols.append(X)
            elif term.startswith("xt"):
                p = int(term[2:]) if term[2:] else 1
                cols.append(X * t[:, None] ** p)
            else:
                p = int(term[1:]) if term[1:] else 1
                cols.append(t[:, None] ** p)
        return np.hstack(cols)

    return build


def cmd_ci(args):
    records = records_from_csv(args.records)
    factor = load_factor(args.factor)
    spec = _estimand_from_args(args)
    point = spec.estimate(records)
    if args.method == "normal":
        if spec.w is None:
            raise UsageError("the normal CI needs an arm or contrast estimand")
        report = aronow_samii_bound(records, factor, spec.arm_weights, spec.K)
        if not report.well_defined:
            raise ComputeError(
                f"variance estimator not well-defined: minimum joint probability "
                f"{report.min_joint_prob:.3g} <= 1e-8")
        if report.point < 0:
            raise ComputeError(
                f"variance estimate {_fmt(report.point)} is negative; the "
                f"unbiased estimator gives no normal interval for this sample")
        interval = normal_ci(point, report.point, records.n, args.alpha)
    elif spec.w is None:
        model = ContinuousModelSpec(
            regressors=_model_regressors(args.model or "1,x,t"),
            weight=spec.weight)
        interval = randomization_ci_continuous(
            records, factor, model, args.replicates, args.alpha, args.seed)
    else:
        try:
            interval = randomization_ci_discrete(
                records, factor, spec.K, spec.arm_weights, args.replicates, args.alpha, args.seed)
        except EmptyArmError as exc:
            raise ComputeError(str(exc)) from exc
    header = "method,estimand,point,lower,upper,alpha,B,well_defined"
    row = (f"{interval.method},{spec.label},{_fmt(point)},{_fmt(interval.lower)},"
           f"{_fmt(interval.upper)},{interval.alpha},"
           f"{interval.replicates or ''},True")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(header + "\n" + row + "\n")
    print(row)
    return EXIT_OK


def cmd_simulate(args):
    config = parse_config(args.config) if args.config else {}
    if args.generator:
        config["generator"] = args.generator
    if args.seed is not None:
        config["seed"] = args.seed
    if args.replicates is not None:
        config["replicates"] = args.replicates
    if "generator" not in config:
        raise UsageError("simulate needs a generator (config key or --generator)")
    try:
        report = run_scenario(config)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = args.out or "report.csv"
    report.to_csv(out)
    print(f"simulate: wrote {len(report.rows)} rows to {out}")
    return EXIT_OK


def cmd_covmap_table(args):
    K = args.arms
    quantile_thresholds(K)   # rejects K outside [2, 64] before a weight count is asked for
    if args.cross:
        k, l = _values("--cross", args.cross, 2, int)
        cmap = f_cross(K, k, l)
    elif args.weights:
        cmap = weighted_discrete_map(_values("--weights", args.weights, K), K)
    else:
        cmap = f_arm(K, args.arm)
    grid = np.linspace(-1.0, 1.0, args.grid)
    f_vals = cmap.eval(grid)
    interior = np.abs(grid) < 1.0
    d_vals = np.full(grid.shape, np.inf)  # f' diverges at the endpoints
    d_vals[interior] = cmap.deriv(grid[interior])
    out = args.out or "covmap_table.csv"
    with open(out, "w") as fh:
        fh.write("rho,f,f_prime\n")
        write_rows(fh, "%.17g,%.17g,%.17g", [grid, f_vals, d_vals])
    print(f"covmap-table: wrote {args.grid} rows to {out}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gaussdesign",
        description="Balance-optimized Gaussian correlation designs for "
                    "randomized experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="optimize a design from covariates")
    p.add_argument("--covariates", required=True)
    p.add_argument("--arms", type=int)
    p.add_argument("--contrast", help="comma-separated arm weights (default equal)")
    p.add_argument("--continuous", action="store_true")
    p.add_argument("--weight", help="continuous weight spec, e.g. first_derivative:0,1")
    p.add_argument("--y0-slope", type=float, default=0.0)
    p.add_argument("--y0-intercept", type=float, default=1.0)
    p.add_argument("--norm", choices=("nuc", "op"), default="nuc")
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--step-size", type=float, help="fixed step (default: backtracking)")
    p.add_argument("--normalize-rows", action="store_true")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("sample", help="sample treatments from a factor")
    p.add_argument("--factor", required=True)
    p.add_argument("--draws", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--discretize", type=int, metavar="K")
    p.add_argument("--rescale", type=float, nargs=2, metavar=("A", "B"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("estimate", help="Horvitz-Thompson point estimates")
    p.add_argument("--records", required=True)
    p.add_argument("--estimand", required=True,
                   help="arm:k | contrast:w1,..,wK | continuous")
    p.add_argument("--arms", type=int)
    p.add_argument("--weight")
    p.add_argument("--out")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("ci", help="design-based confidence intervals")
    p.add_argument("--records", required=True)
    p.add_argument("--factor", required=True)
    p.add_argument("--method", choices=("normal", "randomization"), default="normal")
    p.add_argument("--estimand", required=True)
    p.add_argument("--arms", type=int)
    p.add_argument("--weight")
    p.add_argument("--model", help="randomization imputation terms, e.g. 1,x,t,t3")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--replicates", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ci)

    p = sub.add_parser("simulate", help="Monte Carlo benchmark of designs")
    p.add_argument("--config")
    p.add_argument("--generator")
    p.add_argument("--seed", type=int)
    p.add_argument("--replicates", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("covmap-table", help="dump a covariance map as CSV")
    p.add_argument("--arms", type=int, required=True)
    p.add_argument("--arm", type=int, default=1)
    p.add_argument("--cross", help="k,l for a cross-arm map")
    p.add_argument("--weights", help="comma-separated weights for the combined map")
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--out")
    p.set_defaults(func=cmd_covmap_table)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (UsageError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except np.linalg.LinAlgError as exc:  # a ValueError subclass, but a compute failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ComputeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
