"""Scenario generators, baseline designs, and the Monte Carlo benchmark engine.

Three scenario families are generated with fixed, seed-reproducible data:

* three-arm (n = 18, d = 5): linear noiseless outcomes Y(k) = X beta_k, with
  either one dominant covariate or uniformly scaled covariates;
* factorial (n = 100, d = 5): two binary factors encoded as D = 1 + 2A + B
  with main effects tau_1, tau_2 and interaction tau_12 = 0.25;
* continuous: region dummies plus covariates with linear / cubic / quadratic
  treatment responses, estimated through Stein-lemma weights.

Baseline designs are complete randomization and Mahalanobis rerandomization;
Gaussian designs are wrapped factors (identity or optimized).  All Monte
Carlo replicates read from counter-based RNG substreams keyed by replicate
index, so every number below is a pure function of (scenario seed, run seed).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincinv

from . import rng
from .covmap import (apply_map, discretize, f_arm, quantile_thresholds,
                     weighted_discrete_map)
from .elliptope import CorrelationFactor, identity_factor
from .estimators import (EstimandSpec, ExperimentRecords, WeightFn,
                         true_estimand, weight_eval)
from .inference import randomization_ci_discrete
from .optimizer import DesignProblem, pgd_gauss

_CHUNK = 4096
_RERAND_CAP = 100_000
_BALANCE_DRAWS = 2000   # B_emp of the Monte Carlo balance measure


@dataclass(frozen=True)
class Scenario:
    """Fixed covariates, potential outcomes, and target estimands."""

    name: str
    seed: int
    X: np.ndarray
    K: int = None
    potential_outcomes: np.ndarray = None       # (n, K) table, discrete case
    response_intercept: np.ndarray = None       # c_i, continuous case
    response_slope: np.ndarray = None           # s_i, continuous case
    response_power: int = None                  # Y_i(t) = c_i + s_i t^power
    estimands: tuple = ()
    params: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def d(self):
        return self.X.shape[1]

    def responses(self, t):
        """Response matrix Y_i(t_j) of shape (n, len(t))."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return self.response_intercept[:, None] \
            + self.response_slope[:, None] * t[None, :] ** self.response_power

    def response_at(self, t_matrix):
        """Y_i(T_bi) for a (B, n) matrix of treatments."""
        t = np.asarray(t_matrix, dtype=float)
        return self.response_intercept + self.response_slope * t ** self.response_power

    def observed_outcomes(self, arms):
        """Pick Y_i(D_i) from the table for a (B, n) or (n,) arm array."""
        arms = np.asarray(arms)
        n_idx = np.arange(self.n)
        if arms.ndim == 1:
            return self.potential_outcomes[n_idx, arms - 1]
        return self.potential_outcomes[n_idx[None, :], arms - 1]


def _exp1(u):
    """Exponential(rate 1) from uniforms."""
    return -np.log(u)


def gen_three_arm(variant, seed) -> Scenario:
    """Three-arm linear scenario, n = 18, d = 5, Y(k) = X beta_k."""
    if variant not in ("single_feature", "uniform"):
        raise ValueError(f"unknown three-arm variant {variant!r}")
    n, d, K = 18, 5, 3
    zx = rng.normals(rng.derive_seed(seed, 1), np.arange(n), d)
    ub = rng.uniforms(rng.derive_seed(seed, 2), np.arange(d), K)
    if variant == "single_feature":
        X = 0.1 * zx
        X[:, 0] = 2.0 + 3.0 * zx[:, 0]
        beta = 2.0 * _exp1(ub)
        beta[0, :] += 2.0
    else:
        X = 3.6 * zx
        beta = 2.0 * _exp1(ub)
    Y = X @ beta
    estimands = (EstimandSpec.contrast(np.full(K, 1.0 / K), K, label="equal_weight"),)
    estimands += tuple(EstimandSpec.arm(k, K) for k in range(1, K + 1))
    return Scenario(name=f"three_arm_{variant}", seed=int(seed), X=X, K=K,
                    potential_outcomes=Y, estimands=estimands,
                    params={"variant": variant})


def gen_factorial(seed) -> Scenario:
    """Two-factor design encoded as D = 1 + 2A + B, n = 100, d = 5."""
    n, d = 100, 5
    X = rng.normals(rng.derive_seed(seed, 1), np.arange(n), d)
    eps = 0.1 * rng.normals(rng.derive_seed(seed, 2), np.arange(n), 1)[:, 0]
    b1 = np.array([-1.0, -1.0, -2.0 / 3.0, -6.0 / 5.0, 0.0])
    b2 = np.array([0.0, 0.0, -8.0 / 5.0, 8.0 / 5.0, 8.0 / 5.0])
    b3 = np.array([2.0, 2.0, 2.0, 0.0, 0.0])
    table = np.empty((n, 4))
    for a in (0, 1):
        for b in (0, 1):
            arm = 1 + 2 * a + b
            table[:, arm - 1] = (X @ b1 + a * (X @ b2) + b * (0.2 + X @ b3)
                                 + 0.5 * a * b + eps)
    halves = 0.5 * np.array([
        [-1.0, -1.0, +1.0, +1.0],   # main effect of A
        [-1.0, +1.0, -1.0, +1.0],   # main effect of B
        [+1.0, -1.0, -1.0, +1.0],   # interaction
    ])
    estimands = (
        EstimandSpec.contrast(halves[0], 4, label="tau_1"),
        EstimandSpec.contrast(halves[1], 4, label="tau_2"),
        EstimandSpec.contrast(halves[2], 4, label="tau_12"),
    )
    return Scenario(name="factorial", seed=int(seed), X=X, K=4,
                    potential_outcomes=table, estimands=estimands)


def gen_continuous(kind, n, seed, b=1.0) -> Scenario:
    """Continuous-treatment scenario with region dummies.

    Responses are Y_i(t) = c_i + s_i t^p with p = 1 (linear_slope),
    p = 3 (cubic_monotone) or p = 2 (quadratic_concave); s_i = b U_i' beta
    with negative region slopes beta, c_i collects the covariate terms and a
    fixed unit-level noise draw.
    """
    kinds = {"linear_slope": 1, "cubic_monotone": 3, "quadratic_concave": 2}
    if kind not in kinds:
        raise ValueError(f"unknown continuous scenario kind {kind!r}")
    if b < 0:
        raise ValueError("nonlinearity scale b must be nonnegative")
    power = kinds[kind]
    n_regions = 6
    region = (np.arange(n) % n_regions)
    U = np.eye(n_regions)[region]
    Xc = rng.normals(rng.derive_seed(seed, 1), np.arange(n), 3)
    coef = rng.normals(rng.derive_seed(seed, 2), np.arange(3), 6)
    alpha1, alpha2 = coef[0, :3], coef[1, :]
    beta = -0.2 - 0.3 * np.abs(coef[2, :])
    eps = 0.05 * rng.normals(rng.derive_seed(seed, 3), np.arange(n), 1)[:, 0]
    intercept = Xc @ alpha1 + U @ alpha2 + eps
    slope = b * (U @ beta) if power > 1 else U @ beta
    weight = WeightFn.second_derivative() if power == 2 else WeightFn.first_derivative()
    label = "tau_C" if power == 2 else ("tau_M" if power == 3 else "tau_L")
    estimands = (EstimandSpec.continuous(weight, label=label),)
    return Scenario(name=f"continuous_{kind}", seed=int(seed),
                    X=np.column_stack([Xc, U]),
                    response_intercept=intercept, response_slope=slope,
                    response_power=power, estimands=estimands,
                    params={"kind": kind, "b": float(b)})


def _cr_batch(n, K, seed, streams):
    """Complete-randomization assignments, one per RNG stream (rows)."""
    streams = np.asarray(streams)
    u = rng.uniforms(seed, streams, K + n)
    base, rem = divmod(n, K)
    full = np.empty((streams.size, n), dtype=int)
    full[:, :K * base] = np.repeat(np.arange(1, K + 1), base)[None, :]
    if rem:
        # leftover units get distinct arms chosen uniformly at random
        full[:, K * base:] = np.argsort(u[:, :K], axis=1)[:, :rem] + 1
    unit_order = np.argsort(u[:, K:], axis=1)
    return np.take_along_axis(full, unit_order, axis=1)


def design_cr(n, K, seed):
    """One complete-randomization assignment (equal split up to remainder)."""
    return _cr_batch(n, K, seed, np.arange(1))[0]


def _pairwise_mahalanobis_max(X, arms, K, S_inv):
    """Largest pairwise-arm Mahalanobis distance of covariate means.

    ``arms`` may be a single assignment (n,) or a batch (C, n); the result
    matches the leading shape.
    """
    arms = np.asarray(arms)
    batch = np.atleast_2d(arms)
    means = np.empty((K, batch.shape[0], X.shape[1]))
    counts = np.empty((K, batch.shape[0]))
    for k in range(1, K + 1):
        ind = (batch == k).astype(float)
        counts[k - 1] = ind.sum(axis=1)
        means[k - 1] = (ind @ X) / counts[k - 1][:, None]
    worst = np.zeros(batch.shape[0])
    for a in range(K):
        for b in range(a + 1, K):
            diff = means[a] - means[b]
            scale = 1.0 / counts[a] + 1.0 / counts[b]
            m = np.einsum("cd,de,ce->c", diff, S_inv, diff) / scale
            worst = np.maximum(worst, m)
    return worst if arms.ndim == 2 else float(worst[0])


def rerand_threshold(d, K, p_a):
    """Per-pair chi^2 cutoff giving joint acceptance ~ p_a (independence apx).

    The chi^2_d quantile is 2 * P^{-1}(d / 2, p), P the regularized lower
    incomplete gamma function; equal to ``scipy.stats.chi2.ppf`` without
    importing ``scipy.stats``.
    """
    pairs = K * (K - 1) // 2
    return float(2.0 * gammaincinv(d / 2.0, p_a ** (1.0 / pairs)))


def design_rerand(X, seed, p_a, K):
    """One rerandomized assignment: stream 0 of ``Rerandomization(X, p_a)``.

    CR candidates are redrawn until all pairwise-arm Mahalanobis distances
    pass the calibrated cutoff; after 1e5 redraws the best-seen assignment is
    returned with a warning.
    """
    return Rerandomization(X, p_a).arms(seed, np.arange(1), K)[0]


class GaussianDesign:
    """Design source sampling T = V z from a correlation factor."""

    def __init__(self, factor: CorrelationFactor, name="gaussian"):
        self.factor = factor
        self.name = name

    def latent(self, seed, streams):
        z = rng.normals(seed, streams, self.factor.k)
        return z @ self.factor.rows.T

    def arms(self, seed, streams, K):
        return discretize(self.latent(seed, streams), quantile_thresholds(K))


class CompleteRandomization:
    """Design source drawing independent complete randomizations."""

    name = "cr"

    def arms(self, seed, streams, K, n=None):
        if n is None:
            raise ValueError("CompleteRandomization.arms needs the unit count n")
        return _cr_batch(n, K, seed, streams)


class Rerandomization:
    """Design source for Mahalanobis-criterion rerandomization."""

    def __init__(self, X, p_a=0.01, name="rr"):
        if not 0 < p_a <= 1:
            raise ValueError("acceptance probability must lie in (0, 1]")
        self.X = np.asarray(X, dtype=float)
        self.p_a = float(p_a)
        self.name = name
        # np.cov gives a 0-d array for a single covariate
        self._S_inv = np.linalg.pinv(np.atleast_2d(np.cov(self.X, rowvar=False, ddof=1)))

    def arms(self, seed, streams, K):
        """Row b is the first accepted candidate for replicate streams[b];
        candidate t of replicate b draws from CR stream b * cap + t, so
        acceptance for one replicate never shifts another's stream."""
        streams = np.asarray(streams, dtype=np.uint64)
        n, d = self.X.shape
        thr = rerand_threshold(d, K, self.p_a)
        out = np.empty((streams.size, n), dtype=int)
        best = np.empty_like(out)
        best_m = np.full(streams.size, np.inf)
        unresolved = np.arange(streams.size)
        t = 0
        while unresolved.size and t < _RERAND_CAP:
            cand_streams = streams[unresolved] * np.uint64(_RERAND_CAP) + np.uint64(t)
            cand = _cr_batch(n, K, seed, cand_streams)
            m = _pairwise_mahalanobis_max(self.X, cand, K, self._S_inv)
            improved = m < best_m[unresolved]
            best[unresolved[improved]] = cand[improved]
            best_m[unresolved[improved]] = m[improved]
            ok = m < thr
            out[unresolved[ok]] = cand[ok]
            unresolved = unresolved[~ok]
            t += 1
        if unresolved.size:
            warnings.warn(f"rerandomization cap exhausted for {unresolved.size} "
                          "replicate(s); returning best-seen assignments",
                          RuntimeWarning)
            out[unresolved] = best[unresolved]
        return out


def _draw(scenario, design, seed, streams):
    """One draw of ``design`` for ``streams``: (arms, latent).

    ``arms`` is the (B, n) arm matrix, or None for a continuous scenario
    (K is None); ``latent`` is the (B, n) Gaussian treatment matrix, or None
    for designs that only assign arms.
    """
    if isinstance(design, GaussianDesign):
        latent = design.latent(seed, streams)
        if scenario.K is None:
            return None, latent
        return discretize(latent, quantile_thresholds(scenario.K)), latent
    if isinstance(design, CompleteRandomization):
        return design.arms(seed, streams, scenario.K, n=scenario.n), None
    return design.arms(seed, streams, scenario.K), None


def _require_gaussian(design, specs):
    if not isinstance(design, GaussianDesign) \
            and any(e.kind == "continuous" for e in specs):
        raise ValueError("continuous estimands need a Gaussian design")


def _truth(scenario, estimand):
    if estimand.kind == "continuous":
        return true_estimand(scenario.responses, estimand)
    return true_estimand(scenario.potential_outcomes, estimand)


def _mse(est, truth):
    return float(np.mean((est - truth) ** 2))


def _estimates_discrete(scenario, arms_matrix, estimand):
    """Vectorized HT estimates from a (B, n) arm matrix."""
    K = scenario.K
    Y = scenario.observed_outcomes(arms_matrix)
    w = estimand.arm_weights
    return K / scenario.n * np.sum(w[arms_matrix - 1] * Y, axis=1)


def _estimates_continuous(scenario, t_matrix, estimand):
    Y = scenario.response_at(t_matrix)
    return np.mean(Y * weight_eval(estimand.weight, t_matrix), axis=1)


def mc_estimates(scenario, design, estimand, B, seed):
    """Estimates tau_hat over B replicates (counter substreams 0..B-1).

    ``estimand`` is one spec, giving a (B,) array, or a tuple of specs,
    giving one row per spec from the same draws: each chunk of streams is
    drawn once and scored for every spec.
    """
    specs = estimand if isinstance(estimand, tuple) else (estimand,)
    _require_gaussian(design, specs)
    out = np.empty((len(specs), B))
    for lo in range(0, B, _CHUNK):
        hi = min(lo + _CHUNK, B)
        arms, latent = _draw(scenario, design, seed, np.arange(lo, hi))
        for row, spec in zip(out, specs):
            if spec.kind == "continuous":
                row[lo:hi] = _estimates_continuous(scenario, latent, spec)
            else:
                row[lo:hi] = _estimates_discrete(scenario, arms, spec)
    return out if isinstance(estimand, tuple) else out[0]


def _check_replicates(B):
    if B < 100:
        raise ValueError("need at least 100 replicates")


def mc_mse(scenario, design, estimand, B, seed):
    """Monte Carlo mean squared error of the HT estimator."""
    _check_replicates(B)
    truth = _truth(scenario, estimand)
    return _mse(mc_estimates(scenario, design, estimand, B, seed), truth)


def mc_coverage(scenario, design, estimand, ci_procedure, B_outer, seed):
    """Coverage and mean width of a CI procedure over outer replicates.

    ``ci_procedure(records, ci_seed)`` builds one interval from one realized
    experiment; the experiment for outer replicate b is drawn from substream
    b and the procedure gets the derived seed (seed, b).
    """
    if B_outer < 100:
        raise ValueError("need at least 100 outer replicates")
    _require_gaussian(design, (estimand,))
    truth = _truth(scenario, estimand)
    hits = 0
    widths = np.empty(B_outer)
    for b in range(B_outer):
        arms, latent = _draw(scenario, design, seed, np.arange(b, b + 1))
        t = None if latent is None else latent[0]
        if estimand.kind == "continuous":
            records = ExperimentRecords(Y=scenario.response_at(latent)[0],
                                        X=scenario.X, T=t)
        else:
            records = ExperimentRecords(Y=scenario.observed_outcomes(arms[0]),
                                        X=scenario.X, T=t, D=arms[0])
        interval = ci_procedure(records, rng.derive_seed(seed, b))
        hits += interval.contains(truth)
        widths[b] = interval.width
    return {"coverage": hits / B_outer, "mean_width": float(np.mean(widths))}


def _nuclear_norm(M):
    if not np.all(np.isfinite(M)):
        return float("nan")
    return float(np.sum(np.linalg.svd(M, compute_uv=False)))


def _arm_nuclear_norms(scenario, design, seed, B_emp):
    """||X' Cov_k X||_nuc for every arm k, the terms of the balance measure.

    Gaussian designs use the exact analytic maps; assignment designs estimate
    the indicator covariance matrices from B_emp Monte Carlo draws.
    """
    X, K = scenario.X, scenario.K
    if isinstance(design, GaussianDesign):
        return [_nuclear_norm(X.T @ apply_map(f_arm(K, k), design.factor) @ X)
                for k in range(1, K + 1)]
    arms, _ = _draw(scenario, design, seed, np.arange(B_emp))
    return [_nuclear_norm(X.T @ np.cov((arms == k).astype(float), rowvar=False, ddof=1) @ X)
            for k in range(1, K + 1)]


def _weighted_balance(design, norms, w):
    """sum_k w_k^2 norms[k], in the operation order of the exact objective
    (w * w * s) for Gaussian designs and of the Monte Carlo sum
    (w ** 2 * s) otherwise, so both stay bit-identical to those paths."""
    total = 0.0
    gaussian = isinstance(design, GaussianDesign)
    for wk, s in zip(w, norms):
        total += wk * wk * s if gaussian else wk ** 2 * s
    return total


def balance_objective_nuc(scenario, design, estimand, seed, B_emp=_BALANCE_DRAWS):
    """Nuclear-norm covariate balance measure sum_k w_k^2 ||X' Cov_k X||_nuc.

    Gaussian designs use the exact analytic maps; assignment designs estimate
    the indicator covariance matrices from B_emp Monte Carlo draws.
    ``estimand`` is one spec, giving a float, or a tuple of specs, giving a
    tuple of floats that share the per-arm norms (and their draws).
    """
    norms = _arm_nuclear_norms(scenario, design, seed, B_emp)
    if isinstance(estimand, tuple):
        return tuple(_weighted_balance(design, norms, e.arm_weights) for e in estimand)
    return _weighted_balance(design, norms, estimand.arm_weights)


@dataclass(frozen=True)
class BenchmarkRow:
    scenario: str
    design: str
    estimand: str
    mse: float
    balance_objective_nuc: float
    coverage: float
    mean_ci_width: float
    replicates: int

    def __post_init__(self):
        if self.replicates <= 0:
            raise ValueError("replicates must be positive")
        if self.mse < 0:
            raise ValueError("MSE cannot be negative")


@dataclass(frozen=True)
class BenchmarkReport:
    rows: tuple

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("scenario,design,estimand,mse,balance_objective_nuc,"
                     "coverage,mean_ci_width,replicates\n")
            for r in self.rows:
                cov = "" if r.coverage is None else f"{r.coverage:.17g}"
                wid = "" if r.mean_ci_width is None else f"{r.mean_ci_width:.17g}"
                fh.write(f"{r.scenario},{r.design},{r.estimand},{r.mse:.17g},"
                         f"{r.balance_objective_nuc:.17g},{cov},{wid},{r.replicates}\n")


_GENERATORS = {
    "three_arm_single_feature": lambda seed: gen_three_arm("single_feature", seed),
    "three_arm_uniform": lambda seed: gen_three_arm("uniform", seed),
    "factorial": gen_factorial,
}


def save_scenario(prefix, scenario: Scenario):
    """Dump a scenario as CSV data plus a key = value sidecar.

    ``{prefix}_covariates.csv`` holds X, ``{prefix}_outcomes.csv`` the
    potential-outcome table (discrete scenarios), and ``{prefix}.meta`` the
    generator name, seed, and parameters needed to regenerate it.
    """
    np.savetxt(f"{prefix}_covariates.csv", scenario.X, delimiter=",", fmt="%.17g")
    if scenario.potential_outcomes is not None:
        np.savetxt(f"{prefix}_outcomes.csv", scenario.potential_outcomes,
                   delimiter=",", fmt="%.17g")
    with open(f"{prefix}.meta", "w") as fh:
        fh.write(f"name = {scenario.name}\nseed = {scenario.seed}\n")
        for key, value in scenario.params.items():
            fh.write(f"{key} = {value}\n")


def load_scenario(prefix) -> Scenario:
    """Regenerate a dumped scenario from its sidecar (bit-identical)."""
    meta = {}
    with open(f"{prefix}.meta") as fh:
        for line in fh:
            if "=" in line:
                key, value = line.split("=", 1)
                meta[key.strip()] = value.strip()
    name, seed = meta["name"], int(meta["seed"])
    if name.startswith("three_arm_"):
        scenario = gen_three_arm(meta["variant"], seed)
    elif name == "factorial":
        scenario = gen_factorial(seed)
    elif name.startswith("continuous_"):
        n = np.loadtxt(f"{prefix}_covariates.csv", delimiter=",", ndmin=2).shape[0]
        scenario = gen_continuous(meta["kind"], n, seed, b=float(meta.get("b", 1.0)))
    else:
        raise ValueError(f"unknown scenario name {name!r} in sidecar")
    dumped = np.loadtxt(f"{prefix}_covariates.csv", delimiter=",", ndmin=2)
    if dumped.shape != scenario.X.shape or not np.array_equal(dumped, scenario.X):
        raise ValueError("dumped covariates do not match the regenerated scenario")
    return scenario


def _build_designs(names, scenario, seed, iters, norm):
    designs = []
    for name in names:
        if name == "bg":
            designs.append(GaussianDesign(identity_factor(scenario.n), name="bg"))
        elif name == "og":
            w = scenario.estimands[0].arm_weights
            if norm == "nuc":
                problem = DesignProblem(X=scenario.X,
                                        maps=(weighted_discrete_map(w, scenario.K),),
                                        weights=np.ones(1), norm="nuc")
            else:
                maps = tuple(f_arm(scenario.K, k) for k in range(1, scenario.K + 1))
                problem = DesignProblem(X=scenario.X, maps=maps, weights=w, norm="op")
            factor, _ = pgd_gauss(problem, identity_factor(scenario.n), iters)
            designs.append(GaussianDesign(factor, name="og"))
        elif name == "cr":
            designs.append(CompleteRandomization())
        elif name == "rr":
            designs.append(Rerandomization(scenario.X))
        else:
            raise ValueError(f"unknown design name {name!r}")
    return designs


def run_scenario(config) -> BenchmarkReport:
    """Cross-product benchmark over designs and estimands.

    Recognized config keys: generator, seed, designs (list or comma string),
    replicates, iters, norm, coverage_replicates, ci_replicates, alpha.
    """
    cfg = dict(config)
    gen_name = cfg.pop("generator")
    if gen_name not in _GENERATORS:
        raise ValueError(f"unknown generator {gen_name!r}; "
                         f"choose from {sorted(_GENERATORS)}")
    seed = int(cfg.pop("seed", 0))
    designs = cfg.pop("designs", ["bg"])
    if isinstance(designs, str):
        designs = [s.strip() for s in designs.split(",") if s.strip()]
    replicates = int(cfg.pop("replicates", 1000))
    iters = int(cfg.pop("iters", 200))
    norm = cfg.pop("norm", "nuc")
    coverage_reps = int(cfg.pop("coverage_replicates", 0))
    ci_reps = int(cfg.pop("ci_replicates", 500))
    alpha = float(cfg.pop("alpha", 0.05))
    if cfg:
        raise ValueError(f"unknown config keys: {sorted(cfg)}")

    _check_replicates(replicates)

    scenario = _GENERATORS[gen_name](seed)
    estimands = tuple(e for e in scenario.estimands if e.kind != "continuous")
    truths = [_truth(scenario, e) for e in estimands]
    rows = []
    for design in _build_designs(designs, scenario, seed, iters, norm):
        # one draw per design, scored for every estimand
        estimates = mc_estimates(scenario, design, estimands,
                                 replicates, rng.derive_seed(seed, 10))
        balances = balance_objective_nuc(scenario, design, estimands,
                                         rng.derive_seed(seed, 11))
        for estimand, est, truth, bal in zip(estimands, estimates, truths, balances):
            coverage = mean_width = None
            if coverage_reps > 0 and isinstance(design, GaussianDesign):
                def proc(records, ci_seed, _d=design, _e=estimand):
                    return randomization_ci_discrete(
                        records, _d.factor, scenario.K, _e.arm_weights,
                        ci_reps, alpha, ci_seed)

                res = mc_coverage(scenario, design, estimand, proc,
                                  coverage_reps, rng.derive_seed(seed, 12))
                coverage, mean_width = res["coverage"], res["mean_width"]
            rows.append(BenchmarkRow(
                scenario=scenario.name, design=design.name, estimand=estimand.label,
                mse=_mse(est, truth), balance_objective_nuc=bal, coverage=coverage,
                mean_ci_width=mean_width, replicates=replicates))
    return BenchmarkReport(rows=tuple(rows))
