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

Every design (``GaussianDesign``, ``CompleteRandomization(n)``,
``Rerandomization(X)``) gives the engine the same interface:

* ``name``, the label of its benchmark rows;
* ``n``, its number of units, which must be the scenario's;
* ``arms(seed, streams, K)``, the (B, n) arm matrix, row b drawn from stream
  ``streams[b]`` alone;
* ``draw(seed, streams, K)`` -> ``(arms, latent)``, what the engine scores:
  ``latent`` is the (B, n) Gaussian treatment matrix, or None for designs
  that only assign arms; ``arms`` is None when ``K`` is None (a continuous
  scenario), which only Gaussian designs accept;
* ``arm_terms(X, K, seed)``, the K d x d matrices X^T C_k X, C_k the
  covariance of arm k's indicators: exact maps for Gaussian designs,
  sample covariances over ``_BALANCE_DRAWS`` (2000) draws for the others;
  neither forms an n x n array;
* ``factor``, the correlation factor that the randomization CI resamples,
  or None (such designs get no coverage columns).

``mc_estimates`` and ``mc_coverage`` call ``draw``, ``balance_objective_nuc``
calls ``arm_terms`` and ``run_scenario`` reads ``factor``; the first
three check ``n`` before anything is drawn.

The engine scores every estimand alike: a scenario gives the observed
outcomes of a draw (``Scenario.outcomes(arms, latent)``) and each
estimand's exact value (``Scenario.truth``), and the estimand scores its
own replicates (``EstimandSpec.estimates``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import blocks, rng
from .covmap import _map_forms, _ndtri, discretize, f_arm, quantile_thresholds
from .elliptope import CorrelationFactor, _latent, identity_factor
from .estimators import EstimandSpec, ExperimentRecords, WeightFn, true_estimand
from .inference import randomization_ci_discrete
from .optimizer import _objective, discrete_problem, pgd_gauss

_CHUNK = 4096
_RERAND_CAP = 100_000
# Largest replicate stream of Rerandomization: its candidate streams
# s * _RERAND_CAP + t, t < _RERAND_CAP, must fit in 64 bits.
_RERAND_MAX_STREAM = (2**64 - _RERAND_CAP) // _RERAND_CAP
_BALANCE_DRAWS = 2000   # draws of the Monte Carlo balance measure


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

    def outcomes(self, arms, latent):
        """Observed outcomes of (B, n) or (n,) draws: Y_i(D_i) from the table
        of a discrete scenario, Y_i(T_i) of the responses of a continuous
        one (which reads no arms)."""
        if self.potential_outcomes is None:
            t = np.asarray(latent, dtype=float)
            return self.response_intercept + self.response_slope * t ** self.response_power
        return self.potential_outcomes[np.arange(self.n), np.asarray(arms) - 1]

    def truth(self, estimand):
        """The estimand's exact value over every unit's potential outcomes."""
        if self.potential_outcomes is None:
            return true_estimand(self.responses, estimand)
        return true_estimand(self.potential_outcomes, estimand)


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
                    potential_outcomes=Y, estimands=estimands)


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
                    response_power=power, estimands=estimands)


def _cr_batch(n, K, seed, streams):
    """Complete-randomization assignments, one per RNG stream (rows).

    Row b reads K + n uniforms u of its stream.  Unit j takes the arm of slot
    argsort(u[K:])[j]: the first K * (n // K) slots hold n // K units of each
    arm in arm order (one lookup table shared by every row), and the n % K
    leftover slots the first n % K arms of argsort(u[:K]), distinct arms
    chosen uniformly at random.
    """
    streams = np.asarray(streams)
    u = rng.uniforms(seed, streams, K + n)
    base, rem = divmod(n, K)
    lut = np.zeros(n, dtype=int)
    lut[:K * base] = np.repeat(np.arange(1, K + 1), base)
    slots = np.argsort(u[:, K:], axis=1)
    arms = lut[slots]
    if rem:
        rows, units = np.nonzero(slots >= K * base)
        leftover = np.argsort(u[:, :K], axis=1)[:, :rem] + 1
        arms[rows, units] = leftover[rows, slots[rows, units] - K * base]
    return arms


def _stirling_term(k, y):
    """D(k, y) = e^-y y^k / Gamma(k + 1) from Stirling's series, as
    DiDonato & Morris's rcomp (ACM TOMS 12, 1986):
    exp(-k rlog(y / k) - mu(k)) / sqrt(2 pi k), rlog(u) = u - 1 - log(u) and
    mu(k) = 1/(12k) - 1/(360k^3) + 1/(1260k^5) Stirling's correction (for k
    of 10 or more).  For y / k in [1/2, 2], where y - k is exact, k rlog(y / k)
    is the series (y - k) s - 2k (s^3/3 + s^5/5 + ...), s = (y - k) / (y + k),
    in which nothing cancels."""
    s = (y - k) / (y + k)
    if abs(s) > 1.0 / 3.0:
        kr = y - k - k * math.log(y / k)
    else:
        s2 = s * s
        series, term, j = 0.0, 1.0, 3.0
        while term > 1e-17:
            series += term / j
            term *= s2
            j += 2.0
        kr = s * (y - k - 2.0 * k * s2 * series)
    t = 1.0 / (k * k)
    mu = ((t / 1260.0 - 1.0 / 360.0) * t + 1.0 / 12.0) / k
    return math.exp(-kr - mu) / math.sqrt(2.0 * math.pi * k)


def _gamma_terms(a, y):
    """Terms of the regularized incomplete gamma function at 2a a positive
    integer: (sum of D(k, y) over k = a - 1, a - 2, ... >= 0, D(a - 1, y),
    D(a, y)), D(k, y) = e^-y y^k / Gamma(k + 1).

    Up to y = 400 they come from the recurrence D(k + 1, y) = D(k, y) y /
    (k + 1) up from D(0, y) = e^-y or D(-1/2, y) = e^-y / sqrt(pi y).  Above
    it (e^-y underflows from y ~ 745) D(a, y) comes from _stirling_term and
    the sum runs down, D(k - 1, y) = D(k, y) k / y, until the terms past its
    largest fall below 1e-17 of it.  The terms that carry the sum then lie
    next to the start; a start m e-folds below them would pass an error of
    about m ulp on to every one of them.
    """
    if y > 400.0:
        t = _stirling_term(a, y)
        prev = t * a / y
        total, term, k = 0.0, prev, a - 1.0
        while k >= 0.0 and (k > y or term > total * 1e-17):
            total += term
            term *= k / y
            k -= 1.0
        return total, prev, t
    k = 0.0 if a == math.floor(a) else -0.5
    t = math.exp(-y) if k == 0.0 else math.exp(-y) / math.sqrt(math.pi * y)
    total, prev = 0.0, t * k / y
    while k < a:
        if k >= 0.0:
            total += t
        prev = t
        k += 1.0
        t *= y / k
    return total, prev, t


def _gamma_quantile(a, p):
    """y with P(a, y) = p, P the regularized lower incomplete gamma function,
    for 2a a positive integer and 0 < p < 1 (DiDonato & Morris, ACM TOMS 12,
    1986, in the closed forms at half-integer a).

    For p >= 1/2 it solves Q(a, y) = 1 - p (exact by Sterbenz's lemma), Q the
    finite sum erfc(sqrt y) [half-integer a] + D(a - 1, y) + ... ; for p < 1/2
    it solves P(a, y) = p with P the series D(a, y) sum_n y^n / ((a + 1) ...
    (a + n)).  Both sum positive terms.  Newton steps on the log of that
    function (dP/dy = D(a - 1, y)) start at the Wilson-Hilferty guess (or,
    for p < 1/2, the small-y bound (p Gamma(a + 1))^(1/a) if larger) and fall
    back to bisection whenever they leave the bracket of the root.
    """
    upper = p >= 0.5
    target = 1.0 - p if upper else p
    c = 1.0 / (9.0 * a)
    y = a * max(0.0, 1.0 - c + _ndtri(p) * math.sqrt(c)) ** 3
    if not upper:
        # P(a, y) <= y^a / Gamma(a + 1): a lower bound, close for small p,
        # where the Wilson-Hilferty guess fails
        y = max(y, math.exp((math.log(p) + math.lgamma(a + 1.0)) / a))
    y = max(y, math.ulp(0.0))
    lo, hi = 0.0, math.inf
    for _ in range(200):
        total, slope, top = _gamma_terms(a, y)
        if upper:
            if a != math.floor(a):
                total += math.erfc(math.sqrt(y))
            value, sign = total, -1.0    # Q(a, y), decreasing in y
        else:
            series = term = 1.0
            k = a
            while term > series * 2.0 ** -54:
                k += 1.0
                term *= y / k
                series += term
            value, sign = top * series, 1.0    # P(a, y), increasing in y
        if sign * (value - target) < 0.0:
            lo = y
        else:
            hi = y
        # Newton on log(value), whose slope is sign * D(a - 1, y) / value:
        # near the root the plain step, far from it no overshoot of y^a
        rel = (value - target) / target
        step = math.nan
        if rel > -1.0 and slope > 0.0:
            step = y - sign * math.log1p(rel) * value / slope
        if not lo < step < hi:
            if abs(step - y) <= 1e-12 * y:
                return y    # converged: rounding moved the step out
            step = 0.5 * (lo + hi) if hi < math.inf else 2.0 * y
            if not lo < step < hi:
                return y    # the bracket is two adjacent floats
        y = step
    return y


def rerand_threshold(d, K, p_a):
    """Per-pair chi^2 cutoff giving joint acceptance ~ p_a (independence apx).

    The chi^2_d quantile at p = p_a^(1 / pairs) is 2 * P^{-1}(d / 2, p), P the
    regularized lower incomplete gamma function, from the standard library
    (``_gamma_quantile``); p = 1 gives inf.  Measured error against 45-digit
    bisection on mpmath's incomplete gamma function, p from 1e-300 to
    1 - 2**-52: at most 5 ulp for d = 1..79 (at most 3 ulp except d = 1 at
    p = 0.4999) and 2 ulp for d = 101, 200, 333 and 600; beyond y = 400,
    where ``_gamma_terms`` starts from Stirling's series, at most 1 ulp for
    d = 801, 850, 1000, 1500, 2001, 3001, 5001 and 10001.
    ``scipy.stats.chi2.ppf`` differs from it by at most 105 ulp on
    d = 1..39, K = 2..16, p_a from 0.001 to 0.9, being itself up to 105 ulp
    off there (scipy 1.17).
    """
    if K < 2:
        raise ValueError(f"rerandomization needs K >= 2 arms, got K = {K}")
    if d < 1:
        raise ValueError(f"rerandomization needs d >= 1 covariates, got d = {d}")
    pairs = K * (K - 1) // 2
    p = p_a ** (1.0 / pairs)
    if p >= 1.0:
        return math.inf
    return 2.0 * _gamma_quantile(d / 2.0, p)


class GaussianDesign:
    """Design source sampling T = V z from a correlation factor."""

    def __init__(self, factor: CorrelationFactor, name="gaussian"):
        self.factor = factor
        self.name = name

    @property
    def n(self):
        return self.factor.n

    def latent(self, seed, streams):
        return _latent(self.factor, seed, streams)

    def arms(self, seed, streams, K):
        return self.draw(seed, streams, K)[0]

    def draw(self, seed, streams, K):
        latent = self.latent(seed, streams)
        arms = None if K is None else discretize(latent, quantile_thresholds(K))
        return arms, latent

    def arm_terms(self, X, K, seed):
        """Exact X^T f_k(V V^T) X for k = 1..K, every map from one stream of
        the gram's blocks (covmap._map_forms); nothing is drawn."""
        return _map_forms(self.factor.rows, [f_arm(K, k) for k in range(1, K + 1)], X)


class _ArmDesign:
    """Engine interface of a design that only assigns arms (see the module
    docstring); subclasses define ``name`` and ``arms``."""

    factor = None

    def draw(self, seed, streams, K):
        if K is None:
            raise ValueError(f"design {self.name!r} only assigns arms; "
                             "continuous estimands need a Gaussian design")
        return self.arms(seed, streams, K), None

    def arm_terms(self, X, K, seed):
        """X^T C_k X for k = 1..K, C_k the sample covariance of arm k's
        indicators A over streams 0.._BALANCE_DRAWS-1: Z^T Z / (B - 1), Z
        the centred (B, d) projection A X."""
        arms = self.arms(seed, np.arange(_BALANCE_DRAWS), K)
        Z = [(arms == k) @ X for k in range(1, K + 1)]
        Z = [z - z.mean(axis=0) for z in Z]
        return [z.T @ z / (_BALANCE_DRAWS - 1) for z in Z]


class CompleteRandomization(_ArmDesign):
    """Design source drawing independent complete randomizations of n units
    (equal split up to remainder)."""

    name = "cr"

    def __init__(self, n):
        self.n = n

    def arms(self, seed, streams, K):
        return _cr_batch(self.n, K, seed, streams)


class Rerandomization(_ArmDesign):
    """Design source for Mahalanobis-criterion rerandomization.

    CR candidates are redrawn until all pairwise-arm Mahalanobis distances
    pass the calibrated cutoff; after 1e5 redraws the best-seen assignment is
    returned with a warning.
    """

    def __init__(self, X, p_a=0.01, name="rr"):
        if not 0 < p_a <= 1:
            raise ValueError("acceptance probability must lie in (0, 1]")
        self.X = np.asarray(X, dtype=float)
        if not np.all(np.isfinite(self.X)):
            raise ValueError("covariates must be finite")
        if self.X.shape[0] < 2:
            raise ValueError(f"rerandomization needs at least 2 units for the covariates'"
                             f" sample covariance, got n = {self.X.shape[0]}")
        self.p_a = float(p_a)
        self.name = name
        # Whitened covariates Z = (X - mean) L with L L^T = S^+, the
        # pseudo-inverse of the sample covariance (np.cov gives a 0-d array
        # for a single covariate): the Mahalanobis distance of a difference of
        # covariate means is the squared norm of the difference of Z means.
        lam, U = np.linalg.eigh(np.atleast_2d(np.cov(self.X, rowvar=False, ddof=1)))
        keep = lam > 1e-15 * lam.max()    # np.linalg.pinv's cutoff
        self._Z = (self.X - self.X.mean(axis=0)) @ (U[:, keep] / np.sqrt(lam[keep]))

    @property
    def n(self):
        return self.X.shape[0]

    def _max_distance(self, arms, K):
        """Largest pairwise-arm Mahalanobis distance of covariate means,
        |mean_a Z - mean_b Z|^2 / (1 / n_a + 1 / n_b), per row of ``arms``.
        The indicator products run in row blocks of at most
        blocks.SERIAL_MACS multiply-adds, on the calling thread."""
        rows = max(1, blocks.SERIAL_MACS // (arms.shape[1] * max(1, self._Z.shape[1])))
        sums = np.empty((K, arms.shape[0], self._Z.shape[1]))
        counts = np.empty((K, arms.shape[0]))
        for lo in range(0, arms.shape[0], rows):
            block = arms[lo:lo + rows]
            for k in range(K):
                ind = block == k + 1
                counts[k, lo:lo + rows] = np.count_nonzero(ind, axis=1)
                np.matmul(ind, self._Z, out=sums[k, lo:lo + rows])
        means = sums / counts[:, :, None]
        worst = np.zeros(arms.shape[0])
        for a in range(K):
            for b in range(a + 1, K):
                diff = means[a] - means[b]
                m = np.einsum("cd,cd->c", diff, diff) / (1.0 / counts[a] + 1.0 / counts[b])
                np.maximum(worst, m, out=worst)
        return worst

    def arms(self, seed, streams, K):
        """Row b is the first accepted candidate for replicate streams[b];
        candidate t of replicate b draws from CR stream b * cap + t, so
        acceptance for one replicate never shifts another's stream.  Streams
        above _RERAND_MAX_STREAM raise: their candidate streams would wrap
        modulo 2**64 onto another replicate's.  When the cap is exhausted the
        earliest candidate of least distance is drawn again from its stream."""
        streams = np.asarray(streams, dtype=np.uint64)
        if streams.size and int(streams.max()) > _RERAND_MAX_STREAM:
            raise ValueError(f"rerandomization stream {int(streams.max())} exceeds "
                             f"{_RERAND_MAX_STREAM}, the largest whose candidate "
                             f"streams s * {_RERAND_CAP} + t fit in 64 bits")
        n, d = self.X.shape
        if n < K:
            raise ValueError(f"rerandomization of n = {n} units into K = {K} arms "
                             "leaves an arm empty; it needs n >= K")
        thr = rerand_threshold(d, K, self.p_a)
        cap = np.uint64(_RERAND_CAP)
        out = np.empty((streams.size, n), dtype=int)
        best_m = np.full(streams.size, np.inf)
        best_t = np.zeros(streams.size, dtype=np.uint64)
        unresolved = np.arange(streams.size)
        t = 0
        while unresolved.size and t < _RERAND_CAP:
            cand = _cr_batch(n, K, seed, streams[unresolved] * cap + np.uint64(t))
            m = self._max_distance(cand, K)
            improved = m < best_m[unresolved]
            best_m[unresolved[improved]] = m[improved]
            best_t[unresolved[improved]] = t
            ok = m < thr
            out[unresolved[ok]] = cand[ok]
            unresolved = unresolved[~ok]
            t += 1
        if unresolved.size:
            warnings.warn(f"rerandomization cap exhausted for {unresolved.size} "
                          "replicate(s); returning best-seen assignments",
                          RuntimeWarning)
            out[unresolved] = _cr_batch(n, K, seed,
                                        streams[unresolved] * cap + best_t[unresolved])
        return out


def _check_units(scenario, design):
    if design.n != scenario.n:
        raise ValueError(f"design {design.name!r} has n = {design.n} units but "
                         f"scenario {scenario.name!r} has n = {scenario.n}")


def _mse(est, truth):
    return float(np.mean((est - truth) ** 2))


def mc_estimates(scenario, design, estimand, B, seed):
    """Estimates tau_hat over B replicates (counter substreams 0..B-1).

    ``estimand`` is one spec, giving a (B,) array, or a tuple of specs,
    giving one row per spec from the same draws: each chunk of streams is
    drawn once and scored for every spec.
    """
    _check_units(scenario, design)
    specs = estimand if isinstance(estimand, tuple) else (estimand,)
    out = np.empty((len(specs), B))
    for lo in range(0, B, _CHUNK):
        hi = min(lo + _CHUNK, B)
        arms, latent = design.draw(seed, np.arange(lo, hi), scenario.K)
        outcomes = scenario.outcomes(arms, latent)
        for row, spec in zip(out, specs):
            row[lo:hi] = spec.estimates(arms, latent, outcomes)
        # free this chunk's (B, n) arrays before the next chunk is drawn
        del arms, latent, outcomes
    return out if isinstance(estimand, tuple) else out[0]


def _check_replicates(B):
    if B < 100:
        raise ValueError("need at least 100 replicates")


def mc_mse(scenario, design, estimand, B, seed):
    """Monte Carlo mean squared error of the HT estimator."""
    _check_replicates(B)
    truth = scenario.truth(estimand)
    return _mse(mc_estimates(scenario, design, estimand, B, seed), truth)


def mc_coverage(scenario, design, estimand, ci_procedure, B_outer, seed):
    """Coverage and mean width of a CI procedure over outer replicates.

    ``ci_procedure(records, ci_seed)`` builds one interval from one realized
    experiment; the experiment for outer replicate b is drawn from substream
    b and the procedure gets the derived seed (seed, b).
    """
    if B_outer < 100:
        raise ValueError("need at least 100 outer replicates")
    _check_units(scenario, design)
    truth = scenario.truth(estimand)
    hits = 0
    widths = np.empty(B_outer)
    for b in range(B_outer):
        arms, latent = design.draw(seed, np.arange(b, b + 1), scenario.K)
        records = ExperimentRecords(Y=scenario.outcomes(arms, latent)[0], X=scenario.X,
                                    T=None if latent is None else latent[0],
                                    D=None if arms is None else arms[0])
        interval = ci_procedure(records, rng.derive_seed(seed, b))
        hits += interval.contains(truth)
        widths[b] = interval.width
    return {"coverage": hits / B_outer, "mean_width": float(np.mean(widths))}


def balance_objective_nuc(scenario, design, estimand, seed):
    """Nuclear-norm covariate balance measure sum_k w_k^2 ||X' Cov_k X||_nuc.

    Gaussian designs use the exact analytic maps; assignment designs estimate
    the indicator covariance matrices from _BALANCE_DRAWS Monte Carlo draws.
    ``estimand`` is one spec, giving a float, or a tuple of specs, giving a
    tuple of floats that share the per-arm matrices (and their draws).
    """
    _check_units(scenario, design)
    terms = design.arm_terms(scenario.X, scenario.K, seed)
    if isinstance(estimand, tuple):
        return tuple(_objective(e.arm_weights, "nuc", terms) for e in estimand)
    return _objective(estimand.arm_weights, "nuc", terms)


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


def _build_designs(names, scenario, seed, iters, norm):
    designs = []
    for name in names:
        if name == "bg":
            designs.append(GaussianDesign(identity_factor(scenario.n), name="bg"))
        elif name == "og":
            problem = discrete_problem(scenario.X, scenario.estimands[0].arm_weights, norm)
            factor, _ = pgd_gauss(problem, identity_factor(scenario.n), iters)
            designs.append(GaussianDesign(factor, name="og"))
        elif name == "cr":
            designs.append(CompleteRandomization(scenario.n))
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
    estimands = scenario.estimands
    truths = [scenario.truth(e) for e in estimands]
    rows = []
    for design in _build_designs(designs, scenario, seed, iters, norm):
        # one draw per design, scored for every estimand
        estimates = mc_estimates(scenario, design, estimands,
                                 replicates, rng.derive_seed(seed, 10))
        balances = balance_objective_nuc(scenario, design, estimands,
                                         rng.derive_seed(seed, 11))
        for estimand, est, truth, bal in zip(estimands, estimates, truths, balances):
            coverage = mean_width = None
            if coverage_reps > 0 and design.factor is not None:
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
