"""Design-based uncertainty for Gaussianized designs.

One estimator gives the variance of every arm and contrast estimator
tau_hat_w = (K/n) sum_i w_{D_i} Y_i.  Its own-arm part weights each pair
of units by the inverse of its joint probability,

    V_hat = (K^2/n) sum_{i,j} u_i u_j f_{D_i,D_j}(Sigma_ij)
            / (f_{D_i,D_j}(Sigma_ij) + 1/K^2),    u_i = w_{D_i} Y_i,

using the joint-probability identity P(D_i = k, D_j = l) =
f_{k,l}(Sigma_ij) + 1/K^2 (which also covers i = j, k = l, where it equals
1/K).  The same-unit cross-arm terms are not estimable, so the conservative
bound of Aronow & Samii (Survey Methodology 39, 2013) replaces
-(1/n) sum_{k!=l} w_k w_l sum_i Y_i(k) Y_i(l) with the observable
(1/2n) sum_{k!=l} |w_k||w_l| sum_i (Y_i(k)^2 + Y_i(l)^2).  An arm k is the
contrast w = e_k: its bound term is exactly 0, and V_hat is the unbiased
Horvitz-Thompson estimate.  Normal confidence intervals are
tau_hat +- z_{alpha/2} sqrt(V_hat / n).

The estimator and the design variance (K^2/n) Y(k)^T f_k(Sigma) Y(k) sum
the pairs i < j of each block of Sigma's upper triangle
(covmap._reduce_symmetric) and add the diagonal: no n x n array is formed.

As a less conservative alternative, randomization-based confidence intervals
redraw treatments from the design, impute counterfactual outcomes with a
fitted regression, and take empirical quantiles of the re-estimates.  The
redraws are streamed in chunks of about 2^16 latent values (replicates x
units, see elliptope._draw_chunks), so a CI holds its B estimates and one
chunk's arrays, never a B x n array.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import blocks
from .covmap import (_map_forms, _ndtri, _reduce_symmetric, discretize, f_arm, f_cross,
                     quantile_thresholds)
from .elliptope import CorrelationFactor, _draw_chunks
from .estimators import EstimandSpec, ExperimentRecords, WeightFn, _ht_arm_weights, _ht_weight

_JOINT_GUARD = 1e-8
_MIN_REPLICATES = 100


class EmptyArmError(ValueError):
    """An arm holds no observed unit, so its imputation model cannot be fit."""


@dataclass(frozen=True)
class VarianceReport:
    point: float
    well_defined: bool
    min_joint_prob: float
    kind: str


@dataclass(frozen=True)
class IntervalReport:
    lower: float
    upper: float
    alpha: float
    method: str
    replicates: int = None

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        if self.lower > self.upper:
            raise ValueError("interval bounds out of order")

    @property
    def width(self):
        return self.upper - self.lower

    def contains(self, x):
        return self.lower <= x <= self.upper


def variance_ht_arm(records: ExperimentRecords, factor: CorrelationFactor,
                    k, K) -> VarianceReport:
    """Horvitz-Thompson estimate of n * Var(tau_hat_k) under the design: the
    bound at w = e_k, whose bound term is exactly 0."""
    report = aronow_samii_bound(records, factor, EstimandSpec.arm(k, K).arm_weights, K)
    return replace(report, kind="ht_arm_variance")


def _ipw_pairs(rows, arms, u, K):
    """(minimum joint probability, sum_{i<j} u_i u_j C_ij / joint_ij) over
    units with factor rows ``rows`` and ``arms``, where C_ij =
    f_{D_i,D_j}(Sigma_ij) and joint = C + 1/K^2; the sum is meaningless when
    the minimum is at the guard.  Sorted by arm, a block's pairs fall in
    rectangles of one map each."""
    order = np.argsort(arms, kind="stable")
    edges = np.searchsorted(arms[order], np.arange(1, K + 2))
    maps = {(k, l): f_cross(K, k, l) for k in range(1, K + 1) for l in range(k, K + 1)}
    u = u[order]

    def block(b, C):
        rows, cols = b
        for (k, l), cmap in maps.items():
            r0, r1 = max(edges[k - 1], rows.start), min(edges[k], rows.stop)
            c0, c1 = max(edges[l - 1], cols.start), min(edges[l], cols.stop)
            if r0 < r1 and c0 < c1:
                cell = C[r0 - rows.start:r1 - rows.start, c0 - cols.start:c1 - cols.start]
                cmap.eval(cell, out=cell)
        joint = C + 1.0 / K ** 2
        if cols.start == rows.start:   # pairs i >= j are not pairs i < j
            joint[blocks.lower(rows.stop - rows.start)] = np.inf
        np.divide(C, joint, out=C, where=joint > _JOINT_GUARD)
        return float(joint.min()), float(u[rows] @ C @ u[cols])

    parts = _reduce_symmetric(rows[order], block)
    return min((m for m, _ in parts), default=np.inf), sum(s for _, s in parts)


def true_variance(potential_outcomes, factor: CorrelationFactor, k, K):
    """V(Sigma) = (K^2/n) Y(k)^T f_k(Sigma) Y(k) (n * MSE of tau_hat_k)."""
    y = np.asarray(potential_outcomes, dtype=float)[:, k - 1:k]
    if factor.n != y.shape[0]:
        raise ValueError("factor size does not match the outcome table")
    form = _map_forms(factor.rows, [f_arm(K, k)], y)[0]
    return float(K ** 2 / y.shape[0] * form[0, 0])


def normal_ci(tau_hat, var_hat, n, alpha) -> IntervalReport:
    """tau_hat +- z_{alpha/2} sqrt(var_hat / n)."""
    if var_hat < 0:
        raise ValueError("variance estimate must be nonnegative")
    z = _ndtri(1.0 - alpha / 2.0)
    half = z * np.sqrt(var_hat / n)
    return IntervalReport(lower=float(tau_hat - half), upper=float(tau_hat + half),
                          alpha=float(alpha), method="normal")


def aronow_samii_bound(records: ExperimentRecords, factor: CorrelationFactor,
                       w, K) -> VarianceReport:
    """Conservative estimator of n * Var(tau_hat_w) for a contrast w
    (unbiased for an arm, w = e_k)."""
    w = np.asarray(w, dtype=float)
    if w.shape != (K,):
        raise ValueError(f"contrast needs {K} weights, got shape {w.shape}")
    if factor.n != records.n:
        raise ValueError("factor size does not match record count")
    n = records.n
    arms = records.arms(K)
    # Only units with w_{D_i} != 0 enter: every term of every other unit is 0.
    unit = np.flatnonzero(w[arms - 1] != 0)
    y = records.Y[unit]
    u = w[arms[unit] - 1] * y

    # Own-arm terms: each pair i < j twice (f_{l,k} = f_{k,l}), and the
    # diagonal, where f_k(1) = 1/K - 1/K^2 and the joint is 1/K.
    min_joint, pairs = _ipw_pairs(factor.rows[unit], arms[unit], u, K)
    if min_joint <= _JOINT_GUARD:
        return VarianceReport(point=None, well_defined=False,
                              min_joint_prob=min_joint, kind="aronow_samii_bound")
    own = K ** 2 / n * ((1.0 - 1.0 / K) * float(u @ u) + 2.0 * pairs)

    # Bound replacing the inestimable same-unit cross-arm products; unit i
    # observes (K/n) Y_i^2 |w_{D_i}| (sum_l |w_l| - |w_{D_i}|) of it.
    absw = np.abs(w)
    a = absw[arms[unit] - 1]
    bound = K / n * float(np.sum(y ** 2 * a * (absw.sum() - a)))
    return VarianceReport(point=own + bound, well_defined=True,
                          min_joint_prob=min_joint, kind="aronow_samii_bound")


def ols_fit(design_matrix, response):
    """Minimum-norm least squares (SVD cutoff 1e-10 * sigma_max)."""
    A = np.asarray(design_matrix, dtype=float)
    y = np.asarray(response, dtype=float)
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite entries in the regression inputs")
    if A.ndim != 2 or A.shape[0] < 1:
        raise ValueError("design matrix must be 2-D with at least one row")
    coef, _, _, _ = np.linalg.lstsq(A, y, rcond=1e-10)
    return coef


def _empirical_interval(estimates, alpha, B):
    lo, hi = np.quantile(estimates, [alpha / 2.0, 1.0 - alpha / 2.0])
    return IntervalReport(lower=float(lo), upper=float(hi), alpha=float(alpha),
                          method="randomization", replicates=int(B))


def randomization_ci_discrete(records: ExperimentRecords, factor: CorrelationFactor,
                              K, w, B, alpha, seed) -> IntervalReport:
    """Randomization-based CI for the contrast tau_hat_w.

    Per arm, a linear model of Y on X (with intercept) is fit on the units
    observed in that arm; redrawn assignments keep the observed outcome when
    the redrawn arm matches and impute the fitted value otherwise.  The
    interval is the (alpha/2, 1 - alpha/2) empirical quantile pair of the
    re-estimates.
    """
    if B < _MIN_REPLICATES:
        raise ValueError(f"need at least {_MIN_REPLICATES} randomization replicates")
    w = np.asarray(w, dtype=float)
    arms_obs = records.arms(K)
    n = records.n
    X1 = np.column_stack([np.ones(n), records.X]) if records.X is not None \
        else np.ones((n, 1))
    fitted = np.empty((n, K))
    for k in range(1, K + 1):
        sel = arms_obs == k
        if not np.any(sel):
            raise EmptyArmError(f"cannot fit imputation model: no unit observed in arm {k}")
        fitted[:, k - 1] = X1 @ ols_fit(X1[sel], records.Y[sel])
    thresholds = quantile_thresholds(K)
    estimates = np.empty(B)
    for lo, hi, latent in _draw_chunks(factor, B, seed):
        arms_b = discretize(latent, thresholds)
        imputed = fitted[np.arange(n)[None, :], arms_b - 1]
        Yb = np.where(arms_b == arms_obs[None, :], records.Y[None, :], imputed)
        estimates[lo:hi] = _ht_arm_weights(arms_b, Yb, w, K)
    return _empirical_interval(estimates, alpha, B)


@dataclass(frozen=True)
class ContinuousModelSpec:
    """Imputation model and estimand for the continuous randomization CI.

    ``regressors(X, t)`` maps covariates (n, d) and a treatment vector (n,)
    to the regression design matrix (n, p); ``weight`` is the estimand's
    weight function.
    """

    regressors: object
    weight: WeightFn
    label: str = "continuous"


def randomization_ci_continuous(records: ExperimentRecords, factor: CorrelationFactor,
                                model_spec: ContinuousModelSpec, B, alpha,
                                seed) -> IntervalReport:
    """Randomization-based CI for the continuous estimand tau_hat_w^c.

    One global model of Y on (X, T) is fit; an imputed outcome is used
    whenever the redrawn T differs from the observed one (with continuous
    draws, always, unless the design is degenerate).
    """
    if B < _MIN_REPLICATES:
        raise ValueError(f"need at least {_MIN_REPLICATES} randomization replicates")
    if records.T is None:
        raise ValueError("continuous procedure requires latent treatments T")
    n = records.n
    A_obs = np.asarray(model_spec.regressors(records.X, records.T), dtype=float)
    coef = ols_fit(A_obs, records.Y)
    estimates = np.empty(B)
    for lo, hi, tb in _draw_chunks(factor, B, seed):
        x_tiled = None if records.X is None else np.tile(records.X, (hi - lo, 1))
        basis = np.asarray(model_spec.regressors(x_tiled, tb.reshape(-1)), dtype=float)
        fitted = (basis @ coef).reshape(hi - lo, n)
        yb = np.where(tb == records.T[None, :], records.Y[None, :], fitted)
        estimates[lo:hi] = _ht_weight(tb, yb, model_spec.weight)
    return _empirical_interval(estimates, alpha, B)
