"""Probabilists' Hermite machinery for Gaussian functional covariances.

For square-integrable g, h and a unit-variance bivariate normal pair with
correlation rho, the covariance expands as a power series in rho:

    Cov(g(X), h(Y)) = sum_{m>=1} a_m[g] a_m[h] rho^m,
    a_m[g] = E[g(Z) h_m(Z)],   h_m = He_m / sqrt(m!),

where He_m are the probabilists' Hermite polynomials.  Squaring the
coefficients (h = g) yields the analytic covariance maps used to optimize
continuous-treatment designs: f_w(rho) = sum a_m[w]^2 rho^m, and likewise
f_{Y0,w} for the scaled response Y0 * w.

Coefficients are computed by Gauss-Hermite quadrature mapped to the
standard-normal weight, except for threshold indicators, which use the
closed form a_m = -phi(q) He_{m-1}(q) / sqrt(m!) = -phi(q) h_{m-1}(q) / sqrt(m)
(quadrature converges poorly on discontinuities).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .covmap import CovarianceMap, _ndtr

MAX_DEGREE = 200  # stability ceiling of the three-term recurrence
# Past about 740 nodes h_n overflows a double at the outer nodes, in
# hermegauss's Newton step and in the weights below
MAX_NODES = 700
DEFAULT_TRUNCATION = 50
DEFAULT_NODES = 200


def _check_degree(m):
    m = int(m)
    if m < 0:
        raise ValueError("Hermite degree must be nonnegative")
    if m > MAX_DEGREE:
        raise ValueError(f"Hermite degree {m} above stability ceiling {MAX_DEGREE}")
    return m


def normalized_hermite(m, x):
    """h_m(x) = He_m(x) / sqrt(m!), computed by a normalized recurrence."""
    m = _check_degree(m)
    return _normalized_table(m, np.asarray(x, dtype=float))[m] if np.ndim(x) \
        else float(_normalized_table(m, np.asarray([x], dtype=float))[m][0])


def _normalized_table(M, x):
    """h_0..h_M evaluated at the vector x, shape (M+1, len(x))."""
    H = np.empty((M + 1, x.size))
    H[0] = 1.0
    if M >= 1:
        H[1] = x
    for j in range(1, M):
        H[j + 1] = (x * H[j] - np.sqrt(j) * H[j - 1]) / np.sqrt(j + 1)
    return H


@lru_cache(maxsize=16)
def gauss_hermite_nodes(n):
    """Nodes and (normalized) weights so that E_phi[f] ~= sum w f(x), for
    1 <= n <= MAX_NODES.

    The nodes are numpy's hermegauss: the eigenvalues of the Jacobi matrix
    and one Newton step (Golub & Welsch, Math. Comp. 23, 1969).  Its own
    weights overflow from n ~ 350, so the weights are 1 / (n h_{n-1}(x)^2),
    scaled to sum to 1; those below the smallest double underflow to 0.
    Against scipy's roots_hermitenorm for n = 1..700 (measured): nodes
    within 4e-14 absolute, weights within 3.8e-12 relative.
    """
    n = int(n)
    if not 1 <= n <= MAX_NODES:
        raise ValueError(f"Gauss-Hermite node count {n} outside [1, {MAX_NODES}]")
    with np.errstate(all="ignore"):   # hermegauss's weights, discarded
        x = np.polynomial.hermite_e.hermegauss(n)[0]
    h = _normalized_table(n - 1, x)[-1]
    w = 1.0 / (n * h) / h
    return x, w / w.sum()


@dataclass(frozen=True)
class HermiteExpansion:
    """Coefficients a_0..a_M of a function in the normalized Hermite basis."""

    coeffs: np.ndarray
    truncation: int
    l2_norm_sq: float

    def __post_init__(self):
        if self.coeffs.shape != (self.truncation + 1,):
            raise ValueError("coefficient vector must have M + 1 entries")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("non-finite Hermite coefficient")
        total = float(np.sum(self.coeffs ** 2))
        if abs(total - self.l2_norm_sq) > 1e-12 * max(1.0, total):
            raise ValueError("l2_norm_sq inconsistent with coefficients")


@dataclass(frozen=True)
class ThresholdIndicator:
    """g(t) = 1{t <= threshold}; flags the closed-form coefficient path."""

    threshold: float

    def __call__(self, t):
        return (np.asarray(t, dtype=float) <= self.threshold).astype(float)


def hermite_coeffs(g, M, nodes=DEFAULT_NODES):
    """Hermite coefficients a_m[g], m = 0..M.

    Generic g is integrated by Gauss-Hermite quadrature (g must be finite at
    every node); ThresholdIndicator instances use the exact closed form.
    """
    M = _check_degree(M)
    if isinstance(g, ThresholdIndicator):
        q = float(g.threshold)
        phi_q = np.exp(-0.5 * q * q) / np.sqrt(2.0 * np.pi)
        coeffs = np.empty(M + 1)
        coeffs[0] = _ndtr(q)
        # normalized, so no m! that overflows past m = 170
        h = _normalized_table(M, np.array([q]))[:M, 0]   # h_0..h_{M-1}
        coeffs[1:] = -phi_q * h / np.sqrt(np.arange(1, M + 1))
        return HermiteExpansion(coeffs, M, float(np.sum(coeffs ** 2)))

    if nodes < 2 * (M + 1):
        raise ValueError(f"need at least {2 * (M + 1)} quadrature nodes for M = {M}")
    x, w = gauss_hermite_nodes(nodes)
    vals = np.asarray(g(x), dtype=float)
    if vals.shape != x.shape:
        vals = np.asarray([g(xi) for xi in x], dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise ValueError(f"g evaluated non-finite at quadrature node x = {x[bad]:.6g}")
    H = _normalized_table(M, x)
    coeffs = H @ (w * vals)
    return HermiteExpansion(coeffs, M, float(np.sum(coeffs ** 2)))


def mehler_series(a: HermiteExpansion, b: HermiteExpansion, rho):
    """Cov(g(X), h(Y)) = sum_{m>=1} a_m[g] a_m[h] rho^m, truncated."""
    rho = float(rho)
    if abs(rho) > 1.0:
        raise ValueError("correlation outside [-1, 1]")
    m_max = min(a.truncation, b.truncation)
    powers = rho ** np.arange(1, m_max + 1)
    return float(np.sum(a.coeffs[1:m_max + 1] * b.coeffs[1:m_max + 1] * powers))


def series_cov_map(expansion: HermiteExpansion, label, second_moment=None):
    """CovarianceMap f(rho) = sum_{m>=1} a_m^2 rho^m with analytic derivative.

    ``second_moment`` (E[g^2], if supplied) feeds the reported tail bound
    l2_tail * |rho|^(M+1) / (1 - |rho|) via Cauchy-Schwarz.
    """
    sq = expansion.coeffs ** 2
    fcoef = sq.copy()
    fcoef[0] = 0.0
    dcoef = sq[1:] * np.arange(1, expansion.truncation + 1)

    def fn(a):
        return np.polynomial.polynomial.polyval(np.asarray(a, dtype=float), fcoef)

    def dfn(a):
        return np.polynomial.polynomial.polyval(np.asarray(a, dtype=float), dcoef)

    tail = 0.0
    if second_moment is not None:
        tail = max(0.0, float(second_moment) - expansion.l2_norm_sq)
    return CovarianceMap(fn, dfn, label, tail_l2=tail, truncation=expansion.truncation)


@dataclass(frozen=True)
class ContinuousCovMaps:
    """The pair of maps entering the continuous-design balance objective."""

    map_y0w: CovarianceMap
    map_w: CovarianceMap
    expansions: tuple = field(default=())


def continuous_cov_maps(y0, w, M=DEFAULT_TRUNCATION, nodes=DEFAULT_NODES):
    """Build f_{Y0,w} and f_w from a baseline response y0 and weight w."""

    def y0w(t):
        return np.asarray(y0(t), dtype=float) * np.asarray(w(t), dtype=float)

    e_y0w = hermite_coeffs(y0w, M, nodes)
    e_w = hermite_coeffs(w, M, nodes)
    x, wq = gauss_hermite_nodes(nodes)
    m2_y0w = float(np.sum(wq * np.asarray(y0w(x), dtype=float) ** 2))
    m2_w = float(np.sum(wq * np.asarray(w(x), dtype=float) ** 2))
    return ContinuousCovMaps(
        map_y0w=series_cov_map(e_y0w, "f_{Y0,w}", m2_y0w),
        map_w=series_cov_map(e_w, "f_w", m2_w),
        expansions=(e_y0w, e_w),
    )
