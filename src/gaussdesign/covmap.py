"""Covariance maps for quantile-discretized Gaussian treatments.

A latent Gaussian vector T ~ N(0, Sigma) is turned into K arms by the
equidistant-quantile map g (arm i on the half-open cell
(Phi^-1((i-1)/K), Phi^-1(i/K)]).  The covariance between arm indicators of
two units is then an analytic scalar function of their latent correlation:

    Cov(1{g(X) <= q_i}, 1{g(Y) <= q_j}) = r_ij(rho)
                                        = integral_0^rho p_r(q_i, q_j) dr,

with p_r the standard bivariate normal density.  Arm maps f_k and cross-arm
maps f_{k,l} are signed combinations of r_ij terms; their derivatives are the
same combinations of p_rho(q_i, q_j).

Every combination is evaluated by one fixed-order kernel, the bivariate
normal rule of Genz (Statistics and Computing 14:251-260, 2004, after
Drezner & Wesolowsky 1990), in fixed-size chunks of points:

- for |rho| < 0.925, 20-point Gauss-Legendre in asin coordinates
  (r = sin(theta) removes the 1/sqrt(1-r^2) endpoint singularity); the sin
  nodes are computed once per chunk and shared by all terms of the map;
- for 0.925 <= |rho| < 1, Genz's asymptotic expansion around the
  co/antimonotone limit, plus a 20-point rule for its remainder;
- at rho = +-1 exactly, the analytic co/antimonotone limits; at rho = 0
  exactly, 0.

Against a 40-digit reference the kernel is within 1e-14 absolute (measured
maximum 1.8e-16 over K <= 16 and |rho| up to 1 - 1e-15, largest at the
0.925 branch point).  Each point is computed on its own, so the output does
not depend on the chunk size.

Maps can be tabulated for the O(n^2) elementwise evaluations inside the
design optimizer: a Chebyshev grid with the monotone cubic (PCHIP)
coefficients of scipy's ``PchipInterpolator``, computed here op for op in
numpy.  A table query is one closed-form kernel, run on fixed-size chunks of
points: the cell index comes from the grid formula (uniform in arccos) with
one +-1 correction against the stored grid, the cubic is evaluated from the
coefficient arrays in scipy's order, and points outside the grid go to the
direct evaluator.  Its output equals ``PPoly`` evaluation bit for bit.  The
table's measured interpolation error is stored on the tabulated map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import ndtr, ndtri

from . import blocks

DEFAULT_TABLE_SIZE = 2001
DEFAULT_EDGE_MARGIN = 1e-6

# Points per kernel block, divided across the workers of a pool
# (blocks.budget); they bound the (points x nodes) and table temporaries.
# Two workers take 1 << 15 table points each: their per-chunk interpreter
# overhead contends for one lock, so smaller chunks scale worse.
_CHUNK = 8192
_TABLE_CHUNK = 1 << 16
_ROW_BLOCK = blocks.ROW_BLOCK   # rows per block of a symmetric map (_map_symmetric)
_HIGH_RHO = 0.925   # Genz's switch to the asymptotic branch
_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)
_GL_T = 0.5 * (1.0 + _GL_X)   # nodes mapped to [0, 1]


def _edge_slope(h0, h1, m0, m1):
    """Moler's one-sided three-point end slope, shape-preserving."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and np.abs(d) > 3. * np.abs(m0):
        return 3. * m0
    return d


def _pchip_coefficients(x, y):
    """Cubic coefficients (4, len(x) - 1) of scipy's PchipInterpolator(x, y).

    Fritsch-Butland harmonic-mean slopes (zero where the secant slopes change
    sign or vanish), Moler's end slopes, then the cubic Hermite coefficients,
    highest power first, each cell's cubic in s = x - x[cell].  Every
    operation follows scipy's own, so the coefficients are bit-identical.
    """
    if not np.all(np.isfinite(y)):
        raise ValueError("table values must be finite")
    hk = x[1:] - x[:-1]
    mk = (y[1:] - y[:-1]) / hk
    smk = np.sign(mk)
    condition = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
    w1 = 2 * hk[1:] + hk[:-1]
    w2 = hk[1:] + 2 * hk[:-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        whmean = (w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)
    dk = np.zeros_like(y)
    dk[1:-1][~condition] = 1.0 / whmean[~condition]
    dk[0] = _edge_slope(hk[0], hk[1], mk[0], mk[1])
    dk[-1] = _edge_slope(hk[-1], hk[-2], mk[-1], mk[-2])
    t = (dk[:-1] + dk[1:] - 2 * mk) / hk
    return np.stack((t / hk, (mk - dk[:-1]) / hk - t, dk[:-1], y[:-1]))


class Table:
    """Values of a map ``fn`` and its derivative ``dfn`` on a Chebyshev grid
    of ``grid_size`` points over [-1 + edge_margin, 1 - edge_margin], with
    their PCHIP cubic coefficients per grid cell.

    The grid is dense near the endpoints, where f' blows up; the grid point
    nearest 0 is moved to exactly 0, so f(0) = 0 stays exact.  ``cells``
    inverts this construction, so both live here.
    """

    def __init__(self, fn, dfn, grid_size, edge_margin):
        j = np.arange(grid_size)
        grid = np.sort((1.0 - edge_margin) * np.cos(np.pi * j / (grid_size - 1)))
        grid[np.argmin(np.abs(grid))] = 0.0
        self.grid = grid
        self.f_values = fn(grid)
        self.d_values = dfn(grid)
        self.f_coef = _pchip_coefficients(grid, self.f_values)
        self.d_coef = _pchip_coefficients(grid, self.d_values)

    def cells(self, x):
        """Cell index c with grid[c] <= x < grid[c + 1] for x in the grid
        (the last cell is closed): the grid formula of ``__init__`` inverted
        (uniform in arccos), then one +-1 correction for rounding and for
        the grid point moved to 0."""
        g = self.grid
        last = g.size - 2
        c = (np.arccos(-x / g[-1]) * ((g.size - 1) / np.pi)).astype(np.intp)
        np.minimum(c, last, out=c)
        c -= x < np.take(g, c)
        c += x >= np.take(g, c + 1)
        return np.minimum(c, last, out=c)

    def evaluate(self, coef, direct, a, out=None):
        """Piecewise cubic ``coef`` at every point of ``a``, written to
        ``out`` (a new array when None); points outside the grid (and NaN)
        take ``direct``.  The points go in blocks of about
        ``blocks.budget(_TABLE_CHUNK)``: whole rows of the last axis, or
        pieces of a longer row, so a strided 2-D ``a`` or ``out`` (a row
        block of a larger array) is read and written in place.  Each block's
        outside points are read before the block is written, so ``out`` may
        be ``a``."""
        if out is None:
            out = np.empty(a.shape)
        if a.size == 0:
            return out
        width = a.shape[-1] if a.ndim else 1
        pts = a.reshape(-1, width)
        dst = out.reshape(pts.shape)
        if not np.may_share_memory(dst, out):
            raise ValueError("out must be 2-D or C-contiguous")
        chunk = blocks.budget(_TABLE_CHUNK)
        step = max(1, chunk // width)
        piece = min(width, chunk)
        lo_edge, hi_edge = self.grid[0], self.grid[-1]
        a3, a2, a1, a0 = coef   # coefficients of s^3, s^2, s, 1
        for i in range(0, pts.shape[0], step):
            for j in range(0, width, piece):
                x = pts[i:i + step, j:j + piece]
                inside = (x >= lo_edge) & (x <= hi_edge)
                allin = inside.all()
                # outside points and NaN get a dummy in-grid value (the
                # integer cast of NaN warns); their output comes from
                # ``direct`` below
                xi = x if allin else np.where(inside, x, 0.0)
                c = self.cells(xi)
                s = xi - np.take(self.grid, c)
                sp = s * s
                # scipy's evaluate_poly1 order: a0 + a1 s + a2 s^2 + a3 (s^2 s)
                o = np.take(a0, c) + np.take(a1, c) * s
                o += np.take(a2, c) * sp
                sp *= s
                o += np.take(a3, c) * sp
                if not allin:
                    o[~inside] = direct(x[~inside])
                dst[i:i + step, j:j + piece] = o
        return out


class CovarianceMap:
    """Elementwise transform f on [-1, 1] with derivative f' on (-1, 1).

    ``eval``/``deriv`` accept scalars or arrays.  When a table is attached,
    queries inside the grid use interpolation and queries outside (including
    exactly +-1) fall back to the direct evaluator; ``table_f_error`` and
    ``table_d_error`` then hold the table's measured maximum error.
    """

    def __init__(self, fn, dfn, label, tail_l2=0.0, truncation=None):
        self._fn = fn
        self._dfn = dfn
        self.label = label
        self.table = None
        self.table_f_error = None
        self.table_d_error = None
        self.tail_l2 = tail_l2
        self.truncation = truncation

    def eval(self, rho, out=None):
        """f at ``rho``, written to ``out`` (an array of rho's shape,
        2-D or C-contiguous) when given."""
        a = np.asarray(rho, dtype=float)
        if np.any(np.abs(a) > 1.0):
            raise ValueError(f"{self.label}: correlation outside [-1, 1]")
        coef = None if self.table is None else self.table.f_coef
        return self._apply(self._fn, coef, a, out)

    def deriv(self, rho, out=None):
        """f' at ``rho``, written to ``out`` as in ``eval``."""
        a = np.asarray(rho, dtype=float)
        if np.any(np.abs(a) >= 1.0):
            raise ValueError(f"{self.label}: derivative requested at |rho| >= 1")
        coef = None if self.table is None else self.table.d_coef
        return self._apply(self._dfn, coef, a, out)

    def _apply(self, direct, coef, a, out):
        if self.table is not None:
            out = self.table.evaluate(coef, direct, a, out)
        elif out is None:
            out = direct(a)
        else:
            out[...] = direct(a)
        return out if out.ndim else float(out)

    def tail_bound(self, rho):
        """Upper bound on the truncation error of a series-backed map."""
        if self.truncation is None:
            return 0.0
        r = abs(float(rho))
        if r >= 1.0:
            return np.inf if self.tail_l2 > 0 else 0.0
        return self.tail_l2 * r ** (self.truncation + 1) / (1.0 - r)


@dataclass(frozen=True)
class ArmQuantiles:
    """Equidistant-quantile thresholds q_i = Phi^-1(i/K), i = 1..K-1."""

    K: int
    thresholds: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.thresholds) <= 0):
            raise ValueError("thresholds must be strictly increasing")


def quantile_thresholds(K):
    if not 2 <= int(K) <= 64:
        raise ValueError(f"arm count K = {K} outside supported range [2, 64]")
    K = int(K)
    q = ndtri(np.arange(1, K) / K)
    return ArmQuantiles(K=K, thresholds=q)


def discretize(t, q: ArmQuantiles):
    """Map latent value(s) to arm index in 1..K; boundaries go to the left arm."""
    a = np.asarray(t, dtype=float)
    if np.any(np.isnan(a)):
        raise ValueError("cannot discretize NaN treatment value")
    arms = np.searchsorted(q.thresholds, a, side="left") + 1
    return arms if arms.ndim else int(arms)


def binormal_density(rho, x, y):
    """Density p_rho(x, y) of the unit-variance bivariate normal."""
    rho = np.asarray(rho, dtype=float)
    omr2 = 1.0 - rho * rho
    z = (x * x + y * y - 2.0 * rho * x * y) / (2.0 * omr2)
    return np.exp(-z) / (2.0 * np.pi * np.sqrt(omr2))


def _r_endpoint(rho_sign, qi, qj):
    """Analytic limit of r_ij at rho = +-1 (co-/antimonotone indicators)."""
    pi_, pj = ndtr(qi), ndtr(qj)
    if rho_sign > 0:
        return min(pi_, pj) - pi_ * pj
    return max(0.0, pi_ + pj - 1.0) - pi_ * pj


def _genz_low(rho, terms):
    """sum_t coef_t r(rho; h_t, k_t) for 0 < |rho| < 0.925: 20-point rule on
    [0, asin(rho)] in theta, with r = sin(theta)."""
    asr = np.arcsin(rho)
    sn = np.sin(asr[:, None] * _GL_T)
    inv = 1.0 / (1.0 - sn * sn)
    e = np.empty_like(sn)
    acc = np.zeros(rho.size)
    for coef, h, k in terms:
        np.multiply(sn, h * k, out=e)
        e -= 0.5 * (h * h + k * k)
        e *= inv
        np.exp(e, out=e)
        e *= _GL_W
        acc += coef * e.sum(axis=1)
    return acc * asr / (4.0 * np.pi)


def _genz_high(r, terms, sign):
    """sum_t coef_t (r(sign * r; h_t, k_t) - r(sign; h_t, k_t)) for
    0.925 <= r < 1: Genz's expansion in sqrt(1 - r^2) about the limit."""
    as_ = (1.0 - r) * (1.0 + r)
    a = np.sqrt(as_)
    xs = (0.5 * a[:, None] * (1.0 + _GL_X)) ** 2
    rs = np.sqrt(1.0 - xs)
    inv_xs = 1.0 / xs
    q = xs / (2.0 * (1.0 + rs) ** 2)
    acc = np.zeros(r.size)
    for coef, h, k in terms:
        k = sign * k
        hk = h * k
        bs = (h - k) ** 2
        c = (4.0 - hk) / 8.0
        d = (12.0 - hk) / 16.0
        bvn = a * np.exp(-0.5 * (bs / as_ + hk)) * (
            1.0 - c * (bs - as_) * (1.0 - d * bs / 5.0) / 3.0 + c * d * as_ * as_ / 5.0)
        if hk > -100.0:  # Genz's guard: the term underflows below this
            b = np.sqrt(bs)
            bvn -= (np.exp(-0.5 * hk) * np.sqrt(2.0 * np.pi) * ndtr(-b / a) * b
                    * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0))
        node = np.exp(-0.5 * (bs * inv_xs + hk))
        node *= np.exp(-hk * q) / rs - (1.0 + c * xs * (1.0 + d * xs))
        node *= _GL_W
        bvn += 0.5 * a * node.sum(axis=1)
        acc -= coef * bvn / (2.0 * np.pi)
    return sign * acc


def _rectangle_sum(rho, terms):
    """sum_t coef_t r(rho; h_t, k_t) over an array rho in [-1, 1].

    The points are taken _CHUNK at a time, and each point's value depends on
    that point alone.  NaN propagates (it takes the low branch).
    """
    a = np.asarray(rho, dtype=float)
    flat = a.reshape(-1)
    out = np.zeros(flat.size)
    ends = {s: sum(c * _r_endpoint(s, h, k) for c, h, k in terms) for s in (1.0, -1.0)}
    chunk = blocks.budget(_CHUNK)
    for lo in range(0, flat.size, chunk):
        x = flat[lo:lo + chunk]
        o = out[lo:lo + chunk]
        ax = np.abs(x)
        high = ax >= _HIGH_RHO
        low = ~high & (x != 0.0)
        if low.any():
            o[low] = _genz_low(x[low], terms)
        if high.any():
            for s in (1.0, -1.0):
                o[x == s] = ends[s]
                sel = high & (ax < 1.0) & (x * s > 0.0)
                if sel.any():
                    o[sel] = ends[s] + _genz_high(ax[sel], terms, s)
    return out.reshape(a.shape)


def r_ij(rho, qi, qj):
    """Covariance of threshold indicators 1{X<=qi}, 1{Y<=qj} at correlation rho."""
    a = np.asarray(rho, dtype=float)
    if np.any(np.abs(a) > 1.0):
        raise ValueError("correlation outside [-1, 1]")
    out = _rectangle_sum(a, ((1.0, float(qi), float(qj)),))
    return out if out.ndim else float(out)


class _RectangleComboMap(CovarianceMap):
    """Signed combination of r_ij terms sharing one threshold set."""

    def __init__(self, quantiles, terms, label):
        self.quantiles = quantiles
        self.terms = terms  # tuple of (coef, qi, qj)

        def dfn(a):
            a = np.asarray(a, dtype=float)
            acc = np.zeros_like(a)
            for coef, qi, qj in terms:
                acc += coef * binormal_density(a, qi, qj)
            return acc

        super().__init__(lambda a: _rectangle_sum(a, terms), dfn, label)


def _cell_terms(k, l):
    """Cov(1{g(X)=k}, 1{g(Y)=l}) as (coef, i, j) threshold-index terms.

    Telescoping the cell indicators into threshold indicators gives
    r_{k-1,l-1} + r_{k,l} - r_{k-1,l} - r_{k,l-1}.
    """
    return ((1.0, k - 1, l - 1), (1.0, k, l), (-1.0, k - 1, l), (-1.0, k, l - 1))


def _combine(q: ArmQuantiles, index_terms):
    """Merge (coef, i, j) threshold-index terms into (coef, q_i, q_j) terms.

    Terms whose threshold index is 0 or K drop out (their indicator is
    constant).  r_ij is symmetric in (i, j), so terms are merged on the
    unordered pair and listed in pair order: maps that are equal as sums of
    terms, such as f_{k,l} and f_{l,k}, then evaluate bit-identically.
    """
    merged = {}
    for coef, i, j in index_terms:
        if 1 <= i <= q.K - 1 and 1 <= j <= q.K - 1:
            key = (min(i, j), max(i, j))
            merged[key] = merged.get(key, 0.0) + coef
    return tuple((c, q.thresholds[i - 1], q.thresholds[j - 1])
                 for (i, j), c in sorted(merged.items()) if c != 0.0)


def f_cross(K, k, l):
    """Map rho -> Cov(1{g(X)=k}, 1{g(Y)=l}) for arm pair (k, l)."""
    q = quantile_thresholds(K)
    if not (1 <= k <= K and 1 <= l <= K):
        raise ValueError(f"arm index out of range for K = {K}")
    label = f"f_{k}" if k == l else f"f_{k},{l}"
    return _RectangleComboMap(q, _combine(q, _cell_terms(k, l)), f"{label}(K={K})")


def f_arm(K, k):
    """Single-arm covariance map f_k for arm k of K."""
    return f_cross(K, k, k)


def f_arm_prime(K, k, rho):
    """Derivative of f_k; undefined at |rho| >= 1 where it diverges."""
    a = np.asarray(rho, dtype=float)
    if np.any(np.abs(a) >= 1.0):
        raise ValueError("f_k' diverges at the endpoints +-1")
    return f_arm(K, k).deriv(rho)


def weighted_discrete_map(w, K):
    """f(rho) = sum_k w_k^2 f_k(rho), the nuclear-norm objective map."""
    w = np.asarray(w, dtype=float)
    if w.shape != (K,):
        raise ValueError(f"expected {K} arm weights, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("arm weights must be finite")
    q = quantile_thresholds(K)
    terms = _combine(q, [(w[k - 1] ** 2 * coef, i, j)
                         for k in range(1, K + 1) for coef, i, j in _cell_terms(k, k)])
    return _RectangleComboMap(q, terms, f"sum_k w_k^2 f_k(K={K})")


def apply_map(cmap: CovarianceMap, factor):
    """Elementwise image f(V V^T) of a correlation factor.

    Inner products are clamped to [-1, 1] to absorb row-normalization
    round-off; the diagonal is evaluated at exactly 1 (analytic limit).  The
    gram is exactly symmetric, so f is evaluated once per unordered pair
    {i, j} (see _map_symmetric) and the result equals the full elementwise
    evaluation bit for bit.
    """
    return _eval_symmetric(cmap, _gram(factor.rows))


def _eval_symmetric(cmap, g, out=None):
    """cmap.eval(g) of a symmetric gram g, written to ``out`` (a new array
    when None) once per unordered pair by _map_symmetric."""
    if out is None:
        out = np.empty_like(g)
    return _map_symmetric(lambda b: cmap.eval(g[b], out=out[b]), out)


def _map_symmetric(fn, out):
    """Fill the symmetric square array ``out`` from its upper triangle.

    The upper triangle is cut into row blocks of _ROW_BLOCK rows, each
    from its first row's column on (so the block's diagonal starts at its
    column 0).  ``fn(b)`` writes ``out[b]`` for b = (rows, cols), a block
    or, when the blocks run on several workers (see blocks), one of that
    many column pieces of a block, so memory in flight stays one block's;
    the strictly lower part below b is then mirrored from it.  An
    elementwise map of a symmetric gram is thus evaluated once per
    unordered pair, plus the lower half of each diagonal block, and equals
    the full evaluation bit for bit.  Pieces write disjoint parts of
    ``out``, so the result does not depend on the worker count.
    """
    n = out.shape[0]
    starts = range(0, n, _ROW_BLOCK)
    workers = blocks.width(len(starts))
    tasks = []
    for lo in starts:
        hi = min(lo + _ROW_BLOCK, n)
        edges = [lo + (n - lo) * p // workers for p in range(workers + 1)]
        tasks += [partial(_map_piece, fn, out, lo, hi, c0, c1)
                  for c0, c1 in zip(edges[:-1], edges[1:]) if c1 > c0]
    blocks.run(tasks, workers)
    return out


def _map_piece(fn, out, lo, hi, c0, c1):
    fn((slice(lo, hi), slice(c0, c1)))
    mid = max(c0, hi)
    out[mid:c1, lo:hi] = out[lo:hi, mid:c1].T


def _zero_diagonal(a, b):
    """Zero the entries of a = x[b], b a block of _map_symmetric, that lie
    on the diagonal of the square x."""
    rows, cols = b
    np.fill_diagonal(a[cols.start - rows.start:], 0.0)


def _is_identity(rows):
    """True when ``rows`` is exactly the identity (a square factor with n
    nonzeros, all on a unit diagonal)."""
    n = rows.shape[0]
    return (rows.shape == (n, n) and bool(np.all(np.diagonal(rows) == 1.0))
            and np.count_nonzero(rows) == n)


def _gram(rows):
    """V V^T clamped to [-1, 1] with the diagonal set to exactly 1; the
    identity factor's gram is I, formed without the product.

    The gram is exactly symmetric: the product is formed on C-contiguous
    rows, which numpy computes as one symmetric rank-k update, while a
    strided view takes a general loop whose (i, j) and (j, i) sums can
    differ in the last bit.
    """
    if _is_identity(rows):
        return np.eye(rows.shape[0])
    rows = np.ascontiguousarray(rows)
    g = rows @ rows.T
    np.clip(g, -1.0, 1.0, out=g)
    np.fill_diagonal(g, 1.0)
    return g


def build_table(cmap: CovarianceMap, grid_size=DEFAULT_TABLE_SIZE,
                edge_margin=DEFAULT_EDGE_MARGIN):
    """Attach a Chebyshev-grid tabulation; returns a new map, original untouched.

    The grid covers [-1 + edge_margin, 1 - edge_margin] with Chebyshev
    spacing (dense near the endpoints where f' blows up); evaluation inside
    uses monotone cubic (PCHIP) interpolation.  The maximum |table - direct|
    error over the grid midpoints is stored as ``table_f_error`` (for f) and
    ``table_d_error`` (for f').  Both scale with the map (with w^2 for
    weighted_discrete_map) and grow as the grid coarsens, so no fixed bound
    is asserted here; at the default grid the f error of a unit-weight f_k is
    about 3e-6, from the outermost cells.
    """
    if grid_size < 64:
        raise ValueError("table grid must have at least 64 points")
    tabulated = CovarianceMap(cmap._fn, cmap._dfn, cmap.label,
                              tail_l2=cmap.tail_l2, truncation=cmap.truncation)
    tabulated.table = Table(cmap._fn, cmap._dfn, grid_size, edge_margin)
    grid = tabulated.table.grid
    mid = 0.5 * (grid[1:] + grid[:-1])
    tabulated.table_f_error = float(np.max(np.abs(tabulated.eval(mid) - cmap._fn(mid))))
    tabulated.table_d_error = float(np.max(np.abs(tabulated.deriv(mid) - cmap._dfn(mid))))
    return tabulated
