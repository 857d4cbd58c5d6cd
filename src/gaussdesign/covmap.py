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

Every combination is evaluated by one kernel, the bivariate normal rule of
Genz (Statistics and Computing 14:251-260, 2004, after Drezner & Wesolowsky
1990), on one chunk of points at a time:

- for |rho| < 0.925, Gauss-Legendre in asin coordinates (r = sin(theta)
  removes the 1/sqrt(1-r^2) endpoint singularity) with Genz's orders: 6
  nodes for |rho| < 0.3, 12 for |rho| < 0.75 and 20 up to 0.925; the sin
  nodes are computed once per chunk and rule and shared by all terms of the
  map;
- for 0.925 <= |rho| < 1, Genz's asymptotic expansion around the
  co/antimonotone limit, plus a 20-point rule for its remainder;
- at rho = +-1 exactly, the analytic co/antimonotone limits (computed once
  per map); at rho = 0 exactly, 0.

Against a 40-digit reference the kernel is within 1e-14 absolute (measured
maximum 1.5e-16 over K in {2, 3, 8, 16, 64} and |rho| up to 1 - 1e-15,
with both sides of each rule's limit; largest just below 0.3, where the
6-point rule ends).  Each point is computed on its own, so the output does
not depend on the chunk size.

Maps can be tabulated for the O(n^2) elementwise evaluations inside the
design optimizer (``build_table``): one cubic Hermite table on a grid
uniform in theta = arccos(rho), whose nodes hold f and the analytic slope
-f'(rho) sin(theta).  In theta the maps are smooth up to the grid's edges,
where f' diverges in rho.  One kernel serves f and f': the cell index is
(theta - theta_0) / h rounded down, and the cell's cubic gives f and, over
-sin(theta), f'.  Points outside the grid go to the direct evaluator.
``build_table`` measures the table's error at the grid midpoints against
the direct evaluator and asserts it: at most 1e-5 of max |f| for f and of
max |f'| for f' (measured worst over every f_k and f_{k,k+1}, K = 2..64:
1.3e-6 for f and 7.2e-7 for f', both at K = 64).

Every evaluation, on the table or direct, runs through one loop (_walk):
it cuts the points into chunks of _TABLE_CHUNK (table) or _CHUNK (direct:
the Genz f, the exact f', series maps and the table's outside points)
points, divided across the workers of a pool (blocks.budget), and reads
and writes strided 2-D blocks in place.  Memory in flight is one chunk's
temporaries per worker, whatever the number of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from statistics import NormalDist

import numpy as np

from . import blocks

DEFAULT_TABLE_SIZE = 2001
DEFAULT_EDGE_MARGIN = 1e-6

# Points per chunk of _walk, divided across the workers of a pool
# (blocks.budget); they bound the (points x nodes) and table temporaries.
# Two workers take 1 << 15 table points each: their per-chunk interpreter
# overhead contends for one lock, so smaller chunks scale worse.
_CHUNK = 8192
_TABLE_CHUNK = 1 << 16
# build_table's bound on the table error, relative to the largest |f| (|f'|)
_TABLE_RTOL = 1e-5
_MIN_PANEL = 4   # narrowest product panel of a gram block (_panel)
_HIGH_RHO = 0.925   # Genz's switch to the asymptotic branch
_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)
# Genz's rules below _HIGH_RHO: (|rho| limit, nodes mapped to [0, 1], weights)
_LOW_RULES = tuple((limit, 0.5 * (1.0 + x), w) for limit, (x, w) in (
    (0.3, np.polynomial.legendre.leggauss(6)),
    (0.75, np.polynomial.legendre.leggauss(12)),
    (_HIGH_RHO, (_GL_X, _GL_W))))
_STD_NORMAL = NormalDist()


def _ndtr(x):
    """Phi(x) = erfc(-x / sqrt(2)) / 2, the standard normal CDF, from
    math.erfc: a float for a scalar x, elementwise for an array."""
    if np.ndim(x):
        z = np.asarray(x, dtype=float) * -math.sqrt(0.5)
        erfc = np.fromiter(map(math.erfc, z.ravel().tolist()), float, z.size)
        return 0.5 * erfc.reshape(z.shape)
    return 0.5 * math.erfc(x * -math.sqrt(0.5))


def _ndtri(p):
    """Phi^-1(p), the standard normal quantile of a scalar p (Wichura's
    AS241 through statistics.NormalDist); as scipy.special.ndtri, -inf at 0,
    inf at 1 and NaN outside [0, 1]."""
    if 0.0 < p < 1.0:
        return _STD_NORMAL.inv_cdf(p)
    if p == 0.0:
        return -math.inf
    return math.inf if p == 1.0 else math.nan


def _walk(kernel, chunk, a, out=None):
    """Write kernel(x) for each chunk x of ``a``'s points to the same place
    of ``out`` (an array of a's shape; a new one when None) and return
    ``out``.  This is the one loop over a map's points: chunks of about
    ``blocks.budget(chunk)`` points, whole rows of the last axis or pieces
    of a longer row, so a strided 2-D ``a`` or ``out`` (a block of a larger
    array) is read and written in place; any other ``out`` must be
    C-contiguous.  Each chunk is read before it is written, so ``out`` may
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
    chunk = blocks.budget(chunk)
    step = max(1, chunk // width)
    piece = min(width, chunk)
    for i in range(0, pts.shape[0], step):
        for j in range(0, width, piece):
            dst[i:i + step, j:j + piece] = kernel(pts[i:i + step, j:j + piece])
    return out


class Table:
    """A map's cubic Hermite interpolant on DEFAULT_TABLE_SIZE nodes uniform
    in theta = arccos(rho) over [-1 + DEFAULT_EDGE_MARGIN, 1 - DEFAULT_EDGE_MARGIN].

    Each cell's cubic in s = theta - theta_c matches f and the analytic
    slope -f'(rho) sin(theta) at its two nodes; it gives f, and its
    derivative over -sin(theta) gives f'.  ``grid`` holds the nodes as
    ascending rho, its ends the table's edges, and ``f_values``/``d_values``
    f and f' there, which must be finite (a ValueError names the map
    ``label`` otherwise).  The middle node is exactly rho = 0
    (theta = pi/2), so f(0) = 0 stays exact.
    """

    def __init__(self, fn, dfn, label):
        edge = 1.0 - DEFAULT_EDGE_MARGIN
        theta = np.linspace(np.arccos(edge), np.arccos(-edge), DEFAULT_TABLE_SIZE)
        rho = np.cos(theta)
        rho[0], rho[-1] = edge, -edge
        mid = DEFAULT_TABLE_SIZE // 2
        theta[mid], rho[mid] = np.pi / 2, 0.0
        self.grid = rho[::-1].copy()
        self.f_values = fn(self.grid)
        self.d_values = dfn(self.grid)
        if not (np.all(np.isfinite(self.f_values)) and np.all(np.isfinite(self.d_values))):
            raise ValueError(f"{label}: table values must be finite")
        y = self.f_values[::-1]
        slope = -self.d_values[::-1] * np.sqrt((1.0 - rho) * (1.0 + rho))
        h = np.diff(theta)
        m = np.diff(y) / h
        # coefficients of s^3, s^2, s, 1 on each cell [theta_c, theta_c+1]
        self.coef = np.stack(((slope[:-1] + slope[1:] - 2.0 * m) / (h * h),
                              (3.0 * m - 2.0 * slope[:-1] - slope[1:]) / h,
                              slope[:-1], y[:-1]))
        self.theta = theta
        self._inv_h = (theta.size - 1) / (theta[-1] - theta[0])

    def evaluate(self, x, direct, deriv):
        """The interpolant (f' when ``deriv``) at the points ``x`` (one chunk
        of _walk), a new array; points outside the grid (and NaN) take
        ``direct``."""
        inside = (x >= self.grid[0]) & (x <= self.grid[-1])
        allin = inside.all()
        # outside points and NaN get a dummy in-grid value (the integer cast
        # of NaN warns); their output comes from ``direct`` below
        xi = x if allin else np.where(inside, x, 0.0)
        th = np.arccos(xi)
        t = th - self.theta[0]
        t *= self._inv_h
        c = t.astype(np.intp)
        np.minimum(c, self.theta.size - 2, out=c)
        s = th - np.take(self.theta, c)
        a3, a2, a1, a0 = self.coef
        o = np.take(a3, c)
        if deriv:
            # -(d/ds of the cubic) / sin(theta), as d(rho) = -sin(theta) d(theta)
            o *= -1.5 * s
            o -= np.take(a2, c)
            o *= 2.0 * s
            o -= np.take(a1, c)
            o /= np.sqrt((1.0 - xi) * (1.0 + xi))
        else:
            o *= s
            o += np.take(a2, c)
            o *= s
            o += np.take(a1, c)
            o *= s
            o += np.take(a0, c)
        if not allin:
            o[~inside] = direct(x[~inside])
        return o


class CovarianceMap:
    """Elementwise transform f on [-1, 1] with derivative f' on (-1, 1).

    ``eval``/``deriv`` accept scalars or arrays.  When a table is attached
    (``build_table``), queries inside the grid use its interpolant and
    queries outside (including exactly +-1) fall back to the direct
    evaluator; ``table_f_error`` and ``table_d_error`` then hold the table's
    measured maximum error.
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
        return self._apply(self._fn, False, a, out)

    def deriv(self, rho, out=None):
        """f' at ``rho``, written to ``out`` as in ``eval``."""
        a = np.asarray(rho, dtype=float)
        if np.any(np.abs(a) >= 1.0):
            raise ValueError(f"{self.label}: derivative requested at |rho| >= 1")
        return self._apply(self._dfn, True, a, out)

    def _apply(self, fn, deriv, a, out):
        direct = partial(_walk, fn, _CHUNK)
        if self.table is None:
            out = direct(a, out)
        else:
            table = partial(self.table.evaluate, direct=direct, deriv=deriv)
            out = _walk(table, _TABLE_CHUNK, a, out)
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
    # q_{K-i} = -q_i exactly, as Phi^-1 is odd about 1/2 (i/K and (K-i)/K
    # round independently, so computing both sides misses it by an ulp)
    q = np.array([_ndtri(i / K) if 2 * i <= K else -_ndtri((K - i) / K)
                  for i in range(1, K)])
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
    pi_, pj = _ndtr(qi), _ndtr(qj)
    if rho_sign > 0:
        return min(pi_, pj) - pi_ * pj
    return max(0.0, pi_ + pj - 1.0) - pi_ * pj


def _genz_low(rho, terms, nodes, weights):
    """sum_t coef_t r(rho; h_t, k_t) for 0 < |rho| < 0.925: the Gauss-Legendre
    rule (``nodes`` on [0, 1], ``weights``) on [0, asin(rho)] in theta, with
    r = sin(theta).  The nodes x points layout adds each point's weighted
    nodes in node order, one contiguous row at a time, whatever the number
    of points (a numpy reduction picks its order by shape)."""
    asr = np.arcsin(rho)
    sn = np.sin(nodes[:, None] * asr)
    inv = 1.0 / (1.0 - sn * sn)
    e = np.empty_like(sn)
    w = weights[:, None]
    acc = np.zeros(rho.size)
    for coef, h, k in terms:
        np.multiply(sn, h * k, out=e)
        e -= 0.5 * (h * h + k * k)
        e *= inv
        np.exp(e, out=e)
        e *= w
        total = e[0]
        for row in e[1:]:
            total += row
        acc += coef * total
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
    node, e, g = np.empty_like(xs), np.empty_like(xs), np.empty_like(xs)
    acc = np.zeros(r.size)
    for coef, h, k in terms:
        k = sign * k
        hk = h * k
        bs = (h - k) ** 2
        c = (4.0 - hk) / 8.0
        d = (12.0 - hk) / 16.0
        bvn = a * np.exp(-0.5 * (bs / as_ + hk)) * (
            1.0 - c * (bs - as_) * (1.0 - d * bs / 5.0) / 3.0 + c * d * as_ * as_ / 5.0)
        # Genz's guard: the term underflows below hk = -100; at b = 0 it is 0
        if hk > -100.0 and bs > 0.0:
            b = np.sqrt(bs)
            bvn -= (np.exp(-0.5 * hk) * np.sqrt(2.0 * np.pi) * _ndtr(-b / a) * b
                    * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0))
        # exp(-(bs / xs + hk) / 2) (exp(-hk q) / rs - (1 + c xs (1 + d xs))),
        # in place in three buffers shared by the terms
        np.multiply(xs, d, out=g)
        g += 1.0
        np.multiply(xs, c, out=node)
        g *= node
        g += 1.0
        np.multiply(q, -hk, out=e)
        np.exp(e, out=e)
        e /= rs
        e -= g
        np.multiply(inv_xs, bs, out=node)
        node += hk
        node *= -0.5
        np.exp(node, out=node)
        node *= e
        node *= _GL_W
        bvn += 0.5 * a * node.sum(axis=1)
        acc -= coef * bvn / (2.0 * np.pi)
    return sign * acc


def _ends(terms):
    """{s: sum_t coef_t r(s; h_t, k_t)} at s = 1 and -1, the analytic
    co/antimonotone limits of a map."""
    return {s: sum(c * _r_endpoint(s, h, k) for c, h, k in terms) for s in (1.0, -1.0)}


def _rectangle_sum(x, terms, ends):
    """sum_t coef_t r(x; h_t, k_t) at each point of an array x in [-1, 1] (one
    chunk of _walk), with ``ends`` = _ends(terms).  Each point's value
    depends on that point alone; NaN propagates (it takes the first low
    rule)."""
    o = np.zeros(x.shape)
    ax = np.abs(x)
    high = ax >= _HIGH_RHO
    low = ~high & (x != 0.0)
    for limit, nodes, weights in _LOW_RULES:
        band = low & ~(ax >= limit)
        if band.any():
            o[band] = _genz_low(x[band], terms, nodes, weights)
            low &= ~band
    if high.any():
        for s in (1.0, -1.0):
            o[x == s] = ends[s]
            sel = high & (ax < 1.0) & (x * s > 0.0)
            if sel.any():
                o[sel] = ends[s] + _genz_high(ax[sel], terms, s)
    return o


def r_ij(rho, qi, qj):
    """Covariance of threshold indicators 1{X<=qi}, 1{Y<=qj} at correlation rho."""
    return _RectangleComboMap(((1.0, float(qi), float(qj)),), "r_ij").eval(rho)


def _density_sum(x, terms):
    """sum_t coef_t p_x(h_t, k_t), the derivative of _rectangle_sum."""
    acc = np.zeros(x.shape)
    for coef, h, k in terms:
        acc += coef * binormal_density(x, h, k)
    return acc


class _RectangleComboMap(CovarianceMap):
    """Signed combination of r_ij terms sharing one threshold set."""

    def __init__(self, terms, label):
        self.terms = terms  # tuple of (coef, qi, qj)
        super().__init__(partial(_rectangle_sum, terms=terms, ends=_ends(terms)),
                         partial(_density_sum, terms=terms), label)


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
    return _RectangleComboMap(_combine(q, _cell_terms(k, l)), f"{label}(K={K})")


def f_arm(K, k):
    """Single-arm covariance map f_k for arm k of K."""
    return f_cross(K, k, k)


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
    return _RectangleComboMap(terms, f"sum_k w_k^2 f_k(K={K})")


def apply_map(cmap: CovarianceMap, factor):
    """Elementwise image f(V V^T) of a correlation factor.

    Inner products are clamped to [-1, 1] to absorb row-normalization
    round-off; the diagonal is evaluated at exactly 1 (analytic limit).  The
    gram is exactly symmetric, so f is evaluated once per unordered pair
    {i, j} (see _map_symmetric) and the result equals the full elementwise
    evaluation bit for bit.  No pipeline path calls it: the optimizer's term
    matrices and the analyses' forms X^T f(V V^T) X (_sum_forms) and pair
    sums (_reduce_symmetric) add up the blocks of f(V V^T) without forming
    it.
    """
    return _eval_symmetric(cmap, _gram(factor.rows))


def _reduce_symmetric(rows, block_fn):
    """[block_fn(b, g_b) for each block b = (rows, cols) of the gram's upper
    triangle], in block order, on the fixed grid of blocks.over_upper.  g_b
    is V[rows] V[cols]^T clamped to [-1, 1] and 0 on and below the diagonal
    (_mask_lower), where every covariance map vanishes: callers add the
    diagonal (exactly 1) in closed form.  The product is formed in column
    panels of _panel(k) columns from the block's first column, so at rank
    k <= 1024 each is at most blocks.SERIAL_MACS multiply-adds and OpenBLAS
    runs it on the calling worker.  The partials are bit-identical on any
    worker count; one block per worker is in flight."""
    rows = np.ascontiguousarray(rows)
    return _formed_blocks(rows.shape[0], partial(_rows_block, rows), block_fn)


def _formed_blocks(n, form, block_fn):
    """_reduce_symmetric's partials from the n x n gram whose block b
    ``form(b, out)`` returns: written to the block temporary out, so the
    gram is never held whole, or a view of a held gram, which is copied
    before a diagonal block is masked (_mask_lower), so it is never
    written."""
    def block(b):
        rows, cols = b
        out = np.empty((rows.stop - rows.start, cols.stop - cols.start))
        gb = form(b, out)
        if rows.start == cols.start and gb is not out:
            np.copyto(out, gb)
            gb = out
        return block_fn(b, _mask_lower(gb, b))

    return blocks.over_upper(n, block)


def _panel(k):
    """Columns per product panel of a gram block of rank k: at most
    blocks.SERIAL_MACS multiply-adds, so the product stays on the calling
    worker, but never fewer than _MIN_PANEL columns.  Narrower panels are
    near matrix-vector products that reread the block's rows per column: at
    n = k = 1600 on 2 vCPUs the bound took 0.35-0.38 s in 2-column panels,
    0.19 s in 4-column panels and 0.23-0.24 s in whole threaded blocks."""
    return max(_MIN_PANEL, blocks.SERIAL_MACS // (blocks.ROW_BLOCK * max(1, k)))


def _panel_product(left, right, out):
    """left @ right^T written to ``out``, in column panels of _panel(k)
    columns, k = left.shape[1]."""
    step = _panel(left.shape[1])
    for j in range(0, out.shape[1], step):
        np.matmul(left, right[j:j + step].T, out=out[:, j:j + step])
    return out


def _mask_lower(g, b):
    """g = x[b], b a block of blocks.over_upper's grid over the square x,
    with the entries on and below x's diagonal set to 0 (in place)."""
    rows, cols = b
    if rows.start == cols.start:
        g[blocks.lower(rows.stop - rows.start)] = 0.0
    return g


def _rows_block(rows, b, out):
    """Block b of the gram of ``rows``, clamped to [-1, 1], written to out."""
    r, c = b
    return np.clip(_panel_product(rows[r], rows[c], out), -1.0, 1.0, out=out)


def _sum_forms(over_blocks, maps, X, diag):
    """[X^T f(Sigma) X for f in maps] = S + S^T + D, the one kernel of the
    design criterion, the balance measure and the design variance.  S sums
    X_rows^T f(g_b) X_cols over the blocks b = (rows, cols) of
    ``over_blocks(block_fn)`` (_reduce_symmetric's partials from the rows,
    _formed_blocks' from a gram's block function),
    in block order, with g_b 0 on and below the diagonal; D = f(1) X^T X
    (``diag``, see _diagonal_forms) is the diagonal's part.  Each form is
    exactly symmetric and bit-identical on any worker count."""
    def block(b, g):
        F = np.empty_like(g)
        return [X[b[0]].T @ m.eval(g, out=F) @ X[b[1]] for m in maps]

    return [S + S.T + D for S, D in zip(map(sum, zip(*over_blocks(block))), diag)]


def _diagonal_forms(maps, X):
    """[f(1) X^T X for f in maps], the diagonal's part of X^T f(Sigma) X
    (and the whole of it at Sigma = I, as every map vanishes at 0)."""
    XtX = X.T @ X
    return [m.eval(1.0) * XtX for m in maps]


def _map_forms(rows, maps, X):
    """[X^T f(V V^T) X for f in maps], V = ``rows``, streamed from the
    rows' blocks (see _sum_forms)."""
    return _sum_forms(partial(_reduce_symmetric, rows), maps, X, _diagonal_forms(maps, X))


def _eval_symmetric(cmap, g):
    """cmap.eval(g) of a symmetric gram g, evaluated once per unordered pair
    by _map_symmetric."""
    out = np.empty_like(g)
    return _map_symmetric(lambda b: cmap.eval(g[b], out=out[b]), out)


def _map_symmetric(fn, out):
    """Fill the symmetric square array ``out`` from its upper triangle.

    ``fn(b)`` writes ``out[b]`` for each block b = (rows, cols) of the
    upper triangle on the fixed grid of blocks.over_upper (a diagonal
    block's diagonal starts at its column 0); the strictly lower part below
    b is then mirrored from it.  An elementwise map of a symmetric gram is
    thus evaluated once per unordered pair, plus the lower half of each
    diagonal block, and equals the full evaluation bit for bit.  Blocks
    write disjoint parts of ``out``, so the result does not depend on the
    worker count.
    """
    def block(b):
        fn(b)
        rows, cols = b
        mid = max(cols.start, rows.stop)
        out[mid:cols.stop, rows] = out[rows, mid:cols.stop].T

    blocks.over_upper(out.shape[0], block)
    return out


def _zero_diagonal(a, b):
    """Zero the entries of a = x[b], b a block of _map_symmetric, that lie
    on the diagonal of the square x."""
    rows, cols = b
    np.fill_diagonal(a[cols.start - rows.start:], 0.0)


def _syrk(rows):
    """rows rows^T, exactly symmetric: the product is formed on C-contiguous
    rows, which numpy computes as one symmetric rank-k update, while a
    strided view takes a general loop whose (i, j) and (j, i) sums can
    differ in the last bit."""
    rows = np.ascontiguousarray(rows)
    return rows @ rows.T


def _gram(rows):
    """V V^T clamped to [-1, 1] with the diagonal set to exactly 1 (and
    exactly symmetric, see _syrk)."""
    g = _syrk(rows)
    np.clip(g, -1.0, 1.0, out=g)
    np.fill_diagonal(g, 1.0)
    return g


def build_table(cmap: CovarianceMap):
    """Attach a Table (the cubic Hermite interpolant in theta = arccos rho);
    returns a new map, original untouched.

    f and f' must be finite at every grid node, or a ValueError names the
    map.  The maximum |table - direct| error over the grid midpoints is
    stored as ``table_f_error`` (for f) and ``table_d_error`` (for f'), and
    each must be at most _TABLE_RTOL times the largest |f| (|f'|) over the
    grid nodes, or a ValueError names the map.  The bound is relative, so it
    holds for any weights of weighted_discrete_map.
    """
    tabulated = CovarianceMap(cmap._fn, cmap._dfn, cmap.label,
                              tail_l2=cmap.tail_l2, truncation=cmap.truncation)
    table = tabulated.table = Table(cmap._fn, cmap._dfn, cmap.label)
    mid = 0.5 * (table.grid[1:] + table.grid[:-1])
    tabulated.table_f_error = float(np.max(np.abs(tabulated.eval(mid) - cmap._fn(mid))))
    tabulated.table_d_error = float(np.max(np.abs(tabulated.deriv(mid) - cmap._dfn(mid))))
    f_bound = _TABLE_RTOL * float(np.max(np.abs(table.f_values)))
    d_bound = _TABLE_RTOL * float(np.max(np.abs(table.d_values)))
    if not (tabulated.table_f_error <= f_bound and tabulated.table_d_error <= d_bound):
        raise ValueError(
            f"{cmap.label}: table error f {tabulated.table_f_error:.3g} (bound {f_bound:.3g}),"
            f" f' {tabulated.table_d_error:.3g} (bound {d_bound:.3g}); the map is not"
            " smooth enough in arccos(rho) to tabulate")
    return tabulated
