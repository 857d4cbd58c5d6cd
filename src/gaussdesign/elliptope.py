"""Factorized correlation matrices and exact Gaussian treatment sampling.

A design lives on the correlation elliptope {Sigma >= 0, diag = 1} and is
held as a row-normalized factor V with Sigma = V V^T.  Treatments are drawn
as T = V z with z i.i.d. standard normal, so the covariance is exact by
construction and rank-deficient optimized designs (rho -> +-1 pairs) sample
without any decomposition of Sigma.

Draws are reproducible: replicate b reads its normals from counter-based
substream b (see rng), so parallel Monte Carlo gives identical results
regardless of scheduling.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import blocks, rng

_ROW_NORM_TOL = 1e-12
# A plain row norm below this may hold entries whose squares underflow.
_NORM_TINY = np.sqrt(np.finfo(float).tiny) / np.finfo(float).eps
_EIG_CLIP = 1e-10
# Latent values (replicates x units) that one chunk of _draw_chunks holds.
_DRAW_POINTS = 1 << 16


@dataclass(frozen=True)
class CorrelationFactor:
    """Row-normalized factor V (n x k) with Sigma = V V^T."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2:
            raise ValueError("factor rows must form a 2-D array")
        checks = blocks.over_rows(rows.shape[0], partial(_check_rows, rows))
        if not all(finite for finite, _ in checks):
            raise ValueError("factor rows must be finite")
        if not all(unit for _, unit in checks):
            raise ValueError("factor rows must have unit norm (within 1e-12)")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self):
        return self.rows.shape[0]

    @property
    def k(self):
        return self.rows.shape[1]

    def to_matrix(self):
        return self.rows @ self.rows.T

    @property
    def tag(self):
        """Short content hash used as a provenance tag for draws."""
        return hashlib.sha1(self.rows.tobytes()).hexdigest()[:12]


def _check_rows(rows, lo, hi):
    """(all finite, all of unit norm) for rows lo:hi."""
    r = rows[lo:hi]
    norms = np.linalg.norm(r, axis=1)
    return bool(np.all(np.isfinite(r))), not np.any(np.abs(norms - 1.0) > _ROW_NORM_TOL)


def _row_norms(a):
    """The Euclidean norms of the rows of a 2-D a, without the overflow or
    underflow of their squares.  A row whose plain norm is 0, non-finite or
    below _NORM_TINY is measured as max|a_i| ||a_i / max|a_i||| (0 for a
    zero row); every other row keeps its plain norm, bit for bit."""
    with np.errstate(over="ignore", under="ignore"):   # the squares' range is handled here
        norms = np.linalg.norm(a, axis=1)
        # one pass over the norms when no row is odd (a NaN norm fails both tests)
        if norms.min(initial=np.inf) >= _NORM_TINY and norms.max(initial=0.0) < np.inf:
            return norms
        odd = np.flatnonzero(~(np.isfinite(norms) & (norms >= _NORM_TINY)))
        if odd.size:
            r = a[odd]
            top = np.abs(r).max(axis=1, initial=0.0)
            norms[odd] = top * np.linalg.norm(r / np.where(top > 0.0, top, 1.0)[:, None],
                                              axis=1)
    return norms


def factor_from_rows(rows):
    """Normalize each row to unit length and wrap as a CorrelationFactor."""
    rows = np.asarray(rows, dtype=float)
    norms = _row_norms(rows)
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a zero row")
    return CorrelationFactor(rows / norms[:, None])


def identity_factor(n):
    """Rank-n factor of the identity design (i.i.d. treatments)."""
    if n < 1:
        raise ValueError("need at least one unit")
    return CorrelationFactor(np.eye(int(n)))


def block_factor(block_assignment, within_corr):
    """Factor of a block-equicorrelation design.

    Units sharing a label get pairwise correlation ``within_corr``; distinct
    blocks are independent.  Each block factor comes from the
    eigendecomposition of its m x m equicorrelation matrix, with eigenvalues
    within 1e-10 of zero clipped to 0 (the classical -1/(m-1) block design
    sits exactly on the PSD boundary).
    """
    labels = np.asarray(block_assignment)
    n = labels.size
    c = float(within_corr)
    rows = np.zeros((n, n))
    offset = 0
    for lab in dict.fromkeys(labels.tolist()):  # preserve first-seen order
        idx = np.flatnonzero(labels == lab)
        m = idx.size
        if m > 1 and c < -1.0 / (m - 1) - 1e-12:
            raise ValueError(
                f"block {lab!r} of size {m}: within_corr {c} below PSD bound {-1.0 / (m - 1):.6g}")
        R = np.full((m, m), c)
        np.fill_diagonal(R, 1.0)
        lam, U = np.linalg.eigh(R)
        lam = np.where((lam < 0) & (lam > -_EIG_CLIP), 0.0, lam)
        if np.any(lam < 0):
            raise ValueError(f"block {lab!r}: equicorrelation matrix not PSD")
        L = U * np.sqrt(lam)
        rows[np.ix_(idx, np.arange(offset, offset + m))] = L
        offset += m
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return CorrelationFactor(rows[:, :offset])


@dataclass(frozen=True)
class GaussianDraws:
    """B treatment vectors T^(b) = V z^(b), plus sampling provenance."""

    draws: np.ndarray
    seed: int
    factor_id: str


def _latent(factor: CorrelationFactor, seed, streams):
    """Latent treatment rows V z, row b from RNG substream streams[b]."""
    return rng.normals(seed, streams, factor.k) @ factor.rows.T


def sample(factor: CorrelationFactor, B, seed) -> GaussianDraws:
    """Draw B latent treatment vectors; replicate b uses RNG substream b.
    The rows are those of ``_draw_chunks``, bit for bit."""
    if B < 1:
        raise ValueError("need at least one draw")
    draws = np.empty((int(B), factor.n))
    for lo, hi, latent in _draw_chunks(factor, B, seed):
        draws[lo:hi] = latent
    return GaussianDraws(draws=draws, seed=int(seed), factor_id=factor.tag)


def _draw_chunks(factor: CorrelationFactor, B, seed):
    """Yield (lo, hi, latent) over replicates 0..B-1, where latent holds rows
    lo:hi of ``sample(factor, B, seed).draws`` and at most
    max(1, _DRAW_POINTS // n) rows, so a consumer that reduces each chunk
    keeps O(_DRAW_POINTS) values whatever B is.  ``sample``, the CLI's
    ``sample`` and the randomization CIs all draw through these chunks:
    BLAS may round a row of z V^T differently with the number of rows in
    one product, so one chunking gives them the same bits."""
    B = int(B)
    step = max(1, _DRAW_POINTS // factor.n)
    for lo in range(0, B, step):
        hi = min(lo + step, B)
        yield lo, hi, _latent(factor, seed, np.arange(lo, hi))


@dataclass(frozen=True)
class ValidationReport:
    unit_diag: bool
    min_eigenvalue: float
    max_diag_dev: float

    @property
    def passed(self):
        return self.unit_diag and self.min_eigenvalue > -1e-8


def validate(matrix) -> ValidationReport:
    """Check membership in the correlation elliptope (unit diagonal, PSD)."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    dev = float(np.max(np.abs(np.diag(m) - 1.0)))
    eigmin = float(np.linalg.eigvalsh((m + m.T) / 2.0)[0])
    return ValidationReport(unit_diag=dev < 1e-8, min_eigenvalue=eigmin, max_diag_dev=dev)


def save_matrix(path, matrix):
    np.savetxt(path, np.asarray(matrix, dtype=float), delimiter=",", fmt="%.17g")


def load_matrix(path):
    m = np.loadtxt(path, delimiter=",", ndmin=2)
    return m


def save_factor(path, factor: CorrelationFactor):
    save_matrix(path, factor.rows)


def load_factor(path) -> CorrelationFactor:
    return CorrelationFactor(load_matrix(path))

