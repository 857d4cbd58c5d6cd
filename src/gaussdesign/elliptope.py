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
_EIG_CLIP = 1e-10


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


def factor_from_rows(rows):
    """Normalize each row to unit length and wrap as a CorrelationFactor."""
    rows = np.asarray(rows, dtype=float)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a zero row")
    return CorrelationFactor(rows / norms)


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


def sample(factor: CorrelationFactor, B, seed) -> GaussianDraws:
    """Draw B latent treatment vectors; replicate b uses RNG substream b."""
    if B < 1:
        raise ValueError("need at least one draw")
    z = rng.normals(seed, np.arange(int(B)), factor.k)
    return GaussianDraws(draws=z @ factor.rows.T, seed=int(seed), factor_id=factor.tag)


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


def save_draws(path, draws: GaussianDraws):
    save_matrix(path, draws.draws)


def load_draws(path):
    return load_matrix(path)
