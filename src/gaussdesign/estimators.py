"""Horvitz-Thompson estimators for discrete arms and continuous treatments.

Discrete arms use tau_hat_k = (K/n) sum_i 1{D_i = k} Y_i and weighted
combinations over arms.  Continuous (Gaussian-design) treatments use
tau_hat = (1/n) sum_i Y_i w(T_i) for a pre-specified weight function w;
polynomial weights identify average derivatives via Stein's lemma
(w(t) = (t - mu)/sigma^2 for the first, ((t - mu)^2/sigma^2 - 1)/sigma^2
for the second), and the interval weight 1{t in [r, l]} / ((l - r) phi(t))
identifies the averaged response over [r, l].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covmap import _ndtri, discretize, quantile_thresholds
from .hermite import gauss_hermite_nodes

_PHI_FLOOR = 1e-300
_WRITE_BLOCK = 4096   # rows per format call of write_rows (about 100 KB of text)
_Z999 = _ndtri(0.999)


def _phi(t):
    return np.exp(-0.5 * np.asarray(t, dtype=float) ** 2) / np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class WeightFn:
    """Continuous-treatment weight function w(t)."""

    tag: str
    r: float = None
    l: float = None
    mu: float = None
    sigma: float = None

    @classmethod
    def interval(cls, r, l):
        if not r < l:
            raise ValueError("interval weight requires r < l")
        return cls(tag="interval", r=float(r), l=float(l))

    @classmethod
    def first_derivative(cls, mu=0.0, sigma=1.0):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        return cls(tag="first_derivative", mu=float(mu), sigma=float(sigma))

    @classmethod
    def second_derivative(cls, mu=0.0, sigma=1.0):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        return cls(tag="second_derivative", mu=float(mu), sigma=float(sigma))

    def __call__(self, t):
        return weight_eval(self, t)


def weight_eval(weight: WeightFn, t):
    """Evaluate a weight function at treatment value(s) t."""
    t = np.asarray(t, dtype=float)
    if weight.tag == "interval":
        dens = _phi(t)
        return np.where((t >= weight.r) & (t <= weight.l),
                        1.0 / ((weight.l - weight.r) * np.maximum(dens, _PHI_FLOOR)),
                        0.0)
    if weight.tag == "first_derivative":
        return (t - weight.mu) / weight.sigma ** 2
    if weight.tag == "second_derivative":
        return ((t - weight.mu) ** 2 / weight.sigma ** 2 - 1.0) / weight.sigma ** 2
    raise ValueError(f"unknown weight tag {weight.tag!r}")


@dataclass(frozen=True)
class EstimandSpec:
    """What to estimate: a single arm mean, an arm contrast, or a weighted
    continuous functional.

    An arm or contrast estimand holds per-arm weights w (e_k for arm k) and
    is scored as (K/n) sum_i w_{D_i} Y_i; a continuous one holds a WeightFn
    and is scored as (1/n) sum_i Y_i w(T_i).  w is a tuple, so specs compare
    by value and hash."""

    K: int = None
    w: tuple = None
    weight: WeightFn = None
    label: str = ""

    @classmethod
    def arm(cls, k, K, label=None):
        if not 1 <= k <= K:
            raise ValueError(f"arm index {k} out of range 1..{K}")
        w = tuple(float(j == k) for j in range(1, K + 1))
        return cls(K=int(K), w=w, label=label or f"arm_{k}")

    @classmethod
    def contrast(cls, w, K, label=None):
        w = np.asarray(w, dtype=float)
        if w.shape != (K,):
            raise ValueError(f"contrast needs {K} weights, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("contrast weights must be finite")
        return cls(K=int(K), w=tuple(w.tolist()), label=label or "contrast")

    @classmethod
    def continuous(cls, weight: WeightFn, label=None):
        return cls(weight=weight, label=label or weight.tag)

    @property
    def arm_weights(self):
        """Per-arm weight vector (e_k for an arm estimand), a new array."""
        if self.w is None:
            raise ValueError("continuous estimand has no arm weights")
        return np.array(self.w)

    def estimates(self, arms, T, Y):
        """The HT estimate of every row of a replicate block: arms D,
        treatments T and outcomes Y of shape (..., n); the arms of a
        continuous estimand and the treatments of a discrete one are not
        read and may be None."""
        if self.w is None:
            return _ht_weight(T, Y, self.weight)
        return _ht_arm_weights(arms, Y, self.arm_weights, self.K)

    def estimate(self, records: ExperimentRecords):
        """The HT estimate of one experiment."""
        if records.n == 0:
            raise ValueError("no experimental records")
        if self.w is not None:
            return float(self.estimates(records.arms(self.K), None, records.Y))
        if records.T is None:
            raise ValueError("continuous estimator requires latent treatments T")
        if self.weight.tag == "interval":
            bad = np.flatnonzero((_phi(records.T) < _PHI_FLOOR) & (records.T >= self.weight.r)
                                 & (records.T <= self.weight.l))
            if bad.size:
                raise FloatingPointError(
                    f"interval weight underflows phi(T) at unit {int(bad[0]) + 1}")
        return float(self.estimates(None, records.T, records.Y))


@dataclass(frozen=True)
class ExperimentRecords:
    """Column-wise per-unit experiment data.

    Discrete analyses need D (arm in 1..K), or T plus a declared K; continuous
    analyses need T and Y.  X carries covariates for imputation models.
    """

    Y: np.ndarray
    X: np.ndarray = None
    T: np.ndarray = None
    D: np.ndarray = None

    def __post_init__(self):
        Y = np.asarray(self.Y, dtype=float)
        object.__setattr__(self, "Y", Y)
        if self.X is not None:
            object.__setattr__(self, "X", np.asarray(self.X, dtype=float))
        if self.T is not None:
            object.__setattr__(self, "T", np.asarray(self.T, dtype=float))
        if self.D is not None:
            object.__setattr__(self, "D", np.asarray(self.D, dtype=int))
        if not np.all(np.isfinite(Y)):
            raise ValueError("outcomes Y contain non-finite values")
        if self.X is not None and not np.all(np.isfinite(self.X)):
            raise ValueError("covariates X contain non-finite values")
        if self.T is not None and not np.all(np.isfinite(self.T)):
            raise ValueError("treatments T contain non-finite values")
        for name in ("X", "T", "D"):
            col = getattr(self, name)
            if col is not None and len(col) != Y.size:
                raise ValueError(f"{name} has {len(col)} rows for {Y.size} outcomes")

    @property
    def n(self):
        return self.Y.size

    def arms(self, K):
        """Observed arms; latent T is discretized through the shared map g."""
        if self.D is not None:
            if np.any((self.D < 1) | (self.D > K)):
                raise ValueError(f"arm labels outside 1..{K}")
            return self.D
        if self.T is None:
            raise ValueError("records carry neither arms D nor latent T")
        return discretize(self.T, quantile_thresholds(K))


def write_rows(fh, row_format, columns):
    """Write one line ``row_format % row`` per row of ``columns``.

    ``columns`` holds one equal-length list or 1-D array per % field of
    ``row_format``.  Rows go out _WRITE_BLOCK at a time, each block in a
    single format call over the block's fields.  ``"%.17g" % x`` equals
    ``f"{x:.17g}"`` for every float (nan, +-inf and -0.0 included) and
    ``"%d" % k`` equals ``str(k)``, so the bytes are those of formatting each
    cell on its own.
    """
    width = len(columns)
    n = len(columns[0])
    for lo in range(0, n, _WRITE_BLOCK):
        rows = min(_WRITE_BLOCK, n - lo)
        fields = [None] * (rows * width)
        for j, col in enumerate(columns):
            part = col[lo:lo + rows]
            fields[j::width] = part.tolist() if isinstance(part, np.ndarray) else part
        fh.write((row_format + "\n") * rows % tuple(fields))


def records_to_csv(path, records: ExperimentRecords):
    n = records.n
    d = 0 if records.X is None else records.X.shape[1]
    cols = ["unit", "T", "D", "Y"] + [f"x{j + 1}" for j in range(d)]
    # absent T or D columns are empty fields, written as part of the format
    row_format = ("%d," + ("" if records.T is None else "%.17g") + ","
                  + ("" if records.D is None else "%d") + ",%.17g" + ",%.17g" * d)
    columns = [list(range(1, n + 1))]
    columns += [c for c in (records.T, records.D) if c is not None]
    columns += [records.Y] + [records.X[:, j] for j in range(d)]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        write_rows(fh, row_format, columns)


def records_from_csv(path) -> ExperimentRecords:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        idx = {name: j for j, name in enumerate(header)}
        for required in ("unit", "Y"):
            if required not in idx:
                raise ValueError(f"records CSV missing column {required!r}")
        rows = []
        for lineno, line in enumerate(fh, 2):
            if not line.strip():
                continue
            row = line.strip().split(",")
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: {len(row)} fields, but the header "
                                 f"has {len(header)}")
            # records pair with factor rows by position, so the ids must be
            # 1..n in file order (what records_to_csv writes)
            if row[idx["unit"]] != str(len(rows) + 1):
                raise ValueError(f"{path}:{lineno}: unit id {row[idx['unit']]!r}, expected "
                                 f"{len(rows) + 1}: units must be 1..n in file order")
            rows.append(row)
    Y = np.array([float(r[idx["Y"]]) for r in rows])
    T = D = None
    if "T" in idx and any(r[idx["T"]] for r in rows):
        T = np.array([float(r[idx["T"]]) if r[idx["T"]] else np.nan for r in rows])
    if "D" in idx and any(r[idx["D"]] for r in rows):
        D = np.array([int(r[idx["D"]]) if r[idx["D"]] else -1 for r in rows])
    xcols = [c for c in header if c.startswith("x")]
    X = None
    if xcols:
        X = np.array([[float(r[idx[c]]) for c in xcols] for r in rows])
    return ExperimentRecords(Y=Y, X=X, T=T, D=D)


def ht_arm(records: ExperimentRecords, k, K):
    """(K/n) sum_i 1{D_i = k} Y_i."""
    return EstimandSpec.arm(k, K).estimate(records)


def ht_contrast(records: ExperimentRecords, w, K):
    """sum_k w_k tau_hat_k = (K/n) sum_i w_{D_i} Y_i."""
    return EstimandSpec.contrast(w, K).estimate(records)


def ht_continuous(records: ExperimentRecords, weight: WeightFn):
    """(1/n) sum_i Y_i w(T_i)."""
    return EstimandSpec.continuous(weight).estimate(records)


def _ht_arm_weights(arms, Y, w, K):
    """(K/n) sum_i w_{D_i} Y_i over the last axis of arms D and outcomes Y
    (shape (..., n)): sum_k w_k tau_hat_k of every row at once."""
    return K / arms.shape[-1] * np.sum(w[arms - 1] * Y, axis=-1)


def _ht_weight(T, Y, weight):
    """(1/n) sum_i Y_i w(T_i) over the last axis of treatments T and
    outcomes Y (shape (..., n))."""
    return np.mean(Y * weight_eval(weight, T), axis=-1)


def rescale_treatment(t, a, b):
    """Affine map sending N(0,1) draws into [a, b] with probability > 0.998."""
    if not a < b:
        raise ValueError("need a < b")
    t = np.asarray(t, dtype=float)
    out = (a + b) / 2.0 + t * (b - a) / (2.0 * _Z999)
    return out if out.ndim else float(out)


def true_estimand(potential_outcomes, spec: EstimandSpec, nodes=200):
    """Exact estimand value from full potential outcomes.

    Discrete: ``potential_outcomes`` is the n x K table.  Continuous: a
    callable mapping a node vector t (m,) to the n x m response matrix; the
    integral against phi is done by Gauss-Hermite quadrature.
    """
    if spec.w is not None:
        means = np.asarray(potential_outcomes, dtype=float).mean(axis=0)
        return float(spec.arm_weights @ means)
    x, wq = gauss_hermite_nodes(nodes)
    vals = np.asarray(potential_outcomes(x), dtype=float)
    wt = weight_eval(spec.weight, x)
    return float(np.mean(vals @ (wq * wt)))
