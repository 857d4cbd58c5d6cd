"""Projected gradient descent on the correlation elliptope (PGD-Gauss).

Minimizes sum_k w_k^2 ||X^T f_k(Sigma) X||_norm over Sigma = V V^T with
unit-norm rows of V.  One iteration is

    V <- row_normalize( (I - eta * G) V ),
    G  = (A - diag(A)) o f'(V V^T),

where A = X X^T for the nuclear norm and A = X u1 u1^T X^T (u1 the leading
eigenvector of X^T f(Sigma) X) for the operator norm.  Diagonal gradient
entries are fixed at zero: the diagonal of Sigma never moves, and f' blows
up at +-1, so the 0 * f'(+-1) = 0 convention applies.

The default step policy is backtracking line search that accepts the first
step not increasing the objective (within 1e-12); accepted steps warm-start
the next trial step at twice the last accepted size, since the conservative
base step alone makes progress impractically slow on scaled covariates.

The O(n^3) work of an iteration is done once.  Each factor's gram (V V^T
clamped to [-1, 1], unit diagonal) is formed once, and the objective of
every map reads it; the accepted trial hands its gram and term matrices
X^T f_j X on to the next gradient, so f' and (for the operator norm) the
leading eigenvectors cost no second product.  G V is formed once per
iteration and each trial step eta is rows - eta * G V.  A = X X^T is formed
once per run.  The identity start (every caller's) has gram I and G V = G,
so it needs no product at all.

The O(n^2) elementwise work is done once per unordered pair.  The gram,
A and the outer products b b^T are exactly symmetric, so f_j(gram) and the
gradient are too: maps are evaluated on the upper triangle in row blocks and
mirrored (covmap._map_symmetric).  Per block, the gradient runs the clip,
f_j' and the product with A in the order of the full evaluation, so it
needs no n x n temporary besides its output.  Every value equals the full
elementwise evaluation bit for bit.

The elementwise layer runs on every CPU the process may use (see blocks):
the row blocks of the maps and gradients, and of the row-normalized step
with its factor's finiteness and norm checks, are tasks that write disjoint
rows and column strips, so every array is bit-identical whatever the worker
count.  The O(n^3) products use the BLAS library's own threads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import blocks
from .covmap import (_eval_symmetric, _gram, _is_identity, _map_symmetric, _zero_diagonal,
                     build_table, f_arm, weighted_discrete_map)
from .elliptope import CorrelationFactor

_GRAD_EDGE = 1e-6   # f' is evaluated no closer to +-1 than this
_ZERO_ROW = 1e-14
_GRAD_TOL = 1e-10
_ACCEPT_SLACK = 1e-12


class OptimizationError(RuntimeError):
    """Raised when the objective turns non-finite; carries the trace so far."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class DesignProblem:
    """Covariates plus the covariance map(s) and norm defining the objective.

    ``maps``/``weights`` hold one entry for a single-map objective (the
    combined nuclear map, or a continuous pair passed as two unit-weight
    entries) or per-arm maps with contrast weights for the weighted
    operator-norm objective.
    """

    X: np.ndarray
    maps: tuple
    weights: np.ndarray
    norm: str
    row_normalized: bool = False

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        if X.ndim != 2 or X.shape[0] < 2:
            raise ValueError("covariate matrix must be 2-D with n >= 2")
        if not np.all(np.isfinite(X)):
            raise ValueError("covariate matrix must be finite")
        if self.norm not in ("nuc", "op"):
            raise ValueError(f"norm must be 'nuc' or 'op', got {self.norm!r}")
        maps = tuple(self.maps)
        w = np.asarray(self.weights, dtype=float)
        if len(maps) != w.size:
            raise ValueError("one weight per covariance map required")
        if self.row_normalized:
            norms = np.linalg.norm(X, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-10):
                raise ValueError("row_normalized set but rows of X are not unit norm")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "weights", w)

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def d(self):
        return self.X.shape[1]


def design_problem(X, cmap=None, norm="nuc", maps=None, weights=None,
                   row_normalized=False):
    """Convenience constructor for single-map or weighted multi-map problems."""
    if cmap is not None:
        maps, weights = (cmap,), np.ones(1)
    elif maps is None:
        raise ValueError("provide a single map or a list of maps")
    elif weights is None:
        weights = np.ones(len(maps))
    return DesignProblem(X=X, maps=tuple(maps), weights=np.asarray(weights, float),
                         norm=norm, row_normalized=row_normalized)


def discrete_problem(X, w, norm="nuc"):
    """Balance problem of a K-arm design for contrast weights w (K = len(w)).

    The nuclear norm takes the one combined map sum_k w_k^2 f_k at unit
    weight; the operator norm takes the per-arm maps f_k with weights w_k.
    """
    w = np.asarray(w, dtype=float)
    K = w.size
    if norm == "nuc":
        return DesignProblem(X=X, maps=(weighted_discrete_map(w, K),),
                             weights=np.ones(1), norm="nuc")
    return DesignProblem(X=X, maps=tuple(f_arm(K, k) for k in range(1, K + 1)),
                         weights=w, norm=norm)


def _check_size(problem, factor):
    if factor.n != problem.n:
        raise ValueError("factor size does not match covariate rows")


def _terms(problem, g):
    """X^T f_j(g) X for every map j, from the factor's gram g (see _gram);
    each f_j(g) is evaluated once per unordered pair into one buffer."""
    F = np.empty_like(g)
    return [problem.X.T @ _eval_symmetric(m, g, F) @ problem.X for m in problem.maps]


def _objective(problem, terms):
    """sum_j w_j^2 ||M_j||_norm over the term matrices M_j."""
    total = 0.0
    for w, M in zip(problem.weights, terms):
        if not np.all(np.isfinite(M)):
            return float("nan")
        sv = np.linalg.svd(M, compute_uv=False) if M.size else np.zeros(1)
        total += w * w * (float(np.sum(sv)) if problem.norm == "nuc" else float(sv[0]))
    return total


def objective(problem: DesignProblem, factor: CorrelationFactor):
    """sum_j w_j^2 ||X^T f_j(Sigma) X||_norm at Sigma = V V^T."""
    _check_size(problem, factor)
    return _objective(problem, _terms(problem, _gram(factor.rows)))


def _deriv_offdiag(cmap, g, b):
    """f'(g[b]) with inputs clipped just inside (-1, 1) and the gram's
    diagonal zeroed, for a block b of _map_symmetric."""
    d = np.clip(g[b], -1.0 + _GRAD_EDGE, 1.0 - _GRAD_EDGE)
    cmap.deriv(d, out=d)
    _zero_diagonal(d, b)
    return d


def _offdiag_gram(X):
    """X X^T with the diagonal zeroed: A of the nuclear-norm gradient.
    Formed on C-contiguous X, so it is exactly symmetric (see _gram)."""
    X = np.ascontiguousarray(X)
    A = X @ X.T
    np.fill_diagonal(A, 0.0)
    return A


def _grad_nuc(problem, g, A):
    """sum_j w_j^2 A o f_j'(g) at the gram g, with A = X X^T (zero diagonal).

    Evaluated once per unordered pair (see _map_symmetric): per block, the
    clip, f_j' and the product (w_j^2 A) f_j' run in the order of the full
    evaluation, with two block-sized temporaries only.
    """
    grad = np.zeros_like(g)

    def block(b):
        gb = grad[b]
        for w, cmap in zip(problem.weights, problem.maps):
            t = np.multiply(A[b], w * w)
            t *= _deriv_offdiag(cmap, g, b)
            gb += t

    return _map_symmetric(block, grad)


def _grad_op(problem, g, terms):
    """sum_j w_j^2 A_j o f_j'(g) at the gram g, A_j = b b^T (zero diagonal)
    with b = X u1 and u1 the leading eigenvector of the term matrix M_j;
    returns (gradient, tie), tie flagging an eigenvalue tie.  Evaluated
    once per unordered pair, as _grad_nuc, each block of A_j formed from b."""
    tie = False
    leading = []
    for M in terms:
        lam, U = np.linalg.eigh(M)
        if lam.size >= 2 and lam[-1] - lam[-2] < 1e-10:
            tie = True
        leading.append(problem.X @ U[:, -1])
    grad = np.zeros_like(g)

    def block(blk):
        rows, cols = blk
        gb = grad[blk]
        for w, cmap, b in zip(problem.weights, problem.maps, leading):
            Aj = np.outer(b[rows], b[cols])
            _zero_diagonal(Aj, blk)
            Aj *= w * w
            Aj *= _deriv_offdiag(cmap, g, blk)
            gb += Aj

    return _map_symmetric(block, grad), tie


def gradient_nuclear(problem: DesignProblem, factor: CorrelationFactor):
    """(X X^T - diag) o f'(V V^T); diagonal entries exactly zero."""
    return _grad_nuc(problem, _gram(factor.rows), _offdiag_gram(problem.X))


@dataclass(frozen=True)
class OperatorGradient:
    matrix: np.ndarray
    is_subgradient: bool


def gradient_operator(problem: DesignProblem, factor: CorrelationFactor):
    """Per-map leading-eigenvector gradients, weighted; flags eigenvalue ties."""
    g = _gram(factor.rows)
    grad, tie = _grad_op(problem, g, _terms(problem, g))
    return OperatorGradient(matrix=grad, is_subgradient=tie)


def _step(rows, GV, eta):
    """Row-normalized rows - eta * GV, with GV = G V and eta >= 0; a row that
    collapses keeps its previous value, with a warning.  Each row block is
    stepped, measured and divided in one task (see blocks)."""
    if eta < 0:
        raise ValueError("step size must be nonnegative")
    new = np.empty(rows.shape)

    def block(lo, hi):
        nb = new[lo:hi]
        np.multiply(eta, GV[lo:hi], out=nb)
        np.subtract(rows[lo:hi], nb, out=nb)
        norms = np.linalg.norm(nb, axis=1)
        dead = np.flatnonzero(norms < _ZERO_ROW)
        if dead.size:
            nb[dead] = rows[lo:hi][dead]
            norms[dead] = 1.0
        nb /= norms[:, None]
        return (dead + lo).tolist()

    dead = sum(blocks.over_rows(new.shape[0], block), [])
    if dead:
        # warned here, in the calling thread, not in a worker
        warnings.warn(f"pgd_step: rows {dead} collapsed; "
                      "keeping previous values", RuntimeWarning)
    return CorrelationFactor(new)


def pgd_step(factor: CorrelationFactor, grad, eta) -> CorrelationFactor:
    """Multiplicative update (I - eta G) V followed by row renormalization."""
    return _step(factor.rows, grad @ factor.rows, eta)


@dataclass(frozen=True)
class FixedStep:
    eta: float


@dataclass(frozen=True)
class Backtracking:
    eta0: float
    shrink: float = 0.5
    max_halvings: int = 30
    grow: float = 2.0


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    objective: float
    eta: float
    grad_norm: float
    halvings: int


@dataclass
class OptimizerTrace:
    initial_objective: float
    rows: list = field(default_factory=list)

    @property
    def objectives(self):
        return np.array([r.objective for r in self.rows])

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("iteration,objective,eta,grad_norm,halvings\n")
            for r in self.rows:
                fh.write(f"{r.iteration},{r.objective:.17g},{r.eta:.17g},"
                         f"{r.grad_norm:.17g},{r.halvings}\n")


def cap_rank(factor: CorrelationFactor, k) -> CorrelationFactor:
    """Re-embed rows into their top-k principal coordinates and renormalize.

    This is an approximation: unless the factor already has rank <= k, the
    renormalized product V V^T differs from the original correlation matrix.
    """
    if k < 1:
        raise ValueError("rank cap must be positive")
    if k >= factor.k:
        return factor
    _, _, vt = np.linalg.svd(factor.rows, full_matrices=False)
    rows = factor.rows @ vt[:k].T
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("rank cap annihilated a row; choose a larger k")
    return CorrelationFactor(rows / norms)


def default_eta0(problem: DesignProblem):
    """0.1 / (1 + max offdiag |X X^T| * max |f'| over the table grid)."""
    return _eta0(problem, _offdiag_gram(problem.X))


def _eta0(problem, A):
    """default_eta0 from A = X X^T with a zero diagonal (_offdiag_gram)."""
    dmax = 0.0
    for w, cmap in zip(problem.weights, problem.maps):
        tab = cmap if cmap.table is not None else build_table(cmap)
        dmax += w * w * float(np.max(np.abs(tab.table.d_values)))
    return 0.1 / (1.0 + float(max(A.max(), -A.min())) * dmax)


def _tabulated(problem: DesignProblem):
    maps = tuple(m if m.table is not None else build_table(m) for m in problem.maps)
    return DesignProblem(X=problem.X, maps=maps, weights=problem.weights,
                         norm=problem.norm, row_normalized=problem.row_normalized)


def pgd_gauss(problem: DesignProblem, init: CorrelationFactor, iters,
              step_policy=None):
    """Run PGD-Gauss for ``iters`` iterations; returns (factor, trace).

    Maps are tabulated on entry (the objective touches all n^2 entries every
    iteration).  With the backtracking policy the objective trace is
    non-increasing; iteration stops early once the gradient norm falls below
    1e-10 or no acceptable step exists.

    Each factor's gram is formed once: the objective of every map and, for
    the accepted factor, the next gradient's f' read it.  G V is formed once
    per iteration and every trial step is rows - eta * G V.
    """
    if iters < 0:
        raise ValueError("iteration count must be nonnegative")
    _check_size(problem, init)
    g = _gram(init.rows)
    if not np.isfinite(_objective(problem, _terms(problem, g))):
        raise OptimizationError("objective non-finite at the initial design",
                                OptimizerTrace(initial_objective=np.nan))
    work = _tabulated(problem)
    A = _offdiag_gram(problem.X) if problem.norm == "nuc" or step_policy is None else None
    if step_policy is None:
        step_policy = Backtracking(eta0=_eta0(work, A))
    if problem.norm == "nuc":
        def gradient(g, terms):
            return _grad_nuc(work, g, A)
    else:
        A = None   # the step size was its only use

        def gradient(g, terms):
            return _grad_op(work, g, terms)[0]
    factor = init
    terms = _terms(work, g)
    obj = _objective(work, terms)
    trace = OptimizerTrace(initial_objective=obj)
    eta_prev = None
    for t in range(1, int(iters) + 1):
        grad = gradient(g, terms)
        del g  # freed before the trial steps form their own grams
        gnorm = float(np.linalg.norm(grad))
        if gnorm < _GRAD_TOL:
            break
        # G V; the identity factor's is G itself
        GV = grad if _is_identity(factor.rows) else grad @ factor.rows
        del grad

        def try_eta(eta):
            cand = _step(factor.rows, GV, eta)
            cand_g = _gram(cand.rows)
            cand_terms = _terms(work, cand_g)
            cand_obj = _objective(work, cand_terms)
            if not np.isfinite(cand_obj):
                raise OptimizationError(f"objective non-finite at iteration {t}", trace)
            return (cand, cand_g, cand_terms), cand_obj

        if isinstance(step_policy, FixedStep):
            (factor, g, terms), obj = try_eta(step_policy.eta)
            trace.rows.append(TraceRow(t, obj, step_policy.eta, gnorm, 0))
            continue
        base = step_policy.eta0 if eta_prev is None else eta_prev
        cand, obj, eta_prev, halvings = _backtrack(step_policy, base, obj, try_eta)
        trace.rows.append(TraceRow(t, obj, eta_prev, gnorm, halvings))
        if cand is None:
            # No descent step within the halving budget: the gradient is
            # stale at this point, so further iterations cannot help.
            break
        factor, g, terms = cand
        del cand  # the gram is freed once the next gradient is formed
    return factor, trace


def _backtrack(policy, base, obj, try_eta):
    """Line search from step ``base``; returns (candidate, objective, eta,
    halvings), with candidate None, the objective unchanged and eta 0 when no
    step within the halving budget is acceptable."""
    # Probe the grown step against the held step and keep the better
    # acceptable one; pure growth with non-increase acceptance drifts the
    # step into a zone of vanishing progress near the f' barrier.
    grown, grown_obj = try_eta(base * policy.grow)
    held, held_obj = try_eta(base)
    if grown_obj <= min(held_obj, obj + _ACCEPT_SLACK):
        return grown, grown_obj, base * policy.grow, 0
    if held_obj <= obj + _ACCEPT_SLACK:
        return held, held_obj, base, 0
    del grown, held
    halvings = 0
    eta = base * policy.shrink
    while halvings < policy.max_halvings:
        halvings += 1
        cand, cand_obj = try_eta(eta)
        if cand_obj <= obj + _ACCEPT_SLACK:
            return cand, cand_obj, eta, halvings
        eta *= policy.shrink
    return None, obj, 0.0, halvings
