"""Projected gradient descent on the correlation elliptope (PGD-Gauss).

Minimizes sum_j w_j^2 ||X^T f_j(Sigma) X||_norm over Sigma = V V^T with
unit-norm rows of V.  One iteration is

    V <- row_normalize( (I - eta * G) V ),
    G  = sum_j w_j^2 (B_j B_j^T - diag) o f_j'(V V^T),

where B_j = X for the nuclear norm and B_j = X u_j (u_j the leading
eigenvector of X^T f_j(Sigma) X) for the operator norm; one kernel
(_gradient) serves both.  Diagonal gradient entries are fixed at zero: the
diagonal of Sigma never moves, and f' blows up at +-1, so the
0 * f'(+-1) = 0 convention applies.

A step policy picks eta: its ``search(last, obj, try_eta)`` runs the trials
of one iteration and returns (candidate, objective, eta, halvings).
FixedStep tries its one step.  Backtracking, the default, is a line search
that accepts the first step not increasing the objective (within 1e-12); it
starts at twice the last accepted step, since the conservative base step
alone makes progress impractically slow on scaled covariates.

The O(n^3) work of an iteration is done once.  Each factor's gram (V V^T
clamped to [-1, 1], unit diagonal) is formed once, and the objective of
every map reads it; the next gradient reads the accepted trial's gram and
term matrices X^T f_j X, so f' and (for the operator norm) the leading
eigenvectors cost no second product.  G V is formed once per iteration
and each trial step eta is the row-normalized alpha V - beta G V, alpha =
1 / (1 + eta) and beta = eta / (1 + eta), the direction of V - eta G V
without its overflow.

Every iteration makes the same calls.  An iterate has ``trials(G)``, the
trials of one iteration at its gradient G, and ``factor()``, its rows as a
checked factor; the trials have ``gnorm`` = ||G||, ``trial(eta)``, the gram
of the step eta, and ``accept(eta)``, the next iterate.  Every gram is one
thing, its block function ``fill(b, out)``, which returns block b of the
gram on the grid of blocks.over_upper; the term matrices
(covmap._formed_blocks) and the next gradient (_gradient) read it.  An
iterate held as its rows (_Dense: any start, and every stepped iterate)
forms G V in ``trials`` and steps its rows per trial and once more on
acceptance, as above; its trial grams are held whole (_gram), and their
block function returns views of them (_held).

The identity start (every caller's) has closed forms that need one O(n^3)
product in its first two iterations and evaluate no map on I.  Every map
vanishes at 0, so the start's terms are f_j(1) X^T X.  At I, f_j' is the
constant f_j'(0), so the first gradient G = B S B^T minus its diagonal is of
rank r (r = d for the nuclear norm, one per map for the operator norm); it
is not formed, which is pgd_gauss's one branch on the start: the first
iteration's trials (_IdentityStart) give each block of a trial gram from
that form in O(n^2 r).  They accept the iterate V = diag(a) + L B^T
(_ClosedRows), whose ``trials(G)`` form one product H = (G diag a^2) G^T on
the row strips of the upper triangle (_upper_strips), shared by every trial
of the second iteration, so each block of its trial grams (alpha I - beta G)
V V^T (alpha I - beta G) costs O(n^2 r) more; a trial whose squared row norm
is at most _ZERO_ROW^2 steps its rows instead, so collapse is handled as in
_step_rows.  A closed form's block function writes each block to the block
temporary it is given, so its gram is never held whole.  Their ``accept``
forms and checks the rows once, as a _Dense iterate: every later iteration,
and every iteration from any other start, is a _Dense one.

Memory: at full rank every array below is n x n.  A _Dense trial keeps its
step size, gram and term matrices and drops its rows once the gram is
formed; the accepted trial's rows are stepped again from (V, G V, eta) by
the same kernel, so they are the same bytes, at one O(n^2) step more per
iteration; the trial checked them (CorrelationFactor), so they are not
checked again.  B_j B_j^T is never held whole: the gradient forms each
block's tile from B_j (_offdiag_tile), and the default first step does so
from X; the identity's closed forms hold B, n x r.  No map of a gram is held
whole either: a trial's term matrices are summed block by block from f_j of
its gram's blocks (covmap._sum_forms).  A closed-form trial keeps its step
size and term matrices only: its gram's blocks are formed one per worker,
by the term matrices and by the next gradient alike.  A general iteration
thus holds at most four n x n arrays: V, G V and two trial grams; the next
gradient is formed once V and G V are dropped, beside the accepted rows
and gram.  The identity's first two iterations hold at most two: G, then G
and H.  The second's block functions read H, so when a third iteration
follows, its gradient is formed before H is dropped: G, H and that
gradient are held together once, and the accepted rows are formed after.
The caller's start is one more while the caller holds it.

The O(n^2) elementwise work is done once per unordered pair.  The gram and
B_j B_j^T are symmetric, so f_j(gram) and the gradient are too: maps are
evaluated on the blocks of the upper triangle, on the one fixed grid of
blocks.over_upper, which also serves the default first step; the gradient
is mirrored from them (covmap._map_symmetric).  The term matrices are the
analyses' pair sums (covmap._sum_forms, from the gram's blocks): S_j
adds X_rows^T f_j(g_b) X_cols over the blocks b, g_b 0 on and below the
diagonal, and M_j = S_j + S_j^T + D_j, exactly symmetric, with the
diagonal's part D_j = f_j(1) X^T X formed once per run; D_j is the whole of
the identity start's terms.  Pairs and diagonal are summed apart, so M_j
differs from the one product X^T f_j(gram) X in the last bits at any n.
Per block, the gradient runs the clip, f_j' and the product with B_j B_j^T
in the order of the full evaluation, so it needs no n x n temporary besides
its output, and every value equals the full elementwise evaluation with
those tiles bit for bit.  Each tile is one product per block
(_offdiag_tile); a one-column B_j gives the outer product b_j b_j^T
exactly, but where the BLAS rounds the whole product X X^T differently from
its tiles (some n > 128, d >= 2), the nuclear gradient, and so the design,
can differ from one formed from the whole product in the last bits.

The elementwise layer runs on every CPU the process may use (see blocks):
the blocks of the maps and gradients, and the row blocks of the
row-normalized step with its factor's finiteness and norm checks, are tasks
that write disjoint parts of their outputs, so every array is bit-identical
whatever the worker count.  The O(n^3) products use the BLAS library's own
threads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import blocks
from .covmap import (_diagonal_forms, _formed_blocks, _gram, _map_symmetric, _panel_product,
                     _sum_forms, _zero_diagonal, build_table, f_arm, weighted_discrete_map)
from .elliptope import CorrelationFactor, _row_norms

_GRAD_EDGE = 1e-6   # f' is evaluated no closer to +-1 than this
_ZERO_ROW = 1e-14
_GRAD_TOL = 1e-10
_ACCEPT_SLACK = 1e-12
_GROW = 2.0     # Backtracking's first trial, relative to the last accepted step
_SHRINK = 0.5   # Backtracking's halving factor


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
        if not np.all(np.isfinite(w)):
            raise ValueError("map weights must be finite")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "weights", w)

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def d(self):
        return self.X.shape[1]


def design_problem(X, cmap, norm="nuc"):
    """The problem of the one map ``cmap`` at unit weight."""
    return DesignProblem(X=X, maps=(cmap,), weights=np.ones(1), norm=norm)


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


def _held(g):
    """The block function of a held gram g (see _gram): block b is the view
    g[b], and the block temporary ``out`` is not written."""
    return lambda b, out: g[b]


def _terms(problem, fill, diag=None):
    """M_j = X^T f_j(g) X for every map j, from the block function ``fill``
    of the factor's gram g (see _held), by covmap._sum_forms over its
    blocks (covmap._formed_blocks): no n x n array is formed, and each M_j
    is exactly symmetric and bit-identical on any worker count.  ``diag`` is
    the diagonal's part f_j(1) X^T X (covmap._diagonal_forms), formed here
    when None.
    """
    if diag is None:
        diag = _diagonal_forms(problem.maps, problem.X)
    return _sum_forms(partial(_formed_blocks, problem.n, fill), problem.maps, problem.X, diag)


def _objective(weights, norm, terms):
    """sum_j w_j^2 ||M_j||_norm over the term matrices M_j ("nuc" or "op"
    norm); NaN when any M_j is not finite.  The one weighted-norm sum of the
    optimizer and of the simulation's balance measure."""
    total = 0.0
    for w, M in zip(weights, terms):
        if not np.all(np.isfinite(M)):
            return float("nan")
        sv = np.linalg.svd(M, compute_uv=False) if M.size else np.zeros(1)
        total += w * w * (float(np.sum(sv)) if norm == "nuc" else float(sv[0]))
    return total


def objective(problem: DesignProblem, factor: CorrelationFactor):
    """sum_j w_j^2 ||X^T f_j(Sigma) X||_norm at Sigma = V V^T."""
    _check_size(problem, factor)
    return _objective(problem.weights, problem.norm, _terms(problem, _held(_gram(factor.rows))))


def _offdiag_tile(X, b):
    """The block b (of blocks.over_upper's grid) of A = X X^T, its entries
    on the square's diagonal zeroed, for C-contiguous X: the covariates, or
    one column b_j[:, None], whose products are the outer product's exactly.

    A is the one product X[rows] X[cols]^T.  The grid does not depend on the
    worker count, so neither do A's bits, and memory in flight is one
    product per worker.
    """
    rows, cols = b
    A = X[rows] @ X[cols].T
    _zero_diagonal(A, b)
    return A


def _leading(problem, terms):
    """(X u_j for each term matrix M_j, u_j its leading eigenvector; tie),
    tie flagging an eigenvalue tie of some M_j: a gap between its top two
    eigenvalues of at most 1e-10 of the top one, so the flag does not
    depend on the covariates' scale.  eigh reads one triangle of M_j, which
    is the whole: the terms are exactly symmetric (_terms)."""
    tie = False
    leading = []
    for M in terms:
        lam, U = np.linalg.eigh(M)
        if lam.size >= 2 and lam[-1] - lam[-2] <= 1e-10 * abs(lam[-1]):
            tie = True
        leading.append(problem.X @ U[:, -1])
    return leading, tie


def _gradient(problem, fill, leading=None):
    """sum_j w_j^2 (B_j B_j^T - diag) o f_j'(g) at the gram g whose block
    function is ``fill`` (see _held).

    B_j = X for the nuclear norm (``leading`` None), and B_j = b_j[:, None]
    with b_j = leading[j] (see _leading) for the operator norm.  Evaluated
    once per unordered pair (see _map_symmetric): per block, g's block is
    read once, each tile of B_j B_j^T is formed from B_j (see
    _offdiag_tile), one tile shared by all maps when B_j = X, and the clip,
    f_j' and the product (w_j^2 tile) f_j' run in the order of the full
    evaluation, with block-sized temporaries only: no n x n array is formed
    besides the output.
    """
    X = np.ascontiguousarray(problem.X)
    n = X.shape[0]
    grad = np.zeros((n, n))
    last = len(problem.maps) - 1

    def block(b):
        rows, cols = b
        g = fill(b, np.empty((rows.stop - rows.start, cols.stop - cols.start)))
        gb = grad[b]
        shared = _offdiag_tile(X, b) if leading is None else None
        for j, (w, cmap) in enumerate(zip(problem.weights, problem.maps)):
            if shared is None:
                t = _offdiag_tile(leading[j][:, None], b)
                t *= w * w
            else:   # the last map scales the shared tile in place: no later map reads it
                t = np.multiply(shared, w * w, out=shared if j == last else None)
            d = np.clip(g, -1.0 + _GRAD_EDGE, 1.0 - _GRAD_EDGE)
            cmap.deriv(d, out=d)
            _zero_diagonal(d, b)
            t *= d
            gb += t

    return _map_symmetric(block, grad)


def gradient_nuclear(problem: DesignProblem, factor: CorrelationFactor):
    """(X X^T - diag) o f'(V V^T); diagonal entries exactly zero."""
    return _gradient(problem, _held(_gram(factor.rows)))


@dataclass(frozen=True)
class OperatorGradient:
    matrix: np.ndarray
    is_subgradient: bool


def gradient_operator(problem: DesignProblem, factor: CorrelationFactor):
    """Per-map leading-eigenvector gradients, weighted; flags eigenvalue ties."""
    fill = _held(_gram(factor.rows))
    leading, tie = _leading(problem, _terms(problem, fill))
    grad = _gradient(problem, fill, leading)
    return OperatorGradient(matrix=grad, is_subgradient=tie)


def _scales(eta):
    """(alpha, beta) = (1 / (1 + eta), eta / (1 + eta)) of the step eta:
    every step is the row-normalized alpha V - beta G V, the direction of
    V - eta G V without its overflow.  ValueError unless eta is finite and
    nonnegative."""
    if not 0.0 <= eta < np.inf:
        raise ValueError("step size must be finite and nonnegative")
    return 1.0 / (1.0 + eta), eta / (1.0 + eta)


def _step_rows(rows, GV, eta):
    """(rows, collapsed): the row-normalized alpha rows - beta GV, with
    GV = G V and (alpha, beta) from _scales, so no finite step overflows,
    and the list of rows that collapsed (||rows_i - eta GV_i|| < _ZERO_ROW),
    which keep their previous value."""
    def form(nb, lo, hi, alpha, beta):
        np.multiply(alpha, rows[lo:hi], out=nb)
        nb -= beta * GV[lo:hi]

    return _step_blocks(rows.shape, form, lambda lo, hi: rows[lo:hi], eta)


def _step_blocks(shape, form, previous, eta):
    """_step_rows of the rows V whose row block lo:hi is ``previous(lo,
    hi)``, read only where a row collapsed, with ``form(out, lo, hi, alpha,
    beta)`` writing rows lo:hi of alpha V - beta G V to out.  Each row block
    is formed, measured and divided in one task (see blocks)."""
    alpha, beta = _scales(eta)
    new = np.empty(shape)

    def block(lo, hi):
        nb = new[lo:hi]
        form(nb, lo, hi, alpha, beta)
        norms = _row_norms(nb)   # a row whose squares underflow is measured scaled
        dead = np.flatnonzero(norms < alpha * _ZERO_ROW)
        if dead.size:
            nb[dead] = previous(lo, hi)[dead]
            norms[dead] = 1.0
        nb /= norms[:, None]
        return (dead + lo).tolist()

    dead = sum(blocks.over_rows(shape[0], block), [])
    return new, dead


def _checked(rows, dead):
    """``rows`` as a (checked) factor, with a warning, issued in the calling
    thread, when the rows ``dead`` collapsed."""
    factor = CorrelationFactor(rows)
    if dead:
        warnings.warn(f"pgd_step: rows {dead} collapsed; "
                      "keeping previous values", RuntimeWarning)
    return factor


def pgd_step(factor: CorrelationFactor, grad, eta) -> CorrelationFactor:
    """Multiplicative update (I - eta G) V followed by row renormalization."""
    return _checked(*_step_rows(factor.rows, grad @ factor.rows, eta))


def _is_identity(rows):
    """True when ``rows`` is exactly the identity (a square factor with n
    nonzeros, all on a unit diagonal)."""
    n = rows.shape[0]
    return (rows.shape == (n, n) and bool(np.all(np.diagonal(rows) == 1.0))
            and np.count_nonzero(rows) == n)


class _Dense:
    """An iterate held as its rows V: the start, whose factor ``start`` is
    returned as it is when no step is accepted, or the rows of an accepted
    step.

    ``trials(G)`` forms G V once and returns the iterate as its trials: the
    step eta's rows are _step_rows(V, G V, eta), checked (_checked) and
    dropped once their gram is formed; the trial is that gram, held, as its
    block function (_held).
    ``accept`` steps them again from (V, G V, eta), the same bytes, which
    the trial checked, so they are not checked again; ``factor`` wraps the
    rows of a stepped iterate once.
    """

    def __init__(self, rows, start=None):
        self.rows, self.start = rows, start

    def factor(self):
        return CorrelationFactor(self.rows) if self.start is None else self.start

    def trials(self, G):
        self.gnorm, self.GV = float(np.linalg.norm(G)), G @ self.rows
        return self

    def trial(self, eta):
        return _held(_gram(_checked(*_step_rows(self.rows, self.GV, eta)).rows))

    def accept(self, eta):
        return _Dense(_step_rows(self.rows, self.GV, eta)[0])


def _finish(gb, b, inv):
    """Block b of a trial gram from its entries before the division by the
    row norms 1 / inv: divided, clamped to [-1, 1] and, on the square on
    the diagonal, mirrored from its upper half with a unit diagonal, as
    _gram forms it from the rows."""
    rows, cols = b
    gb *= inv[rows, None]
    gb *= inv[cols]
    np.clip(gb, -1.0, 1.0, out=gb)
    if rows.start == cols.start:
        square = gb[:, :rows.stop - rows.start]
        lower = blocks.lower(square.shape[0])
        square[lower] = square.T[lower]
        np.fill_diagonal(square, 1.0)
    return gb


class _IdentityStart:
    """The trials of the first iteration from the identity, in closed form.

    At the identity the gram is I, so f_j' is the constant f_j'(0) off the
    diagonal and G = A - diag(A), A = B S B^T of rank r: B = X and S =
    sum_j w_j^2 f_j'(0) I for the nuclear norm, B = [b_1 ... b_m] (see
    _leading) and S = diag(w_j^2 f_j'(0)) for the operator norm.  G is not
    formed: ||G_i||^2, and so ``gnorm`` = ||G||, are sums over A's tiles,
    each masked on and below the diagonal (covmap._mask_lower).  The step
    eta's rows are those of alpha I - beta G normalized ((alpha, beta) from
    _scales).  With E = alpha + beta diag(A) their gram, before the
    division by the row norms, is

        (alpha I - beta G)^2 = E^2 - beta (E A + A E) + beta^2 B (S B^T B S) B^T,

    one product of inner dimension 2r per block of blocks.over_upper, and
    the row norms are hypot(alpha, beta ||G_i||) >= alpha > 0 (alpha^2
    underflows at a huge eta), so no row collapses.  ``accept`` returns the
    accepted rows in their form V = diag(a) + L B^T, a = E / norms and
    L = -beta B S / norms (_ClosedRows).
    """

    def __init__(self, work, leading):
        slopes = [w * w * float(m.deriv(np.zeros(1))[0])
                  for w, m in zip(work.weights, work.maps)]
        if leading is None:
            self.B = np.ascontiguousarray(work.X)
            s = np.full(self.B.shape[1], sum(slopes))
        else:
            self.B = np.column_stack(leading)
            s = np.array(slopes)
        self.BS = self.B * s
        self.diag = np.einsum("ij,ij->i", self.BS, self.B)   # diag(A)
        self.BSBBS = self.B @ (self.BS.T @ self.BS)
        n = self.B.shape[0]

        def tile(b, out):
            rows, cols = b
            return _panel_product(self.BS[rows], self.B[cols], out)

        def squares(b, t):
            """The squared entries of A's tile b masked on and below the
            diagonal, summed by row and by column: each unordered pair once."""
            t *= t
            return b, t.sum(axis=1), t.sum(axis=0)

        self.row_sq = np.zeros(n)   # ||G_i||^2, the tiles added in block order
        for (rows, cols), by_row, by_col in _formed_blocks(n, tile, squares):
            self.row_sq[rows] += by_row
            self.row_sq[cols] += by_col
        self.gnorm = float(np.sqrt(np.sum(self.row_sq)))

    def _parts(self, eta):
        """(beta, E, 1 / row norms) of the step eta."""
        alpha, beta = _scales(eta)
        return (beta, alpha + beta * self.diag,
                1.0 / np.hypot(alpha, beta * np.sqrt(self.row_sq)))

    def trial(self, eta):
        """The block function of the step eta's gram, clamped to [-1, 1]
        with a unit diagonal and exactly symmetric, as _gram forms it: each
        block is written to its block temporary."""
        beta, E, inv = self._parts(eta)
        left = np.hstack([beta * beta * self.BSBBS - (beta * E)[:, None] * self.BS,
                          -beta * self.BS])
        right = np.hstack([self.B, E[:, None] * self.B])

        def fill(b, out):
            rows, cols = b
            return _finish(_panel_product(left[rows], right[cols], out), b, inv)

        return fill

    def accept(self, eta):
        """The rows of the step eta, V = diag(a) + L B^T."""
        beta, E, inv = self._parts(eta)
        return _ClosedRows(self.B, E * inv, self.BS * (-beta * inv)[:, None])


def _upper_strips(G, w):
    """H = (G diag w) G^T on its row strips from the diagonal on: for each
    ROW_BLOCK rows lo:hi, columns lo onwards, which hold the blocks of
    blocks.over_upper and the diagonal.  The rest of H is not written.
    Each strip is one product on the BLAS library's threads, and its left
    factor G[lo:hi] w is the only copy of G's entries."""
    n = G.shape[0]
    H = np.empty((n, n))
    for lo in range(0, n, blocks.ROW_BLOCK):
        hi = min(lo + blocks.ROW_BLOCK, n)
        np.matmul(G[lo:hi] * w, G[lo:].T, out=H[lo:hi, lo:])
    return H


class _ClosedRows:
    """The rows V = diag(a) + L B^T accepted in the first iteration from the
    identity (see _IdentityStart): an iterate whose trials, the second
    iteration's, are in closed form.  ``factor`` forms the rows, checked
    once, when the run ends after the first iteration.

    With the gradient G dense, the step eta's rows are those of
    (alpha I - beta G) V normalized.  V V^T = diag(a^2) + P M P^T,
    P = [diag(a) B, L] and M = [[0, I], [I, B^T B]], so off the diagonal
    their gram, before the division, is

        beta^2 H - alpha beta (a_i^2 + a_j^2) G_ij + (Q M Q^T)_ij,

    H = G diag(a^2) G^T and Q = alpha P - beta G P.  H, formed by
    ``trials(G)`` on the blocks the trials read (_upper_strips), is the one
    O(n^3) product of the first two iterations, shared by every trial; the
    rest is O(n^2) per block and one product of inner dimension 2r.  The
    squared row norms are alpha^2 a^2 + beta^2 diag(H) + diag(Q M Q^T).
    A trial with one at most _ZERO_ROW^2 steps its rows instead, so
    collapsed rows and their warning are those of _step_rows.  ``accept``
    steps the accepted rows once, row block by row block: alpha V - beta G V
    = alpha diag(a) - beta G diag(a) + (alpha L - beta G L) B^T (_form),
    checked once, here or by the trial that stepped them, and returns them
    as a _Dense iterate.
    """

    def __init__(self, B, a, L):
        self.B, self.a, self.L = B, a, L

    def rows(self, lo=0, hi=None):
        """Rows lo:hi of V (all of them by default)."""
        hi = self.B.shape[0] if hi is None else hi
        v = _panel_product(self.L[lo:hi], self.B, np.empty((hi - lo, self.B.shape[0])))
        v[np.arange(hi - lo), np.arange(lo, hi)] += self.a[lo:hi]
        return v

    def factor(self):
        return CorrelationFactor(self.rows())

    def trials(self, G):
        """The second iteration at its gradient G (held, not copied)."""
        self.G, self.gnorm = G, float(np.linalg.norm(G))
        self.H = _upper_strips(G, self.a * self.a)
        self.H_diag = np.diagonal(self.H).copy()
        self.P = np.hstack([self.a[:, None] * self.B, self.L])
        self.GP = G @ self.P
        self.BB = self.B.T @ self.B
        return self

    def _parts(self, eta):
        """(alpha, beta, Q M, Q, squared row norms) of the step eta."""
        alpha, beta = _scales(eta)
        r = self.B.shape[1]
        Q = alpha * self.P - beta * self.GP
        QM = np.hstack([Q[:, r:], Q[:, :r] + Q[:, r:] @ self.BB])
        sq = (alpha * alpha * self.a * self.a + beta * beta * self.H_diag
              + np.einsum("ij,ij->i", QM, Q))
        return alpha, beta, QM, Q, sq

    def _form(self, nb, lo, hi, alpha, beta):
        """Rows lo:hi of alpha V - beta G V = alpha diag(a) - beta G diag(a)
        + (alpha L - beta G L) B^T, written to nb (see _step_blocks)."""
        GL = self.GP[lo:hi, self.B.shape[1]:]
        _panel_product(alpha * self.L[lo:hi] - beta * GL, self.B, nb)
        nb -= self.G[lo:hi] * (beta * self.a)
        nb[np.arange(hi - lo), np.arange(lo, hi)] += alpha * self.a[lo:hi]

    def _stepped(self, eta):
        return _step_blocks(self.G.shape, self._form, self.rows, eta)

    def trial(self, eta):
        """The block function of the step eta's gram, as _gram forms it:
        each block written to its block temporary, or, when the trial steps
        its rows, the views of their gram, held (_held)."""
        alpha, beta, QM, Q, sq = self._parts(eta)
        if np.any(sq <= _ZERO_ROW ** 2):
            return _held(_gram(_checked(*self._stepped(eta)).rows))
        inv = 1.0 / np.sqrt(sq)
        a2 = (alpha * beta) * self.a * self.a

        def fill(b, out):
            rows, cols = b
            gb = _panel_product(QM[rows], Q[cols], out)
            t = np.add.outer(a2[rows], a2[cols])
            t *= self.G[b]
            gb -= t
            gb += np.multiply(self.H[b], beta * beta, out=t)
            return _finish(gb, b, inv)

        return fill

    def accept(self, eta):
        """The rows of the step eta as a _Dense iterate; H is dropped
        first, as the rows need only G and G P, so the next gradient is
        formed before (see pgd_gauss): the trials' grams read H."""
        del self.H
        sq = self._parts(eta)[-1]
        stepped = self._stepped(eta)
        return _Dense(stepped[0] if np.any(sq <= _ZERO_ROW ** 2) else _checked(*stepped).rows)


@dataclass(frozen=True)
class FixedStep:
    """Every iteration takes the step ``eta``."""

    eta: float

    def search(self, last, obj, try_eta):
        """(candidate, objective, eta, 0) of the one trial of step eta."""
        cand, cand_obj = try_eta(self.eta)
        return cand, cand_obj, self.eta, 0


@dataclass(frozen=True)
class Backtracking:
    """Line search from the last accepted step (``eta0`` at first)."""

    eta0: float
    max_halvings: int = 30

    def search(self, last, obj, try_eta):
        """Line search from step ``last`` (``eta0`` when None) at the
        objective ``obj``; returns (candidate, objective, eta, halvings), the
        candidate being what ``try_eta`` gave for that eta, or None, with the
        objective unchanged and eta 0, when no step within the halving budget
        is acceptable.  A rejected candidate is dropped before the next
        trial."""
        base = self.eta0 if last is None else last
        # Probe the grown step against the held step and keep the better
        # acceptable one; pure growth with non-increase acceptance drifts the
        # step into a zone of vanishing progress near the f' barrier.
        grown, grown_obj = try_eta(base * _GROW)
        held, held_obj = try_eta(base)
        if grown_obj <= min(held_obj, obj + _ACCEPT_SLACK):
            return grown, grown_obj, base * _GROW, 0
        if held_obj <= obj + _ACCEPT_SLACK:
            return held, held_obj, base, 0
        del grown, held
        halvings = 0
        eta = base * _SHRINK
        while halvings < self.max_halvings:
            halvings += 1
            cand, cand_obj = try_eta(eta)
            if cand_obj <= obj + _ACCEPT_SLACK:
                return cand, cand_obj, eta, halvings
            del cand
            eta *= _SHRINK
        return None, obj, 0.0, halvings


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


def default_eta0(problem: DesignProblem):
    """0.1 / (1 + max offdiag |X X^T| * max |f'| over the table grid).

    X X^T is symmetric: its largest |entry| is taken over the blocks of its
    upper triangle (blocks.over_upper), one tile (see _offdiag_tile) each."""
    X = np.ascontiguousarray(problem.X)
    amax = max(blocks.over_upper(X.shape[0],
                                 lambda b: float(np.abs(_offdiag_tile(X, b)).max())))
    dmax = 0.0
    for w, cmap in zip(problem.weights, problem.maps):
        tab = cmap if cmap.table is not None else build_table(cmap)
        dmax += w * w * float(np.max(np.abs(tab.table.d_values)))
    return 0.1 / (1.0 + amax * dmax)


def _tabulated(problem: DesignProblem):
    maps = tuple(m if m.table is not None else build_table(m) for m in problem.maps)
    return DesignProblem(X=problem.X, maps=maps, weights=problem.weights,
                         norm=problem.norm)


def pgd_gauss(problem: DesignProblem, init: CorrelationFactor, iters,
              step_policy=None):
    """Run PGD-Gauss for ``iters`` iterations; returns (factor, trace).

    Maps are tabulated on entry (the objective touches all n^2 entries every
    iteration).  Each iteration forms G = sum_j w_j^2 (B_j B_j^T - diag) o
    f_j'(V V^T) (see _gradient), takes the iterate's trials at G
    (``trials(G)``) and hands the trial ``try_eta``, the trials' ``trial(eta)``
    and its objective, to ``step_policy.search`` (default Backtracking from
    default_eta0), which returns the accepted candidate, its objective, eta
    and the halvings; the trials' ``accept(eta)`` is the next iterate, and
    the last iterate's ``factor()`` is the result.  With the backtracking
    policy the objective trace is non-increasing; iteration stops early once
    the gradient norm (the trials' ``gnorm``) falls below 1e-10 or no
    acceptable step exists.

    Each factor's gram is formed once, or, in closed form, block by block
    for each reader: the objective of every map and, for the accepted
    factor, the next gradient's f' read its block function.  A trial keeps
    its step size, gram and term matrices only, and a closed-form trial not
    even its gram, whose blocks are formed where they are read.  The next
    gradient is formed only when another iteration follows: before
    ``accept`` for a closed-form trial, whose block function reads its
    trials' G and H, and after it, once V and G V are dropped, for a _Dense
    trial.  An iterate held as its rows (_Dense, the start and every stepped
    iterate) forms G V once per iteration; each trial step is the
    row-normalized alpha V - beta G V (see _scales), whose rows are dropped
    once its gram is formed, and the accepted trial's rows are stepped again
    from (V, G V, eta), the same bytes, which the trial checked: each factor
    is checked once, and the result is wrapped once on return.

    The terms' diagonal part f_j(1) X^T X is formed once (see _terms).  From
    an identity start (checked once, with _is_identity) it is the start's
    terms, as every map vanishes at 0, and no gram of the start is formed,
    the loop's one branch on the start: the first iteration's gradient is of
    rank r plus a diagonal and is not formed, and its trials are
    _IdentityStart's closed forms.  They accept the closed-form iterate
    _ClosedRows, whose trials are the second iteration's, also in closed
    form; so the first two iterations step no trial's rows, each trial gram
    equals the stepped rows' gram up to rounding, and their only O(n^3)
    product is H = (G diag a^2) G^T at the second gradient G, on the strips
    of the upper triangle.  The first iteration's accepted rows are formed
    only if the run ends there; the second's are formed and checked once.
    The term matrices are summed over the blocks of a gram (see
    covmap._sum_forms), so no map of a gram is held whole, and at full rank
    a general iteration holds at most four n x n arrays: V, G V and two
    trial grams.  The identity's first two iterations hold at most two at a
    time, and three once when a third iteration follows (see the module's
    Memory paragraph).  A step size must be finite and nonnegative, or
    ValueError is raised where it is first used.  ``init`` is not held past
    the first accepted step; a caller that does not hold it either frees it
    there.

    The start is evaluated once, on the tabulated maps, and that value is
    ``trace.initial_objective``.  A map that is non-finite at the table's
    nodes fails in ``build_table`` with ValueError.  A start whose tabulated
    objective is non-finite (say, of a map that is NaN at rho = +-1, where
    the gram's diagonal goes to the direct evaluator) raises
    OptimizationError carrying the trace.  A map that is non-finite only
    between the points the table samples is not rejected at the start; a
    non-finite trial objective raises OptimizationError at its iteration.
    """
    if iters < 0:
        raise ValueError("iteration count must be nonnegative")
    iters = int(iters)
    _check_size(problem, init)
    work = _tabulated(problem)
    diag = _diagonal_forms(work.maps, work.X)
    if _is_identity(init.rows):
        fill, terms = None, diag
    else:
        fill = _held(_gram(init.rows))
        terms = _terms(work, fill, diag)
    obj = _objective(work.weights, work.norm, terms)
    trace = OptimizerTrace(initial_objective=obj)
    if not np.isfinite(obj):
        raise OptimizationError("objective non-finite at the initial design", trace)
    if step_policy is None:
        step_policy = Backtracking(eta0=default_eta0(work))

    def leading(terms):   # the B_j of the operator norm (see _gradient)
        return _leading(work, terms)[0] if work.norm == "op" else None

    # the identity's first iteration does not form G: its gradient is None
    grad = None if fill is None or not iters else _gradient(work, fill, leading(terms))
    it, eta = _Dense(init.rows, init), None
    del init, fill   # a start the caller does not hold is freed after the first accepted step
    for t in range(1, iters + 1):
        if grad is None:
            trials = _IdentityStart(work, leading(terms))
        else:
            trials = it.trials(grad)
            del grad
        if trials.gnorm < _GRAD_TOL:
            break
        try_eta = partial(_trial, work, diag, trials.trial, t, trace)
        cand, obj, eta, halvings = step_policy.search(eta, obj, try_eta)
        trace.rows.append(TraceRow(t, obj, eta, trials.gnorm, halvings))
        if cand is None:
            # No descent step within the halving budget: the gradient is
            # stale at this point, so further iterations cannot help.
            break
        fill, terms = cand
        del cand, try_eta
        # The next gradient, when another iteration follows: a closed form's
        # fill reads its trials' G and H, which accept drops, and a _Dense
        # trial's held gram is read once V and G V are dropped.
        dense = isinstance(trials, _Dense)
        grad = _gradient(work, fill, leading(terms)) if t < iters and not dense else None
        it = trials.accept(eta)
        del trials
        if t < iters and dense:
            grad = _gradient(work, fill, leading(terms))
        del fill
    return it.factor(), trace


def _trial(work, diag, trial, t, trace, eta):
    """((fill, terms), objective) of the step eta: its gram's block function
    ``trial(eta)`` and the terms summed over its blocks, their diagonal part
    ``diag``."""
    fill = trial(eta)
    terms = _terms(work, fill, diag)
    obj = _objective(work.weights, work.norm, terms)
    if not np.isfinite(obj):
        raise OptimizationError(f"objective non-finite at iteration {t}", trace)
    return (fill, terms), obj
