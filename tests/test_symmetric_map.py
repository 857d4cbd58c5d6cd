"""The symmetric map kernel: exact gram symmetry, and maps of a gram evaluated
once per unordered pair that equal the full elementwise evaluation bit for
bit (apply_map and both gradients); the optimizer's term matrices, the
analyses' pair sums over the held gram's blocks plus f(1) X^T X for the
diagonal, which equal the dense map summed in the same order, are exactly
symmetric, and at the identity are the identity start's closed form; the
streamed reduction's block grid; and every row-block kernel's outputs,
bit-identical on any worker count."""

import tracemalloc
import warnings
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussdesign import blocks, covmap
from gaussdesign.covmap import (_eval_symmetric, _gram, _map_symmetric,
                                apply_map, build_table, f_arm, f_cross,
                                weighted_discrete_map)
from gaussdesign.elliptope import CorrelationFactor, factor_from_rows, identity_factor
from gaussdesign.estimators import ExperimentRecords
from gaussdesign.inference import aronow_samii_bound, true_variance, variance_ht_arm
from gaussdesign.optimizer import (DesignProblem, FixedStep, _checked, _gradient, _held,
                                   _leading, _step_rows, _terms, default_eta0,
                                   gradient_nuclear, gradient_operator, pgd_gauss)
from gaussdesign.simbench import GaussianDesign

B = blocks.ROW_BLOCK
T = blocks.COL_TILE
SIZES = (1, 2, B - 1, B, B + 1, 2 * B + 3)


def _same(a, b):
    """Equal shape and bytes: values, signed zeros and NaN payloads."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _rows(n, seed=0, k=None):
    """Unit rows (in k columns, by default min(n, 7) + 2) with exact +-1
    correlations (a repeated and a negated row) and one pair so close to 1
    that it lies outside every table's grid."""
    k = min(n, 7) + 2 if k is None else k
    V = np.random.default_rng(seed).standard_normal((n, k))
    if n >= 4:
        V[:4] = 0.0
        V[0, 0] = V[1, 0] = V[3, 0] = 1.0
        V[2, 0] = -1.0
        V[3, 1] = 1e-4
    return factor_from_rows(V).rows


def _with_edge_pairs(g):
    """The gram g holds exact +-1 and grid-outside pairs when n >= 4."""
    if g.shape[0] >= 4:
        assert g[0, 1] == 1.0 and g[0, 2] == -1.0
        assert 1.0 - covmap.DEFAULT_EDGE_MARGIN < g[0, 3] < 1.0


# -- the gram ----------------------------------------------------------------

def _layout(V, name):
    n, k = V.shape
    if name == "C":
        return np.ascontiguousarray(V)
    if name == "F":
        return np.asfortranarray(V)
    if name == "row-sliced":
        buf = np.zeros((2 * n, k))
        buf[::2] = V
        return buf[::2]
    buf = np.zeros((n, 2 * k))   # column-strided
    buf[:, ::2] = V
    return buf[:, ::2]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 600), above=st.booleans(), frac=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1),
       layout=st.sampled_from(["C", "F", "row-sliced", "column-strided"]))
def test_gram_is_exactly_symmetric(n, above, frac, seed, layout):
    k = n + 1 + int(frac * n) if above else 1 + int(frac * (n - 1))
    V = np.random.default_rng(seed).standard_normal((n, k))
    rows = _layout(V / np.linalg.norm(V, axis=1, keepdims=True), layout)
    g = _gram(rows)
    assert g.shape == (n, n)
    assert np.array_equal(g, g.T)
    assert np.all(np.diagonal(g) == 1.0)


@pytest.mark.parametrize("n", [1, B + 1, 300])
def test_gram_of_the_identity_is_the_identity(n):
    # the identity's gram is formed by the product, like any other factor's
    assert _same(_gram(np.eye(n)), np.eye(n))


def test_column_strided_factor_maps_symmetrically():
    buf = np.zeros((100, 200))
    buf[:, ::2] = factor_from_rows(np.random.default_rng(1).standard_normal((100, 100))).rows
    F = apply_map(f_arm(3, 1), CorrelationFactor(buf[:, ::2]))
    assert np.array_equal(F, F.T)


# -- apply_map and the helper --------------------------------------------------

MAPS = {
    "exact f_1": f_arm(3, 1),
    "exact weighted": weighted_discrete_map(np.array([0.5, -1.0, 2.0]), 3),
    "table f_2": build_table(f_arm(3, 2)),
    "table cross": build_table(f_cross(4, 1, 3)),
}


@pytest.mark.parametrize("name", sorted(MAPS))
@pytest.mark.parametrize("n", SIZES)
def test_apply_map_equals_full_evaluation(name, n):
    rows = _rows(n)
    g = _gram(rows)
    _with_edge_pairs(g)
    assert _same(apply_map(MAPS[name], CorrelationFactor(rows)), MAPS[name].eval(g))


@pytest.mark.parametrize("name", sorted(MAPS))
def test_nan_propagates_as_in_full_evaluation(name):
    g = _gram(_rows(B + 5))
    for i, j in ((4, 9), (7, B + 2), (B + 4, B + 4)):
        g[i, j] = g[j, i] = np.nan
    full = MAPS[name].eval(g)
    assert np.isnan(full[4, 9]) and np.isnan(full[B + 2, 7])
    assert _same(_eval_symmetric(MAPS[name], g), full)


@pytest.mark.parametrize("k", [9, 80])
@pytest.mark.parametrize("n", SIZES + (T + B + 3,))
def test_reduce_symmetric_covers_each_upper_pair_once(n, k):
    rows = _rows(n, n, k)
    seen = np.zeros((n, n), dtype=int)
    got = np.zeros((n, n))

    def fn(b, g):
        r, c = b
        # the fixed grid: row blocks of B rows, column tiles of T from the
        # block's first row on
        assert r.start % B == 0 and r.stop == min(r.start + B, n)
        assert (c.start - r.start) % T == 0 and c.stop == min(c.start + T, n)
        seen[b] += 1
        got[b] = g
        return r.start, c.start

    parts = covmap._reduce_symmetric(rows, fn)
    assert parts == sorted(parts)   # block order
    # each pair i <= j once, and the lower half of each diagonal block, as 0
    i, j = np.indices((n, n))
    assert np.array_equal(seen, (j >= i) | (j // B == i // B))
    assert not np.any(np.tril(got))
    # the upper triangle is the clamped gram, summed in another order
    upper = np.triu(_gram(rows), 1)
    np.testing.assert_allclose(got, upper, rtol=0, atol=1e-15)
    if n >= 4:
        assert got[0, 1] == 1.0 and got[0, 2] == -1.0


@pytest.mark.parametrize("k", [1, 20, None])
def test_reduce_symmetric_partials_bit_identical_on_one_and_two_workers(k):
    # rank 1: every correlation is exactly +-1
    n = T + B + 3
    rows = _rows(n, 5, n if k is None else k) if k != 1 else np.sign(
        np.random.default_rng(5).standard_normal((n, 1)))
    cmap = f_cross(3, 1, 2)

    def fn(b, g):
        return g.tobytes(), cmap.eval(g).tobytes()

    with _workers(1):
        want = covmap._reduce_symmetric(rows, fn)
    with _workers(2):
        assert covmap._reduce_symmetric(rows, fn) == want


def test_block_products_stay_within_the_serial_budget_at_rank_20(monkeypatch):
    # a product above blocks.SERIAL_MACS multiply-adds wakes OpenBLAS's
    # threads inside the block workers
    n, k = T + B + 3, 20
    rows = _rows(n, 6, k)
    macs = []
    matmul = np.matmul

    def recording(a, b, **kw):
        macs.append(a.shape[0] * a.shape[1] * b.shape[1])
        return matmul(a, b, **kw)

    monkeypatch.setattr(np, "matmul", recording)
    covmap._reduce_symmetric(rows, lambda b, g: None)
    monkeypatch.undo()
    assert macs and max(macs) <= blocks.SERIAL_MACS


def test_map_symmetric_visits_each_upper_block_once():
    n = 2 * B + 3
    seen = np.zeros((n, n), dtype=int)
    out = np.zeros((n, n))

    i, j = np.indices((n, n))
    want = np.minimum(i, j) + 10_000 * np.maximum(i, j)

    def fn(b):
        seen[b] += 1
        out[b] = want[b]

    _map_symmetric(fn, out)
    assert np.array_equal(seen, np.triu(np.ones((n, n), dtype=int))
                          + np.tril(np.kron(np.eye(3, dtype=int),
                                            np.ones((B, B), dtype=int))[:n, :n], -1))
    assert np.array_equal(out, want)


@pytest.mark.parametrize("n", [2 * B + 3, 9 * B + 5])
def test_pair_grid_does_not_depend_on_the_worker_count(n):
    grid = [(lo, min(lo + B, n), c, min(c + T, n))
            for lo in range(0, n, B) for c in range(lo, n, T)]
    rows = _rows(n, 0, 3)

    def key(b):
        return b[0].start, b[0].stop, b[1].start, b[1].stop

    def blocks_seen():
        mapped = []
        _map_symmetric(lambda b: mapped.append(key(b)), np.zeros((n, n)))
        return sorted(mapped), covmap._reduce_symmetric(rows, lambda b, g: key(b))

    for count in (1, 4):
        with _workers(count):
            assert blocks_seen() == (grid, grid), count


def test_eval_out_writes_strided_views():
    g = _gram(_rows(60))
    for cmap in (MAPS["exact f_1"], MAPS["table f_2"]):
        out = np.full((40, 60), -7.0)
        got = cmap.eval(g[3:20, 5:45], out=out[10:27, 2:42])
        assert np.shares_memory(got, out)
        assert _same(out[10:27, 2:42], cmap.eval(g[3:20, 5:45]))
        assert np.all(out[:10] == -7.0) and np.all(out[:, 42:] == -7.0)
        flat = np.empty(50)
        cmap.deriv(g[0, :50] * 0.5, out=flat)
        assert _same(flat, cmap.deriv(g[0, :50] * 0.5))


def test_table_rejects_an_out_it_cannot_view():
    # the table and the direct path share one rule for ``out``
    out = np.empty((4, 3, 2)).transpose(2, 1, 0)   # 3-D, not C-contiguous
    for name in ("table f_2", "exact f_1"):
        with pytest.raises(ValueError, match="out"):
            MAPS[name].eval(np.zeros((2, 3, 4)), out=out)
        with pytest.raises(ValueError, match="out"):
            MAPS[name].deriv(np.zeros((2, 3, 4)), out=out)


# -- the optimizer's terms and gradients ------------------------------------------

def _problems(n, exact=False):
    """A nuclear problem with two weighted maps and an operator problem with
    three; tabulated unless ``exact``."""
    X = np.random.default_rng(n).standard_normal((n, 3))
    tab = (lambda m: m) if exact else build_table
    nuc = DesignProblem(X=X, maps=(tab(weighted_discrete_map(np.array([1.0, -2.0, 0.5]), 3)),
                                   tab(f_arm(2, 1))),
                        weights=np.array([0.7, -1.3]), norm="nuc")
    op = DesignProblem(X=X, maps=tuple(tab(f_arm(3, k)) for k in (1, 2, 3)),
                       weights=np.array([1.0, -0.5, 2.0]), norm="op")
    return nuc, op


def _full_terms(problem, g):
    """X^T f_j(g) X from the dense f_j(g), summed in the grid order of
    _terms: S adds X_rows^T F_b X_cols over the blocks b = (rows, cols) of
    the upper triangle in block order, F_b the dense map's block with the
    entries on and below the diagonal set to 0 (_terms evaluates f_j at 0
    there, which is 0), and M_j = S + S^T + f_j(1) X^T X."""
    X, n = problem.X, g.shape[0]
    out = []
    for m in problem.maps:
        F = m.eval(g)
        S = 0
        for lo in range(0, n, B):
            hi = min(lo + B, n)
            for c in range(lo, n, T):
                Fb = F[lo:hi, c:c + T].copy()
                if c == lo:
                    Fb[np.tril_indices(hi - lo)] = 0.0
                S = S + X[lo:hi].T @ Fb @ X[c:c + T]
        out.append(S + S.T + m.eval(1.0) * (X.T @ X))
    return out


def _dense_terms(problem, g):
    return [problem.X.T @ m.eval(g) @ problem.X for m in problem.maps]


def _full_deriv(cmap, g):
    d = cmap.deriv(np.clip(g, -1.0 + 1e-6, 1.0 - 1e-6))
    np.fill_diagonal(d, 0.0)
    return d


def _grid_gram(X):
    """A = X X^T with a zero diagonal, each row block of its upper triangle
    formed in the products X[rows] X[c:c + T]^T from the block's
    diagonal on (the grid of _offdiag_tile), and mirrored."""
    n = X.shape[0]
    A = np.zeros((n, n))
    for lo in range(0, n, B):
        for c in range(lo, n, T):
            A[lo:lo + B, c:c + T] = X[lo:lo + B] @ X[c:c + T].T
    A = np.triu(A) + np.triu(A, 1).T
    np.fill_diagonal(A, 0.0)
    return A


def _full_grad_nuc(problem, g):
    A = _grid_gram(problem.X)
    grad = np.zeros_like(g)
    for w, cmap in zip(problem.weights, problem.maps):
        grad += (w * w) * A * _full_deriv(cmap, g)
    return grad


def _full_grad_op(problem, g):
    grad = np.zeros_like(g)
    for w, cmap, M in zip(problem.weights, problem.maps, _full_terms(problem, g)):
        b = problem.X @ np.linalg.eigh(M)[1][:, -1]
        A = np.outer(b, b)
        np.fill_diagonal(A, 0.0)
        grad += (w * w) * A * _full_deriv(cmap, g)
    return grad


@pytest.mark.parametrize("exact", [False, True], ids=["table", "exact"])
@pytest.mark.parametrize("n", [s for s in SIZES if s >= 2])
def test_terms_and_gradients_equal_full_evaluation(n, exact):
    nuc, op = _problems(n, exact)
    rows = _rows(n)
    g = _gram(rows)
    _with_edge_pairs(g)
    for problem in (nuc, op):
        for got, want, dense in zip(_terms(problem, _held(g)), _full_terms(problem, g),
                                    _dense_terms(problem, g)):
            assert _same(got, want)
            assert np.array_equal(got, got.T)
            # the pairs and the diagonal are summed apart, so even one block
            # differs from the one product X^T f(g) X in the last bits
            assert np.max(np.abs(got - dense)) <= 1e-14 * np.max(np.abs(dense))
    grad = _gradient(nuc, _held(g))
    assert _same(grad, _full_grad_nuc(nuc, g))
    assert _same(gradient_nuclear(nuc, CorrelationFactor(rows)), grad)
    grad = _gradient(op, _held(g), _leading(op, _terms(op, _held(g)))[0])
    assert _same(grad, _full_grad_op(op, g))
    assert _same(gradient_operator(op, CorrelationFactor(rows)).matrix, grad)


@pytest.mark.parametrize("exact", [False, True], ids=["table", "exact"])
@pytest.mark.parametrize("n", [2, B + 1, 2 * B + 3])
def test_terms_at_the_identity_are_the_identity_starts(n, exact):
    # every map vanishes at 0, so the pairs add exact zeros to f_j(1) X^T X,
    # the terms pgd_gauss takes at an identity start without a gram
    for problem in _problems(n, exact):
        want = [m.eval(1.0) * (problem.X.T @ problem.X) for m in problem.maps]
        for got, closed in zip(_terms(problem, _held(np.eye(n))), want):
            assert _same(got, closed)


def test_gradients_propagate_nan_as_full_evaluation():
    n = B + 9
    nuc, op = _problems(n)
    g = _gram(_rows(n))
    g[5, B + 3] = g[B + 3, 5] = np.nan
    want = _full_grad_nuc(nuc, g)
    assert np.isnan(want[5, B + 3])
    assert _same(_gradient(nuc, _held(g)), want)
    terms = _full_terms(op, _gram(_rows(n)))
    got = _gradient(op, _held(g), _leading(op, terms)[0])
    want = np.zeros_like(g)
    for w, cmap, M in zip(op.weights, op.maps, terms):
        b = op.X @ np.linalg.eigh(M)[1][:, -1]
        A = np.outer(b, b)
        np.fill_diagonal(A, 0.0)
        want += (w * w) * A * _full_deriv(cmap, g)
    assert _same(got, want)


def _traced_peak(fn, *args):
    """(fn(*args), the peak of the memory it allocated, in bytes)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


def _memory_case(n=1500):
    """(problem, gram, n x n array bytes) of a tabulated nuclear problem."""
    X = np.random.default_rng(3).standard_normal((n, 4))
    problem = DesignProblem(X=X, maps=(build_table(weighted_discrete_map(np.full(3, 1 / 3), 3)),),
                            weights=np.ones(1), norm="nuc")
    g = _gram(factor_from_rows(np.random.default_rng(4).standard_normal((n, 30))).rows)
    return problem, g, n * n * 8


def test_nuclear_gradient_allocates_no_second_square_array():
    problem, g, square = _memory_case()
    grad, peak = _traced_peak(_gradient, problem, _held(g))
    assert grad.shape == g.shape
    # the output plus block-sized temporaries; any n x n temporary would
    # add another `square`
    assert square <= peak < 1.5 * square


def test_terms_allocate_no_square_array():
    problem, g, square = _memory_case()
    terms, peak = _traced_peak(_terms, problem, _held(g))
    assert [M.shape for M in terms] == [(4, 4)]
    # block-sized temporaries only (0.24 of `square` on one worker, 0.31 on
    # four); a map of the whole gram would add one `square`
    assert peak < 0.5 * square


def test_nuclear_gradient_memory_on_four_workers(monkeypatch):
    # each worker has one block of the fixed grid (blocks.over_upper) in
    # flight, so four workers add block-sized temporaries only
    monkeypatch.setattr(blocks, "_cpu_count", lambda: 4)
    test_nuclear_gradient_allocates_no_second_square_array()


def test_terms_memory_on_four_workers(monkeypatch):
    monkeypatch.setattr(blocks, "_cpu_count", lambda: 4)
    test_terms_allocate_no_square_array()


# -- worker counts -----------------------------------------------------------------

@contextmanager
def _workers(count):
    """Run the row-block layer on ``count`` workers (blocks._cpu_count)."""
    saved = blocks._cpu_count
    blocks._cpu_count = lambda: count
    try:
        yield
    finally:
        blocks._cpu_count = saved


@pytest.mark.parametrize("n", [B + 1, 2 * B + 3])
def test_terms_are_bit_identical_on_one_and_two_workers(n):
    g = _gram(_rows(n))
    for problem in _problems(n):
        with _workers(1):
            want = [M.tobytes() for M in _terms(problem, _held(g))]
        with _workers(2):
            assert [M.tobytes() for M in _terms(problem, _held(g))] == want


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from((1, B - 1, B, B + 1, 2 * B + 3)), d=st.sampled_from((1, 2, 5, 20)),
       order=st.sampled_from("CF"), workers=st.sampled_from((1, 4)),
       seed=st.integers(0, 2**32 - 1))
def test_nuclear_gradient_and_first_step_equal_the_dense_gram_formulas(n, d, order, workers,
                                                                      seed):
    X = np.random.default_rng(seed).standard_normal((n, d))
    maps, weights = (MAPS["table f_2"], MAPS["table cross"]), np.array([0.7, -1.3])
    # DesignProblem needs n >= 2; the kernels read X, maps and weights only
    problem = SimpleNamespace(X=np.asfortranarray(X) if order == "F" else X, maps=maps,
                              weights=weights)
    g = _gram(_rows(n, seed % 1000))
    A = _grid_gram(X)
    if n <= B:   # one product, the whole X X^T
        whole = X @ X.T
        np.fill_diagonal(whole, 0.0)
        assert _same(A, whole)
    want = np.zeros_like(g)
    for w, cmap in zip(weights, maps):
        want += (w * w) * A * _full_deriv(cmap, g)
    dmax = sum(w * w * float(np.max(np.abs(m.table.d_values))) for w, m in zip(weights, maps))
    with _workers(workers):
        grad = _gradient(problem, _held(g))
        eta0 = default_eta0(problem)
    assert _same(grad, want)
    assert np.array_equal(grad, grad.T)
    assert eta0.hex() == (0.1 / (1.0 + float(np.max(np.abs(A))) * dmax)).hex()


def _reference_step(rows, GV, eta):
    """The whole-array step: row-normalized rows - eta * GV, a collapsed row
    kept with its previous value."""
    new = rows - eta * GV
    norms = np.linalg.norm(new, axis=1)
    dead = norms < 1e-14
    new[dead] = rows[dead]
    norms[dead] = 1.0
    return new / norms[:, None], np.flatnonzero(dead).tolist()


def _kernel_outputs(n, seed):
    """Bytes of every row-block kernel at size n (and the warning texts)."""
    rows = _rows(n, seed)
    out = [apply_map(cmap, CorrelationFactor(rows)).tobytes() for cmap in MAPS.values()]
    GV = np.random.default_rng(seed).standard_normal(rows.shape)
    GV[n // 2] = rows[n // 2]   # this row collapses at eta = 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stepped = _checked(*_step_rows(rows, GV, 1.0)).rows
    want, dead = _reference_step(rows, GV, 1.0)
    assert _same(stepped, want)
    assert [str(w.message) for w in caught] == [
        f"pgd_step: rows {dead} collapsed; keeping previous values"]
    out.append(stepped.tobytes())
    if n < 2:
        return out
    nuc, op = _problems(n)
    g = _gram(rows)
    for problem in (nuc, op):
        out += [M.tobytes() for M in _terms(problem, _held(g))]
    out.append(_gradient(nuc, _held(g)).tobytes())
    out.append(_gradient(op, _held(g), _leading(op, _terms(op, _held(g)))[0]).tobytes())
    for problem in (nuc, op):
        for init in (identity_factor(n), CorrelationFactor(rows)):
            for policy in (None, FixedStep(0.05)):
                fac, trace = pgd_gauss(problem, init, 2, policy)
                out += [fac.rows.tobytes(), trace.objectives.tobytes()]
    # the streamed reductions, on both products of the gram's blocks
    gen = np.random.default_rng(seed)
    K = 3
    table = gen.standard_normal((n, K))
    X = gen.standard_normal((n, 4))
    D = 1 + np.arange(n) % K
    D[:4] = [1, 1, 3, 1]   # units 0-3 hold the exact +-1 correlations
    rec = ExperimentRecords(Y=table[:, 0], D=D)
    for factor in (CorrelationFactor(rows), CorrelationFactor(_rows(n, seed, 80))):
        for k in range(1, K + 1):
            out.append(true_variance(table, factor, k, K).hex())
            rep = variance_ht_arm(rec, factor, k, K)
            out += [rep.point.hex(), rep.min_joint_prob.hex()]
        rep = aronow_samii_bound(rec, factor, np.array([0.5, -1.0, 2.0]), K)
        out += [rep.point.hex(), rep.min_joint_prob.hex()]
        out += [M.tobytes() for M in GaussianDesign(factor).arm_terms(X, K, 0)]
    return out


@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from((1, B - 1, B, B + 1, 2 * B + 3)), workers=st.integers(2, 4),
       seed=st.integers(0, 2**32 - 1))
def test_kernels_are_bit_identical_on_any_worker_count(n, workers, seed):
    with _workers(1):
        want = _kernel_outputs(n, seed)
    with _workers(workers):
        assert _kernel_outputs(n, seed) == want
