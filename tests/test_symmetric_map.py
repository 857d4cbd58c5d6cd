"""The symmetric map kernel: exact gram symmetry, and maps of a gram evaluated
once per unordered pair that equal the full elementwise evaluation bit for
bit (apply_map, the optimizer's term matrices and both gradients)."""

import tracemalloc
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussdesign import blocks, covmap
from gaussdesign.covmap import (_ROW_BLOCK, _eval_symmetric, _gram, _map_symmetric,
                                apply_map, build_table, f_arm, f_cross,
                                weighted_discrete_map)
from gaussdesign.elliptope import CorrelationFactor, factor_from_rows, identity_factor
from gaussdesign.optimizer import (DesignProblem, FixedStep, _grad_nuc, _grad_op,
                                   _offdiag_gram, _step, _terms, gradient_nuclear,
                                   gradient_operator, pgd_gauss)

B = _ROW_BLOCK
SIZES = (1, 2, B - 1, B, B + 1, 2 * B + 3)


def _same(a, b):
    """Equal shape and bytes: values, signed zeros and NaN payloads."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _rows(n, seed=0):
    """Unit rows with exact +-1 correlations (a repeated and a negated row)
    and one pair so close to 1 that it lies outside every table's grid."""
    V = np.random.default_rng(seed).standard_normal((n, min(n, 7) + 2))
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
    out = np.empty((4, 3, 2)).transpose(2, 1, 0)   # 3-D, not C-contiguous
    with pytest.raises(ValueError, match="out"):
        MAPS["table f_2"].eval(np.zeros((2, 3, 4)), out=out)


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
    return [problem.X.T @ m.eval(g) @ problem.X for m in problem.maps]


def _full_deriv(cmap, g):
    d = cmap.deriv(np.clip(g, -1.0 + 1e-6, 1.0 - 1e-6))
    np.fill_diagonal(d, 0.0)
    return d


def _full_grad_nuc(problem, g):
    A = problem.X @ problem.X.T
    np.fill_diagonal(A, 0.0)
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
        for got, want in zip(_terms(problem, g), _full_terms(problem, g)):
            assert _same(got, want)
    grad = _grad_nuc(nuc, g, _offdiag_gram(nuc.X))
    assert _same(grad, _full_grad_nuc(nuc, g))
    assert _same(gradient_nuclear(nuc, CorrelationFactor(rows)), grad)
    grad, _ = _grad_op(op, g, _terms(op, g))
    assert _same(grad, _full_grad_op(op, g))
    assert _same(gradient_operator(op, CorrelationFactor(rows)).matrix, grad)


def test_gradients_propagate_nan_as_full_evaluation():
    n = B + 9
    nuc, op = _problems(n)
    g = _gram(_rows(n))
    g[5, B + 3] = g[B + 3, 5] = np.nan
    want = _full_grad_nuc(nuc, g)
    assert np.isnan(want[5, B + 3])
    assert _same(_grad_nuc(nuc, g, _offdiag_gram(nuc.X)), want)
    terms = _full_terms(op, _gram(_rows(n)))
    got, _ = _grad_op(op, g, terms)
    want = np.zeros_like(g)
    for w, cmap, M in zip(op.weights, op.maps, terms):
        b = op.X @ np.linalg.eigh(M)[1][:, -1]
        A = np.outer(b, b)
        np.fill_diagonal(A, 0.0)
        want += (w * w) * A * _full_deriv(cmap, g)
    assert _same(got, want)


def test_nuclear_gradient_allocates_no_second_square_array():
    n = 1500
    X = np.random.default_rng(3).standard_normal((n, 4))
    problem = DesignProblem(X=X, maps=(build_table(weighted_discrete_map(np.full(3, 1 / 3), 3)),),
                            weights=np.ones(1), norm="nuc")
    g = _gram(factor_from_rows(np.random.default_rng(4).standard_normal((n, 30))).rows)
    A = _offdiag_gram(X)
    square = n * n * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        grad = _grad_nuc(problem, g, A)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert grad.shape == (n, n)
    # the output plus block-sized temporaries; any n x n temporary would
    # add another `square`
    assert square <= peak < 1.5 * square


def test_nuclear_gradient_memory_on_four_workers(monkeypatch):
    # each block is split into column pieces across the workers, so memory
    # in flight does not grow with their number
    monkeypatch.setattr(blocks, "_cpu_count", lambda: 4)
    test_nuclear_gradient_allocates_no_second_square_array()


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
        stepped = _step(rows, GV, 1.0).rows
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
        out += [M.tobytes() for M in _terms(problem, g)]
    out.append(_grad_nuc(nuc, g, _offdiag_gram(nuc.X)).tobytes())
    out.append(_grad_op(op, g, _terms(op, g))[0].tobytes())
    for problem in (nuc, op):
        for init in (identity_factor(n), CorrelationFactor(rows)):
            for policy in (None, FixedStep(0.05)):
                fac, trace = pgd_gauss(problem, init, 2, policy)
                out += [fac.rows.tobytes(), trace.objectives.tobytes()]
    return out


@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from((1, B - 1, B, B + 1, 2 * B + 3)), workers=st.integers(2, 4),
       seed=st.integers(0, 2**32 - 1))
def test_kernels_are_bit_identical_on_any_worker_count(n, workers, seed):
    with _workers(1):
        want = _kernel_outputs(n, seed)
    with _workers(workers):
        assert _kernel_outputs(n, seed) == want
