"""The row-block runner: task order, errors and numpy error state in the
caller, no nested submission, a budget split across workers, no pool for a
single task or one CPU, and a pool that does not survive fork."""

import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from gaussdesign import blocks
from gaussdesign.covmap import _ROW_BLOCK, _map_symmetric, apply_map, build_table, f_arm
from gaussdesign.elliptope import factor_from_rows, identity_factor
from gaussdesign.optimizer import pgd_step


def _force(monkeypatch, count):
    monkeypatch.setattr(blocks, "_cpu_count", lambda: count)


def test_results_come_back_in_task_order():
    def task(i):
        time.sleep(0.002 * (5 - i))   # later tasks finish first
        return i
    assert blocks.run([lambda i=i: task(i) for i in range(6)], 3) == list(range(6))


def test_first_error_in_task_order_is_raised_after_every_task_ran():
    done = []

    def task(i):
        time.sleep(0.01 if i == 1 else 0.0)
        done.append(i)
        if i in (1, 3):
            raise ValueError(f"task {i}")

    with pytest.raises(ValueError, match="task 1"):
        blocks.run([lambda i=i: task(i) for i in range(5)], 2)
    assert sorted(done) == list(range(5))


@pytest.mark.parametrize("mode,caught", [("raise", FloatingPointError), ("ignore", None),
                                         ("call", ZeroDivisionError)])
def test_workers_run_under_the_callers_error_state(mode, caught):
    def task():
        return np.ones(4) / np.zeros(4)

    def handler(kind, flag):
        raise ZeroDivisionError(kind)

    with np.errstate(divide=mode, call=handler if mode == "call" else None):
        if caught is None:
            # "ignore" in the caller must not turn into numpy's default
            # "warn" in a worker
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert all(np.all(np.isinf(r)) for r in blocks.run([task] * 3, 2))
        else:
            with pytest.raises(caught):
                blocks.run([task] * 3, 2)


def test_calls_from_a_worker_run_inline_on_a_split_budget(monkeypatch):
    _force(monkeypatch, 4)
    assert blocks.width(10) == 4 and blocks.budget(1000) == 1000
    inside = blocks.run([lambda: (blocks.width(10), blocks.budget(1000))] * 4, 4)
    assert inside == [(1, 250)] * 4


@pytest.mark.parametrize("cpus,n", [(4, _ROW_BLOCK), (1, 2 * _ROW_BLOCK + 3)])
def test_no_pool_for_a_single_block_or_one_cpu(monkeypatch, cpus, n):
    _force(monkeypatch, cpus)
    monkeypatch.setattr(blocks, "_pool", None)
    fac = factor_from_rows(np.random.default_rng(n).standard_normal((n, 5)))
    apply_map(build_table(f_arm(3, 1)), fac)
    pgd_step(fac, np.zeros((n, n)), 0.5)
    assert blocks._pool is None


def test_stress_more_workers_than_cpus(monkeypatch):
    # every piece of the upper triangle is visited exactly once, with the
    # interpreter switching threads as often as it can
    _force(monkeypatch, blocks._cpu_count() + 3)
    n = 9 * _ROW_BLOCK + 5
    seen = np.zeros((n, n), dtype=int)
    out = np.zeros((n, n))

    def fn(b):
        seen[b] += 1
        out[b] = 1.0

    def work():
        _map_symmetric(fn, out)

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            seen[:] = 0
            t = threading.Thread(target=work)
            t.start()
            t.join(120)
            assert not t.is_alive()
            assert np.array_equal(np.triu(seen), np.triu(np.ones_like(seen)))
            assert np.all(out == 1.0)
    finally:
        sys.setswitchinterval(saved)


def test_forked_child_builds_its_own_pool(monkeypatch):
    _force(monkeypatch, 2)
    n = 2 * _ROW_BLOCK + 3
    cmap = build_table(f_arm(3, 2))
    fac = factor_from_rows(np.random.default_rng(7).standard_normal((n, 9)))
    want = apply_map(cmap, fac)   # builds the parent's pool
    assert blocks._pool is not None
    pid = os.fork()
    if pid == 0:   # child: report through the exit code only
        code = 1
        try:
            code = 0 if apply_map(cmap, fac).tobytes() == want.tobytes() else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("apply_map hung in the forked child")
        time.sleep(0.02)
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_collapsed_rows_warn_in_the_caller(monkeypatch, cpus):
    _force(monkeypatch, cpus)
    n = 2 * _ROW_BLOCK + 3
    fac = identity_factor(n)
    grad = np.zeros((n, n))
    for i in (3, _ROW_BLOCK + 7, n - 1):   # rows in three blocks collapse at eta = 1
        grad[i, i] = 1.0
    with pytest.warns(RuntimeWarning, match=rf"rows \[3, {_ROW_BLOCK + 7}, {n - 1}\] collapsed"):
        out = pgd_step(fac, grad, 1.0)
    assert np.array_equal(out.rows, fac.rows)
