"""Blocks of an n-row array or of its n x n pairs, run on every CPU the
process may use.

The O(n^2) elementwise layer of the optimizer runs in blocks: the
row-normalized step and the factor's validation in blocks of ``ROW_BLOCK``
rows (``over_rows``), maps of a gram and their gradients in blocks of the
upper triangle (``over_upper``).  ``run`` calls a list of such block tasks on a
thread pool with one worker per CPU in the process's affinity mask (numpy
releases the interpreter lock inside its loops), or inline when there is
one task, one CPU, or when the caller is itself a pool worker, so there is
never a nested submission.  The pool is built on first use and dropped in
a forked child.

Tasks write disjoint parts of their outputs, and every value depends on its
own inputs only, so results are bit-identical whatever the worker count
and completion order.  A task runs under its caller's numpy error state
(which is thread-local); the first exception in task order is raised in
the caller once every task has finished.

Pairs of units are walked by ``over_upper`` alone: one fixed grid of
``ROW_BLOCK`` x ``COL_TILE`` blocks over an n x n upper triangle, the same
whatever the worker count, serves every map of a gram, its gradient, the
optimizer's first step and every streamed reduction.  Memory in flight is
one such block per worker.  Inside a block, a covariance map runs on
chunks of its points (covmap's one evaluation loop), and ``budget``
divides the points per chunk by the worker count, so the chunks in flight
on all workers together hold as many points as one chunk outside a pool.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import lru_cache, partial

import numpy as np

# The temporaries of a block are a few (rows x n) arrays; at n = 3200,
# 256-row blocks raised the optimizer's peak RSS by 4 MB, 128-row blocks
# leave it unchanged.
ROW_BLOCK = 128
COL_TILE = 4 * ROW_BLOCK   # columns per block of an upper triangle (over_upper)
# Multiply-adds per BLAS product that OpenBLAS (0.3.31) runs on the calling
# thread.  A larger product wakes its own threads, which compete with the
# pool's workers for the CPUs: on 2 vCPUs a (128 x 20) @ (20 x 512) product
# took 0.23 ms threaded against 0.05 ms on one thread, and a
# (4096 x 100) @ (100 x 5) rerandomization product 0.3 ms with the second
# vCPU idle and 8 ms with it busy.  Such products are cut into pieces of at
# most this size on a fixed grid.
SERIAL_MACS = 1 << 19


class _WorkerState(threading.local):
    share = 1   # workers the current thread's budget is divided across


_local = _WorkerState()
_pool_lock = threading.Lock()
_pool = None   # (worker count, executor), built on first use


def _cpu_count():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def _forget_pool():
    """In a forked child: the parent's worker threads do not exist here."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):   # no fork on Windows
    os.register_at_fork(after_in_child=_forget_pool)


def _enter_worker(workers):
    _local.share = workers


def _executor(workers):
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != workers:
            # a pool of another size is dropped, not shut down: a caller
            # in another thread may still be waiting on it
            _pool = (workers, ThreadPoolExecutor(
                workers, thread_name_prefix="gaussdesign-block",
                initializer=_enter_worker, initargs=(workers,)))
        return _pool[1]


def width(tasks):
    """Workers that ``tasks`` independent tasks run on: 1 (inline) for a
    single task, on one CPU, or when called from inside a worker."""
    if tasks < 2 or _local.share > 1:
        return 1
    return _cpu_count()


def budget(size):
    """``size`` divided across the workers of the calling thread's pool
    (``size`` itself outside a worker), at least 1."""
    return max(1, size // _local.share)


def _under(err, call, task):
    with np.errstate(call=call, **err):
        return task()


def run(tasks, workers):
    """Results of the zero-argument callables ``tasks``, in task order, run
    on ``workers`` workers (inline when 1)."""
    if workers < 2:
        return [task() for task in tasks]
    err, call = np.geterr(), np.geterrcall()
    pool = _executor(workers)
    futures = [pool.submit(_under, err, call, task) for task in tasks]
    wait(futures)
    return [f.result() for f in futures]


def over_rows(n, fn):
    """[fn(lo, hi) for each block lo:hi of ROW_BLOCK rows out of n], run on
    ``width`` workers."""
    tasks = [partial(fn, lo, min(lo + ROW_BLOCK, n)) for lo in range(0, n, ROW_BLOCK)]
    return run(tasks, width(len(tasks)))


def over_upper(n, fn):
    """[fn(b) for each block b = (rows, cols) of an n x n upper triangle], in
    block order, run on ``width`` workers.  The grid is fixed: row blocks of
    ROW_BLOCK rows, each cut into COL_TILE columns from its diagonal on
    (cols.start - rows.start is a multiple of COL_TILE)."""
    tasks = [partial(fn, (slice(lo, min(lo + ROW_BLOCK, n)), slice(c, min(c + COL_TILE, n))))
             for lo in range(0, n, ROW_BLOCK) for c in range(lo, n, COL_TILE)]
    return run(tasks, width(len(tasks)))


@lru_cache(maxsize=None)
def lower(m):
    """np.tril_indices(m), cached and read-only: the entries on and below
    the diagonal of the square of a diagonal block of height m on the grid
    of over_upper (so m <= ROW_BLOCK)."""
    index = np.tril_indices(m)
    for a in index:
        a.flags.writeable = False
    return index
