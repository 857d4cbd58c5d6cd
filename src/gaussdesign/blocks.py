"""Row blocks of an n-row array, run on every CPU the process may use.

The O(n^2) elementwise layer of the optimizer (maps of a gram, their
gradients, the row-normalized step and the factor's validation) runs in
blocks of ``ROW_BLOCK`` rows.  ``run`` calls a list of such block tasks on a
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

Memory in flight does not grow with the worker count: inside a worker,
``budget`` divides a kernel's points per chunk by the worker count, and
``covmap._map_symmetric`` cuts each row block into one column piece per
worker.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial

import numpy as np

# The temporaries of a block are a few (rows x n) arrays; at n = 3200,
# 256-row blocks raised the optimizer's peak RSS by 4 MB, 128-row blocks
# leave it unchanged.
ROW_BLOCK = 128


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
