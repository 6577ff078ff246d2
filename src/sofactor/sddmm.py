"""Sampled dense-dense products: one f-length dot per observed cell.

Predictions, residuals and Jacobian-vector products all evaluate, for
every observation k, a sum of row dot products a[rows[k]] . b[cols[k]].
Gathering all |K| rows at once builds (|K|, f) temporaries far larger
than cache. Walking the observations in blocks of BLOCK_ROWS keeps each
block's gathered rows cache-resident, and each block applies the same
row-wise einsum as the unblocked form, so the output is bitwise
identical to it.

The pool serves the per-epoch passes over all observations: these dots
and the weighted sums of ``data.RaggedIndex``. Large calls split their
output into the contiguous spans of ``span_bounds``, which decides every
split in the library, and run them on one per-process pool of WORKERS
threads, one per CPU this process may run on (``run_spans``). numpy's
``take`` and ``einsum`` and scipy's sparse products release the GIL, so
the spans run at once. Every output element goes through the same
operations whichever span holds it, so no byte depends on the worker
count. Set-up, which runs once, runs on the calling thread.

``dot`` is the library's one inner product: CG's inner products and
the residual sums of RMSE and the loss go through it, so one function
fixes their summation order. ``check_integer``, the library's one check
of an integer argument, sits here because every module that takes a
count imports this one.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

# Two gathered (2048, 20) float64 blocks take 650 kB; measured on a
# 2-vCPU Xeon with 2 MB L2 per core, 2048 rows beat 1k and 4k-64k rows.
BLOCK_ROWS = 2048
# the least span worth the hand-off to a pool thread (tens of microseconds)
MIN_SPAN = 4 * BLOCK_ROWS


def _cpus() -> int:
    "The CPUs this process may run on."
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


WORKERS = _cpus()
_pool = None
_pool_lock = threading.Lock()


def _drop_pool() -> None:
    """Forget the pool in a forked child: its threads were not copied,
    so work handed to it would never run."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _executor() -> ThreadPoolExecutor:
    "The process's pool, started on first use."
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(WORKERS, thread_name_prefix="sofactor")
        return _pool


def span_bounds(n: int, quantum: int = 1) -> list:
    """The bounds of the spans that a pooled pass over range(n) runs:
    max(1, min(WORKERS, n // MIN_SPAN)) contiguous spans from 0 to n.

    Inner bound i of p spans is n * i // p rounded down to a multiple of
    quantum (at most MIN_SPAN), so no span of n > 0 is empty.
    """
    parts = max(1, min(WORKERS, n // MIN_SPAN))
    return [n * i // parts // quantum * quantum for i in range(parts)] + [n]


def run_spans(fn, bounds) -> None:
    """fn(lo, hi) for each pair of neighbouring entries of bounds.

    With one span, or one worker, the spans run inline, in order, and no
    pool is started. Otherwise they run on the pool, and this returns,
    or raises the first failed span's error, only once every span has
    finished, so no span still writes to the caller's arrays.
    """
    spans = list(zip(bounds[:-1], bounds[1:]))
    if len(spans) <= 1 or WORKERS == 1:
        for lo, hi in spans:
            fn(lo, hi)
        return
    futures = []
    try:
        pool = _executor()
        for lo, hi in spans:
            futures.append(pool.submit(fn, lo, hi))
    finally:
        wait(futures)
    for future in futures:
        future.result()


def check_integer(name: str, value) -> None:
    "Reject a value that is not an int or a numpy integer, a bool included, naming it."
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b for two 1-d float64 arrays of equal length; 0.0 if empty.

    einsum without ``optimize`` runs numpy's own single-threaded
    sum-of-products loop and calls no BLAS routine, so the sum's order,
    and its bytes, do not depend on the BLAS thread count.
    """
    return float(np.einsum("i,i->", a, b))


def sampled_dots(rows: np.ndarray, cols: np.ndarray, pairs, out=None) -> np.ndarray:
    """out[k] = sum over (a, b) in pairs of a[rows[k]] . b[cols[k]].

    pairs is a non-empty sequence of (a, b) factor matrices with equal
    column counts. The first pair's dots are written and each later
    pair's are added, in pair order. out, if given, receives the result
    and is returned; it must hold len(rows) float64 entries.
    """
    n = len(rows)
    if out is None:
        out = np.empty(n)
    (a0, b0), *rest = pairs

    def span(lo, hi):
        for start in range(lo, hi, BLOCK_ROWS):
            r = rows[start:start + BLOCK_ROWS]
            c = cols[start:start + BLOCK_ROWS]
            o = out[start:start + BLOCK_ROWS]
            # take() without out=: given out=, the default mode="raise"
            # buffers the whole result; mode="raise" keeps a bad id an error
            np.einsum("ij,ij->i", a0.take(r, axis=0), b0.take(c, axis=0), out=o)
            for a, b in rest:
                o += np.einsum("ij,ij->i", a.take(r, axis=0), b.take(c, axis=0))

    # spans of whole blocks: every block is the one a serial walk makes
    run_spans(span, span_bounds(n, BLOCK_ROWS))
    return out
