"""The blocked sampled-dot kernel against the unblocked row-wise einsum,
at any worker count, and the inner product against an exact sum."""

import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from sofactor import sddmm
from sofactor.data import IndexedDataset, TripleSet, split
from sofactor.sddmm import BLOCK_ROWS, dot, run_spans, sampled_dots, span_bounds

B = BLOCK_ROWS


@pytest.mark.parametrize("f", [1, 20])
@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 7])
def test_blocked_kernel_is_bitwise_the_unblocked_einsum(n, f):
    rng = np.random.default_rng(n * 31 + f)
    a = rng.standard_normal((17, f))
    b = rng.standard_normal((23, f))
    c = rng.standard_normal((17, f))
    d = rng.standard_normal((23, f))
    rows = rng.integers(0, 17, n)
    cols = rng.integers(0, 23, n)

    want = np.einsum("ij,ij->i", a[rows], b[cols])
    got = sampled_dots(rows, cols, ((a, b),))
    assert got.shape == (n,) and np.array_equal(got, want)

    # two pairs: the first written, the second added, as J v computes them
    want += np.einsum("ij,ij->i", c[rows], d[cols])
    out = np.empty(n)
    got = sampled_dots(rows, cols, ((a, b), (c, d)), out=out)
    assert got is out and np.array_equal(got, want)


def test_out_of_range_id_raises():
    a = np.ones((3, 2))
    with pytest.raises(IndexError):
        sampled_dots(np.array([0, 3]), np.array([0, 0]), ((a, a),))


# ------------------------------------------------------------ worker threads

def test_cpus_falls_back_to_the_cpu_count(monkeypatch):
    # a platform without an affinity mask
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert sddmm._cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
    assert sddmm._cpus() == 1


# the least n that a pooled pass splits in two
SPLIT_N = 2 * sddmm.MIN_SPAN


@pytest.mark.parametrize("quantum", [1, B])
@pytest.mark.parametrize("n", [0, 1, sddmm.MIN_SPAN - 1, SPLIT_N - 1, SPLIT_N,
                               3 * sddmm.MIN_SPAN + 5])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_span_bounds_follow_the_one_rule(workers, n, quantum, monkeypatch):
    monkeypatch.setattr(sddmm, "WORKERS", workers)
    bounds = span_bounds(n, quantum)
    parts = max(1, min(workers, n // sddmm.MIN_SPAN))
    assert len(bounds) == parts + 1
    assert bounds[0] == 0 and bounds[-1] == n
    # inner bound i is n * i // parts rounded down to a multiple of quantum
    assert bounds[1:-1] == [n * i // parts // quantum * quantum for i in range(1, parts)]
    assert all(b % quantum == 0 for b in bounds[:-1])
    if n:
        assert all(lo < hi for lo, hi in zip(bounds[:-1], bounds[1:]))
    else:
        assert bounds == [0, 0]


@pytest.fixture
def spans_run(monkeypatch):
    "The span count of each run_spans call that sampled_dots makes."
    counts = []

    def counted(fn, bounds):
        counts.append(len(bounds) - 1)
        return run_spans(fn, bounds)

    monkeypatch.setattr(sddmm, "run_spans", counted)
    return counts


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n", [SPLIT_N - 1, SPLIT_N, SPLIT_N + 1, 3 * sddmm.MIN_SPAN + 5])
def test_any_worker_count_gives_the_serial_bytes(n, workers, monkeypatch, spans_run):
    rng = np.random.default_rng(n)
    a, c = rng.standard_normal((2, 41, 7))
    b, d = rng.standard_normal((2, 29, 7))
    rows = rng.integers(0, 41, n)
    cols = rng.integers(0, 29, n)
    want_one = np.einsum("ij,ij->i", a[rows], b[cols])
    want_two = want_one + np.einsum("ij,ij->i", c[rows], d[cols])

    monkeypatch.setattr(sddmm, "WORKERS", workers)
    got = sampled_dots(rows, cols, ((a, b),))
    assert np.array_equal(got, want_one)
    out = np.full(n, np.nan)
    assert sampled_dots(rows, cols, ((a, b), (c, d)), out=out) is out
    assert np.array_equal(out, want_two)
    parts = max(1, min(workers, n // sddmm.MIN_SPAN))
    assert spans_run == [parts, parts]
    assert (parts > 1) == (workers > 1 and n >= SPLIT_N)


def test_out_of_range_id_in_a_later_span_raises(monkeypatch, spans_run):
    monkeypatch.setattr(sddmm, "WORKERS", 3)
    n = 3 * sddmm.MIN_SPAN
    a = np.ones((3, 2))
    rows = np.zeros(n, dtype=np.int64)
    rows[-1] = 3
    with pytest.raises(IndexError):
        sampled_dots(rows, np.zeros(n, dtype=np.int64), ((a, a),))
    assert spans_run == [3]


def test_run_spans_waits_for_every_span_before_raising(monkeypatch):
    monkeypatch.setattr(sddmm, "WORKERS", 2)
    finished = []

    def fn(lo, hi):
        if lo == 0:
            raise KeyError(lo)
        time.sleep(0.05)
        finished.append(lo)

    with pytest.raises(KeyError):
        run_spans(fn, [0, 1, 2, 3])
    assert sorted(finished) == [1, 2]


def test_pool_under_stress_gives_the_one_worker_bytes(monkeypatch):
    # eight workers, more than this suite's CPUs, and a thread switch every
    # microsecond: a span that lost or crossed another's writes changes bytes
    n, nu, ns = 50_000, 400, 300
    rng = np.random.default_rng(23)
    cells = rng.choice(nu * ns, size=n, replace=False)
    t = TripleSet(nu, ns, cells // ns, cells % ns, rng.standard_normal(n))
    a, c = rng.standard_normal((2, nu, 8))
    b, d = rng.standard_normal((2, ns, 8))
    w = rng.standard_normal(n)

    def one_round():
        ds = IndexedDataset(t)  # a fresh user-major view each round
        um = ds.user_major
        dots = sampled_dots(t.users, t.services, ((a, b), (c, d)))
        sums = ds.service_weighted_sums(w, a)  # gathers through positions
        sp = split(t, 0.34, 0.33, seed=3)  # every part gathered in two spans
        parts = [sp.train.base, sp.validation.base, sp.test.base]
        groupings = [sp.train.by_user, sp.train.by_service]  # built by split
        return [dots.tobytes(), sums.tobytes(), um.values.tobytes(),
                ds.by_service.positions.tobytes(), um.users.tobytes()] + [
                getattr(p, name).tobytes() for p in parts
                for name in ("users", "services", "values")] + [
                getattr(g, name).tobytes() for g in groupings
                for name in ("indices", "indptr")] + [
                getattr(sp.train.user_major, name).tobytes()
                for name in ("users", "values")] + [sp.train.by_service.positions.tobytes()]

    monkeypatch.setattr(sddmm, "WORKERS", 1)
    want = one_round()
    monkeypatch.setattr(sddmm, "WORKERS", 8)
    assert len(span_bounds(n)) - 1 == 6
    pool = ThreadPoolExecutor(8)  # the next split starts 8 threads
    monkeypatch.setattr(sddmm, "_pool", pool)
    got, errors = [], []

    def rounds():
        try:
            for _ in range(20):
                got.append(one_round())
        except Exception as e:  # re-raised below, on the test's thread
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    thread = threading.Thread(target=rounds, daemon=True)
    try:
        thread.start()
        thread.join(120)
        assert not thread.is_alive(), "the rounds did not finish in 120 s"
    finally:
        sys.setswitchinterval(interval)
        # a hung round keeps its spans on the pool: do not wait for them
        pool.shutdown(wait=not thread.is_alive())
    if errors:
        raise errors[0]
    assert len(got) == 20
    for i, round_bytes in enumerate(got):
        assert round_bytes == want, f"round {i}"


def test_forked_child_starts_its_own_pool(monkeypatch):
    # a forked child inherits the parent's pool object but none of its
    # threads; a split call there must not wait on them forever
    monkeypatch.setattr(sddmm, "WORKERS", 2)
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((2, 50, 6))
    rows, cols = rng.integers(0, 50, (2, 2 * SPLIT_N))
    want = sampled_dots(rows, cols, ((a, b),))  # starts the parent's pool's threads
    parent_pool = sddmm._pool

    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)

    def child():
        send.send((sddmm._pool is not parent_pool,
                   sampled_dots(rows, cols, ((a, b),)).tobytes()))

    proc = ctx.Process(target=child)
    proc.start()
    try:
        assert receive.poll(60), "the forked child's split call did not finish"
        assert receive.recv() == (True, want.tobytes())  # a fresh pool, the same bytes
    finally:
        proc.join(10)
        if proc.is_alive():
            proc.kill()
    assert proc.exitcode == 0


def test_importing_sofactor_starts_no_thread():
    # the pool is made at import, but its threads start with the first
    # pooled pass
    code = ("import threading, sofactor; print(sum(t.name.startswith('sofactor')"
            " for t in threading.enumerate()))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(sddmm.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"


def test_a_pooled_pass_starts_at_most_workers_threads(monkeypatch):
    # the pool is sized once, at import: a pass split into three times as
    # many spans as there are workers starts no more threads than workers
    workers = sddmm.WORKERS
    monkeypatch.setattr(sddmm, "WORKERS", 3 * workers)
    n = 3 * workers * sddmm.MIN_SPAN
    rng = np.random.default_rng(29)
    a, b = rng.standard_normal((2, 50, 6))
    rows, cols = rng.integers(0, 50, (2, n))
    want = np.einsum("ij,ij->i", a[rows], b[cols])
    assert np.array_equal(sampled_dots(rows, cols, ((a, b),)), want)
    started = [t for t in threading.enumerate() if t.name.startswith("sofactor")]
    assert 1 <= len(started) <= workers


@pytest.mark.parametrize("n", [1, 2, 7, 1000, 300_001])
def test_dot_is_within_1e_12_of_the_exact_sum(n):
    rng = np.random.default_rng(n)
    a, b = rng.uniform(0, 1, (2, n))  # no cancellation: a relative bound holds
    got = dot(a, b)
    assert type(got) is float
    assert abs(got - math.fsum(a * b)) <= 1e-12 * math.fsum(a * b)
    c, d = rng.standard_normal((2, n))  # mixed signs: bound by the sum of |terms|
    assert abs(dot(c, d) - math.fsum(c * d)) <= 1e-12 * math.fsum(np.abs(c * d))


def test_dot_of_empty_vectors_is_zero():
    got = dot(np.empty(0), np.empty(0))
    assert type(got) is float and got == 0.0
