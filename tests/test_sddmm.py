"""The blocked sampled-dot kernel against the unblocked row-wise einsum,
at any worker count, and the inner product against an exact sum."""

import math
import multiprocessing
import time

import numpy as np
import pytest

from sofactor import sddmm
from sofactor.sddmm import BLOCK_ROWS, dot, run_spans, sampled_dots

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

# the least n that sampled_dots splits in two: 2 * MIN_SPAN_BLOCKS blocks,
# the last of them holding one row
SPLIT_N = (2 * sddmm.MIN_SPAN_BLOCKS - 1) * B + 1


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
@pytest.mark.parametrize("n", [SPLIT_N - 1, SPLIT_N, SPLIT_N + 1,
                               3 * sddmm.MIN_SPAN_BLOCKS * B + 5])
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
    blocks = -(-n // B)
    parts = max(1, min(workers, blocks // sddmm.MIN_SPAN_BLOCKS))
    assert spans_run == [parts, parts]
    assert (parts > 1) == (workers > 1 and n >= SPLIT_N)


def test_out_of_range_id_in_a_later_span_raises(monkeypatch, spans_run):
    monkeypatch.setattr(sddmm, "WORKERS", 3)
    n = 3 * sddmm.MIN_SPAN_BLOCKS * B
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


def test_forked_child_starts_its_own_pool(monkeypatch):
    # a forked child inherits the parent's pool object but none of its
    # threads; a split call there must not wait on them forever
    monkeypatch.setattr(sddmm, "WORKERS", 2)
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((2, 50, 6))
    rows, cols = rng.integers(0, 50, (2, 2 * SPLIT_N))
    want = sampled_dots(rows, cols, ((a, b),))  # starts the parent's pool
    assert sddmm._pool is not None

    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)

    def child():
        send.send_bytes(sampled_dots(rows, cols, ((a, b),)).tobytes())

    proc = ctx.Process(target=child)
    proc.start()
    try:
        assert receive.poll(60), "the forked child's split call did not finish"
        assert receive.recv_bytes() == want.tobytes()
    finally:
        proc.join(10)
        if proc.is_alive():
            proc.kill()
    assert proc.exitcode == 0


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
