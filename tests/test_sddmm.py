"""The blocked sampled-dot kernel against the unblocked row-wise einsum."""

import numpy as np
import pytest

from sofactor.sddmm import BLOCK_ROWS, sampled_dots

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
