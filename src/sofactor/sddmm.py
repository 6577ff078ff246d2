"""Sampled dense-dense products: one f-length dot per observed cell.

Predictions, residuals and Jacobian-vector products all evaluate, for
every observation k, a sum of row dot products a[rows[k]] . b[cols[k]].
Gathering all |K| rows at once builds (|K|, f) temporaries far larger
than cache. Walking the observations in blocks of BLOCK_ROWS keeps each
block's gathered rows cache-resident, and each block applies the same
row-wise einsum as the unblocked form, so the output is bitwise
identical to it.
"""

from __future__ import annotations

import numpy as np

# Two gathered (2048, 20) float64 blocks take 650 kB; measured on a
# 2-vCPU Xeon with 2 MB L2 per core, 2048 rows beat 1k and 4k-64k rows.
BLOCK_ROWS = 2048


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
    for lo in range(0, n, BLOCK_ROWS):
        r = rows[lo:lo + BLOCK_ROWS]
        c = cols[lo:lo + BLOCK_ROWS]
        o = out[lo:lo + BLOCK_ROWS]
        # take() without out=: given out=, the default mode="raise"
        # buffers the whole result; mode="raise" keeps a bad id an error
        np.einsum("ij,ij->i", a0.take(r, axis=0), b0.take(c, axis=0), out=o)
        for a, b in rest:
            o += np.einsum("ij,ij->i", a.take(r, axis=0), b.take(c, axis=0))
    return out
