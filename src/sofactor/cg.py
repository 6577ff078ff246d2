"""Conjugate gradient inner solver for the damped Newton step.

Solves A * delta = -g with A given only as a product callable. The
termination rule is deliberately loose and elementwise: stop once the
max-norm of the residual drops to tau, or after max_iters iterations,
whichever comes first. The update step does not need a tight solve; a
handful of iterations against a well-damped operator is the whole point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class NonFiniteOperatorError(RuntimeError):
    "The operator produced inf/nan, or the iteration overflowed."


class IndefiniteOperatorError(RuntimeError):
    "Encountered <p, A p> <= 0: the operator is not positive definite as damped."


@dataclass(frozen=True)
class CgResult:
    """Outcome of one inner solve.

    delta is the best iterate by residual max-norm, not necessarily the
    last; final_residual_inf is ||-g - A*delta||_inf for that delta,
    consistent with it rather than with the recurrence's drifting
    residual. It is recomputed from scratch (one extra product) when
    some iterate improved on delta = 0; when none did, delta = 0 and
    final_residual_inf is exactly ||g||_inf, since A*0 = 0. converged
    is exactly final_residual_inf <= tau.
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
    caller's problem to fix, never patched over here. tau > 0 and
    max_iters >= 1 are required.
    """
    if tau <= 0:
        raise ValueError("tau must be > 0")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    g = np.asarray(g, dtype=np.float64)
    if not np.isfinite(g).all():
        raise NonFiniteOperatorError("right-hand side contains non-finite values")

    b = -g
    delta = np.zeros_like(b)
    r = b.copy()
    r_inf = float(np.abs(r).max()) if len(r) else 0.0
    if r_inf <= tau:
        # already within tolerance at delta = 0; nothing to recompute
        return CgResult(delta=delta, iterations=0,
                        final_residual_inf=r_inf, converged=True)

    best_delta = delta.copy()
    best_inf = r0_inf = r_inf
    p = r.copy()
    rs = float(r @ r)
    iterations = 0
    for _ in range(max_iters):
        ap = apply_a(p)
        if not np.isfinite(ap).all():
            raise NonFiniteOperatorError(
                f"operator product non-finite at iteration {iterations + 1}")
        pap = float(p @ ap)
        if pap <= 0:
            raise IndefiniteOperatorError(
                f"<p, A p> = {pap!r} at iteration {iterations + 1}")
        alpha = rs / pap
        delta += alpha * p
        r -= alpha * ap
        iterations += 1
        if not np.isfinite(r).all():
            raise NonFiniteOperatorError(
                f"residual non-finite at iteration {iterations}")
        r_inf = float(np.abs(r).max())
        if r_inf < best_inf:
            best_inf = r_inf
            best_delta = delta.copy()
        if r_inf <= tau:
            break
        rs_next = float(r @ r)
        p = r + (rs_next / rs) * p
        rs = rs_next

    if best_inf < r0_inf:
        final = float(np.abs(b - apply_a(best_delta)).max())
    else:  # no iterate beat delta = 0, and b - A*0 is b exactly
        final = r0_inf
    return CgResult(delta=best_delta, iterations=iterations,
                    final_residual_inf=final, converged=final <= tau)
