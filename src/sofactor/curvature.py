"""Matrix-free curvature products for the second-order update.

The inner linear solve needs products (G_E + gamma*I) v where G_E is the
Gauss-Newton approximation J^T J of the data-term Hessian plus the exact
(diagonal) Hessians of both regularizers. Nothing here ever forms a
matrix: J v is one gather pass over the observations,

    (J v)_{u,s} = sum_d (v_{u,d} x_{s,d} + x_{u,d} v_{s,d}),

and J^T (J v) is one scatter pass back onto the factors,

    user side    omega_{u,d} = sum_{s in K_u} x_{s,d} (J v)_{u,s},
    service side omega_{s,d} = sum_{u in K_s} x_{u,d} (J v)_{u,s}.

Both regularizer Hessians are diagonal, so their products are
elementwise scalings. Cost per product is O(|K| f).
"""

from __future__ import annotations

import numpy as np

from .data import IndexedDataset
from .model import FactorState, Hyperparams, entity_counts, jacobian_transpose_vector
from .sddmm import sampled_dots


class CurvatureContext:
    """Precomputed pieces for repeated curvature products at a fixed point.

    Built once per solved epoch (none after a zero step, whose solve is
    reused) from the current factors, the indexed train split, and
    hyperparameters. It caches the regularizer diagonals in the layout of
    ``x.table`` (an L1 table only when lambda_r1 > 0, since the L1 term is
    absent otherwise, and an L2 column of per-row weights) and one J v
    scratch buffer. Every product is one blocked gather pass in the train
    set's user-major order (J v reads its factor rows from x block by block,
    holding no per-observation copy) plus two sparse accumulations. The
    context must be treated as read-only and rebuilt whenever x changes: it
    keeps a reference to x, so mutating x while a context is live
    invalidates it.
    """

    def __init__(self, x: FactorState, data: IndexedDataset, h: Hyperparams):
        if data.base.num_users != x.num_users or data.base.num_services != x.num_services:
            raise ValueError("data dimensions do not match factor state")
        self.x = x
        self.data = data
        self.h = h
        self._jv = np.empty(len(data))  # scratch reused across products
        c = entity_counts(data)
        self._l1_diag = None
        if h.lambda_r1 > 0:
            # diagonal Hessian of the smooth L1 term:
            #   d^2/dx^2 sqrt(x^2 + eps) = eps / (x^2 + eps)^(3/2)
            e = h.epsilon
            self._l1_diag = h.lambda_r1 * c * e / np.power(x.table ** 2 + e, 1.5)
        self._l2_diag = h.lambda_r2 * c

    def jacobian_vector(self, v: np.ndarray) -> np.ndarray:
        """J v: directional derivative of every prediction, one entry per
        observation, in the train set's user-major order (the order the
        weighted sums take; ``data.by_user.order`` maps it to stored order).

        Returns the context's scratch buffer, which the next product
        overwrites; copy it to keep it.
        """
        vu, vs = np.split(self.x.as_table(v), [self.x.num_users])
        um = self.data.user_major
        return sampled_dots(um.users, um.services,
                            ((vu, self.x.service_factors), (self.x.user_factors, vs)),
                            out=self._jv)

    def gn_hvp(self, v: np.ndarray) -> np.ndarray:
        "Gauss-Newton product J^T J v for the data term."
        return jacobian_transpose_vector(self.x, self.data, self.jacobian_vector(v))

    def reg_l1_hvp(self, v: np.ndarray) -> np.ndarray:
        if self._l1_diag is None:
            return np.zeros(self.x.dim)
        return (self._l1_diag * self.x.as_table(v)).ravel()

    def reg_l2_hvp(self, v: np.ndarray) -> np.ndarray:
        return (self._l2_diag * self.x.as_table(v)).ravel()

    def damped_hvp(self, v: np.ndarray) -> np.ndarray:
        """(G_E + gamma*I) v: the operator handed to the inner solver.

        gamma enters linearly (gamma * v), which together with the
        positive semidefinite Gauss-Newton part and the nonnegative
        regularizer diagonals makes the operator positive definite for
        gamma > 0. At lambda_r1 = 0 the L1 product is not added: it is
        all zeros, and the Gauss-Newton part is never -0.0 (its sums
        start at +0.0), so adding it would change no bit.
        """
        v = np.asarray(v, dtype=np.float64)
        out = self.gn_hvp(v)
        if self._l1_diag is not None:
            out += self.reg_l1_hvp(v)
        out += self.reg_l2_hvp(v)
        if self.h.gamma != 0:
            out += self.h.gamma * v
        return out
