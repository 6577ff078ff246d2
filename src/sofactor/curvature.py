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
from .model import FactorState, Hyperparams, pack_blocks, split_vector
from .sddmm import sampled_dots


class CurvatureContext:
    """Precomputed pieces for repeated curvature products at a fixed point.

    Built once per outer epoch from the current factors, the indexed
    train split, and hyperparameters; only the diagonal regularizer
    coefficients are cached. Every product is one blocked gather pass
    (J v reads its factor rows from x block by block, holding no
    per-observation copy) plus two sparse accumulations. The context
    must be treated as read-only and rebuilt whenever x changes: it
    keeps references to the factor matrices, so mutating x while a
    context is live invalidates it.
    """

    def __init__(self, x: FactorState, data: IndexedDataset, h: Hyperparams):
        if data.base.num_users != x.num_users or data.base.num_services != x.num_services:
            raise ValueError("data dimensions do not match factor state")
        self.x = x
        self.data = data
        self.h = h
        self.dim = x.dim
        self._jv = np.empty(len(data))  # scratch reused across products
        cu = data.user_counts[:, None].astype(np.float64)
        cs = data.service_counts[:, None].astype(np.float64)
        # diagonal Hessian of the smooth L1 term:
        #   d^2/dx^2 sqrt(x^2 + eps) = eps / (x^2 + eps)^(3/2)
        e = h.epsilon
        self._l1_diag_u = h.lambda_r1 * cu * e / np.power(x.user_factors ** 2 + e, 1.5)
        self._l1_diag_s = h.lambda_r1 * cs * e / np.power(x.service_factors ** 2 + e, 1.5)
        self._l2_diag_u = h.lambda_r2 * cu
        self._l2_diag_s = h.lambda_r2 * cs

    def _views(self, v: np.ndarray):
        return split_vector(v, self.x.num_users, self.x.num_services, self.x.f)

    def jacobian_vector(self, v: np.ndarray) -> np.ndarray:
        """J v: directional derivative of every prediction, one entry per observation.

        Returns the context's scratch buffer, which the next product
        overwrites; copy it to keep it.
        """
        vu, vs = self._views(v)
        t = self.data.base
        return sampled_dots(t.users, t.services,
                            ((vu, self.x.service_factors), (self.x.user_factors, vs)),
                            out=self._jv)

    def gn_hvp(self, v: np.ndarray) -> np.ndarray:
        "Gauss-Newton product J^T J v for the data term."
        jv = self.jacobian_vector(v)
        wu = self.data.user_weighted_sums(jv, self.x.service_factors)
        ws = self.data.service_weighted_sums(jv, self.x.user_factors)
        return pack_blocks(wu, ws)

    def reg_l1_hvp(self, v: np.ndarray) -> np.ndarray:
        vu, vs = self._views(v)
        return pack_blocks(self._l1_diag_u * vu, self._l1_diag_s * vs)

    def reg_l2_hvp(self, v: np.ndarray) -> np.ndarray:
        vu, vs = self._views(v)
        return pack_blocks(self._l2_diag_u * vu, self._l2_diag_s * vs)

    def damped_hvp(self, v: np.ndarray) -> np.ndarray:
        """(G_E + gamma*I) v: the operator handed to the inner solver.

        gamma enters linearly (gamma * v), which together with the
        positive semidefinite Gauss-Newton part and the nonnegative
        regularizer diagonals makes the operator positive definite for
        gamma > 0.
        """
        v = np.asarray(v, dtype=np.float64)
        out = self.gn_hvp(v)
        out += self.reg_l1_hvp(v)
        out += self.reg_l2_hvp(v)
        if self.h.gamma != 0:
            out += self.h.gamma * v
        return out


def dense_gn_oracle(x: FactorState, data: IndexedDataset) -> np.ndarray:
    """Explicit J^T J, built row by row. Test oracle only.

    Refuses problems with more than 200 parameters; the point is an
    independent check of gn_hvp on tiny instances, not a usable path.
    """
    dim = x.dim
    if dim > 200:
        raise ValueError(f"dense oracle limited to 200 parameters, got {dim}")
    t = data.base
    jac = np.zeros((len(t), dim))
    f = x.f
    cut = x.num_users * f
    for k in range(len(t)):
        u = int(t.users[k])
        s = int(t.services[k])
        for d in range(f):
            jac[k, u * f + d] = x.service_factors[s, d]
            jac[k, cut + s * f + d] = x.user_factors[u, d]
    return jac.T @ jac
