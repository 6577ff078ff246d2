"""Latent factor state, the regularized objective, and its gradient.

The model approximates the observed matrix entry (u, s) by the inner
product of row u of the user factors with row s of the service factors.
Training minimizes, over the train split K,

    E = 1/2 * sum_K (q - yhat)^2
      + lambda_r1 * sum_K sum_d (sqrt(x_ud^2 + eps) + sqrt(x_sd^2 + eps))
      + lambda_r2/2 * sum_K sum_d (x_ud^2 + x_sd^2)

where the regularization sums run over observations, so each entity's
penalty is weighted by how often it is observed. The smooth L1 surrogate
sqrt(x^2 + eps) keeps the objective twice differentiable while pushing
small factor entries toward zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import IndexedDataset, TripleSet
from .sddmm import sampled_dots

FORMAT_VERSION = 1


@dataclass(frozen=True)
class Hyperparams:
    """Everything that controls one training run.

    Defaults follow the reference configuration used in the benchmark
    harness: rank 20, a moderate grid midpoint for the two penalty
    weights and damping, inner tolerance 10 with at most 10 inner
    iterations, and uniform [0, 0.04) initialization.
    """

    f: int = 20
    lambda_r1: float = 0.05
    lambda_r2: float = 1e-5
    epsilon: float = 1e-8
    gamma: float = 100.0
    tau: float = 10.0
    cg_max_iters: int = 10
    max_epochs: int = 500
    patience: int = 10
    init_lo: float = 0.0
    init_hi: float = 0.04
    seed: int = 0

    def __post_init__(self):
        if self.f < 1:
            raise ValueError("f must be >= 1")
        if self.lambda_r1 < 0 or self.lambda_r2 < 0:
            raise ValueError("penalty weights must be >= 0")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.tau <= 0:
            raise ValueError("tau must be > 0")
        if self.cg_max_iters < 1:
            raise ValueError("cg_max_iters must be >= 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not self.init_lo < self.init_hi:
            raise ValueError("init range must satisfy init_lo < init_hi")


@dataclass(eq=False)
class FactorState:
    """Rank-f factor matrices; the full parameter point of a model.

    The flat parameter vector layout is all user rows (row-major) then
    all service rows, giving (num_users + num_services) * f entries.
    """

    f: int
    user_factors: np.ndarray
    service_factors: np.ndarray

    def __post_init__(self):
        self.user_factors = np.ascontiguousarray(self.user_factors, dtype=np.float64)
        self.service_factors = np.ascontiguousarray(self.service_factors, dtype=np.float64)
        if self.user_factors.ndim != 2 or self.service_factors.ndim != 2:
            raise ValueError("factor matrices must be 2-d")
        if self.user_factors.shape[1] != self.f or self.service_factors.shape[1] != self.f:
            raise ValueError("factor matrices must have f columns")
        if not (np.isfinite(self.user_factors).all() and np.isfinite(self.service_factors).all()):
            raise ValueError("non-finite factor entry")

    @property
    def num_users(self) -> int:
        return self.user_factors.shape[0]

    @property
    def num_services(self) -> int:
        return self.service_factors.shape[0]

    @property
    def dim(self) -> int:
        "Length of the flat parameter vector."
        return (self.num_users + self.num_services) * self.f

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.user_factors.ravel(), self.service_factors.ravel()])

    @classmethod
    def from_vector(cls, num_users: int, num_services: int, f: int,
                    vec: np.ndarray) -> "FactorState":
        vu, vs = split_vector(vec, num_users, num_services, f)
        return cls(f=f, user_factors=vu.copy(), service_factors=vs.copy())

    def add_vector(self, vec: np.ndarray) -> None:
        "In-place parameter update x <- x + vec."
        vu, vs = split_vector(vec, self.num_users, self.num_services, self.f)
        self.user_factors += vu
        self.service_factors += vs

    def copy(self) -> "FactorState":
        return FactorState(f=self.f, user_factors=self.user_factors.copy(),
                           service_factors=self.service_factors.copy())


def split_vector(vec: np.ndarray, num_users: int, num_services: int, f: int):
    """Views of a flat parameter vector as (user block, service block)."""
    vec = np.asarray(vec, dtype=np.float64)
    expected = (num_users + num_services) * f
    if vec.shape != (expected,):
        raise ValueError(f"parameter vector has shape {vec.shape}, expected ({expected},)")
    cut = num_users * f
    return vec[:cut].reshape(num_users, f), vec[cut:].reshape(num_services, f)


def pack_blocks(user_block: np.ndarray, service_block: np.ndarray) -> np.ndarray:
    return np.concatenate([user_block.ravel(), service_block.ravel()])


def init_factors(num_users: int, num_services: int, h: Hyperparams) -> FactorState:
    """Seeded uniform [init_lo, init_hi) initialization of both matrices.

    User factors are drawn before service factors from one generator, so
    the full state is reproducible from h.seed alone.
    """
    rng = np.random.default_rng(h.seed)
    return FactorState(
        f=h.f,
        user_factors=rng.uniform(h.init_lo, h.init_hi, size=(num_users, h.f)),
        service_factors=rng.uniform(h.init_lo, h.init_hi, size=(num_services, h.f)))


def predict_observed(x: FactorState, t: TripleSet) -> np.ndarray:
    "Predictions for every observation of t, in observation order."
    return sampled_dots(t.users, t.services, ((x.user_factors, x.service_factors),))


def residuals(x: FactorState, t: TripleSet) -> np.ndarray:
    "q - yhat per observation."
    return t.values - predict_observed(x, t)


def loss_data(x: FactorState, d: IndexedDataset) -> float:
    "Unregularized half sum of squared residuals over d."
    r = residuals(x, d.base)
    return 0.5 * float(r @ r)


def rmse(x: FactorState, eval_set: IndexedDataset) -> float:
    "Root mean squared prediction error over the observations of eval_set."
    if len(eval_set) == 0:
        raise ValueError("empty evaluation set")
    r = residuals(x, eval_set.base)
    return math.sqrt(float(r @ r) / len(eval_set))


def _smooth_abs(block: np.ndarray, epsilon: float) -> np.ndarray:
    return np.sqrt(block * block + epsilon)


def objective(x: FactorState, d: IndexedDataset, h: Hyperparams) -> float:
    """Full training objective at x over the observations of d."""
    total = loss_data(x, d)
    cu = d.by_user.counts.astype(np.float64)
    cs = d.by_service.counts.astype(np.float64)
    if h.lambda_r1 > 0:
        total += h.lambda_r1 * (
            cu @ _smooth_abs(x.user_factors, h.epsilon).sum(axis=1)
            + cs @ _smooth_abs(x.service_factors, h.epsilon).sum(axis=1))
    if h.lambda_r2 > 0:
        total += 0.5 * h.lambda_r2 * (
            cu @ (x.user_factors * x.user_factors).sum(axis=1)
            + cs @ (x.service_factors * x.service_factors).sum(axis=1))
    return float(total)


def jacobian_transpose_vector(x: FactorState, d: IndexedDataset,
                              w: np.ndarray) -> np.ndarray:
    """J^T w for w with one entry per observation in d's user-major order:
    user u gets the sum over K_u of w * x_s, service s the sum over K_s
    of w * x_u."""
    wu = d.user_weighted_sums(w, x.service_factors)
    ws = d.service_weighted_sums(w, x.user_factors)
    return pack_blocks(wu, ws)


def data_gradient(x: FactorState, d: IndexedDataset) -> np.ndarray:
    """Gradient of the half-SSE term: J^T (-(q - yhat)), with the
    residuals computed in d's user-major order, the order J^T w takes."""
    um = d.user_major
    yhat = sampled_dots(um.users, um.services, ((x.user_factors, x.service_factors),))
    neg_r = -(d.base.values[d.by_user.order] - yhat)
    return jacobian_transpose_vector(x, d, neg_r)


def l1_gradient(x: FactorState, d: IndexedDataset, h: Hyperparams) -> np.ndarray:
    """Gradient of the smooth L1 term: lambda_r1 * |K_e| * x / sqrt(x^2 + eps)."""
    if h.lambda_r1 == 0:
        return np.zeros(x.dim)
    cu = d.by_user.counts[:, None]
    cs = d.by_service.counts[:, None]
    gu = h.lambda_r1 * cu * x.user_factors / _smooth_abs(x.user_factors, h.epsilon)
    gs = h.lambda_r1 * cs * x.service_factors / _smooth_abs(x.service_factors, h.epsilon)
    return pack_blocks(gu, gs)


def l2_gradient(x: FactorState, d: IndexedDataset, h: Hyperparams) -> np.ndarray:
    "Gradient of the quadratic term: lambda_r2 * |K_e| * x."
    if h.lambda_r2 == 0:
        return np.zeros(x.dim)
    gu = h.lambda_r2 * d.by_user.counts[:, None] * x.user_factors
    gs = h.lambda_r2 * d.by_service.counts[:, None] * x.service_factors
    return pack_blocks(gu, gs)


def gradient(x: FactorState, d: IndexedDataset, h: Hyperparams) -> np.ndarray:
    """Gradient of objective() as a flat parameter vector.

    A regulariser part at weight 0 is not added: it is all zeros, and
    the data gradient is never -0.0 (its sums start at +0.0), so adding
    it would change no bit.
    """
    g = data_gradient(x, d)
    if h.lambda_r1 > 0:
        g += l1_gradient(x, d, h)
    if h.lambda_r2 > 0:
        g += l2_gradient(x, d, h)
    return g


def save_factors(path, x: FactorState) -> None:
    "Lossless binary dump of a FactorState (npz, versioned) to exactly path."
    with open(path, "wb") as fh:  # np.savez adds .npz to a path, not to a file
        np.savez(fh, version=np.int64(FORMAT_VERSION), f=np.int64(x.f),
                 user_factors=x.user_factors, service_factors=x.service_factors)


def load_factors(path) -> FactorState:
    with np.load(path) as z:
        try:
            version = int(z["version"])
            f = int(z["f"])
            uf = z["user_factors"]
            sf = z["service_factors"]
        except KeyError as e:
            raise ValueError(f"{path}: not a factor dump (missing {e})") from None
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    return FactorState(f=f, user_factors=uf, service_factors=sf)
