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
import zipfile
from dataclasses import dataclass, fields

import numpy as np

from .data import IndexedDataset, TripleSet, UserMajorOrder
from .sddmm import check_integer, dot, sampled_dots

FORMAT_VERSION = 1


def check_fields(obj) -> None:
    """Reject a NaN or infinite value in any float field of the dataclass
    obj, and anything but an integer (``check_integer``) in any int field."""
    for fd in fields(obj):
        value = getattr(obj, fd.name)
        if isinstance(fd.default, float) and not math.isfinite(value):
            raise ValueError(f"{fd.name} must be finite, got {value}")
        if type(fd.default) is int:
            check_integer(fd.name, value)


@dataclass(frozen=True)
class Hyperparams:
    """Everything that controls one training run.

    Defaults follow the reference configuration used in the benchmark
    harness: rank 20, a moderate grid midpoint for the two penalty
    weights and damping, inner tolerance 10 with at most 10 inner
    iterations, and uniform [0, 0.04) initialization. The int fields
    take an int or a numpy integer only: a float or a bool is refused.
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
        check_fields(self)
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


class FactorState:
    """Rank-f factor matrices; the full parameter point of a model.

    The parameters live in one new C-contiguous ``table`` of shape
    (num_users + num_services, f), user rows first; ``user_factors`` and
    ``service_factors`` are views of its two row ranges. The flat
    parameter vector is ``table`` in row-major order; ``as_table`` views
    a flat vector as a table.
    """

    def __init__(self, f: int, user_factors, service_factors):
        user_factors = np.asarray(user_factors, dtype=np.float64)
        service_factors = np.asarray(service_factors, dtype=np.float64)
        if user_factors.ndim != 2 or service_factors.ndim != 2:
            raise ValueError("factor matrices must be 2-d")
        if user_factors.shape[1] != f or service_factors.shape[1] != f:
            raise ValueError("factor matrices must have f columns")
        self.f = f
        self.num_users = user_factors.shape[0]
        self.table = np.concatenate((user_factors, service_factors))
        if not np.isfinite(self.table).all():
            raise ValueError("non-finite factor entry")

    @property
    def user_factors(self) -> np.ndarray:
        return self.table[:self.num_users]

    @property
    def service_factors(self) -> np.ndarray:
        return self.table[self.num_users:]

    @property
    def num_services(self) -> int:
        return self.table.shape[0] - self.num_users

    @property
    def dim(self) -> int:
        "Length of the flat parameter vector."
        return self.table.size

    def as_table(self, vec: np.ndarray) -> np.ndarray:
        "A view of the flat parameter vector vec in the shape of ``table``."
        return _rows(vec, *self.table.shape)

    def as_vector(self) -> np.ndarray:
        return self.table.flatten()

    @classmethod
    def from_vector(cls, num_users: int, num_services: int, f: int,
                    vec: np.ndarray) -> "FactorState":
        table = _rows(vec, num_users + num_services, f)
        return cls(f=f, user_factors=table[:num_users], service_factors=table[num_users:])

    def add_vector(self, vec: np.ndarray) -> None:
        "In-place parameter update x <- x + vec."
        self.table += self.as_table(vec)

    def copy(self) -> "FactorState":
        return FactorState(f=self.f, user_factors=self.user_factors,
                           service_factors=self.service_factors)


def _rows(vec: np.ndarray, num_rows: int, f: int) -> np.ndarray:
    "A flat parameter vector viewed as num_rows rows of f entries."
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (num_rows * f,):
        raise ValueError(f"parameter vector has shape {vec.shape}, expected ({num_rows * f},)")
    return vec.reshape(num_rows, f)


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


def predict_observed(x: FactorState, t: TripleSet | UserMajorOrder) -> np.ndarray:
    """Predictions for every observation of t, in t's order: stored order
    for a TripleSet, user-major order for a UserMajorOrder."""
    return sampled_dots(t.users, t.services, ((x.user_factors, x.service_factors),))


def residuals(x: FactorState, t: TripleSet | UserMajorOrder) -> np.ndarray:
    "q - yhat per observation of t, in t's order, subtracted in place into the predictions."
    r = predict_observed(x, t)
    return np.subtract(t.values, r, out=r)


def loss_data(x: FactorState, d: IndexedDataset) -> float:
    "Unregularized half sum of squared residuals over d."
    r = residuals(x, d.base)
    return 0.5 * dot(r, r)


def rmse(x: FactorState, eval_set: IndexedDataset) -> float:
    "Root mean squared prediction error over the observations of eval_set."
    if len(eval_set) == 0:
        raise ValueError("empty evaluation set")
    r = residuals(x, eval_set.base)
    return math.sqrt(dot(r, r) / len(eval_set))


def entity_counts(d: IndexedDataset) -> np.ndarray:
    """Observation counts of d's users, then its services, as one int64
    column: row e weights row e of a ``FactorState.table``."""
    return np.concatenate((d.by_user.counts, d.by_service.counts))[:, None]


def _smooth_abs(block: np.ndarray, epsilon: float) -> np.ndarray:
    return np.sqrt(block * block + epsilon)


def objective(x: FactorState, d: IndexedDataset, h: Hyperparams) -> float:
    """Full training objective at x over the observations of d."""
    total = loss_data(x, d)
    c = entity_counts(d)
    if h.lambda_r1 > 0:
        total += h.lambda_r1 * float((c * _smooth_abs(x.table, h.epsilon)).sum())
    if h.lambda_r2 > 0:
        total += 0.5 * h.lambda_r2 * float((c * (x.table * x.table)).sum())
    return total


def jacobian_transpose_vector(x: FactorState, d: IndexedDataset,
                              w: np.ndarray) -> np.ndarray:
    """J^T w for w with one entry per observation in d's user-major order:
    user u gets the sum over K_u of w * x_s, service s the sum over K_s
    of w * x_u. Both sums write into one table in the layout of x.table."""
    out = np.empty_like(x.table)
    d.user_weighted_sums(w, x.service_factors, out=out[:x.num_users])
    d.service_weighted_sums(w, x.user_factors, out=out[x.num_users:])
    return out.ravel()


def data_gradient(x: FactorState, d: IndexedDataset) -> np.ndarray:
    """Gradient of the half-SSE term: J^T (-(q - yhat)), with the
    residuals computed in d's user-major order, the order J^T w takes.

    The residuals are formed as q - yhat, then negated in place: yhat - q
    would give +0.0 where this gives -0.0.
    """
    neg_r = residuals(x, d.user_major)
    return jacobian_transpose_vector(x, d, np.negative(neg_r, out=neg_r))


def l1_gradient(x: FactorState, d: IndexedDataset, h: Hyperparams) -> np.ndarray:
    """Gradient of the smooth L1 term: lambda_r1 * |K_e| * x / sqrt(x^2 + eps)."""
    if h.lambda_r1 == 0:
        return np.zeros(x.dim)
    return (h.lambda_r1 * entity_counts(d) * x.table / _smooth_abs(x.table, h.epsilon)).ravel()


def l1_curvature(x: FactorState, d: IndexedDataset, h: Hyperparams) -> np.ndarray:
    """Diagonal Hessian of the smooth L1 term, in the layout of x.table:
    d^2/dx^2 lambda_r1 * |K_e| * sqrt(x^2 + eps) = lambda_r1 * |K_e| * eps / (s * sqrt(s)),
    s = x * x + eps.

    s * sqrt(s) stands for s^(3/2): both operations are correctly rounded,
    so every machine gives the same bits, where np.power's SIMD loops
    differ in the last bit between CPU feature levels.
    """
    s = x.table * x.table + h.epsilon
    return h.lambda_r1 * entity_counts(d) * h.epsilon / (s * np.sqrt(s))


def l2_gradient(x: FactorState, d: IndexedDataset, h: Hyperparams) -> np.ndarray:
    "Gradient of the quadratic term: lambda_r2 * |K_e| * x."
    if h.lambda_r2 == 0:
        return np.zeros(x.dim)
    return (h.lambda_r2 * entity_counts(d) * x.table).ravel()


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
    """Read back a save_factors dump. A file that is not one raises a
    ValueError that names path."""
    with open(path, "rb") as fh:
        if not zipfile.is_zipfile(fh):
            raise ValueError(f"{path}: not a factor dump (not an npz archive)")
        fh.seek(0)
        with np.load(fh) as z:
            try:
                version = int(z["version"])
                f = int(z["f"])
                uf = z["user_factors"]
                sf = z["service_factors"]
            except KeyError as e:
                raise ValueError(f"{path}: not a factor dump (missing {e})") from None
            except (TypeError, ValueError) as e:  # a pickled or non-scalar member
                raise ValueError(f"{path}: not a factor dump ({e})") from None
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    try:
        return FactorState(f=f, user_factors=uf, service_factors=sf)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
