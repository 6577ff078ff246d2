"""Outer training loop: second-order updates, the momentum-SGD baseline,
early stopping on validation RMSE, and per-epoch reporting.

Three optimizers share the loop:

* DRSLF: damped Gauss-Newton step for the doubly regularized objective,
  solved matrix-free by inner CG;
* SLF: the same second-order step with the smooth L1 term switched off
  (quadratic penalty only);
* SGDM: per-observation stochastic gradient with momentum on the
  L2-regularized objective, the first-order baseline.

Every epoch records train RMSE, validation RMSE, inner iteration count
(CG iterations, or observations visited for SGDM) and wall time. The
model kept at the end is the one from the best validation epoch, and
the test RMSE is reported for that model only.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .cg import cg_solve
from .curvature import CurvatureContext
from .data import SplitDataset
from .model import FactorState, Hyperparams, gradient, init_factors, rmse

VALID_OPTIMIZERS = ("DRSLF", "SLF", "SGDM")


@dataclass(frozen=True)
class OptimizerKind:
    """Which update rule to run, plus the first-order baseline's knobs.

    learning_rate and momentum only matter for SGDM. Both baselines
    (SLF, SGDM) drop the smooth L1 term and keep the quadratic penalty.
    """

    name: str
    learning_rate: float = 0.01
    momentum: float = 0.9

    def __post_init__(self):
        if self.name not in VALID_OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.name!r}, expected one of {VALID_OPTIMIZERS}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")

    @classmethod
    def drslf(cls) -> "OptimizerKind":
        return cls(name="DRSLF")

    @classmethod
    def slf(cls) -> "OptimizerKind":
        return cls(name="SLF")

    @classmethod
    def sgdm(cls, *args, **kwargs) -> "OptimizerKind":
        "SGDM with the knobs given, positional or by name, else the field defaults."
        return cls("SGDM", *args, **kwargs)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_rmse: float
    val_rmse: float
    inner_iters: int
    wall_ms: float


@dataclass
class TrainReport:
    """Trace of one run: per-epoch records plus the final verdict.

    stop_reason is "patience" when validation RMSE failed to improve for
    h.patience consecutive epochs, else "max_epochs". final_test_rmse is
    measured with the best-validation-epoch model.
    """

    epochs: list[EpochRecord] = field(default_factory=list)
    final_test_rmse: float = float("nan")
    best_epoch: int = 0
    stop_reason: str = ""

    CSV_HEADER = "epoch,train_rmse,val_rmse,inner_iters,wall_ms"

    def to_csv(self, include_timing: bool = False) -> str:
        """Per-epoch CSV plus a '#'-prefixed summary line.

        Timing is suppressed (written as 0) unless include_timing is
        set, so that two runs with identical inputs produce identical
        bytes; the measured times stay available on the records.
        """
        out = io.StringIO()
        out.write(self.CSV_HEADER + "\n")
        for rec in self.epochs:
            ms = int(round(rec.wall_ms)) if include_timing else 0
            out.write(f"{rec.epoch},{rec.train_rmse!r},{rec.val_rmse!r},"
                      f"{rec.inner_iters},{ms}\n")
        out.write(f"# {self.summary()}\n")
        return out.getvalue()

    def summary(self) -> str:
        return (f"final_test_rmse={self.final_test_rmse!r} "
                f"best_epoch={self.best_epoch} stop_reason={self.stop_reason}")


@dataclass
class BestSnapshot:
    """Rolling best-validation snapshot: parameters from the single best
    epoch seen so far, not a history of all epochs."""

    epoch: int = 0
    val_rmse: float = float("inf")
    state: Optional[FactorState] = None

    def consider(self, epoch: int, val_rmse: float, state: FactorState) -> bool:
        "Keep this epoch if strictly better; returns whether it improved."
        if val_rmse < self.val_rmse:
            self.epoch = epoch
            self.val_rmse = val_rmse
            self.state = state.copy()
            return True
        return False


def _sgdm_epoch(users, services, values, order, xu, xs, vu, vs,
                lr, momentum, lam2):
    """One SGDM pass over ``order``, updating xu, xs, vu and vs in place;
    both gradients of an observation come from its pre-update rows.

    The result is bit for bit that of visiting ``order`` one observation
    at a time. The pass is level scheduled: an observation's level is one
    more than the larger of the levels of the last earlier observation on
    its user and on its service. No two observations of one level share
    a user or a service, so each level is updated at once: every
    observation reads exactly the rows the serial order would give it,
    and every write lands on a distinct row. Levels run in increasing
    order.

    The level count is at least the largest number of observations on
    one user or one service in ``order``; if one entity appears in every
    observation, each level holds a single observation.
    """
    u_seq = users[order]
    s_seq = services[order]
    level = []
    last_u = [0] * xu.shape[0]
    last_s = [0] * xs.shape[0]
    for u, s in zip(u_seq.tolist(), s_seq.tolist()):
        lu = last_u[u]
        ls = last_s[s]
        lv = (lu if lu > ls else ls) + 1
        last_u[u] = lv
        last_s[s] = lv
        level.append(lv)
    level = np.array(level, dtype=np.int64)
    by_level = np.argsort(level, kind="stable")
    u_seq = u_seq[by_level]
    s_seq = s_seq[by_level]
    val_seq = values[order[by_level]]
    ends = np.cumsum(np.bincount(level)).tolist()
    for start, stop in zip(ends[:-1], ends[1:]):
        u = u_seq[start:stop]
        s = s_seq[start:stop]
        xu_rows = xu[u]
        xs_rows = xs[s]
        # Subtract the products one by one in index order, as a scalar
        # loop over the factor index does. A dot product (@, np.dot,
        # einsum) sums in its own order, and momentum 0 would then not
        # equal plain SGD bit for bit (acceptance criterion 7).
        err = val_seq[start:stop].copy()
        for p in (xu_rows * xs_rows).T:
            err -= p
        neg_err = (-err)[:, None]
        gu = neg_err * xs_rows + lam2 * xu_rows
        gs = neg_err * xu_rows + lam2 * xs_rows
        vu_rows = momentum * vu[u] - lr * gu
        vs_rows = momentum * vs[s] - lr * gs
        vu[u] = vu_rows
        vs[s] = vs_rows
        xu[u] = xu_rows + vu_rows
        xs[s] = xs_rows + vs_rows


def _second_order_epoch(x: FactorState, split: SplitDataset, h: Hyperparams,
                        epoch: int) -> int:
    ctx = CurvatureContext(x, split.train, h)
    g = gradient(x, split.train, h)
    try:
        result = cg_solve(ctx.damped_hvp, g, h.tau, h.cg_max_iters)
    except RuntimeError as exc:
        raise type(exc)(f"epoch {epoch}: {exc}") from exc
    x.add_vector(result.delta)
    return result.iterations


def _sgdm_epoch_run(x: FactorState, vel_user: np.ndarray, vel_service: np.ndarray,
                    split: SplitDataset, h: Hyperparams, kind: OptimizerKind,
                    epoch: int) -> int:
    t = split.train.base
    order = np.random.default_rng((h.seed, epoch)).permutation(len(t)).astype(np.int64)
    _sgdm_epoch(t.users, t.services, t.values, order,
                x.user_factors, x.service_factors,
                vel_user, vel_service,
                kind.learning_rate, kind.momentum, h.lambda_r2)
    return len(t)


def train(split: SplitDataset, h: Hyperparams,
          kind: Optional[OptimizerKind] = None) -> tuple[FactorState, TrainReport]:
    """Fit factors on split.train, early-stopping on split.validation.

    Returns the best-validation model and the full report. Identical
    (split, h, kind) triples give identical results; the only random
    draws are the seeded init and, for SGDM, the seeded per-epoch
    shuffles.
    """
    if kind is None:
        kind = OptimizerKind.drslf()
    if kind.name in ("SLF", "SGDM") and h.lambda_r1 != 0:
        h = replace(h, lambda_r1=0.0)

    t = split.train.base
    x = init_factors(t.num_users, t.num_services, h)
    report = TrainReport()
    best = BestSnapshot()
    bad_streak = 0
    if kind.name == "SGDM":
        # velocity buffers, carried across epochs
        vel_user = np.zeros_like(x.user_factors)
        vel_service = np.zeros_like(x.service_factors)
    stop_reason = "max_epochs"

    for epoch in range(1, h.max_epochs + 1):
        started = time.perf_counter()
        if kind.name == "SGDM":
            inner = _sgdm_epoch_run(x, vel_user, vel_service, split, h, kind, epoch)
        else:
            inner = _second_order_epoch(x, split, h, epoch)
        wall_ms = (time.perf_counter() - started) * 1e3

        if not (np.isfinite(x.user_factors).all() and np.isfinite(x.service_factors).all()):
            raise RuntimeError(f"epoch {epoch}: factors diverged to non-finite values")
        train_rmse = rmse(x, split.train)
        val_rmse = rmse(x, split.validation)
        if not (np.isfinite(train_rmse) and np.isfinite(val_rmse)):
            raise RuntimeError(
                f"epoch {epoch}: non-finite RMSE (train={train_rmse}, val={val_rmse})")
        report.epochs.append(EpochRecord(epoch=epoch, train_rmse=train_rmse,
                                         val_rmse=val_rmse, inner_iters=inner,
                                         wall_ms=wall_ms))

        if best.consider(epoch, val_rmse, x):
            bad_streak = 0
        else:
            bad_streak += 1
            if bad_streak >= h.patience:
                stop_reason = "patience"
                break

    report.best_epoch = best.epoch
    report.stop_reason = stop_reason
    best_state = best.state if report.epochs else x
    report.final_test_rmse = rmse(best_state, split.test)
    return best_state, report
