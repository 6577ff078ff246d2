"""Outer training loop: one stepper per optimizer, early stopping on
validation RMSE, and per-epoch reporting.

Each optimizer's stepper is a generator that owns its per-run state and
adds one epoch's update to the factors per ``next``:

* DRSLF: damped Gauss-Newton step for the doubly regularized objective,
  solved matrix-free by inner CG; it reuses a zero step's iteration count;
* SLF: the same stepper with the smooth L1 term switched off;
* SGDM: per-observation stochastic gradient with momentum on the
  L2-regularized objective, the first-order baseline; it owns the velocity.

``train`` picks the stepper once and keeps what every optimizer shares:
each epoch's finiteness check, train and validation RMSE, inner iteration
count and wall time, and the best-validation snapshot and patience. The
test RMSE is reported for the best validation epoch's model only.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field, replace
from itertools import count, repeat
from typing import Optional

import numpy as np

from .cg import cg_solve
from .curvature import CurvatureContext
from .data import IndexedDataset, SplitDataset
from .model import FactorState, Hyperparams, check_fields, gradient, init_factors, rmse

# also bench's row order: first-order baseline, quadratic-only, full model
VALID_OPTIMIZERS = ("SGDM", "SLF", "DRSLF")


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
        check_fields(self)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")


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

    @property
    def stalled_epochs(self) -> tuple[int, ...]:
        """The epochs whose CG solve made no iteration (the gradient's max-norm
        was at or below tau), so the factors did not move; never SGDM's."""
        return tuple(rec.epoch for rec in self.epochs if rec.inner_iters == 0)

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


def _level_schedule(u_seq, s_seq, num_users, num_services):
    """The level schedule of the observation sequence (u_seq, s_seq):
    ``(by_level, sizes)``, where ``by_level`` is the stable argsort of the
    observations' levels and ``sizes[l - 1]`` is the number of
    observations of level l, for every level from 1 to the top one.

    An observation's level is one more than the larger of the levels of
    the last earlier observation on its user and on its service. The
    levels are assigned in one Python pass. A stable sort's permutation
    is fixed by the keys' order alone, so the levels are sorted on a
    uint16 key, which numpy radix-sorts, when the top level is below
    2^16, and on int64 otherwise.
    """
    level = []
    last_u = [0] * num_users
    last_s = [0] * num_services
    # a memoryview yields each id as a Python int as it goes, faster than
    # tolist() and without two lists of every id
    for u, s in zip(memoryview(u_seq), memoryview(s_seq)):
        lu = last_u[u]
        ls = last_s[s]
        lv = (lu if lu > ls else ls) + 1
        last_u[u] = lv
        last_s[s] = lv
        level.append(lv)
    top = max(last_u, default=0)  # every level is some user's last
    level = np.fromiter(level, np.uint16 if top < 1 << 16 else np.int64, len(level))
    return np.argsort(level, kind="stable"), np.bincount(level, minlength=top + 1)[1:]


def _sgdm_epoch(users, services, values, order, X, V, num_users,
                lr, momentum, lam2):
    """One SGDM pass over ``order``, updating the factor table X and the
    velocity table V in place; both gradients of an observation come from
    its pre-update rows. Both tables hold the user rows, then the service
    rows (service s at row num_users + s), as ``FactorState.table`` does.

    The result is bit for bit that of visiting ``order`` one observation
    at a time. The pass is level scheduled (``_level_schedule``): no two
    observations of one level share a user or a service, so each level
    is updated at once: every observation reads exactly the rows the
    serial order would give it, and every write lands on a distinct row.
    Levels run in increasing order.

    The level count is at least the largest number of observations on
    one user or one service in ``order``; if one entity appears in every
    observation, each level holds a single observation.

    One index run into the tables is built per epoch from the level
    sizes, laid out level by level: a level's user rows, then its service
    rows, so a row's partner sits at the same position in the other half.
    A level gathers its factor and velocity rows, updates both halves
    with the scalar loop's elementwise operations in its order, and
    scatters the rows back through 1-D views of the tables with one
    item per row. The error is one ``np.subtract.reduce`` down a column
    buffer whose first row holds the values and whose later rows hold the
    factor products, so it subtracts left to right as a scalar loop over
    the factor index does.
    """
    f = X.shape[1]
    u_seq = users[order]
    s_seq = services[order]
    by_level, sizes = _level_schedule(u_seq, s_seq, num_users, X.shape[0] - num_users)
    val_seq = values[order[by_level]]
    # each level's user rows, then its service rows; the ids widen to
    # int64 as they are written
    is_service = np.repeat(np.tile([False, True], len(sizes)), np.repeat(sizes, 2))
    idx = np.empty(2 * len(order), dtype=np.int64)
    idx[~is_service] = u_seq[by_level]
    idx[is_service] = np.add(s_seq[by_level], num_users, dtype=np.int64)
    del u_seq, s_seq, by_level, is_service  # the levels read only idx and val_seq

    row = np.dtype((np.void, 8 * f))  # one table row as one item
    X_rows = X.view(row).reshape(-1)
    V_rows = V.view(row).reshape(-1)
    big = int(sizes.max(initial=0))
    terms = np.empty((f + 1, big))
    g_buf = np.empty(2 * big * f)
    ends = np.cumsum(sizes).tolist()
    for start, stop in zip([0] + ends, ends):
        m = stop - start
        rows = idx[2 * start:2 * stop]
        R = X.take(rows, axis=0)
        Vr = V.take(rows, axis=0)
        halves = R.reshape(2, m, f)  # users, then their services
        # Subtract the products one by one in index order, as a scalar
        # loop over the factor index does: subtract.reduce down the
        # columns of [values; products] goes left to right. A dot product
        # (@, np.dot, einsum) sums in its own order, and momentum 0 would
        # then not equal plain SGD bit for bit (acceptance criterion 7).
        col = terms[:, :m]
        col[0] = val_seq[start:stop]
        np.multiply(halves[0].T, halves[1].T, out=col[1:])
        neg_err = -np.subtract.reduce(col, axis=0)
        # the scalar loop's operations in its order, the partner of a row
        # being the same position in the other half:
        # g = -err * partner + lam2 * row; v = momentum * v - lr * g; row += v
        # (-err is expanded to one entry per factor: a stride-0 broadcast
        # along the factors is slower)
        g = np.multiply(halves[::-1], neg_err.repeat(f).reshape(m, f),
                        out=g_buf[:2 * m * f].reshape(2, m, f))
        g += lam2 * halves
        Vr *= momentum
        g *= lr
        Vr -= g.reshape(2 * m, f)
        R += Vr
        V_rows[rows] = Vr.view(row).reshape(-1)
        X_rows[rows] = R.view(row).reshape(-1)


def _second_order_steps(x: FactorState, data: IndexedDataset, h: Hyperparams):
    "Damped Newton steps added to x in place; each yields its CG iteration count."
    for epoch in count(1):
        ctx = CurvatureContext(x, data, h)
        g = gradient(x, data, h)
        try:
            result = cg_solve(ctx.damped_hvp, g, h.tau, h.cg_max_iters)
        except RuntimeError as exc:
            raise type(exc)(f"epoch {epoch}: {exc}") from exc
        x.add_vector(result.delta)
        inner, zero_step = result.iterations, not result.delta.any()
        del ctx, g, result  # none is held through the RMSE passes and the next solve
        # A step is a pure function of x, data and h, and the factors never
        # hold -0.0: init draws lo + (hi - lo) * u with (hi - lo) * u >= +0.0,
        # and a sum with an operand that is not -0.0 is never -0.0. So a zero
        # step leaves every bit of x as it was, and every later epoch would
        # repeat the same solve and zero step: they yield its count instead.
        if zero_step:
            yield from repeat(inner)
        yield inner


def _sgdm_steps(x: FactorState, data: IndexedDataset, h: Hyperparams, kind: OptimizerKind):
    "SGDM passes over data, each in a seeded shuffled order; each yields its length."
    t = data.base
    velocity = np.zeros_like(x.table)  # carried across epochs
    for epoch in count(1):
        rng = np.random.default_rng((h.seed, epoch))
        # a diverging run overflows here; train's finiteness check names it
        with np.errstate(over="ignore", invalid="ignore"):
            _sgdm_epoch(t.users, t.services, t.values, rng.permutation(len(t)), x.table, velocity,
                        x.num_users, kind.learning_rate, kind.momentum, h.lambda_r2)
        yield len(t)


def train(split: SplitDataset, h: Hyperparams,
          kind: OptimizerKind = OptimizerKind("DRSLF")) -> tuple[FactorState, TrainReport]:
    """Fit factors on split.train, early-stopping on split.validation.

    Returns the best-validation model and the full report. Identical
    (split, h, kind) triples give identical results; the only random
    draws are the seeded init and, for SGDM, the seeded per-epoch
    shuffles.
    """
    t = split.train.base
    x = init_factors(t.num_users, t.num_services, h)
    if kind.name == "SGDM":
        steps = _sgdm_steps(x, split.train, h, kind)
    else:  # SLF is the second-order step without the smooth L1 term
        steps = _second_order_steps(x, split.train, h if kind.name == "DRSLF"
                                    else replace(h, lambda_r1=0.0))
    report = TrainReport()
    best = BestSnapshot()
    bad_streak = 0
    stop_reason = "max_epochs"

    for epoch in range(1, h.max_epochs + 1):
        started = time.perf_counter()
        inner = next(steps)
        wall_ms = (time.perf_counter() - started) * 1e3

        if not np.isfinite(x.table).all():
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
