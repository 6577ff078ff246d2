"""Hyperparameter grid search and the multi-seed benchmark harness."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields, replace
from itertools import product
from typing import Iterable, Sequence

from .data import TripleSet, check_fractions, split
from .model import Hyperparams, rmse
from .sddmm import check_integer
from .train import VALID_OPTIMIZERS, OptimizerKind, train


@dataclass(frozen=True)
class GridSpec:
    """Axes swept by grid_search.

    The second-order models sweep (lambda_r1, lambda_r2, gamma); SLF
    pins lambda_r1 to 0 and sweeps the other two. SGDM sweeps
    (learning_rate, momentum, lambda_r2). Defaults cover the reference
    sweep: 11 x 5 x 15 = 825 candidate points for the full model.
    ``fixed`` supplies every hyperparameter the sweep does not touch.
    """

    lambda_r1_values: tuple = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05,
                               0.06, 0.07, 0.08, 0.09, 0.1)
    lambda_r2_values: tuple = (1e-7, 1e-6, 1e-5, 1e-4, 1e-3)
    gamma_values: tuple = tuple(float(g) for g in range(20, 301, 20))
    learning_rate_values: tuple = (0.001, 0.01, 0.1)
    momentum_values: tuple = (0.0, 0.5, 0.9)
    fixed: Hyperparams = Hyperparams()

    def __post_init__(self):
        for fd in fields(self):
            if fd.name != "fixed" and len(getattr(self, fd.name)) == 0:
                raise ValueError(f"{fd.name} must not be empty")


# the setting each GridSpec axis <setting>_values sweeps, in grid CSV column order
SWEPT_SETTINGS = tuple(fd.name.removesuffix("_values")
                       for fd in fields(GridSpec) if fd.name != "fixed")


@dataclass(frozen=True)
class GridPoint:
    "One fully specified candidate: hyperparameters plus optimizer knobs."

    hyperparams: Hyperparams
    kind: OptimizerKind

    def settings(self) -> dict:
        "The swept settings this point's model reads, by name in grid CSV column order."
        h, k = self.hyperparams, self.kind
        both = {"lambda_r1": h.lambda_r1, "lambda_r2": h.lambda_r2}
        if k.name == "SGDM":  # reads no gamma
            return both | {"learning_rate": k.learning_rate, "momentum": k.momentum}
        return both | {"gamma": h.gamma}  # DRSLF and SLF read no optimizer knob


@dataclass(frozen=True)
class GridPointResult:
    point: GridPoint
    val_rmse: float
    best_epoch: int
    status: str  # "ok" or the failure message
    test_rmse: float = float("nan")  # the best epoch's model's; not a grid CSV column

    CSV_HEADER = ",".join(SWEPT_SETTINGS) + ",val_rmse,best_epoch,status"

    def csv_row(self) -> str:
        "One CSV line; a setting the point's model does not read is an empty field."
        s = self.point.settings()
        cells = [repr(s[name]) if name in s else "" for name in SWEPT_SETTINGS]
        out = io.StringIO()  # the csv module quotes a status that holds a comma
        csv.writer(out, lineterminator="").writerow(
            [*cells, repr(self.val_rmse), self.best_epoch, self.status])
        return out.getvalue()


def _grid_points(grid: GridSpec, kind: OptimizerKind) -> Iterable[GridPoint]:
    "Candidates in deterministic ascending lexicographic order."
    l2s = sorted(grid.lambda_r2_values)
    if kind.name == "SGDM":
        for lr, mom, l2 in product(sorted(grid.learning_rate_values),
                                   sorted(grid.momentum_values), l2s):
            yield GridPoint(replace(grid.fixed, lambda_r1=0.0, lambda_r2=l2),
                            OptimizerKind("SGDM", lr, mom))
        return
    l1s = (0.0,) if kind.name == "SLF" else tuple(sorted(grid.lambda_r1_values))
    for l1, l2, gamma in product(l1s, l2s, sorted(grid.gamma_values)):
        yield GridPoint(replace(grid.fixed, lambda_r1=l1, lambda_r2=l2, gamma=gamma), kind)


def _run(split_data, point: GridPoint) -> GridPointResult:
    "Train one point; a RuntimeError (divergence, inner solver breakdown) is its status."
    try:
        state, report = train(split_data, point.hyperparams, point.kind)
    except RuntimeError as exc:
        return GridPointResult(point, float("nan"), 0, str(exc))
    # state is the best epoch's model, whose validation RMSE train
    # measured with the same rmse; with no epochs it is the init
    val = (report.epochs[report.best_epoch - 1].val_rmse if report.epochs
           else rmse(state, split_data.validation))
    return GridPointResult(point, val, report.best_epoch, "ok", report.final_test_rmse)


def grid_search(split_data, grid: GridSpec, kind: OptimizerKind,
                progress=None) -> tuple[GridPoint, list[GridPointResult]]:
    """Train every grid candidate and pick the lowest validation RMSE.

    Candidates are built from grid.fixed with the swept axes overridden
    and visited in ascending lexicographic order; ties keep the earlier
    point, so the selection is deterministic. A candidate that fails to
    train (divergence, inner solver breakdown) is recorded with its
    error message and skipped in the selection; if every candidate
    fails, RuntimeError.
    """
    results: list[GridPointResult] = []
    for point in _grid_points(grid, kind):
        results.append(_run(split_data, point))
        if progress is not None:
            progress(results[-1])
    ok = [r for r in results if r.status == "ok"]
    if not ok:
        raise RuntimeError("every grid point failed to train")
    return min(ok, key=lambda r: r.val_rmse).point, results  # min keeps the first of a tie


def grid_results_csv(results: Sequence[GridPointResult]) -> str:
    out = io.StringIO()
    out.write(GridPointResult.CSV_HEADER + "\n")
    for r in results:
        out.write(r.csv_row() + "\n")
    return out.getvalue()


@dataclass(frozen=True)
class BenchRow:
    "One (config, model): means over the seeds that trained, and each failed seed's message."

    dataset: str
    model: str
    mean_rmse: float
    mean_best_epoch: float
    seeds: int
    seed_rmses: tuple
    seed_best_epochs: tuple
    failures: tuple = ()


@dataclass(frozen=True)
class BenchTable:
    rows: tuple

    CSV_HEADER = "dataset,model,mean_rmse,mean_best_epoch,seeds"

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(self.CSV_HEADER + "\n")
        for r in self.rows:
            out.write(f"{r.dataset},{r.model},{r.mean_rmse!r},"
                      f"{r.mean_best_epoch!r},{r.seeds}\n")
        return out.getvalue()

    def to_text(self) -> str:
        "Aligned human-readable table with the per-seed values, then each failed run."
        out = io.StringIO()
        out.write(f"{'dataset':<10}{'model':<8}{'mean_rmse':>12}"
                  f"{'mean_best_epoch':>17}  per-seed rmse\n")
        for r in self.rows:
            per_seed = "  " + " ".join(f"{v:.5f}" for v in r.seed_rmses) if r.seed_rmses else ""
            out.write(f"{r.dataset:<10}{r.model:<8}{r.mean_rmse:>12.5f}"
                      f"{r.mean_best_epoch:>17.1f}{per_seed}\n")
        for r in self.rows:
            for seed, message in r.failures:
                out.write(f"{r.dataset} {r.model} seed {seed} failed: {message}\n")
        return out.getvalue()


def run_benchmark(data: TripleSet,
                  configs: Sequence[tuple[str, float, float]],
                  seeds: Sequence[int],
                  models: Sequence[OptimizerKind],
                  h: Hyperparams = Hyperparams(),
                  log=None) -> BenchTable:
    """Train every (config, model, seed) combination and aggregate.

    configs are (label, train_frac, val_frac) splitting recipes applied
    to the in-memory TripleSet data with each seed; the same seed drives
    both the split and the factor init of its runs. Each (config, seed)
    is split once, and every model trains on that split, so ``log``
    gets its lines seed by seed, each seed's models in row order. Every
    model trains with h, its seed replaced by the run's. Row order is
    configs as given, models in VALID_OPTIMIZERS order (SGDM, SLF,
    DRSLF), independent of the order requested. A run that fails to
    train is recorded in its row and logged with its message, as
    grid_search records a point; if every run fails, RuntimeError.
    """
    if len(models) == 0:
        raise ValueError("no models requested")
    if len(seeds) == 0:
        raise ValueError("no seeds given")
    if len(configs) == 0:
        raise ValueError("no dataset configs given")
    names = [m.name for m in models]
    if len(set(names)) != len(names):
        raise ValueError("duplicate model in request")
    if len(set(label for label, _, _ in configs)) != len(configs):
        raise ValueError("duplicate dataset label in request")
    for label, train_frac, val_frac in configs:
        try:
            check_fractions(train_frac, val_frac)
        except ValueError as exc:
            raise ValueError(f"dataset config {label!r}: {exc}") from None
    if len(set(seeds)) != len(seeds):
        raise ValueError("duplicate seed in request")
    for seed in seeds:
        check_integer("seed", seed, least=0)
    ordered = sorted(models, key=lambda m: VALID_OPTIMIZERS.index(m.name))
    rows = []
    for label, train_frac, val_frac in configs:
        runs = {kind.name: [] for kind in ordered}  # one result per seed
        for seed in seeds:
            # the split depends on the config and the seed only: every
            # model trains on one, and one is held at a time
            sp = split(data, train_frac, val_frac, seed)
            for kind in ordered:
                r = _run(sp, GridPoint(replace(h, seed=seed), kind))
                runs[kind.name].append(r)
                if log is not None:
                    outcome = (f"test_rmse={r.test_rmse:.5f} best_epoch={r.best_epoch}"
                               if r.status == "ok" else f"failed: {r.status}")
                    print(f"{label} {kind.name} seed={seed} {outcome}", file=log)
            del sp
        for kind in ordered:
            ok = [r for r in runs[kind.name] if r.status == "ok"]
            rmses = tuple(r.test_rmse for r in ok)
            epochs = tuple(r.best_epoch for r in ok)
            failures = tuple((r.point.hyperparams.seed, r.status)
                             for r in runs[kind.name] if r.status != "ok")
            rows.append(BenchRow(label, kind.name,  # means are nan if no seed trained
                                 sum(rmses) / len(ok) if ok else float("nan"),
                                 sum(epochs) / len(ok) if ok else float("nan"),
                                 len(ok), rmses, epochs, failures))
    if not any(row.seeds for row in rows):
        raise RuntimeError("every benchmark run failed")
    return BenchTable(rows=tuple(rows))
