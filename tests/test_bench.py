"""Grid search and benchmark harness tests."""

import csv
import io
import math

import numpy as np
import pytest

from sofactor import bench as bench_mod
from sofactor.bench import (
    BenchTable,
    GridPoint,
    GridPointResult,
    GridSpec,
    grid_results_csv,
    grid_search,
    rmse,
    run_benchmark,
)
from sofactor.data import TripleSet, build_index, split, synth_lowrank
from sofactor.model import FactorState, Hyperparams
from sofactor.train import OptimizerKind


def tiny_problem(seed=0):
    t, _ = synth_lowrank(15, 18, rank=2, density=0.5, noise_sigma=0.05,
                         seed=seed, init_lo=0.2, init_hi=1.0)
    return t, split(t, 0.6, 0.2, seed=seed)


def fast_h(**kw):
    base = dict(f=2, tau=1e-6, cg_max_iters=15, max_epochs=8, patience=8,
                init_lo=0.2, init_hi=1.0, seed=3)
    base.update(kw)
    return Hyperparams(**base)


def small_grid(**kw):
    base = dict(lambda_r1_values=(0.0, 0.05), lambda_r2_values=(1e-5,),
                gamma_values=(0.5, 2.0), learning_rate_values=(0.02, 0.05),
                momentum_values=(0.0, 0.5), fixed=fast_h())
    base.update(kw)
    return GridSpec(**base)


def eval_set(values, num_users=2):
    users = np.arange(num_users, dtype=np.int64)[: len(values)]
    services = np.zeros(len(values), np.int64)
    return build_index(TripleSet(num_users, 1, users, services,
                                 np.asarray(values, np.float64)))


def test_rmse_hand_examples():
    # rank-1 state predicting 2.0 for every (user, service) cell
    state = FactorState(1, np.array([[1.0], [1.0]]), np.array([[2.0]]))
    assert rmse(state, eval_set([2.0, 2.0])) == 0.0
    # single observation off by 1
    assert rmse(state, eval_set([3.0], num_users=1)) == 1.0
    # errors 1 and 3: sqrt((1 + 9) / 2) = sqrt(5)
    assert rmse(state, eval_set([3.0, -1.0])) == pytest.approx(math.sqrt(5.0), rel=1e-15)


def test_gridspec_rejects_empty_axis():
    with pytest.raises(ValueError, match="lambda_r2_values"):
        GridSpec(lambda_r2_values=())


def test_gridspec_default_axes_shape():
    g = GridSpec()
    assert len(g.lambda_r1_values) == 11
    assert len(g.lambda_r2_values) == 5
    assert len(g.gamma_values) == 15
    assert len(g.lambda_r1_values) * len(g.lambda_r2_values) * len(g.gamma_values) == 825
    assert g.fixed == Hyperparams()


def test_grid_search_single_point_grid_is_best():
    _, sp = tiny_problem()
    grid = GridSpec(lambda_r1_values=(0.03,), lambda_r2_values=(1e-5,),
                    gamma_values=(1.0,), learning_rate_values=(0.01,),
                    momentum_values=(0.0,), fixed=fast_h(max_epochs=2))
    best, results = grid_search(sp, grid, OptimizerKind.drslf())
    assert len(results) == 1 and results[0].status == "ok"
    assert (best.hyperparams.lambda_r1, best.hyperparams.lambda_r2,
            best.hyperparams.gamma) == (0.03, 1e-5, 1.0)


def test_grid_search_two_point_grid_picks_lower_validation():
    _, sp = tiny_problem()
    grid = small_grid(gamma_values=(0.5,), lambda_r1_values=(0.0, 0.08))
    best, results = grid_search(sp, grid, OptimizerKind.drslf())
    assert len(results) == 2
    assert results[0].val_rmse != results[1].val_rmse  # strictly ordered pair
    lower = min(results, key=lambda r: r.val_rmse)
    assert best == lower.point


def test_grid_search_best_is_minimum_and_deterministic():
    _, sp = tiny_problem()
    best1, res1 = grid_search(sp, small_grid(), OptimizerKind.drslf())
    best2, res2 = grid_search(sp, small_grid(), OptimizerKind.drslf())
    assert res1 == res2
    assert best1 == best2
    assert len(res1) == 2 * 1 * 2
    ok = [r.val_rmse for r in res1 if r.status == "ok"]
    chosen = min(ok)
    match = [r for r in res1 if r.val_rmse == chosen][0]
    assert best1 == match.point


def test_grid_search_tie_breaks_lexicographically():
    # zero training epochs: every candidate evaluates the same init state,
    # so all validation scores tie and the first point in ascending
    # (lambda_r1, lambda_r2, gamma) order must win
    _, sp = tiny_problem()
    grid = small_grid(lambda_r1_values=(0.05, 0.0), gamma_values=(2.0, 0.5),
                      lambda_r2_values=(1e-4, 1e-5), fixed=fast_h(max_epochs=0))
    best, results = grid_search(sp, grid, OptimizerKind.drslf())
    assert len({r.val_rmse for r in results}) == 1
    assert best.hyperparams.lambda_r1 == 0.0
    assert best.hyperparams.lambda_r2 == 1e-5
    assert best.hyperparams.gamma == 0.5


@pytest.mark.parametrize("epochs", [0, 8])
def test_grid_search_reads_validation_rmse_from_report(monkeypatch, epochs):
    # train already measured the best epoch's validation RMSE; grid_search
    # re-measures only the init model of a run with no epochs
    _, sp = tiny_problem()
    calls = []

    def counting(state, eval_set):
        calls.append(eval_set.role)
        return rmse(state, eval_set)

    monkeypatch.setattr(bench_mod, "rmse", counting)
    _, results = grid_search(sp, small_grid(fixed=fast_h(max_epochs=epochs)),
                             OptimizerKind.drslf())
    assert calls == ["validation"] * (len(results) if epochs == 0 else 0)
    for r in results:
        state, _ = bench_mod.train(sp, r.point.hyperparams, r.point.kind)
        assert r.val_rmse == rmse(state, sp.validation)


def test_grid_search_axes_per_optimizer():
    _, sp = tiny_problem()
    grid = small_grid(fixed=fast_h(max_epochs=1))
    _, slf = grid_search(sp, grid, OptimizerKind.slf())
    assert len(slf) == 1 * 2  # lambda_r2 x gamma only
    assert all(r.point.hyperparams.lambda_r1 == 0.0 for r in slf)
    _, sgdm = grid_search(sp, grid, OptimizerKind.sgdm())
    assert len(sgdm) == 2 * 2 * 1  # lr x momentum x lambda_r2
    assert all(r.point.hyperparams.lambda_r1 == 0.0 for r in sgdm)
    assert {(r.point.kind.learning_rate, r.point.kind.momentum) for r in sgdm} == \
        {(0.02, 0.0), (0.02, 0.5), (0.05, 0.0), (0.05, 0.5)}


def test_grid_search_records_failures_and_skips_them():
    _, sp = tiny_problem()
    grid = small_grid(learning_rate_values=(0.02, 1e9), momentum_values=(0.0,))
    best, results = grid_search(sp, grid, OptimizerKind.sgdm())
    blown = [r for r in results if r.status != "ok"]
    assert blown and all(np.isnan(r.val_rmse) for r in blown)
    assert all(r.point.kind.learning_rate == 1e9 for r in blown)
    assert best.kind.learning_rate == 0.02


def test_grid_search_all_failures_raise():
    _, sp = tiny_problem()
    grid = small_grid(learning_rate_values=(1e9,), momentum_values=(0.0,),
                      lambda_r2_values=(1e-5,))
    with pytest.raises(RuntimeError, match="every grid point failed"):
        grid_search(sp, grid, OptimizerKind.sgdm())


def test_grid_results_csv_layout():
    _, sp = tiny_problem()
    _, results = grid_search(sp, small_grid(fixed=fast_h(max_epochs=1)),
                             OptimizerKind.slf())
    text = grid_results_csv(results)
    lines = text.strip().split("\n")
    assert lines[0] == ("lambda_r1,lambda_r2,gamma,learning_rate,momentum,"
                        "val_rmse,best_epoch,status")
    assert len(lines) == 1 + len(results)
    assert lines[1].endswith(",ok")


@pytest.mark.parametrize("status", ["<p, A p> = -0.0 at iteration 1",
                                    "epoch 2: non-finite RMSE (train=nan, val=inf)"])
def test_grid_results_csv_quotes_failure_with_comma(status):
    point = GridPoint(Hyperparams(lambda_r1=0.05, lambda_r2=1e-5, gamma=0.0),
                      OptimizerKind.drslf())
    ok = GridPointResult(point, 0.5, 3, "ok")
    failed = GridPointResult(point, float("nan"), 0, status)
    rows = list(csv.reader(io.StringIO(grid_results_csv([ok, failed]))))
    assert [len(r) for r in rows] == [8, 8, 8]
    assert rows[2][-1] == status
    # an ok row keeps its unquoted bytes
    assert ok.csv_row() == "0.05,1e-05,0.0,,,0.5,3,ok"


# ------------------------------------------------------------------- bench

def test_run_benchmark_row_order_invariant_to_request_order():
    t, _ = tiny_problem()
    h = fast_h(max_epochs=2)
    models_a = [OptimizerKind.drslf(), OptimizerKind.sgdm(0.05, 0.5), OptimizerKind.slf()]
    models_b = [OptimizerKind.sgdm(0.05, 0.5), OptimizerKind.slf(), OptimizerKind.drslf()]
    configs = [("tiny", 0.6, 0.2)]
    table_a = run_benchmark(t, configs, [0, 1], models_a, h)
    table_b = run_benchmark(t, configs, [0, 1], models_b, h)
    assert table_a == table_b
    assert [r.model for r in table_a.rows] == ["SGDM", "SLF", "DRSLF"]


def test_run_benchmark_aggregates_per_seed_runs():
    t, _ = tiny_problem()
    h = fast_h(max_epochs=3)
    table = run_benchmark(t, [("tiny", 0.6, 0.2)], [0, 1, 2],
                          [OptimizerKind.slf()], h)
    row = table.rows[0]
    assert row.seeds == 3 and len(row.seed_rmses) == 3
    assert row.mean_rmse == pytest.approx(sum(row.seed_rmses) / 3, rel=1e-15)
    assert row.mean_best_epoch == pytest.approx(sum(row.seed_best_epochs) / 3, rel=1e-15)
    # seeds really differ: distinct splits and inits
    assert len(set(row.seed_rmses)) > 1


def test_run_benchmark_validates_request(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before the request was checked")

    monkeypatch.setattr(bench_mod, "train", no_training)
    t, _ = tiny_problem()
    with pytest.raises(ValueError, match="no models"):
        run_benchmark(t, [("a", 0.6, 0.2)], [0], [], fast_h())
    with pytest.raises(ValueError, match="no seeds"):
        run_benchmark(t, [("a", 0.6, 0.2)], [], [OptimizerKind.slf()], fast_h())
    with pytest.raises(ValueError, match="no dataset"):
        run_benchmark(t, [], [0], [OptimizerKind.slf()], fast_h())
    with pytest.raises(ValueError, match="duplicate model"):
        run_benchmark(t, [("a", 0.6, 0.2)], [0],
                      [OptimizerKind.slf(), OptimizerKind.slf()], fast_h())
    with pytest.raises(ValueError, match="duplicate dataset"):
        run_benchmark(t, [("a", 0.6, 0.2), ("a", 0.5, 0.2)], [0],
                      [OptimizerKind.slf()], fast_h())
    with pytest.raises(ValueError, match="duplicate seed"):
        run_benchmark(t, [("a", 0.6, 0.2)], [0, 1, 0], [OptimizerKind.slf()], fast_h())
    # the second config's fractions are refused before the first one trains
    with pytest.raises(ValueError, match="^dataset config 'bad': .*must not exceed 1"):
        run_benchmark(t, [("a", 0.6, 0.2), ("bad", 0.9, 0.5)], [0],
                      [OptimizerKind.slf()], fast_h())
    with pytest.raises(ValueError, match=r"^dataset config 'bad': .*lie in \(0, 1\)"):
        run_benchmark(t, [("a", 0.6, 0.2), ("bad", 0.0, 0.5)], [0],
                      [OptimizerKind.slf()], fast_h())


def test_bench_table_csv_layout():
    t, _ = tiny_problem()
    table = run_benchmark(t, [("tiny", 0.6, 0.2)], [0, 1],
                          [OptimizerKind.sgdm(0.05, 0.5)], fast_h(max_epochs=2))
    lines = table.to_csv().strip().split("\n")
    assert lines[0] == "dataset,model,mean_rmse,mean_best_epoch,seeds"
    cells = lines[1].split(",")
    assert cells[0] == "tiny" and cells[1] == "SGDM" and cells[4] == "2"
    text = table.to_text()
    assert "per-seed rmse" in text and "tiny" in text


BENCH_CONFIGS = [("tiny", 0.6, 0.2), ("half", 0.5, 0.25)]
BENCH_MODELS = [OptimizerKind.drslf(), OptimizerKind.sgdm(0.05, 0.5), OptimizerKind.slf()]


def test_run_benchmark_splits_each_config_and_seed_once(monkeypatch):
    t, _ = tiny_problem()
    calls = []

    def counting(*args):
        calls.append(args[1:])
        return split(*args)

    monkeypatch.setattr(bench_mod, "split", counting)
    log = io.StringIO()
    run_benchmark(t, BENCH_CONFIGS, [0, 1], BENCH_MODELS, fast_h(max_epochs=2), log=log)
    assert calls == [(0.6, 0.2, 0), (0.6, 0.2, 1), (0.5, 0.25, 0), (0.5, 0.25, 1)]
    # progress comes seed by seed, each seed's models in row order
    assert [line.split()[:3] for line in log.getvalue().splitlines()] == [
        [label, model, f"seed={seed}"] for label in ("tiny", "half") for seed in (0, 1)
        for model in ("SGDM", "SLF", "DRSLF")]


def test_run_benchmark_csv_keeps_its_bytes():
    # the table of the build that split once per (config, model, seed)
    t, _ = tiny_problem()
    table = run_benchmark(t, BENCH_CONFIGS, [0, 1], BENCH_MODELS, fast_h())
    assert table.to_csv() == (
        "dataset,model,mean_rmse,mean_best_epoch,seeds\n"
        "tiny,SGDM,0.0967417997736617,4.5,2\n"
        "tiny,SLF,0.1738093157950844,4.5,2\n"
        "tiny,DRSLF,0.17131648108972797,4.5,2\n"
        "half,SGDM,0.10342876377657931,4.5,2\n"
        "half,SLF,0.1726739073431629,4.5,2\n"
        "half,DRSLF,0.16992248098076645,4.5,2\n")
    assert table.rows[0].seed_rmses == (0.0339008726981584, 0.159582726849165)
    assert table.rows[0].seed_best_epochs == (1, 8)
