"""Training loop tests: determinism, equivalences, early stopping, reporting."""

import importlib
import warnings
import weakref

import numpy as np
import pytest

from sofactor.cg import IndefiniteOperatorError, cg_solve
from sofactor.curvature import CurvatureContext
from sofactor.data import TripleSet, split, synth_lowrank
from sofactor.model import Hyperparams, gradient, init_factors, rmse

train_mod = importlib.import_module("sofactor.train")
from sofactor.train import (
    EpochRecord,
    OptimizerKind,
    TrainReport,
    _level_schedule,
    _sgdm_epoch,
    train,
)

from oracles import traced_peak


def make_split(seed=0, nu=25, ns=30, rank=2, noise=0.02):
    t, _ = synth_lowrank(nu, ns, rank=rank, density=0.4, noise_sigma=noise,
                         seed=seed, init_lo=0.2, init_hi=1.0)
    return split(t, 0.6, 0.2, seed=seed)


def so_params(**kw):
    base = dict(f=2, lambda_r1=0.01, lambda_r2=1e-4, gamma=1.0, tau=1e-6,
                cg_max_iters=30, max_epochs=25, patience=5,
                init_lo=0.2, init_hi=1.0, seed=1)
    base.update(kw)
    return Hyperparams(**base)


def traces(report):
    return [(r.epoch, r.train_rmse, r.val_rmse, r.inner_iters) for r in report.epochs]


# ------------------------------------------------------------ optimizer kind

def test_optimizer_kind_validation():
    with pytest.raises(ValueError, match="unknown optimizer"):
        OptimizerKind(name="ADAM")
    with pytest.raises(ValueError):
        OptimizerKind.sgdm(learning_rate=0.0)
    with pytest.raises(ValueError):
        OptimizerKind.sgdm(momentum=1.0)
    assert OptimizerKind.drslf().name == "DRSLF"
    assert OptimizerKind.slf().name == "SLF"


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["learning_rate", "momentum"])
def test_optimizer_kind_rejects_non_finite_floats(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        OptimizerKind.sgdm(**{name: value})


# --------------------------------------------------------------- determinism

@pytest.mark.parametrize("kind", [OptimizerKind.drslf(),
                                  OptimizerKind.sgdm(0.05, 0.5)])
def test_training_is_deterministic(kind):
    sp = make_split()
    h = so_params()
    x1, r1 = train(sp, h, kind)
    x2, r2 = train(sp, h, kind)
    assert traces(r1) == traces(r2)
    assert r1.final_test_rmse == r2.final_test_rmse
    np.testing.assert_array_equal(x1.user_factors, x2.user_factors)
    np.testing.assert_array_equal(x1.service_factors, x2.service_factors)


def test_seed_changes_trajectory():
    sp = make_split()
    _, r1 = train(sp, so_params(seed=1))
    _, r2 = train(sp, so_params(seed=2))
    assert traces(r1) != traces(r2)


# -------------------------------------------------------------- equivalences

def test_slf_equals_drslf_without_l1():
    sp = make_split()
    h = so_params(lambda_r1=0.0)
    x_a, r_a = train(sp, h, OptimizerKind.drslf())
    x_b, r_b = train(sp, so_params(lambda_r1=0.37), OptimizerKind.slf())
    # SLF drops the smooth L1 term no matter what lambda_r1 says
    assert traces(r_a) == traces(r_b)
    np.testing.assert_array_equal(x_a.user_factors, x_b.user_factors)
    np.testing.assert_array_equal(x_a.service_factors, x_b.service_factors)


def plain_sgd_reference(sp, h, lr, epochs):
    """Momentum-free SGD written as a scalar loop, mirroring the kernel's
    arithmetic order exactly."""
    t = sp.train.base
    x = init_factors(t.num_users, t.num_services, h)
    xu, xs = x.user_factors, x.service_factors
    for epoch in range(1, epochs + 1):
        order = np.random.default_rng((h.seed, epoch)).permutation(len(t))
        for k in order:
            u, s = t.users[k], t.services[k]
            err = t.values[k]
            for d in range(h.f):
                err -= xu[u, d] * xs[s, d]
            for d in range(h.f):
                gu = -err * xs[s, d] + h.lambda_r2 * xu[u, d]
                gs = -err * xu[u, d] + h.lambda_r2 * xs[s, d]
                xu[u, d] += -lr * gu
                xs[s, d] += -lr * gs
    return x


def test_sgdm_momentum_zero_is_plain_sgd():
    sp = make_split()
    h = so_params(max_epochs=3, patience=3, lambda_r2=1e-3)
    got, _ = train(sp, h, OptimizerKind.sgdm(learning_rate=0.05, momentum=0.0))
    # train() returns the best-validation snapshot; rerun to the last epoch
    # is unnecessary because 3 epochs of fitting keep improving here
    want = plain_sgd_reference(sp, h, lr=0.05, epochs=3)
    np.testing.assert_array_equal(got.user_factors, want.user_factors)
    np.testing.assert_array_equal(got.service_factors, want.service_factors)


def sgdm_scalar_reference(users, services, values, orders, xu, xs, vu, vs,
                          lr, momentum, lam2):
    """SGD with momentum written as a scalar loop over one observation and
    one factor index at a time, one epoch per entry of ``orders``."""
    f = xu.shape[1]
    for order in orders:
        for k in order:
            u, s = users[k], services[k]
            err = values[k]
            for d in range(f):
                err -= xu[u, d] * xs[s, d]
            for d in range(f):
                gu = -err * xs[s, d] + lam2 * xu[u, d]
                gs = -err * xu[u, d] + lam2 * xs[s, d]
                vu[u, d] = momentum * vu[u, d] - lr * gu
                vs[s, d] = momentum * vs[s, d] - lr * gs
                xu[u, d] += vu[u, d]
                xs[s, d] += vs[s, d]


def sgdm_kernel_case(case):
    """(users, services, values, orders, xu0, xs0, momentum, lam2) for one
    kernel test; "mixed" is the synthetic set over three epochs, "wide" a
    denser and larger one whose levels hold many observations each."""
    rng = np.random.default_rng(71)
    num_users, num_services, f = {"wide": (30, 40, 20), "int16_ids": (3, 32_767, 5)}.get(
        case, (8, 9, 5))
    if case == "int16_ids":  # service rows num_users + s past 32,767
        t = TripleSet(num_users, num_services, np.array([0, 1, 2, 2, 0]),
                      np.array([32_766, 32_766, 0, 32_765, 7]), rng.uniform(0.2, 1.0, 5))
        assert t.services.dtype == np.int16
        users, services, values = t.users, t.services, t.values
    elif case == "one_user":  # every observation conflicts: one per level
        users, services = np.zeros(9, dtype=np.int64), np.arange(9)
        values = rng.uniform(0.2, 1.0, 9)
    elif case == "one_service":
        users, services = np.arange(8), np.zeros(8, dtype=np.int64)
        values = rng.uniform(0.2, 1.0, 8)
    else:
        t, _ = synth_lowrank(num_users, num_services, 2, 0.5, 0.05, seed=3,
                             init_lo=0.2, init_hi=1.0)
        users, services, values = t.users, t.services, t.values
    if case == "empty":
        orders = [np.zeros(0, dtype=np.int64)]
    elif case == "single":
        orders = [np.array([4], dtype=np.int64)]
    else:
        orders = [rng.permutation(len(users)).astype(np.int64) for _ in range(3)]
    xu0 = rng.uniform(0.2, 1.0, (num_users, f))
    xs0 = rng.uniform(0.2, 1.0, (num_services, f))
    momentum = 0.0 if case == "momentum_zero" else 0.6
    lam2 = 0.0 if case == "lam2_zero" else 1e-2
    return users, services, values, orders, xu0, xs0, momentum, lam2


@pytest.mark.parametrize("case", ["mixed", "one_user", "one_service", "empty",
                                  "single", "momentum_zero", "wide", "lam2_zero",
                                  "int16_ids"])
def test_sgdm_kernel_matches_scalar_reference(case):
    # the level-scheduled kernel, on stacked user-then-service tables,
    # must equal the scalar loop bit for bit on all four row ranges it
    # updates
    users, services, values, orders, xu0, xs0, momentum, lam2 = sgdm_kernel_case(case)
    args = (users, services, values)
    want = [xu0.copy(), xs0.copy(), np.zeros_like(xu0), np.zeros_like(xs0)]
    sgdm_scalar_reference(*args, orders, *want, 0.03, momentum, lam2)
    nu = len(xu0)
    X = np.concatenate((xu0, xs0))
    V = np.zeros_like(X)
    for order in orders:
        _sgdm_epoch(*args, order, X, V, nu, 0.03, momentum, lam2)
    for g, w in zip([X[:nu], X[nu:], V[:nu], V[nu:]], want):
        np.testing.assert_array_equal(g, w)


def test_sgdm_carries_velocity_across_epochs():
    # train's epochs are the scalar loop's epochs in train's seeded
    # shuffles, with one velocity table carried from each into the next
    sp = make_split()
    h = so_params(max_epochs=3, patience=3, lambda_r2=1e-3)
    got, report = train(sp, h, OptimizerKind.sgdm(0.05, 0.6))
    assert report.best_epoch == 3  # so the returned snapshot is the last epoch's
    t = sp.train.base
    want = init_factors(t.num_users, t.num_services, h)
    xu, xs = want.user_factors, want.service_factors
    orders = [np.random.default_rng((h.seed, e)).permutation(len(t)) for e in (1, 2, 3)]
    sgdm_scalar_reference(t.users, t.services, t.values, orders, xu, xs,
                          np.zeros_like(xu), np.zeros_like(xs), 0.05, 0.6, h.lambda_r2)
    np.testing.assert_array_equal(got.user_factors, xu)
    np.testing.assert_array_equal(got.service_factors, xs)


def levels_by_definition(u_seq, s_seq):
    "Each observation's level: one above the last earlier one on its user or its service."
    last_u, last_s, levels = {}, {}, []
    for u, s in zip(u_seq.tolist(), s_seq.tolist()):
        level = max(last_u.get(u, 0), last_s.get(s, 0)) + 1
        last_u[u] = last_s[s] = level
        levels.append(level)
    return np.array(levels, dtype=np.int64)


def top_level_case(top):
    """(u_seq, s_seq, num_users, num_services) whose top level is ``top``:
    user 0 visits ``top`` services of its own in turn, and users 1-4
    share 300 other services, shuffled in among user 0's observations."""
    rng = np.random.default_rng(13)
    cells = rng.choice(4 * 300, size=900, replace=False)
    users = np.concatenate((np.zeros(top, np.int64), 1 + cells // 300))
    services = np.concatenate((np.arange(top), top + cells % 300))
    order = rng.permutation(len(users))
    return users[order], services[order], 5, top + 300


@pytest.mark.parametrize("top, key_dtype", [(70_000, np.int64), (65_535, np.uint16)])
def test_level_schedule_is_the_stable_sort_of_the_levels(monkeypatch, top, key_dtype):
    # the levels are sorted on uint16 up to a top level of 2^16 - 1 and on
    # int64 above; either way the permutation is the int64 stable sort's
    if top == 70_000:  # one user, one service per observation: levels 1...70,000
        u_seq, s_seq, num_users, num_services = np.zeros(top, np.int16), np.arange(top), 1, top
    else:
        u_seq, s_seq, num_users, num_services = top_level_case(top)
    levels = levels_by_definition(u_seq, s_seq)
    assert levels.max() == top
    keys = []
    argsort = np.argsort

    def spy(a, *args, **kwargs):
        keys.append(a.dtype)
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    by_level, sizes = _level_schedule(u_seq, s_seq, num_users, num_services)
    monkeypatch.undo()
    assert keys == [key_dtype]
    np.testing.assert_array_equal(by_level, np.argsort(levels, kind="stable"))
    np.testing.assert_array_equal(sizes, np.bincount(levels)[1:])
    assert len(sizes) == top


def test_sgdm_epoch_peaks_at_most_58_bytes_per_observation():
    # one epoch on a train part of the WS-DREAM shape (339 x 5,825, 10% of
    # a 90% dense matrix: 177,720 observations, int16 ids, f = 20), its
    # shuffled order included. It peaks at 56.4 bytes per observation,
    # while the index run is built; the level pass holds the level list,
    # but no list of the ids. With both ids' lists it peaked at 96.8.
    data, _ = synth_lowrank(339, 5825, 2, 0.9, 0.0, seed=0)
    t = split(data, 0.1, 0.45, seed=0).train.base
    del data
    x = init_factors(t.num_users, t.num_services, Hyperparams(f=20))
    velocity = np.zeros_like(x.table)

    def epoch():
        order = np.random.default_rng(1).permutation(len(t))
        _sgdm_epoch(t.users, t.services, t.values, order, x.table, velocity,
                    t.num_users, 0.001, 0.9, 1e-3)

    _, peak = traced_peak(epoch)
    assert peak <= 58 * len(t), peak / len(t)


# ------------------------------------------------------------- early stopping

def test_patience_stop_semantics():
    sp = make_split()
    h = so_params(max_epochs=200, patience=4, tau=1e-9)
    _, report = train(sp, h)
    assert report.stop_reason == "patience"
    vals = [r.val_rmse for r in report.epochs]
    # best epoch is the first minimum
    assert report.best_epoch == int(np.argmin(vals)) + 1
    # exactly patience non-improving epochs after the best one
    assert len(report.epochs) == report.best_epoch + 4
    best = min(vals)
    assert all(v >= best for v in vals[report.best_epoch:])


def test_max_epochs_stop():
    sp = make_split()
    _, report = train(sp, so_params(max_epochs=3, patience=50))
    assert report.stop_reason == "max_epochs"
    assert [r.epoch for r in report.epochs] == [1, 2, 3]


def test_zero_epochs_returns_init():
    sp = make_split()
    h = so_params(max_epochs=0)
    x, report = train(sp, h)
    assert report.epochs == [] and report.stop_reason == "max_epochs"
    assert report.best_epoch == 0
    t = sp.train.base
    np.testing.assert_array_equal(
        x.user_factors, init_factors(t.num_users, t.num_services, h).user_factors)
    assert report.final_test_rmse == rmse(x, sp.test)


def test_returned_state_is_best_validation_snapshot():
    sp = make_split()
    x, report = train(sp, so_params(max_epochs=40, patience=3))
    vals = [r.val_rmse for r in report.epochs]
    assert rmse(x, sp.validation) == min(vals)
    assert report.final_test_rmse == rmse(x, sp.test)


def test_best_snapshot_keeps_strict_improvements_only():
    a = init_factors(4, 5, so_params(seed=1))
    b = init_factors(4, 5, so_params(seed=7))
    snap = train_mod.BestSnapshot()
    assert snap.consider(1, 0.5, a)
    assert not snap.consider(2, 0.5, b)  # tie keeps the earlier epoch
    assert not snap.consider(3, 0.7, b)
    assert (snap.epoch, snap.val_rmse) == (1, 0.5)
    assert snap.state is not a  # stored copy, immune to in-place updates
    np.testing.assert_array_equal(snap.state.user_factors, a.user_factors)


def test_restore_best_tracks_hand_fed_sequences():
    # hand-fed validation sequences: the snapshot holds the minimum's epoch
    states = {e: init_factors(4, 5, so_params(seed=e)) for e in (1, 2, 3)}
    for vals, best in (([0.9], 1),  # single epoch: the best by definition
                       ([0.9, 0.5, 0.3], 3),  # strictly improving: the last wins
                       ([0.9, 0.5, 0.8], 2)):  # degrades: pinned at the minimum
        snap = train_mod.BestSnapshot()
        for epoch, val in enumerate(vals, 1):
            snap.consider(epoch, val, states[epoch])
        assert snap.epoch == best
        np.testing.assert_array_equal(snap.state.user_factors, states[best].user_factors)


def test_restored_state_revalidates_to_reported_minimum():
    # recompute the validation RMSE of the returned parameters from
    # scratch; it must equal the best epoch's logged value even though
    # training continued past it and degraded
    sp = make_split()
    x, report = train(sp, so_params(max_epochs=40, patience=4))
    vals = [r.val_rmse for r in report.epochs]
    k = report.best_epoch
    assert vals[k - 1] == min(vals)
    assert any(v > vals[k - 1] for v in vals[k:])  # it did degrade after k
    assert rmse(x, sp.validation) == vals[k - 1]


def test_inner_iteration_counts():
    sp = make_split()
    _, r_so = train(sp, so_params(cg_max_iters=7, max_epochs=4, patience=50))
    assert all(1 <= r.inner_iters <= 7 for r in r_so.epochs)
    _, r_sgd = train(sp, so_params(max_epochs=2, patience=50),
                     OptimizerKind.sgdm(0.05, 0.5))
    assert all(r.inner_iters == len(sp.train) for r in r_sgd.epochs)


# ------------------------------------------------------------ zero-step reuse

def counted_solves(monkeypatch):
    "Patch the loop's cg_solve to record each result; returns the list."
    results = []

    def counting(*args, **kwargs):
        results.append(cg_solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(train_mod, "cg_solve", counting)
    return results


def fresh_solve(x, sp, h):
    "One epoch's solve at x, with a new context and gradient."
    return cg_solve(CurvatureContext(x, sp.train, h).damped_hvp,
                    gradient(x, sp.train, h), h.tau, h.cg_max_iters)


@pytest.mark.parametrize("h, iters", [
    (Hyperparams(max_epochs=6, patience=50), 0),  # |g|_inf <= tau
    (Hyperparams(lambda_r1=1.0, tau=0.1, max_epochs=6, patience=50), 10),  # none better
], ids=["no-iteration", "no-better-iterate"])
def test_zero_step_is_solved_once(monkeypatch, h, iters):
    sp = make_split()
    solves = counted_solves(monkeypatch)
    x, report = train(sp, h)
    assert len(solves) == 1 and not solves[0].delta.any()
    first = report.epochs[0]
    assert first.inner_iters == iters
    assert len(report.epochs) == 6
    assert all((r.train_rmse, r.val_rmse, r.inner_iters)
               == (first.train_rmse, first.val_rmse, first.inner_iters)
               for r in report.epochs)
    assert first.inner_iters == solves[0].iterations
    t = sp.train.base
    init = init_factors(t.num_users, t.num_services, h)
    np.testing.assert_array_equal(x.user_factors, init.user_factors)
    np.testing.assert_array_equal(x.service_factors, init.service_factors)
    # the premise of the reuse: a fresh solve at the returned factors is
    # the same zero step after the same iteration count
    again = fresh_solve(x, sp, h)
    assert not again.delta.any() and again.iterations == first.inner_iters


def test_zero_step_after_a_useful_step_is_solved_once(monkeypatch):
    sp = make_split()
    h = Hyperparams(lambda_r1=0.5, tau=1e-3, max_epochs=6, patience=50)
    solves = counted_solves(monkeypatch)
    x, report = train(sp, h)
    assert len(solves) == 2
    assert solves[0].delta.any() and not solves[1].delta.any()
    second = report.epochs[1]
    assert all((r.train_rmse, r.val_rmse, r.inner_iters)
               == (second.train_rmse, second.val_rmse, second.inner_iters)
               for r in report.epochs[1:])
    again = fresh_solve(x, sp, h)
    assert not again.delta.any() and again.iterations == second.inner_iters


@pytest.mark.parametrize("kind", [OptimizerKind.drslf(), OptimizerKind.slf()])
def test_stepping_run_solves_every_epoch(monkeypatch, kind):
    sp = make_split()
    solves = counted_solves(monkeypatch)
    _, report = train(sp, so_params(max_epochs=6, patience=50), kind)
    assert len(report.epochs) == 6 and len(solves) == 6
    assert all(s.delta.any() for s in solves)
    assert [r.inner_iters for r in report.epochs] == [s.iterations for s in solves]


def test_no_epoch_holds_its_solve_into_the_next(monkeypatch):
    # when an epoch builds its context, the last epoch's context, gradient,
    # CG result and step are gone: none is held through the RMSE passes
    refs, live = [], []

    def tracked(fn, *parts):
        "fn, keeping a weakref to its result and to the named fields of it"
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            refs.extend(weakref.ref(o) for o in (out, *(getattr(out, p) for p in parts)))
            return out
        return call

    build = tracked(CurvatureContext)

    def context(*args):
        live.append(sum(ref() is not None for ref in refs))
        return build(*args)

    monkeypatch.setattr(train_mod, "CurvatureContext", context)
    monkeypatch.setattr(train_mod, "gradient", tracked(gradient))
    monkeypatch.setattr(train_mod, "cg_solve", tracked(cg_solve, "delta"))
    train(make_split(), so_params(max_epochs=4, patience=50))
    assert len(refs) == 4 * 4  # a context, gradient, result and step per epoch
    assert live == [0, 0, 0, 0]


# ------------------------------------------------------------------ failures

def test_sgdm_divergence_reports_epoch():
    sp = make_split()
    with pytest.raises(RuntimeError, match="epoch 1"):
        train(sp, so_params(max_epochs=5), OptimizerKind.sgdm(learning_rate=1e6))


def test_sgdm_divergence_emits_no_float_warning():
    # the named divergence error is the only signal: no overflow or
    # invalid-value RuntimeWarning escapes the kernel first
    sp = make_split()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="epoch 1: factors diverged"):
            train(sp, so_params(max_epochs=5), OptimizerKind.sgdm(learning_rate=1e6))


def test_overflowing_residual_sum_is_a_named_failure():
    # values near 1e200 and tau far above |g|_inf: the solve returns
    # delta = 0, the factors stay finite, and the squared residuals overflow
    t, _ = synth_lowrank(30, 40, 2, 0.5, 0.01, 0)
    big = TripleSet(t.num_users, t.num_services, t.users, t.services, t.values * 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError,
                           match=r"^epoch 1: non-finite RMSE \(train=inf, val=inf\)$"):
            train(split(big, 0.6, 0.2, 0), so_params(tau=1e300, max_epochs=2),
                  OptimizerKind.slf())


def test_cg_failure_carries_epoch_index(monkeypatch):
    def boom(*a, **kw):
        raise IndefiniteOperatorError("<p, A p> = -1.0 at iteration 1")

    monkeypatch.setattr(train_mod, "cg_solve", boom)
    sp = make_split()
    with pytest.raises(IndefiniteOperatorError, match=r"epoch 1: <p, A p>"):
        train(sp, so_params())


def test_cg_failure_names_the_epoch_it_happened_in(monkeypatch):
    calls = []

    def third_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise IndefiniteOperatorError("<p, A p> = -1.0 at iteration 1")
        return cg_solve(*args, **kwargs)

    monkeypatch.setattr(train_mod, "cg_solve", third_fails)
    with pytest.raises(IndefiniteOperatorError, match=r"^epoch 3: <p, A p>"):
        train(make_split(), so_params(max_epochs=6, patience=50))


# ----------------------------------------------------------------- recovery

def test_second_order_fits_noiseless_lowrank():
    # noiseless rank-2 completion in the small-init regime: observed
    # values equal the generating factors' inner products exactly, so
    # held-out RMSE measures recovery of the ground truth directly
    t, truth = synth_lowrank(50, 80, rank=2, density=0.3, noise_sigma=0.0, seed=13)
    sp = split(t, 0.7, 0.15, seed=13)
    h = Hyperparams(f=2, lambda_r1=1e-9, lambda_r2=1e-11, gamma=1e-3, tau=1e-13,
                    cg_max_iters=100, max_epochs=100, patience=100, seed=2)
    x, report = train(sp, h)
    assert min(r.train_rmse for r in report.epochs) <= 1e-3
    tt = sp.test.base
    truth_pred = (truth.user_factors[tt.users] * truth.service_factors[tt.services]).sum(axis=1)
    np.testing.assert_array_equal(tt.values, truth_pred)
    assert report.final_test_rmse <= 1e-3
    # genuinely better than predicting all zeros (about 9.6e-4 here)
    zero_rmse = float(np.sqrt((tt.values ** 2).mean()))
    assert report.final_test_rmse < 0.5 * zero_rmse


# ----------------------------------------------------------------- reporting

def test_csv_shape_and_determinism():
    sp = make_split()
    h = so_params(max_epochs=6, patience=50)
    _, r1 = train(sp, h)
    _, r2 = train(sp, h)
    text = r1.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,train_rmse,val_rmse,inner_iters,wall_ms"
    assert len(lines) == 1 + 6 + 1  # header, epochs, summary
    assert lines[-1].startswith("# final_test_rmse=")
    # wall time is zeroed for reproducible bytes unless asked for
    assert all(line.endswith(",0") for line in lines[1:-1])
    assert text == r2.to_csv()
    timed = r1.to_csv(include_timing=True)
    assert timed != text or all(r.wall_ms < 0.5 for r in r1.epochs)


def test_csv_summary_reflects_report():
    rep = TrainReport(epochs=[EpochRecord(1, 0.5, 0.6, 3, 12.0)],
                      final_test_rmse=0.55, best_epoch=1, stop_reason="max_epochs")
    s = rep.summary()
    assert "final_test_rmse=0.55" in s
    assert "best_epoch=1" in s and "stop_reason=max_epochs" in s
