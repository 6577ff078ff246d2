"""Acceptance suite: nine go/no-go checks at fixed tolerances.

Each check prints exactly one verdict line ("criterion N: PASS/FAIL")
so the whole gate can be read off a `pytest -s` run. Checks 1-5 verify
the numerical core against independent oracles, 6-8 verify training
behaviour end to end, and 9 reproduces the reference response-time
benchmark results when the public 339 x 5825 matrix is available locally.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from sofactor.bench import run_benchmark
from sofactor.cg import cg_solve
from sofactor.cli import main
from sofactor.curvature import CurvatureContext
from sofactor.data import (
    TripleSet,
    build_index,
    load_dense_matrix,
    split,
    synth_lowrank,
    write_triples,
)
from sofactor.model import (
    FactorState,
    Hyperparams,
    gradient,
    init_factors,
    objective,
    rmse,
)
from sofactor.train import OptimizerKind, train

from oracles import dense_gn_oracle


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_instance(rng, lo=0.2, hi=1.2):
    """Random problem with |U|,|S| <= 8, f <= 3, factors away from zero
    (finite differences of sqrt(x^2+eps) need distance from the kink
    when eps is tiny; x = 0 behaviour is covered closed-form in
    criterion 3)."""
    nu = int(rng.integers(1, 9))
    ns = int(rng.integers(1, 9))
    f = int(rng.integers(1, 4))
    cells = rng.permutation(nu * ns)[: int(rng.integers(1, nu * ns + 1))]
    t = TripleSet(nu, ns, cells // ns, cells % ns, rng.uniform(0, 3, len(cells)))
    x = FactorState(f=f, user_factors=rng.uniform(lo, hi, (nu, f)),
                    service_factors=rng.uniform(lo, hi, (ns, f)))
    return build_index(t), x


def test_criterion_1_hvp_matches_dense_oracle():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        d, x = random_instance(rng)
        ctx = CurvatureContext(x, d, Hyperparams(f=x.f))
        g = dense_gn_oracle(x, d)
        v = rng.standard_normal(x.dim)
        err = float(np.abs(ctx.gn_hvp(v) - g @ v).max())
        bound = 1e-10 * (1 + float(np.abs(v).max()))
        worst = max(worst, err / bound)
        if err > bound:
            break
    verdict(1, worst <= 1.0,
            f"1000 random instances, worst error = {worst:.3g} of the 1e-10 bound")


def test_criterion_2_gradient_matches_finite_differences():
    rng = np.random.default_rng(103)
    step = 1e-5
    checked = 0
    worst = 0.0
    for lambda_r1 in (0.0, 0.05):
        for lambda_r2 in (0.0, 1e-4):
            for epsilon in (1e-8, 1.0):
                for _ in range(13):
                    d, x = random_instance(rng)
                    h = Hyperparams(f=x.f, lambda_r1=lambda_r1,
                                    lambda_r2=lambda_r2, epsilon=epsilon)
                    g = gradient(x, d, h)
                    base = x.as_vector()
                    fd = np.zeros_like(base)
                    for i in range(len(base)):
                        vp, vm = base.copy(), base.copy()
                        vp[i] += step
                        vm[i] -= step
                        fd[i] = (objective(FactorState.from_vector(
                                     x.num_users, x.num_services, x.f, vp), d, h)
                                 - objective(FactorState.from_vector(
                                     x.num_users, x.num_services, x.f, vm), d, h)) / (2 * step)
                    rel = float(np.abs(g - fd).max()) / (1 + float(np.abs(fd).max()))
                    worst = max(worst, rel)
                    checked += 1
    verdict(2, checked >= 100 and worst <= 1e-6,
            f"{checked} instances over the penalty sweep, worst rel err = {worst:.3g}")


def test_criterion_3_regularizer_curvature():
    from sofactor.model import l1_gradient, l2_gradient

    rng = np.random.default_rng(107)
    step = 1e-6
    worst = 0.0
    for _ in range(40):
        d, x = random_instance(rng)
        h = Hyperparams(f=x.f, lambda_r1=0.2, lambda_r2=5e-3,
                        epsilon=float(rng.choice([1.0, 0.1])))
        ctx = CurvatureContext(x, d, h)
        v = rng.standard_normal(x.dim)
        base = x.as_vector()

        def state(vec):
            return FactorState.from_vector(x.num_users, x.num_services, x.f, vec)

        for hvp, grad_fn in ((ctx.reg_l1_hvp, l1_gradient), (ctx.reg_l2_hvp, l2_gradient)):
            fd = (grad_fn(state(base + step * v), d, h)
                  - grad_fn(state(base - step * v), d, h)) / (2 * step)
            rel = float(np.abs(hvp(v) - fd).max()) / (1 + float(np.abs(fd).max()))
            worst = max(worst, rel)

    # closed form at the origin: with eps = 1 the smooth L1 curvature
    # coefficient is exactly lambda_r1 * |K_u|
    t = TripleSet(1, 2, np.array([0, 0]), np.array([0, 1]), np.array([1.0, 2.0]))
    d0 = build_index(t)
    x0 = FactorState(f=1, user_factors=np.zeros((1, 1)), service_factors=np.zeros((2, 1)))
    ctx0 = CurvatureContext(x0, d0, Hyperparams(f=1, lambda_r1=0.25, epsilon=1.0))
    spot = ctx0.reg_l1_hvp(np.ones(3))
    exact = spot[0] == 0.25 * 2 and spot[1] == 0.25 and spot[2] == 0.25
    verdict(3, worst <= 1e-5 and exact,
            f"worst FD rel err = {worst:.3g}; x=0 closed form exact = {exact}")


def test_criterion_4_operator_symmetry_and_positivity():
    rng = np.random.default_rng(109)
    worst_sym = 0.0
    min_margin = float("inf")
    for _ in range(100):
        d, x = random_instance(rng)
        h = Hyperparams(f=x.f, lambda_r1=0.05, lambda_r2=1e-4, gamma=20.0)
        ctx = CurvatureContext(x, d, h)
        v, w = rng.standard_normal((2, x.dim))
        a = float(v @ ctx.damped_hvp(w))
        b = float(ctx.damped_hvp(v) @ w)
        worst_sym = max(worst_sym, abs(a - b) / (1 + max(abs(a), abs(b))))
        quad = float(v @ ctx.damped_hvp(v))
        min_margin = min(min_margin, quad - (20.0 - 1e-12) * float(v @ v))
    verdict(4, worst_sym <= 1e-10 and min_margin >= 0,
            f"100 instances, worst symmetry defect = {worst_sym:.3g}, "
            f"min positivity margin = {min_margin:.3g}")


def test_criterion_5_cg_contract():
    rng = np.random.default_rng(113)
    ok = True
    for _ in range(30):
        n = int(rng.integers(2, 51))
        m = rng.standard_normal((n, n))
        a = m @ m.T + n * np.eye(n)
        g = rng.standard_normal(n) * 5
        res = cg_solve(lambda p: a @ p, g, tau=1e-8, max_iters=n)
        ok = ok and res.converged and res.final_residual_inf <= 1e-8
        ok = ok and res.iterations <= n
    hand = cg_solve(lambda p: np.diag([2.0, 4.0]) @ p, np.array([2.0, 4.0]),
                    tau=1e-12, max_iters=10)
    hand_ok = bool(np.abs(hand.delta - [-1.0, -1.0]).max() <= 1e-12)
    verdict(5, ok and hand_ok,
            f"30 SPD systems (n<=50) converged within n iterations; "
            f"diag(2,4) solution error = {np.abs(hand.delta - [-1.0, -1.0]).max():.2g}")


def test_criterion_6_synthetic_recovery():
    h = Hyperparams(f=3, lambda_r1=1e-7, lambda_r2=1e-9, gamma=1e-2, tau=1e-12,
                    cg_max_iters=200, max_epochs=100, patience=100, seed=0)
    noisy, _ = synth_lowrank(100, 200, 3, 0.2, 0.01, seed=0)
    _, rep_noisy = train(split(noisy, 0.7, 0.15, seed=0), h)
    clean, _ = synth_lowrank(100, 200, 3, 0.2, 0.0, seed=0)
    _, rep_clean = train(split(clean, 0.7, 0.15, seed=0), h)
    heldout = rep_noisy.final_test_rmse
    best_train = min(r.train_rmse for r in rep_clean.epochs)
    verdict(6, heldout <= 0.05 and best_train <= 1e-3,
            f"noisy held-out rmse = {heldout:.4f} (<= 0.05), "
            f"noiseless train rmse = {best_train:.2e} (<= 1e-3), "
            f"within {max(len(rep_noisy.epochs), len(rep_clean.epochs))} epochs")


def test_criterion_7_baseline_equivalences():
    t, _ = synth_lowrank(25, 30, rank=2, density=0.4, noise_sigma=0.02,
                         seed=5, init_lo=0.2, init_hi=1.0)
    sp = split(t, 0.6, 0.2, seed=5)

    h2 = Hyperparams(f=2, lambda_r1=0.0, lambda_r2=1e-4, gamma=1.0, tau=1e-6,
                     cg_max_iters=20, max_epochs=12, patience=12,
                     init_lo=0.2, init_hi=1.0, seed=8)
    xa, ra = train(sp, h2, OptimizerKind("DRSLF"))
    xb, rb = train(sp, h2, OptimizerKind("SLF"))
    trace = lambda r: [(e.train_rmse, e.val_rmse) for e in r.epochs]
    slf_same = (trace(ra) == trace(rb)
                and np.array_equal(xa.user_factors, xb.user_factors)
                and np.array_equal(xa.service_factors, xb.service_factors))

    # momentum-free SGDM against an independently written plain SGD loop
    h1 = Hyperparams(f=2, lambda_r2=1e-3, max_epochs=4, patience=4,
                     init_lo=0.2, init_hi=1.0, seed=8)
    lr = 0.05
    _, rc = train(sp, h1, OptimizerKind("SGDM", learning_rate=lr, momentum=0.0))
    tr = sp.train.base
    ref = init_factors(tr.num_users, tr.num_services, h1)
    xu, xs = ref.user_factors, ref.service_factors
    ref_trace = []
    for epoch in range(1, 5):
        order = np.random.default_rng((h1.seed, epoch)).permutation(len(tr))
        for k in order:
            u, s = tr.users[k], tr.services[k]
            err = tr.values[k]
            for dd in range(2):
                err -= xu[u, dd] * xs[s, dd]
            for dd in range(2):
                gu = -err * xs[s, dd] + h1.lambda_r2 * xu[u, dd]
                gs = -err * xu[u, dd] + h1.lambda_r2 * xs[s, dd]
                xu[u, dd] += -lr * gu
                xs[s, dd] += -lr * gs
        ref_trace.append((rmse(ref, sp.train), rmse(ref, sp.validation)))
    sgd_same = trace(rc) == ref_trace
    verdict(7, slf_same and sgd_same,
            f"SLF == DRSLF(lambda_r1=0) identical traces: {slf_same}; "
            f"SGDM(momentum=0) == plain SGD identical traces: {sgd_same}")


def test_criterion_8_byte_identical_reports(tmp_path):
    data = tmp_path / "synth.txt"
    t, _ = synth_lowrank(20, 24, rank=2, density=0.5, noise_sigma=0.05,
                         seed=0, init_lo=0.2, init_hi=1.0)
    write_triples(data, t)
    fast = ["--f", "2", "--tau", "1e-6", "--max-epochs", "3", "--patience", "3",
            "--init-lo", "0.2", "--init-hi", "1.0",
            "--train-frac", "0.6", "--val-frac", "0.2", "--seed", "11"]
    outputs = []
    for name, argv in [
        ("train", ["train", "--data", str(data), *fast, "--model", "m3"]),
        ("grid", ["grid", "--data", str(data), *fast, "--model", "m2",
                  "--lambda-r2-values", "1e-5,1e-4", "--gamma-values", "0.5"]),
        ("bench", ["bench", "--data", str(data), "--datasets", "tiny:0.6:0.2",
                   "--models", "m1,m3", "--seeds", "0,1", "--f", "2",
                   "--tau", "1e-6", "--max-epochs", "3",
                   "--init-lo", "0.2", "--init-hi", "1.0"]),
    ]:
        pair = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}.{run}.csv"
            assert main(argv + ["--out", str(out)]) == 0
            pair.append(out.read_bytes())
        outputs.append((name, pair[0] == pair[1]))
    all_same = all(same for _, same in outputs)
    verdict(8, all_same,
            "repeated runs byte-identical for " +
            ", ".join(f"{name}={same}" for name, same in outputs))


# --------------------------------------------------------------------------
# criterion 9: response-time benchmark reproduction (needs the public
# 339 x 5825 matrix; place it as rtMatrix.txt under $SOFACTOR_DATA_DIR,
# ./data/ or the working directory)

TABLE_RMSE = {  # dataset -> model -> reference mean test RMSE
    "d1": {"SGDM": 1.37776, "SLF": 1.37762, "DRSLF": 1.37029},
    "d2": {"SGDM": 1.29838, "SLF": 1.29363, "DRSLF": 1.28743},
}
CONFIGS = [("d1", 0.10, 0.45), ("d2", 0.20, 0.40)]

# one setting for all three models: SGDM reads neither lambda_r1 nor
# gamma, and train runs SLF at lambda_r1 = 0
REFERENCE_H = Hyperparams(f=20, lambda_r1=0.01, lambda_r2=1e-5, gamma=100.0)


def find_response_time_matrix():
    names = ("rtMatrix.txt", "rt_matrix.txt")
    roots = [os.environ.get("SOFACTOR_DATA_DIR", ""), "data", "."]
    for root in roots:
        for name in names:
            p = Path(root or ".") / name
            if p.is_file():
                return p
    return None


def test_criterion_9_reference_benchmark_reproduction():
    path = find_response_time_matrix()
    if path is None:
        print("criterion 9: SKIP - response-time matrix not found "
              "(set SOFACTOR_DATA_DIR or drop rtMatrix.txt in ./data)")
        pytest.skip("response-time matrix not available")
    data = load_dense_matrix(path)
    assert (data.num_users, data.num_services) == (339, 5825), \
        f"unexpected matrix shape {data.num_users} x {data.num_services}"
    models = [OptimizerKind("SGDM", 0.01, 0.9), OptimizerKind("SLF"), OptimizerKind("DRSLF")]
    table = run_benchmark(data, CONFIGS, [0, 1, 2, 3, 4], models, REFERENCE_H)
    ok = True
    details = []
    means = {}
    for row in table.rows:
        want = TABLE_RMSE[row.dataset][row.model]
        close = abs(row.mean_rmse - want) <= 0.03
        ok = ok and close
        means[(row.dataset, row.model)] = row.mean_rmse
        details.append(f"{row.dataset}/{row.model}={row.mean_rmse:.5f} (ref {want})")
        ok = ok and row.mean_best_epoch + 10 <= 60  # early stop within 60 epochs
    for ds in ("d1", "d2"):
        ordered = means[(ds, "DRSLF")] <= means[(ds, "SLF")] <= means[(ds, "SGDM")]
        ok = ok and ordered
        details.append(f"{ds} ordering M3<=M2<=M1: {ordered}")
    verdict(9, ok, "; ".join(details))
