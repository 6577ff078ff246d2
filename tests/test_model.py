"""Objective, gradient, prediction, and serialization tests.

The gradient is checked against central finite differences of the
objective; the objective itself against a hand-expanded single
observation and a brute-force python evaluation.
"""

import math
import re

import numpy as np
import pytest

from sofactor import model as model_mod, sddmm
from sofactor.data import TripleSet, build_index, synth_lowrank
from sofactor.model import (
    FactorState,
    Hyperparams,
    data_gradient,
    gradient,
    init_factors,
    jacobian_transpose_vector,
    l1_curvature,
    l1_gradient,
    l2_gradient,
    load_factors,
    loss_data,
    objective,
    predict_observed,
    residuals,
    rmse,
    save_factors,
)

from oracles import grouping_order, predict


def random_problem(rng, max_dim=8, max_f=3, lo=0.2, hi=1.2):
    """Small random instance with factors bounded away from zero.

    The offset keeps sqrt(x^2 + eps) smooth enough for finite
    differences even at eps = 1e-8; behaviour at x = 0 is covered by
    closed-form checks instead.
    """
    nu = int(rng.integers(1, max_dim + 1))
    ns = int(rng.integers(1, max_dim + 1))
    f = int(rng.integers(1, max_f + 1))
    cells = rng.permutation(nu * ns)[: int(rng.integers(1, nu * ns + 1))]
    t = TripleSet(nu, ns, cells // ns, cells % ns, rng.uniform(0, 3, len(cells)))
    x = FactorState(f=f, user_factors=rng.uniform(lo, hi, (nu, f)),
                    service_factors=rng.uniform(lo, hi, (ns, f)))
    return build_index(t), x


def fd_gradient(x, d, h, step=1e-5):
    v = x.as_vector()
    out = np.zeros_like(v)
    for i in range(len(v)):
        vp, vm = v.copy(), v.copy()
        vp[i] += step
        vm[i] -= step
        xp = FactorState.from_vector(x.num_users, x.num_services, x.f, vp)
        xm = FactorState.from_vector(x.num_users, x.num_services, x.f, vm)
        out[i] = (objective(xp, d, h) - objective(xm, d, h)) / (2 * step)
    return out


# ----------------------------------------------------------- hyperparams

@pytest.mark.parametrize("kw", [
    dict(f=0), dict(lambda_r1=-0.1), dict(lambda_r2=-1e-9), dict(epsilon=0.0),
    dict(epsilon=-1.0), dict(gamma=-0.5), dict(tau=0.0), dict(cg_max_iters=0),
    dict(max_epochs=-1), dict(patience=0), dict(init_lo=0.5, init_hi=0.5),
])
def test_hyperparams_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        Hyperparams(**kw)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["lambda_r1", "lambda_r2", "epsilon", "gamma", "tau",
                                  "init_lo", "init_hi"])
def test_hyperparams_rejects_non_finite_floats(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        Hyperparams(**{name: value})


@pytest.mark.parametrize("value", [2.5, 3.0, np.float64(2.0), True, np.bool_(True), "3"])
@pytest.mark.parametrize("name", ["f", "cg_max_iters", "max_epochs", "patience", "seed"])
def test_hyperparams_rejects_integer_fields_that_are_not_integers(name, value):
    # a float cg_max_iters never equals the iteration count, so the cap
    # would never apply; a float f, max_epochs or seed fails inside train
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        Hyperparams(**{name: value})


def test_hyperparams_takes_numpy_integers():
    h = Hyperparams(f=np.int32(3), cg_max_iters=np.int64(2), max_epochs=np.uint8(1),
                    patience=np.int16(4), seed=np.int64(7))
    assert (h.f, h.cg_max_iters, h.max_epochs, h.patience, h.seed) == (3, 2, 1, 4, 7)


def test_hyperparams_defaults_are_valid():
    h = Hyperparams()
    assert h.f == 20 and h.tau == 10.0 and h.cg_max_iters == 10
    assert (h.init_lo, h.init_hi) == (0.0, 0.04)


# ----------------------------------------------------------- factor state

def test_factor_state_vector_roundtrip():
    rng = np.random.default_rng(0)
    x = FactorState(f=3, user_factors=rng.standard_normal((4, 3)),
                    service_factors=rng.standard_normal((5, 3)))
    assert x.dim == 27
    y = FactorState.from_vector(4, 5, 3, x.as_vector())
    assert np.array_equal(y.user_factors, x.user_factors)
    assert np.array_equal(y.service_factors, x.service_factors)


def test_factor_state_add_vector():
    x = FactorState(f=1, user_factors=np.array([[1.0], [2.0]]),
                    service_factors=np.array([[3.0]]))
    x.add_vector(np.array([0.5, -0.5, 10.0]))
    assert x.user_factors.tolist() == [[1.5], [1.5]]
    assert x.service_factors.tolist() == [[13.0]]
    with pytest.raises(ValueError, match="expected"):
        x.add_vector(np.zeros(4))


def test_factor_state_sides_are_views_of_one_table():
    x = FactorState(f=2, user_factors=np.ones((2, 2)), service_factors=np.full((3, 2), 2.0))
    assert x.table.shape == (5, 2) and x.table.flags.c_contiguous
    assert np.shares_memory(x.user_factors, x.table)
    assert np.shares_memory(x.service_factors, x.table)
    x.add_vector(np.arange(10.0))
    assert x.user_factors.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert x.service_factors.tolist() == [[6.0, 7.0], [8.0, 9.0], [10.0, 11.0]]
    np.testing.assert_array_equal(x.table, np.vstack([x.user_factors, x.service_factors]))


def test_factor_state_copies_are_independent():
    x = FactorState(f=1, user_factors=np.array([[1.0]]), service_factors=np.array([[2.0]]))
    y = x.copy()
    y.add_vector(np.array([10.0, 10.0]))
    assert x.table.tolist() == [[1.0], [2.0]]
    x.user_factors[0, 0] = 5.0
    assert y.table.tolist() == [[11.0], [12.0]]
    v = x.as_vector()
    v[:] = 0.0
    assert x.table.tolist() == [[5.0], [2.0]]


def test_factor_state_as_table():
    x = FactorState(f=2, user_factors=np.zeros((1, 2)), service_factors=np.zeros((2, 2)))
    v = np.arange(6.0)
    np.testing.assert_array_equal(x.as_table(v), v.reshape(3, 2))
    for bad in (np.zeros(5), np.zeros(7), np.zeros((3, 2))):
        with pytest.raises(ValueError, match="expected"):
            x.as_table(bad)


def test_factor_state_rejects_bad_shapes_and_nan():
    with pytest.raises(ValueError):
        FactorState(f=2, user_factors=np.zeros((3, 3)), service_factors=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="factor matrices must be 2-d"):
        FactorState(f=2, user_factors=np.zeros(2), service_factors=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        FactorState(f=1, user_factors=np.array([[np.nan]]), service_factors=np.zeros((1, 1)))


def test_init_factors_deterministic_in_range():
    h = Hyperparams(f=4, seed=42, init_lo=0.1, init_hi=0.3)
    a = init_factors(6, 7, h)
    b = init_factors(6, 7, h)
    c = init_factors(6, 7, Hyperparams(f=4, seed=43, init_lo=0.1, init_hi=0.3))
    assert np.array_equal(a.user_factors, b.user_factors)
    assert np.array_equal(a.service_factors, b.service_factors)
    assert not np.array_equal(a.user_factors, c.user_factors)
    for m in (a.user_factors, a.service_factors):
        assert m.min() >= 0.1 and m.max() < 0.3
    # draw order is pinned: users first, then services, one generator
    rng = np.random.default_rng(42)
    np.testing.assert_array_equal(a.user_factors, rng.uniform(0.1, 0.3, (6, 4)))
    np.testing.assert_array_equal(a.service_factors, rng.uniform(0.1, 0.3, (7, 4)))


# ------------------------------------------------------------- predict

def test_predict_matches_inner_product_and_bounds():
    rng = np.random.default_rng(1)
    x = FactorState(f=3, user_factors=rng.standard_normal((2, 3)),
                    service_factors=rng.standard_normal((4, 3)))
    want = sum(x.user_factors[1, d] * x.service_factors[2, d] for d in range(3))
    assert predict(x, 1, 2) == pytest.approx(want, rel=1e-15)
    for u, s in [(-1, 0), (2, 0), (0, -1), (0, 4)]:
        with pytest.raises(IndexError):
            predict(x, u, s)


def test_predict_hand_values():
    x = FactorState(f=2, user_factors=np.array([[1.0, 2.0], [0.0, 0.0]]),
                    service_factors=np.array([[3.0, 4.0]]))
    assert predict(x, 0, 0) == 11.0  # 1*3 + 2*4
    assert predict(x, 1, 0) == 0.0   # zero user row kills any service row


def test_predict_observed_matches_scalar_predict():
    rng = np.random.default_rng(2)
    d, x = random_problem(rng)
    got = predict_observed(x, d.base)
    want = [predict(x, int(u), int(s)) for u, s in zip(d.base.users, d.base.services)]
    np.testing.assert_allclose(got, want, rtol=1e-14)


# ------------------------------------------------------- objective parts

def test_objective_single_observation_hand_expanded():
    # one known cell, f=1, xu=1, xs=1, q=0:
    #   data:  1/2 (0 - 1)^2          = 0.5
    #   L1:    0.1 (sqrt(1+eps) * 2)  = 0.2 sqrt(1+1e-8)
    #   L2:    0.01/2 * (1 + 1)       = 0.01
    t = TripleSet(1, 1, np.array([0]), np.array([0]), np.array([0.0]))
    d = build_index(t)
    x = FactorState(f=1, user_factors=np.array([[1.0]]), service_factors=np.array([[1.0]]))
    h = Hyperparams(f=1, lambda_r1=0.1, lambda_r2=0.01, epsilon=1e-8)
    want = 0.5 + 0.2 * math.sqrt(1 + 1e-8) + 0.01
    assert objective(x, d, h) == pytest.approx(want, rel=1e-15)
    assert loss_data(x, d) == pytest.approx(0.5, rel=1e-15)


def test_loss_data_hand_values():
    x = FactorState(f=1, user_factors=np.array([[1.0]]), service_factors=np.array([[1.0]]))
    empty = build_index(TripleSet(1, 1, np.array([], int), np.array([], int), np.array([])))
    assert loss_data(x, empty) == 0.0
    exact = build_index(TripleSet(1, 1, np.array([0]), np.array([0]), np.array([1.0])))
    assert loss_data(x, exact) == 0.0
    off = build_index(TripleSet(1, 1, np.array([0]), np.array([0]), np.array([2.0])))
    assert loss_data(x, off) == 0.5  # 1/2 (2 - 1)^2


def test_objective_at_origin_is_data_plus_smooth_l1_floor():
    # X = 0: data term is 1/2 q^2, L2 vanishes, L1 leaves 2 f sqrt(eps)
    t = TripleSet(1, 1, np.array([0]), np.array([0]), np.array([3.0]))
    d = build_index(t)
    x = FactorState(f=1, user_factors=np.zeros((1, 1)), service_factors=np.zeros((1, 1)))
    h = Hyperparams(f=1, lambda_r1=0.1, lambda_r2=0.7, epsilon=1e-8)
    want = 0.5 * 9.0 + 0.2 * math.sqrt(1e-8)
    assert objective(x, d, h) == pytest.approx(want, rel=1e-15)


def test_objective_matches_bruteforce_python():
    rng = np.random.default_rng(7)
    d, x = random_problem(rng)
    h = Hyperparams(f=x.f, lambda_r1=0.03, lambda_r2=2e-3, epsilon=0.5)
    t = d.base
    total = 0.0
    for u, s, q in zip(t.users, t.services, t.values):
        yhat = float(x.user_factors[u] @ x.service_factors[s])
        total += 0.5 * (q - yhat) ** 2
        for dd in range(x.f):
            total += h.lambda_r1 * (math.sqrt(x.user_factors[u, dd] ** 2 + h.epsilon)
                                    + math.sqrt(x.service_factors[s, dd] ** 2 + h.epsilon))
            total += 0.5 * h.lambda_r2 * (x.user_factors[u, dd] ** 2
                                          + x.service_factors[s, dd] ** 2)
    assert objective(x, d, h) == pytest.approx(total, rel=1e-12)


def test_rmse_identity_with_data_loss():
    rng = np.random.default_rng(9)
    d, x = random_problem(rng)
    # rmse^2 * |K| == 2 * loss_data, always
    assert rmse(x, d) ** 2 * len(d) == pytest.approx(2 * loss_data(x, d), rel=1e-12)


def test_residuals_rmse_and_loss_keep_their_formulas_and_the_values():
    rng = np.random.default_rng(13)
    d, x = random_problem(rng)
    t = d.base
    values = t.values.copy()
    r = t.values - predict_observed(x, t)
    assert residuals(x, t).tobytes() == r.tobytes()
    assert rmse(x, d) == math.sqrt(sddmm.dot(r, r) / len(d))
    assert loss_data(x, d) == 0.5 * sddmm.dot(r, r)
    assert t.values.tobytes() == values.tobytes()


def test_rmse_empty_set_rejected():
    t = TripleSet(2, 2, np.array([], int), np.array([], int), np.array([]))
    x = FactorState(f=1, user_factors=np.zeros((2, 1)), service_factors=np.zeros((2, 1)))
    with pytest.raises(ValueError, match="empty"):
        rmse(x, build_index(t))


# -------------------------------------------------------------- gradient

@pytest.mark.parametrize("lambda_r1", [0.0, 0.05])
@pytest.mark.parametrize("lambda_r2", [0.0, 1e-4])
@pytest.mark.parametrize("epsilon", [1e-8, 1.0])
def test_gradient_matches_finite_differences(lambda_r1, lambda_r2, epsilon):
    rng = np.random.default_rng(17)
    for _ in range(4):
        d, x = random_problem(rng, max_dim=5, max_f=2)
        h = Hyperparams(f=x.f, lambda_r1=lambda_r1, lambda_r2=lambda_r2, epsilon=epsilon)
        g = gradient(x, d, h)
        fd = fd_gradient(x, d, h)
        assert np.abs(g - fd).max() <= 1e-6 * (1 + np.abs(fd).max())


def test_gradient_component_split():
    rng = np.random.default_rng(23)
    d, x = random_problem(rng)
    h = Hyperparams(f=x.f, lambda_r1=0.07, lambda_r2=3e-3, epsilon=0.1)
    total = gradient(x, d, h)
    parts = data_gradient(x, d) + l1_gradient(x, d, h) + l2_gradient(x, d, h)
    np.testing.assert_array_equal(total, parts)
    h0 = Hyperparams(f=x.f, lambda_r1=0.0, lambda_r2=0.0)
    np.testing.assert_array_equal(gradient(x, d, h0), data_gradient(x, d))


def large_problem(rng, f=3):
    "Train set of 3 * MIN_SPAN: every observation pass splits, in three at three workers."
    nu, ns, n = 3000, 700, 3 * sddmm.MIN_SPAN
    cells = rng.choice(nu * ns, size=n, replace=False)
    t = TripleSet(nu, ns, cells // ns, cells % ns, rng.uniform(0, 3, n))
    x = FactorState(f=f, user_factors=rng.uniform(-1, 1, (nu, f)),
                    service_factors=rng.uniform(-1, 1, (ns, f)))
    return build_index(t), x


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_jacobian_transpose_vector_is_the_two_sums_stacked(workers, monkeypatch):
    rng = np.random.default_rng(41)
    d, x = large_problem(rng)
    w = rng.standard_normal(len(d))
    want = np.concatenate((d.user_weighted_sums(w, x.service_factors),
                           d.service_weighted_sums(w, x.user_factors))).ravel()
    monkeypatch.setattr(sddmm, "WORKERS", workers)
    assert jacobian_transpose_vector(x, d, w).tobytes() == want.tobytes()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_data_gradient_at_exact_fit_passes_negative_zeros(workers, monkeypatch):
    # q - yhat is +0.0 at an exact fit, so -(q - yhat) is -0.0 everywhere;
    # yhat - q would give +0.0
    rng = np.random.default_rng(43)
    d, x = large_problem(rng)
    t = d.base
    d = build_index(TripleSet(t.num_users, t.num_services, t.users, t.services,
                              predict_observed(x, t)))
    monkeypatch.setattr(sddmm, "WORKERS", workers)
    passed = []

    def spy(x, d, w):
        passed.append(w.copy())
        return jacobian_transpose_vector(x, d, w)

    monkeypatch.setattr(model_mod, "jacobian_transpose_vector", spy)
    got = data_gradient(x, d)
    user_major = grouping_order(d.base.users)
    yhat = predict_observed(x, d.base)[user_major]
    want_w = -(d.base.values[user_major] - yhat)
    assert np.signbit(want_w).all() and not want_w.any()
    assert passed[0].tobytes() == want_w.tobytes()
    assert got.tobytes() == jacobian_transpose_vector(x, d, want_w).tobytes()


def test_gradient_hand_values():
    t = TripleSet(1, 1, np.array([0]), np.array([0]), np.array([2.0]))
    d = build_index(t)
    # origin is a stationary point: data term carries zero factors and
    # both regularizer slopes vanish at x = 0
    x0 = FactorState(f=1, user_factors=np.zeros((1, 1)), service_factors=np.zeros((1, 1)))
    h = Hyperparams(f=1, lambda_r1=0.1, lambda_r2=0.3)
    np.testing.assert_array_equal(gradient(x0, d, h), np.zeros(2))
    # q=2 predicted as 1 with unit factors and no regularization: -(q - yhat) x
    x1 = FactorState(f=1, user_factors=np.ones((1, 1)), service_factors=np.ones((1, 1)))
    h0 = Hyperparams(f=1, lambda_r1=0.0, lambda_r2=0.0)
    np.testing.assert_array_equal(gradient(x1, d, h0), [-1.0, -1.0])


def test_l1_gradient_closed_form_and_zero_point():
    # at x = 0 the smooth L1 slope x/sqrt(x^2+eps) is exactly zero
    t = TripleSet(1, 2, np.array([0, 0]), np.array([0, 1]), np.array([1.0, 2.0]))
    d = build_index(t)
    x = FactorState(f=1, user_factors=np.zeros((1, 1)), service_factors=np.zeros((2, 1)))
    h = Hyperparams(f=1, lambda_r1=0.3, epsilon=1.0)
    np.testing.assert_array_equal(l1_gradient(x, d, h), np.zeros(3))
    # generic point: lambda_r1 * |K_u| * x / sqrt(x^2 + eps), |K_u| = 2
    x2 = FactorState(f=1, user_factors=np.array([[0.6]]), service_factors=np.zeros((2, 1)))
    want = 0.3 * 2 * 0.6 / math.sqrt(0.36 + 1.0)
    assert l1_gradient(x2, d, h)[0] == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("epsilon", [1e-8, 0.7])
def test_l1_curvature_is_its_formula_bit_for_bit(epsilon):
    # lambda_r1 * |K_e| * eps / (s * sqrt(s)), s = x * x + eps, each
    # operation correctly rounded, so a scalar loop in Python floats gives
    # the same bits whatever SIMD loops numpy picks; x spans zeros of
    # either sign, tiny and large entries
    rng = np.random.default_rng(23)
    d, _ = random_problem(rng, max_dim=12)
    f = 3
    nu, ns = d.base.num_users, d.base.num_services
    table = rng.standard_normal((nu + ns, f)) * 10.0 ** rng.integers(-6, 3, (nu + ns, f))
    table[0, 0], table[-1, -1] = 0.0, -0.0
    x = FactorState(f=f, user_factors=table[:nu], service_factors=table[nu:])
    h = Hyperparams(f=f, lambda_r1=0.05, epsilon=epsilon)
    counts = np.concatenate((d.by_user.counts, d.by_service.counts))
    want = np.empty_like(table)
    for e, row in enumerate(x.table):
        for j, v in enumerate(row.tolist()):
            s = v * v + epsilon
            want[e, j] = 0.05 * int(counts[e]) * epsilon / (s * math.sqrt(s))
    got = l1_curvature(x, d, h)
    assert got.shape == x.table.shape and got.tobytes() == want.tobytes()
    np.testing.assert_allclose(got, 0.05 * counts[:, None] * epsilon
                               / np.power(x.table ** 2 + epsilon, 1.5), rtol=1e-15)


def test_instance_frequency_weighting_in_l2():
    # user 0 observed 3 times, user 1 once: penalties scale with counts
    t = TripleSet(2, 3,
                  np.array([0, 0, 0, 1]),
                  np.array([0, 1, 2, 0]),
                  np.ones(4))
    d = build_index(t)
    x = FactorState(f=1, user_factors=np.array([[1.0], [1.0]]),
                    service_factors=np.zeros((3, 1)))
    h = Hyperparams(f=1, lambda_r2=0.1)
    g = l2_gradient(x, d, h)
    assert g[0] == pytest.approx(0.1 * 3)
    assert g[1] == pytest.approx(0.1 * 1)


# ---------------------------------------------------------- serialization

def test_save_load_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(4)
    x = FactorState(f=2, user_factors=rng.standard_normal((3, 2)),
                    service_factors=rng.standard_normal((5, 2)))
    p = tmp_path / "state.npz"
    save_factors(p, x)
    y = load_factors(p)
    assert y.f == 2
    np.testing.assert_array_equal(y.user_factors, x.user_factors)
    np.testing.assert_array_equal(y.service_factors, x.service_factors)


def test_save_factors_writes_exactly_the_given_path(tmp_path):
    x = FactorState(f=1, user_factors=np.array([[0.5], [-2.0]]),
                    service_factors=np.array([[3.0]]))
    p = tmp_path / "model.bin"
    save_factors(p, x)
    assert sorted(q.name for q in tmp_path.iterdir()) == ["model.bin"]  # no model.bin.npz
    y = load_factors(p)
    np.testing.assert_array_equal(y.user_factors, x.user_factors)
    np.testing.assert_array_equal(y.service_factors, x.service_factors)


def test_load_factors_rejects_wrong_version_and_garbage(tmp_path):
    p = tmp_path / "bad.npz"
    np.savez(p, version=np.int64(99), f=np.int64(1),
             user_factors=np.zeros((1, 1)), service_factors=np.zeros((1, 1)))
    with pytest.raises(ValueError, match="version 99"):
        load_factors(p)
    p2 = tmp_path / "alien.npz"
    np.savez(p2, something=np.zeros(3))
    with pytest.raises(ValueError, match="not a factor dump"):
        load_factors(p2)


def test_load_factors_rejects_a_plain_npy_file_naming_it(tmp_path):
    p = tmp_path / "plain.npy"
    np.save(p, np.zeros((2, 2)))
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: not a factor dump"):
        load_factors(p)


@pytest.mark.parametrize("content", [b"0 0 1.0\n", b"", b"PK\x03\x04 cut short"])
def test_load_factors_rejects_a_file_that_is_no_archive_naming_it(tmp_path, content):
    p = tmp_path / "triples.txt"
    p.write_bytes(content)
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: not a factor dump"):
        load_factors(p)


@pytest.mark.parametrize("version", [np.array([{}], dtype=object), np.zeros(3)])
def test_load_factors_rejects_a_pickled_or_non_scalar_member_naming_the_path(tmp_path, version):
    p = tmp_path / "obj.npz"
    np.savez(p, version=version, f=np.int64(1),
             user_factors=np.zeros((1, 1)), service_factors=np.zeros((1, 1)))
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: not a factor dump"):
        load_factors(p)


def test_load_factors_names_the_path_when_f_disagrees_with_the_arrays(tmp_path):
    p = tmp_path / "f.npz"
    np.savez(p, version=np.int64(1), f=np.int64(3),
             user_factors=np.zeros((2, 2)), service_factors=np.zeros((4, 2)))
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: factor matrices must have f columns"):
        load_factors(p)
