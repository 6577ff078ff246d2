"""Objective, gradient, prediction, and serialization tests.

The gradient is checked against central finite differences of the
objective; the objective itself against a hand-expanded single
observation and a brute-force python evaluation.
"""

import math

import numpy as np
import pytest

from sofactor.data import TripleSet, build_index, synth_lowrank
from sofactor.model import (
    FactorState,
    Hyperparams,
    data_gradient,
    gradient,
    init_factors,
    l1_gradient,
    l2_gradient,
    load_factors,
    loss_data,
    objective,
    predict_observed,
    rmse,
    save_factors,
)

from oracles import predict


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


def test_factor_state_rejects_bad_shapes_and_nan():
    with pytest.raises(ValueError):
        FactorState(f=2, user_factors=np.zeros((3, 3)), service_factors=np.zeros((2, 2)))
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
