"""Curvature product tests against brute-force and finite-difference oracles."""

import numpy as np
import pytest

from sofactor.curvature import CurvatureContext
from sofactor.data import TripleSet, build_index
from sofactor.model import (
    FactorState,
    Hyperparams,
    l1_gradient,
    l2_gradient,
    predict_observed,
)

from oracles import dense_gn_oracle
from test_model import random_problem


def single_cell_problem():
    """One known cell, f=1, xu=2, xs=3. Jacobian row is [3, 2], so
    J^T J = [[9, 6], [6, 4]] by hand."""
    t = TripleSet(1, 1, np.array([0]), np.array([0]), np.array([5.0]))
    x = FactorState(f=1, user_factors=np.array([[2.0]]), service_factors=np.array([[3.0]]))
    return build_index(t), x


def test_jacobian_vector_hand_example():
    d, x = single_cell_problem()
    ctx = CurvatureContext(x, d, Hyperparams(f=1))
    assert ctx.jacobian_vector(np.array([1.0, 0.0]))[0] == 3.0
    assert ctx.jacobian_vector(np.array([0.0, 1.0]))[0] == 2.0
    assert ctx.jacobian_vector(np.array([1.0, 1.0]))[0] == 5.0


def test_gn_hvp_hand_example():
    d, x = single_cell_problem()
    ctx = CurvatureContext(x, d, Hyperparams(f=1))
    np.testing.assert_allclose(ctx.gn_hvp(np.array([1.0, 0.0])), [9.0, 6.0], atol=0)
    np.testing.assert_allclose(ctx.gn_hvp(np.array([1.0, 1.0])), [15.0, 10.0], atol=0)
    np.testing.assert_allclose(dense_gn_oracle(x, d), [[9.0, 6.0], [6.0, 4.0]], atol=0)


def test_jacobian_euler_identity_for_bilinear_map():
    # differentiating x_u . x_s along vec(x) itself doubles every prediction
    rng = np.random.default_rng(51)
    d, x = random_problem(rng)
    ctx = CurvatureContext(x, d, Hyperparams(f=x.f))
    jv = ctx.jacobian_vector(x.as_vector())
    np.testing.assert_allclose(jv, 2 * predict_observed(x, d.base), rtol=1e-13)


def test_hvp_zero_vector_and_scaling():
    rng = np.random.default_rng(49)
    d, x = random_problem(rng)
    h = Hyperparams(f=x.f, lambda_r1=0.04, lambda_r2=2e-4, gamma=2.5)
    ctx = CurvatureContext(x, d, h)
    zero = np.zeros(x.dim)
    assert not ctx.jacobian_vector(zero).any()
    assert not ctx.gn_hvp(zero).any()
    assert not ctx.reg_l1_hvp(zero).any()
    assert not ctx.reg_l2_hvp(zero).any()
    v = rng.standard_normal(x.dim)
    np.testing.assert_allclose(ctx.damped_hvp(3.5 * v), 3.5 * ctx.damped_hvp(v),
                               rtol=1e-13)


def test_jacobian_vector_matches_bruteforce_and_fd():
    rng = np.random.default_rng(31)
    for _ in range(15):
        d, x = random_problem(rng)
        ctx = CurvatureContext(x, d, Hyperparams(f=x.f))
        v = rng.standard_normal(x.dim)
        jv = ctx.jacobian_vector(v).copy()
        # brute force from the definition
        vu, vs = v[: x.num_users * x.f].reshape(-1, x.f), v[x.num_users * x.f:].reshape(-1, x.f)
        want = np.array([
            float(vu[u] @ x.service_factors[s] + x.user_factors[u] @ vs[s])
            for u, s in zip(d.base.users, d.base.services)])
        np.testing.assert_allclose(jv, want, rtol=1e-12, atol=1e-12)
        # directional derivative of the predictions
        step = 1e-7
        xp = FactorState.from_vector(x.num_users, x.num_services, x.f, x.as_vector() + step * v)
        xm = FactorState.from_vector(x.num_users, x.num_services, x.f, x.as_vector() - step * v)
        fd = (predict_observed(xp, d.base) - predict_observed(xm, d.base)) / (2 * step)
        np.testing.assert_allclose(jv, fd, rtol=1e-6, atol=1e-8)


def test_jacobian_vector_reuses_scratch_buffer():
    rng = np.random.default_rng(5)
    d, x = random_problem(rng)
    ctx = CurvatureContext(x, d, Hyperparams(f=x.f))
    a = ctx.jacobian_vector(rng.standard_normal(x.dim))
    b = ctx.jacobian_vector(rng.standard_normal(x.dim))
    assert a is b  # documented aliasing; callers copy if they keep it


def test_gn_hvp_matches_dense_oracle():
    rng = np.random.default_rng(37)
    for _ in range(40):
        d, x = random_problem(rng)
        ctx = CurvatureContext(x, d, Hyperparams(f=x.f))
        g = dense_gn_oracle(x, d)
        v = rng.standard_normal(x.dim)
        got = ctx.gn_hvp(v)
        np.testing.assert_allclose(got, g @ v, atol=1e-10 * (1 + np.abs(v).max()))


def test_reg_hvps_match_fd_of_gradient_terms():
    rng = np.random.default_rng(41)
    for eps in (1.0, 1e-2):
        d, x = random_problem(rng)
        h = Hyperparams(f=x.f, lambda_r1=0.2, lambda_r2=5e-3, epsilon=eps)
        ctx = CurvatureContext(x, d, h)
        v = rng.standard_normal(x.dim)
        step = 1e-6

        def at(vec):
            return FactorState.from_vector(x.num_users, x.num_services, x.f, vec)

        base = x.as_vector()
        fd_l1 = (l1_gradient(at(base + step * v), d, h)
                 - l1_gradient(at(base - step * v), d, h)) / (2 * step)
        fd_l2 = (l2_gradient(at(base + step * v), d, h)
                 - l2_gradient(at(base - step * v), d, h)) / (2 * step)
        got1, got2 = ctx.reg_l1_hvp(v), ctx.reg_l2_hvp(v)
        assert np.abs(got1 - fd_l1).max() <= 1e-5 * (1 + np.abs(fd_l1).max())
        assert np.abs(got2 - fd_l2).max() <= 1e-5 * (1 + np.abs(fd_l2).max())


def test_reg_l1_hvp_closed_form_at_zero():
    # at x = 0 with eps = 1 the L1 curvature is exactly lambda_r1 * |K_u|
    t = TripleSet(1, 2, np.array([0, 0]), np.array([0, 1]), np.array([1.0, 2.0]))
    d = build_index(t)
    x = FactorState(f=1, user_factors=np.zeros((1, 1)), service_factors=np.zeros((2, 1)))
    h = Hyperparams(f=1, lambda_r1=0.25, epsilon=1.0)
    ctx = CurvatureContext(x, d, h)
    got = ctx.reg_l1_hvp(np.ones(3))
    assert got[0] == 0.25 * 2  # user 0 observed twice
    assert got[1] == 0.25 * 1 and got[2] == 0.25 * 1


def test_l1_curvature_vanishes_far_from_origin():
    # lambda_r1 |K_u| eps / x^3 at x = 100, eps = 1e-8: about 1e-15
    t = TripleSet(1, 10, np.zeros(10, np.int64), np.arange(10), np.ones(10))
    d = build_index(t)
    x = FactorState(f=1, user_factors=np.full((1, 1), 100.0),
                    service_factors=np.full((10, 1), 100.0))
    ctx = CurvatureContext(x, d, Hyperparams(f=1, lambda_r1=0.1, epsilon=1e-8))
    v = np.zeros(11)
    v[0] = 1.0
    assert 0.0 < ctx.reg_l1_hvp(v)[0] < 1e-12


def test_l2_curvature_is_count_scaled_diagonal():
    # user 0 observed 5 times: its coordinate picks up lambda_r2 * 5
    t = TripleSet(2, 5, np.array([0] * 5 + [1]), np.array([0, 1, 2, 3, 4, 0]),
                  np.ones(6))
    d = build_index(t)
    x = FactorState(f=1, user_factors=np.ones((2, 1)), service_factors=np.ones((5, 1)))
    ctx = CurvatureContext(x, d, Hyperparams(f=1, lambda_r2=1e-4))
    v = np.zeros(7)
    v[0] = 2.0
    got = ctx.reg_l2_hvp(v)
    assert got[0] == pytest.approx(1e-3, rel=1e-15)
    assert not got[1:].any()  # diagonal operator: basis vector in, basis out
    ctx0 = CurvatureContext(x, d, Hyperparams(f=1, lambda_r2=0.0))
    assert not ctx0.reg_l2_hvp(np.ones(7)).any()


def test_damped_hvp_at_origin_is_pure_damping():
    t = TripleSet(1, 1, np.array([0]), np.array([0]), np.array([1.0]))
    d = build_index(t)
    x = FactorState(f=2, user_factors=np.zeros((1, 2)), service_factors=np.zeros((1, 2)))
    h = Hyperparams(f=2, lambda_r1=0.0, lambda_r2=0.0, gamma=20.0)
    v = np.array([1.0, -2.0, 3.0, 0.5])
    np.testing.assert_array_equal(CurvatureContext(x, d, h).damped_hvp(v), 20.0 * v)
    assert not dense_gn_oracle(x, d).any()  # the GN term itself is zero at 0


def test_damped_hvp_composes_parts_hand_example():
    d, x = single_cell_problem()
    h = Hyperparams(f=1, lambda_r1=0.1, lambda_r2=1e-4, epsilon=1.0, gamma=20.0)
    ctx = CurvatureContext(x, d, h)
    v = np.ones(2)
    # user entry: 15 (gauss-newton) + 0.1/(4+1)^1.5 (L1) + 1e-4 (L2) + 20 (damping)
    want_u = 15.0 + 0.1 * 1.0 / (2.0 ** 2 + 1.0) ** 1.5 + 1e-4 + 20.0
    want_s = 10.0 + 0.1 * 1.0 / (3.0 ** 2 + 1.0) ** 1.5 + 1e-4 + 20.0
    np.testing.assert_allclose(ctx.damped_hvp(v), [want_u, want_s], rtol=1e-15)


def test_damped_hvp_is_sum_of_parts():
    rng = np.random.default_rng(43)
    d, x = random_problem(rng)
    h = Hyperparams(f=x.f, lambda_r1=0.05, lambda_r2=1e-3, gamma=7.0)
    ctx = CurvatureContext(x, d, h)
    v = rng.standard_normal(x.dim)
    want = ctx.gn_hvp(v) + ctx.reg_l1_hvp(v) + ctx.reg_l2_hvp(v) + 7.0 * v
    np.testing.assert_allclose(ctx.damped_hvp(v), want, rtol=1e-14)


def test_damped_operator_symmetric_and_positive():
    rng = np.random.default_rng(47)
    for _ in range(10):
        d, x = random_problem(rng)
        h = Hyperparams(f=x.f, lambda_r1=0.02, lambda_r2=1e-4, gamma=3.0)
        ctx = CurvatureContext(x, d, h)
        v, w = rng.standard_normal((2, x.dim))
        a = float(v @ ctx.damped_hvp(w))
        b = float(ctx.damped_hvp(v) @ w)
        assert abs(a - b) <= 1e-10 * (1 + max(abs(a), abs(b)))
        quad = float(v @ ctx.damped_hvp(v))
        assert quad >= (3.0 - 1e-12) * float(v @ v)


def test_dense_oracle_refuses_large_problems():
    t = TripleSet(60, 60, np.array([0]), np.array([0]), np.array([1.0]))
    d = build_index(t)
    x = FactorState(f=2, user_factors=np.zeros((60, 2)), service_factors=np.zeros((60, 2)))
    with pytest.raises(ValueError, match="200"):
        dense_gn_oracle(x, d)


def test_context_rejects_mismatched_dimensions():
    d, x = single_cell_problem()
    wrong = FactorState(f=1, user_factors=np.zeros((3, 1)), service_factors=np.zeros((1, 1)))
    with pytest.raises(ValueError, match="do not match"):
        CurvatureContext(wrong, d, Hyperparams(f=1))
