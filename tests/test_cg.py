"""Inner solver tests: SPD correctness, termination rule, failure modes."""

import numpy as np
import pytest

from sofactor.cg import (
    CgResult,
    IndefiniteOperatorError,
    NonFiniteOperatorError,
    cg_solve,
)


def random_spd(rng, n):
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n)


def test_hand_solved_diagonal_system():
    # A = diag(2, 4), g = (2, 4): solution of A d = -g is (-1, -1)
    a = np.diag([2.0, 4.0])
    res = cg_solve(lambda p: a @ p, np.array([2.0, 4.0]), tau=1e-12, max_iters=10)
    np.testing.assert_allclose(res.delta, [-1.0, -1.0], atol=1e-12)
    assert res.converged
    assert res.final_residual_inf <= 1e-12


def test_identity_operator_converges_in_one_iteration():
    # A = I: the first Krylov step lands exactly on delta = -g
    g = np.array([3.0, -2.0, 0.5])
    res = cg_solve(lambda p: p, g, tau=1e-12, max_iters=10)
    assert res.iterations == 1
    assert res.converged
    np.testing.assert_allclose(res.delta, -g, atol=1e-15)


def test_quadratic_model_decrease_on_damped_curvature():
    # the step must not increase the local quadratic model
    # <g, d> + 0.5 <d, A d>, which is 0 at d = 0, even when the solve
    # stops on its iteration cap
    from test_model import random_problem
    from sofactor.curvature import CurvatureContext
    from sofactor.model import Hyperparams, gradient

    rng = np.random.default_rng(67)
    for trial in range(20):
        d, x = random_problem(rng)
        h = Hyperparams(f=x.f, lambda_r1=0.02, lambda_r2=1e-4, gamma=5.0)
        ctx = CurvatureContext(x, d, h)
        g = gradient(x, d, h)
        res = cg_solve(ctx.damped_hvp, g, tau=1e-10,
                       max_iters=int(rng.integers(1, 8)))
        model = float(g @ res.delta) + 0.5 * float(res.delta @ ctx.damped_hvp(res.delta))
        assert model <= 1e-12


def test_matches_direct_solve_on_random_spd():
    rng = np.random.default_rng(53)
    for _ in range(25):
        n = int(rng.integers(2, 51))
        a = random_spd(rng, n)
        g = rng.standard_normal(n)
        res = cg_solve(lambda p: a @ p, g, tau=1e-10, max_iters=n + 5)
        np.testing.assert_allclose(res.delta, np.linalg.solve(a, -g),
                                   rtol=1e-6, atol=1e-8)
        assert res.converged
        assert res.iterations <= n + 5


def test_zero_iterations_when_rhs_already_small():
    res = cg_solve(lambda p: p, np.array([0.5, -0.3]), tau=1.0, max_iters=5)
    assert res.iterations == 0
    assert res.converged
    np.testing.assert_array_equal(res.delta, [0.0, 0.0])
    assert res.final_residual_inf == 0.5


def test_termination_is_max_norm_not_euclidean():
    # every component 0.9 <= tau = 1, but the 2-norm is 9: must stop at once
    g = np.full(100, -0.9)
    res = cg_solve(lambda p: p, g, tau=1.0, max_iters=50)
    assert res.iterations == 0 and res.converged
    assert float(np.linalg.norm(g)) > 1.0


def test_iteration_cap_and_recomputed_residual():
    rng = np.random.default_rng(59)
    n = 40
    # ill-conditioned SPD so 3 iterations cannot converge to 1e-14
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = u @ np.diag(np.logspace(-4, 4, n)) @ u.T
    a = (a + a.T) / 2
    g = rng.standard_normal(n)
    res = cg_solve(lambda p: a @ p, g, tau=1e-14, max_iters=3)
    assert res.iterations == 3
    assert not res.converged
    # reported residual must be self-consistent with the returned delta
    true_res = float(np.abs(-g - a @ res.delta).max())
    assert abs(res.final_residual_inf - true_res) <= 1e-12 * (1 + true_res)
    # and no worse than doing nothing
    assert res.final_residual_inf <= float(np.abs(g).max()) + 1e-12


def test_best_iterate_is_returned():
    rng = np.random.default_rng(61)
    for _ in range(10):
        n = int(rng.integers(3, 30))
        a = random_spd(rng, n)
        g = rng.standard_normal(n) * 10
        res = cg_solve(lambda p: a @ p, g, tau=1e-30, max_iters=int(rng.integers(1, 6)))
        held = float(np.abs(-g - a @ res.delta).max())
        assert abs(res.final_residual_inf - held) <= 1e-10


def counted(a):
    "apply_a for matrix a, plus the list that records one entry per product."
    calls = []

    def apply_a(p):
        calls.append(1)
        return a @ p

    return apply_a, calls


def test_zero_step_makes_no_recompute_product():
    # curvature spread over eight decades: every CG iterate raises the
    # residual max-norm, so the best iterate stays delta = 0
    a = np.diag(10.0 ** np.array([1.7, -1.6, -3.6, -3.9, 3.3, 4.2]))
    g = np.array([2.1, 4.6, 0.9, 8.7, 6.3, -9.9])
    for max_iters in (1, 2, 4):
        apply_a, calls = counted(a)
        res = cg_solve(apply_a, g, tau=1e-6, max_iters=max_iters)
        assert res.iterations == max_iters
        assert not res.delta.any()
        assert len(calls) == res.iterations
        assert res.final_residual_inf == float(np.abs(g).max())
        assert not res.converged


def test_improving_iterate_is_recomputed_with_one_extra_product():
    rng = np.random.default_rng(71)
    for _ in range(10):
        n = int(rng.integers(3, 30))
        a = random_spd(rng, n)
        apply_a, calls = counted(a)
        res = cg_solve(apply_a, rng.standard_normal(n), tau=1e-30,
                       max_iters=int(rng.integers(1, 6)))
        assert res.delta.any()
        assert len(calls) == res.iterations + 1


def test_indefinite_operator_raises():
    a = np.diag([1.0, -1.0])
    with pytest.raises(IndefiniteOperatorError, match="iteration 1"):
        cg_solve(lambda p: a @ p, np.array([0.0, 1.0]), tau=1e-10, max_iters=5)


def test_singular_direction_raises_not_divides():
    # A p = 0 for the first search direction: must raise, not divide by zero
    a = np.zeros((2, 2))
    with pytest.raises(IndefiniteOperatorError):
        cg_solve(lambda p: a @ p, np.array([1.0, 1.0]), tau=1e-10, max_iters=5)


def test_nonfinite_operator_raises():
    def bad(p):
        out = p.copy()
        out[0] = np.nan
        return out

    with pytest.raises(NonFiniteOperatorError, match="iteration 1"):
        cg_solve(bad, np.array([3.0, 3.0]), tau=1e-10, max_iters=5)
    with pytest.raises(NonFiniteOperatorError, match="right-hand side"):
        cg_solve(lambda p: p, np.array([np.inf, 0.0]), tau=1e-10, max_iters=5)


def test_parameter_validation():
    with pytest.raises(ValueError, match="tau"):
        cg_solve(lambda p: p, np.ones(2), tau=0.0, max_iters=5)
    with pytest.raises(ValueError, match="max_iters"):
        cg_solve(lambda p: p, np.ones(2), tau=1.0, max_iters=0)


def test_result_is_frozen():
    res = cg_solve(lambda p: p, np.array([0.1]), tau=1.0, max_iters=1)
    assert isinstance(res, CgResult)
    with pytest.raises(AttributeError):
        res.iterations = 99
