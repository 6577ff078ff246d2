"""User-major work order: the view itself, and bit-for-bit agreement of the
data gradient and the damped curvature product with their stored-order
formulas, and of the damped product with the sum of its public parts."""

import numpy as np
import pytest

from sofactor.curvature import CurvatureContext
from sofactor.data import TripleSet, build_index, split
from sofactor.model import (
    FactorState,
    Hyperparams,
    data_gradient,
    gradient,
    l1_gradient,
    l2_gradient,
)
from sofactor.train import OptimizerKind, train

from oracles import grouping_order, stored_order_damped_hvp, stored_order_data_gradient


def assert_same_bits(got, want):
    "Equal values, and equal bytes, so that the sign of a zero counts too."
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def _cells(name, rng):
    "(num_users, num_services, cell ids in stored order) for each named case."
    if name == "single":
        return 1, 1, [0]
    if name == "single-among-empty":  # user 2, service 1; the rest unobserved
        return 4, 3, [2 * 3 + 1]
    if name == "empty-rows-and-columns":
        nu, ns = 40, 30
        cells = [u * ns + s for u in range(nu) for s in range(ns) if u % 5 and s % 7 != 3]
        return nu, ns, rng.permutation(cells)[:300]
    if name == "full":
        return 12, 9, rng.permutation(12 * 9)
    raise ValueError(name)


CASES = ["single", "single-among-empty", "empty-rows-and-columns", "full"]


def problem(name, f, seed=0, zero=False):
    rng = np.random.default_rng(seed)
    nu, ns, cells = _cells(name, rng)
    cells = np.asarray(cells, dtype=np.int64)
    t = TripleSet(nu, ns, cells // ns, cells % ns, rng.uniform(0, 3, len(cells)))
    scale = 0.0 if zero else 1.0
    x = FactorState(f=f, user_factors=scale * rng.uniform(-1, 1, (nu, f)),
                    service_factors=scale * rng.uniform(-1, 1, (ns, f)))
    return build_index(t), x


def direction(dim, seed):
    "A random direction with some exact zeros and negative entries."
    v = np.random.default_rng(seed).standard_normal(dim)
    v[::4] = 0.0
    return v


@pytest.mark.parametrize("name", CASES)
def test_user_major_view_follows_by_user(name):
    d, _ = problem(name, f=1)
    um = d.user_major
    t = d.base
    positions = d.by_service.positions
    assert um.users.dtype == um.services.dtype == t.users.dtype
    assert positions.dtype == d.by_service.indptr.dtype
    by_user, by_service = grouping_order(t.users), grouping_order(t.services)
    assert np.array_equal(um.users, t.users[by_user])
    assert np.array_equal(um.services, t.services[by_user])
    assert um.values.tobytes() == t.values[by_user].tobytes()
    w = np.random.default_rng(3).standard_normal(len(d))
    assert np.array_equal(w[by_user][positions], w[by_service])
    assert d.user_major is um  # cached


def test_user_major_view_of_empty_set():
    d = build_index(TripleSet(3, 2, np.empty(0), np.empty(0), np.empty(0)))
    um = d.user_major
    assert len(um.users) == len(um.services) == len(d.by_service.positions) == 0
    assert not d.user_weighted_sums(np.empty(0), np.ones((2, 4))).any()
    assert not d.service_weighted_sums(np.empty(0), np.ones((3, 4))).any()


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("f", [1, 20])
@pytest.mark.parametrize("lambda_r1", [0.0, 0.05])
def test_gradient_matches_stored_order_formula(name, f, lambda_r1):
    d, x = problem(name, f)
    h = Hyperparams(f=f, lambda_r1=lambda_r1, lambda_r2=1e-3)
    want_data = stored_order_data_gradient(x, d)
    assert_same_bits(data_gradient(x, d), want_data)
    assert_same_bits(gradient(x, d, h),
                     want_data + l1_gradient(x, d, h) + l2_gradient(x, d, h))


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("f", [1, 3, 20])
@pytest.mark.parametrize("lambda_r2", [0.0, 1e-5, 0.3])
@pytest.mark.parametrize("zero", [False, True], ids=["random", "signed-zeros"])
def test_gradient_without_l1_is_the_three_part_sum_bit_for_bit(name, f, lambda_r2, zero):
    # gradient() adds no all-zero part; the sum with every part, zeros
    # included, must have the same bytes, signs of zeros among them
    # (zero=True draws factors of +0.0 and -0.0)
    d, x = problem(name, f, zero=zero)
    h = Hyperparams(f=f, lambda_r1=0.0, lambda_r2=lambda_r2)
    assert_same_bits(gradient(x, d, h),
                     data_gradient(x, d) + l1_gradient(x, d, h) + l2_gradient(x, d, h))


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("f", [1, 20])
@pytest.mark.parametrize("lambda_r1", [0.0, 0.05])
def test_damped_hvp_matches_stored_order_formula(name, f, lambda_r1):
    d, x = problem(name, f)
    h = Hyperparams(f=f, lambda_r1=lambda_r1, lambda_r2=1e-3, gamma=3.0)
    ctx = CurvatureContext(x, d, h)
    for seed in range(3):
        v = direction(x.dim, seed)
        assert_same_bits(ctx.damped_hvp(v), stored_order_damped_hvp(x, d, h, v))


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("lambda_r1", [0.0, 0.05])
@pytest.mark.parametrize("gamma", [0.0, 3.0])
def test_damped_hvp_is_the_sum_of_its_public_parts(name, lambda_r1, gamma):
    # the inner solver runs exactly the products the acceptance suite checks
    d, x = problem(name, f=3)
    h = Hyperparams(f=3, lambda_r1=lambda_r1, lambda_r2=1e-3, gamma=gamma)
    ctx = CurvatureContext(x, d, h)
    for seed in range(3):
        v = direction(x.dim, seed)
        want = ctx.gn_hvp(v) + ctx.reg_l1_hvp(v) + ctx.reg_l2_hvp(v) + gamma * v
        assert_same_bits(ctx.damped_hvp(v), want)


@pytest.mark.parametrize("name", CASES)
def test_damped_hvp_at_origin_keeps_zero_signs(name):
    # at x = 0, lambda_r1 = lambda_r2 = gamma = 0 every entry is a zero;
    # the stored-order formula adds 0 * v, which is -0.0 where v < 0
    d, x = problem(name, f=3, zero=True)
    h = Hyperparams(f=3, lambda_r1=0.0, lambda_r2=0.0, gamma=0.0)
    v = direction(x.dim, 7)
    got = CurvatureContext(x, d, h).damped_hvp(v)
    assert_same_bits(got, stored_order_damped_hvp(x, d, h, v))
    assert not np.signbit(got).any()


def test_l1_curvature_skipped_at_lambda_r1_zero():
    d, x = problem("full", f=2)
    ctx = CurvatureContext(x, d, Hyperparams(f=2, lambda_r1=0.0))
    v = direction(x.dim, 1)
    assert_same_bits(ctx.reg_l1_hvp(v), np.zeros(x.dim))


def test_only_the_train_set_builds_the_view():
    d, _ = problem("empty-rows-and-columns", f=1)
    h = Hyperparams(f=2, max_epochs=2, patience=3, tau=0.01)
    for kind in (OptimizerKind("DRSLF"), OptimizerKind("SLF")):
        parts = split(d.base, 0.5, 0.25, seed=2)
        train(parts, h, kind)
        assert "_built" in vars(parts.train)
        assert "_built" not in vars(parts.validation)
        assert "_built" not in vars(parts.test)
