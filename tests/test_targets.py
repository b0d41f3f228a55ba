"""Targets: analytic derivatives against finite differences, mode finding,
and the documented closed-form spot values."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinpi.errors import InvalidSimplex, NoExactSampler, NotPositiveDefinite
from steinpi.kernels import make_kernel
from steinpi.pi_targets import PiTarget, make_pi, make_power_tilt
from steinpi.targets import (
    ModeInfo,
    default_mixture,
    find_mode,
    make_garch_posterior,
    make_gaussian,
    make_gaussian_mixture,
    make_regression_posterior,
    make_skew_normal_2d,
    simulate_garch_series,
    simulated_regression_data,
)

from _oracles import fd_gradient, fd_jacobian, rel_err


def builtin_targets():
    cov = np.array([[1.5, 0.4], [0.4, 0.8]])
    return {
        "gaussian": (make_gaussian([0.5, -1.0], cov), 1.0),
        "mixture": (default_mixture(), 2.0),
        "regression": (make_regression_posterior(), 1.0),
        "skew_normal": (make_skew_normal_2d(), 1.0),
        "garch": (make_garch_posterior(simulate_garch_series((0.2, 0.5, 0.3, 0.4), 50, seed=4)), 0.6),
    }


@pytest.mark.parametrize("name", list(builtin_targets()))
def test_gradients_match_finite_differences(name, rng):
    target, spread = builtin_targets()[name]
    pts = spread * rng.standard_normal((100, target.dim))
    worst = max(
        rel_err(target.grad_log_density(x), fd_gradient(target.log_density, x)) for x in pts
    )
    assert worst < 1e-5


@pytest.mark.parametrize("name", list(builtin_targets()))
def test_hessians_match_differenced_gradients(name, rng):
    target, spread = builtin_targets()[name]
    pts = spread * rng.standard_normal((100, target.dim))
    worst = max(
        rel_err(target.hessian_log_density(x), fd_jacobian(target.grad_log_density, x))
        for x in pts
    )
    assert worst < 1e-4


@pytest.mark.parametrize("name", list(builtin_targets()))
def test_hessians_are_symmetric(name, rng):
    target, spread = builtin_targets()[name]
    pts = spread * rng.standard_normal((20, target.dim))
    hess = target.hessian_log_density(pts)
    np.testing.assert_allclose(hess, np.swapaxes(hess, 1, 2), rtol=0, atol=1e-12)


def _derived_targets(target):
    """The power tilt and pi under Langevin and KGM-3 kernels of a target."""
    mode = find_mode(target, np.zeros(target.dim), max_iter=400)
    pis = [make_pi(target, make_kernel(target, mode, family=f, s=3)) for f in ("langevin", "kgm")]
    return [make_power_tilt(target, 1.0)] + pis


def test_log_density_with_grad_agrees(rng):
    # every entry point is a view of one evaluation, so all agree bitwise
    for target, spread in builtin_targets().values():
        pts = spread * rng.standard_normal((10, target.dim))
        for law in [target] + _derived_targets(target):
            logp, grad = law.log_density_with_grad(pts)
            np.testing.assert_array_equal(logp, law.log_density(pts))
            np.testing.assert_array_equal(grad, law.grad_log_density(pts))
            if isinstance(law, PiTarget):
                with pytest.raises(NotImplementedError):
                    law.hessian_log_density(pts)
                continue
            logp2, grad2, hess = law._evaluate(pts, 2)
            np.testing.assert_array_equal(logp2, logp)
            np.testing.assert_array_equal(grad2, grad)
            np.testing.assert_array_equal(hess, law.hessian_log_density(pts))


# ----------------------------------------------------------------------
# mode finding
# ----------------------------------------------------------------------


def test_find_mode_standard_gaussian():
    target = make_gaussian([0.0, 0.0])
    mode = find_mode(target, np.array([3.0, -1.0]))
    np.testing.assert_allclose(mode.x_star, [0.0, 0.0], atol=1e-8)
    np.testing.assert_allclose(mode.sigma, np.eye(2), atol=1e-12)


def test_find_mode_regression_matches_grid_search():
    target = make_regression_posterior()
    mode = find_mode(target, np.zeros(2), grad_tol=1e-10)
    res = 1e-3
    axis = np.arange(-2.0, 2.0 + res / 2, res)
    best = (-np.inf, None)
    for x1 in axis:  # chunk by rows to bound memory
        grid = np.column_stack([np.full_like(axis, x1), axis])
        vals = target.log_density(grid)
        i = int(np.argmax(vals))
        if vals[i] > best[0]:
            best = (vals[i], grid[i])
    assert np.max(np.abs(mode.x_star - best[1])) <= res


def test_find_mode_quartic_degenerate_curvature(quartic_target):
    with pytest.raises(NotPositiveDefinite):
        find_mode(quartic_target, np.array([1.0]), grad_tol=1e-12)


def test_find_mode_invariant_to_init():
    target = make_regression_posterior()
    tol = 1e-9
    a = find_mode(target, np.array([0.5, 0.5]), grad_tol=tol)
    b = find_mode(target, np.array([-1.0, 0.2]), grad_tol=tol)
    assert np.linalg.norm(a.x_star - b.x_star) <= 10 * tol


def test_mode_info_factorisation():
    target = make_gaussian([0.0, 0.0], np.array([[2.0, 0.7], [0.7, 1.0]]))
    mode = find_mode(target, np.array([1.0, 1.0]))
    np.testing.assert_array_equal(mode.sigma_inv, -target.hessian_log_density(mode.x_star))
    recon = mode.chol_sigma_inv @ mode.chol_sigma_inv.T
    assert rel_err(mode.sigma_inv, recon) < 1e-10


def test_mode_info_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        ModeInfo.from_hessian(np.zeros(2), np.diag([-1.0, 1.0]))


# ----------------------------------------------------------------------
# gaussian mixture
# ----------------------------------------------------------------------


def test_mixture_single_component_normalisation():
    target = make_gaussian_mixture([1.0], [0.0], [1.0])
    assert target.log_density(np.array([0.0])) == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-15)


def test_mixture_symmetric_gradient_vanishes():
    target = make_gaussian_mixture([0.5, 0.5], [-2.0, 2.0], [1.0, 1.0])
    np.testing.assert_allclose(target.grad_log_density(np.array([0.0])), [0.0], atol=1e-16)


def test_mixture_gradient_finite_differences(rng):
    target = default_mixture()
    pts = 3.0 * rng.standard_normal((50, 1))
    worst = max(
        rel_err(target.grad_log_density(x), fd_gradient(target.log_density, x)) for x in pts
    )
    assert worst < 1e-6


@settings(max_examples=25, deadline=None)
@given(perm=st.permutations(range(3)), x=st.floats(-8, 8))
def test_mixture_component_permutation_bitwise(perm, x):
    weights = np.array([0.3, 0.4, 0.3])
    means = np.array([-3.0, 0.0, 3.0])
    scales = np.array([0.8, 1.0, 0.8])
    base = make_gaussian_mixture(weights, means, scales)
    shuffled = make_gaussian_mixture(weights[list(perm)], means[list(perm)], scales[list(perm)])
    p = np.array([x])
    assert base.log_density(p) == shuffled.log_density(p)
    assert np.array_equal(base.grad_log_density(p), shuffled.grad_log_density(p))


def test_mixture_is_minus_infinity_where_no_component_has_mass():
    # beyond |x| ~ 1e154 every component's squared distance overflows; log p
    # is -inf there, its derivatives NaN, and no warning is raised
    target = default_mixture()
    finite = np.array([[-7.5], [0.0], [2.9], [1e150]])
    pts = np.vstack([finite, [[1e160], [-3e160]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        logp, grad, hess = target._at(pts, 2)
    np.testing.assert_array_equal(logp[4:], [-np.inf, -np.inf])
    assert np.isnan(grad[4:]).all() and np.isnan(hess[4:]).all()
    lp_comp = target._component_logpdfs(finite)  # the max-shifted sum on finite rows
    m = lp_comp.max(axis=1, keepdims=True)
    assert logp[:4].tobytes() == (m + np.log(np.exp(lp_comp - m).sum(axis=1, keepdims=True)))[:, 0].tobytes()
    for got, alone in zip((logp, grad, hess), target._at(finite, 2)):
        assert got[:4].tobytes() == alone.tobytes()


def test_mixture_rejects_bad_weights():
    with pytest.raises(InvalidSimplex):
        make_gaussian_mixture([0.5, 0.4], [0.0, 1.0], [1.0, 1.0])
    with pytest.raises(InvalidSimplex):
        make_gaussian_mixture([1.2, -0.2], [0.0, 1.0], [1.0, 1.0])


def test_mixture_exact_sampler_moments(rng):
    target = default_mixture()
    x = target.sample(200_000, rng)[:, 0]
    true_var = 0.3 * (9 + 0.64) * 2 + 0.4 * 1.0
    assert abs(x.mean()) < 0.03
    assert abs(x.var() - true_var) / true_var < 0.02


# ----------------------------------------------------------------------
# regression posterior
# ----------------------------------------------------------------------


def test_regression_zero_data_mode_is_prior_mode():
    t = np.arange(1.0, 11.0) - 5.0
    target = make_regression_posterior(t, np.zeros(10))
    mode = find_mode(target, np.array([0.3, 0.3]))
    np.testing.assert_allclose(mode.x_star, [0.0, 0.0], atol=1e-8)


def test_regression_default_data_reproducible():
    t1, y1 = simulated_regression_data()
    t2, y2 = simulated_regression_data()
    np.testing.assert_array_equal(t1, np.arange(1.0, 11.0) - 5.0)
    np.testing.assert_array_equal(y1, y2)


def test_regression_hessian_at_mode(rng):
    target = make_regression_posterior()
    mode = find_mode(target, np.zeros(2))
    assert (
        rel_err(
            target.hessian_log_density(mode.x_star),
            fd_jacobian(target.grad_log_density, mode.x_star),
        )
        < 1e-6
    )


def test_regression_single_datum_conjugate_root():
    target = make_regression_posterior(np.array([0.0]), np.array([1.0]))
    grad = target.grad_log_density(np.array([0.5, 0.0]))
    assert grad[0] == 0.0


def test_regression_has_no_exact_sampler(rng):
    with pytest.raises(NoExactSampler):
        make_regression_posterior().sample(3, rng)


# ----------------------------------------------------------------------
# skew normal
# ----------------------------------------------------------------------


def test_skew_normal_log_density_at_origin():
    target = make_skew_normal_2d()
    expected = np.log(4.0) - np.log(2.0 * np.pi) + 2.0 * np.log(0.5)
    assert target.log_density(np.zeros(2)) == pytest.approx(expected, abs=1e-14)


def test_skew_normal_gradient_at_origin():
    # d/dx1 log Phi(6 x1) at 0 is 6 phi(0) / Phi(0) = 12 phi(0)
    target = make_skew_normal_2d()
    grad = target.grad_log_density(np.zeros(2))
    phi0 = 1.0 / np.sqrt(2.0 * np.pi)
    assert grad[0] == pytest.approx(12.0 * phi0, rel=1e-14)
    assert grad[1] == pytest.approx(-6.0 * phi0, rel=1e-14)


def test_skew_normal_gradient_finite_differences():
    target = make_skew_normal_2d()
    x = np.array([1.5, -0.7])
    assert rel_err(target.grad_log_density(x), fd_gradient(target.log_density, x)) < 1e-6


def test_skew_normal_stable_in_far_tails():
    target = make_skew_normal_2d()
    pts = np.array([[-40.0, 40.0], [40.0, -40.0], [0.0, 40.0], [0.0, -40.0]])
    vals = target.log_density(pts)
    grads = target.grad_log_density(pts)
    assert np.all(np.isfinite(vals))
    assert np.all(np.isfinite(grads))


# ----------------------------------------------------------------------
# GARCH posterior
# ----------------------------------------------------------------------


def test_garch_constant_series_matches_volatility_recursion():
    # a constant series at one theta, then a simulated series at a batch of
    # 20 thetas, each row against the recursion run one time step at a time
    cases = [
        (np.zeros(10), np.array([[0.3, -0.5, 0.2, -0.1]])),
        (
            simulate_garch_series((0.2, 0.5, 0.3, 0.4), 50, seed=4),
            0.6 * np.random.default_rng(3).standard_normal((20, 4)),
        ),
    ]
    for y, thetas in cases:
        target = make_garch_posterior(y)
        logp = target.log_density(thetas)
        assert np.all(np.isfinite(logp))
        for theta, value in zip(thetas, logp):
            phi1 = theta[0]
            phi2 = np.exp(theta[1])
            s3 = 1.0 / (1.0 + np.exp(-theta[2]))
            s4 = 1.0 / (1.0 + np.exp(-theta[3]))
            phi3, phi4 = s3, (1.0 - s3) * s4
            s2 = np.var(y)
            a = 0.0
            loglik = 0.0
            for yt in y:
                s2 = phi2 + phi3 * a**2 + phi4 * s2
                a = yt - phi1
                loglik += -0.5 * np.log(s2) - a**2 / (2.0 * s2)
            assert value == pytest.approx(loglik + target.log_jacobian(theta), rel=1e-13)


def test_garch_log_density_is_invariant_to_a_location_shift():
    # y_t ~ N(phi1, s2_t): shifting the series and phi1 = theta1 by c leaves
    # every residual a_t, s2_0 = var(y) and so log p unchanged
    y = simulate_garch_series((0.2, 0.5, 0.3, 0.4), 50, seed=4)
    thetas = 0.6 * np.random.default_rng(5).standard_normal((10, 4))
    base = make_garch_posterior(y).log_density(thetas)
    for c in (-3.0, 5.0):
        shifted = make_garch_posterior(y + c).log_density(thetas + c * np.eye(4)[0])
        np.testing.assert_allclose(shifted, base, rtol=1e-12)


def test_garch_log_jacobian_closed_form_at_zero():
    target = make_garch_posterior(simulate_garch_series((0.2, 0.5, 0.3, 0.4), 30, seed=1))
    # theta = 0: phi2 term contributes 0, each sigmoid term log(1/4), the
    # stick remainder log(1/2); total -5 log 2
    assert target.log_jacobian(np.zeros(4)) == pytest.approx(-5.0 * np.log(2.0), rel=1e-14)


def test_garch_gradient_finite_differences(rng):
    y = simulate_garch_series((0.2, 0.5, 0.3, 0.4), 50, seed=7)
    target = make_garch_posterior(y)
    pts = 0.6 * rng.standard_normal((30, 4))
    worst = max(
        rel_err(target.grad_log_density(x), fd_gradient(target.log_density, x)) for x in pts
    )
    assert worst < 1e-5


def test_garch_requires_minimum_length():
    with pytest.raises(ValueError):
        make_garch_posterior(np.array([1.0]))


# ----------------------------------------------------------------------
# exact samplers
# ----------------------------------------------------------------------


def test_gaussian_exact_sampler_moments(rng):
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    target = make_gaussian([1.0, -2.0], cov)
    x = target.sample(200_000, rng)
    np.testing.assert_allclose(x.mean(axis=0), [1.0, -2.0], atol=0.02)
    np.testing.assert_allclose(np.cov(x.T), cov, atol=0.03)
