"""Over-dispersed targets: closed-form gradients, tail behaviour, the
root-diagonal normalising-constant estimate, and the importance-ratio
identities."""

import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from steinpi.errors import NoExactSampler, SteinpiError
from steinpi.grid import CHUNK, GridSampler
from steinpi.kernels import LangevinKernel, make_kernel
from steinpi.pi_targets import estimate_c2, make_pi, make_power_tilt
from steinpi.targets import (
    TargetModel,
    default_mixture,
    find_mode,
    make_gaussian,
    make_regression_posterior,
    make_skew_normal_2d,
)

from _oracles import ConstantKernel, fd_gradient, kernel_diagonal, rel_err, snis_weights, whole_grid


def _standard_normal_pi():
    target = make_gaussian([0.0])
    mode = find_mode(target, np.array([1.0]))
    kernel = LangevinKernel(target, mode)
    return target, kernel, make_pi(target, kernel)


def test_pi_log_density_standard_normal_closed_form():
    target, _, pi = _standard_normal_pi()
    xs = np.linspace(-4, 4, 17)
    # log pi = log p + log(1 + x^2) / 2 for this kernel
    expected = target.log_density(xs[:, None]) + 0.5 * np.log(1.0 + xs**2)
    np.testing.assert_allclose(pi.log_density(xs[:, None]), expected, rtol=1e-14)
    grads = pi.grad_log_density(xs[:, None])[:, 0]
    np.testing.assert_allclose(grads, -xs + xs / (1.0 + xs**2), rtol=1e-12, atol=1e-14)


def test_pi_gradient_matches_finite_differences(rng):
    target = default_mixture()
    mode = find_mode(target, np.array([0.1]))
    pi = make_pi(target, LangevinKernel(target, mode))
    pts = 3.0 * rng.standard_normal((100, 1))
    worst = max(rel_err(pi.grad_log_density(x), fd_gradient(pi.log_density, x)) for x in pts)
    assert worst < 1e-5


def test_pi_gradient_is_exactly_assembled_from_pieces(rng):
    target, kernel, pi = _standard_normal_pi()
    for x in rng.standard_normal((20, 1)):
        diag = kernel_diagonal(kernel, x)
        expected = target.grad_log_density(x) + 0.5 * diag.grad / diag.value
        np.testing.assert_array_equal(pi.grad_log_density(x), expected)


class _Counting(TargetModel):
    """Delegates to a base target and records the order of each evaluation."""

    def __init__(self, base):
        self.base = base
        self.dim = base.dim
        self.orders = []

    def _evaluate(self, x, order):
        self.orders.append(order)
        return self.base._evaluate(x, order)


@pytest.mark.parametrize("family", ["langevin", "kgm"])
def test_one_pi_evaluation_evaluates_base_and_diagonal_once(family, monkeypatch, rng):
    target = _Counting(make_regression_posterior())
    kernel = make_kernel(target, find_mode(target, np.zeros(2)), family=family, s=3)
    contexts = []
    original = kernel.context
    monkeypatch.setattr(kernel, "context", lambda x, score: contexts.append(len(x)) or original(x, score))
    pi = make_pi(target, kernel)
    for x in (rng.standard_normal((6, 2)), rng.standard_normal(2)):
        target.orders.clear()
        contexts.clear()
        pi.log_density_with_grad(x)
        assert target.orders == [2]  # the gradient of k_P needs the base Hessian
        assert contexts == [1 if x.ndim == 1 else 6]
    target.orders.clear()
    pi.log_density(rng.standard_normal((6, 2)))
    assert target.orders == [1]


def test_pi_has_heavier_tails_than_base():
    _, _, pi = _standard_normal_pi()

    def dens(x):
        return np.exp(pi.log_density(np.array([x])))

    norm = quad(dens, -12, 12, limit=200)[0]
    mean = quad(lambda x: x * dens(x), -12, 12, limit=200)[0] / norm
    var = quad(lambda x: (x - mean) ** 2 * dens(x), -12, 12, limit=200)[0] / norm
    assert var > 1.0


def test_pi_with_constant_kernel_is_the_base():
    target = make_gaussian([0.0])
    pi = make_pi(target, ConstantKernel(4.0, dim=1))
    xs = np.linspace(-3, 3, 11)[:, None]
    np.testing.assert_array_equal(pi.grad_log_density(xs), target.grad_log_density(xs))


def test_pi_density_ratio_matches_snis_weights(rng):
    target = default_mixture()
    mode = find_mode(target, np.array([0.1]))
    kernel = LangevinKernel(target, mode)
    pi = make_pi(target, kernel)
    pts = rng.standard_normal((50, 1)) * 2.0
    ratios = np.exp(target.log_density(pts) - pi.log_density(pts))  # dP/dPi up to a constant
    expected = ratios / ratios.sum()
    got = snis_weights(pts, kernel).weights
    assert np.max(np.abs(got - expected) / expected) < 1e-12


# ----------------------------------------------------------------------
# power tilt
# ----------------------------------------------------------------------


def test_power_tilt_gradient_scales_exactly():
    target = make_gaussian([0.0])
    tilt = make_power_tilt(target, 1.0)
    assert tilt.exponent == 0.5
    x = np.array([1.3])
    np.testing.assert_array_equal(tilt.grad_log_density(x), 0.5 * target.grad_log_density(x))


def test_power_tilt_standard_normal_halves_precision():
    # p^(1/2) for a standard normal is N(0, 2) up to normalisation
    target = make_gaussian([0.0])
    tilt = make_power_tilt(target, 1.0)
    assert tilt.grad_log_density(np.array([1.0]))[0] == pytest.approx(-0.5, rel=1e-15)


def test_power_tilt_large_r_flattens():
    target = make_gaussian(np.zeros(2))
    tilt = make_power_tilt(target, 1e8)
    assert tilt.exponent < 1e-7
    x = np.array([1.0, -2.0])
    ratio = np.linalg.norm(tilt.grad_log_density(x)) / np.linalg.norm(target.grad_log_density(x))
    assert ratio < 1e-7


def test_power_tilt_rejects_nonpositive_r():
    with pytest.raises(ValueError):
        make_power_tilt(make_gaussian([0.0]), 0.0)


# ----------------------------------------------------------------------
# normalising-constant estimate
# ----------------------------------------------------------------------


def test_estimate_c2_standard_normal_vs_quadrature(rng):
    target, kernel, _ = _standard_normal_pi()
    est = estimate_c2(target, kernel, 400_000, rng)

    def integrand(x):
        return np.sqrt(1.0 + x**2) * np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi)

    truth = quad(integrand, -12, 12, limit=200)[0]
    assert abs(est.value - truth) <= 3.0 * est.standard_error


def test_estimate_c2_constant_kernel_exact(rng):
    target = make_gaussian([0.0])
    est = estimate_c2(target, ConstantKernel(4.0, dim=1), 1000, rng)
    assert est.value == 2.0
    assert est.standard_error == 0.0


def test_estimate_c2_mixture_stable_across_seeds():
    target = default_mixture()
    mode = find_mode(target, np.array([0.1]))
    kernel = LangevinKernel(target, mode)
    a = estimate_c2(target, kernel, 1_000_000, np.random.default_rng(1))
    b = estimate_c2(target, kernel, 1_000_000, np.random.default_rng(2))
    joint = np.hypot(a.standard_error, b.standard_error)
    assert abs(a.value - b.value) <= 4.0 * joint


def test_estimate_c2_needs_exact_sampler(rng):
    target = make_regression_posterior()
    mode = find_mode(target, np.zeros(2))
    with pytest.raises(NoExactSampler):
        estimate_c2(target, LangevinKernel(target, mode), 100, rng)


# ----------------------------------------------------------------------
# importance-ratio square integrability witness
# ----------------------------------------------------------------------


def test_squared_ratio_bounded_over_growing_samples():
    target, kernel, pi = _standard_normal_pi()
    sampler = GridSampler(pi, [(-12.0, 12.0)], num=24001)
    c2 = estimate_c2(target, kernel, 400_000, np.random.default_rng(5)).value
    estimates = []
    for n in (1_000, 10_000, 100_000):
        x = sampler.sample(n, np.random.default_rng(n))
        estimates.append(c2**2 * np.mean(1.0 / kernel.diag_values(x)))
    bound = c2**2 / kernel.c1_squared()
    assert all(e <= bound * 1.05 for e in estimates)
    assert max(estimates) / min(estimates) < 1.2


# ----------------------------------------------------------------------
# grid sampler plumbing
# ----------------------------------------------------------------------


def test_grid_sampler_matches_moments():
    target = default_mixture()
    sampler = GridSampler(target, [(-10.0, 10.0)], num=20001)
    x = sampler.sample(400_000, np.random.default_rng(0))[:, 0]
    true_var = 0.3 * (9 + 0.64) * 2 + 0.4
    assert abs(x.mean()) < 0.02
    assert abs(x.var() - true_var) / true_var < 0.02


def test_grid_sampler_deterministic():
    target = make_gaussian(np.zeros(2))
    sampler = GridSampler(target, [(-6, 6), (-6, 6)], num=301)
    a = sampler.sample(100, np.random.default_rng(3))
    b = sampler.sample(100, np.random.default_rng(3))
    np.testing.assert_array_equal(a, b)


def test_grid_sampler_rejects_high_dimensions():
    target = make_gaussian(np.zeros(3))
    with pytest.raises(ValueError):
        GridSampler(target, [(-1, 1)] * 3, num=11)


def test_grid_sampler_rejects_bounds_of_another_dimension():
    with pytest.raises(ValueError, match="dimension 1"):
        GridSampler(make_gaussian([0.0]), [(-1, 1)] * 2, num=11)


class _Tabulated(TargetModel):
    """A 1D target whose log density is a given function of x."""

    dim = 1

    def __init__(self, logp):
        self.logp = logp

    def _evaluate(self, x, order):
        return self.logp(x[:, 0]), None, None


@pytest.mark.parametrize(
    "target, bounds",
    [
        (_Tabulated(lambda x: np.where(x == 0.0, np.nan, 0.0)), [(-1.0, 1.0)]),
        (_Tabulated(lambda x: np.where(x == 0.0, np.inf, 0.0)), [(-1.0, 1.0)]),
        (_Tabulated(lambda x: np.full_like(x, -np.inf)), [(-1.0, 1.0)]),
    ],
    ids=["nan", "plus-inf", "all-minus-inf"],
)
def test_grid_sampler_rejects_a_grid_with_no_usable_mass(target, bounds):
    with pytest.raises(SteinpiError, match=re.escape(f"grid {[list(b) for b in bounds]} with num 11")):
        GridSampler(target, bounds, num=11)


def test_grid_nodes_at_minus_infinity_carry_no_mass():
    sampler = GridSampler(_Tabulated(lambda x: np.where(x < 0.0, -np.inf, 0.0)), [(-1.0, 1.0)], num=11)
    assert (sampler.sample(1000, np.random.default_rng(0)) >= 0.0).all()


_GRID_TARGETS = {
    "mixture": (default_mixture, [(-15.0, 15.0)], 2 * CHUNK + 1),  # a one-row last chunk
    "skew-normal": (make_skew_normal_2d, [(-6.0, 6.0)] * 2, 157),  # 157**2 = 3 CHUNK + 73
    "regression": (make_regression_posterior, None, 157),
}


def _grid_laws(name):
    """(target, laws by name, bounds, num) of a grid case; no bounds: 12 sd around the mode."""
    make, bounds, num = _GRID_TARGETS[name]
    target = make()
    mode = find_mode(target, np.full(target.dim, 0.1))
    if bounds is None:
        sd = np.sqrt(np.diag(mode.sigma))
        bounds = [(x - 12.0 * s, x + 12.0 * s) for x, s in zip(mode.x_star, sd)]
    laws = {
        "p": target,
        "power-tilt": make_power_tilt(target, 1.0),
        "pi-langevin": make_pi(target, make_kernel(target, mode, family="langevin")),
        "pi-kgm3": make_pi(target, make_kernel(target, mode, family="kgm", s=3)),
    }
    return target, laws, bounds, num


def _assert_bitwise(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("law", ["p", "power-tilt", "pi-langevin", "pi-kgm3"])
@pytest.mark.parametrize("name", list(_GRID_TARGETS))
def test_chunked_grid_tabulation_equals_a_whole_batch_evaluation(name, law):
    target, laws, bounds, num = _grid_laws(name)
    sampler = GridSampler(laws[law], bounds, num)
    nodes, table, cdf = whole_grid(laws[law], bounds, num)
    ((kept_nodes, kept_table),) = target._grid_tables.values()
    assert sampler.nodes is kept_nodes
    _assert_bitwise(kept_nodes, nodes)
    for kept, whole in zip(kept_table, table):
        _assert_bitwise(kept, whole)
    _assert_bitwise(sampler._cdf, cdf)


@pytest.mark.parametrize(
    "laws", [("p", "power-tilt", "pi-kgm3"), ("pi-kgm3", "p", "power-tilt")], ids=["p-first", "pi-first"]
)
def test_grid_samplers_leave_the_shared_table_as_evaluated(laws):
    target, by_name, bounds, num = _grid_laws("skew-normal")
    for law in laws:
        GridSampler(by_name[law], bounds, num)
    for nodes, table in target._grid_tables.values():
        order = max(k for k, a in enumerate(table) if a is not None)
        for kept, fresh in zip(table, target._at(nodes, order)):
            _assert_bitwise(kept, fresh)


@pytest.mark.parametrize("name", ["skew-normal", "regression"])
def test_grid_sampler_peak_memory_is_bounded_per_node(name):
    _, laws, bounds, _ = _grid_laws(name)
    num = 401
    tracemalloc.start()
    try:
        GridSampler(laws["pi-kgm3"], bounds, num)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 96 * num**2
