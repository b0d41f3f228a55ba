"""Post-processing: exact small-instance optima, greedy equivalence with an
uncached reference, weight dominance, and the simplex invariants."""

import re

import numpy as np
import pytest
from scipy.linalg.lapack import dgesv

from steinpi.errors import GramTooLarge, InvalidSimplex, NegativeQuadraticForm
from steinpi.grid import GridSampler
from steinpi.kernels import LangevinKernel, make_kernel
from steinpi.mala import AdaptSchedule, adaptive_warmup, random_window
from steinpi.pi_targets import make_pi
from steinpi.quantise import (
    WeightedSample,
    _affine_minimiser,
    greedy_thin,
    ksd,
    optimal_weights,
    quadratic_form,
    uniform_sample,
)
from steinpi.targets import default_mixture, find_mode, make_gaussian

from _oracles import (
    ConstantKernel,
    greedy_reference,
    kkt_residual,
    qp_grid_search,
    qp_nnls,
    qp_support_enumeration,
    snis_weights,
    wolfe_reference,
)


def _std_normal_kernel():
    target = make_gaussian([0.0])
    mode = find_mode(target, np.array([1.0]))
    return target, LangevinKernel(target, mode)


class _ScaledKernel:
    """Kernel multiplied by a positive constant; used for equivariance."""

    def __init__(self, kernel, c):
        self.kernel = kernel
        self.c = c

    def context(self, x, score=None):
        return self.kernel.context(x, score)

    def cross(self, x, y):
        return self.c * self.kernel.cross(x, y)

    def gram(self, ctx):
        return self.c * self.kernel.gram(ctx)

    def _diag_at(self, ctx, hess=None):
        values, grads = self.kernel._diag_at(ctx, hess)
        return self.c * values, None if grads is None else self.c * grads


# ----------------------------------------------------------------------
# weighted samples
# ----------------------------------------------------------------------


def test_weighted_sample_validation():
    pts = np.zeros((3, 1))
    with pytest.raises(InvalidSimplex):
        WeightedSample(points=pts, weights=np.array([0.5, 0.6, 0.1]))
    with pytest.raises(InvalidSimplex):
        WeightedSample(points=pts, weights=np.array([0.5, 0.6, -0.1]))
    with pytest.raises(InvalidSimplex):
        WeightedSample(points=pts, weights=np.array([0.5, np.nan, 0.5]))
    ws = uniform_sample(np.arange(3.0))
    assert ws.dim == 1 and ws.n == 3


# ----------------------------------------------------------------------
# discrepancy evaluation
# ----------------------------------------------------------------------


def test_ksd_single_point_at_mode():
    _, kernel = _std_normal_kernel()
    sample = uniform_sample(np.array([[0.0]]))
    assert ksd(sample, kernel.gram(kernel.context(sample.points))) == 1.0  # sqrt(k_P(0)) with k_P(0) = 1


def test_ksd_degenerate_weights_match_single_point_bitwise():
    _, kernel = _std_normal_kernel()
    pts = np.array([[0.3], [1.2], [-0.7]])
    concentrated = WeightedSample(points=pts, weights=np.array([1.0, 0.0, 0.0]))
    single = uniform_sample(pts[:1])
    gram = kernel.gram(kernel.context(pts))
    assert ksd(concentrated, gram) == ksd(single, kernel.gram(kernel.context(pts[:1])))


def test_ksd_uniform_weights_decrease_with_sample_size():
    target, kernel = _std_normal_kernel()
    wins = 0
    block = 1000
    for seed in range(10):
        rng = np.random.default_rng(seed)
        big = target.sample(10_000, rng)
        small = big[:100]
        # blockwise V-statistic over the upper triangle; a dense 1e4 Gram
        # would not fit comfortably in memory
        total = 0.0
        for li, lo in enumerate(range(0, len(big), block)):
            rows = big[lo : lo + block]
            ctx = kernel.context(rows)
            total += kernel.cross(ctx, ctx).sum()
            if lo + block < len(big):
                total += 2.0 * kernel.cross(ctx, kernel.context(big[lo + block :])).sum()
        ksd_big = np.sqrt(max(total, 0.0)) / len(big)
        ksd_small = ksd(uniform_sample(small), kernel.gram(kernel.context(small)))
        wins += ksd_big < ksd_small
    assert wins == 10


def test_negative_quadratic_form_detected():
    broken = np.array([[1.0, -2.0], [-2.0, 1.0]])  # indefinite, as no kernel's Gram is
    with pytest.raises(NegativeQuadraticForm):
        ksd(uniform_sample(np.zeros((2, 1))), broken)


def test_quadratic_form_clamps_rounding_negatives():
    gram = np.array([[1.0, -1.0], [-1.0, 1.0 - 1e-14]])
    assert quadratic_form(gram, np.array([0.5, 0.5])) == 0.0


# ----------------------------------------------------------------------
# optimal weights
# ----------------------------------------------------------------------


def test_qp_single_point():
    _, kernel = _std_normal_kernel()
    res = optimal_weights(kernel.gram(kernel.context(np.array([[0.7]]))))
    np.testing.assert_array_equal(res.weights, [1.0])
    assert res.objective == pytest.approx(kernel.diag_values(np.array([[0.7]]))[0], rel=1e-14)


def test_qp_symmetric_pair_splits_evenly():
    _, kernel = _std_normal_kernel()
    res = optimal_weights(kernel.gram(kernel.context(np.array([[-1.3], [1.3]]))))
    np.testing.assert_allclose(res.weights, [0.5, 0.5], atol=1e-9)
    assert res.converged


def test_qp_three_points_match_simplex_grid_search(rng):
    _, kernel = _std_normal_kernel()
    for _ in range(5):
        pts = rng.standard_normal((3, 1)) * 1.5
        gram = kernel.gram(kernel.context(pts))
        res = optimal_weights(gram)
        grid_best = qp_grid_search(gram, resolution=1e-3)
        assert res.objective <= grid_best + 1e-4
        assert abs(res.objective - grid_best) < 1e-4


def test_qp_matches_support_enumeration(rng):
    _, kernel = _std_normal_kernel()
    for _ in range(10):
        n = int(rng.integers(2, 9))
        pts = rng.standard_normal((n, 1)) * 2.0
        gram = kernel.gram(kernel.context(pts))
        res = optimal_weights(gram)
        exact, _ = qp_support_enumeration(gram)
        assert res.objective <= exact + 1e-8
        assert abs(res.objective - exact) <= 1e-8 * max(1.0, exact) + 1e-10


def test_qp_with_linear_term(rng):
    # the Stein objective has no linear term (z = 0); the solver needs no
    # Stein structure, only a PSD Gram, here a random one
    a = rng.standard_normal((5, 5))
    gram = a @ a.T + 5 * np.eye(5)

    res = optimal_weights(gram)
    exact, _ = qp_support_enumeration(gram)
    assert abs(res.objective - exact) <= 1e-7 * max(1.0, abs(exact))


def test_qp_kkt_conditions_at_solution(rng):
    _, kernel = _std_normal_kernel()
    for seed in range(10):
        pts = np.random.default_rng(seed).standard_normal((8, 1)) * 2.0
        gram = kernel.gram(kernel.context(pts))
        res = optimal_weights(gram)
        assert res.objective >= 0.0
        assert res.duality_gap <= 1e-8 * max(1.0, res.objective)
        kw = gram @ res.weights
        lam = res.weights @ kw
        on = res.weights > 1e-8
        tol = 1e-6 * max(1.0, np.max(np.abs(kw)))
        assert np.all(np.abs(kw[on] - lam) <= tol)
        if np.any(~on):
            assert np.all(kw[~on] >= lam - tol)
        assert kkt_residual(kw, res.weights) <= 1e-6


def test_qp_iteration_budget_returns_flagged_best(rng):
    _, kernel = _std_normal_kernel()
    pts = rng.standard_normal((40, 1))
    gram = kernel.gram(kernel.context(pts))
    res = optimal_weights(gram, max_iter=3)
    assert not res.converged
    assert res.iterations == 3
    assert res.objective <= quadratic_form(gram, np.full(40, 1 / 40)) + 1e-12


def test_qp_matches_nnls_oracle_on_mala_window_with_repeats():
    target = default_mixture()
    mode = find_mode(target, np.array([0.1]))
    kernel = LangevinKernel(target, mode)
    schedule = AdaptSchedule(epoch_lengths=(500,) * 5 + (8000,), learning_rates=(0.3,) * 5)
    _, out = adaptive_warmup(mode.x_star[None], make_pi(target, kernel), schedule, seed=5, stream=[(0,)])
    pts = random_window(out.states, 1000, np.random.default_rng(0))
    assert len(np.unique(pts[:, 0])) < 700  # rejected proposals repeat states
    gram = kernel.gram(kernel.context(pts))
    res = optimal_weights(gram)
    oracle, _ = qp_nnls(gram)
    assert res.converged
    assert res.objective <= oracle * (1.0 + 1e-8)
    assert kkt_residual(gram @ res.weights, res.weights) <= 1e-6


def test_qp_tripled_duplicates_singular_support(rng):
    _, kernel = _std_normal_kernel()
    base = rng.standard_normal((8, 1)) * 2.0
    pts = np.repeat(base, 3, axis=0)
    gram = kernel.gram(kernel.context(pts))
    # a support holding two copies of a state has a singular K_SS; the
    # bordered solve must still return the affine minimiser
    support = np.array([0, 1, 3, 6])
    v = _affine_minimiser(gram, support)
    kv = gram[np.ix_(support, support)] @ v
    assert np.all(np.isfinite(v)) and abs(v.sum() - 1.0) <= 1e-12
    assert np.max(np.abs(kv - kv.mean())) <= 1e-10
    # copies tie in the gradient, so the full solve matches the deduplicated problem
    res = optimal_weights(gram)
    exact, _ = qp_support_enumeration(kernel.gram(kernel.context(base)))
    assert res.converged
    assert abs(res.objective - exact) <= 1e-8 * exact + 1e-12
    assert kkt_residual(gram @ res.weights, res.weights) <= 1e-6
    assert abs(res.weights.sum() - 1.0) <= 1e-12


def test_affine_minimiser_least_squares_on_exactly_singular_system():
    _, kernel = _std_normal_kernel()
    copy = np.array([0, 1, 0, 2])  # state 0 twice, as a rejected proposal repeats it
    gram = kernel.gram(kernel.context(np.array([[0.3], [-1.2], [2.0]])))[np.ix_(copy, copy)]
    support = np.array([0, 1, 2])  # two identical Gram rows
    m = len(support)
    system = np.ones((m + 1, m + 1))
    system[:m, :m] = gram[np.ix_(support, support)]
    system[m, m] = 0.0
    rhs = np.eye(m + 1)[m]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(system, rhs)
    assert dgesv(system, rhs)[3] > 0  # LAPACK reports the zero pivot
    v = _affine_minimiser(gram, support)
    kv = gram[np.ix_(support, support)] @ v
    assert np.all(np.isfinite(v)) and abs(v.sum() - 1.0) <= 1e-12
    assert np.max(np.abs(kv - kv.mean())) <= 1e-12 * np.max(np.abs(gram))


def _reference_cases():
    """(label, Gram) pairs: exact-grid windows of the mixture for p and pi
    under Langevin and KGM-3, a MALA window with repeated states and the
    tripled-duplicates Gram."""
    target = default_mixture()
    mode = find_mode(target, np.array([0.1]))
    for family in ("langevin", "kgm"):
        kernel = make_kernel(target, mode, family=family, s=3)
        for name, law in (("p", target), ("pi", make_pi(target, kernel))):
            sampler = GridSampler(law, [(-15.0, 15.0)], num=30001)
            for n in (10, 30, 100):
                pts = sampler.sample(n, np.random.default_rng(n))
                yield f"{name}-{family}-{n}", kernel.gram(kernel.context(pts))
    kernel = LangevinKernel(target, mode)
    schedule = AdaptSchedule(epoch_lengths=(200,) * 3 + (2000,), learning_rates=(0.3,) * 3)
    _, out = adaptive_warmup(mode.x_star[None], make_pi(target, kernel), schedule, seed=3, stream=[(0,)])
    pts = random_window(out.states, 100, np.random.default_rng(0))
    assert len(np.unique(pts[:, 0])) < 100  # rejected proposals repeat states
    yield "mala-pi-100", kernel.gram(kernel.context(pts))
    _, kernel = _std_normal_kernel()
    base = np.random.default_rng(11).standard_normal((8, 1)) * 2.0
    yield "tripled-24", kernel.gram(kernel.context(np.repeat(base, 3, axis=0)))


def test_qp_matches_reference_solver():
    # the minimiser need not be unique (weight can move between copies of
    # a repeated state), so objectives are compared, not weights
    report = []
    for label, gram in _reference_cases():
        res = optimal_weights(gram)
        ref = wolfe_reference(gram)
        report.append(f"{label}: {res.iterations} / {ref.iterations}")
        assert res.converged == ref.converged, label
        assert res.converged, label
        assert abs(res.objective - ref.objective) <= 1e-11 * abs(ref.objective), label
    print("major steps (solver / reference):", "; ".join(report))


@pytest.mark.parametrize("shape", [(0, 0), (2, 3), (3, 2), (4,), (2, 2, 2)])
def test_qp_refuses_non_square_gram(shape):
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        optimal_weights(np.ones(shape))


def test_gram_size_guard_stops_a_qp_sized_gram():
    _, kernel = _std_normal_kernel()
    with pytest.raises(GramTooLarge):  # raised by SteinKernel.cross: optimal_weights has no guard of its own
        optimal_weights(kernel.gram(kernel.context(np.zeros((20_001, 1)))))


def test_qp_objective_never_above_uniform(rng):
    # the certified optimum can never lie above the uniform weights
    target, kernel = _std_normal_kernel()
    for seed in range(5):
        pts = target.sample(60, np.random.default_rng(seed))
        gram = kernel.gram(kernel.context(pts))
        res = optimal_weights(gram)
        assert res.objective <= quadratic_form(gram, np.full(60, 1 / 60)) + 1e-12


def test_scaling_kernel_leaves_weights_and_selection_unchanged(rng):
    _, kernel = _std_normal_kernel()
    scaled = _ScaledKernel(kernel, 4.0)
    pts = rng.standard_normal((12, 1))
    res_base = optimal_weights(kernel.gram(kernel.context(pts)))
    res_scaled = optimal_weights(scaled.gram(scaled.context(pts)))
    np.testing.assert_allclose(res_base.weights, res_scaled.weights, atol=1e-9)
    assert res_scaled.objective == pytest.approx(4.0 * res_base.objective, rel=1e-9)
    idx_base = greedy_thin(kernel.context(pts), kernel, 6)
    idx_scaled = greedy_thin(scaled.context(pts), scaled, 6)
    np.testing.assert_array_equal(idx_base, idx_scaled)


# ----------------------------------------------------------------------
# greedy thinning
# ----------------------------------------------------------------------


def test_greedy_first_pick_minimises_diagonal():
    _, kernel = _std_normal_kernel()
    pts = np.array([[2.0], [0.1], [-1.0], [0.5]])
    idx = greedy_thin(kernel.context(pts), kernel, 1)
    assert idx[0] == 1  # closest to the mode, smallest k_P


def test_greedy_matches_uncached_reference(rng):
    _, kernel = _std_normal_kernel()
    pts = rng.standard_normal((30, 1)) * 2.0
    fast = greedy_thin(kernel.context(pts), kernel, 5)
    slow = greedy_reference(pts, kernel, 5)
    np.testing.assert_array_equal(fast, slow)


def test_greedy_allows_repeated_selection():
    _, kernel = _std_normal_kernel()
    pts = np.array([[0.0], [10.0], [11.0]])
    idx = greedy_thin(kernel.context(pts), kernel, 3)
    assert (idx == 0).sum() >= 2


def test_greedy_full_support_never_beats_optimal(rng):
    target, kernel = _std_normal_kernel()
    pts = target.sample(40, rng)
    gram = kernel.gram(kernel.context(pts))
    thinned = uniform_sample(pts[greedy_thin(kernel.context(pts), kernel, 40)])
    optimal = optimal_weights(gram)
    best = WeightedSample(points=pts, weights=optimal.weights)
    assert ksd(best, gram) <= ksd(thinned, kernel.gram(kernel.context(thinned.points))) + 1e-8


def test_greedy_uniform_weights():
    _, kernel = _std_normal_kernel()
    pts = np.linspace(-2, 2, 9)[:, None]
    out = uniform_sample(pts[greedy_thin(kernel.context(pts), kernel, 4)])
    np.testing.assert_array_equal(out.weights, np.full(4, 0.25))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_greedy_refuses_non_finite_candidates(bad):
    _, kernel = _std_normal_kernel()
    with pytest.raises(ValueError, match="finite"):
        greedy_thin(kernel.context(np.array([[bad], [1.0]])), kernel, 1)


# ----------------------------------------------------------------------
# root-diagonal importance weights
# ----------------------------------------------------------------------


def test_snis_constant_kernel_gives_uniform():
    out = snis_weights(np.arange(5.0)[:, None], ConstantKernel(9.0, dim=1))
    np.testing.assert_allclose(out.weights, np.full(5, 0.2), rtol=1e-15)


def test_snis_weights_closed_form():
    _, kernel = _std_normal_kernel()
    out = snis_weights(np.array([[0.0], [3.0]]), kernel)
    raw = np.array([1.0, 1.0 / np.sqrt(10.0)])  # k_P = 1 + x^2
    np.testing.assert_allclose(out.weights, raw / raw.sum(), rtol=1e-14)


def test_optimal_dominates_snis_on_overdispersed_samples():
    target, kernel = _std_normal_kernel()
    pi = make_pi(target, kernel)
    sampler = GridSampler(pi, [(-12.0, 12.0)], num=24001)
    for seed in range(20):
        pts = sampler.sample(40, np.random.default_rng(seed))
        gram = kernel.gram(kernel.context(pts))
        res = optimal_weights(gram)
        best = WeightedSample(points=pts, weights=res.weights)
        assert ksd(best, gram) <= ksd(snis_weights(pts, kernel), gram) + 1e-8
        assert ksd(best, gram) <= ksd(uniform_sample(pts), gram) + 1e-8
