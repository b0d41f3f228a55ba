"""Transport distances: metric axioms, agreement between the 1D, LP and
assignment paths, which inputs take the assignment, the LP's feasibility
check, and the 1/d variance law of the kernel diagonal."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult, linprog

import steinpi.metrics as metrics
from steinpi.errors import DimensionMismatch, NonConvergence, SizeGuard
from steinpi.metrics import (
    _cost_by_lp,
    _marginal_constraints,
    _merged,
    wasserstein1_1d,
    wasserstein1_exact,
)
from steinpi.quantise import WeightedSample, uniform_sample

from _oracles import dimension_effect, w1_by_lcm_assignment, wasserstein1_1d_monotone


def _weighted(points, weights):
    return WeightedSample(points=np.asarray(points, dtype=float), weights=np.asarray(weights, dtype=float))


# ----------------------------------------------------------------------
# one-dimensional transport
# ----------------------------------------------------------------------


def test_w1_identical_samples_is_zero(rng):
    pts = rng.standard_normal((20, 1))
    a = uniform_sample(pts)
    assert wasserstein1_1d(a, a) == 0.0


@settings(max_examples=50, deadline=None)
@given(c=st.floats(-50, 50))
def test_w1_point_masses(c):
    a = uniform_sample(np.array([[0.0]]))
    b = uniform_sample(np.array([[c]]))
    assert wasserstein1_1d(a, b) == pytest.approx(abs(c), abs=1e-12)


def test_w1_weighted_samples_match_monotone_oracle(rng):
    for _ in range(20):
        xa = rng.standard_normal(5)
        xb = rng.standard_normal(5)
        wa = rng.random(5)
        wa /= wa.sum()
        wb = rng.random(5)
        wb /= wb.sum()
        a = _weighted(xa[:, None], wa)
        b = _weighted(xb[:, None], wb)
        oracle = wasserstein1_1d_monotone(xa, wa, xb, wb)
        assert wasserstein1_1d(a, b) == pytest.approx(oracle, abs=1e-10)


def _lexsorted(sample):
    """The sample reordered by the stable lexicographic sort that orders the W1 reference."""
    order = np.lexsort(sample.points.T[::-1])
    return _weighted(sample.points[order], sample.weights[order])


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "weighted"])
def test_w1_1d_is_bitwise_unchanged_by_a_lexsorted_reference(uniform, rng):
    # grid-rounded values tie within the reference and with the sample; the
    # stable sort keeps tied reference points in order, after the sample's
    for n in (1, 17, 100):
        a = uniform_sample(np.round(rng.standard_normal((n, 1)) * 8) / 8)
        w = np.full(2000, 1 / 2000) if uniform else rng.random(2000)
        ref = _weighted(np.round(rng.standard_normal((2000, 1)) * 8) / 8, w / w.sum())
        assert len(np.unique(ref.points)) < 100
        assert wasserstein1_1d(a, _lexsorted(ref)) == wasserstein1_1d(a, ref)
        assert wasserstein1_1d(_lexsorted(ref), a) == wasserstein1_1d(ref, a)


def test_w1_1d_rejects_multivariate(rng):
    a = uniform_sample(rng.standard_normal((4, 2)))
    with pytest.raises(DimensionMismatch):
        wasserstein1_1d(a, a)


# ----------------------------------------------------------------------
# exact discrete transport
# ----------------------------------------------------------------------


def test_exact_transport_permutation_costs_nothing(rng):
    pts = rng.standard_normal((6, 2))
    a = uniform_sample(pts)
    b = uniform_sample(pts[::-1].copy())
    assert wasserstein1_exact(a, b) == pytest.approx(0.0, abs=1e-12)


def test_exact_transport_agrees_with_1d_path(rng):
    for _ in range(10):
        a = _weighted(rng.standard_normal((7, 1)), np.full(7, 1 / 7))
        wb = rng.random(5)
        b = _weighted(rng.standard_normal((5, 1)), wb / wb.sum())
        assert wasserstein1_exact(a, b) == pytest.approx(wasserstein1_1d(a, b), abs=1e-9)


def test_exact_transport_keeps_a_weight_below_the_solver_default_tolerance(rng):
    # a weight of 8e-8 sits below the HiGHS default feasibility tolerance of
    # 1e-7; the LP must still carry it, so its plan passes the marginal check
    for _ in range(30):
        wa = rng.random(8)
        wa[0] = 8e-8 * wa[1:].sum() / (1.0 - 8e-8)
        a = _weighted(rng.standard_normal((8, 1)), wa / wa.sum())
        b = uniform_sample(rng.standard_normal((9, 1)))
        assert abs(wasserstein1_exact(a, b) - wasserstein1_1d(a, b)) <= 1e-12


def test_exact_transport_degenerate_tie():
    # two sources and two sinks at the corners of a unit square: every
    # vertex plan moving unit mass across unit edges costs exactly 1
    a = _weighted([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
    b = _weighted([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
    assert wasserstein1_exact(a, b) == pytest.approx(1.0, abs=1e-12)


def _cost(x, y):
    """Euclidean distances between the rows of x and of y."""
    return np.linalg.norm(x[:, None, :] - y[None, :, :], axis=-1)


def test_exact_transport_plan_is_feasible(rng, monkeypatch):
    # the LP's plan, on the distinct points and their summed weights
    results = []

    def recorded(*args, **kwargs):
        results.append(linprog(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(metrics, "linprog", recorded)
    wa = rng.random(6)
    wb = rng.random(4)
    pa = rng.standard_normal((5, 2))
    a = _weighted(pa[[0, 1, 2, 3, 4, 2]], wa / wa.sum())
    b = _weighted(rng.standard_normal((4, 2)), wb / wb.sum())
    cost = wasserstein1_exact(a, b)
    (res,) = results
    (ma, mass_a), (mb, mass_b) = _merged(a), _merged(b)
    gamma = res.x.reshape(5, 4)
    np.testing.assert_allclose(gamma.sum(axis=1), mass_a, atol=1e-8)
    np.testing.assert_allclose(gamma.sum(axis=0), mass_b, atol=1e-8)
    assert np.all(gamma >= 0)
    assert cost == res.fun
    assert np.sum(gamma * _cost(ma, mb)) == pytest.approx(cost, rel=1e-12)
    # equal weights, 4 divides 12, repeated points: the assignment path
    pts = rng.standard_normal((3, 2))
    a = uniform_sample(pts[[0, 0, 1, 2]])
    b = uniform_sample(np.concatenate([pts, rng.standard_normal((9, 2))]))
    cost = wasserstein1_exact(a, b)
    assert len(results) == 1  # the assignment calls no LP
    assert cost == pytest.approx(_cost_by_lp(_cost(a.points, b.points), a.weights, b.weights), rel=1e-12)


def test_exact_transport_metric_axioms(rng):
    samples = [uniform_sample(rng.standard_normal((5, 2))) for _ in range(6)]
    for s in samples[:3]:
        assert wasserstein1_exact(s, s) == pytest.approx(0.0, abs=1e-10)
    for _ in range(20):
        i, j, k = rng.integers(0, len(samples), 3)
        dij = wasserstein1_exact(samples[i], samples[j])
        dji = wasserstein1_exact(samples[j], samples[i])
        assert dij == pytest.approx(dji, abs=1e-10)
        dik = wasserstein1_exact(samples[i], samples[k])
        dkj = wasserstein1_exact(samples[k], samples[j])
        assert dij <= dik + dkj + 1e-8


@pytest.fixture
def solver_calls(monkeypatch):
    """Counts of the assignment and LP solver calls made through ``metrics``."""
    counts = {"assignment": 0, "lp": 0}

    def counted(key, solver):
        def call(*args, **kwargs):
            counts[key] += 1
            return solver(*args, **kwargs)

        return call

    for key, name in (("assignment", "linear_sum_assignment"), ("lp", "linprog")):
        monkeypatch.setattr(metrics, name, counted(key, getattr(metrics, name)))
    return counts


def _thinned(rng, n, d, distinct):
    """n equal-weight points drawn with repeats from ``distinct`` locations."""
    pts = rng.standard_normal((distinct, d))
    return uniform_sample(pts[rng.integers(0, distinct, n)])


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("na, nb", [(1, 7), (7, 1), (5, 20), (20, 5), (100, 500)])
def test_assignment_cost_equals_lp_cost(na, nb, d, rng, solver_calls):
    shared = rng.standard_normal((min(na, nb), d))
    pairs = [
        (_thinned(rng, na, d, max(1, na // 2)), uniform_sample(rng.standard_normal((nb, d)))),
        # both repeat the same points, so the cost is zero
        (uniform_sample(np.repeat(shared, na // len(shared), axis=0)),
         uniform_sample(np.repeat(shared, nb // len(shared), axis=0))),
    ]
    for a, b in pairs:
        cost = np.linalg.norm(a.points[:, None, :] - b.points[None, :, :], axis=-1)
        reference = _cost_by_lp(cost, a.weights, b.weights)
        assert wasserstein1_exact(a, b) == pytest.approx(reference, rel=1e-12, abs=1e-15)
    assert solver_calls == {"assignment": 2, "lp": 2}


@pytest.mark.parametrize("d", [2, 3])
def test_lp_cost_equals_an_assignment_on_lcm_copies(d, rng, solver_calls):
    # 6 picks from 4 locations against 15 points: 15 is no multiple of 6,
    # so the LP solves it, while the oracle assigns lcm(6, 15) = 30 copies
    for _ in range(5):
        a, b = _thinned(rng, 6, d, 4), uniform_sample(rng.standard_normal((15, d)))
        assert wasserstein1_exact(a, b) == pytest.approx(w1_by_lcm_assignment(a, b), rel=1e-12, abs=0)
    assert solver_calls == {"assignment": 0, "lp": 5}


@pytest.mark.parametrize(
    "a, b",
    [
        pytest.param(
            _weighted(np.eye(5, 2), [0.1, 0.2, 0.3, 0.2, 0.2]), uniform_sample(np.ones((20, 2))),
            id="non-uniform-weights",
        ),
        pytest.param(uniform_sample(np.eye(3, 2)), uniform_sample(np.ones((5, 2))), id="3x5-not-divisible"),
        pytest.param(uniform_sample(np.zeros((1, 2))), uniform_sample(np.eye(1001, 2)), id="1x1001-over-guard"),
    ],
)
def test_inputs_without_the_assignment_property_take_the_lp(a, b, solver_calls):
    wasserstein1_exact(a, b)
    assert solver_calls == {"assignment": 0, "lp": 1}


def test_lp_on_merged_points_equals_the_lp_on_every_point(rng, solver_calls):
    # repeated points, one of them twice with zero weight, in both samples:
    # the LP on the distinct points costs what the LP on every point does
    pa, pb = rng.standard_normal((4, 2)), rng.standard_normal((5, 2))
    a = _weighted(pa[[0, 1, 1, 2, 3, 3, 0]], [0.1, 0.2, 0.1, 0.3, 0.0, 0.0, 0.3])
    b = _weighted(pb[[0, 0, 1, 2, 3, 4, 4, 4]], [0.05, 0.15, 0.2, 0.1, 0.1, 0.2, 0.1, 0.1])
    reference = _cost_by_lp(_cost(a.points, b.points), a.weights, b.weights)
    assert wasserstein1_exact(a, b) == pytest.approx(reference, rel=1e-12)
    assert solver_calls == {"assignment": 0, "lp": 2}


_LP_INPUT = (_weighted(np.eye(3, 2)[[0, 1, 1, 2]], [0.1, 0.2, 0.3, 0.4]), uniform_sample(np.ones((2, 2))))


def test_a_failed_lp_raises_non_convergence(monkeypatch):
    failed = OptimizeResult(success=False, message="stub failure")
    monkeypatch.setattr(metrics, "linprog", lambda *args, **kwargs: failed)
    with pytest.raises(NonConvergence, match="transport LP failed: stub failure"):
        wasserstein1_exact(*_LP_INPUT)


@pytest.mark.parametrize("error", [1e-6, 1e-10])
def test_an_lp_plan_off_its_merged_marginals_raises_non_convergence(error, monkeypatch):
    def perturbed(*args, **kwargs):
        res = linprog(*args, **kwargs)
        res.x[0] += error  # the first merged row and column sums move by error
        return res

    monkeypatch.setattr(metrics, "linprog", perturbed)
    if error > 1e-8:
        with pytest.raises(NonConvergence, match="transport plan infeasible"):
            wasserstein1_exact(*_LP_INPUT)
    else:
        assert wasserstein1_exact(*_LP_INPUT) > 0


@pytest.mark.parametrize("na, path", [(30, "lp"), (100, "assignment")])
def test_exact_transport_is_bitwise_unchanged_by_a_lexsorted_reference(na, path, rng, solver_calls):
    # the LP sees the same distinct points; the assignment's matched
    # distances are summed exactly, so their order does not matter
    ref = uniform_sample(np.round(rng.standard_normal((500, 2)) * 4) / 4)
    assert len(np.unique(ref.points, axis=0)) < 500
    a = _thinned(rng, na, 2, na // 2)
    assert wasserstein1_exact(a, _lexsorted(ref)) == wasserstein1_exact(a, ref)
    assert solver_calls == {"assignment": 0, "lp": 0, path: 2}


@pytest.mark.parametrize("na, nb", [(1, 1), (1, 4), (4, 1), (3, 5), (40, 17)])
def test_marginal_constraints_match_loop_reference(na, nb):
    # the loop build the vectorised one replaced: same COO entries in the same order
    rows, cols = [], []
    for i in range(na):
        rows.extend([i] * nb)
        cols.extend(range(i * nb, (i + 1) * nb))
    for j in range(nb - 1):
        rows.extend([na + j] * na)
        cols.extend(range(j, na * nb, nb))
    a_eq = _marginal_constraints(na, nb)
    assert a_eq.shape == (na + nb - 1, na * nb)
    np.testing.assert_array_equal(a_eq.row, rows)
    np.testing.assert_array_equal(a_eq.col, cols)
    np.testing.assert_array_equal(a_eq.data, np.ones(len(rows)))


def test_exact_transport_size_guard():
    a = uniform_sample(np.zeros((1001, 2)))
    b = uniform_sample(np.zeros((1000, 2)))
    with pytest.raises(SizeGuard):
        wasserstein1_exact(a, b)


def test_exact_transport_dimension_mismatch(rng):
    a = uniform_sample(rng.standard_normal((3, 1)))
    b = uniform_sample(rng.standard_normal((3, 2)))
    with pytest.raises(DimensionMismatch):
        wasserstein1_exact(a, b)


# ----------------------------------------------------------------------
# dimension diagnostic
# ----------------------------------------------------------------------


def test_dimension_effect_one_dimensional():
    estimate, predicted = dimension_effect(1, 1_000_000, seed=0)
    assert predicted == 2.0
    assert abs(estimate - predicted) / predicted < 0.05


def test_dimension_effect_high_dimension():
    estimate, predicted = dimension_effect(100, 1_000_000, seed=0)
    assert predicted == pytest.approx(0.02)
    assert abs(estimate - predicted) / predicted < 0.10


def test_dimension_effect_inverse_law():
    preds = [dimension_effect(d, 100, seed=0)[1] for d in (1, 10, 100)]
    np.testing.assert_allclose(preds, np.array([100.0, 10.0, 1.0]) * 0.02)


def test_dimension_effect_converges_with_sample_size():
    small = dimension_effect(10, 10_000, seed=3)
    big = dimension_effect(10, 1_000_000, seed=3)
    err_small = abs(small[0] / small[1] - 1.0)
    err_big = abs(big[0] / big[1] - 1.0)
    assert err_big < err_small
