"""Row invariance of batched evaluation: row r of a batch is bitwise the
batch of one at that row.  Lockstep MALA ensembles rely on it, so that a
chain does not depend on the batch it runs in."""

import numpy as np
import pytest

from steinpi.experiment import build_target
from steinpi.kernels import make_kernel
from steinpi.pi_targets import make_pi, make_power_tilt
from steinpi.quantise import WeightedSample, uniform_sample
from steinpi.targets import default_mixture, find_mode

TARGETS = {
    "gaussian-2d": {"name": "gaussian", "mean": [0.5, -1.0], "cov": [[2.0, 0.3], [0.3, 1.0]]},
    "gaussian-5d": {"name": "gaussian", "mean": [0.5, -1.0, 2.0, 0.0, 1.0],
                    "cov": (np.eye(5) + 0.2 * np.ones((5, 5))).tolist()},
    "mixture": {"name": "mixture"},
    "regression": {"name": "regression"},
    "skew_normal": {"name": "skew_normal"},
    "garch": {"name": "garch"},
}


def _assert_rows_match_single_calls(fn, batch):
    """fn(batch)[r] == fn(batch[r : r + 1])[0] bitwise, for every output of fn."""
    full = fn(batch)
    full = full if isinstance(full, tuple) else (full,)
    for r in range(len(batch)):
        single = fn(batch[r : r + 1])
        single = single if isinstance(single, tuple) else (single,)
        for f, s in zip(full, single):
            np.testing.assert_array_equal(f[r], s[0])


@pytest.fixture(scope="module", params=sorted(TARGETS))
def target_and_mode(request):
    target = build_target(TARGETS[request.param])
    return target, find_mode(target, np.zeros(target.dim), max_iter=400)


@pytest.mark.parametrize("size", [7, 64])
def test_batch_rows_equal_single_point_calls(target_and_mode, size):
    target, mode = target_and_mode
    rng = np.random.default_rng(size)
    scale = np.sqrt(np.diag(mode.sigma))
    batch = mode.x_star + 1.5 * scale * rng.standard_normal((size, target.dim))
    _assert_rows_match_single_calls(target.log_density_with_grad, batch)
    _assert_rows_match_single_calls(target.hessian_log_density, batch)
    tilt = make_power_tilt(target, 1.0)
    _assert_rows_match_single_calls(tilt.log_density_with_grad, batch)
    _assert_rows_match_single_calls(tilt.hessian_log_density, batch)
    for family in ("langevin", "kgm"):
        kernel = make_kernel(target, mode, family=family, s=3)
        _assert_rows_match_single_calls(kernel.diag_values, batch)
        _assert_rows_match_single_calls(kernel.diag_grads, batch)
        _assert_rows_match_single_calls(make_pi(target, kernel).log_density_with_grad, batch)


def test_lower_orders_do_not_depend_on_the_order_the_hook_ran_at(target_and_mode):
    # a stack of laws evaluates p at the order pi needs, one above its own,
    # so p's log density and gradient must not move with the hook's order
    target, mode = target_and_mode
    rng = np.random.default_rng(5)
    batch = mode.x_star + 1.5 * np.sqrt(np.diag(mode.sigma)) * rng.standard_normal((16, target.dim))
    at0, at1, at2 = (target._evaluate(batch, order) for order in range(3))
    np.testing.assert_array_equal(at2[0], at1[0])
    np.testing.assert_array_equal(at2[1], at1[1])
    np.testing.assert_array_equal(at2[0], at0[0])


_MIXTURE = default_mixture()
_KERNEL = make_kernel(_MIXTURE, find_mode(_MIXTURE, np.array([0.1])), family="langevin")


@pytest.mark.parametrize(
    "call",
    [
        _MIXTURE.log_density,
        _MIXTURE.grad_log_density,
        _MIXTURE.hessian_log_density,
        _MIXTURE.log_density_with_grad,
        _KERNEL.context,
        _KERNEL.diag_values,
        _KERNEL.diag_grads,
        lambda x: WeightedSample(points=x, weights=np.full(3, 1.0 / 3.0)),
        uniform_sample,
    ],
    ids=["log_density", "grad_log_density", "hessian_log_density", "log_density_with_grad",
         "context", "diag_values", "diag_grads", "WeightedSample", "uniform_sample"],
)
def test_a_flat_array_is_not_a_point_set(call):
    # on the 1-D mixture [0.1, 0.2, 0.3] could read as three points or as one
    # point of dimension 3; every layer refuses it alike and names (n, d)
    with pytest.raises(ValueError, match=r"as an \(n, d\) array, got shape \(3,\)"):
        call(np.array([0.1, 0.2, 0.3]))
