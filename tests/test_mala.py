"""Sampler: exact detailed balance, stream determinism and restartability,
preconditioner equivalence under a linear change of variables, and the
adaptive warm-up behaviour."""

import numpy as np
import pytest

from steinpi.kernels import LangevinKernel
from steinpi.mala import (
    AdaptSchedule,
    ChainConfig,
    _Precond,
    _step,
    _step_size,
    _stream_randoms,
    adaptive_warmup,
    random_window,
    run_chain,
)
from steinpi.kernels import make_kernel
from steinpi.pi_targets import make_pi
from steinpi.targets import (
    TargetModel,
    default_mixture,
    find_mode,
    make_gaussian,
    make_regression_posterior,
)

from _oracles import mala_chain_reference, mala_log_ratio_reference


def _cfg(eps, m, n, seed=0, stream=()):
    """The config of one chain: an ensemble of R = 1 on stream key ``stream``."""
    return ChainConfig(epsilon=np.array([eps]), m=np.atleast_2d(m)[None], n=n, seed=seed, stream=(stream,))


# ----------------------------------------------------------------------
# single step
# ----------------------------------------------------------------------


def test_step_small_epsilon_stays_and_accepts(rng):
    target = make_gaussian(np.zeros(2))
    eps = 1e-12
    pre = _Precond(np.eye(2))
    for _ in range(100):
        x = rng.standard_normal(2)
        logp, grad = target.log_density_with_grad(x)
        z = rng.standard_normal(2)
        res = _step(x, logp, pre.whiten(grad), target, _step_size(eps), pre, z, 0.5 * z @ z, np.log(rng.random()))
        assert np.linalg.norm(res.proposal - x) < 1e-5
        assert abs(res.log_ratio) < 1e-8
        assert res.accepted


def test_step_log_ratio_matches_proposal_density_oracle(rng):
    target = make_gaussian([0.0])
    eps = 0.5
    pre = _Precond(np.eye(1))
    for _ in range(100):
        x = rng.standard_normal(1)
        logp, grad = target.log_density_with_grad(x)
        z = rng.standard_normal(1)
        res = _step(x, logp, pre.whiten(grad), target, _step_size(eps), pre, z, 0.5 * z @ z, np.log(rng.random()))
        oracle = mala_log_ratio_reference(x, res.proposal, eps, np.eye(1), target)
        assert abs(res.log_ratio - oracle) < 1e-12


def test_step_log_ratio_oracle_random_configurations(rng):
    for _ in range(100):
        d = int(rng.integers(1, 4))
        target = make_gaussian(rng.standard_normal(d))
        eps = float(rng.uniform(0.05, 1.0))
        a = rng.standard_normal((d, d))
        m = a @ a.T + d * np.eye(d)
        pre = _Precond(m)
        x = rng.standard_normal(d)
        logp, grad = target.log_density_with_grad(x)
        z = rng.standard_normal(d)
        res = _step(x, logp, pre.whiten(grad), target, _step_size(eps), pre, z, 0.5 * z @ z, np.log(rng.random()))
        oracle = mala_log_ratio_reference(x, res.proposal, eps, m, target)
        assert abs(res.log_ratio - oracle) < 1e-12


def test_proposal_noise_scale_with_scalar_preconditioner(rng):
    # with M = 4, the injected noise has standard deviation sqrt(2 eps / 4)
    eps = 0.3
    pre = _Precond(np.array([[4.0]]))
    z = rng.standard_normal((100_000, 1))
    noise = np.sqrt(2 * eps) * np.array([pre.sqrt_inv_apply(zz) for zz in z])[:, 0]
    assert abs(noise.std() - np.sqrt(eps / 2.0)) / np.sqrt(eps / 2.0) < 0.01


def test_ensemble_call_form_shapes_and_pooled_statistics():
    # axis 0 counts chain steps, chain by chain; the scalar statistics pool the chains
    target = make_gaussian(np.zeros(2))
    cfg = ChainConfig(
        epsilon=np.array([0.2, 0.5, 1.5]),
        m=np.stack([np.eye(2), 2.0 * np.eye(2), np.diag([1.0, 3.0])]),
        n=40,
        seed=3,
        stream=((0,), (1,), (2,)),
    )
    out = run_chain(np.zeros((3, 2)), target, cfg)
    assert out.states.shape == (3 * 40, 2)
    assert out.accept_flags.shape == (3 * 40,)
    np.testing.assert_array_equal(out.chain_accept_rates, out.accept_flags.reshape(3, 40).mean(axis=1))
    assert out.accept_rate == out.accept_flags.mean()
    assert out.nonfinite_proposals == 0
    for r in range(3):  # chain r alone is rows r * 40 .. r * 40 + 39
        alone = ChainConfig(epsilon=cfg.epsilon[r : r + 1], m=cfg.m[r : r + 1], n=40, seed=3, stream=((r,),))
        np.testing.assert_array_equal(run_chain(np.zeros((1, 2)), target, alone).states, out.states[40 * r : 40 * r + 40])
    with pytest.raises(ValueError):
        run_chain(np.zeros((2, 2)), target, cfg)  # three stream keys for two chains


class _BoundedTarget(TargetModel):
    """Returns NaN outside a ball; exercises nonfinite-proposal handling."""

    dim = 1

    def _evaluate(self, x, order):
        out = -0.5 * x[:, 0] ** 2
        out[np.abs(x[:, 0]) > 1.5] = np.nan
        return out, -x, None


def test_nonfinite_proposals_counted_not_raised():
    out = run_chain(np.zeros((1, 1)), _BoundedTarget(), _cfg(2.0, np.eye(1), 500, seed=11))
    assert out.nonfinite_proposals > 0
    assert np.all(np.abs(out.states) <= 1.5)
    assert np.all(np.isfinite(out.states))


# ----------------------------------------------------------------------
# whole chains
# ----------------------------------------------------------------------


def test_chain_is_deterministic_given_seed():
    target = make_gaussian(np.zeros(2))
    cfg = _cfg(0.6, np.eye(2), 200, seed=42, stream=(3,))
    a = run_chain(np.zeros((1, 2)), target, cfg)
    b = run_chain(np.zeros((1, 2)), target, cfg)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.accept_flags, b.accept_flags)


def test_chain_restart_reproduces_tail_bitwise():
    target = make_gaussian(np.zeros(2))
    full = run_chain(np.zeros((1, 2)), target, _cfg(0.6, np.eye(2), 120, seed=7, stream=(1,)))
    k = 50
    tail = run_chain(
        full.states[k : k + 1], target, _cfg(0.6, np.eye(2), 120 - k - 1, seed=7, stream=(1,)), start_step=k + 1
    )
    np.testing.assert_array_equal(full.states[k + 1 :], tail.states)


def test_ensemble_restart_reproduces_tail_bitwise():
    target = make_gaussian(np.zeros(2))
    cfg = ChainConfig(
        epsilon=np.array([0.3, 0.6, 1.2]),
        m=np.stack([np.eye(2), np.diag([2.0, 0.5]), np.array([[1.0, 0.3], [0.3, 2.0]])]),
        n=120,
        seed=7,
        stream=((1, 0), (1, 1), (1, 2)),
    )
    full = run_chain(np.zeros((3, 2)), target, cfg)
    states, flags = full.states.reshape(3, 120, 2), full.accept_flags.reshape(3, 120)
    k = 50
    tail_cfg = ChainConfig(epsilon=cfg.epsilon, m=cfg.m, n=120 - k - 1, seed=7, stream=cfg.stream)
    tail = run_chain(states[:, k], target, tail_cfg, start_step=k + 1)
    np.testing.assert_array_equal(states[:, k + 1 :], tail.states.reshape(3, -1, 2))
    np.testing.assert_array_equal(flags[:, k + 1 :], tail.accept_flags.reshape(3, -1))


@pytest.mark.parametrize("name", ["regression", "mixture"])
@pytest.mark.parametrize("law", ["p", "pi"])
def test_chain_does_not_depend_on_its_ensemble(name, law):
    # chain r's warm-up and production are bitwise the same run alone and
    # inside ensembles of 7 and 64 chains
    target = make_regression_posterior() if name == "regression" else default_mixture()
    mode = find_mode(target, np.full(target.dim, 0.1))
    if law == "pi":
        target = make_pi(target, make_kernel(target, mode, family="langevin"))
    inits = mode.x_star + 0.3 * np.random.default_rng(1).standard_normal((64, target.dim))
    schedule = AdaptSchedule(epsilon0=0.5, epoch_lengths=(60, 60, 100), learning_rates=(0.3, 0.3))
    streams = [(4, r) for r in range(64)]
    runs = {
        size: adaptive_warmup(inits[:size], target, schedule, seed=3, stream=streams[:size])
        for size in (7, 64)
    }
    for r in (0, 3, 6):
        cfg_1, out_1 = adaptive_warmup(inits[r : r + 1], target, schedule, seed=3, stream=streams[r : r + 1])
        for size, (cfg, out) in runs.items():
            np.testing.assert_array_equal(out.states.reshape(size, -1, target.dim)[r], out_1.states)
            np.testing.assert_array_equal(out.accept_flags.reshape(size, -1)[r], out_1.accept_flags)
            assert cfg.epsilon[r] == cfg_1.epsilon[0]
            np.testing.assert_array_equal(cfg.m[r], cfg_1.m[0])
    assert 0.0 < runs[64][1].accept_rate < 1.0  # the chains moved


@pytest.mark.parametrize("family", [None, "langevin", "kgm"])
def test_chain_matches_textbook_mala_bitwise(family):
    # run_chain carries whitened gradients and precomputed step constants;
    # a lone chain and each chain of an ensemble match, bitwise, a loop that
    # whitens both gradients afresh on every step
    target = make_regression_posterior()
    if family:  # pi for this kernel; p otherwise
        target = make_pi(target, make_kernel(target, find_mode(target, np.zeros(2)), family=family))
    eps = np.array([0.02, 0.05, 0.1])
    ms = np.stack([np.eye(2), np.diag([3.0, 0.5]), np.array([[2.0, 0.7], [0.7, 1.0]])])
    streams = ((2, 0), (2, 1), (2, 2))
    inits = np.array([[0.1, 0.0], [-0.2, 0.1], [0.3, -0.1]])
    n, seed = 150, 11
    ensemble = run_chain(inits, target, ChainConfig(epsilon=eps, m=ms, n=n, seed=seed, stream=streams))
    states, flags = ensemble.states.reshape(3, n, 2), ensemble.accept_flags.reshape(3, n)
    for r in range(3):
        lone = run_chain(inits[r : r + 1], target, _cfg(eps[r], ms[r], n, seed=seed, stream=streams[r]))
        normals, log_us = _stream_randoms(seed, streams[r], n, 2)
        ref_states, ref_flags = mala_chain_reference(inits[r], target, eps[r], ms[r], normals, log_us)
        for got_states, got_flags in ((lone.states, lone.accept_flags), (states[r], flags[r])):
            assert got_states.tobytes() == ref_states.tobytes()
            np.testing.assert_array_equal(got_flags, ref_flags)
        assert 0.0 < ref_flags.mean() < 1.0  # both branches taken


def test_row_looped_garch_target_runs_in_an_ensemble():
    from steinpi.targets import make_garch_posterior, simulate_garch_series

    target = make_garch_posterior(simulate_garch_series((0.2, 0.5, 0.3, 0.4), 50, seed=4))
    mode = find_mode(target, np.zeros(4), max_iter=400)
    schedule = AdaptSchedule(epoch_lengths=(40, 60), learning_rates=(0.3,))
    inits = np.tile(mode.x_star, (3, 1))
    _, ens = adaptive_warmup(inits, target, schedule, seed=2, stream=[(r,) for r in range(3)])
    for r in range(3):
        _, alone = adaptive_warmup(inits[r : r + 1], target, schedule, seed=2, stream=[(r,)])
        np.testing.assert_array_equal(ens.states.reshape(3, -1, 4)[r], alone.states)


def test_duplicate_states_iff_rejections():
    target = make_gaussian(np.zeros(1))
    out = run_chain(np.array([[2.0]]), target, _cfg(1.5, np.eye(1), 400, seed=5))
    dup = np.all(out.states[1:] == out.states[:-1], axis=1)
    np.testing.assert_array_equal(dup, ~out.accept_flags[1:])
    assert out.accept_rate == pytest.approx(out.accept_flags.mean())


def test_chain_mean_within_clt_bounds():
    target = make_gaussian([0.0])
    out = run_chain(np.zeros((1, 1)), target, _cfg(0.8, np.eye(1), 100_000, seed=21))
    x = out.states[:, 0]
    # autocorrelation-adjusted standard error of the chain mean
    centred = x - x.mean()
    acf = np.correlate(centred, centred, mode="full")[len(x) - 1 :] / (len(x) * x.var())
    iat = 1.0
    for k in range(1, 200):
        if acf[k] <= 0:
            break
        iat += 2.0 * acf[k]
    se = np.sqrt(x.var() * iat / len(x))
    assert abs(x.mean()) <= 4.0 * se


def test_overdispersed_chain_has_larger_second_moment():
    target = make_gaussian([0.0])
    mode = find_mode(target, np.array([1.0]))
    pi = make_pi(target, LangevinKernel(target, mode))
    wins = 0
    for rep in range(10):
        out_p = run_chain(np.zeros((1, 1)), target, _cfg(0.8, np.eye(1), 4000, seed=100, stream=(rep, 0)))
        out_pi = run_chain(np.zeros((1, 1)), pi, _cfg(0.8, np.eye(1), 4000, seed=100, stream=(rep, 1)))
        wins += (out_pi.states**2).mean() > (out_p.states**2).mean()
    assert wins >= 9


class _Pushforward(TargetModel):
    """log q(y) = log p(A y) for a fixed linear map A."""

    def __init__(self, base, a):
        self.base = base
        self.a = a
        self.dim = base.dim

    def _evaluate(self, y, order):
        lp, g = self.base.log_density_with_grad(y @ self.a.T)
        return lp, g @ self.a, None


def test_preconditioned_chain_equals_whitened_identity_chain():
    # With M = L L^T, the M-preconditioned chain on p equals (through the
    # map y = L^T x) the identity-preconditioned chain on y -> p(L^-T y),
    # when both consume the same innovations.
    cov = np.array([[3.0, 0.8], [0.8, 1.5]])
    target = make_gaussian(np.zeros(2), cov)
    m = np.array([[2.0, 0.4], [0.4, 1.2]])
    chol = np.linalg.cholesky(m)
    pushed = _Pushforward(target, np.linalg.inv(chol).T)  # q(y) = p(L^-T y)
    cfg_m = _cfg(0.4, m, 300, seed=9, stream=(0,))
    cfg_i = _cfg(0.4, np.eye(2), 300, seed=9, stream=(0,))
    x0 = np.array([0.7, -0.2])
    out_m = run_chain(x0[None], target, cfg_m)
    out_i = run_chain((chol.T @ x0)[None], pushed, cfg_i)
    mapped = out_m.states @ chol
    err = np.max(np.abs(mapped - out_i.states)) / max(1.0, np.max(np.abs(out_i.states)))
    assert err < 1e-8
    np.testing.assert_array_equal(out_m.accept_flags, out_i.accept_flags)


# ----------------------------------------------------------------------
# adaptive warm-up
# ----------------------------------------------------------------------


def test_warmup_step_size_fixed_when_rate_hits_target():
    target = make_gaussian(np.zeros(2))
    probe = adaptive_warmup(
        np.zeros((1, 2)),
        target,
        AdaptSchedule(epsilon0=0.7, epoch_lengths=(500, 10), learning_rates=(1.0,)),
        seed=13,
        stream=[()],
    )
    realised = run_chain(
        np.zeros((1, 2)), target, _cfg(0.7, np.eye(2), 500, seed=13, stream=(0,))
    ).accept_rate
    cfg, _ = adaptive_warmup(
        np.zeros((1, 2)),
        target,
        AdaptSchedule(
            epsilon0=0.7, epoch_lengths=(500, 10), learning_rates=(1.0,), target_accept=realised
        ),
        seed=13,
        stream=[()],
    )
    assert cfg.epsilon[0] == 0.7
    assert probe  # first run only establishes the stream layout


def test_warmup_learns_anisotropic_scale():
    target = make_gaussian(np.zeros(2), np.diag([1.0, 100.0]))
    conds = []
    for rep in range(10):
        cfg, _ = adaptive_warmup(
            np.zeros((1, 2)),
            target,
            AdaptSchedule(epoch_lengths=(1000,) * 9 + (1000,)),
            seed=17,
            stream=[(rep,)],
        )
        conds.append(np.linalg.cond(cfg.m[0]))
    median = float(np.median(conds))
    assert 25.0 <= median <= 400.0


def test_warmup_survives_zero_acceptance_epoch():
    target = make_gaussian(np.zeros(2))
    cfg, out = adaptive_warmup(
        np.zeros((1, 2)),
        target,
        AdaptSchedule(epsilon0=1e6, epoch_lengths=(200, 200, 200), learning_rates=(0.3, 0.3)),
        seed=23,
        stream=[()],
    )
    assert np.all(np.isfinite(cfg.m))
    assert cfg.epsilon[0] < 1e6  # shrank after silent epochs
    assert np.all(np.isfinite(out.states))


def test_warmup_acceptance_lands_near_target():
    target = make_gaussian(np.zeros(5))
    cfg, out = adaptive_warmup(
        np.zeros((1, 5)),
        target,
        AdaptSchedule(epoch_lengths=(1000,) * 9 + (2000,)),
        seed=29,
        stream=[()],
    )
    assert 0.42 <= out.accept_rate <= 0.72


# ----------------------------------------------------------------------
# plumbing
# ----------------------------------------------------------------------


def test_garch_posterior_overdispersed_sampling():
    # end-to-end on the 4-parameter volatility posterior: mode finding,
    # kernel construction, warm-up and the over-dispersion of the tilted law
    from steinpi.kernels import KGMKernel
    from steinpi.targets import make_garch_posterior, simulate_garch_series

    y = simulate_garch_series((0.2, 0.5, 0.3, 0.4), 50, seed=4)
    target = make_garch_posterior(y)
    mode = find_mode(target, np.zeros(4), max_iter=400)
    pi = make_pi(target, KGMKernel(target, mode, s=2))
    schedule = AdaptSchedule(epoch_lengths=(300,) * 4 + (1500,), learning_rates=(0.3,) * 4)
    _, out_pi = adaptive_warmup(mode.x_star[None], pi, schedule, seed=3, stream=[()])
    _, out_p = adaptive_warmup(mode.x_star[None], target, schedule, seed=3, stream=[(1,)])
    assert out_pi.nonfinite_proposals == 0
    assert np.all(np.isfinite(out_pi.states))
    assert 0.3 <= out_pi.accept_rate <= 0.8
    ratios = out_pi.states.std(axis=0) / out_p.states.std(axis=0)
    assert np.median(ratios) > 1.0


def test_random_window_bounds(rng):
    states = np.arange(50.0)[:, None]
    for _ in range(20):
        win = random_window(states, 10, rng)
        assert win.shape == (10, 1)
        assert win[0, 0] + 9 == win[-1, 0]
    with pytest.raises(ValueError):
        random_window(states, 51, rng)


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(-1.0, np.eye(1), 10)
    with pytest.raises(np.linalg.LinAlgError):
        _cfg(0.1, np.array([[0.0]]), 10)
    with pytest.raises(ValueError):
        AdaptSchedule(epoch_lengths=(10, 10), learning_rates=())


@pytest.mark.parametrize("epsilon", [0.0, np.nan, np.inf])
def test_chain_config_rejects_a_step_size_that_is_not_positive_and_finite(epsilon):
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        ChainConfig(epsilon=np.array([0.5, epsilon]), m=np.stack([np.eye(1)] * 2), n=10, seed=0, stream=((0,), (1,)))


@pytest.mark.parametrize("epsilon0", [0.0, np.nan, np.inf])
def test_adapt_schedule_rejects_an_initial_step_that_is_not_positive_and_finite(epsilon0):
    with pytest.raises(ValueError, match="epsilon0 must be positive and finite"):
        AdaptSchedule(epsilon0=epsilon0, epoch_lengths=(10, 10))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_chain_config_rejects_a_preconditioner_that_is_not_finite(value):
    # Cholesky does not raise on NaN: such a chain would reject every proposal
    m = np.stack([np.eye(2), np.array([[1.0, value], [value, 1.0]])])
    with pytest.raises(ValueError, match="preconditioners must be finite"):
        ChainConfig(epsilon=np.array([0.5, 0.5]), m=m, n=10, seed=0, stream=((0,), (1,)))
    with pytest.raises(ValueError, match="preconditioners must be finite"):
        ChainConfig(epsilon=np.array([0.5]), m=np.full((1, 2, 2), value), n=10, seed=0, stream=((0,),))


@pytest.mark.parametrize("lengths", [(1, 50), (10, 1, 50), (1, 1)])
def test_adapt_schedule_rejects_a_one_step_tuning_epoch(lengths):
    # the sample covariance of one state is NaN, and so would be every preconditioner after it
    with pytest.raises(ValueError, match="at least 2 steps"):
        AdaptSchedule(epoch_lengths=lengths)
    assert AdaptSchedule(epoch_lengths=(2,) * (len(lengths) - 1) + (1,)).epoch_lengths[-1] == 1


def test_single_chain_call_forms_are_rejected():
    # a single chain is the R = 1 ensemble; a (d,) state or a shared (d, d)
    # preconditioner is refused with the form that is expected
    target = make_gaussian(np.zeros(2))
    with pytest.raises(ValueError, match=r"\(R, d\)"):
        run_chain(np.zeros(2), target, _cfg(0.5, np.eye(2), 10))
    with pytest.raises(ValueError, match=r"\(R, d\)"):
        adaptive_warmup(np.zeros(2), target, AdaptSchedule(epoch_lengths=(10, 10)), stream=[()])
    shared = ChainConfig(epsilon=np.array([0.5, 0.5]), m=np.eye(2), n=10, seed=0, stream=((0,), (1,)))
    with pytest.raises(ValueError, match=r"\(R, d, d\)"):
        run_chain(np.zeros((2, 2)), target, shared)


def test_stream_randoms_are_reproducible_slices():
    z1, u1 = _stream_randoms(5, (1, 2), 30, 3)
    z2, u2 = _stream_randoms(5, (1, 2), 20, 3, start_step=10)
    np.testing.assert_array_equal(z1[10:], z2)
    np.testing.assert_array_equal(u1[10:], u2)
    z3, _ = _stream_randoms(5, (1, 3), 30, 3)
    assert not np.array_equal(z1, z3)
