"""Preconditioned Metropolis-adjusted Langevin sampling with adaptive warm-up.

The proposal from state x is

    x' = x + eps M^{-1} grad(x) + sqrt(2 eps) M^{-1/2} Z,   Z ~ N(0, I),

where grad is the gradient of the sampled log-density (for the
over-dispersed target this already contains the half log-kernel term; for
the plain target it is just grad log p).  Acceptance uses the exact
Metropolis--Hastings log-ratio, with squared norms ||z||^2 = z^T M z.

Randomness is counter-based (Philox) with a fixed raw budget per step, so
a chain can be restarted bitwise from any intermediate state and replicate
streams are independent of thread scheduling.

Chains run as an ensemble: R chains, each with its own step size,
preconditioner and stream, step in lockstep as one (R, d) state, so the
target is evaluated once per step for all of them.  Every operation acts
on each chain's row alone, so a chain's states do not depend on the batch
it runs in; a single chain is the R = 1 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

__all__ = [
    "ChainConfig",
    "ChainOutput",
    "AdaptSchedule",
    "run_chain",
    "adaptive_warmup",
    "random_window",
]


def _as_spd_matrix(m, dim):
    m = np.asarray(m, dtype=np.float64)
    if m.shape[-2:] != (dim, dim):
        raise ValueError(f"preconditioner must be {dim}x{dim}, got {m.shape}")
    return m


@dataclass(frozen=True, eq=False)
class ChainConfig:
    """Step size, preconditioner, length and RNG stream of a chain or an ensemble.

    For an ensemble of R chains, ``epsilon`` holds R step sizes, ``m`` is
    (R, d, d) or one (d, d) matrix shared by all, and ``stream`` holds R
    stream keys, one per chain.
    """

    epsilon: float
    m: np.ndarray
    n: int
    seed: int
    stream: tuple = ()

    def __post_init__(self):
        if np.any(np.asarray(self.epsilon) <= 0):
            raise ValueError("epsilon must be positive")
        if self.n < 1:
            raise ValueError("chain length must be >= 1")
        np.linalg.cholesky(np.asarray(self.m, dtype=np.float64))  # SPD check


@dataclass(frozen=True, eq=False)
class ChainOutput:
    """States and acceptance statistics of a completed chain or ensemble.

    Axis 0 counts chain steps: R chains of n steps give ``states``
    (R * n, d) and ``accept_flags`` (R * n,), with chain r in rows r * n
    to r * n + n - 1, i.e. ``states.reshape(R, n, d)[r]``; one chain gives
    (n, d) and (n,).  ``accept_rate`` and ``nonfinite_proposals`` pool the
    chains; ``chain_accept_rates`` holds one rate per chain, shape (R,).
    """

    states: np.ndarray
    accept_flags: np.ndarray
    accept_rate: float
    nonfinite_proposals: int
    chain_accept_rates: np.ndarray


@dataclass(frozen=True)
class AdaptSchedule:
    """Epoch schedule for the adaptive warm-up.

    Defaults: unit initial step, nine tuning epochs of 1000 steps
    followed by a production epoch of 1e5, blending rate 0.3 after every
    tuning epoch and acceptance target 0.57.  Every chain starts from the
    identity preconditioner.
    """

    epsilon0: float = 1.0
    epoch_lengths: tuple = (1000,) * 9 + (100_000,)
    learning_rates: tuple | None = None
    target_accept: float = 0.57

    def __post_init__(self):
        if self.learning_rates is None:
            object.__setattr__(self, "learning_rates", (0.3,) * (len(self.epoch_lengths) - 1))
        if len(self.learning_rates) != len(self.epoch_lengths) - 1:
            raise ValueError("need one learning rate per epoch after the first")
        if any(not 0.0 <= a <= 1.0 for a in self.learning_rates):
            raise ValueError("learning rates must lie in [0, 1]")
        if any(not isinstance(n, (int, np.integer)) or n < 1 for n in self.epoch_lengths):
            raise ValueError("epoch lengths must be positive integers")
        if self.epsilon0 <= 0:
            raise ValueError("epsilon0 must be positive")
        if not 0.0 < self.target_accept < 1.0:
            raise ValueError("target_accept must lie in (0, 1)")


def _rowdot(u, v):
    """Dot products over the last axis, summed left to right.

    Element-wise operations only, so a row's result never depends on the
    other rows; BLAS and einsum reductions may group their sums
    differently for different batch shapes.
    """
    out = u[..., 0] * v[..., 0]
    for j in range(1, u.shape[-1]):
        out = out + u[..., j] * v[..., j]
    return out


class _Precond:
    """Cholesky-backed preconditioner operations, factorised once.

    With M = L L^T, ``whiten`` applies L^{-1} and ``sqrt_inv_apply`` applies
    B = L^{-T}, so B B^T = M^{-1}.  ``m`` is one (d, d) matrix or one per
    chain, (R, d, d); the operations take one vector (d,) or a batch (R, d),
    row r with chain r's matrix.
    """

    def __init__(self, m):
        self.m = np.asarray(m, dtype=np.float64)
        self.whitener = np.linalg.inv(np.linalg.cholesky(self.m))
        self.sqrt_inv = np.swapaxes(self.whitener, -1, -2)

    def whiten(self, g):
        return _rowdot(self.whitener, g[..., None, :])

    def sqrt_inv_apply(self, z):
        return _rowdot(self.sqrt_inv, z[..., None, :])


def _raws_per_step(dim):
    # d normals + 1 uniform, padded to whole Philox blocks of 4 outputs.
    return 4 * ((dim + 1 + 3) // 4)


def _stream_randoms(seed, stream, n, dim, start_step=0):
    """Normals (n, dim) and log-uniforms (n,) for steps start_step..+n-1."""
    key = np.random.SeedSequence(seed, spawn_key=tuple(stream)).generate_state(2, np.uint64)
    bitgen = np.random.Philox(key=key)
    rps = _raws_per_step(dim)
    if start_step:
        bitgen.advance(start_step * (rps // 4))
    raws = bitgen.random_raw(n * rps).reshape(n, rps)
    u = (raws[:, : dim + 1] >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54
    return ndtri(u[:, :dim]), np.log(u[:, dim])


class _Transition(NamedTuple):
    x: np.ndarray
    logp: np.ndarray
    grad: np.ndarray
    accepted: np.ndarray
    nonfinite: np.ndarray
    proposal: np.ndarray
    log_ratio: np.ndarray


def _step(x, logp_x, grad_x, target, eps, pre, z, log_u):
    """One MALA transition from states with cached densities and gradients.

    Takes one chain (a (d,) state with scalar density, step size and
    log-uniform) or an ensemble ((R, d) states with (R,) of the others),
    and a standard normal z shaped like the states.  In whitened terms,
    with h = L^{-1} grad, the move is prop - x = B (eps h_x + sqrt(2 eps) z)
    and the reverse move's residual is x - nu_prop = -B w with
    w = eps (h_x + h_prop) + sqrt(2 eps) z, so its squared M-norm is
    ||w||^2.  A proposal with a nonfinite density or gradient is rejected.
    """
    col = np.asarray(eps)[..., None]
    root = np.sqrt(2.0 * col)
    h_x = pre.whiten(grad_x)
    prop = x + pre.sqrt_inv_apply(col * h_x + root * z)
    logp_p, grad_p = target.log_density_with_grad(prop)
    finite = np.isfinite(logp_p) & np.isfinite(grad_p).all(axis=-1)
    if not finite.all():  # a -inf density rejects; a zero gradient keeps the ratio quiet
        logp_p = np.where(finite, logp_p, -np.inf)
        grad_p = np.where(finite[..., None], grad_p, 0.0)
    w = col * (h_x + pre.whiten(grad_p)) + root * z
    log_ratio = logp_p - logp_x - _rowdot(w, w) / (4.0 * eps) + 0.5 * _rowdot(z, z)
    accepted = log_u < log_ratio
    keep = accepted[..., None]
    return _Transition(
        np.where(keep, prop, x),
        np.where(accepted, logp_p, logp_x),
        np.where(keep, grad_p, grad_x),
        accepted,
        ~finite,
        prop,
        log_ratio,
    )


def _ensemble(init, stream):
    """States (R, d), R stream keys, and whether init was a single chain's state."""
    single = np.ndim(init) == 1
    x = np.array(init, dtype=np.float64, ndmin=2)
    return x, [tuple(stream)] if single else [tuple(key) for key in stream], single


def run_chain(init, target, config, start_step=0):
    """Run config.n steps of one chain (d,), or of an ensemble (R, d) in lockstep.

    An ensemble's config holds R step sizes, preconditioners and stream
    keys.  Deterministic given (seed, stream), and chain r's states are
    bitwise the same alone or in any ensemble.  A chain's first state is
    its first post-init state.  Restarting every chain from its state k
    with ``start_step = k + 1`` reproduces the states after k bitwise,
    because each step owns a fixed slice of each chain's Philox stream.
    """
    x, streams, _ = _ensemble(init, config.stream)
    chains, dim = x.shape
    if len(streams) != chains:
        raise ValueError(f"{chains} chains need {chains} stream keys, got {len(streams)}")
    eps = np.broadcast_to(np.asarray(config.epsilon, dtype=np.float64), (chains,))
    pre = _Precond(_as_spd_matrix(config.m, dim))
    draws = [_stream_randoms(config.seed, s, config.n, dim, start_step) for s in streams]
    normals, log_us = (np.stack(a, axis=1) for a in zip(*draws))
    states = np.empty((chains, config.n, dim))
    accept = np.empty((chains, config.n), dtype=bool)
    nonfinite = np.zeros(chains, dtype=np.int64)
    logp, grad = target.log_density_with_grad(x)
    for i in range(config.n):
        x, logp, grad, accept[:, i], bad = _step(x, logp, grad, target, eps, pre, normals[i], log_us[i])[:5]
        states[:, i] = x
        nonfinite += bad
    return ChainOutput(
        states=states.reshape(-1, dim),
        accept_flags=accept.ravel(),
        accept_rate=float(accept.mean()),
        nonfinite_proposals=int(nonfinite.sum()),
        chain_accept_rates=accept.mean(axis=1),
    )


def _regularised(cov):
    """Ensure the blended proposal covariance admits a Cholesky factor."""
    try:
        np.linalg.cholesky(cov)
        return cov
    except np.linalg.LinAlgError:
        d = cov.shape[0]
        jitter = 1e-10 * np.trace(cov) / d
        if jitter <= 0:
            jitter = 1e-10
        return cov + jitter * np.eye(d)


def adaptive_warmup(init, target, schedule=None, *, seed=0, stream=()):
    """Epoch-based tuning of each chain's step size and preconditioner.

    ``init`` is one state (d,), or R states (R, d) run as one ensemble
    with ``stream`` holding one stream key per chain; epoch k of a chain
    draws from its key extended by k.  After each tuning epoch, each
    chain's step size is scaled by exp(rate - target_accept) with its own
    acceptance rate, and its proposal covariance M^{-1} is blended with
    its own epoch sample covariance using the epoch's learning rate (the
    preconditioner itself is the inverse of the blend, consistent with the
    proposal using M^{-1}).  Returns the production epoch's ChainConfig
    and output.
    """
    schedule = schedule or AdaptSchedule()
    x, keys, single = _ensemble(init, stream)
    chains, dim = x.shape

    def pick(a):  # the single-chain form of a per-chain sequence
        return a[0] if single else a

    eps = np.full(chains, float(schedule.epsilon0))
    m = np.array(np.broadcast_to(np.eye(dim), (chains, dim, dim)))
    m_inv = np.linalg.inv(m)
    out = cfg = None
    for epoch, length in enumerate(schedule.epoch_lengths):
        if epoch > 0:
            alpha = schedule.learning_rates[epoch - 1]
            states = out.states.reshape(chains, -1, dim)
            for r in range(chains):
                eps[r] *= math.exp(out.chain_accept_rates[r] - schedule.target_accept)
                cov = np.cov(states[r], rowvar=False).reshape(dim, dim)
                m_inv[r] = _regularised(alpha * m_inv[r] + (1.0 - alpha) * cov)
                m_r = np.linalg.inv(m_inv[r])
                m[r] = 0.5 * (m_r + m_r.T)
            x = states[:, -1]
        cfg = ChainConfig(
            epsilon=pick(eps.copy()),
            m=pick(m.copy()),
            n=length,
            seed=seed,
            stream=pick(tuple(key + (epoch,) for key in keys)),
        )
        out = run_chain(pick(x), target, cfg)
    return cfg, out


def random_window(states, n, rng):
    """A uniformly random contiguous window of length n from a chain."""
    total = states.shape[0]
    if n > total:
        raise ValueError(f"window length {n} exceeds chain length {total}")
    start = int(rng.integers(0, total - n + 1))
    return states[start : start + n]
