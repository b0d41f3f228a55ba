"""Divergence evaluation against reference samples.

Exact 1-Wasserstein between weighted samples: in one dimension via
quantile-function integration, and for small multivariate instances by
exact discrete optimal transport with Euclidean ground cost, solved one
of two ways.  When every weight within each sample is the same
(compared exactly), the larger size L is a multiple of the smaller and
L^2 <= PAIR_GUARD, transport is an assignment problem: each point is
repeated L / n times and the L x L assignment is solved.  Every other
input is solved as the transport linear program.  Both paths return an
(n_a, n_b) plan whose marginals are checked on every solve.  Also the
dimension diagnostic comparing the variance of the normalised kernel
diagonal on a standard Gaussian against its 2 c^2 / d closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import coo_matrix

from .errors import DimensionMismatch, SizeGuard

__all__ = [
    "TransportPlan",
    "wasserstein1",
    "wasserstein1_1d",
    "wasserstein1_exact",
    "dimension_effect",
]

PAIR_GUARD = 1_000_000  # largest n_a * n_b (and L^2 of an assignment) of the exact solver


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """An optimal coupling between two weighted samples."""

    cost: float
    plan: np.ndarray  # (n_a, n_b) masses


def wasserstein1_1d(a, b):
    """Exact 1-Wasserstein distance between two weighted 1D samples.

    Integrates |F_a - F_b| over the merged support, which equals the
    optimal transport cost for the absolute-difference ground metric.
    """
    if a.dim != 1 or b.dim != 1:
        raise DimensionMismatch("wasserstein1_1d requires one-dimensional samples")
    xa = a.points[:, 0]
    xb = b.points[:, 0]
    xs = np.concatenate([xa, xb])
    deltas = np.concatenate([a.weights, -b.weights])
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    cdf_diff = np.cumsum(deltas[order])
    return float(np.sum(np.abs(cdf_diff[:-1]) * np.diff(xs)))


def _marginal_constraints(na, nb):
    """Sparse equality constraints of the transport LP over the flat plan.

    Rows 0..na-1 are the row sums (row i covers flat indices i*nb ..
    i*nb + nb - 1), then the column sums (column j covers j, j + nb, ...).
    The final column constraint is implied by the others and is dropped.
    """
    rows = np.concatenate([np.repeat(np.arange(na), nb), np.repeat(np.arange(na, na + nb - 1), na)])
    cols = np.concatenate([np.arange(na * nb), (np.arange(nb - 1)[:, None] + nb * np.arange(na)).ravel()])
    return coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(na + nb - 1, na * nb))


def _plan_by_lp(cost, wa, wb):
    """Optimal (cost, plan) of the transport LP, solved by HiGHS simplex."""
    na, nb = cost.shape
    a_eq = _marginal_constraints(na, nb)
    b_eq = np.concatenate([wa, wb[:-1]])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun), res.x.reshape(na, nb)


def _plan_by_assignment(cost):
    """Optimal (cost, plan) between equal-weight samples whose sizes divide.

    With L = max(n_a, n_b), repeating each point L / n times turns the
    transport into an L x L assignment with mass 1 / L per matched pair.
    """
    na, nb = cost.shape
    size = max(na, nb)
    ra, rb = size // na, size // nb
    rows, cols = linear_sum_assignment(np.repeat(np.repeat(cost, ra, axis=0), rb, axis=1))
    i, j = rows // ra, cols // rb
    plan = np.zeros((na, nb))
    plan[i, j] = 1.0 / size  # ra or rb is 1, so no (i, j) repeats
    return math.fsum(cost[i, j]) / size, plan


def wasserstein1_exact(a, b):
    """Exact discrete optimal transport with Euclidean ground cost.

    Solved as an assignment when every weight within each sample is the
    same (compared exactly), the larger size L is a multiple of the
    smaller and L^2 <= PAIR_GUARD; its cost is the correctly rounded sum
    of the matched distances, divided by L.  Otherwise the transport
    linear program is solved with the HiGHS simplex solver.  Either way
    the optimal plan is returned, and its feasibility (marginal sums
    within 1e-8) is verified on every solve.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"samples have dimensions {a.dim} and {b.dim}")
    na, nb = a.n, b.n
    if na * nb > PAIR_GUARD:
        raise SizeGuard(f"{na} x {nb} pairs exceed the exact-transport guard {PAIR_GUARD}")
    diff = a.points[:, None, :] - b.points[None, :, :]
    cost = np.sqrt(np.einsum("ijd,ijd->ij", diff, diff))
    size = max(na, nb)
    equal_weights = np.all(a.weights == a.weights[0]) and np.all(b.weights == b.weights[0])
    if size % min(na, nb) == 0 and size * size <= PAIR_GUARD and equal_weights:
        value, gamma = _plan_by_assignment(cost)
    else:
        value, gamma = _plan_by_lp(cost, a.weights, b.weights)
    row_err = np.max(np.abs(gamma.sum(axis=1) - a.weights))
    col_err = np.max(np.abs(gamma.sum(axis=0) - b.weights))
    if max(row_err, col_err) > 1e-8:
        raise RuntimeError(f"transport plan infeasible: marginal errors {row_err}, {col_err}")
    return TransportPlan(cost=value, plan=gamma)


def wasserstein1(a, b):
    """Exact 1-Wasserstein distance: by quantiles when both samples are 1-D, else by transport."""
    if a.dim == 1 and b.dim == 1:
        return wasserstein1_1d(a, b)
    return wasserstein1_exact(a, b).cost


_CHUNK = 200_000  # Monte Carlo draws per batch of dimension_effect


def dimension_effect(d, n_mc, beta=0.5, seed=0):
    """Variance of the normalised kernel diagonal on N(0, I_d) vs theory.

    For the weak-convergence kernel on a standard Gaussian the diagonal is
    k_P(x) = 2 beta d + ||x||^2, so k_P/d deviates from its mean in
    L^2(P) by exactly 2/d; the Monte Carlo estimate of that squared
    deviation is returned alongside the closed-form prediction.  The
    vanishing deviation for large d is why over-dispersion fades in high
    dimension.
    """
    if d < 1 or n_mc < 2:
        raise ValueError("need d >= 1 and n_mc >= 2")
    rng = np.random.default_rng(seed)
    centre = 1.0 + 2.0 * beta  # analytic mean of k_P/d
    total = 0.0
    total_sq = 0.0
    remaining = n_mc
    while remaining > 0:
        take = min(_CHUNK, remaining)
        x = rng.standard_normal((take, d))
        values = (2.0 * beta * d + np.einsum("nd,nd->n", x, x)) / d - centre
        total += values.sum()
        total_sq += (values * values).sum()
        remaining -= take
    mean = total / n_mc
    estimate = total_sq / (n_mc - 1) - n_mc / (n_mc - 1) * mean * mean
    predicted = 2.0 / d
    return float(estimate), float(predicted)
