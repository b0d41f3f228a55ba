"""Divergence evaluation against reference samples.

Exact 1-Wasserstein between weighted samples: in one dimension via
quantile-function integration, whose cost is one stable sort of both
samples together (a timsort, in which a presorted reference is a single
run that the other sample's points are merged into), and for small
multivariate instances by exact discrete optimal transport with
Euclidean ground cost, solved one of two ways.  When every weight within
each sample is the same (compared exactly), the larger size L is a
multiple of the smaller and L^2 <= PAIR_GUARD, transport is an
assignment problem: each point is repeated L / n times and the L x L
assignment is solved.  Every other input is solved as the transport
linear program over the distinct points of each sample, with their
weights summed, so a thinned sample's repeated picks cost the LP
nothing; HiGHS solves it by simplex with presolve off, which reduces
nothing between equal-weight samples and costs time.  Both paths return
the optimal cost alone.  The LP's plan is checked against the summed
weights it was solved for; an assignment on a square, finite cost
matrix is a full matching or raises.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import coo_matrix

from .errors import DimensionMismatch, NonConvergence, SizeGuard

__all__ = [
    "wasserstein1",
    "wasserstein1_1d",
    "wasserstein1_exact",
]

PAIR_GUARD = 1_000_000  # largest n_a * n_b (and L^2 of an assignment) of the exact solver


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


def _cost_by_lp(cost, wa, wb):
    """Optimal cost of the transport LP, solved by HiGHS simplex; raises
    NonConvergence unless the solve succeeds with a plan whose marginal
    sums are within 1e-8 of wa and wb.

    The feasibility tolerances sit below that check: at the HiGHS default
    of 1e-7 a weight below about 1e-7 could be dropped.  Presolve is off:
    on the thinned 2-D samples' LPs it changed neither the simplex
    iterations nor the optimum, and took about a sixth of the solve time.
    With zero weights, which presolve removes, the optimum moves at
    rounding level and the solve is still faster without it."""
    na, nb = cost.shape
    a_eq = _marginal_constraints(na, nb)
    b_eq = np.concatenate([wa, wb[:-1]])
    options = {"presolve": False, "primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs", options=options)
    if not res.success:
        raise NonConvergence(f"transport LP failed: {res.message}")
    plan = res.x.reshape(na, nb)
    row_err = np.max(np.abs(plan.sum(axis=1) - wa))
    col_err = np.max(np.abs(plan.sum(axis=0) - wb))
    if max(row_err, col_err) > 1e-8:
        raise NonConvergence(f"transport plan infeasible: marginal errors {row_err}, {col_err}")
    return float(res.fun)


def _merged(sample):
    """A sample's distinct points and their summed weights."""
    points, index = np.unique(sample.points, axis=0, return_inverse=True)
    return points, np.bincount(index.ravel(), weights=sample.weights, minlength=len(points))


def _distances(x, y):
    """Euclidean distances between the rows of x and of y, (n_x, n_y)."""
    diff = x[:, None, :] - y[None, :, :]
    return np.sqrt(np.einsum("ijd,ijd->ij", diff, diff))


def _cost_by_assignment(cost):
    """Optimal cost between equal-weight samples whose sizes divide.

    With L = max(n_a, n_b), repeating each point L / n times turns the
    transport into an L x L assignment with mass 1 / L per matched pair.
    """
    na, nb = cost.shape
    size = max(na, nb)
    ra, rb = size // na, size // nb
    rows, cols = linear_sum_assignment(np.repeat(np.repeat(cost, ra, axis=0), rb, axis=1))
    return math.fsum(cost[rows // ra, cols // rb]) / size


def wasserstein1_exact(a, b):
    """Exact discrete optimal transport cost with Euclidean ground cost.

    Solved as an assignment when every weight within each sample is the
    same (compared exactly), the larger size L is a multiple of the
    smaller and L^2 <= PAIR_GUARD; its cost is the correctly rounded sum
    of the matched distances, divided by L.  Otherwise the transport
    linear program between the samples' distinct points is solved with
    the HiGHS simplex solver, and its plan's feasibility (marginal sums
    within 1e-8 of the summed weights) is verified on every solve.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"samples have dimensions {a.dim} and {b.dim}")
    na, nb = a.n, b.n
    if na * nb > PAIR_GUARD:
        raise SizeGuard(f"{na} x {nb} pairs exceed the exact-transport guard {PAIR_GUARD}")
    size = max(na, nb)
    equal_weights = np.all(a.weights == a.weights[0]) and np.all(b.weights == b.weights[0])
    if size % min(na, nb) == 0 and size * size <= PAIR_GUARD and equal_weights:
        return _cost_by_assignment(_distances(a.points, b.points))
    (pa, wa), (pb, wb) = _merged(a), _merged(b)
    return _cost_by_lp(_distances(pa, pb), wa, wb)


def wasserstein1(a, b):
    """Exact 1-Wasserstein distance: by quantiles when both samples are 1-D, else by transport."""
    if a.dim == 1 and b.dim == 1:
        return wasserstein1_1d(a, b)
    return wasserstein1_exact(a, b)
