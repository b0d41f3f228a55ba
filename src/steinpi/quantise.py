"""Post-processing of sampler output against a Stein kernel.

Provides the kernel discrepancy of a weighted point set, the optimal
simplex-constrained reweighting (an exact active-set solve of min w^T K w
over the probability simplex by Wolfe's minimum-norm-point method,
certified by its duality gap), greedy thinning to m uniformly weighted
points, and the root-kernel importance weights used as a baseline.
Thinning reads the kernel diagonal and one column per pick from one
kernel context of its candidates, so it evaluates the target once, its
working memory is O(n) and it never builds the n x n Gram; the Gram size
guard lives in ``SteinKernel.cross``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSimplex, NegativeQuadraticForm

__all__ = [
    "WeightedSample",
    "QPResult",
    "uniform_sample",
    "ksd",
    "quadratic_form",
    "optimal_weights",
    "greedy_thin",
    "greedy_thin_indices",
    "snis_weights",
]


def _as_points(points):
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2:
        raise ValueError(f"points must be (n, d), got shape {points.shape}")
    return points


@dataclass(frozen=True, eq=False)
class WeightedSample:
    """Points with nonnegative weights summing to one."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _as_points(self.points))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        w = self.weights
        if w.ndim != 1 or w.shape[0] != self.points.shape[0]:
            raise InvalidSimplex("need one weight per point")
        if not np.all(np.isfinite(self.points)) or not np.all(np.isfinite(w)):
            raise InvalidSimplex("points and weights must be finite")
        if np.any(w < 0):
            raise InvalidSimplex("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-10:
            raise InvalidSimplex(f"weights sum to {w.sum()!r}, not 1")

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]


def uniform_sample(points):
    """Equal weights 1/n on the given points."""
    points = _as_points(points)
    n = points.shape[0]
    return WeightedSample(points=points, weights=np.full(n, 1.0 / n))


def quadratic_form(gram, weights):
    """w^T K w with exactly rounded accumulation, clamped at tiny negatives.

    Raises NegativeQuadraticForm when the form is negative beyond rounding
    scale, which signals a broken (non-PSD) kernel.
    """
    kw = gram @ weights
    q = math.fsum(weights * kw)
    if q < 0:
        scale = float(np.max(np.abs(gram))) if gram.size else 0.0
        if q < -1e-10 * scale:
            raise NegativeQuadraticForm(f"w^T K w = {q!r} with |K| scale {scale!r}")
        q = 0.0
    return q


def ksd(sample, kernel, gram=None):
    """Kernel discrepancy sqrt(w^T K w) of a weighted sample."""
    if gram is None:
        gram = kernel.gram(sample.points)
    return float(np.sqrt(quadratic_form(gram, sample.weights)))


@dataclass(frozen=True, eq=False)
class QPResult:
    """Solution of the simplex-constrained quadratic program."""

    weights: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int
    converged: bool
    duality_gap: float


def _kkt_residual(g, w, support_tol=1e-8):
    """Max violation of stationarity/complementarity at w, given g = K w.

    On the support the quantity (Kw)_i must equal a common multiplier;
    off the support it must not fall below it.
    """
    lam = float(g @ w)
    on = w > support_tol
    resid = 0.0
    if np.any(on):
        resid = float(np.max(np.abs(g[on] - lam)))
    if np.any(~on):
        resid = max(resid, float(np.max(np.maximum(lam - g[~on], 0.0))))
    return resid


def _affine_minimiser(gram, support):
    """Minimiser of w^T K w on the affine hull of the support.

    Solves the bordered KKT system [K_SS 1; 1^T 0][v; mu] = [0; 1].
    Repeated states make K_SS singular; least squares then returns the
    minimum-norm solution of the (consistent) system.
    """
    m = len(support)
    system = np.ones((m + 1, m + 1))
    system[:m, :m] = gram[np.ix_(support, support)]
    system[m, m] = 0.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    try:
        sol = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(system, rhs, rcond=None)[0]
    return sol[:m]


GAP_TOL = 1e-8  # relative duality gap of a certified solve


def _certified(gap, f, floor):
    return gap <= GAP_TOL * abs(f) + floor


def optimal_weights(points, kernel, max_iter=None, gram=None):
    """Minimise w^T K w over the probability simplex.

    Wolfe's active-set (minimum-norm-point) method on the Gram: each major
    step adds the steepest-descent vertex to the support S, then minor
    steps move toward the minimiser on the affine hull of S, dropping the
    first coordinate to reach zero, until that minimiser lies strictly
    inside the simplex.  With u = eps * max|diag K|, the rounding unit of
    the gradient, the result is certified optimal (``converged``) when the
    Frank-Wolfe duality gap satisfies gap <= GAP_TOL * |f| + n * u.
    Iteration goes on below that, until gap <= GAP_TOL * |f| + u or
    rounding stalls the method (the entering vertex leaves at once), so
    the weights are as accurate as the arithmetic allows.  There is no
    linear term, because a Stein kernel has zero mean under the target.
    If ``max_iter`` major steps (default 10 n) run out, the better of the
    iterate and the uniform weights is returned with ``converged=False``.
    Without a ``gram``, ``kernel.gram`` builds one and raises GramTooLarge
    beyond its dense size guard.
    """
    points = _as_points(points)
    n = points.shape[0]
    if gram is None:
        gram = kernel.gram(points)
    if max_iter is None:
        max_iter = 10 * n
    diag = np.diag(gram)
    unit = float(np.finfo(np.float64).eps * np.max(np.abs(diag)))
    support = np.array([np.argmin(diag)])
    w = np.zeros(n)
    w[support] = 1.0
    exhausted = True
    iterations = 0
    for iterations in range(1, max_iter + 1):
        grad = 2.0 * (gram[:, support] @ w[support])
        f = float(w[support] @ (0.5 * grad[support]))
        j = int(np.argmin(grad))
        gap = float(grad[support] @ w[support] - grad[j])
        if _certified(gap, f, unit) or j in support:
            exhausted = False
            break
        previous = w.copy()
        support = np.append(support, j)
        while True:  # minor steps
            v = _affine_minimiser(gram, support)
            if np.all(v > 0):
                w[support] = v
                break
            ws = w[support]
            blocking = np.flatnonzero(v <= 0)
            ratios = ws[blocking] / np.maximum(ws[blocking] - v[blocking], np.finfo(np.float64).tiny)
            ws = np.maximum(ws + float(ratios.min()) * (v - ws), 0.0)
            ws[blocking[np.argmin(ratios)]] = 0.0
            w[support] = ws
            support = support[ws > 0]
        if np.array_equal(w, previous):  # stalled: the same step would repeat forever
            exhausted = False
            break
    w /= w.sum()
    kw = gram @ w
    if exhausted:
        uniform = np.full(n, 1.0 / n)
        ku = gram @ uniform
        if float(uniform @ ku) < float(w @ kw):
            w, kw = uniform, ku
    f = float(w @ kw)
    grad = 2.0 * kw
    gap = float(grad @ w - grad.min())
    return QPResult(
        weights=w,
        objective=f,
        kkt_residual=_kkt_residual(kw, w),
        iterations=iterations,
        converged=not exhausted and _certified(gap, f, n * unit),
        duality_gap=gap,
    )


def greedy_thin_indices(points, kernel, m):
    """Indices selected by m steps of greedy discrepancy minimisation.

    Step j picks argmin over candidates y of
    k_P(y)/2 + sum_{i<j} k_P(y, y_i); candidates stay available, so an
    index may repeat.  Ties resolve to the lowest index (strict < scan).
    One kernel context of the candidates (one target evaluation) gives
    the diagonal and one n x 1 column per pick, added to a running sum:
    O(nm) kernel evaluations and O(n) memory, with no n x n Gram.  At
    n = 1000 this beats slicing a full Gram for every m <= n.
    """
    points = _as_points(points)
    n = points.shape[0]
    if m < 1:
        raise ValueError("m must be >= 1")
    if n == 0:
        raise ValueError("candidate set must be nonempty")
    context = kernel.context(points)
    half_diag = 0.5 * kernel._diag_at(context)[0]
    running = np.zeros(n)
    chosen = np.empty(m, dtype=np.int64)
    for j in range(m):
        pick = int(np.argmin(half_diag + running))
        chosen[j] = pick
        if j + 1 < m:
            running += kernel.cross(context, context[pick : pick + 1])[:, 0]
    return chosen


def greedy_thin(points, kernel, m):
    """Greedy thinning to m points with uniform weights 1/m."""
    points = _as_points(points)
    idx = greedy_thin_indices(points, kernel, m)
    return WeightedSample(points=points[idx], weights=np.full(m, 1.0 / m))


def snis_weights(points, kernel):
    """Weights proportional to 1/sqrt(k_P(x_i)), normalised.

    These are the self-normalised importance weights when the points were
    sampled from the over-dispersed target; the caller is responsible for
    that provenance.  A baseline for comparisons, not a production path.
    """
    points = _as_points(points)
    w = 1.0 / np.sqrt(kernel.diag_values(points))
    w /= w.sum()
    return WeightedSample(points=points, weights=w)
