"""Post-processing of sampler output against a Stein kernel.

Provides the kernel discrepancy of a weighted point set and the optimal
simplex-constrained reweighting (an exact active-set solve of min w^T K w
over the probability simplex by Wolfe's minimum-norm-point method,
certified by its duality gap), both on a Gram the caller built, and the
indices of greedy thinning to m points, read from the kernel context of
the candidates: no target evaluation, O(n) working memory and no n x n
Gram.  The Gram size guard lives in ``SteinKernel.cross``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgesv

from .errors import InvalidSimplex, NegativeQuadraticForm

__all__ = [
    "WeightedSample",
    "QPResult",
    "uniform_sample",
    "ksd",
    "quadratic_form",
    "optimal_weights",
    "greedy_thin",
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
            raise InvalidSimplex(f"weights sum to {float(w.sum())!r}, not 1")

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


def ksd(sample, gram):
    """Kernel discrepancy sqrt(w^T K w) of a weighted sample on its points' Gram."""
    return float(np.sqrt(quadratic_form(gram, sample.weights)))


@dataclass(frozen=True, eq=False)
class QPResult:
    """Solution of the simplex-constrained quadratic program."""

    weights: np.ndarray
    objective: float
    iterations: int
    converged: bool
    duality_gap: float


def _affine_minimiser(gram, support):
    """Minimiser of w^T K w on the affine hull of the support.

    Solves the bordered KKT system [K_SS 1; 1^T 0][v; mu] = [0; 1] by one
    LAPACK ``dgesv``.  Repeated states can make K_SS exactly singular
    (``info > 0``); least squares then returns the minimum-norm solution
    of the (consistent) system.
    """
    m = len(support)
    system = np.ones((m + 1, m + 1), order="F")
    system[:m, :m] = gram.take(support, 0).take(support, 1)
    system[m, m] = 0.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    sol, info = dgesv(system, rhs)[2:]
    if info > 0:
        sol = np.linalg.lstsq(system, rhs, rcond=None)[0]
    return sol[:m]


GAP_TOL = 1e-8  # relative duality gap of a certified solve


def _certified(gap, f, floor):
    return gap <= GAP_TOL * abs(f) + floor


def optimal_weights(gram, max_iter=None):
    """Minimise w^T K w over the probability simplex, for an n x n Gram K.

    Wolfe's active-set (minimum-norm-point) method on the Gram: each major
    step adds the steepest-descent vertex to the support S, then minor
    steps move toward the minimiser on the affine hull of S, dropping the
    first coordinate to reach zero, until that minimiser lies strictly
    inside the simplex.  Each minor step is one bordered solve on K_SS.
    With u = eps * max|diag K|, the rounding unit of the gradient, the
    result is certified optimal (``converged``) when the Frank-Wolfe
    duality gap satisfies gap <= GAP_TOL * |f| + n * u.  Iteration goes on
    below that, until gap <= GAP_TOL * |f| + u or rounding stalls the
    method (the entering vertex leaves at once), so the weights are as
    accurate as the arithmetic allows.  There is no linear term, because a
    Stein kernel has zero mean under the target.  K must be symmetric, as a
    Gram is: K w is read from the rows of S.  If ``max_iter`` major
    steps (default 10 n) run out, the better of the iterate and the
    uniform weights is returned with ``converged=False``.  Raises
    ValueError unless the Gram is a non-empty square 2-D array.
    """
    gram = np.asarray(gram, dtype=np.float64)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1] or gram.shape[0] == 0:
        raise ValueError(f"gram must be a non-empty square 2-D array, got shape {gram.shape}")
    n = gram.shape[0]
    if max_iter is None:
        max_iter = 10 * n
    diag = np.diag(gram)
    unit = float(np.finfo(np.float64).eps * np.max(np.abs(diag)))
    order = np.empty(n, dtype=np.intp)  # S in order of entry is order[:m]
    member = np.zeros(n, dtype=bool)
    order[0] = np.argmin(diag)
    member[order[0]] = True
    m = 1
    ws = np.ones(1)  # weights on S; every weight off S is zero
    exhausted = True
    iterations = 0
    for iterations in range(1, max_iter + 1):
        support = order[:m]
        grad = 2.0 * (ws @ gram.take(support, 0))
        gs = grad[support]
        f = float(ws @ (0.5 * gs))
        j = int(grad.argmin())
        gap = float(gs @ ws - grad[j])
        if _certified(gap, f, unit) or member[j]:
            exhausted = False
            break
        previous = ws
        order[m] = j
        member[j] = True
        m += 1
        ws = np.concatenate((ws, (0.0,)))
        while True:  # minor steps
            support = order[:m]
            v = _affine_minimiser(gram, support)
            if v.min() > 0.0:
                ws = v
                break
            blocking = np.flatnonzero(v <= 0)
            ratios = ws[blocking] / np.maximum(ws[blocking] - v[blocking], np.finfo(np.float64).tiny)
            ws = np.maximum(ws + float(ratios.min()) * (v - ws), 0.0)
            ws[blocking[ratios.argmin()]] = 0.0
            keep = ws > 0
            member[support[~keep]] = False
            ws = ws[keep]
            m = len(ws)
            order[:m] = support[keep]
        # stalled (the entering vertex left at once and S kept its weights):
        # the same step would repeat forever
        if not member[j] and m == len(previous) and (ws == previous).all():
            exhausted = False
            break
    w = np.zeros(n)
    w[order[:m]] = ws
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
        iterations=iterations,
        converged=not exhausted and _certified(gap, f, n * unit),
        duality_gap=gap,
    )


def greedy_thin(ctx, kernel, m):
    """Indices (m,) selected by m steps of greedy discrepancy minimisation.

    Step j picks argmin over candidates y of
    k_P(y)/2 + sum_{i<j} k_P(y, y_i); candidates stay available, so an
    index may repeat.  Ties resolve to the lowest index (strict < scan).
    The kernel context of the candidates gives the diagonal and one
    n x 1 column per pick, added to a running sum: O(nm) kernel
    evaluations and O(n) memory, with no n x n Gram.  At n = 1000 this
    beats slicing a full Gram up to about m = n/2.  The picks' Gram is
    ``kernel.gram(ctx[idx])``.  Raises ValueError on an empty or
    non-finite candidate set.
    """
    n = len(ctx)
    if m < 1:
        raise ValueError("m must be >= 1")
    if n == 0:
        raise ValueError("candidate set must be nonempty")
    if not np.isfinite(ctx.delta).all():
        raise ValueError("candidate points must be finite")
    half_diag = 0.5 * kernel._diag_at(ctx)[0]
    running = np.zeros(n)
    chosen = np.empty(m, dtype=np.int64)
    for j in range(m):
        pick = int(np.argmin(half_diag + running))
        chosen[j] = pick
        if j + 1 < m:
            running += kernel.cross(ctx, ctx[pick : pick + 1])[:, 0]
    return chosen
