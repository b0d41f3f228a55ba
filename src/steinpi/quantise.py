"""Post-processing of sampler output against a Stein kernel.

Provides the kernel discrepancy of a weighted point set and the optimal
simplex-constrained reweighting (an exact active-set solve of min w^T K w
over the probability simplex by Wolfe's minimum-norm-point method, whose
minor steps are triangular solves on a Cholesky factor of the support's
Gram, updated as the support changes, certified by its duality gap),
both on a Gram the caller built, and the
indices of greedy thinning to m points, read from the kernel context of
the candidates: no target evaluation, O(n) working memory and no n x n
Gram.  The Gram size guard lives in ``SteinKernel.cross``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrsv
from scipy.linalg.lapack import dpotrf

from .errors import InvalidSimplex, NegativeQuadraticForm
from .kernels import _finite
from .targets import _as_batch

__all__ = [
    "WeightedSample",
    "QPResult",
    "uniform_sample",
    "ksd",
    "quadratic_form",
    "optimal_weights",
    "greedy_thin",
]


@dataclass(frozen=True, eq=False)
class WeightedSample:
    """Points (n, d) with nonnegative weights summing to one."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _as_batch(self.points))
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
    """Equal weights 1/n on the given points (n, d)."""
    points = _as_batch(points)
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


GAP_TOL = 1e-8  # relative duality gap of a certified solve
# Least squared pivot of the factor, relative to K_jj.  A repeated state's
# pivot is rounding: at most 1.1e-15 for copies of the 1540 members of 63
# optimal supports of up to 200 states.  Distinct neighbours on the
# 30,001-node mixture grid gave pivots down to 3.2e-14.
PIVOT_TOL = 1e-14
STEPS_PER_POINT = 10  # a solve on n points makes at most this many major steps per point
_TINY = np.finfo(np.float64).tiny


def _certified(gap, f, floor):
    return gap <= GAP_TOL * abs(f) + floor


class _Support:
    """Wolfe's support S = order[:m] in order of entry, with its mask
    ``member``, the rows K[S, :], the Cholesky factor L of K_SS and
    z = L^-1 1.

    The buffers hold ``cap`` entries, doubled as S grows; past m the rows
    and z are zero and L is the identity, so every triangular solve is one
    ``dtrsv`` on whole buffers.  A start factors K_SS by one ``dpotrf``
    (``factored`` says whether every pivot passed PIVOT_TOL), an append
    borders L, and a drop refactors only the trailing block.
    """

    def __init__(self, gram, support):
        n, m = len(gram), len(support)
        self.gram, self.diag, self.m = gram, np.diag(gram), m
        self.order = np.empty(n, dtype=np.intp)
        self.order[:m] = support
        self.member = np.zeros(n, dtype=bool)
        self.member[support] = True
        self.cap = min(n, max(16, 2 * m))
        self.rows = np.zeros((self.cap, n))
        self.rows[:m] = gram.take(support, 0)
        self.ones = np.ones(self.cap)
        a = np.eye(self.cap, order="F")
        a[:m, :m] = self.rows[:m].take(support, 1)
        self.L, info = dpotrf(a, lower=1, overwrite_a=1)
        pivots = np.diagonal(self.L)[:m] ** 2
        self.factored = info == 0 and bool((pivots > PIVOT_TOL * self.diag[support]).all())
        self._solve_ones()

    def _solve_ones(self):
        self.z = dtrsv(self.L, self.ones, lower=1)
        self.z[self.m :] = 0.0

    def _grow(self):
        m, n = self.m, len(self.gram)
        self.cap = min(2 * self.cap, n)
        rows, L, z = np.zeros((self.cap, n)), np.eye(self.cap, order="F"), np.zeros(self.cap)
        rows[:m], L[:m, :m], z[:m] = self.rows[:m], self.L[:m, :m], self.z[:m]
        self.rows, self.L, self.z, self.ones = rows, L, z, np.ones(self.cap)

    def append(self, j):
        """Add index j, not in S, at the end of S; False, and S unchanged,
        if its pivot d^2 is at most PIVOT_TOL * K_jj."""
        if self.m == self.cap:
            self._grow()
        m, L = self.m, self.L
        l = dtrsv(L, self.rows[:, j], lower=1)
        d2 = self.diag[j] - l @ l
        if not d2 > PIVOT_TOL * self.diag[j]:
            return False
        d = math.sqrt(d2)
        L[m, :m] = l[:m]
        L[m, m] = d
        self.z[m] = (1.0 - l @ self.z) / d
        self.rows[m] = self.gram[j]
        self.order[m] = j
        self.member[j] = True
        self.m = m + 1
        return True

    def minimiser(self):
        """Minimiser of w^T K w on the affine hull of S: K_SS^-1 1, normalised."""
        v = dtrsv(self.L, self.z, lower=1, trans=1)[: self.m]
        v /= v.sum()
        return v

    def drop(self, ws, k):
        """Remove the entries of S whose weight in ws is zero, entry k
        among them, and return the remaining weights.  Several reach zero
        at once only on a tie; they leave one at a time, the last first."""
        keep = ws > 0
        ws = ws[keep]
        for entry in (k,) if len(ws) == self.m - 1 else np.flatnonzero(~keep)[::-1]:
            self._remove(entry)
        self._solve_ones()
        return ws

    def _remove(self, k):
        """Remove entry k of S: later entries shift up, and only the
        trailing block of L is refactored."""
        m, order, rows, L = self.m, self.order, self.rows, self.L
        self.member[order[k]] = False
        order[k : m - 1] = order[k + 1 : m]
        rows[k : m - 1] = rows[k + 1 : m]
        rows[m - 1] = 0.0
        if k < m - 1:
            # without entry k, K_SS is L11 L11^T bordered by L31, with the
            # trailing block L33 L33^T + l32 l32^T
            tail = L[k + 1 : m, k:m]
            block, info = dpotrf(tail @ tail.T, lower=1)
            if info != 0:
                raise np.linalg.LinAlgError(f"Cholesky update of Wolfe's support failed (dpotrf info {info})")
            L[k : m - 1, :k] = L[k + 1 : m, :k]
            L[k : m - 1, k : m - 1] = block
        L[m - 1, :m] = 0.0
        L[m - 1, m - 1] = 1.0
        self.m = m - 1


def _minor_cycle(support, ws):
    """Wolfe's minor steps from the weights ws on S, which shrinks in
    ``support``; S's final weights return."""
    while True:
        v = support.minimiser()
        if v.min() > 0.0:
            return v
        blocking = (v <= 0).nonzero()[0]
        wb = ws[blocking]
        ratios = wb / np.maximum(wb - v[blocking], _TINY)
        first = ratios.argmin()
        ws = np.maximum(ws + float(ratios[first]) * (v - ws), 0.0)
        ws[blocking[first]] = 0.0
        ws = support.drop(ws, blocking[first])


def optimal_weights(gram, start=None):
    """Minimise w^T K w over the probability simplex, for an n x n Gram K.

    Wolfe's active-set (minimum-norm-point) method on the Gram: each major
    step adds the steepest-descent vertex to the support S, then minor
    steps move toward the minimiser on the affine hull of S, dropping the
    first coordinate to reach zero, until that minimiser lies strictly
    inside the simplex.  That minimiser is K_SS^-1 1 normalised, read from
    a Cholesky factor of K_SS that each append and drop updates in
    O(|S|^2) work.  The solve starts at the vertex argmin diag K, or at
    ``start``, any simplex point, made such a minimiser by a minor cycle
    on its support before the first major step: a nearby optimum, such as
    a shorter prefix's padded with zeros, saves major steps.  A start
    whose K_SS has no factor with every pivot d^2 > PIVOT_TOL * K_jj (two
    copies of one state, say) is not used, and the solve starts cold.
    With u = eps * max|diag K|, the rounding unit of the gradient, the
    result is certified optimal (``converged``) when the Frank-Wolfe
    duality gap satisfies gap <= GAP_TOL * |f| + n * u.  Iteration goes
    on below that, until gap <= GAP_TOL * |f| + u, or until the method
    stalls: rounding makes the entering vertex leave at once, or its
    pivot fails the test above (it lies in the span of S), so the weights
    are as accurate as the arithmetic allows.  After STEPS_PER_POINT * n
    major steps the iterate returns with ``converged=False``.  There is no
    linear term, because a Stein kernel has zero mean under the target.  K
    must be symmetric positive semidefinite, as a Gram is: K w is read
    from the rows of S.  Raises ValueError unless the Gram is a non-empty
    finite square 2-D array and the start, if given, n finite nonnegative
    weights summing to 1 within 1e-10, and LinAlgError if rounding breaks
    a drop's update of the factor.
    """
    gram = np.asarray(gram, dtype=np.float64)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1] or gram.shape[0] == 0:
        raise ValueError(f"gram must be a non-empty square 2-D array, got shape {gram.shape}")
    if not np.isfinite(gram).all():
        raise ValueError("gram must be finite")
    n = gram.shape[0]
    diag = np.diag(gram)
    unit = float(np.finfo(np.float64).eps * np.max(np.abs(diag)))
    support = None
    if start is not None:
        start = np.asarray(start, dtype=np.float64)
        simplex = np.isfinite(start).all() and (start >= 0).all() and abs(start.sum() - 1.0) <= 1e-10
        if start.shape != (n,) or not simplex:
            raise ValueError(f"start must be {n} finite nonnegative weights summing to 1")
        initial = np.flatnonzero(start)
        support, ws = _Support(gram, initial), start[initial]
    if support is None or not support.factored:
        # cold: S is the vertex argmin diag K; every weight off S is zero
        support, ws = _Support(gram, np.array([np.argmin(diag)])), np.ones(1)
    order, member = support.order, support.member
    if len(ws) > 1:
        ws = _minor_cycle(support, ws)
    exhausted = True
    iterations = 0
    for iterations in range(1, STEPS_PER_POINT * n + 1):
        m = len(ws)
        # half the gradient, K w: f = w.(K w) is w.(grad/2), and the gap
        # 2 (f - min K w) is grad.w - min grad, bitwise, as doubling is exact
        half = ws @ support.rows[:m]
        f = float(ws @ half[order[:m]])
        j = int(half.argmin())
        gap = 2.0 * (f - float(half[j]))
        if _certified(gap, f, unit) or member[j] or not support.append(j):
            exhausted = False
            break
        previous = ws
        ws = _minor_cycle(support, np.concatenate((ws, (0.0,))))
        # stalled (the entering vertex left at once and S kept its weights):
        # the same step would repeat forever
        if not member[j] and len(ws) == len(previous) and (ws == previous).all():
            exhausted = False
            break
    w = np.zeros(n)
    w[order[: len(ws)]] = ws
    w /= w.sum()
    kw = gram @ w
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
    ``kernel.gram(ctx[idx])``.  Raises ValueError on an empty candidate
    set, and SteinpiError on a diagonal value that is not finite.
    """
    n = len(ctx)
    if m < 1:
        raise ValueError("m must be >= 1")
    if n == 0:
        raise ValueError("candidate set must be nonempty")
    half_diag = 0.5 * _finite(lambda: kernel._diag_at(ctx)[0], "kernel diagonal at row {} is not finite".format)
    running = np.zeros(n)
    chosen = np.empty(m, dtype=np.int64)
    for j in range(m):
        pick = int(np.argmin(half_diag + running))
        chosen[j] = pick
        if j + 1 < m:
            running += kernel.cross(ctx, ctx[pick : pick + 1])[:, 0]
    return chosen
