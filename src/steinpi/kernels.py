"""Stein reproducing kernels with closed-form values, diagonals and gradients.

Two families are provided.  The Langevin kernel applies the Langevin Stein
operator to an inverse multi-quadric base kernel and controls weak
convergence; the KGM kernel of order s adds a normalised linear term and a
polynomial diffusion scaling, extending control to moments up to order s.
Both are parameterised by a mode location x* and a length-scale matrix
Sigma with Sigma^{-1} the negative log-density Hessian at x*.

Every entry of k_P reads the same per-point data: the target score and
the offsets from x* whitened by Sigma^{-1} and Sigma^{-2}.  ``context``
holds it per point set, each piece built on first read, and evaluates
the target only when no score is handed in.  Every operation reads a
context: ``cross`` assembles [k_P(x_i, y_j)] between two under the one
Gram size guard, ``gram`` is its square, bitwise-symmetric case on one,
and ``_diag_at`` reads k_P(x) and its gradient.  All of it is vectorised.
A score ``context`` evaluates, an entry of ``cross`` and the diagonal
thinning reads are finite, or ``_finite`` refuses them, naming the row.
Off the diagonal, the diffusion scaling v^(c/2) enters as a tilt
c Sigma^-1 (x - x*) / v of the score (see ``SteinKernel``), so no product
rule is expanded by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GramTooLarge, SteinpiError
from .targets import ModeInfo

__all__ = [
    "KernelContext",
    "SteinKernel",
    "LangevinKernel",
    "KGMKernel",
    "make_kernel",
    "AssumptionReport",
    "check_theorem_assumptions",
]

GRAM_GUARD = 20_000  # a Gram may hold at most GRAM_GUARD**2 entries


def _finite(compute, message):
    """compute() under no numpy warnings; SteinpiError(message(*index)) at its first entry not finite."""
    with np.errstate(all="ignore"):
        values = compute()
    if not np.isfinite(values).all():
        raise SteinpiError(message(*np.unravel_index(np.isfinite(values).argmin(), values.shape)))
    return values


@dataclass(frozen=True, eq=False)
class KernelContext:
    """Per-point data of a point set: delta = x - x*, the target score and
    the kernel's Sigma^-1 and Sigma^-2.  The whitened pieces a1 = delta
    Sigma^-1, a2 = delta Sigma^-2, u = delta.a1, v = 1 + u and q = delta.a2
    are built on first read, so a caller pays only for those it reads.
    ``ctx[rows]`` selects the rows of delta, score and every piece built."""

    delta: np.ndarray
    score: np.ndarray
    sigma_inv: np.ndarray
    sigma_inv2: np.ndarray

    @cached_property
    def a1(self):
        return np.einsum("ni,ij->nj", self.delta, self.sigma_inv)  # row-invariant, unlike matmul

    @cached_property
    def a2(self):
        return np.einsum("ni,ij->nj", self.delta, self.sigma_inv2)

    @cached_property
    def u(self):
        return np.einsum("nd,nd->n", self.delta, self.a1)

    @cached_property
    def v(self):
        return 1.0 + self.u

    @cached_property
    def q(self):
        return np.einsum("nd,nd->n", self.delta, self.a2)

    def __len__(self):
        return self.delta.shape[0]

    def __getitem__(self, rows):
        sub = KernelContext(self.delta[rows], self.score[rows], self.sigma_inv, self.sigma_inv2)
        for name in ("a1", "a2", "u", "v", "q"):
            if name in self.__dict__:
                sub.__dict__[name] = self.__dict__[name][rows]
        return sub


class SteinKernel:
    """Common assembly of a Stein kernel from family-specific base pieces.

    The off-diagonal value combines the base kernel c(x, y) with the target
    score s(.) = grad log p(.):

        k_P(x,y) = div_xy c + (grad_x c).s(y) + (grad_y c).s(x) + c s(x).s(y)

    A base part f(x) f(y) kappa(x, y) contributes f(x) f(y) times this
    expression for kappa at the tilted score t = s + grad log f, since the
    gradients of f fold into the score.  Subclasses provide ``_cross``, a
    sum of such parts, and the closed-form diagonal k_P(x) = k_P(x, x) with
    its gradient; the diagonal path never calls the cross path, so the two
    can be used to validate one another.
    """

    family = "stein"
    order = 1  # diffusion scaling order s; 1 means no scaling

    def __init__(self, target, mode: ModeInfo, beta: float = 0.5):
        if not 0.0 < beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        self.target = target
        self.mode = mode
        self.beta = beta
        self.x_star = mode.x_star
        self.sigma_inv = mode.sigma_inv
        self.sigma_inv2 = mode.sigma_inv @ mode.sigma_inv
        self.tr_sigma_inv = float(np.trace(mode.sigma_inv))
        self.dim = mode.x_star.shape[0]

    # ------------------------------------------------------------------
    # family-specific pieces
    # ------------------------------------------------------------------

    def _cross(self, x, y):
        raise NotImplementedError

    def _diag_at(self, ctx, hess=None):  # (k_P(x), its gradient or None without a Hessian)
        raise NotImplementedError

    # ------------------------------------------------------------------
    # shared assembly
    # ------------------------------------------------------------------

    def context(self, x, score=None):
        """The per-point context of a batch x (n, d); the target is evaluated
        only when no score is handed in.  A score it evaluates must be
        finite, and a non-finite point has no score (GARCH's formulas give
        finite limits there); a handed-in score is not checked, as pi's MALA
        step rejects such proposals unraised."""
        if score is None:
            x = np.asarray(x, dtype=np.float64)
            message = lambda row, _: f"target score is not finite at row {row}, x = {x[row].tolist()}"
            score = _finite(lambda: np.where(np.isfinite(x), self.target.grad_log_density(x), np.nan), message)
        return KernelContext(x - self.x_star, score, self.sigma_inv, self.sigma_inv2)

    def cross(self, x, y):
        """Matrix [k_P(x_i, y_j)] between two contexts, every entry finite;
        GramTooLarge, before allocating it, if rows x columns > GRAM_GUARD**2."""
        if len(x) * len(y) > GRAM_GUARD**2:
            raise GramTooLarge(f"a {len(x)} x {len(y)} Gram exceeds the guard of {GRAM_GUARD}**2 entries")
        return _finite(lambda: self._cross(x, y), "kernel entry at row {}, column {} is not finite".format)

    def gram(self, ctx):
        """Square Gram matrix [k_P(x_i, x_j)] of one context, under the guard
        of ``cross``, made bitwise symmetric by mirroring the upper triangle
        (row-major canonical entries).  The Gram of points x is
        ``gram(context(x))``; a rectangular one is ``cross(cx, cy)``."""
        k = self.cross(ctx, ctx)
        lower = np.tril_indices(k.shape[0], -1)
        k[lower] = k.T[lower]
        return k

    def _diag(self, x, order):
        """k_P and, at order 1, its gradient over a batch (n, d); one target evaluation."""
        _, score, hess = self.target._at(x, order + 1)
        return self._diag_at(self.context(x, score), hess)

    def diag_values(self, x):
        """k_P(x) over a batch, via closed-form diagonal coefficients."""
        return self._diag(x, 0)[0]

    def diag_grads(self, x):
        """Gradient of k_P(x) over a batch; needs the target Hessian."""
        return self._diag(x, 1)[1]

    def c1_squared(self):
        """Lower bound for inf_x k_P(x); exact for Langevin, numeric for KGM."""
        raise NotImplementedError


class LangevinKernel(SteinKernel):
    """Langevin Stein kernel over an inverse multi-quadric base kernel."""

    family = "langevin"
    order = 1

    def _imq(self, x, y, sx, sy):
        """Stein kernel of the inverse multi-quadric base at scores sx, sy:
        kappa sx.sy + div_xy kappa + (grad_x kappa).sy + (grad_y kappa).sx."""
        # In-place arithmetic throughout, at most four matrices alive: these
        # can reach 1e7 entries and fresh temporaries dominate the runtime.
        beta = self.beta
        w = x.a1 @ y.delta.T
        w *= -2.0
        w += x.u[:, None]
        w += y.u[None, :]
        w += 1.0  # 1 + ||x - y||^2_Sigma
        wb1 = w ** (-beta - 1.0)  # one transcendental; the rest by ratio
        out = wb1 * w  # kappa
        out *= sx @ sy.T
        div = x.a2 @ y.delta.T
        div *= -2.0
        div += x.q[:, None]
        div += y.q[None, :]  # (x - y)^T Sigma^-2 (x - y)
        div *= wb1
        div /= w
        div *= -4.0 * beta * (beta + 1.0)
        div += np.multiply(wb1, 2.0 * beta * self.tr_sigma_inv, out=w)  # w retired: the trace term
        out += div
        dxk_sy = np.matmul(x.a1, sy.T, out=div)
        dxk_sy -= np.einsum("md,md->m", y.a1, sy)[None, :]
        dxk_sy *= wb1
        dxk_sy *= -2.0 * beta
        out += dxk_sy
        dyk_sx = np.matmul(sx, y.a1.T, out=w)
        np.subtract(np.einsum("nd,nd->n", x.a1, sx)[:, None], dyk_sx, out=dyk_sx)
        dyk_sx *= wb1
        dyk_sx *= 2.0 * beta
        out += dyk_sx
        return out

    def _cross(self, x, y):
        return self._imq(x, y, x.score, y.score)

    def _diag_at(self, ctx, hess=None):
        # k_P(x) = 2 beta tr(Sigma^-1) + ||s(x)||^2, so grad k_P(x) = 2 H(x) s(x)
        score = ctx.score
        values = 2.0 * self.beta * self.tr_sigma_inv + np.einsum("nd,nd->n", score, score)
        if hess is None:
            return values, None
        return values, 2.0 * np.einsum("nij,nj->ni", hess, score)

    def c1_squared(self):
        # k_P(x) = 2 beta tr(Sigma^-1) + ||score||^2, so the infimum is the
        # constant term, attained wherever the score vanishes.
        return 2.0 * self.beta * self.tr_sigma_inv


class KGMKernel(LangevinKernel):
    """KGM Stein kernel of order s (moment convergence control).  Its base
    (v_x v_y)^(c/2) imq + (1 + a1_x.delta_y) / sqrt(v_x v_y), c = s - 1, is
    two parts: the IMQ Stein kernel at the score tilted by c a1 / v, and the
    linear one at the score t tilted by -a1 / v, each times its f(x) f(y)."""

    family = "kgm"

    def __init__(self, target, mode: ModeInfo, s: int = 3, beta: float = 0.5):
        super().__init__(target, mode, beta)
        if int(s) != s or s < 1:
            raise ValueError("order s must be a positive integer")
        self.order = int(s)

    def _cross(self, x, y):
        c = self.order - 1
        tx, ty = (z.score + c * z.a1 / z.v[:, None] for z in (x, y))
        out = self._imq(x, y, tx, ty)
        out *= x.v[:, None] ** (c / 2.0)
        out *= y.v[None, :] ** (c / 2.0)
        tx, ty = (z.score - z.a1 / z.v[:, None] for z in (x, y))
        lin = x.a1 @ y.delta.T
        lin += 1.0
        lin *= tx @ ty.T
        lin += (self.tr_sigma_inv + np.einsum("nd,nd->n", x.a1, tx))[:, None]
        lin += np.einsum("md,md->m", y.a1, ty)[None, :]
        lin /= np.sqrt(x.v)[:, None]
        lin /= np.sqrt(y.v)[None, :]
        out += lin
        return out

    def _diag_at(self, ctx, hess=None):
        """k_P(x) = c2(x) + 2 c1(x).s(x) + c0(x) ||s(x)||^2 with closed-form
        coefficients, and its gradient when the target Hessian is given."""
        v, q, a1, a2, score = ctx.v, ctx.q, ctx.a1, ctx.a2, ctx.score
        s = self.order
        beta = self.beta
        tr = self.tr_sigma_inv
        c0 = 1.0 + v ** (s - 1)
        c1 = (s - 1) * v[:, None] ** (s - 2) * a1
        c2 = ((s - 1) ** 2 * v ** (s - 1) - 1.0) * q / v**2 + tr * (1.0 + 2.0 * beta * v**s) / v
        snorm2 = np.einsum("nd,nd->n", score, score)
        values = c2 + 2.0 * np.einsum("nd,nd->n", c1, score) + c0 * snorm2
        if hess is None:
            return values, None
        gc0 = 2.0 * (s - 1) * v[:, None] ** (s - 2) * a1
        gc1 = 2.0 * (s - 1) * (s - 2) * v[:, None, None] ** (s - 3) * np.einsum(
            "ni,nj->nij", a1, a1
        ) + (s - 1) * v[:, None, None] ** (s - 2) * self.sigma_inv
        gc2 = (
            2.0 * (s - 1) ** 2 * (s - 3) * (v ** (s - 4) * q)[:, None] * a1
            + 2.0 * (s - 1) ** 2 * v[:, None] ** (s - 3) * a2
            + 4.0 * beta * tr * (s - 1) * v[:, None] ** (s - 2) * a1
            - 2.0 * v[:, None] ** (-2) * (a2 + tr * a1)
            + 4.0 * (v ** (-3) * q)[:, None] * a1
        )
        hs = np.einsum("nij,nj->ni", hess, score)
        hc1 = np.einsum("nij,nj->ni", hess, c1)
        gc1_s = np.einsum("nij,nj->ni", gc1, score)
        grads = gc2 + 2.0 * gc1_s + 2.0 * hc1 + gc0 * snorm2[:, None] + 2.0 * c0[:, None] * hs
        return values, grads

    def c1_squared(self):
        """Numeric lower bound on the box x* +/- 5; advisory only.

        Minimum over a regular grid (129 nodes per axis, 41 in 3D) of the
        node value minus a first-order margin (cell radius times the local
        diagonal-gradient norm).  Not a proof: the bound is reported as
        checked numerically.
        """
        d = self.dim
        if d > 3:
            raise ValueError("grid minoration supported only for d <= 3")
        halfwidth, nodes = 5.0, 41 if d == 3 else 129
        axes = [np.linspace(x - halfwidth, x + halfwidth, nodes) for x in self.x_star]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        vals, grads = self._diag(pts, 1)
        cell = np.sqrt(d) * halfwidth / (nodes - 1)
        lower = vals - cell * np.linalg.norm(grads, axis=1)
        return float(max(lower.min(), 0.0))


def make_kernel(target, mode, family, s=3, beta=0.5):
    """Construct a Stein kernel by family name ('langevin' or 'kgm')."""
    if family == "langevin":
        return LangevinKernel(target, mode, beta=beta)
    if family == "kgm":
        return KGMKernel(target, mode, s=s, beta=beta)
    raise ValueError(f"unknown kernel family {family!r}")


@dataclass
class AssumptionReport:
    """Numeric probe of the convergence-theorem assumptions; advisory only.

    The probes sample a shell of the given radius; nothing here is a proof.
    """

    family: str
    order: int
    in_theorem_scope: bool
    probe_radius: float
    probe_count: int
    c1_squared: float
    b1_candidate: float
    b2_candidate: float
    predicate_holds: bool
    predicate_text: str
    min_radius_for_b1: float | None = None
    notes: list = field(default_factory=list)

    def __str__(self):
        lines = [
            f"kernel family: {self.family} (order {self.order})",
            f"in theorem scope: {self.in_theorem_scope}",
            f"probe shell radius {self.probe_radius:g} with {self.probe_count} probes",
            f"C1^2 lower bound: {self.c1_squared:.6g}",
            f"b1 candidate (min eig of -hess log p on shell): {self.b1_candidate:.6g}",
            f"b2 candidate (max eig of differenced hess k_P on shell): {self.b2_candidate:.6g}",
            self.predicate_text,
        ]
        if self.min_radius_for_b1 is not None:
            lines.append(f"smallest probed radius with min eig >= b1: {self.min_radius_for_b1:.6g}")
        lines.extend(self.notes)
        return "\n".join(lines)


def _shell_points(center, radius, count, dim, rng):
    if dim == 1:
        signs = np.where(rng.random(count) < 0.5, -1.0, 1.0)
        return center + radius * signs[:, None]
    z = rng.standard_normal((count, dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return center + radius * z


def _diag_hessian_fd(kernel, x, h=1e-5):
    """Central-difference Hessian of x -> k_P(x) from the analytic gradient."""
    d = x.shape[0]
    hess = np.empty((d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        gp = kernel.diag_grads((x + e)[None, :])[0]
        gm = kernel.diag_grads((x - e)[None, :])[0]
        hess[i] = (gp - gm) / (2.0 * h)
    return 0.5 * (hess + hess.T)


def check_theorem_assumptions(kernel, probe_radius, probe_count=64, *, b1=None, seed=0):
    """Numerically probe the strong-consistency assumptions on a shell.

    Reports the minimum eigenvalue of -hess log p (a curvature lower bound
    candidate b1), the maximum eigenvalue of the numerically differenced
    Hessian of the kernel diagonal (a candidate b2), a lower bound on
    inf k_P, and the predicate b2 < 2 b1 C1^2.  When ``b1`` is supplied,
    a geometric radius scan reports the smallest probed radius at which
    the curvature bound holds.  Sampling-based; advisory, not a proof.
    """
    if probe_radius <= 0:
        raise ValueError("probe_radius must be positive")
    rng = np.random.default_rng(seed)
    target = kernel.target
    dim = kernel.dim
    pts = _shell_points(kernel.x_star, probe_radius, probe_count, dim, rng)
    hesses = target.hessian_log_density(pts)
    b1_candidate = float(min(np.linalg.eigvalsh(-h).min() for h in hesses))
    b2_candidate = float(
        max(np.linalg.eigvalsh(_diag_hessian_fd(kernel, p)).max() for p in pts)
    )
    c1sq = kernel.c1_squared()
    bound = 2.0 * b1_candidate * c1sq
    holds = bool(b2_candidate < bound)
    text = f"predicate b2 < 2*b1*C1^2: {b2_candidate:.6g} < {bound:.6g}: {holds}"
    notes = []
    in_scope = not (kernel.family == "kgm" and kernel.order >= 2)
    if not in_scope:
        notes.append(
            f"kernel kgm with order {kernel.order} is outside the scope of the "
            "consistency theorem (orders >= 2 are not covered)"
        )
    min_radius = None
    if b1 is not None:
        radii = np.geomspace(probe_radius / 1e3, probe_radius * 1e3, 121)
        for r in radii:
            shell = _shell_points(kernel.x_star, r, probe_count, dim, rng)
            min_eig = min(np.linalg.eigvalsh(-h).min() for h in target.hessian_log_density(shell))
            if min_eig >= b1:
                min_radius = float(r)
                break
    return AssumptionReport(
        family=kernel.family,
        order=kernel.order,
        in_theorem_scope=in_scope,
        probe_radius=float(probe_radius),
        probe_count=int(probe_count),
        c1_squared=float(c1sq),
        b1_candidate=b1_candidate,
        b2_candidate=b2_candidate,
        predicate_holds=holds,
        predicate_text=text,
        min_radius_for_b1=min_radius,
        notes=notes,
    )
