"""Independent reference implementations and test doubles used only to
check the library.

Everything here is deliberately naive: finite differences, exhaustive
enumeration, dense grids, an off-the-shelf NNLS solve.  None of it shares
code with the paths it verifies, except kernel_value, which reads one
pair from a 1 x 1 ``kernel.cross``, whole_grid, which calls a law's
evaluation hooks over every grid node in one batch, snis_weights, which
reads ``kernel.diag_values``, as estimate_c2 does, and wolfe_reference,
which shares the certificate's GAP_TOL, the step budget and the QPResult record with the
solver, and regression_reference, which reads a RegressionPosterior's
data.  dimension_effect computes the Langevin diagonal on a standard
Gaussian, 2 beta d + ||x||^2, in closed form and calls no kernel.
exact_sample draws a Gaussian or a Gaussian mixture target by its closed
form from the target's parameters; the pipeline's one exact mechanism is
the grid.  read_csv reads back what ``experiment.write_csv`` wrote.
w1_by_lcm_assignment solves transport as one assignment on lcm-many
copies, where the library solves a linear program.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from steinpi.quantise import GAP_TOL, STEPS_PER_POINT, QPResult, WeightedSample, _as_points
from steinpi.targets import Gaussian, GaussianMixture


def fd_gradient(f, x, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for i in range(x.shape[0]):
        step = h * max(1.0, abs(x[i]))
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2.0 * step)
    return g


def fd_jacobian(f, x, h=1e-6):
    """Central finite-difference Jacobian of a vector function."""
    x = np.asarray(x, dtype=np.float64)
    f0 = np.asarray(f(x))
    jac = np.empty((x.shape[0],) + f0.shape)
    for i in range(x.shape[0]):
        step = h * max(1.0, abs(x[i]))
        e = np.zeros_like(x)
        e[i] = step
        jac[i] = (np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * step)
    return jac


def rel_err(a, b):
    """||a - b|| relative to ||a||, floored at 1 to stay meaningful near 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.linalg.norm((a - b).ravel()) / max(1.0, np.linalg.norm(a.ravel())))


def simplex_grid(n, resolution):
    """All points of the (n-1)-simplex with coordinates on a 1/k grid."""
    k = int(round(1.0 / resolution))
    for comp in itertools.combinations(range(n + k - 1), n - 1):
        parts = np.diff((-1,) + comp + (n + k - 1,)) - 1
        yield np.asarray(parts, dtype=np.float64) / k


def qp_grid_search(gram, resolution=1e-3):
    """Brute-force minimum of w^T K w over a simplex grid."""
    n = gram.shape[0]
    if n <= 3:
        # vectorised enumeration; the generator is too slow at this density
        k = int(round(1.0 / resolution))
        w1 = np.repeat(np.arange(k + 1), np.arange(k + 1, 0, -1))
        w2 = np.concatenate([np.arange(k + 1 - a) for a in range(k + 1)])
        grid = np.stack([w1, w2, k - w1 - w2], axis=1)[:, :n].astype(np.float64) / k
        grid = grid[np.abs(grid.sum(axis=1) - 1.0) < 1e-12]
        vals = np.einsum("ni,ij,nj->n", grid, gram, grid)
        return float(vals.min())
    best = np.inf
    for w in simplex_grid(n, resolution):
        val = w @ gram @ w
        if val < best:
            best = val
    return best


def qp_support_enumeration(gram):
    """Exact global minimum of the simplex QP by support enumeration.

    For every candidate support the equality-constrained stationary point
    is solved; feasible candidates are compared directly.  The optimum's
    own support always yields the optimum, so the minimum over candidates
    is the global one.  Practical for n <= ~15.
    """
    n = gram.shape[0]
    best_val = np.inf
    best_w = None
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            idx = np.asarray(support)
            ksub = gram[np.ix_(idx, idx)]
            rhs = np.zeros(size + 1)
            rhs[size] = 1.0
            system = np.zeros((size + 1, size + 1))
            system[:size, :size] = 2.0 * ksub
            system[:size, size] = 1.0
            system[size, :size] = 1.0
            sol, *_ = np.linalg.lstsq(system, rhs, rcond=None)
            w_sub = sol[:size]
            if np.any(w_sub < -1e-12) or abs(w_sub.sum() - 1.0) > 1e-9:
                continue
            w = np.zeros(n)
            w[idx] = np.maximum(w_sub, 0.0)
            w /= w.sum()
            val = w @ gram @ w
            if val < best_val:
                best_val = val
                best_w = w
    return best_val, best_w


def qp_nnls(gram, penalty=1e3):
    """Simplex QP min w^T K w by nonnegative least squares.

    K = A^T A through an eigen-factor (negative rounding eigenvalues
    clipped), the constraint 1^T w = 1 enters as a heavily weighted extra
    row, and the NNLS solution is renormalised onto the simplex.  Returns
    (objective, weights); the weights are feasible, so the objective is an
    upper bound on the optimum.
    """
    from scipy.optimize import nnls

    n = gram.shape[0]
    lam, vec = np.linalg.eigh(0.5 * (gram + gram.T))
    factor = np.sqrt(np.maximum(lam, 0.0))[:, None] * vec.T
    rho = penalty * np.sqrt(max(float(np.max(np.diag(gram))), 1e-300))
    a = np.vstack([factor, np.full((1, n), rho)])
    b = np.zeros(n + 1)
    b[-1] = rho
    w, _ = nnls(a, b, maxiter=50 * n)
    w = w / w.sum()
    return float(w @ gram @ w), w


def kkt_residual(g, w, support_tol=1e-8):
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


def _affine_minimiser_reference(gram, support):
    """Bordered KKT solve by ``np.linalg.solve``, least squares if it raises."""
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


def wolfe_reference(gram):
    """Wolfe's minimum-norm-point method as first written: the support
    grown by ``np.append``, the bordered system assembled by ``np.ix_`` and
    solved by ``np.linalg.solve``, and the stall test a comparison of all n
    weights with a copy.  Same steps, exits, budget and certificate as
    ``optimal_weights``, which reads the same minimisers from a Cholesky
    factor; here every minor step is a bordered solve."""
    n = gram.shape[0]
    diag = np.diag(gram)
    unit = float(np.finfo(np.float64).eps * np.max(np.abs(diag)))
    support = np.array([np.argmin(diag)])
    w = np.zeros(n)
    w[support] = 1.0
    exhausted = True
    iterations = 0
    for iterations in range(1, STEPS_PER_POINT * n + 1):
        grad = 2.0 * (gram[:, support] @ w[support])
        f = float(w[support] @ (0.5 * grad[support]))
        j = int(np.argmin(grad))
        gap = float(grad[support] @ w[support] - grad[j])
        if gap <= GAP_TOL * abs(f) + unit or j in support:
            exhausted = False
            break
        previous = w.copy()
        support = np.append(support, j)
        while True:  # minor steps
            v = _affine_minimiser_reference(gram, support)
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
    f = float(w @ kw)
    grad = 2.0 * kw
    gap = float(grad @ w - grad.min())
    return QPResult(
        weights=w,
        objective=f,
        iterations=iterations,
        converged=not exhausted and gap <= GAP_TOL * abs(f) + n * unit,
        duality_gap=gap,
    )


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


def base_kappa(kernel, x, y):
    """Base kernel kappa of a Stein kernel at one pair, with its gradients:
    (value, grad_x, grad_y, div_xy).

    The inverse multi-quadric (1 + ||x - y||^2_Sigma)^-beta; the KGM family
    of order s adds the normalised linear term
    (1 + (x - x*)^T Sigma^-1 (y - x*)) / (v(x) v(y))^{s/2}, with
    v(z) = 1 + (z - x*)^T Sigma^-1 (z - x*).  Written pointwise from the
    formulas, independent of the kernels' batched cross path.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    si = kernel.sigma_inv
    beta = kernel.beta
    diff = x - y
    sid = si @ diff
    w = 1.0 + diff @ sid
    value = w ** (-beta)
    grad_x = -2.0 * beta * w ** (-beta - 1.0) * sid
    grad_y = -grad_x
    div = (
        -4.0 * beta * (beta + 1.0) * w ** (-beta - 2.0) * (sid @ sid)
        + 2.0 * beta * kernel.tr_sigma_inv * w ** (-beta - 1.0)
    )
    if kernel.family != "kgm":
        return value, grad_x, grad_y, div
    si2 = kernel.sigma_inv2
    s = kernel.order
    dx = x - kernel.x_star
    dy = y - kernel.x_star
    sidx = si @ dx
    sidy = si @ dy
    vx = 1.0 + dx @ sidx
    vy = 1.0 + dy @ sidy
    num = 1.0 + dx @ sidy
    denom = vx ** (s / 2.0) * vy ** (s / 2.0)
    value = value + num / denom
    grad_x = grad_x + (sidy - s * num * sidx / vx) / denom
    grad_y = grad_y + (sidx - s * num * sidy / vy) / denom
    div = div + (
        kernel.tr_sigma_inv
        - s * (dx @ si2 @ dx) / vx
        - s * (dy @ si2 @ dy) / vy
        + s**2 * num * (dx @ si2 @ dy) / (vx * vy)
    ) / denom
    return value, grad_x, grad_y, div


def stein_kernel_value(kernel, x, y):
    """Value k_P(x, y) for a single pair, assembled pointwise from
    ``base_kappa``, independent of the kernels' cross path.

    The scaled base is c(x, y) = P(x) P(y) kappa(x, y) with
    P = v^((s-1)/2) (P = 1 for Langevin); its gradients follow by the
    product rule, grad P = (s-1) v^((s-3)/2) Sigma^-1 (z - x*), and

        k_P(x,y) = div_xy c + (grad_x c).s(y) + (grad_y c).s(x) + c s(x).s(y).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    kappa, grad_x, grad_y, div = base_kappa(kernel, x, y)
    s = kernel.order

    def scale(z):  # (P(z), grad P(z))
        sid = kernel.sigma_inv @ (z - kernel.x_star)
        v = 1.0 + (z - kernel.x_star) @ sid
        return v ** ((s - 1) / 2.0), (s - 1) * v ** ((s - 3) / 2.0) * sid

    px, gpx = scale(x)
    py, gpy = scale(y)
    c = px * py * kappa
    grad_x_c = py * (gpx * kappa + px * grad_x)
    grad_y_c = px * (gpy * kappa + py * grad_y)
    div_c = gpx @ gpy * kappa + py * (gpx @ grad_y) + px * (gpy @ grad_x) + px * py * div
    sx = kernel.target.grad_log_density(x[None, :])[0]
    sy = kernel.target.grad_log_density(y[None, :])[0]
    return float(div_c + grad_x_c @ sy + grad_y_c @ sx + c * (sx @ sy))


def kernel_value(kernel, x, y):
    """Value k_P(x, y) for a single pair, from a 1 x 1 ``kernel.cross``.

    The pair is put in lexicographic order first, so k(x, y) and
    k(y, x) run the identical float operations and agree bitwise.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    for a, b in zip(x, y):
        if a < b:
            break
        if a > b:
            x, y = y, x
            break
    return float(kernel.cross(kernel.context(x[None, :]), kernel.context(y[None, :]))[0, 0])


def greedy_reference(points, kernel, m):
    """Greedy thinning re-evaluated from scratch each step, no caching."""
    n = points.shape[0]
    chosen = []
    for _ in range(m):
        best_idx = None
        best_val = np.inf
        for i in range(n):
            val = 0.5 * kernel.diag_values(points[i : i + 1])[0]
            for j in chosen:
                val += kernel_value(kernel, points[i], points[j])
            if val < best_val:  # strict: ties keep the lowest index
                best_val = val
                best_idx = i
        chosen.append(best_idx)
    return np.asarray(chosen, dtype=np.int64)


def wasserstein1_1d_monotone(xa, wa, xb, wb):
    """Exact 1D transport cost via the monotone (sorted) coupling."""
    ia = np.argsort(xa, kind="stable")
    ib = np.argsort(xb, kind="stable")
    xa, wa = xa[ia], wa[ia].copy()
    xb, wb = xb[ib], wb[ib].copy()
    i = j = 0
    cost = 0.0
    while i < len(xa) and j < len(xb):
        mass = min(wa[i], wb[j])
        cost += mass * abs(xa[i] - xb[j])
        wa[i] -= mass
        wb[j] -= mass
        if wa[i] <= 1e-15:
            i += 1
        if wb[j] <= 1e-15:
            j += 1
    return cost


def w1_by_lcm_assignment(a, b):
    """Exact transport cost between two equal-weight samples of any sizes:
    with L = lcm(n_a, n_b), each point is repeated L / n times, and the
    L x L assignment on Euclidean distances is solved by scipy."""
    size = math.lcm(len(a.points), len(b.points))
    xa = np.repeat(a.points, size // len(a.points), axis=0)
    xb = np.repeat(b.points, size // len(b.points), axis=0)
    cost = np.linalg.norm(xa[:, None, :] - xb[None, :, :], axis=-1)
    rows, cols = linear_sum_assignment(cost)
    return math.fsum(cost[rows, cols]) / size


def mala_log_ratio_reference(x, prop, eps, m, target):
    """Metropolis log-ratio recomputed from explicit proposal densities.

    q(b | a) is the Gaussian with mean a + eps M^{-1} grad(a) and
    covariance 2 eps M^{-1}; the ratio is computed from scratch with
    scipy, independent of the sampler's algebra.
    """
    from scipy.stats import multivariate_normal

    m = np.asarray(m, dtype=np.float64)
    m_inv = np.linalg.inv(m)
    cov = 2.0 * eps * m_inv

    def mean(a):
        return a + eps * m_inv @ target.grad_log_density(a)

    log_q_fwd = multivariate_normal.logpdf(prop, mean=mean(x), cov=cov)
    log_q_bwd = multivariate_normal.logpdf(x, mean=mean(prop), cov=cov)
    return target.log_density(prop) - target.log_density(x) + log_q_bwd - log_q_fwd


def mala_chain_reference(init, target, eps, m, normals, log_us):
    """States and accept flags of one preconditioned MALA chain, textbook style.

    With M = L L^T, each step whitens both gradients afresh, h = L^{-1}
    grad, proposes x' = x + L^{-T} (eps h(x) + sqrt(2 eps) z) and accepts
    when log u < log p(x') - log p(x) - ||w||^2 / (4 eps) + ||z||^2 / 2,
    w = eps (h(x) + h(x')) + sqrt(2 eps) z.  A proposal with a nonfinite
    density or gradient is rejected.  Plain Python floats, one point at a
    time, and every sum over the dimension taken left to right, the order
    the sampler documents, so a chain can be compared bitwise.
    """
    whitener = np.linalg.inv(np.linalg.cholesky(np.asarray(m, dtype=np.float64)))
    d = whitener.shape[0]
    root = math.sqrt(2.0 * eps)

    def dot(u, v):
        total = u[0] * v[0]
        for j in range(1, d):
            total = total + u[j] * v[j]
        return total

    def apply(a, v):
        return [dot(a[i], v) for i in range(d)]

    x = [float(c) for c in init]
    logp, grad = target.log_density_with_grad(np.array(x))
    states, flags = [], []
    for z, log_u in zip(normals.tolist(), log_us.tolist()):
        h_x = apply(whitener, grad.tolist())
        move = apply(whitener.T, [eps * h_x[j] + root * z[j] for j in range(d)])
        prop = [x[j] + move[j] for j in range(d)]
        logp_p, grad_p = target.log_density_with_grad(np.array(prop))
        accept = False
        if np.isfinite(logp_p) and np.isfinite(grad_p).all():
            h_p = apply(whitener, grad_p.tolist())
            w = [eps * (h_x[j] + h_p[j]) + root * z[j] for j in range(d)]
            accept = log_u < logp_p - logp - dot(w, w) / (4.0 * eps) + 0.5 * dot(z, z)
        if accept:
            x, logp, grad = prop, logp_p, grad_p
        states.append(x)
        flags.append(accept)
    return np.array(states), np.array(flags)


def regression_reference(target, x, order):
    """(logp, grad, hess) of a RegressionPosterior over a batch (n, 2), term
    by term: each sum over the observations is its own ``"ni,ni->n"`` einsum,
    and the Hessian is filled entry by entry.  The fused hook reads the same
    sums from one einsum, so the two agree bitwise."""
    x1 = x[:, 0:1]
    x2 = x[:, 1:2]
    basis = 1.0 + target.t[None, :] * x2  # d f_i / d x1
    f = x1 * basis
    resid = target.y[None, :] - f
    logp = -0.5 * np.einsum("nd,nd->n", x, x) - 0.5 * np.einsum("ni,ni->n", resid, resid)
    if order < 1:
        return logp, None, None
    dfdx2 = target.t[None, :] * x1
    grad = np.empty((x.shape[0], 2))
    grad[:, 0] = np.einsum("ni,ni->n", resid, basis)
    grad[:, 1] = np.einsum("ni,ni->n", resid, dfdx2)
    grad -= x
    if order < 2:
        return logp, grad, None
    h11 = -np.einsum("ni,ni->n", basis, basis)
    h22 = -np.einsum("ni,ni->n", dfdx2, dfdx2)
    # cross term picks up resid_i * d^2 f_i / dx1 dx2 = resid_i * t_i
    h12 = -np.einsum("ni,ni->n", basis, dfdx2) + np.einsum("ni,i->n", resid, target.t)
    hess = np.empty((x.shape[0], 2, 2))
    hess[:, 0, 0] = h11 - 1.0
    hess[:, 1, 1] = h22 - 1.0
    hess[:, 0, 1] = h12
    hess[:, 1, 0] = h12
    return logp, grad, hess


class ConstantKernel:
    """Degenerate kernel k(x, y) = value; a diagnostic and test double."""

    family = "constant"
    order = 1

    def __init__(self, value=1.0, dim=1):
        if value <= 0:
            raise ValueError("value must be positive")
        self.value = float(value)
        self.dim = dim

    def context(self, x, score=None):
        return np.atleast_2d(np.asarray(x, dtype=np.float64))  # rows select like a context

    def cross(self, x, y):
        return np.full((len(x), len(y)), self.value)

    def gram(self, ctx):
        return self.cross(ctx, ctx)

    def diag_values(self, x):
        return self._diag_at(self.context(x))[0]

    def diag_grads(self, x):
        return np.zeros_like(self.context(x))

    def _diag_at(self, ctx, hess=None):
        return np.full(len(ctx), self.value), None if hess is None else np.zeros_like(ctx)

    def c1_squared(self):
        return self.value


@dataclass(frozen=True)
class KernelDiagonal:
    """Diagonal value k_P(x) and its spatial gradient at one point."""

    value: float
    grad: np.ndarray


def kernel_diagonal(kernel, x):
    """KernelDiagonal of a kernel at a single point x of shape (d,)."""
    x = np.asarray(x, dtype=np.float64)[None, :]
    return KernelDiagonal(value=float(kernel.diag_values(x)[0]), grad=kernel.diag_grads(x)[0])


def whole_grid(law, bounds, num):
    """(nodes, base table, CDF) of an exact grid sampler of a law, the
    table evaluated at the law's lift and each from one whole-batch call."""
    mesh = np.meshgrid(*(np.linspace(lo, hi, num) for lo, hi in bounds), indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=1)
    base = getattr(law, "base", law)
    table = base._at(nodes, getattr(law, "lift", 0))
    logp = law._from_base(nodes, 0, *table)[0] if base is not law else table[0]
    probs = np.exp(logp - logp.max())
    cdf = np.cumsum(probs / probs.sum())
    cdf[-1] = 1.0
    return nodes, table, cdf


class NoExactSampler(Exception):
    """The target has no closed-form exact sampler here."""


def exact_sample(target, n, rng):
    """n exact draws of a Gaussian or a Gaussian mixture target, by their
    closed forms; raises NoExactSampler for any other target."""
    if isinstance(target, Gaussian):
        z = rng.standard_normal((n, target.dim))
        return target.mean + z @ np.linalg.cholesky(target.cov).T
    if isinstance(target, GaussianMixture):
        idx = rng.choice(len(target.weights), size=n, p=target.weights)
        z = rng.standard_normal((n, target.dim))
        return target.means[idx] + target.scales[idx, None] * z
    raise NoExactSampler(f"{type(target).__name__} has no exact sampler")


@dataclass(frozen=True)
class C2Estimate:
    """Monte Carlo estimate of the mean root kernel diagonal under P."""

    value: float
    standard_error: float
    n: int


def estimate_c2(target, kernel, n, rng):
    """Estimate E_P[sqrt(k_P(X))] from n exact draws of the target.

    Raises NoExactSampler for targets without an exact sampler.  The
    standard error is the plain CLT one; a drifting estimate across
    growing n is the practical signal that the integral may diverge.
    """
    x = exact_sample(target, n, rng)  # raises NoExactSampler where unsupported
    roots = np.sqrt(kernel.diag_values(x))
    value = float(roots.mean())
    se = float(roots.std(ddof=1) / np.sqrt(n))
    return C2Estimate(value=value, standard_error=se, n=n)


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


def read_csv(path):
    """Read back a CSV written by write_csv: (header, rows of strings)."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    header = lines[0].split(",") if lines else []
    return header, [line.split(",") for line in lines[1:]]
