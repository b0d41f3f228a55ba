"""Differentiable target distributions with analytic gradients and Hessians.

Every target exposes an unnormalised log-density together with its exact
gradient and Hessian; no automatic differentiation is used anywhere.  A
target implements one hook, ``_evaluate(x, order)``, which computes log p
and its derivatives up to ``order`` over a batch in one pass, with no loop
over rows (the GARCH posterior loops over time steps only); the public
evaluators wrap it and take a single point ``(d,)`` or a batch ``(n, d)``.
Row r of a batch is bitwise the value at the single point r: products and
sums over the dimension use einsum or element-wise arithmetic, not BLAS
matmul, whose rounding depends on the batch size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx, log_ndtr, ndtr

from .errors import InvalidSimplex, NoExactSampler, NonConvergence, NotPositiveDefinite

__all__ = [
    "TargetModel",
    "ModeInfo",
    "find_mode",
    "make_gaussian",
    "make_gaussian_mixture",
    "make_regression_posterior",
    "simulated_regression_data",
    "make_skew_normal_2d",
    "make_garch_posterior",
    "simulate_garch_series",
]

_REGRESSION_DATA_SEED = 111  # fixed so the simulated posterior is byte-reproducible


def _as_batch(x, dim):
    """Coerce input to (n, d), remembering whether it was a single point."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        if x.shape[0] != dim:
            raise DimensionError(dim, x.shape)
        return x[None, :], True
    if x.ndim == 2 and x.shape[1] == dim:
        return x, False
    raise DimensionError(dim, x.shape)


class DimensionError(ValueError):
    def __init__(self, dim, shape):
        super().__init__(f"expected point(s) of dimension {dim}, got shape {shape}")


class TargetModel:
    """A distribution known up to a constant, with exact derivatives.

    Subclasses implement the hook ``_evaluate(x, order)``.  Over a batch x
    of shape (n, d) it returns ``(logp, grad, hess)`` of shapes (n,),
    (n, d) and (n, d, d), computed in one pass, with every entry above
    ``order`` (0, 1 or 2) left as None.  The public evaluators are thin
    wrappers on the hook that also take a single point (d,).  Evaluation
    is pure.  A target may hold exact-grid tables of itself
    (``grid._table``).
    """

    dim: int

    def _evaluate(self, x, order):
        raise NotImplementedError

    def _at(self, x, order):
        """The hook at a point (d,) or a batch (n, d), shaped like the input."""
        xb, single = _as_batch(x, self.dim)
        logp, grad, hess = self._evaluate(xb, order)
        if not single:
            return logp, grad, hess
        return (
            float(logp[0]),
            None if grad is None else grad[0],
            None if hess is None else hess[0],
        )

    def log_density(self, x):
        return self._at(x, 0)[0]

    def grad_log_density(self, x):
        return self._at(x, 1)[1]

    def hessian_log_density(self, x):
        return self._at(x, 2)[2]

    def log_density_with_grad(self, x):
        """(log p, grad) from one evaluation."""
        return self._at(x, 1)[:2]

    def sample(self, n, rng):
        """Draw n exact samples, when the target admits an exact sampler."""
        raise NoExactSampler(f"{type(self).__name__} has no exact sampler")


@dataclass(frozen=True)
class ModeInfo:
    """A mode x* of the target with the local curvature factorised.

    ``sigma_inv`` is the negative Hessian of log p at x*, ``sigma`` its
    inverse and ``chol_sigma_inv`` the lower-triangular Cholesky factor of
    ``sigma_inv``.
    """

    x_star: np.ndarray
    sigma: np.ndarray
    sigma_inv: np.ndarray
    chol_sigma_inv: np.ndarray

    @classmethod
    def from_hessian(cls, x_star, hessian):
        """Build from x* and the Hessian of log p at x*.

        Raises NotPositiveDefinite when the negative Hessian has an
        eigenvalue at or below a small scale-relative floor, i.e. when the
        curvature is numerically indistinguishable from degenerate.
        """
        x_star = np.asarray(x_star, dtype=np.float64)
        sigma_inv = -np.asarray(hessian, dtype=np.float64)
        sigma_inv = 0.5 * (sigma_inv + sigma_inv.T)
        eigvals = np.linalg.eigvalsh(sigma_inv)
        floor = 1e-6 * max(1.0, float(np.max(np.abs(eigvals))))
        if eigvals.min() <= floor:
            raise NotPositiveDefinite(
                f"negative Hessian at the mode has min eigenvalue {eigvals.min():.3e}"
            )
        chol = np.linalg.cholesky(sigma_inv)
        ident = np.eye(len(x_star))
        sigma = np.linalg.solve(sigma_inv, ident)
        sigma = 0.5 * (sigma + sigma.T)
        return cls(x_star=x_star, sigma=sigma, sigma_inv=sigma_inv, chol_sigma_inv=chol)


def find_mode(target, init, max_iter=200, grad_tol=1e-8):
    """Locate a mode by damped Newton ascent with backtracking.

    Falls back to the gradient direction whenever the Hessian is not
    negative definite at an iterate.  On a multimodal target this finds
    the mode reached from ``init``; it makes no global claim.

    Raises NonConvergence if the gradient norm does not reach ``grad_tol``
    within ``max_iter`` iterations, and NotPositiveDefinite if the negative
    Hessian at the located mode is not positive definite.
    """
    if grad_tol <= 0:
        raise ValueError("grad_tol must be positive")
    x = np.asarray(init, dtype=np.float64).copy()
    logp, g, h = target._at(x, 2)
    if not np.all(np.isfinite(g)):
        raise ValueError("target gradient is not finite at init")
    for _ in range(max_iter):
        gnorm = np.linalg.norm(g)
        if gnorm <= grad_tol:
            return ModeInfo.from_hessian(x, h)
        step = None
        try:
            # Newton ascent direction solve(-H, g); valid only if -H is PD.
            chol = np.linalg.cholesky(-h)
            step = np.linalg.solve(chol.T, np.linalg.solve(chol, g))
        except np.linalg.LinAlgError:
            step = None
        if step is None or step @ g <= 0:
            step = g / max(gnorm, 1.0)
        # Backtracking line search on log p with an Armijo condition.
        t = 1.0
        descent = step @ g
        for _ in range(60):
            cand = x + t * step
            logp_cand = target.log_density(cand)
            if np.isfinite(logp_cand) and logp_cand >= logp + 1e-4 * t * descent:
                break
            t *= 0.5
        else:
            raise NonConvergence("line search failed to make progress")
        x = x + t * step
        logp, g, h = target._at(x, 2)
    raise NonConvergence(
        f"gradient norm {np.linalg.norm(g):.3e} "
        f"above tolerance {grad_tol:.3e} after {max_iter} iterations"
    )


class Gaussian(TargetModel):
    """N(mean, cov), exactly normalised, with an exact sampler."""

    def __init__(self, mean, cov=None):
        self.mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
        self.dim = self.mean.shape[0]
        if cov is None:
            cov = np.eye(self.dim)
        self.cov = np.atleast_2d(np.asarray(cov, dtype=np.float64))
        self._chol = np.linalg.cholesky(self.cov)
        self._prec = np.linalg.inv(self.cov)
        self._prec = 0.5 * (self._prec + self._prec.T)
        sign, logdet = np.linalg.slogdet(self.cov)
        self._log_norm = -0.5 * (self.dim * np.log(2.0 * np.pi) + logdet)

    def _evaluate(self, x, order):
        delta = x - self.mean
        prec_delta = np.einsum("ni,ij->nj", delta, self._prec)
        logp = self._log_norm - 0.5 * np.einsum("nj,nj->n", prec_delta, delta)
        grad = -prec_delta if order >= 1 else None
        hess = None
        if order >= 2:
            hess = np.broadcast_to(-self._prec, (x.shape[0], self.dim, self.dim)).copy()
        return logp, grad, hess

    def sample(self, n, rng):
        z = rng.standard_normal((n, self.dim))
        return self.mean + z @ self._chol.T


def make_gaussian(mean, cov=None):
    """Gaussian target; ``cov`` defaults to the identity."""
    return Gaussian(mean, cov)


class GaussianMixture(TargetModel):
    """Mixture of isotropic Gaussian components with analytic derivatives.

    Components are stored in a canonical sorted order so the log-density is
    bitwise invariant under permutations of the component list.
    """

    def __init__(self, weights, means, scales):
        weights = np.asarray(weights, dtype=np.float64)
        means = np.asarray(means, dtype=np.float64)
        if means.ndim == 1:
            means = means[:, None]
        scales = np.asarray(scales, dtype=np.float64)
        if not (weights.shape[0] == means.shape[0] == scales.shape[0]):
            raise InvalidSimplex("weights, means and scales must have equal length")
        if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise InvalidSimplex("mixture weights must be positive and sum to 1")
        if np.any(scales <= 0):
            raise ValueError("scales must be positive")
        order = np.lexsort(
            (weights, scales) + tuple(means[:, j] for j in reversed(range(means.shape[1])))
        )
        self.weights = weights[order]
        self.means = means[order]
        self.scales = scales[order]
        self.dim = means.shape[1]
        self._log_w = np.log(self.weights)
        self._var = self.scales**2
        self._log_norm = -0.5 * self.dim * np.log(2.0 * np.pi) - self.dim * np.log(self.scales)

    def _component_logpdfs(self, x):
        # (n, k): log w_j + log N(x; m_j, s_j^2 I)
        delta = x[:, None, :] - self.means[None, :, :]
        quad = np.einsum("nkd,nkd->nk", delta, delta) / self._var
        return self._log_w + self._log_norm - 0.5 * quad

    def _evaluate(self, x, order):
        lp_comp = self._component_logpdfs(x)
        m = lp_comp.max(axis=1, keepdims=True)
        dead = m == -np.inf  # no component has mass: log p is -inf, its derivatives NaN
        m[dead] = 0.0
        e = np.exp(lp_comp - m)
        s = e.sum(axis=1, keepdims=True)
        logp = (m + np.log(s, out=np.full_like(s, -np.inf), where=~dead))[:, 0]
        if order < 1:
            return logp, None, None
        r = np.divide(e, s, out=np.full_like(e, np.nan), where=~dead)  # component responsibilities
        comp_grads = (self.means[None, :, :] - x[:, None, :]) / self._var[None, :, None]
        g = np.einsum("nk,nkd->nd", r, comp_grads)
        if order < 2:
            return logp, g, None
        outer = np.einsum("nk,nkd,nke->nde", r, comp_grads, comp_grads)
        diag_term = np.einsum("nk,k->n", r, 1.0 / self._var)
        eye = np.eye(self.dim)
        return logp, g, outer - diag_term[:, None, None] * eye - np.einsum("nd,ne->nde", g, g)

    def sample(self, n, rng):
        idx = rng.choice(len(self.weights), size=n, p=self.weights)
        z = rng.standard_normal((n, self.dim))
        return self.means[idx] + self.scales[idx, None] * z


def make_gaussian_mixture(weights, means, scales):
    """Gaussian mixture target from simplex weights, means and scales."""
    return GaussianMixture(weights, means, scales)


def default_mixture():
    """The built-in trimodal 1D mixture used by the bundled experiments."""
    return make_gaussian_mixture(
        weights=(0.3, 0.4, 0.3), means=(-3.0, 0.0, 3.0), scales=(0.8, 1.0, 0.8)
    )


class RegressionPosterior(TargetModel):
    """Posterior of the 2-parameter nonlinear regression y_i = x1(1 + t_i x2) + e_i.

    Standard normal prior on x and unit observation noise give
    log p(x) = -||x||^2/2 - sum_i (y_i - x1(1 + t_i x2))^2 / 2 + const.
    """

    dim = 2

    def __init__(self, t, y):
        t = np.asarray(t, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if t.shape != y.shape or t.ndim != 1:
            raise ValueError(f"t and y must be 1-D arrays of equal length, got {t.shape} and {y.shape}")
        self.t = t
        self.y = y

    def _evaluate(self, x, order):
        x1 = x[:, 0:1]
        x2 = x[:, 1:2]
        basis = 1.0 + self.t[None, :] * x2  # d f_i / d x1
        f = x1 * basis
        resid = self.y[None, :] - f
        logp = -0.5 * np.einsum("nd,nd->n", x, x) - 0.5 * np.einsum("ni,ni->n", resid, resid)
        if order < 1:
            return logp, None, None
        dfdx2 = self.t[None, :] * x1
        grad = np.empty((x.shape[0], 2))
        grad[:, 0] = np.einsum("ni,ni->n", resid, basis)
        grad[:, 1] = np.einsum("ni,ni->n", resid, dfdx2)
        grad -= x
        if order < 2:
            return logp, grad, None
        h11 = -np.einsum("ni,ni->n", basis, basis)
        h22 = -np.einsum("ni,ni->n", dfdx2, dfdx2)
        # cross term picks up resid_i * d^2 f_i / dx1 dx2 = resid_i * t_i
        h12 = -np.einsum("ni,ni->n", basis, dfdx2) + np.einsum("ni,i->n", resid, self.t)
        hess = np.empty((x.shape[0], 2, 2))
        hess[:, 0, 0] = h11 - 1.0
        hess[:, 1, 1] = h22 - 1.0
        hess[:, 0, 1] = h12
        hess[:, 1, 0] = h12
        return logp, grad, hess


def simulated_regression_data(seed=_REGRESSION_DATA_SEED):
    """Design t_i = i - 5 (i = 1..10) and observations simulated at x = (0, 0).

    The seed is fixed so the resulting posterior is reproducible
    byte-for-byte across runs and machines.
    """
    t = np.arange(1, 11, dtype=np.float64) - 5.0
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(10)
    return t, y


def make_regression_posterior(t=None, y=None):
    """Regression posterior; defaults to the bundled simulated dataset."""
    if t is None and y is None:
        t, y = simulated_regression_data()
    return RegressionPosterior(t, y)


def _normal_hazard(z):
    """phi(z) / Phi(z), stable across the whole real line."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    neg = z < -1.0
    # For z << 0 use Phi(z) = exp(-z^2/2) * erfcx(-z/sqrt(2)) / 2.
    out[neg] = np.sqrt(2.0 / np.pi) / erfcx(-z[neg] / np.sqrt(2.0))
    zpos = z[~neg]
    phi = np.exp(-0.5 * zpos**2) / np.sqrt(2.0 * np.pi)
    out[~neg] = phi / ndtr(zpos)
    return out


class SkewNormal2D(TargetModel):
    """Bivariate skew-normal density 4 phi(x1) Phi(a1 x1) phi(x2) Phi(a2 x2)."""

    dim = 2

    def __init__(self, a1=6.0, a2=-3.0):
        self.a = np.array([a1, a2], dtype=np.float64)

    def _evaluate(self, x, order):
        z = x * self.a[None, :]
        logp = (
            np.log(4.0)
            - 0.5 * np.einsum("nd,nd->n", x, x)
            - np.log(2.0 * np.pi)
            + log_ndtr(z).sum(axis=1)
        )
        if order < 1:
            return logp, None, None
        h = _normal_hazard(z)
        grad = -x + self.a[None, :] * h
        if order < 2:
            return logp, grad, None
        hprime = -z * h - h**2
        hess = np.zeros((x.shape[0], 2, 2))
        diag = -1.0 + self.a[None, :] ** 2 * hprime
        hess[:, 0, 0] = diag[:, 0]
        hess[:, 1, 1] = diag[:, 1]
        return logp, grad, hess


def make_skew_normal_2d():
    """The built-in heavily skewed bivariate target."""
    return SkewNormal2D()


def _sigmoid(t):
    e = np.exp(-np.abs(t))  # exp of a non-positive number never overflows
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class GarchPosterior(TargetModel):
    """GARCH(1,1) log-posterior in an unconstrained parameterisation.

    The natural parameters are phi = (phi1, phi2, phi3, phi4) with
    phi2 > 0, phi3 > 0, phi4 > 0 and phi3 + phi4 < 1; the volatility
    recursion is s2_t = phi2 + phi3 a_{t-1}^2 + phi4 s2_{t-1} with
    a_t = y_t - phi1.  Sampling happens in theta, mapped through

        phi1 = theta1
        phi2 = exp(theta2)
        phi3 = sigmoid(theta3)
        phi4 = (1 - sigmoid(theta3)) * sigmoid(theta4)

    (a stick-breaking map for the stationarity triangle), with a flat prior
    on theta, so the log-Jacobian of the inverse map is added:
    log|J| = theta2 + log s'(theta3) + log(1 - s(theta3)) + log s'(theta4).
    Step t adds log N(y_t | phi1, s2_t), from s2_0 = var(y) and a_0 = 0.

    A batch is evaluated in one pass over (n, T) arrays.  The recursion is
    linear with rate phi4, and so are its phi-derivatives, each forced by
    terms known a step earlier; one loop over t per order runs all rows.
    """

    dim = 4

    def __init__(self, y):
        y = np.asarray(y, dtype=np.float64)
        if y.ndim != 1 or y.shape[0] < 2:
            raise ValueError("need a 1D series of length >= 2")
        self.y = y
        self.sigma2_0 = float(np.var(y))

    def _evaluate(self, x, order):
        n = x.shape[0]
        s3, s4 = _sigmoid(x[:, 2]), _sigmoid(x[:, 3])
        ds3, ds4 = s3 * (1.0 - s3), s4 * (1.0 - s4)
        phi2, phi3, phi4 = np.exp(x[:, 1]), s3, (1.0 - s3) * s4
        a = self.y - x[:, :1]  # a_t = y_t - phi1
        a2 = a**2
        a_prev = np.zeros_like(a)  # a_{t-1}, with a_0 = 0
        a_prev[:, 1:] = a[:, :-1]
        a2_prev = a_prev**2
        s2 = _linear_recursion(phi2[:, None] + phi3[:, None] * a2_prev, phi4, self.sigma2_0)
        logp = (-0.5 * np.log(s2) - a2 / (2.0 * s2)).sum(axis=1) + self.log_jacobian(x)
        if order < 1:
            return logp, None, None
        # d s2_t / d phi is forced by d(phi3 a_{t-1}^2) / d phi1, 1, a_{t-1}^2 and s2_{t-1}
        s2_prev = np.concatenate([np.full((n, 1), self.sigma2_0), s2[:, :-1]], axis=1)
        force = np.stack([phi3[:, None] * (-2.0 * a_prev), np.ones_like(s2), a2_prev, s2_prev], axis=2)
        g_s2 = _linear_recursion(force, phi4[:, None], 0.0)
        fp = -0.5 / s2 + a2 / (2.0 * s2**2)  # d loglik_t / d s2_t
        a_s2 = a / s2  # d loglik_t / d phi1 at fixed s2_t
        g_phi = (fp[:, :, None] * g_s2).sum(axis=1)
        g_phi[:, 0] += a_s2.sum(axis=1)
        jac = np.zeros((n, 4, 4))  # d phi_i / d theta_j: diagonal except phi4's row
        jac[:, [0, 1, 2, 3, 3], [0, 1, 2, 2, 3]] = np.stack(
            [np.ones(n), phi2, ds3, -ds3 * s4, (1.0 - s3) * ds4], axis=1
        )
        lj_grad = np.stack([np.zeros(n), np.ones(n), 1.0 - 3.0 * s3, 1.0 - 2.0 * s4], axis=1)
        grad = np.einsum("nki,nk->ni", jac, g_phi) + lj_grad
        if order < 2:
            return logp, grad, None
        # d2 s2_t / d phi2 is forced by a_{t-1} and d s2_{t-1} / d phi
        force = np.zeros(g_s2.shape + (4,))
        force[:, 1:, 0, 0] = 2.0 * phi3[:, None]
        force[:, :, 0, 2] = force[:, :, 2, 0] = -2.0 * a_prev
        force[:, 1:, 3, :] += g_s2[:, :-1]
        force[:, 1:, :, 3] += g_s2[:, :-1]
        h_s2 = _linear_recursion(force, phi4[:, None, None], 0.0)
        fpp = 0.5 / s2**2 - a2 / s2**3
        outer = g_s2[:, :, :, None] * g_s2[:, :, None, :]
        h_phi = (fpp[:, :, None, None] * outer + fp[:, :, None, None] * h_s2).sum(axis=1)
        # phi1 also enters a_t: -(a_t / s2_t^2) d s2_t / d phi on row and column 0, and -1 / s2_t
        cross = -((a_s2 / s2)[:, :, None] * g_s2).sum(axis=1)
        h_phi[:, 0] += cross
        h_phi[:, :, 0] += cross
        h_phi[:, 0, 0] -= (1.0 / s2).sum(axis=1)
        d2s3, d2s4 = ds3 * (1.0 - 2.0 * s3), ds4 * (1.0 - 2.0 * s4)
        jhess = np.zeros((n, 4, 4, 4))  # d2 phi_k / d theta_i d theta_j
        jhess[:, [1, 2, 3, 3, 3, 3], [1, 2, 2, 2, 3, 3], [1, 2, 2, 3, 2, 3]] = np.stack(
            [phi2, d2s3, -d2s3 * s4, -ds3 * ds4, -ds3 * ds4, (1.0 - s3) * d2s4], axis=1
        )
        hess = np.einsum("nki,nkl,nlj->nij", jac, h_phi, jac) + np.einsum("nk,nkij->nij", g_phi, jhess)
        hess[:, 2, 2] -= 3.0 * ds3  # the log-Jacobian's Hessian
        hess[:, 3, 3] -= 2.0 * ds4
        return logp, grad, hess

    def log_jacobian(self, theta):
        """log |J| of the unconstraining transform's inverse at theta (4,) or a batch (n, 4)."""
        theta = np.asarray(theta, dtype=np.float64).T
        s3, s4 = _sigmoid(theta[2]), _sigmoid(theta[3])
        return theta[1] + np.log(s3 * (1.0 - s3)) + np.log(1.0 - s3) + np.log(s4 * (1.0 - s4))


def _linear_recursion(forcing, rate, start):
    """z_t = forcing_t + rate * z_{t-1} along axis 1 of ``forcing``, from z_{-1} = start."""
    out = np.empty_like(forcing)
    z = start
    for t in range(forcing.shape[1]):
        z = out[:, t] = forcing[:, t] + rate * z
    return out


def simulate_garch_series(phi, n, seed=0, burn=200):
    """Simulate a GARCH(1,1) series y_t = phi1 + sigma_t eps_t of length n."""
    phi1, phi2, phi3, phi4 = phi
    if phi2 <= 0 or phi3 <= 0 or phi4 <= 0 or phi3 + phi4 >= 1:
        raise ValueError("phi violates the stationarity constraints")
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(n + burn)
    s2 = phi2 / (1.0 - phi3 - phi4)
    a = 0.0
    out = np.empty(n + burn)
    for t in range(n + burn):
        s2 = phi2 + phi3 * a**2 + phi4 * s2
        a = np.sqrt(s2) * eps[t]
        out[t] = phi1 + a
    return out[burn:]


def make_garch_posterior(y):
    """GARCH(1,1) posterior over the unconstrained parameter theta."""
    return GarchPosterior(y)
