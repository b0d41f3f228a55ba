"""Over-dispersed sampling targets built from a base target and its kernel.

The recommended sampling density multiplies the target by the square root
of the kernel diagonal, log pi(x) = log p(x) + log(k_P(x)) / 2 up to a
constant; its gradient uses the analytic kernel-diagonal gradient.  The
power tilt p(x)^{d/(d+r)} is the generic over-dispersion alternative.
Both are targets derived from the base: each maps one evaluation of the
base to its own, so evaluating either evaluates the base once.  A stack of
laws over one base is a derived target too, so lockstep chains of p, pi
and tilts share one base evaluation per step.
Neither density needs a normalising constant anywhere in the package;
``estimate_c2`` exists purely as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .targets import TargetModel

__all__ = ["PiTarget", "PowerTilt", "StackedLaws", "make_pi", "make_power_tilt", "estimate_c2", "C2Estimate"]


class DerivedTarget(TargetModel):
    """A target whose evaluation at order o is ``_from_base(x, o, logp, grad,
    hess)`` of its base's evaluation at order o + ``lift``.  The split lets
    an exact grid evaluate a base once for every law derived from it.  By
    itself it is the base's own law: ``_from_base`` passes values through."""

    lift = 0

    def __init__(self, target):
        self.base = target
        self.dim = target.dim

    def _evaluate(self, x, order):
        return self._from_base(x, order, *self.base._evaluate(x, order + self.lift))

    def _from_base(self, x, order, *values):
        return values


class StackedLaws(DerivedTarget):
    """Laws over one base as one target, law k owning rows k R to k R + R - 1
    of a batch, for R = ``rows``; the base itself stands for p.

    An evaluation at order o evaluates the base once, at o plus the largest
    lift, and hands each law its block of the values up to its own order
    o + lift.  A law therefore reads what it would read alone, provided the
    base's derivatives up to an order do not depend on the order its hook
    ran at, and its rows not on the batch (row invariance).
    """

    def __init__(self, laws, rows):
        laws = [law if isinstance(law, DerivedTarget) else DerivedTarget(law) for law in laws]
        super().__init__(laws[0].base)
        if any(law.base is not self.base for law in laws):
            raise ValueError("stacked laws must derive from one base")
        self.laws, self.rows = laws, rows
        self.lift = max(law.lift for law in laws)

    def _from_base(self, x, order, *values):
        if len(x) != self.rows * len(self.laws):
            raise ValueError(f"{len(self.laws)} laws of {self.rows} rows each, got {len(x)} rows")
        blocks = []
        for k, law in enumerate(self.laws):
            rows = slice(k * self.rows, (k + 1) * self.rows)
            own = [None if a is None or i > order + law.lift else a[rows] for i, a in enumerate(values)]
            blocks.append(law._from_base(x[rows], order, *own))
        return tuple(None if parts[0] is None else np.concatenate(parts) for parts in zip(*blocks))


class PiTarget(DerivedTarget):
    """Density proportional to p(x) sqrt(k_P(x)), for a Stein kernel of p.

    An evaluation at order o evaluates the base once, at order o + 1: the
    kernel diagonal needs the base score, and its gradient the base
    Hessian.  The kernel diagonal is strictly positive, so the log is
    always finite.  A Hessian is deliberately not provided: it would
    require third derivatives of log p.
    """

    lift = 1

    def __init__(self, target, kernel):
        super().__init__(target)
        self.kernel = kernel

    def _from_base(self, x, order, logp, score, hess):
        if order > 1:
            raise NotImplementedError("the Hessian of log pi needs third derivatives of log p")
        values, grads = self.kernel._diag_at(self.kernel.context(x, score), hess)
        logq = logp + 0.5 * np.log(values)
        if order < 1:
            return logq, None, None
        return logq, score + 0.5 * grads / values[:, None], None


class PowerTilt(DerivedTarget):
    """Density proportional to p(x)^{d/(d+r)}."""

    def __init__(self, target, r):
        if r <= 0:
            raise ValueError("r must be positive")
        super().__init__(target)
        self.r = float(r)
        self.exponent = target.dim / (target.dim + self.r)

    def _from_base(self, x, order, *values):
        return tuple(None if a is None or k > order else self.exponent * a for k, a in enumerate(values))


def make_pi(target, kernel):
    """The over-dispersed sampling target for the given base and kernel."""
    return PiTarget(target, kernel)


def make_power_tilt(target, r):
    """The power-tilted sampling target p^{d/(d+r)}.

    No integrability check is performed; for heavy-tailed targets the tilt
    may fail to normalise and the caller is responsible for judging that.
    """
    return PowerTilt(target, r)


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
    x = target.sample(n, rng)  # raises NoExactSampler where unsupported
    roots = np.sqrt(kernel.diag_values(x))
    value = float(roots.mean())
    se = float(roots.std(ddof=1) / np.sqrt(n))
    return C2Estimate(value=value, standard_error=se, n=n)
