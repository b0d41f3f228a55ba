"""Exact sampling of low-dimensional densities on a fine grid.

Probabilities are evaluated at every grid node, normalised, and nodes are
drawn from the resulting discrete distribution.  This is the reference
sampling mechanism for the bundled one- and two-dimensional experiments;
the discretisation bias is negligible next to Monte Carlo error at the
resolutions used.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GridSampler"]


class GridSampler:
    """Discrete sampler over a regular grid for a 1D or 2D log-density.

    ``bounds`` is a sequence of (lo, hi) pairs, one per dimension, and
    ``num`` the node count of every axis.  The target only needs a batched
    ``log_density``.
    """

    def __init__(self, target, bounds, num):
        bounds = [tuple(map(float, b)) for b in bounds]
        dim = len(bounds)
        if dim not in (1, 2):
            raise ValueError("grid sampling supports one or two dimensions")
        mesh = np.meshgrid(*(np.linspace(lo, hi, num) for lo, hi in bounds), indexing="ij")
        nodes = np.stack([m.ravel() for m in mesh], axis=1)
        logp = target.log_density(nodes)
        logp = logp - logp.max()
        probs = np.exp(logp)
        probs /= probs.sum()
        self.dim = dim
        self.nodes = nodes
        self.probs = probs
        self._cdf = np.cumsum(probs)
        self._cdf[-1] = 1.0

    def sample(self, n, rng):
        """Draw n nodes (shape (n, d)) from the discretised distribution."""
        u = rng.random(n)
        idx = np.searchsorted(self._cdf, u, side="right")
        return self.nodes[idx]
