"""Exact sampling of low-dimensional densities on a fine grid.

A law's log density is evaluated at every grid node, normalised, and nodes
are drawn from the resulting discrete distribution.  This is the reference
sampling mechanism for the bundled one- and two-dimensional experiments;
the discretisation bias is negligible next to Monte Carlo error at the
resolutions used.  A grid's nodes and the base target's evaluation there
are one table, kept on the target while it lives: p, its power tilt, pi
and the W1 reference on one grid all derive from one evaluation of p.
"""

from __future__ import annotations

import numpy as np

from .errors import SteinpiError
from .pi_targets import DerivedTarget

__all__ = ["GridSampler", "NODE_GUARD"]

# A pi KGM-3 tabulation peaks at 168 (skew normal) to 384 (regression
# posterior) bytes per node and retains 48, so a grid of this many nodes
# peaks near 1.9 GB.
NODE_GUARD = 5_000_000


def _table(target, bounds, num, order):
    """The grid's nodes and target._at there up to at least order, evaluated
    again only for a higher order."""
    tables = vars(target).setdefault("_grid_tables", {})
    nodes, values = tables.get((bounds, num), (None, (None,) * 3))
    if values[order] is None:
        if nodes is None:
            mesh = np.meshgrid(*(np.linspace(lo, hi, num) for lo, hi in bounds), indexing="ij")
            nodes = np.stack([m.ravel() for m in mesh], axis=1)
        values = target._at(nodes, order)  # checks the nodes' dimension
        tables[bounds, num] = nodes, values
    return nodes, values


class GridSampler:
    """Discrete sampler over a regular grid for a 1D or 2D law.

    ``bounds`` is a sequence of (lo, hi) pairs, one per dimension, and
    ``num`` the node count of every axis.  A derived law (pi, a power tilt)
    is read from its base's table, at the order its ``_from_base`` needs.
    Nodes at -inf carry no mass; NaN or +inf, or no finite value, is a
    SteinpiError.
    """

    def __init__(self, law, bounds, num):
        bounds = tuple(tuple(map(float, b)) for b in bounds)
        if len(bounds) not in (1, 2):
            raise ValueError("grid sampling supports one or two dimensions")
        law = law if isinstance(law, DerivedTarget) else DerivedTarget(law)  # p: its base's own law
        nodes, values = _table(law.base, bounds, num, law.lift)
        logp = law._from_base(nodes, 0, *values)[0]
        top = logp.max()
        if not -np.inf < top < np.inf:
            grid = f"grid {[list(b) for b in bounds]} with num {num}"
            raise SteinpiError(f"{grid}: the log density is NaN or +inf at a node, or finite at none")
        probs = np.exp(logp - top)
        self.nodes = nodes
        self._cdf = np.cumsum(probs / probs.sum())
        self._cdf[-1] = 1.0

    def sample(self, n, rng):
        """Draw n nodes (shape (n, d)) from the discretised distribution."""
        u = rng.random(n)
        idx = np.searchsorted(self._cdf, u, side="right")
        return self.nodes[idx]
