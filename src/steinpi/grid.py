"""Exact sampling of low-dimensional densities on a fine grid.

A law's log density is evaluated at every grid node, normalised, and nodes
are drawn from the resulting discrete distribution.  This is the reference
sampling mechanism for the bundled one- and two-dimensional experiments;
the discretisation bias is negligible next to Monte Carlo error at the
resolutions used.  A grid's nodes and the base target's evaluation there
are one table, kept on the target while it lives: p, its power tilt, pi
and the W1 reference on one grid all derive from one evaluation of p, made
CHUNK rows at a time: set-up memory is what is kept plus a fixed transient.
"""

from __future__ import annotations

import numpy as np

from .errors import SteinpiError
from .pi_targets import DerivedTarget

__all__ = ["GridSampler", "NODE_GUARD"]

# Kept per node: a 2-D table's nodes 16 bytes, log p 8, score 16, and 8 per
# sampler's CDF; chunks add at most CHUNK x 400 bytes.  p, tilt and pi keep ~320 MB.
NODE_GUARD = 5_000_000
CHUNK = 8192  # rows per evaluation


def _by_rows(evaluate, nodes, *values):
    """evaluate(nodes, *values), CHUNK rows at a time, each array written into
    a full-length output (None stays None): bitwise one batch's by row invariance."""
    out = None
    for start in range(0, len(nodes), CHUNK):
        rows = slice(start, start + CHUNK)
        parts = evaluate(nodes[rows], *(v if v is None else v[rows] for v in values))
        out = out or tuple(a if a is None else np.empty((len(nodes),) + a.shape[1:], a.dtype) for a in parts)
        for whole, part in zip(out, parts):
            if whole is not None:
                whole[rows] = part
    return out


def _table(target, bounds, num, order):
    """The grid's nodes and target._at there up to at least order, evaluated
    again only for a higher order."""
    tables = vars(target).setdefault("_grid_tables", {})
    nodes, values = tables.get((bounds, num), (None, (None,) * 3))
    if values[order] is None:
        if nodes is None:
            axes = (np.linspace(lo, hi, num) for lo, hi in bounds)
            nodes = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1)
        values = _by_rows(lambda x: target._at(x, order), nodes)  # each _at checks the dimension
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
        (cdf,) = _by_rows(lambda x, *v: law._from_base(x, 0, *v)[:1], nodes, *values)
        top = cdf.max()
        if not -np.inf < top < np.inf:
            grid = f"grid {[list(b) for b in bounds]} with num {num}"
            raise SteinpiError(f"{grid}: the log density is NaN or +inf at a node, or finite at none")
        np.exp(np.subtract(cdf, top, out=cdf), out=cdf)  # cdf is new: p's _from_base passes the table's log p
        self.nodes = nodes
        self._cdf = np.cumsum(np.divide(cdf, cdf.sum(), out=cdf), out=cdf)
        self._cdf[-1] = 1.0

    def sample(self, n, rng):
        """Draw n nodes (shape (n, d)) from the discretised distribution."""
        u = rng.random(n)
        idx = np.searchsorted(self._cdf, u, side="right")
        return self.nodes[idx]
