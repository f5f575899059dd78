"""Tensorized Gauss-Hermite rules for circularly-symmetric complex Gaussian noise.

A unit-variance complex Gaussian component has independent real and
imaginary parts of variance 1/2.  With the change of variables
``v = sqrt(2) * sigma * t`` and ``sigma^2 = 1/2`` the Hermite abscissas are
used unscaled, and each complex component contributes a factor
``w_i * w_j / pi`` to the weight.  Rules are tensorized across complex
components, so a rule with ``nodes`` points per real axis over ``dim``
complex dimensions has ``nodes ** (2 * dim)`` points.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import CostGuardError

# Per-real-axis node counts giving ~1e-8 or better absolute accuracy on the
# mixture expectations used in this library, keyed by complex dimension.
DEFAULT_NODES = {1: 64, 2: 24, 3: 12}

MAX_COMPLEX_DIM = 3
MAX_RULE_POINTS = 1 << 22  # above the 12**6 points of the default 3-D rule, at 56 B a point


def default_nodes(dim: int) -> int:
    if dim not in DEFAULT_NODES:
        raise CostGuardError(
            f"quadrature is guarded above {MAX_COMPLEX_DIM} complex dimensions (got {dim})"
        )
    return DEFAULT_NODES[dim]


@lru_cache(maxsize=8)
def complex_gauss_hermite(dim: int, nodes: int):
    """Quadrature rule for E[f(n)] with n ~ CN(0, I_dim).

    Returns ``(points, weights)`` where ``points`` is a complex array of
    shape ``(Q, dim)`` and ``weights`` a positive real array of shape
    ``(Q,)`` summing to 1 up to quadrature truncation.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if dim > MAX_COMPLEX_DIM:
        raise CostGuardError(
            f"quadrature is guarded above {MAX_COMPLEX_DIM} complex dimensions (got {dim})"
        )
    count = (nodes * nodes) ** dim
    if count > MAX_RULE_POINTS:
        raise CostGuardError(
            f"a {nodes}-node rule in {dim} complex dimensions has {count} points, over {MAX_RULE_POINTS}"
        )
    t, w = np.polynomial.hermite.hermgauss(nodes)
    re, im = np.meshgrid(t, t, indexing="ij")
    axis_points = (re + 1j * im).ravel()
    axis_weights = np.outer(w, w).ravel() / np.pi
    if dim == 1:
        points = axis_points[:, None].copy()
        points.setflags(write=False)
        axis_weights.setflags(write=False)
        return points, axis_weights
    grids = np.meshgrid(*([np.arange(nodes * nodes)] * dim), indexing="ij")
    index = np.stack(grids, axis=-1).reshape(-1, dim)
    points = axis_points[index]
    weights = np.prod(axis_weights[index], axis=1)
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights
