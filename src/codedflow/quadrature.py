"""Tensorized Gauss-Hermite rules for circularly-symmetric complex Gaussian noise.

A unit-variance complex Gaussian component has independent real and
imaginary parts of variance 1/2.  With the change of variables
``v = sqrt(2) * sigma * t`` and ``sigma^2 = 1/2`` the Hermite abscissas are
used unscaled, and each complex component contributes a factor
``w_i * w_j / pi`` to the weight.  Rules are tensorized across complex
components, so a rule with ``nodes`` points per real axis over ``dim``
complex dimensions has ``nodes ** (2 * dim)`` points.

numpy's Hermite nodes and weights are exactly symmetric about 0, so multiplying every coordinate
by ``i`` (or ``-1``) permutes the grid and keeps each weight.  An expectation that rotation leaves
unchanged is ``order`` times its sum over one representative of each orbit of points, which
``phase_orbit_rule`` keeps: exact up to the rounding of the shorter sums.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import CostGuardError

# Per-real-axis node counts, keyed by complex dimension.  Gauss-Hermite converges only
# algebraically on the mixture integrands, so the error depends on the channel.  Measured
# against denser rules: 1-D QPSK at 64 nodes, gains 0.25-6, is off from 360 nodes by up to
# 1.8e-6 nats in MI (gain 3.25) and 2.6e-5 in E (gain 2.5); figure1 (2-D, 16-point QPSK)
# at 24 nodes is off from 40 nodes by 7.2e-9 nats in MI and 1.1e-7 in E.  The 3-D rule is
# unmeasured: every denser 3-D rule exceeds MAX_RULE_POINTS.
DEFAULT_NODES = {1: 64, 2: 24, 3: 12}

MAX_COMPLEX_DIM = max(DEFAULT_NODES)
MAX_RULE_POINTS = 1 << 22  # above the 12**6 points of the default 3-D rule, at 56 B a point


def _guarded(dim: int) -> int:
    """``dim``, refused outside 1..MAX_COMPLEX_DIM complex dimensions."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if dim > MAX_COMPLEX_DIM:
        raise CostGuardError(
            f"quadrature is guarded above {MAX_COMPLEX_DIM} complex dimensions (got {dim})"
        )
    return dim


def default_nodes(dim: int) -> int:
    return DEFAULT_NODES[_guarded(dim)]


@lru_cache(maxsize=8)
def complex_gauss_hermite(dim: int, nodes: int):
    """Quadrature rule for E[f(n)] with n ~ CN(0, I_dim).

    Returns ``(points, weights)`` where ``points`` is a complex array of
    shape ``(Q, dim)`` and ``weights`` a positive real array of shape
    ``(Q,)`` summing to 1 up to quadrature truncation.  A node count whose
    Hermite weights are not positive and summing to sqrt(pi) (numpy's
    ``hermgauss`` overflows from 371 nodes) raises ``CostGuardError``.
    """
    count = (nodes * nodes) ** _guarded(dim)
    if count > MAX_RULE_POINTS:
        raise CostGuardError(
            f"a {nodes}-node rule in {dim} complex dimensions has {count} points, over {MAX_RULE_POINTS}"
        )
    with np.errstate(all="ignore"):
        t, w = np.polynomial.hermite.hermgauss(nodes)
    if not (np.all(w > 0) and abs(w.sum() - np.sqrt(np.pi)) <= 1e-12):
        raise CostGuardError(f"the {nodes}-node Hermite rule has non-finite or vanishing weights")
    re, im = np.meshgrid(t, t, indexing="ij")
    axis_points = (re + 1j * im).ravel()
    axis_weights = np.outer(w, w).ravel() / np.pi
    grids = np.meshgrid(*([np.arange(nodes * nodes)] * dim), indexing="ij")
    index = np.stack(grids, axis=-1).reshape(-1, dim)
    points = axis_points[index]
    weights = np.prod(axis_weights[index], axis=1)
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights


@lru_cache(maxsize=8)
def phase_orbit_rule(dim: int, nodes: int, order: int):
    """``complex_gauss_hermite(dim, nodes)`` over the orbits of ``n -> i n`` (order 4) or ``-n`` (2).

    It keeps, in the full rule's order, the points whose first nonzero coordinate has ``Re > 0,
    Im >= 0`` (order 4) or ``Re > 0`` or ``Re == 0, Im > 0`` (order 2), at ``order`` times their
    weight, and the origin of odd node counts at its own.  Order 1 returns the full rule itself.
    """
    if order not in (1, 2, 4):
        raise ValueError(f"phase order must be 1, 2 or 4, got {order}")
    rule = complex_gauss_hermite(dim, nodes)
    if order == 1:
        return rule
    points, weights = rule
    nonzero = points != 0
    lead = points[np.arange(len(points)), nonzero.argmax(axis=1)]  # first nonzero coordinate
    re, im = lead.real, lead.imag
    sector = (re > 0) & (im >= 0) if order == 4 else (re > 0) | ((re == 0) & (im > 0))
    origin = ~nonzero.any(axis=1)
    keep = sector | origin
    points, weights = points[keep], weights[keep] * np.where(origin[keep], 1.0, order)
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights
