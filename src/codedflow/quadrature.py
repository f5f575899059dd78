"""Tensorized Gauss-Hermite rules for circularly-symmetric complex Gaussian noise.

A unit-variance complex Gaussian component has independent real and
imaginary parts of variance 1/2.  With the change of variables
``v = sqrt(2) * sigma * t`` and ``sigma^2 = 1/2`` the Hermite abscissas are
used unscaled, and each complex component contributes a factor
``w_i * w_j / pi`` to the weight.  Rules are tensorized across complex
components, so a rule with ``nodes`` points per real axis over ``dim``
complex dimensions has ``nodes ** (2 * dim)`` points.

numpy's Hermite nodes and weights are exactly symmetric about 0, so multiplying every coordinate
by ``i`` (or ``-1``) permutes the grid and keeps each weight.  An expectation that this rotation
leaves unchanged is the sum over one representative of each orbit of points, each weighted by its
orbit's size, which ``phase_orbit_rule`` keeps: exact up to the rounding of the shorter sums.  An
expectation that depends on the noise's real part alone needs only the real axes:
``real_gauss_hermite`` has ``nodes ** dim`` points.  All three rules are tensor products of
one-coordinate rules (``_tensor``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import CostGuardError, _count

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
    dim = _count("dim", dim, 1)
    if dim > MAX_COMPLEX_DIM:
        raise CostGuardError(
            f"quadrature is guarded above {MAX_COMPLEX_DIM} complex dimensions (got {dim})"
        )
    return dim


def default_nodes(dim: int) -> int:
    return DEFAULT_NODES[_guarded(dim)]


def _hermite(dim: int, nodes: int):
    """numpy's ``nodes``-point Hermite rule ``(t, w)``, refused before anything is built if the
    complex tensor rule over ``dim`` axes would exceed ``MAX_RULE_POINTS`` or the weights are broken."""
    count = (nodes * nodes) ** _guarded(dim)
    if count > MAX_RULE_POINTS:
        raise CostGuardError(
            f"a {nodes}-node rule in {dim} complex dimensions has {count} points, over {MAX_RULE_POINTS}"
        )
    with np.errstate(all="ignore"):
        t, w = np.polynomial.hermite.hermgauss(nodes)
    if not (np.all(w > 0) and abs(w.sum() - np.sqrt(np.pi)) <= 1e-12):
        raise CostGuardError(f"the {nodes}-node Hermite rule has non-finite or vanishing weights")
    return t, w


def _axis_rule(dim: int, nodes: int):
    """The per-complex-axis rule ``(points, weights)``, ``nodes ** 2`` of each, at flat index
    ``i * nodes + j`` for ``t_i + 1j t_j``, refused as ``_hermite`` refuses."""
    t, w = _hermite(dim, nodes)
    re, im = np.meshgrid(t, t, indexing="ij")
    return (re + 1j * im).ravel(), np.outer(w, w).ravel() / np.pi


def _tensor(factors):
    """The row-major tensor product of one-coordinate rules ``(points, weights)``: a point for each
    combination of their points, weighted by the product of their weights from the first on."""
    points, weights = np.zeros((1, 0), dtype=complex), np.ones(1)
    for p, w in factors:
        points = np.column_stack([np.repeat(points, len(p), axis=0), np.tile(p, len(points))])
        weights = np.outer(weights, w).ravel()
    return _frozen(points, weights)


def _frozen(points, weights):
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights


@lru_cache(maxsize=8, typed=True)  # typed: 4.0 or True never meets the rule cached for 4 or 1
def complex_gauss_hermite(dim: int, nodes: int):
    """Quadrature rule for E[f(n)] with n ~ CN(0, I_dim).

    Returns ``(points, weights)`` where ``points`` is a complex array of
    shape ``(Q, dim)`` and ``weights`` a positive real array of shape
    ``(Q,)`` summing to 1 up to quadrature truncation.  A node count whose
    Hermite weights are not positive and summing to sqrt(pi) (numpy's
    ``hermgauss`` overflows from 371 nodes) raises ``CostGuardError``.
    """
    nodes = _count("nodes", nodes, 1)
    return _tensor([_axis_rule(dim, nodes)] * dim)


@lru_cache(maxsize=8, typed=True)
def real_gauss_hermite(dim: int, nodes: int):
    """Quadrature rule for E[f(Re n)] with n ~ CN(0, I_dim): ``complex_gauss_hermite``'s form with
    ``nodes ** dim`` points of imaginary part 0, each axis one real axis of the complex rule (nodes
    ``t_i`` at weights ``w_i / sqrt(pi)``), refused for the same ``(dim, nodes)`` as the complex rule.
    """
    nodes = _count("nodes", nodes, 1)
    t, w = _hermite(dim, nodes)
    return _tensor([(t.astype(complex), w / np.sqrt(np.pi))] * dim)


@lru_cache(maxsize=8, typed=True)
def phase_orbit_rule(dim: int, nodes: int, order: int):
    """``complex_gauss_hermite(dim, nodes)`` over the orbits of ``n -> i n`` (order 4) or ``-n``
    (order 2); order 1 returns the full rule itself.

    A rotation fixes only the origin, so every other orbit has ``order`` points, exactly one of them
    with its first nonzero coordinate in the sector ``0 <= arg < 2 pi / order``: the rule is the
    origin (odd node counts) and those points at ``order`` times their weight, about ``1 / order``
    of the grid, built as one tensor block per position of that coordinate.
    """
    nodes = _count("nodes", nodes, 1)
    if order not in (1, 2, 4):
        raise ValueError(f"phase order must be 1, 2 or 4, got {order}")
    if order == 1:
        return complex_gauss_hermite(dim, nodes)
    axis = _axis_rule(dim, nodes)
    re, im = axis[0].real, axis[0].imag
    in_sector = (re > 0) & (im >= 0) if order == 4 else (im > 0) | ((im == 0) & (re > 0))
    sector = axis[0][in_sector], order * axis[1][in_sector]  # a power of 2: exact in any factor
    zero = tuple(a[axis[0] == 0] for a in axis)  # the axis's origin, none for an even node count
    blocks = [_tensor([zero] * k + [sector] + [axis] * (dim - 1 - k)) for k in range(dim)] + [_tensor([zero] * dim)]
    return _frozen(*(np.concatenate(parts) for parts in zip(*blocks)))
