"""Tensorized Gauss-Hermite rules for circularly-symmetric complex Gaussian noise.

A unit-variance complex Gaussian component has independent real and
imaginary parts of variance 1/2.  With the change of variables
``v = sqrt(2) * sigma * t`` and ``sigma^2 = 1/2`` the Hermite abscissas are
used unscaled, and each complex component contributes a factor
``w_i * w_j / pi`` to the weight.  Rules are tensorized across complex
components, so a rule with ``nodes`` points per real axis over ``dim``
complex dimensions has ``nodes ** (2 * dim)`` points.

numpy's Hermite nodes and weights are exactly symmetric about 0, so multiplying every coordinate
by ``i`` (or ``-1``), or conjugating it, permutes the grid and keeps each weight.  An expectation
that a group of these maps leaves unchanged is the sum over one representative of each orbit of
points, each weighted by its orbit's size, which ``phase_orbit_rule`` keeps: exact up to the
rounding of the shorter sums.  An expectation that depends on the noise's real part alone needs
only the real axes: ``real_gauss_hermite`` has ``nodes ** dim`` points.
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
    return _orbit_rule(dim, nodes, np.arange(nodes * nodes)[None])


@lru_cache(maxsize=8, typed=True)
def real_gauss_hermite(dim: int, nodes: int):
    """Quadrature rule for E[f(Re n)] with n ~ CN(0, I_dim): ``complex_gauss_hermite``'s form with
    ``nodes ** dim`` points of imaginary part 0, each axis one real axis of the complex rule (nodes
    ``t_i`` at weights ``w_i / sqrt(pi)``), refused for the same ``(dim, nodes)`` as the complex rule.
    """
    nodes = _count("nodes", nodes, 1)
    t, w = _hermite(dim, nodes)
    index = np.indices((nodes,) * dim).reshape(dim, -1)  # row-major, as the complex rule
    points, weights = np.ascontiguousarray(t[index].T, dtype=complex), np.prod(w[index] / np.sqrt(np.pi), axis=0)
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights


def _axis_group(nodes: int, order: int, conjugate: bool) -> np.ndarray:
    """The group as permutations of one axis's flat indices, one row per element: the powers of
    ``n -> i n`` (order 4) or ``-n`` (order 2), then each of them after ``n -> conj(n)`` if asked.
    Node ``flip - i`` is ``-t_i``, so ``i (t_re + 1j t_im)`` sits at ``(flip - im, re)``."""
    re, im = np.divmod(np.arange(nodes * nodes), nodes)
    flip = nodes - 1
    rotate = (flip - im) * nodes + re if order == 4 else (flip - re) * nodes + (flip - im)
    group = [re * nodes + im]
    while len(group) < order:
        group.append(rotate[group[-1]])
    if conjugate:
        group += [g[re * nodes + (flip - im)] for g in group]
    return np.array(group)


@lru_cache(maxsize=8, typed=True)
def phase_orbit_rule(dim: int, nodes: int, order: int, conjugate: bool):
    """``complex_gauss_hermite(dim, nodes)`` over the orbits of the group generated by ``n -> i n``
    (order 4) or ``-n`` (order 2), and by ``n -> conj(n)`` when ``conjugate``: for order 4 with
    conjugation the dihedral group of order 8, which keeps about an eighth of the grid.  The
    trivial group returns the full rule itself.
    """
    nodes = _count("nodes", nodes, 1)
    if order not in (1, 2, 4):
        raise ValueError(f"phase order must be 1, 2 or 4, got {order}")
    if order == 1 and not conjugate:
        return complex_gauss_hermite(dim, nodes)
    return _orbit_rule(dim, nodes, _axis_group(nodes, order, conjugate))


def _orbit_rule(dim: int, nodes: int, group: np.ndarray):
    """The tensor rule over one representative of each orbit of ``group`` (at most 8 rows, each a
    permutation of one axis's flat indices that acts on every coordinate alike).

    A point is kept, in the full rule's order, when no image of it has a smaller flat index, at
    ``|G| / |stabiliser|`` times its weight, so origin, axis and diagonal points keep their smaller
    orbits.  The flat index is compared coordinate by coordinate, carrying the elements that fix
    the prefix so far, so the full grid is never formed.
    """
    axis_points, axis_weights = _axis_rule(dim, nodes)
    bits = (1 << np.arange(len(group), dtype=np.uint8))[:, None]
    own = np.arange(nodes * nodes)
    lowering = np.bitwise_or.reduce(bits * (group < own), axis=0)  # per index, the elements that lower it
    fixing = np.bitwise_or.reduce(bits * (group == own), axis=0)  # and those that fix it
    coords, tied = [], np.array([(1 << len(group)) - 1], dtype=np.uint8)
    for _ in range(dim):
        prefix, index = np.nonzero((tied[:, None] & lowering) == 0)
        coords, tied = [c[prefix] for c in coords] + [index], tied[prefix] & fixing[index]
    points, weights = np.empty((len(tied), dim), dtype=complex), np.ones(len(tied))
    for k, index in enumerate(coords):
        points[:, k] = axis_points[index]
        weights *= axis_weights[index]
    weights *= len(group) // np.bitwise_count(tied)  # the identity fixes every point: never 0
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights
