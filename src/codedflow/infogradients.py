"""Mutual information of the coded-flow channel and its matrix gradients.

Closed forms
------------
Every closed form is one chain rule.  For a channel ``z = M x + n`` with
conditional-mean error matrix ``E``, the information gradient with respect
to ``M`` is ``M E`` (Palomar & Verdu 2006).  Each objective's channel is a
suffix of the factor chain: full = (A, G, B), mid = (G, B), source = (B,).
Around a target ``X`` in it ``M_eff = L X R``, with ``L`` and ``R`` the
products of the factors left and right of ``X`` (an empty product is ``I``),
so the gradient with respect to ``X`` is ``L^H M_eff E R^H``.  Expanded:

    objective  channel            X   L     R      gradient
    full       z = A G B x + n    A   I     G B    M E B^H G^H
                                  G   A     B      A^H M E B^H
                                  B   A G   I      G^H A^H M E
    source     y = B x + n        B   I     I      B E
    mid        r = G B x + n      G   I     B      G B E B^H
                                  B   G     I      G^H G B E

where ``E`` is always the error matrix of the objective's own channel.
``closed_gradient(sys, mmse, target, objective)`` is the one public closed
form; ``grad_mi_cut`` is the same call spelled cut first, as the acceptance
gate writes it.  The same ``L`` and ``R`` rebuild the channel from a
perturbed factor for the finite-difference oracle, and give the
Gaussian-input gradient ``L^H (I + M_eff M_eff^H)^{-1} M_eff R^H`` of
``log det(I + M_eff M_eff^H)`` without any error matrix.

Information and error matrix come from one route, ``estimator._moments``,
which picks Monte Carlo, the Gaussian closed forms or quadrature for every
evaluation here: the reported values, the oracle and the refinement probe.

Oracles
-------
``_slope`` is the one finite difference, with one code path for every engine:
it forms ``L (X +- step D) R`` and averages the paired differences of
``estimator._information``, the per-sample ``log p(z|x) - log p(z)`` on the
law's kept draw under Monte Carlo (common random numbers), else the single
``_moments`` value.
``grad_oracle`` maps it over the unit directions ``E_ij`` and ``i E_ij``;
``directional_derivative`` is one quadrature call of it.  The law keeps its
quadrature passes, so in ``verify_gradients`` the coarse probe reuses its oracle
slope's passes, and for a real channel an imaginary-direction slope's two sides
are one pass, so it is 0.

Gradient convention
-------------------
All gradients are in conjugate coordinates: entry (i, j) is
``(d/dRe X_ij + i d/dIm X_ij) / 2`` of the mutual information.  A real
perturbation ``X + t D`` therefore moves the information at the rate
``2 Re Tr(D^H grad)``; the factor ``WIRTINGER_SCALE = 2`` is the single
calibration constant used library-wide.  It is pinned by two independent
anchors (the scalar information/error derivative and the Gaussian
log-determinant gradient) in the test suite and must not be changed
independently of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from . import flowmodel
from .errors import InvariantViolation, StepTooSmallError, _real
from .estimator import (
    EngineSpec,
    MmseMatrix,
    _as_matrix,
    _batch_se,
    _information,
    _moments,
    gaussian_mutual_information,  # re-exported: the closed form lives with the route
    mmse_matrix,
)
from .flowmodel import InputDistribution
from .netgraph import SystemMatrices

WIRTINGER_SCALE = 2.0
NATS_PER_BIT = float(np.log(2.0))

STEP_RANGE = (1e-5, 1e-2)  # admissible finite-difference steps

_BOUND_SLACK = 1e-9
_REL_FLOOR_FRACTION = 1e-6


@dataclass(frozen=True)
class MutualInformationValue:
    """Mutual information in nats with method provenance.

    ``method`` and ``count`` are those of ``estimator._moments``: the sample
    count (``monte-carlo``), the per-axis node count (``quadrature``) or 0
    (``exact``); ``standard_error`` is set for Monte Carlo only.
    """

    nats: float
    method: str
    count: int
    standard_error: float | None = None

    @classmethod
    def checked(cls, nats, method, count, standard_error=None, entropy_limit=np.inf):
        if not np.isfinite(nats):
            raise InvariantViolation(f"mutual information {nats} is not finite")
        slack = max(_BOUND_SLACK, 5.0 * (standard_error or 0.0))
        if nats < -slack:
            raise InvariantViolation(f"mutual information {nats:.3e} below zero beyond tolerance")
        if nats > entropy_limit + slack:
            raise InvariantViolation(
                f"mutual information {nats:.6f} exceeds the input entropy {entropy_limit:.6f}"
            )
        return cls(nats=float(nats), method=method, count=count, standard_error=standard_error)

    @property
    def bits(self) -> float:
        return self.nats / NATS_PER_BIT


def mutual_information(M, dist: InputDistribution, spec: EngineSpec = EngineSpec()) -> MutualInformationValue:
    """I(x; Mx + n) in nats, by ``estimator._moments``."""
    mi, mi_se, _, _, method, count = _moments(_as_matrix(M), dist, spec, want_mmse=False)
    return MutualInformationValue.checked(
        mi, method, count, standard_error=mi_se, entropy_limit=dist.entropy_nats()
    )


# ---------------------------------------------------------------------------
# closed-form gradients
# ---------------------------------------------------------------------------


# objective -> the factors its channel multiplies, a suffix of M = A G B
_OBJECTIVES = {"full": ("A", "G", "B"), "mid": ("G", "B"), "source": ("B",)}


def _targets(objective: str) -> tuple:
    """The factors an objective's channel multiplies, in chain order."""
    if objective not in _OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    return _OBJECTIVES[objective]


def _chain(sys: SystemMatrices, objective: str, target: str):
    """``(X, L, R)`` with ``M_eff = L @ X @ R``: ``L`` and ``R`` multiply the factors left and
    right of the target, in chain order; an empty product is a real ``np.eye``, so it is exact."""
    factors = _targets(objective)
    if target not in factors:
        raise ValueError(f"target {target!r} does not enter the {objective!r} objective")
    k = factors.index(target)
    X = getattr(sys, target)
    left = [getattr(sys, f) for f in factors[:k]]
    right = [getattr(sys, f) for f in factors[k + 1 :]]
    L = reduce(np.matmul, left) if left else np.eye(X.shape[0])
    R = reduce(np.matmul, right) if right else np.eye(X.shape[1])
    return X, L, R


def effective_matrix(objective: str, sys: SystemMatrices) -> np.ndarray:
    """Channel matrix seen by the input under each cut objective."""
    X, L, R = _chain(sys, objective, "B")  # every objective's channel ends in the precoder
    return L @ X @ R


def closed_gradient(sys: SystemMatrices, mmse: MmseMatrix, target: str, objective: str = "full") -> np.ndarray:
    """``L^H M_eff E R^H``, the one closed form, for (objective, target); ``mmse`` is the error
    matrix ``E`` of the objective's channel."""
    X, L, R = _chain(sys, objective, target)
    return L.conj().T @ (L @ X @ R) @ mmse.matrix @ R.conj().T


def grad_mi_cut(cut: str, which: str, sys: SystemMatrices, mmse_cut: MmseMatrix) -> np.ndarray:
    """``closed_gradient`` spelled cut first (``y = Bx + n`` or ``r = GBx + n``); ``mmse_cut`` is
    the cut channel's error matrix."""
    return closed_gradient(sys, mmse_cut, which, cut)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------


def _slope(L, base, R, direction, dist, spec, step):
    """``(slope, se)``: the central difference of I along ``direction``, the one finite difference,
    through the channels ``L @ (base +- step * direction) @ R``.

    It is the mean of the paired differences of ``estimator._information``, with their batch-means
    standard error under Monte Carlo (on common random numbers, the law's kept draw), else 0.
    """
    diff = _information(L @ (base + step * direction) @ R, dist, spec)
    diff -= _information(L @ (base - step * direction) @ R, dist, spec)
    se = float(_batch_se(diff)) if spec.method == "mc" else 0.0
    return float(np.mean(diff)) / (2.0 * step), se / (2.0 * step)


def grad_oracle(
    sys: SystemMatrices,
    dist: InputDistribution,
    target: str,
    spec: EngineSpec = EngineSpec(),
    *,
    step: float = 1e-3,
    objective: str = "full",
    noise_ratio_limit: float = 0.1,
):
    """Finite-difference gradient of the mutual information.

    Each free real coordinate of the target matrix (real and imaginary part
    of every entry) is perturbed by ``+-step``; central differences are
    combined into a complex matrix via the conjugate-coordinate convention,
    dividing by ``WIRTINGER_SCALE``.  Monte-Carlo evaluations reuse common
    random draws across the paired perturbations so that sampling noise
    cancels in the difference; the residual noise floor is estimated by
    batch means and the call fails with ``StepTooSmallError`` when it
    exceeds ``noise_ratio_limit`` of the largest gradient entry.

    ``spec.workers`` is the whole thread budget: the coordinates run on that
    many threads, with BLAS held at one thread (``flowmodel._pool_map``).
    """
    step = _real("step", step, *STEP_RANGE)
    noise_ratio_limit = _real("noise_ratio_limit", noise_ratio_limit, 0.0, np.inf, "(]")
    base, L, R = _chain(sys, objective, target)
    if not np.all(np.isfinite(base)):
        raise ValueError("target matrix has non-finite entries")

    if spec.method == "mc":  # draw before the pool, so its threads share the law's kept draw
        flowmodel._draws(dist, L.shape[0], spec.seed, spec.mc_samples(), spec.workers)

    rows, cols = base.shape
    coords = [(i, j, unit) for i in range(rows) for j in range(cols) for unit in (1.0, 1j)]

    def slope(coord):
        i, j, unit = coord
        direction = np.zeros(base.shape, dtype=complex)
        direction[i, j] = unit
        return _slope(L, base, R, direction, dist, spec, step)

    results = flowmodel._pool_map(slope, coords, spec.workers)
    oracle = np.zeros((rows, cols), dtype=complex)
    worst_se = 0.0
    for (i, j, unit), (value, se) in zip(coords, results):
        oracle[i, j] += unit * value / WIRTINGER_SCALE
        worst_se = max(worst_se, se / WIRTINGER_SCALE)

    scale = float(np.max(np.abs(oracle), initial=0.0))
    if spec.method == "mc" and scale > 0.0 and worst_se > noise_ratio_limit * scale:
        raise StepTooSmallError(
            f"finite-difference noise floor {worst_se:.2e} exceeds "
            f"{noise_ratio_limit:.0%} of the largest gradient entry {scale:.2e}; "
            "increase the step or the sample count"
        )
    return oracle


def directional_derivative(
    sys: SystemMatrices,
    dist: InputDistribution,
    target: str,
    direction: np.ndarray,
    spec: EngineSpec = EngineSpec(),
    *,
    step: float = 1e-4,
    objective: str = "full",
) -> float:
    """Central difference of I along a fixed matrix direction, always by the
    deterministic route: under a Monte Carlo spec it stays a quadrature check."""
    base, L, R = _chain(sys, objective, target)
    direction = np.asarray(direction, dtype=complex)
    if direction.shape != base.shape or not np.all(np.isfinite(direction)):
        raise ValueError(f"direction must be a finite {base.shape} matrix, got shape {direction.shape}")
    step = _real("step", step, 0.0, np.inf, "()")
    return _slope(L, base, R, direction, dist, replace(spec, method="quadrature"), step)[0]


def gaussian_logdet_gradient(sys: SystemMatrices, target: str, objective: str = "full") -> np.ndarray:
    """Analytic gradient of log det(I + M_eff M_eff^H) by matrix calculus.

    Independent of the estimation machinery: uses only the log-determinant
    differential and the product chain, so it cross-checks the error-matrix
    route for Gaussian inputs.
    """
    X, L, R = _chain(sys, objective, target)
    M_eff = L @ X @ R
    W = np.linalg.solve(np.eye(len(M_eff), dtype=complex) + M_eff @ M_eff.conj().T, M_eff)
    return L.conj().T @ W @ R.conj().T


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------


def _relative_gap(closed, oracle):
    """(|closed - oracle|, the gap relative to the larger magnitude), entries
    below 1e-6 of the largest magnitude reading zero relative gap."""
    gap = np.abs(closed - oracle)
    scale = np.maximum(np.abs(closed), np.abs(oracle))
    floor = _REL_FLOOR_FRACTION * float(scale.max(initial=0.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(scale > floor, gap / np.maximum(scale, 1e-300), 0.0)
    return gap, rel


@dataclass(frozen=True)
class GradientReport:
    """Closed forms, keyed by target, next to their oracles; discrepancies are
    recomputed on demand.  ``mmse`` is the error matrix every closed form used."""

    mmse: MmseMatrix
    closed: dict
    oracles: dict
    step: float
    objective: str = "full"
    refinement: dict = field(default_factory=dict)

    def targets(self):
        return tuple(sorted(self.oracles))

    def discrepancy(self, target: str) -> dict:
        gap, rel = _relative_gap(self.closed[target], self.oracles[target])
        worst = np.unravel_index(int(np.argmax(rel)), rel.shape)
        return {
            "max_abs": float(gap.max(initial=0.0)),
            "max_rel": float(rel.max(initial=0.0)),
            "entry": (int(worst[0]), int(worst[1])),
            "abs": gap,
            "rel": rel,
        }

    def passed(self, rel_tol: float) -> bool:
        return all(self.discrepancy(t)["max_rel"] <= rel_tol for t in self.targets())


def verify_gradients(
    sys: SystemMatrices,
    dist: InputDistribution,
    spec: EngineSpec = EngineSpec(),
    *,
    step: float = 1e-3,
    objective: str = "full",
) -> GradientReport:
    """Closed-form gradients against finite-difference oracles, one report.

    The error matrix is computed once for the objective's effective channel
    and shared by every closed form; each oracle re-evaluates the mutual
    information under entry perturbations.  A one-coordinate step-halving
    probe per target records how stable the differences are.
    """
    targets = _targets(objective)
    mmse = mmse_matrix(effective_matrix(objective, sys), dist, spec)
    closed = {t: closed_gradient(sys, mmse, t, objective) for t in targets}

    oracles, refinement = {}, {}
    for target in targets:
        oracles[target] = grad_oracle(sys, dist, target, spec, step=step, objective=objective)
        direction = np.zeros_like(closed[target])
        direction[np.unravel_index(int(np.argmax(np.abs(closed[target]))), direction.shape)] = 1.0
        coarse = directional_derivative(sys, dist, target, direction, spec, step=step, objective=objective)
        fine = directional_derivative(sys, dist, target, direction, spec, step=step / 2.0, objective=objective)
        refinement[target] = abs(fine - coarse)

    return GradientReport(mmse, closed, oracles, step, objective, refinement)
