"""Mutual information of the coded-flow channel and its matrix gradients.

Closed forms
------------
With ``E`` the conditional-mean error matrix of the channel ``z = Mx + n``
and ``M = A G B``, the mutual information responds to the three factors as

* decoding:   ``M E B^H G^H``
* topology:   ``A^H M E B^H``
* precoding:  ``G^H A^H M E``

and for the reduced channels obtained by cutting the flow before the
couplings (``y = Bx + n``) or before the read-out (``r = GBx + n``)

* cut at source, precoding:  ``B E_cut``
* cut at middle, precoding:  ``G^H G B E_cut``
* cut at middle, topology:   ``G B E_cut B^H``

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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import flowmodel
from .errors import InvariantViolation, StepTooSmallError
from .estimator import (
    EngineSpec,
    MmseMatrix,
    _as_matrix,
    _batch_se,
    mc_moments,
    mmse_matrix,
    quadrature_moments,
)
from .flowmodel import InputDistribution
from .netgraph import SystemMatrices

WIRTINGER_SCALE = 2.0
NATS_PER_BIT = float(np.log(2.0))

_BOUND_SLACK = 1e-9
_REL_FLOOR_FRACTION = 1e-6


@dataclass(frozen=True)
class MutualInformationValue:
    """Mutual information in nats with method provenance.

    ``count`` is the sample count (Monte Carlo) or per-axis node count
    (quadrature); ``standard_error`` is set for Monte Carlo only.
    """

    nats: float
    method: str
    count: int
    standard_error: float | None = None

    @classmethod
    def checked(cls, nats, method, count, standard_error=None, entropy_limit=np.inf):
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


def gaussian_mutual_information(M) -> float:
    """log det(I + M M^H) in nats, for a unit-covariance Gaussian input."""
    M = np.asarray(M, dtype=complex)
    cov = np.eye(M.shape[0], dtype=complex) + M @ M.conj().T
    _, logdet = np.linalg.slogdet(cov)
    return float(logdet)


def mutual_information(M, dist: InputDistribution, spec: EngineSpec = EngineSpec()) -> MutualInformationValue:
    """I(x; Mx + n) in nats by closed form, quadrature, or Monte Carlo."""
    M = _as_matrix(M)
    if dist.kind == "gaussian" and spec.method == "quadrature":
        return MutualInformationValue.checked(gaussian_mutual_information(M), "exact", 0)
    if spec.method == "quadrature":
        mi, _, nodes = quadrature_moments(M, dist, spec.resolve_nodes(M.shape[0]), want_mmse=False)
        return MutualInformationValue.checked(mi, "quadrature", nodes, entropy_limit=dist.entropy_nats())
    mi, mi_se, _, _, count = mc_moments(M, dist, spec, want_mmse=False)
    return MutualInformationValue.checked(
        mi, "mc", count, standard_error=mi_se, entropy_limit=dist.entropy_nats()
    )


# ---------------------------------------------------------------------------
# closed-form gradients
# ---------------------------------------------------------------------------


def grad_mi_decoding(sys: SystemMatrices, mmse: MmseMatrix) -> np.ndarray:
    """Gradient of I with respect to the decoding matrix A."""
    return sys.M @ mmse.matrix @ sys.B.conj().T @ sys.G.conj().T


def grad_mi_topology(sys: SystemMatrices, mmse: MmseMatrix) -> np.ndarray:
    """Gradient of I with respect to the topology matrix G."""
    return sys.A.conj().T @ sys.M @ mmse.matrix @ sys.B.conj().T


def grad_mi_precoding(sys: SystemMatrices, mmse: MmseMatrix) -> np.ndarray:
    """Gradient of I with respect to the precoding matrix B."""
    return sys.G.conj().T @ sys.A.conj().T @ sys.M @ mmse.matrix


_CUT_ALIASES = {"source": "source", "source-cut": "source", "mid": "mid", "mid-cut": "mid"}


def grad_mi_cut(cut: str, which: str, sys: SystemMatrices, mmse_cut: MmseMatrix) -> np.ndarray:
    """Closed-form gradient for a cut channel (``y = Bx + n`` or ``r = GBx + n``).

    ``mmse_cut`` must be the error matrix of the corresponding cut channel.
    The middle-cut topology gradient is ``G B E B^H``, i.e. the full-network
    topology form with the read-out matrix set to identity.
    """
    cut = _CUT_ALIASES.get(cut)
    if cut is None:
        raise ValueError(f"unknown cut {cut!r}")
    E = mmse_cut.matrix
    if cut == "source":
        if which != "B":
            raise ValueError("the source cut has no topology-matrix gradient")
        return sys.B @ E
    if which == "B":
        return sys.G.conj().T @ sys.G @ sys.B @ E
    if which == "G":
        return sys.G @ sys.B @ E @ sys.B.conj().T
    raise ValueError(f"unknown gradient target {which!r}")


_OBJECTIVE_TARGETS = {
    "full": ("A", "G", "B"),
    "source": ("B",),
    "mid": ("G", "B"),
}


def effective_matrix(objective: str, sys: SystemMatrices) -> np.ndarray:
    """Channel matrix seen by the input under each cut objective."""
    if objective == "full":
        return sys.M
    if objective == "source":
        return sys.B
    if objective == "mid":
        return sys.G @ sys.B
    raise ValueError(f"unknown objective {objective!r}")


def closed_gradient(sys: SystemMatrices, mmse: MmseMatrix, target: str, objective: str = "full") -> np.ndarray:
    """Dispatch to the closed form for (objective, target)."""
    if objective == "full":
        table = {"A": grad_mi_decoding, "G": grad_mi_topology, "B": grad_mi_precoding}
        return table[target](sys, mmse)
    return grad_mi_cut(objective, target, sys, mmse)


def _rebuilder(sys: SystemMatrices, target: str, objective: str):
    """Returns (base matrix, function mapping a replacement to the effective channel)."""
    if target not in _OBJECTIVE_TARGETS[objective]:
        raise ValueError(f"target {target!r} does not enter the {objective!r} objective")
    base = {"A": sys.A, "G": sys.G, "B": sys.B}[target]
    if objective == "full":
        builders = {
            "A": lambda X: X @ sys.G @ sys.B,
            "G": lambda X: sys.A @ X @ sys.B,
            "B": lambda X: sys.A @ sys.G @ X,
        }
    elif objective == "source":
        builders = {"B": lambda X: X}
    else:
        builders = {"G": lambda X: X @ sys.B, "B": lambda X: sys.G @ X}
    return base, builders[target]


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------


def _mc_info_samples(M_eff, dist, inputs, noise):
    """Per-sample information values for fixed (common) random draws."""
    M_eff = np.asarray(M_eff, dtype=complex)
    n_out = M_eff.shape[0]
    z = inputs @ M_eff.T + noise
    log_cond = -n_out * np.log(np.pi) - np.sum(np.abs(noise) ** 2, axis=1)
    if dist.kind == "gaussian":
        cov = flowmodel._output_moments(M_eff)
        _, logdet = np.linalg.slogdet(cov)
        quad = np.real(np.einsum("ni,ni->n", z.conj(), z @ np.linalg.inv(cov).T))
        log_pz = -n_out * np.log(np.pi) - logdet - quad
    else:
        means = dist.support @ M_eff.T
        log_pz = flowmodel.mixture_log_density(means, dist.log_probs, z)
    return log_cond - log_pz


def _mi_scalar(M_eff, dist, nodes):
    if dist.kind == "gaussian":
        return gaussian_mutual_information(M_eff)
    mi, _, _ = quadrature_moments(M_eff, dist, nodes, want_mmse=False)
    return mi


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
    """
    if not 1e-5 <= step <= 1e-2:
        raise ValueError("step must lie in [1e-5, 1e-2]")
    base, rebuild = _rebuilder(sys, target, objective)
    if not np.all(np.isfinite(base)):
        raise ValueError("target matrix has non-finite entries")
    n_out = effective_matrix(objective, sys).shape[0]

    use_mc = spec.method == "mc"
    if use_mc:
        inputs, noise = flowmodel.draw_inputs_and_noise(
            dist, n_out, spec.seed, spec.samples, workers=spec.workers
        )
        batches = spec.batches
        nodes = None
    else:
        nodes = None if dist.kind == "gaussian" else spec.resolve_nodes(n_out)

    rows, cols = base.shape
    coords = [(i, j, axis) for i in range(rows) for j in range(cols) for axis in (0, 1)]

    def fd_one(coord):
        i, j, axis = coord
        delta = step if axis == 0 else 1j * step
        plus = np.array(base)
        plus[i, j] += delta
        minus = np.array(base)
        minus[i, j] -= delta
        if use_mc:
            diff = _mc_info_samples(rebuild(plus), dist, inputs, noise) - _mc_info_samples(
                rebuild(minus), dist, inputs, noise
            )
            slope = float(np.mean(diff)) / (2.0 * step)
            se = float(_batch_se(diff, batches)) / (2.0 * step)
            return slope, se
        slope = (
            _mi_scalar(rebuild(plus), dist, nodes)
            - _mi_scalar(rebuild(minus), dist, nodes)
        ) / (2.0 * step)
        return slope, 0.0

    if spec.workers > 1:
        with ThreadPoolExecutor(max_workers=spec.workers) as pool:
            results = list(pool.map(fd_one, coords))
    else:
        results = [fd_one(c) for c in coords]

    oracle = np.zeros((rows, cols), dtype=complex)
    worst_se = 0.0
    for (i, j, axis), (slope, se) in zip(coords, results):
        oracle[i, j] += (slope if axis == 0 else 1j * slope) / WIRTINGER_SCALE
        worst_se = max(worst_se, se / WIRTINGER_SCALE)

    scale = float(np.max(np.abs(oracle), initial=0.0))
    if use_mc and scale > 0.0 and worst_se > noise_ratio_limit * scale:
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
    """Central difference of I along a fixed matrix direction."""
    base, rebuild = _rebuilder(sys, target, objective)
    direction = np.asarray(direction, dtype=complex)
    nodes = None if dist.kind == "gaussian" else spec.resolve_nodes(
        effective_matrix(objective, sys).shape[0]
    )
    plus = _mi_scalar(rebuild(base + step * direction), dist, nodes)
    minus = _mi_scalar(rebuild(base - step * direction), dist, nodes)
    return (plus - minus) / (2.0 * step)


def gaussian_logdet_gradient(sys: SystemMatrices, target: str, objective: str = "full") -> np.ndarray:
    """Analytic gradient of log det(I + M_eff M_eff^H) by matrix calculus.

    Independent of the estimation machinery: uses only the log-determinant
    differential and the product chain, so it cross-checks the error-matrix
    route for Gaussian inputs.
    """
    M_eff = effective_matrix(objective, sys)
    cov = np.eye(M_eff.shape[0], dtype=complex) + M_eff @ M_eff.conj().T
    W = np.linalg.solve(cov, M_eff)
    if objective == "full":
        left = {"A": np.eye(sys.A.shape[0]), "G": sys.A, "B": sys.A @ sys.G}[target]
        right = {"A": sys.G @ sys.B, "G": sys.B, "B": np.eye(sys.B.shape[1])}[target]
    elif objective == "source":
        if target != "B":
            raise ValueError("the source cut has no topology-matrix gradient")
        left = np.eye(sys.B.shape[0])
        right = np.eye(sys.B.shape[1])
    elif objective == "mid":
        left = {"G": np.eye(sys.G.shape[0]), "B": sys.G}[target]
        right = {"G": sys.B, "B": np.eye(sys.B.shape[1])}[target]
    else:
        raise ValueError(f"unknown objective {objective!r}")
    return left.conj().T @ W @ right.conj().T


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradientSet:
    """Closed-form gradients produced alongside the error matrix they used."""

    mmse: MmseMatrix
    form: str
    decoding: np.ndarray | None = None
    topology: np.ndarray | None = None
    precoding: np.ndarray | None = None

    def by_target(self, target: str) -> np.ndarray:
        value = {"A": self.decoding, "G": self.topology, "B": self.precoding}[target]
        if value is None:
            raise ValueError(f"no closed-form gradient for target {target!r}")
        return value


@dataclass(frozen=True)
class GradientReport:
    """Closed forms next to their oracles; discrepancies are recomputed on demand."""

    closed: GradientSet
    oracles: dict
    step: float
    calibration: float
    objective: str = "full"
    refinement: dict = field(default_factory=dict)

    def targets(self):
        return tuple(sorted(self.oracles))

    def discrepancy(self, target: str) -> dict:
        closed = self.closed.by_target(target)
        oracle = self.oracles[target]
        gap = np.abs(closed - oracle)
        scale = np.maximum(np.abs(closed), np.abs(oracle))
        floor = _REL_FLOOR_FRACTION * float(scale.max(initial=0.0))
        with np.errstate(invalid="ignore", divide="ignore"):
            rel = np.where(scale > floor, gap / np.maximum(scale, 1e-300), 0.0)
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
    targets=None,
) -> GradientReport:
    """Closed-form gradients against finite-difference oracles, one report.

    The error matrix is computed once for the objective's effective channel
    and shared by every closed form; each oracle re-evaluates the mutual
    information under entry perturbations.  A one-coordinate step-halving
    probe per target records how stable the differences are.
    """
    targets = tuple(targets) if targets is not None else _OBJECTIVE_TARGETS[objective]
    M_eff = effective_matrix(objective, sys)
    mmse = mmse_matrix(M_eff, dist, spec)
    fields = {}
    for target in targets:
        key = {"A": "decoding", "G": "topology", "B": "precoding"}[target]
        fields[key] = closed_gradient(sys, mmse, target, objective)
    closed = GradientSet(mmse=mmse, form=sys.form, **fields)

    oracles = {}
    refinement = {}
    for target in targets:
        oracles[target] = grad_oracle(sys, dist, target, spec, step=step, objective=objective)
        probe = np.unravel_index(
            int(np.argmax(np.abs(closed.by_target(target)))), closed.by_target(target).shape
        )
        direction = np.zeros_like(closed.by_target(target))
        direction[probe] = 1.0
        coarse = directional_derivative(
            sys, dist, target, direction, spec, step=step, objective=objective
        )
        fine = directional_derivative(
            sys, dist, target, direction, spec, step=step / 2.0, objective=objective
        )
        refinement[target] = abs(fine - coarse)

    return GradientReport(
        closed=closed,
        oracles=oracles,
        step=step,
        calibration=WIRTINGER_SCALE,
        objective=objective,
        refinement=refinement,
    )
