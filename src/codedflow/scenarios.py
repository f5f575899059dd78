"""Worked scenarios on the five-edge diamond network, network cuts, and a
precoder ascent demo.

The diamond network has four vertices: a source feeding two edges (e1, e2),
a relay chord (e3), and two edges into the sink (e4, e5).  Its compact
factors are 2x2:

    A_c = [[gamma_e4_1, gamma_e5_1],     G_c = [[beta_e1_e4,            0         ],
           [gamma_e4_2, gamma_e5_2]]            [beta_e1_e3*beta_e3_e5, beta_e2_e5]]

    B_c = [[alpha_1_e1, alpha_1_e2],
           [alpha_2_e1, alpha_2_e2]]

``alpha_i_ej`` names the entry at row i, column j of the compact precoding
block (row = source edge, column = input stream).

The (1,1) entry of the topology gradient ``A^H A G B E B^H`` expands into
24 monomials over these symbols (six per entry of E).  Two transcriptions
of the full expansion are kept: the one published with this network, and a
corrected version.  They differ in exactly one factor of one E11 term, the
erratum recorded once in ``_ERRATUM`` and worded by ``erratum_note``.  The
comparison report quantifies this erratum instead of hiding it; both lists
stay available.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import mul

import numpy as np

from .errors import CodedFlowError, _count, _real
from .estimator import EngineSpec, MmseMatrix, mmse_matrix
from .flowmodel import InputDistribution, _philox
from .infogradients import (
    MutualInformationValue,
    _targets,
    closed_gradient,
    effective_matrix,
    mutual_information,
)
from .netgraph import CodingCoefficients, NetworkTopology, SystemMatrices, zero_edge_coefficients

_SEEDED_RANGE = (0.3, 1.0)  # the uniform draw of seeded_diamond_symbols
_GRAD11_RANGE = (-1.0, 1.0)  # the uniform draws of grad11_matches_matrix_form

# ---------------------------------------------------------------------------
# the diamond network
# ---------------------------------------------------------------------------

# symbol -> (family, first, second): the coefficient slot the symbol fills, keyed
# (first, second) in the family's map with edge names read as edge indices.
# ``alpha_i_ej`` lands on source edge i, input j, as documented above.
_DIAMOND_SLOTS = {
    "gamma_e4_1": ("gamma", 0, "e4"),
    "gamma_e4_2": ("gamma", 1, "e4"),
    "gamma_e5_1": ("gamma", 0, "e5"),
    "gamma_e5_2": ("gamma", 1, "e5"),
    "beta_e1_e4": ("beta", "e1", "e4"),
    "beta_e1_e3": ("beta", "e1", "e3"),
    "beta_e3_e5": ("beta", "e3", "e5"),
    "beta_e2_e5": ("beta", "e2", "e5"),
    "alpha_1_e1": ("alpha", 0, "e1"),
    "alpha_1_e2": ("alpha", 1, "e1"),
    "alpha_2_e1": ("alpha", 0, "e2"),
    "alpha_2_e2": ("alpha", 1, "e2"),
}
DIAMOND_SYMBOLS = tuple(_DIAMOND_SLOTS)


def diamond_topology() -> NetworkTopology:
    return NetworkTopology.from_edges(
        vertices=("v1", "v2", "v3", "v4"),
        edges=[("v1", "v2"), ("v1", "v3"), ("v2", "v3"), ("v2", "v4"), ("v3", "v4")],
        sources=("v1",),
        sinks=("v4",),
        edge_names=("e1", "e2", "e3", "e4", "e5"),
    )


def _diamond_slots(topology: NetworkTopology):
    """(symbol, family, slot key) for every symbol, with edges indexed in ``topology``."""
    return [
        (symbol, family, tuple(topology.edge_index(p) if isinstance(p, str) else p for p in parts))
        for symbol, (family, *parts) in _DIAMOND_SLOTS.items()
    ]


def diamond_coefficients(symbols) -> CodingCoefficients:
    """Coefficient maps for the diamond network from a symbol assignment."""
    missing = [s for s in DIAMOND_SYMBOLS if s not in symbols]
    if missing:
        raise CodedFlowError(f"missing coefficients: {', '.join(missing)}")
    maps = {"alpha": {}, "beta": {}, "gamma": {}}
    for symbol, family, slot in _diamond_slots(diamond_topology()):
        maps[family][slot] = symbols[symbol]
    return CodingCoefficients(**maps)


def diamond_symbols(topology: NetworkTopology, coefficients: CodingCoefficients) -> dict:
    """The inverse of ``diamond_coefficients`` on a topology with edges e1..e5;
    a slot without a coefficient reads 0."""
    if topology.edge_names is None or sorted(topology.edge_names) != ["e1", "e2", "e3", "e4", "e5"]:
        raise CodedFlowError("this command needs the five-edge diamond topology (edges e1..e5)")
    maps = {"alpha": coefficients.alpha, "beta": coefficients.beta, "gamma": coefficients.gamma}
    return {symbol: maps[family].get(slot, 0.0) for symbol, family, slot in _diamond_slots(topology)}


def diamond_compact_matrices(symbols):
    """The three 2x2 compact factors, directly from the symbol table."""
    s = symbols
    A_c = np.array(
        [[s["gamma_e4_1"], s["gamma_e5_1"]], [s["gamma_e4_2"], s["gamma_e5_2"]]],
        dtype=complex,
    )
    G_c = np.array(
        [
            [s["beta_e1_e4"], 0.0],
            [s["beta_e1_e3"] * s["beta_e3_e5"], s["beta_e2_e5"]],
        ],
        dtype=complex,
    )
    B_c = np.array(
        [[s["alpha_1_e1"], s["alpha_1_e2"]], [s["alpha_2_e1"], s["alpha_2_e2"]]],
        dtype=complex,
    )
    return A_c, G_c, B_c


def diamond_compact_system(symbols) -> SystemMatrices:
    A_c, G_c, B_c = diamond_compact_matrices(symbols)
    return SystemMatrices.from_factors(A_c, G_c, B_c, form="compact")


def seeded_diamond_symbols(seed: int) -> dict:
    """Real coefficient draw, one uniform on ``_SEEDED_RANGE`` per symbol in a fixed order."""
    rng = _philox(seed, 0xD1A)
    return {name: float(rng.uniform(*_SEEDED_RANGE)) for name in DIAMOND_SYMBOLS}


# ---------------------------------------------------------------------------
# the expanded (1,1) topology-gradient entry
# ---------------------------------------------------------------------------

_A11, _A12, _A21, _A22 = "alpha_1_e1", "alpha_1_e2", "alpha_2_e1", "alpha_2_e2"
_G41, _G42, _G51, _G52 = "gamma_e4_1", "gamma_e4_2", "gamma_e5_1", "gamma_e5_2"
_B14, _B13, _B35, _B25 = "beta_e1_e4", "beta_e1_e3", "beta_e3_e5", "beta_e2_e5"


def _group(row, col, left, right):
    """Six monomials tied to one entry of E; ``left``/``right`` are the
    trailing source-coupling factors of that group."""
    return [
        (row, col, (_G41, _G41, _B14, left, right)),
        (row, col, (_G41, _G51, _B13, _B35, left, right)),
        (row, col, (_G41, _G51, _B25, *_swap_first(left, right))),
        (row, col, (_G42, _G42, _B14, left, right)),
        (row, col, (_G42, _G52, _B13, _B35, left, right)),
        (row, col, (_G42, _G52, _B25, *_swap_first(left, right))),
    ]


def _swap_first(left, right):
    # the beta_e2_e5 terms replace the leading alpha_1_* factor with alpha_2_*
    swap = {_A11: _A21, _A12: _A22}
    return (swap[left], right)


TERMS_FULL_CORRECTED = tuple(
    _group(0, 0, _A11, _A11)
    + _group(0, 1, _A11, _A12)
    + _group(1, 0, _A12, _A11)
    + _group(1, 1, _A12, _A12)
)

# The erratum, the one place the published transcription departs from the
# corrected list: (index of the term, the factors printed there).
_ERRATUM = (5, (_G41, _G52, _B25, _A21, _A11))
TERMS_FULL_PRINTED = tuple(
    (row, col, _ERRATUM[1] if k == _ERRATUM[0] else factors)
    for k, (row, col, factors) in enumerate(TERMS_FULL_CORRECTED)
)


def erratum_note() -> str:
    """The report line naming the erratum term and its gamma pair, printed and corrected."""
    index, published = _ERRATUM
    row, col, corrected = TERMS_FULL_CORRECTED[index]
    printed, fixed = ("*".join(factors[:2]) for factors in (published, corrected))  # the gamma pair leads
    return (
        f"erratum: E{row + 1}{col + 1} group, term {index % 6 + 1} - "
        f"published {printed}, matrix form gives {fixed}"
    )


_REMOVED_BY_VARIANT = {
    "no-e3": frozenset({_B13, _B35}),
    "no-e2e5": frozenset({_B25, _B35, _G51, _G52}),
}


def reduce_terms(terms, zeroed_symbols):
    """Drop every monomial containing a zeroed symbol."""
    zeroed = frozenset(zeroed_symbols)
    return tuple(t for t in terms if not zeroed & set(t[2]))


def edge_symbols(edge: str) -> frozenset:
    """The diamond symbols that ``zero_edge_coefficients`` zeroes on ``edge``."""
    topology = diamond_topology()
    ones = diamond_coefficients(dict.fromkeys(DIAMOND_SYMBOLS, 1.0))
    cut = diamond_symbols(topology, zero_edge_coefficients(ones, topology.edge_index(edge)))
    return frozenset(symbol for symbol, value in cut.items() if value == 0)


@dataclass(frozen=True)
class Grad11Expansion:
    """One variant of the expanded gradient entry, stored term by term."""

    terms: tuple

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def evaluate(self, symbols, error_matrix) -> complex:
        missing = sorted({f for _, _, fs in self.terms for f in fs} - set(symbols))
        if missing:
            raise CodedFlowError(f"missing coefficients: {', '.join(missing)}")
        E = np.asarray(error_matrix, dtype=complex)
        total = 0.0 + 0.0j
        for row, col, factors in self.terms:
            value = E[row, col]
            for f in factors:
                value = value * symbols[f]
            total += value
        return complex(total)


EXPANSIONS = {
    "full": Grad11Expansion(TERMS_FULL_PRINTED),
    "full-corrected": Grad11Expansion(TERMS_FULL_CORRECTED),
    **{
        variant: Grad11Expansion(reduce_terms(TERMS_FULL_PRINTED, removed))
        for variant, removed in _REMOVED_BY_VARIANT.items()
    },
}
TERMS_NO_E3 = EXPANSIONS["no-e3"].terms
TERMS_NO_E2E5 = EXPANSIONS["no-e2e5"].terms


def topology_grad11(variant: str, symbols, error_matrix) -> complex:
    """Evaluate one printed expansion variant term by term, no simplification."""
    return EXPANSIONS[variant].evaluate(symbols, error_matrix)


def grad11_matrix_form(symbols, error_matrix) -> complex:
    """(1,1) of A_c^H A_c G_c B_c E B_c^H from the compact factors."""
    A_c, G_c, B_c = diamond_compact_matrices(symbols)
    E = np.asarray(error_matrix, dtype=complex)
    return complex((A_c.conj().T @ A_c @ G_c @ B_c @ E @ B_c.conj().T)[0, 0])


def erratum_delta(symbols, error_matrix) -> complex:
    """Value of (published - corrected): the single divergent monomial pair."""
    index, published = _ERRATUM
    row, col, corrected = TERMS_FULL_CORRECTED[index]
    printed, fixed = (reduce(mul, (symbols[f] for f in factors)) for factors in (published, corrected))
    E = np.asarray(error_matrix, dtype=complex)
    return complex(E[row, col] * (printed - fixed))


@dataclass(frozen=True)
class ExpansionCheck:
    """Per-draw comparison of the printed expansion against the matrix form."""

    printed_values: np.ndarray
    matrix_values: np.ndarray
    printed_gap: np.ndarray
    corrected_gap: np.ndarray
    attribution_gap: np.ndarray

    @property
    def max_printed_gap(self) -> float:
        return float(self.printed_gap.max())

    @property
    def max_corrected_gap(self) -> float:
        return float(self.corrected_gap.max())

    @property
    def max_attribution_gap(self) -> float:
        return float(self.attribution_gap.max())

    def draw_passed(self, tol: float = 1e-10) -> np.ndarray:
        """Per draw: the corrected list matches the matrix form and the
        published/matrix discrepancy is exactly the known divergent term."""
        return (self.corrected_gap <= tol) & (self.attribution_gap <= tol)

    def erratum_confirmed(self, tol: float = 1e-10) -> bool:
        """True when every draw passes ``draw_passed``."""
        return bool(self.draw_passed(tol).all())


def grad11_matches_matrix_form(draws: int = 100, seed: int = 7_2025) -> ExpansionCheck:
    """Compare both expansion transcriptions with the compact matrix product.

    Each draw assigns independent real uniforms on ``_GRAD11_RANGE`` to the
    twelve coefficients and a real 2x2 matrix to E (the identity is algebraic,
    so E need not be a valid error matrix here).  ``draws`` must be an integer of at least 1.
    """
    draws = _count("draws", draws, 1)
    rng = _philox(seed, 0x9511)
    values = []
    for _ in range(draws):
        symbols = {name: float(rng.uniform(*_GRAD11_RANGE)) for name in DIAMOND_SYMBOLS}
        E = rng.uniform(*_GRAD11_RANGE, size=(2, 2))
        values.append(
            (
                topology_grad11("full", symbols, E),
                grad11_matrix_form(symbols, E),
                topology_grad11("full-corrected", symbols, E),
                erratum_delta(symbols, E),
            )
        )
    printed, matrix, corrected, delta = (np.array(column, dtype=complex) for column in zip(*values))
    return ExpansionCheck(
        printed_values=printed,
        matrix_values=matrix,
        printed_gap=np.abs(printed - matrix),
        corrected_gap=np.abs(corrected - matrix),
        attribution_gap=np.abs(printed - matrix - delta),
    )


# ---------------------------------------------------------------------------
# network cuts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CutReport:
    cut: str
    mi: MutualInformationValue
    mmse: MmseMatrix
    gradients: dict


def cut_analysis(cut: str, sys: SystemMatrices, dist: InputDistribution, spec: EngineSpec = EngineSpec()) -> CutReport:
    """Mutual information, error matrix, and closed-form gradients for one cut
    (``source``, ``mid`` or ``full``); any other name raises ``ValueError``.  The information is
    served by the error matrix's quadrature pass."""
    channel = effective_matrix(cut, sys)
    err = mmse_matrix(channel, dist, spec)
    mi = mutual_information(channel, dist, spec)
    gradients = {target: closed_gradient(sys, err, target, cut) for target in _targets(cut)}
    return CutReport(cut=cut, mi=mi, mmse=err, gradients=gradients)


# ---------------------------------------------------------------------------
# precoder ascent
# ---------------------------------------------------------------------------

_HALVINGS = 40  # step halvings tried before an ascent that cannot improve stops


def precoder_ascent(
    sys: SystemMatrices,
    dist: InputDistribution,
    step: float,
    iterations: int,
    norm_budget: float,
    spec: EngineSpec = EngineSpec(),
):
    """Projected gradient ascent on the precoding matrix.

    A start outside the ball of Frobenius norm ``norm_budget`` is rescaled
    onto its sphere, and after each gradient step the precoder is rescaled to
    Frobenius norm ``norm_budget``.  When a step would decrease the information it is
    halved until the ascent resumes (up to ``_HALVINGS`` times); a
    non-finite gradient aborts, returning the trajectory collected so far.
    Returns a list of (B, information-in-nats) pairs, one per iteration
    plus the starting point.
    """
    step = _real("step", step, 0.0, np.inf, "[)")
    norm_budget = _real("norm budget", norm_budget, 0.0, np.inf, "()")
    iterations = _count("iterations", iterations, 0)

    def evaluate(B):
        trial = SystemMatrices.from_factors(sys.A, sys.G, B, form=sys.form)
        err = mmse_matrix(trial.M, dist, spec)
        info = mutual_information(trial.M, dist, spec).nats
        return trial, err, info

    def project(B):
        norm = np.linalg.norm(B)
        if norm == 0.0:
            B = np.eye(B.shape[0], B.shape[1], dtype=complex)
            norm = np.linalg.norm(B)
        return B * (norm_budget / norm)

    current = np.array(sys.B, dtype=complex)
    if np.linalg.norm(current) > norm_budget:
        current = project(current)
    trial, err, info = evaluate(current)
    trajectory = [(current.copy(), info)]
    for _ in range(iterations):
        if step == 0.0:
            trajectory.append((current.copy(), info))
            continue
        gradient = closed_gradient(trial, err, "B")
        if not np.all(np.isfinite(gradient)):
            break
        size = step
        for _ in range(_HALVINGS + 1):
            candidate = project(current + size * gradient)
            cand_trial, cand_err, cand_info = evaluate(candidate)
            if cand_info >= info - 1e-12:
                break
            size /= 2.0
        else:
            break
        current, trial, err, info = candidate, cand_trial, cand_err, cand_info
        trajectory.append((current.copy(), info))
    return trajectory
