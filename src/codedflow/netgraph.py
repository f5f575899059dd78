"""Directed coded-flow networks and their transfer matrices.

A network is a directed graph whose edges carry linear combinations of the
signals entering their tail vertex.  Three coefficient families describe the
coding: source injections (entries of the precoding matrix ``B``),
edge-to-edge couplings (entries of the adjacency matrix ``F``), and sink
read-outs (entries of the decoding matrix ``A``).  The end-to-end transfer
matrix is ``M = A G B`` with ``G = (I - F)^{-1}``.

Edges are kept in a canonical order (topological order of tail vertices,
ties broken by insertion order) so that ``F`` is strictly lower triangular
for acyclic networks, which makes nilpotency a structural property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import (
    CyclicTopologyError,
    SingularIFError,
    SparsityViolation,
    UnknownEdge,
)

_INVERSE_TOL = 1e-12
_PATH_SUM_ULPS = 64  # exact Neumann sums of seeded random DAGs miss I by at most 1.6 eps
_CONDITION_LIMIT = 1e12
# the positions of a coefficient key that are edge indices, by family
_EDGE_POSITIONS = {"alpha": (1,), "beta": (0, 1), "gamma": (1,)}


def _vertex_ranks(vertices, edges):
    """Topological rank per vertex via Kahn's algorithm, or None on a cycle.

    Vertices are processed in insertion order, so ranks are deterministic.
    An edge naming a vertex outside ``vertices`` raises ``ValueError``.
    """
    indeg = {v: 0 for v in vertices}
    succ = {v: [] for v in vertices}
    for tail, head in edges:
        if tail not in indeg or head not in indeg:
            raise ValueError(f"edge ({tail}, {head}) references unknown vertex")
        indeg[head] += 1
        succ[tail].append(head)
    queue = [v for v in vertices if indeg[v] == 0]
    rank = {}
    order = 0
    while queue:
        v = queue.pop(0)
        rank[v] = order
        order += 1
        for u in succ[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                queue.append(u)
    if len(rank) != len(vertices):
        return None
    return rank


@dataclass(frozen=True)
class NetworkTopology:
    """Immutable directed network with stable, dense edge indices.

    ``edges[i]`` is the (tail, head) pair of edge ``i``; every matrix built
    from this topology indexes its edge axis the same way.  ``edge_names``
    is an optional parallel tuple of labels used by configuration files and
    reports.
    """

    vertices: tuple
    edges: tuple
    sources: tuple
    sinks: tuple
    edge_names: tuple | None = None
    is_acyclic: bool = field(init=False, default=False)

    def __post_init__(self):
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertex identifiers")
        for v in tuple(self.sources) + tuple(self.sinks):
            if v not in vset:
                raise ValueError(f"source/sink {v!r} is not a vertex")
        if self.edge_names is not None and len(self.edge_names) != len(self.edges):
            raise ValueError("edge_names length must match edges")
        object.__setattr__(
            self, "is_acyclic", _vertex_ranks(self.vertices, self.edges) is not None
        )

    @classmethod
    def from_edges(cls, vertices, edges, sources, sinks, edge_names=None):
        """Build a topology with edges re-sorted into canonical order.

        Canonical order is topological rank of the tail vertex, ties broken
        by insertion order.  Cyclic graphs keep insertion order.
        """
        return cls._canonical(vertices, edges, sources, sinks, edge_names)[0]

    @classmethod
    def _canonical(cls, vertices, edges, sources, sinks, edge_names):
        """``(topology, order)``: the edges in canonical order, ``order[i]`` the
        position in ``edges`` of the topology's edge ``i``."""
        vertices = tuple(vertices)
        edges = [tuple(e) for e in edges]
        names = list(edge_names) if edge_names is not None else None
        rank = _vertex_ranks(vertices, edges)  # None on a cycle: insertion order
        order = sorted(range(len(edges)), key=lambda i: 0 if rank is None else rank[edges[i][0]])
        topology = cls(
            vertices=vertices,
            edges=tuple(edges[i] for i in order),
            sources=tuple(sources),
            sinks=tuple(sinks),
            edge_names=tuple(names[i] for i in order) if names is not None else None,
        )
        return topology, order

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def coefficient_slots(self, n_in: int, n_out: int) -> dict:
        """The keys each coefficient family may hold nonzero, in a fixed draw order.

        alpha ``(i, e)`` for edges e leaving a source, beta ``(e, e2)`` where
        head(e) == tail(e2), gamma ``(k, e)`` for edges e entering a sink.
        """
        return {
            "alpha": [(i, e) for e in self.source_outgoing() for i in range(n_in)],
            "beta": [
                (e, e2)
                for e, (_, head) in enumerate(self.edges)
                for e2, (tail, _) in enumerate(self.edges)
                if head == tail
            ],
            "gamma": [(k, e) for e in self.sink_incoming() for k in range(n_out)],
        }

    def source_outgoing(self) -> tuple:
        """Indices of edges whose tail is a source vertex."""
        srcs = set(self.sources)
        return tuple(i for i, (tail, _) in enumerate(self.edges) if tail in srcs)

    def sink_incoming(self) -> tuple:
        """Indices of edges whose head is a sink vertex."""
        snks = set(self.sinks)
        return tuple(i for i, (_, head) in enumerate(self.edges) if head in snks)

    def edge_index(self, name) -> int:
        if self.edge_names is None:
            raise UnknownEdge("topology has no edge names")
        try:
            return self.edge_names.index(name)
        except ValueError:
            raise UnknownEdge(f"unknown edge {name!r}") from None


@dataclass(frozen=True)
class CodingCoefficients:
    """Coding coefficients keyed by index pairs.

    alpha[(i, e)]  -- input i injected onto edge e        (entries of B)
    beta[(e, e2)]  -- edge e coupled into edge e2, requires head(e) == tail(e2)
    gamma[(k, e)]  -- edge e read out at sink output k    (entries of A)
    """

    alpha: Mapping
    beta: Mapping
    gamma: Mapping

    def __post_init__(self):
        for name in _EDGE_POSITIONS:
            object.__setattr__(self, name, dict(getattr(self, name)))

    def validate(self, topology: NetworkTopology, n_in: int, n_out: int):
        """Raise ``UnknownEdge`` for an edge index outside the topology, and
        ``SparsityViolation`` for an input or output index out of range or a
        nonzero value off ``topology.coefficient_slots``."""
        slots = topology.coefficient_slots(n_in, n_out)
        ports = {"alpha": n_in, "gamma": n_out}  # the range of a key's non-edge index
        for name, edge_at in _EDGE_POSITIONS.items():
            allowed = set(slots[name])
            for key, value in getattr(self, name).items():
                where = f"{name}[{key[0]},{key[1]}]"
                if any(not 0 <= key[pos] < topology.edge_count for pos in edge_at):
                    raise UnknownEdge(f"{where} references an unknown edge index")
                if any(not 0 <= i < ports[name] for pos, i in enumerate(key) if pos not in edge_at):
                    raise SparsityViolation(f"{where} has an input or output index out of range")
                if value != 0 and key not in allowed:
                    raise SparsityViolation(f"{where} is nonzero but the topology has no such slot")


@dataclass(frozen=True)
class SystemMatrices:
    """The coefficient matrices of one network, plus their product.

    ``M`` is always the stored product ``A @ G @ B``; it is never set
    independently.  ``F`` is ``None`` when the system was assembled directly
    from factors (compact form) rather than from a topology.
    """

    B: np.ndarray
    F: np.ndarray | None
    G: np.ndarray
    A: np.ndarray
    M: np.ndarray
    form: str = "full"

    @classmethod
    def from_factors(cls, A, G, B, F=None, form="compact"):
        A = np.asarray(A, dtype=complex)
        G = np.asarray(G, dtype=complex)
        B = np.asarray(B, dtype=complex)
        if A.shape[1] != G.shape[0] or G.shape[1] != B.shape[0]:
            raise ValueError(
                f"factor shapes do not chain: A{A.shape} G{G.shape} B{B.shape}"
            )
        if F is not None:
            F = np.asarray(F, dtype=complex)
            eye = np.eye(F.shape[0])
            for X, Y in ((G, eye - F), (eye - F, G)):
                if np.triu(F).any():  # a cycle or a non-canonical order: a solver's G, held normwise
                    bound = _INVERSE_TOL * np.linalg.norm(X) * np.linalg.norm(Y)
                else:  # G is the exact path sum, held entry by entry at the rounding of the product
                    bound = _PATH_SUM_ULPS * np.finfo(float).eps * (np.abs(X) @ np.abs(Y))
                if not (np.isfinite(G).all() and np.all(np.abs(X @ Y - eye) <= bound)):
                    raise SingularIFError("G is not the inverse of (I - F)")
        M = A @ G @ B
        for arr in (A, G, B, M) + ((F,) if F is not None else ()):
            arr.setflags(write=False)
        return cls(B=B, F=F, G=G, A=A, M=M, form=form)


def _topology_inverse(F: np.ndarray, acyclic: bool, allow_cyclic: bool):
    size = F.shape[0]
    eye = np.eye(size)
    if acyclic:
        # F is nilpotent, so the finite Neumann sum is the exact inverse:
        # every entry of G is a sum of path products with no solver roundoff
        return neumann_topology_sum(F)
    if not allow_cyclic:
        raise CyclicTopologyError(
            "topology contains a cycle; pass allow_cyclic=True to invert anyway"
        )
    radius = max(np.abs(np.linalg.eigvals(F)), default=0.0)
    if radius >= 1.0:
        raise CyclicTopologyError(
            f"cyclic topology with spectral radius {radius:.3f} >= 1 has no convergent inverse"
        )
    if size and np.linalg.cond(eye - F) > _CONDITION_LIMIT:
        raise SingularIFError("(I - F) condition estimate exceeds 1e12")
    return np.linalg.solve(eye - F, eye)


def build_coefficient_matrices(
    topology: NetworkTopology,
    coeffs: CodingCoefficients,
    n_in: int,
    n_out: int,
    *,
    allow_cyclic: bool = False,
) -> SystemMatrices:
    """Assemble B, F, G, A and the transfer matrix M from a coefficient map.

    Raises ``CyclicTopologyError`` for cyclic topologies unless
    ``allow_cyclic`` is set and the coupling matrix has spectral radius
    below one, ``SingularIFError`` when (I - F) is numerically singular, and
    ``SparsityViolation``/``UnknownEdge`` for coefficients that do not fit
    the topology.
    """
    coeffs.validate(topology, n_in, n_out)
    ecount = topology.edge_count
    B = np.zeros((ecount, n_in), dtype=complex)
    F = np.zeros((ecount, ecount), dtype=complex)
    A = np.zeros((n_out, ecount), dtype=complex)
    for (i, e), value in coeffs.alpha.items():
        B[e, i] = value
    for (e, e2), value in coeffs.beta.items():
        F[e2, e] = value
    for (k, e), value in coeffs.gamma.items():
        A[k, e] = value

    if topology.is_acyclic and np.any(np.triu(F) != 0):
        # canonical edge order must make F strictly lower triangular on a DAG
        raise SparsityViolation("coupling matrix is not strictly lower triangular")

    G = _topology_inverse(F, topology.is_acyclic, allow_cyclic)
    return SystemMatrices.from_factors(A, G, B, F=F, form="full")


def compact_form(sys: SystemMatrices, topology: NetworkTopology):
    """Restrict (A, G, B) to sink-incoming / source-outgoing edges.

    Because the decoding matrix is supported on sink-incoming edges and the
    precoding matrix on source-outgoing edges, the restricted product equals
    the full product: ``A_c @ G_c @ B_c == M`` to 1e-12.
    """
    rows = list(topology.sink_incoming())
    cols = list(topology.source_outgoing())
    A_c = sys.A[:, rows]
    G_c = sys.G[np.ix_(rows, cols)]
    B_c = sys.B[cols, :]
    product = A_c @ G_c @ B_c
    if not np.allclose(product, sys.M, atol=_INVERSE_TOL):
        raise SparsityViolation(
            "compact restriction does not reproduce M; coefficients violate the topology pattern"
        )
    return A_c, G_c, B_c


def compact_system(sys: SystemMatrices, topology: NetworkTopology) -> SystemMatrices:
    """Compact-form factors packaged as a SystemMatrices with form='compact'."""
    A_c, G_c, B_c = compact_form(sys, topology)
    return SystemMatrices.from_factors(A_c, G_c, B_c, form="compact")


def remove_edge(topology: NetworkTopology, coeffs: CodingCoefficients, edge: int):
    """Delete one edge and every coefficient referencing it.

    Returns a new (topology, coefficients) pair; the inputs are unchanged.
    Remaining edges are re-indexed densely in canonical order.  Rebuilding
    matrices from the result yields the same transfer matrix M as zeroing
    the deleted edge's coefficients in the original network, up to the
    rounding of sums the re-sorted order adds up differently.
    """
    if not 0 <= edge < topology.edge_count:
        raise UnknownEdge(f"edge index {edge} out of range")
    keep = [i for i in range(topology.edge_count) if i != edge]
    names = topology.edge_names
    new_topology, order = NetworkTopology._canonical(
        topology.vertices,
        [topology.edges[i] for i in keep],
        topology.sources,
        topology.sinks,
        [names[i] for i in keep] if names is not None else None,
    )
    new_index = {keep[old]: new for new, old in enumerate(order)}
    families = {name: {} for name in _EDGE_POSITIONS}
    for name, edge_at in _EDGE_POSITIONS.items():
        for key, value in getattr(coeffs, name).items():
            if all(key[pos] != edge for pos in edge_at):
                new_key = tuple(new_index[i] if pos in edge_at else i for pos, i in enumerate(key))
                families[name][new_key] = value
    return new_topology, CodingCoefficients(**families)


def zero_edge_coefficients(coeffs: CodingCoefficients, edge: int) -> CodingCoefficients:
    """Zero every coefficient referencing ``edge`` without touching the topology."""
    families = {
        name: {
            key: 0.0 if any(key[pos] == edge for pos in edge_at) else value
            for key, value in getattr(coeffs, name).items()
        }
        for name, edge_at in _EDGE_POSITIONS.items()
    }
    return CodingCoefficients(**families)


def neumann_topology_sum(F: np.ndarray) -> np.ndarray:
    """Finite Neumann series sum_{k=0}^{|E|-1} F^k.

    Equals (I - F)^{-1} exactly for nilpotent F (acyclic networks).
    """
    size = F.shape[0]
    total = np.eye(size, dtype=complex)
    power = np.eye(size, dtype=complex)
    for _ in range(size - 1):
        power = power @ F
        total = total + power
    return total
