import numpy as np
import pytest

from codedflow import CodingCoefficients, NetworkTopology


def random_dag(rng, max_edges=12, complex_coeffs=True):
    """A random layered DAG with coefficients on every allowed slot.

    Vertices are ordered; edges only point forward, so the graph is acyclic
    by construction.  Returns (topology, coefficients, n_in, n_out).
    """
    n_vertices = int(rng.integers(3, 7))
    vertices = [f"v{i}" for i in range(n_vertices)]
    candidates = [(i, j) for i in range(n_vertices) for j in range(i + 1, n_vertices)]
    rng.shuffle(candidates)
    n_edges = int(rng.integers(2, max_edges + 1))
    pairs = [(vertices[i], vertices[j]) for i, j in candidates[:n_edges]]
    # insertion order deliberately scrambled; canonical sorting re-orders
    topology = NetworkTopology.from_edges(
        vertices, pairs, sources=(vertices[0],), sinks=(vertices[-1],)
    )
    n_in = int(rng.integers(1, 3))
    n_out = int(rng.integers(1, 3))

    def draw():
        if complex_coeffs:
            return complex(rng.normal(), rng.normal())
        return float(rng.normal())

    slots = topology.coefficient_slots(n_in, n_out)
    coeffs = CodingCoefficients(**{name: {key: draw() for key in keys} for name, keys in slots.items()})
    return topology, coeffs, n_in, n_out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
