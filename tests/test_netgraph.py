import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedflow import (
    CodingCoefficients,
    CyclicTopologyError,
    NetworkTopology,
    SparsityViolation,
    SystemMatrices,
    UnknownEdge,
    build_coefficient_matrices,
    compact_form,
    diamond_coefficients,
    diamond_topology,
    neumann_topology_sum,
    remove_edge,
    seeded_diamond_symbols,
    zero_edge_coefficients,
)
from codedflow.cli import parse_config
from codedflow.errors import SingularIFError
from codedflow.netgraph import _EDGE_POSITIONS, _PATH_SUM_ULPS

from conftest import random_dag

FIGURE1 = Path(__file__).resolve().parent.parent / "configs" / "figure1.cfg"
_DAG_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _fanout(n_edges=3):
    """All edges from one source straight into one sink: F is forced to zero."""
    topology = NetworkTopology.from_edges(
        ["s", "t"], [("s", "t")] * n_edges, sources=("s",), sinks=("t",)
    )
    return topology


class TestBuild:
    def test_zero_coupling_gives_identity_topology_matrix(self, rng):
        topology = _fanout(3)
        alpha = {(i, e): complex(rng.normal(), rng.normal()) for e in range(3) for i in range(2)}
        gamma = {(k, e): complex(rng.normal(), rng.normal()) for e in range(3) for k in range(2)}
        sys = build_coefficient_matrices(
            topology, CodingCoefficients(alpha, {}, gamma), n_in=2, n_out=2
        )
        np.testing.assert_array_equal(sys.F, np.zeros((3, 3)))
        np.testing.assert_array_equal(sys.G, np.eye(3))
        np.testing.assert_allclose(sys.M, sys.A @ sys.B, atol=1e-15)

    def test_two_edge_chain_is_nilpotent_order_two(self):
        topology = NetworkTopology.from_edges(
            ["a", "b", "c"], [("a", "b"), ("b", "c")], sources=("a",), sinks=("c",)
        )
        b = 0.37 - 0.8j
        coeffs = CodingCoefficients({(0, 0): 1.0}, {(0, 1): b}, {(0, 1): 1.0})
        sys = build_coefficient_matrices(topology, coeffs, n_in=1, n_out=1)
        np.testing.assert_array_equal(sys.F @ sys.F, np.zeros((2, 2)))
        np.testing.assert_allclose(sys.G, np.eye(2) + sys.F, atol=1e-15)
        assert sys.G[1, 0] == b

    def test_diamond_topology_matrix_pattern(self):
        """The path products land in the sink-rows/source-columns block."""
        symbols = {name: 1.0 for name in seeded_diamond_symbols(0)}
        symbols.update(beta_e1_e4=0.2, beta_e1_e3=0.3, beta_e3_e5=0.5, beta_e2_e5=0.7)
        topology = diamond_topology()
        sys = build_coefficient_matrices(
            topology, diamond_coefficients(symbols), n_in=2, n_out=2
        )
        rows = topology.sink_incoming()
        cols = topology.source_outgoing()
        block = sys.G[np.ix_(rows, cols)]
        np.testing.assert_allclose(block, [[0.2, 0.0], [0.3 * 0.5, 0.7]], atol=1e-15)

    def test_cycle_rejected_without_flag(self):
        topology = NetworkTopology.from_edges(
            ["a", "b"], [("a", "b"), ("b", "a")], sources=("a",), sinks=("b",)
        )
        assert not topology.is_acyclic
        coeffs = CodingCoefficients({(0, 0): 1.0}, {(0, 1): 0.5, (1, 0): 0.5}, {(0, 0): 1.0})
        with pytest.raises(CyclicTopologyError):
            build_coefficient_matrices(topology, coeffs, 1, 1)

    def test_cycle_with_small_spectral_radius_inverts(self):
        topology = NetworkTopology.from_edges(
            ["a", "b"], [("a", "b"), ("b", "a")], sources=("a",), sinks=("b",)
        )
        coeffs = CodingCoefficients({(0, 0): 1.0}, {(0, 1): 0.5, (1, 0): 0.5}, {(0, 0): 1.0})
        sys = build_coefficient_matrices(topology, coeffs, 1, 1, allow_cyclic=True)
        eye = np.eye(2)
        np.testing.assert_allclose(sys.G @ (eye - sys.F), eye, atol=1e-12)

    def test_cycle_with_divergent_radius_errors(self):
        topology = NetworkTopology.from_edges(
            ["a", "b"], [("a", "b"), ("b", "a")], sources=("a",), sinks=("b",)
        )
        coeffs = CodingCoefficients({(0, 0): 1.0}, {(0, 1): 2.0, (1, 0): 2.0}, {(0, 0): 1.0})
        with pytest.raises(CyclicTopologyError):
            build_coefficient_matrices(topology, coeffs, 1, 1, allow_cyclic=True)

    def test_near_singular_cyclic_inverse_errors(self):
        topology = NetworkTopology.from_edges(
            ["a", "b"], [("a", "b"), ("b", "a")], sources=("a",), sinks=("b",)
        )
        eps = 1e-14
        coeffs = CodingCoefficients(
            {(0, 0): 1.0}, {(0, 1): 1.0 - eps, (1, 0): 1.0 - eps}, {(0, 0): 1.0}
        )
        with pytest.raises((SingularIFError, CyclicTopologyError)):
            build_coefficient_matrices(topology, coeffs, 1, 1, allow_cyclic=True)

    def test_ill_conditioned_cycle_below_unit_radius_raises_singular(self):
        # the loop gain 1e7 * 1e-8 keeps the spectral radius at sqrt(0.1) = 0.32, but the
        # lopsided pair puts cond(I - F) near 1e14, past the 1e12 limit
        topology = NetworkTopology.from_edges(
            ["s", "a", "b", "t"],
            [("s", "a"), ("a", "b"), ("b", "a"), ("b", "t")],
            sources=("s",),
            sinks=("t",),
            edge_names=["sa", "ab", "ba", "bt"],
        )
        sa, ab, ba, bt = (topology.edge_index(name) for name in ("sa", "ab", "ba", "bt"))
        coeffs = CodingCoefficients(
            {(0, sa): 1.0}, {(sa, ab): 1.0, (ab, ba): 1e7, (ba, ab): 1e-8, (ab, bt): 1.0}, {(0, bt): 1.0}
        )
        with pytest.raises(SingularIFError, match="condition estimate exceeds 1e12"):
            build_coefficient_matrices(topology, coeffs, 1, 1, allow_cyclic=True)


class TestSparsity:
    def test_alpha_off_source_edge(self):
        topology = diamond_topology()
        coeffs = diamond_coefficients(seeded_diamond_symbols(1))
        bad = dict(coeffs.alpha)
        bad[(0, topology.edge_index("e3"))] = 1.0
        with pytest.raises(SparsityViolation):
            build_coefficient_matrices(
                topology, CodingCoefficients(bad, coeffs.beta, coeffs.gamma), 2, 2
            )

    def test_beta_on_non_adjacent_pair(self):
        topology = diamond_topology()
        coeffs = diamond_coefficients(seeded_diamond_symbols(1))
        bad = dict(coeffs.beta)
        bad[(topology.edge_index("e1"), topology.edge_index("e5"))] = 1.0  # head(e1)=v2 != v3
        with pytest.raises(SparsityViolation):
            build_coefficient_matrices(
                topology, CodingCoefficients(coeffs.alpha, bad, coeffs.gamma), 2, 2
            )

    def test_gamma_off_sink_edge(self):
        topology = diamond_topology()
        coeffs = diamond_coefficients(seeded_diamond_symbols(1))
        bad = dict(coeffs.gamma)
        bad[(0, topology.edge_index("e1"))] = 1.0
        with pytest.raises(SparsityViolation):
            build_coefficient_matrices(
                topology, CodingCoefficients(coeffs.alpha, coeffs.beta, bad), 2, 2
            )

    @pytest.mark.parametrize("family, index, edge", [("alpha", 2, "e1"), ("alpha", -1, "e2"), ("gamma", 2, "e4"), ("gamma", -1, "e5")])
    def test_port_index_out_of_range_is_refused_even_at_zero(self, family, index, edge):
        # a negative index would otherwise write into the last row or column of B or A
        topology = diamond_topology()
        coeffs = diamond_coefficients(seeded_diamond_symbols(1))
        families = _families(coeffs)
        families[family][(index, topology.edge_index(edge))] = 0.0
        with pytest.raises(SparsityViolation):
            build_coefficient_matrices(topology, CodingCoefficients(**families), 2, 2)

    def test_coefficient_on_unknown_edge(self):
        topology = diamond_topology()
        coeffs = diamond_coefficients(seeded_diamond_symbols(1))
        bad = dict(coeffs.alpha)
        bad[(0, 9)] = 1.0
        with pytest.raises(UnknownEdge):
            build_coefficient_matrices(
                topology, CodingCoefficients(bad, coeffs.beta, coeffs.gamma), 2, 2
            )


def _families(coeffs):
    return {name: dict(getattr(coeffs, name)) for name in _EDGE_POSITIONS}


class TestSlots:
    """Properties of ``coefficient_slots`` and ``validate`` on random DAGs."""

    @given(seed=_DAG_SEEDS)
    @settings(max_examples=50, deadline=None)
    def test_a_coefficient_on_every_slot_builds(self, seed):
        topology, coeffs, n_in, n_out = random_dag(np.random.default_rng(seed))
        slots = topology.coefficient_slots(n_in, n_out)
        assert {name: list(keys) for name, keys in _families(coeffs).items()} == slots
        sys = build_coefficient_matrices(topology, coeffs, n_in, n_out)
        # each slot fills its own entry of B, F or A
        placed = np.count_nonzero(sys.B) + np.count_nonzero(sys.F) + np.count_nonzero(sys.A)
        assert placed == sum(len(keys) for keys in slots.values())

    @given(seed=_DAG_SEEDS, data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_one_nonzero_key_off_the_slots_is_refused(self, seed, data):
        topology, coeffs, n_in, n_out = random_dag(np.random.default_rng(seed))
        slots = topology.coefficient_slots(n_in, n_out)
        E = topology.edge_count
        key_space = {"alpha": (n_in, E), "beta": (E, E), "gamma": (n_out, E)}
        off = [
            (name, key)
            for name, shape in key_space.items()
            for key in itertools.product(*map(range, shape))
            if key not in slots[name]
        ]
        name, key = data.draw(st.sampled_from(off))  # never empty: beta (e, e) has no slot
        families = _families(coeffs)
        families[name][key] = 0.0
        build_coefficient_matrices(topology, CodingCoefficients(**families), n_in, n_out)
        families[name][key] = data.draw(st.sampled_from([1.0, -0.5j]))
        with pytest.raises(SparsityViolation):
            build_coefficient_matrices(topology, CodingCoefficients(**families), n_in, n_out)

    @given(seed=_DAG_SEEDS, data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_an_edge_index_out_of_range_is_unknown(self, seed, data):
        topology, coeffs, n_in, n_out = random_dag(np.random.default_rng(seed))
        name = data.draw(st.sampled_from(sorted(_EDGE_POSITIONS)))
        key = [0, 0]
        key[data.draw(st.sampled_from(_EDGE_POSITIONS[name]))] = data.draw(
            st.sampled_from([-1, topology.edge_count, topology.edge_count + 7])
        )
        families = _families(coeffs)
        families[name][tuple(key)] = data.draw(st.sampled_from([0.0, 1.0]))
        with pytest.raises(UnknownEdge):
            build_coefficient_matrices(topology, CodingCoefficients(**families), n_in, n_out)

    @given(seed=_DAG_SEEDS, data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_deletion_matches_zeroing_to_roundoff(self, seed, data):
        # removal re-sorts the survivors, so the sums behind M may run in another
        # order: equal bit for bit only on some graphs (see the seed sweep below)
        topology, coeffs, n_in, n_out = random_dag(np.random.default_rng(seed))
        edge = data.draw(st.integers(min_value=0, max_value=topology.edge_count - 1))
        topo2, coeffs2 = remove_edge(topology, coeffs, edge)
        m_deleted = build_coefficient_matrices(topo2, coeffs2, n_in, n_out).M
        m_zeroed = build_coefficient_matrices(
            topology, zero_edge_coefficients(coeffs, edge), n_in, n_out
        ).M
        np.testing.assert_allclose(m_deleted, m_zeroed, rtol=0, atol=1e-12 * max(1.0, np.abs(m_zeroed).max()))


class TestCompactForm:
    def test_all_ones_diamond_block(self):
        symbols = {name: 1.0 for name in seeded_diamond_symbols(0)}
        topology = diamond_topology()
        sys = build_coefficient_matrices(topology, diamond_coefficients(symbols), 2, 2)
        _, G_c, _ = compact_form(sys, topology)
        np.testing.assert_allclose(G_c, [[1.0, 0.0], [1.0, 1.0]], atol=1e-15)

    def test_compact_product_equals_full_product(self, rng):
        for _ in range(20):
            topology, coeffs, n_in, n_out = random_dag(rng)
            sys = build_coefficient_matrices(topology, coeffs, n_in, n_out)
            A_c, G_c, B_c = compact_form(sys, topology)
            np.testing.assert_allclose(A_c @ G_c @ B_c, sys.M, atol=1e-12)

    def test_trivial_topology_compact_equals_full(self, rng):
        topology = _fanout(3)
        alpha = {(i, e): complex(rng.normal(), rng.normal()) for e in range(3) for i in range(2)}
        gamma = {(k, e): complex(rng.normal(), rng.normal()) for e in range(3) for k in range(2)}
        sys = build_coefficient_matrices(
            topology, CodingCoefficients(alpha, {}, gamma), 2, 2
        )
        A_c, G_c, B_c = compact_form(sys, topology)
        np.testing.assert_array_equal(A_c, sys.A)
        np.testing.assert_array_equal(G_c, sys.G)
        np.testing.assert_array_equal(B_c, sys.B)


class TestRemoveEdge:
    def test_remove_chord_makes_compact_block_diagonal(self):
        symbols = seeded_diamond_symbols(5)
        topology = diamond_topology()
        coeffs = diamond_coefficients(symbols)
        topo2, coeffs2 = remove_edge(topology, coeffs, topology.edge_index("e3"))
        assert topo2.edge_count == 4
        assert all(
            symbols["beta_e1_e3"] not in (v,) for v in coeffs2.beta.values()
        )
        sys2 = build_coefficient_matrices(topo2, coeffs2, 2, 2)
        _, G_c, _ = compact_form(sys2, topo2)
        np.testing.assert_allclose(
            G_c, np.diag([symbols["beta_e1_e4"], symbols["beta_e2_e5"]]), atol=1e-15
        )

    def test_losing_branch_edges_leaves_single_path(self):
        symbols = seeded_diamond_symbols(6)
        topology = diamond_topology()
        coeffs = diamond_coefficients(symbols)
        # zeroing view keeps the 2x2 shape with a dead row/column
        zeroed = coeffs
        for name in ("e2", "e5"):
            zeroed = zero_edge_coefficients(zeroed, topology.edge_index(name))
        sys_z = build_coefficient_matrices(topology, zeroed, 2, 2)
        _, G_c, _ = compact_form(sys_z, topology)
        np.testing.assert_allclose(
            G_c, [[symbols["beta_e1_e4"], 0.0], [0.0, 0.0]], atol=1e-15
        )
        # deletion view shrinks to the surviving path but yields the same M
        topo2, coeffs2 = remove_edge(topology, coeffs, topology.edge_index("e5"))
        topo3, coeffs3 = remove_edge(topo2, coeffs2, topo2.edge_index("e2"))
        sys_d = build_coefficient_matrices(topo3, coeffs3, 2, 2)
        np.testing.assert_allclose(sys_d.M, sys_z.M, atol=0)
        _, G_s, _ = compact_form(sys_d, topo3)
        np.testing.assert_allclose(G_s, [[symbols["beta_e1_e4"]]], atol=1e-15)

    def test_removing_edge_with_zero_coefficients_keeps_M(self):
        symbols = seeded_diamond_symbols(7)
        symbols["beta_e1_e3"] = 0.0
        symbols["beta_e3_e5"] = 0.0
        topology = diamond_topology()
        coeffs = diamond_coefficients(symbols)
        before = build_coefficient_matrices(topology, coeffs, 2, 2).M
        topo2, coeffs2 = remove_edge(topology, coeffs, topology.edge_index("e3"))
        after = build_coefficient_matrices(topo2, coeffs2, 2, 2).M
        np.testing.assert_allclose(after, before, atol=0)

    def test_every_single_edge_deletion_matches_zeroing(self):
        # removal re-sorts the survivors, so the sums behind M may run in another order: over these
        # 300 graphs, 238 of the 1,732 removals differ from zeroing, by up to 6.8e-16 of max|M|
        for seed in range(300):
            topology, coeffs, n_in, n_out = random_dag(np.random.default_rng(seed))
            for edge in range(topology.edge_count):
                topo2, coeffs2 = remove_edge(topology, coeffs, edge)
                m_deleted = build_coefficient_matrices(topo2, coeffs2, n_in, n_out).M
                m_zeroed = build_coefficient_matrices(
                    topology, zero_edge_coefficients(coeffs, edge), n_in, n_out
                ).M
                gap, scale = np.abs(m_deleted - m_zeroed).max(), np.abs(m_zeroed).max()
                assert gap <= 1e-14 * scale, (seed, edge, gap, scale)

    def _assert_deletion_equals_zeroing(self, topology, coeffs, edge):
        topo2, coeffs2 = remove_edge(topology, coeffs, edge)
        m_deleted = build_coefficient_matrices(topo2, coeffs2, 1, 1).M
        m_zeroed = build_coefficient_matrices(topology, zero_edge_coefficients(coeffs, edge), 1, 1).M
        np.testing.assert_array_equal(m_deleted, m_zeroed)
        return topo2

    def test_duplicate_named_parallel_edges_stay_apart(self):
        # s->t twice, then s->m->t; distinct coefficients so a merged edge shows in M
        topology = NetworkTopology.from_edges(
            ("s", "m", "t"),
            [("s", "t"), ("s", "t"), ("s", "m"), ("m", "t")],
            ("s",),
            ("t",),
            edge_names=("a", "a", "b", "c"),
        )
        coeffs = CodingCoefficients(
            alpha={(0, 0): 1.0, (0, 1): 2.0, (0, 2): 4.0},
            beta={(2, 3): 8.0},
            gamma={(0, 0): 1.0, (0, 1): 3.0, (0, 3): 1.0},
        )
        topo2 = self._assert_deletion_equals_zeroing(topology, coeffs, topology.edge_index("b"))
        assert topo2.edge_names == ("a", "a", "c")

    def test_unnamed_parallel_edges_follow_the_resort(self):
        # inserted out of canonical order, so removal re-sorts the survivors
        topology = NetworkTopology.from_edges(
            ("s", "m", "t"), [("m", "t"), ("s", "t"), ("s", "m"), ("s", "t")], ("s",), ("t",)
        )
        assert topology.edges == (("s", "t"), ("s", "m"), ("s", "t"), ("m", "t"))
        coeffs = CodingCoefficients(
            alpha={(0, 0): 1.0, (0, 1): 4.0, (0, 2): 2.0},
            beta={(1, 3): 8.0},
            gamma={(0, 0): 1.0, (0, 2): 3.0, (0, 3): 1.0},
        )
        for edge in range(topology.edge_count):
            self._assert_deletion_equals_zeroing(topology, coeffs, edge)

    def test_unknown_edge(self):
        topology = diamond_topology()
        coeffs = diamond_coefficients(seeded_diamond_symbols(1))
        with pytest.raises(UnknownEdge):
            remove_edge(topology, coeffs, 17)

    def test_inputs_unchanged(self):
        topology = diamond_topology()
        coeffs = diamond_coefficients(seeded_diamond_symbols(8))
        alpha_before = dict(coeffs.alpha)
        remove_edge(topology, coeffs, 2)
        assert coeffs.alpha == alpha_before
        assert topology.edge_count == 5


class TestTopologyAlgebra:
    def test_neumann_sum_matches_inverse(self, rng):
        for _ in range(25):
            topology, coeffs, n_in, n_out = random_dag(rng)
            sys = build_coefficient_matrices(topology, coeffs, n_in, n_out)
            np.testing.assert_allclose(
                neumann_topology_sum(sys.F), sys.G, atol=1e-12, rtol=0
            )

    def test_canonical_order_makes_coupling_lower_triangular(self, rng):
        for _ in range(25):
            topology, coeffs, n_in, n_out = random_dag(rng)
            sys = build_coefficient_matrices(topology, coeffs, n_in, n_out)
            assert not np.any(np.triu(sys.F))

    def test_inverse_consistency_invariant(self, rng):
        topology, coeffs, n_in, n_out = random_dag(rng)
        sys = build_coefficient_matrices(topology, coeffs, n_in, n_out)
        eye = np.eye(topology.edge_count)
        np.testing.assert_allclose(sys.G @ (eye - sys.F), eye, atol=1e-12)
        np.testing.assert_allclose((eye - sys.F) @ sys.G, eye, atol=1e-12)


class TestSystemMatrices:
    def test_from_factors_validates_chain(self):
        with pytest.raises(ValueError):
            SystemMatrices.from_factors(np.eye(2), np.eye(3), np.eye(2))

    def test_from_factors_checks_inverse_pair(self):
        G = np.eye(2)
        F = np.array([[0.0, 0.5], [0.0, 0.0]])  # G != (I-F)^{-1}
        with pytest.raises(SingularIFError):
            SystemMatrices.from_factors(np.eye(2), G, np.eye(2), F=F)

    @pytest.mark.parametrize(
        "bad, F",
        [(bad, F) for F in ([[0.0, 0.5], [0.25, 0.0]], [[0.0, 0.0], [0.5, 0.0]], [[0.0]]) for bad in (np.nan, np.inf)],
        ids=["nan", "inf", "acyclic-nan", "acyclic-inf", "one-edge-nan", "one-edge-inf"],
    )
    def test_a_non_finite_inverse_is_refused(self, bad, F):
        # one edge and G = inf: the residual and the entry-by-entry bound are both inf
        F = np.array(F)
        G = np.linalg.inv(np.eye(len(F)) - F)
        G[0, 0] = bad
        with np.errstate(invalid="ignore"), pytest.raises(SingularIFError):
            SystemMatrices.from_factors(np.eye(len(F)), G, np.eye(len(F)), F=F)

    def test_a_solver_inverse_of_a_cycle_is_checked_normwise(self):
        # 1 -> 3 -> 1 is a cycle; the solver leaves rounding where a path sum is exactly 0, which an
        # entry-by-entry bound would refuse, so a cycle's G is held to 1e-12 of ||G|| ||I - F||
        F = np.array([[0, 0.9, 0, 0.2], [0, 0, 0, -0.6], [0.8, 0.7, 0, 0.9], [0, -0.8, 0, 0]])
        G = np.linalg.solve(np.eye(4) - F, np.eye(4))
        residual = np.abs(G @ (np.eye(4) - F) - np.eye(4))
        assert np.any(residual > _PATH_SUM_ULPS * np.finfo(float).eps * (np.abs(G) @ np.abs(np.eye(4) - F)))
        SystemMatrices.from_factors(np.eye(4), G, np.eye(4), F=F)

    @staticmethod
    def _figure1(scale, e3_e5):
        """figure1's system with every coupling scaled by ``scale``, then e3 -> e5 set to ``e3_e5``."""
        config = parse_config(FIGURE1.read_text())
        names, coeffs = config.topology.edge_names, config.coefficients
        beta = {key: scale * value for key, value in coeffs.beta.items()}
        if e3_e5 is not None:
            beta[names.index("e3"), names.index("e5")] = e3_e5
        coeffs = CodingCoefficients(coeffs.alpha, beta, coeffs.gamma)
        return build_coefficient_matrices(config.topology, coeffs, config.n_in, config.n_out)

    LARGE_COUPLINGS = [(300.0, None), (1000.0, None), (1.0, 1e6)]
    LARGE_IDS = ["beta-x300", "beta-x1000", "beta-e3-e5-1e6"]

    @pytest.mark.parametrize("scale, e3_e5", LARGE_COUPLINGS, ids=LARGE_IDS)
    def test_an_exact_inverse_with_large_couplings_builds(self, scale, e3_e5):
        # the Neumann sum misses I by more than 1e-12 absolute here, but not by 64 eps of |G| |I - F|
        sys = self._figure1(scale, e3_e5)
        inverse = np.linalg.inv(np.eye(sys.F.shape[0]) - sys.F)
        assert np.abs(sys.G - inverse).max() <= 1e-12 * np.abs(inverse).max()

    # at e3 -> e5 = 1e6, ||G|| ||I - F|| is 1.2e12: a normwise 1e-12 bound lets 16 of these 25 changes pass
    @pytest.mark.parametrize(
        "scale, e3_e5",
        [(1.0, None), (300.0, None), (1000.0, None), (1.0, 1e6)],
        ids=["1.0", "300.0", "1000.0", "e3-e5-1e6"],
    )
    def test_an_inverse_perturbed_by_1e_6_is_refused(self, scale, e3_e5):
        sys = self._figure1(scale, e3_e5)
        for entry in itertools.product(range(sys.G.shape[0]), repeat=2):
            G = sys.G.copy()
            G[entry] += 1e-6 * np.abs(G).max()
            with pytest.raises(SingularIFError, match=r"G is not the inverse of \(I - F\)"):
                SystemMatrices.from_factors(sys.A, G, sys.B, F=sys.F)

    def test_topology_validates_membership(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            NetworkTopology.from_edges(["a"], [("a", "zz")], ("a",), ("a",))
        with pytest.raises(ValueError, match="unknown vertex"):
            NetworkTopology(vertices=("a",), edges=(("zz", "a"),), sources=("a",), sinks=("a",))


def _ab(**names):
    return NetworkTopology(("a", "b"), (("a", "b"),), ("a",), ("b",), **names)


# a DAG built directly in non-canonical edge order: edge 0 is a -> t and edge 1 is s -> a, so the
# allowed beta slot (1, 0) passes the pattern check and sets F[0, 1], above the diagonal
_BACKWARD = NetworkTopology(("s", "a", "t"), (("a", "t"), ("s", "a")), ("s",), ("t",))
_BACKWARD_COEFFS = CodingCoefficients({(0, 1): 1.0}, {(1, 0): 2.0}, {(0, 0): 3.0})
# s -> a -> t, with A reading edge 0, which enters a and not the sink: the compact product drops it
_CHAIN = NetworkTopology.from_edges(("s", "a", "t"), (("s", "a"), ("a", "t")), ("s",), ("t",))
_OFF_SINK = SystemMatrices.from_factors([[1.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]], [[1.0], [0.0]], form="full")

# name: (call, exception type, message)
REFUSALS = {
    "duplicate-vertex": (lambda: NetworkTopology(("a", "a"), (), (), ()), ValueError, "duplicate vertex identifiers"),
    "source-not-a-vertex": (
        lambda: NetworkTopology(("a", "b"), (("a", "b"),), ("s",), ("b",)), ValueError, "source/sink 's' is not a vertex"
    ),
    "sink-not-a-vertex": (
        lambda: NetworkTopology(("a", "b"), (("a", "b"),), ("a",), ("z",)), ValueError, "source/sink 'z' is not a vertex"
    ),
    "edge-names-length": (lambda: _ab(edge_names=("e1", "e2")), ValueError, "edge_names length must match edges"),
    "no-edge-names": (lambda: _ab().edge_index("e1"), UnknownEdge, "topology has no edge names"),
    "unknown-edge-name": (lambda: _ab(edge_names=("e1",)).edge_index("e2"), UnknownEdge, "unknown edge 'e2'"),
    "decoder-off-the-sink": (
        lambda: compact_form(_OFF_SINK, _CHAIN),
        SparsityViolation,
        "compact restriction does not reproduce M; coefficients violate the topology pattern",
    ),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_a_malformed_network_is_refused_with_its_message(name):
    call, kind, message = REFUSALS[name]
    with pytest.raises(kind) as caught:
        call()
    assert type(caught.value) is kind and str(caught.value) == message


def test_a_dag_in_non_canonical_edge_order_builds_the_canonical_transfer_matrix():
    # F[0, 1] lies above the diagonal, but F is still nilpotent: its Neumann sum is the exact G
    backward = build_coefficient_matrices(_BACKWARD, _BACKWARD_COEFFS, 1, 1)
    canonical = build_coefficient_matrices(_CHAIN, CodingCoefficients({(0, 0): 1.0}, {(0, 1): 2.0}, {(0, 1): 3.0}), 1, 1)
    assert np.triu(backward.F).any() and not np.triu(canonical.F).any()
    np.testing.assert_array_equal(backward.M, canonical.M)
    np.testing.assert_array_equal(backward.M, [[6.0]])  # alpha beta gamma along s -> a -> t
