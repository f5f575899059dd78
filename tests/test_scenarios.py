"""Diamond-network scenarios: the expanded gradient entry, cuts, ascent.

The expansion tables are cross-checked two independent ways:

* a from-scratch symbolic expansion of (A^T A G B E B^T)[0,0] over the
  twelve coefficient symbols (real case), compared as a monomial multiset;
* hand transcriptions of the published reduced variants, compared against
  mechanical zeroing of the full list.
"""

import itertools
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import codedflow.scenarios as scenarios
from codedflow import estimator
from codedflow.cli import _compact, parse_config
from codedflow import (
    CodedFlowError,
    EngineSpec,
    InputDistribution,
    SystemMatrices,
    build_coefficient_matrices,
    closed_gradient,
    compact_form,
    cut_analysis,
    diamond_coefficients,
    diamond_compact_system,
    diamond_topology,
    grad11_matches_matrix_form,
    grad11_matrix_form,
    mmse_matrix,
    precoder_ascent,
    seeded_diamond_symbols,
    topology_grad11,
)

_E_NAMES = {(0, 0): "E11", (0, 1): "E12", (1, 0): "E21", (1, 1): "E22"}


def _terms_to_multiset(terms):
    out = {}
    for row, col, factors in terms:
        key = tuple(sorted(factors + (_E_NAMES[(row, col)],)))
        out[key] = out.get(key, 0) + 1
    return out


# -- minimal symbolic polynomial arithmetic over string factors -------------


def _pmul(p, q):
    out = {}
    for fp, cp in p.items():
        for fq, cq in q.items():
            key = tuple(sorted(fp + fq))
            out[key] = out.get(key, 0) + cp * cq
    return out


def _matmul(P, Q):
    rows, inner, cols = len(P), len(Q), len(Q[0])
    result = [[{} for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = {}
            for k in range(inner):
                for key, c in _pmul(P[i][k], Q[k][j]).items():
                    acc[key] = acc.get(key, 0) + c
            result[i][j] = {k: v for k, v in acc.items() if v != 0}
    return result


def _sym(name):
    return {(name,): 1}


def _symbolic_entry11():
    A = [[_sym("gamma_e4_1"), _sym("gamma_e5_1")], [_sym("gamma_e4_2"), _sym("gamma_e5_2")]]
    G = [
        [_sym("beta_e1_e4"), {}],
        [{("beta_e1_e3", "beta_e3_e5"): 1}, _sym("beta_e2_e5")],
    ]
    B = [[_sym("alpha_1_e1"), _sym("alpha_1_e2")], [_sym("alpha_2_e1"), _sym("alpha_2_e2")]]
    E = [[_sym("E11"), _sym("E12")], [_sym("E21"), _sym("E22")]]
    At = [[A[j][i] for j in range(2)] for i in range(2)]
    Bt = [[B[j][i] for j in range(2)] for i in range(2)]
    product = _matmul(_matmul(_matmul(_matmul(At, A), G), B), _matmul(E, Bt))
    return product[0][0]


# published reduced variants, transcribed term by term
_PRINTED_NO_E3 = [
    (0, 0, ("gamma_e4_1", "gamma_e4_1", "beta_e1_e4", "alpha_1_e1", "alpha_1_e1")),
    (0, 0, ("gamma_e4_1", "gamma_e5_1", "beta_e2_e5", "alpha_2_e1", "alpha_1_e1")),
    (0, 0, ("gamma_e4_2", "gamma_e4_2", "beta_e1_e4", "alpha_1_e1", "alpha_1_e1")),
    (0, 0, ("gamma_e4_1", "gamma_e5_2", "beta_e2_e5", "alpha_2_e1", "alpha_1_e1")),
    (0, 1, ("gamma_e4_1", "gamma_e4_1", "beta_e1_e4", "alpha_1_e1", "alpha_1_e2")),
    (0, 1, ("gamma_e4_1", "gamma_e5_1", "beta_e2_e5", "alpha_2_e1", "alpha_1_e2")),
    (0, 1, ("gamma_e4_2", "gamma_e4_2", "beta_e1_e4", "alpha_1_e1", "alpha_1_e2")),
    (0, 1, ("gamma_e4_2", "gamma_e5_2", "beta_e2_e5", "alpha_2_e1", "alpha_1_e2")),
    (1, 0, ("gamma_e4_1", "gamma_e4_1", "beta_e1_e4", "alpha_1_e1", "alpha_1_e2")),
    (1, 0, ("gamma_e4_1", "gamma_e5_1", "beta_e2_e5", "alpha_2_e2", "alpha_1_e1")),
    (1, 0, ("gamma_e4_2", "gamma_e4_2", "beta_e1_e4", "alpha_1_e1", "alpha_1_e2")),
    (1, 0, ("gamma_e4_2", "gamma_e5_2", "beta_e2_e5", "alpha_2_e2", "alpha_1_e1")),
    (1, 1, ("gamma_e4_1", "gamma_e4_1", "beta_e1_e4", "alpha_1_e2", "alpha_1_e2")),
    (1, 1, ("gamma_e4_1", "gamma_e5_1", "beta_e2_e5", "alpha_2_e2", "alpha_1_e2")),
    (1, 1, ("gamma_e4_2", "gamma_e4_2", "beta_e1_e4", "alpha_1_e2", "alpha_1_e2")),
    (1, 1, ("gamma_e4_2", "gamma_e5_2", "beta_e2_e5", "alpha_2_e2", "alpha_1_e2")),
]

_PRINTED_NO_E2E5 = [
    (0, 0, ("gamma_e4_1", "gamma_e4_1", "beta_e1_e4", "alpha_1_e1", "alpha_1_e1")),
    (0, 0, ("gamma_e4_2", "gamma_e4_2", "beta_e1_e4", "alpha_1_e1", "alpha_1_e1")),
    (0, 1, ("gamma_e4_1", "gamma_e4_1", "beta_e1_e4", "alpha_1_e1", "alpha_1_e2")),
    (0, 1, ("gamma_e4_2", "gamma_e4_2", "beta_e1_e4", "alpha_1_e1", "alpha_1_e2")),
    (1, 0, ("gamma_e4_1", "gamma_e4_1", "beta_e1_e4", "alpha_1_e1", "alpha_1_e2")),
    (1, 0, ("gamma_e4_2", "gamma_e4_2", "beta_e1_e4", "alpha_1_e1", "alpha_1_e2")),
    (1, 1, ("gamma_e4_1", "gamma_e4_1", "beta_e1_e4", "alpha_1_e2", "alpha_1_e2")),
    (1, 1, ("gamma_e4_2", "gamma_e4_2", "beta_e1_e4", "alpha_1_e2", "alpha_1_e2")),
]


class TestExpansionTables:
    def test_term_counts(self):
        assert scenarios.EXPANSIONS["full"].term_count == 24
        assert scenarios.EXPANSIONS["no-e3"].term_count == 16
        assert scenarios.EXPANSIONS["no-e2e5"].term_count == 8

    def test_unit_coefficients_identity_error_matrix(self):
        symbols = {name: 1.0 for name in scenarios.DIAMOND_SYMBOLS}
        assert topology_grad11("full", symbols, np.eye(2)) == pytest.approx(12.0)

    def test_corrected_list_matches_symbolic_expansion(self):
        expansion = _symbolic_entry11()
        assert all(c == 1 for c in expansion.values())
        assert _terms_to_multiset(scenarios.TERMS_FULL_CORRECTED) == expansion

    def test_published_list_differs_in_exactly_one_monomial(self):
        published = _terms_to_multiset(scenarios.TERMS_FULL_PRINTED)
        corrected = _terms_to_multiset(scenarios.TERMS_FULL_CORRECTED)
        only_published = set(published) - set(corrected)
        only_corrected = set(corrected) - set(published)
        assert only_published == {
            tuple(
                sorted(
                    (
                        "gamma_e4_1",
                        "gamma_e5_2",
                        "beta_e2_e5",
                        "alpha_2_e1",
                        "alpha_1_e1",
                        "E11",
                    )
                )
            )
        }
        assert only_corrected == {
            tuple(
                sorted(
                    (
                        "gamma_e4_2",
                        "gamma_e5_2",
                        "beta_e2_e5",
                        "alpha_2_e1",
                        "alpha_1_e1",
                        "E11",
                    )
                )
            )
        }

    def test_zeroing_reproduces_published_reductions(self):
        assert _terms_to_multiset(scenarios.TERMS_NO_E3) == _terms_to_multiset(_PRINTED_NO_E3)
        assert _terms_to_multiset(scenarios.TERMS_NO_E2E5) == _terms_to_multiset(
            _PRINTED_NO_E2E5
        )

    def test_numeric_zeroing_matches_variants(self, rng):
        E = rng.normal(size=(2, 2))
        symbols = seeded_diamond_symbols(13)
        no_e3 = dict(symbols, beta_e1_e3=0.0, beta_e3_e5=0.0)
        assert topology_grad11("full", no_e3, E) == pytest.approx(
            topology_grad11("no-e3", symbols, E)
        )
        no_branch = dict(
            symbols, beta_e2_e5=0.0, beta_e3_e5=0.0, gamma_e5_1=0.0, gamma_e5_2=0.0
        )
        assert topology_grad11("full", no_branch, E) == pytest.approx(
            topology_grad11("no-e2e5", symbols, E)
        )

    def test_a_diamond_map_missing_symbols_names_them(self):
        with pytest.raises(CodedFlowError) as caught:
            diamond_coefficients({"alpha_1_e1": 1.0})
        missing = ", ".join(s for s in scenarios.DIAMOND_SYMBOLS if s != "alpha_1_e1")
        assert type(caught.value) is CodedFlowError and str(caught.value) == f"missing coefficients: {missing}"

    def test_missing_coefficient_rejected(self):
        with pytest.raises(Exception, match="missing"):
            topology_grad11("full", {"gamma_e4_1": 1.0}, np.eye(2))


class TestMatrixComparison:
    def test_zero_cases(self):
        symbols = {name: 0.0 for name in scenarios.DIAMOND_SYMBOLS}
        assert topology_grad11("full", symbols, np.eye(2)) == 0
        assert grad11_matrix_form(symbols, np.eye(2)) == 0
        symbols = seeded_diamond_symbols(3)
        assert topology_grad11("full", symbols, np.zeros((2, 2))) == 0
        assert grad11_matrix_form(symbols, np.zeros((2, 2))) == 0

    def test_hundred_draw_report(self):
        check = grad11_matches_matrix_form(draws=100, seed=42)
        # the published list disagrees systematically ...
        assert check.max_printed_gap > 1e-3
        # ... the corrected list agrees, and the gap is one known monomial
        assert check.max_corrected_gap <= 1e-10
        assert check.max_attribution_gap <= 1e-10
        assert check.erratum_confirmed()

    @pytest.mark.parametrize("draws", [0, -3])
    def test_draws_below_one_rejected(self, draws):
        with pytest.raises(ValueError, match=f"draws must be an integer of at least 1, got {draws}"):
            grad11_matches_matrix_form(draws=draws)

    def test_per_draw_verdict_backs_erratum_confirmed(self):
        check = grad11_matches_matrix_form(draws=5, seed=3)
        assert check.draw_passed().tolist() == [True] * 5
        failing = scenarios.ExpansionCheck(
            **{**check.__dict__, "attribution_gap": check.attribution_gap + np.array([0, 0, 1.0, 0, 0])}
        )
        assert failing.draw_passed().tolist() == [True, True, False, True, True]
        assert not failing.erratum_confirmed()

    def test_erratum_record_is_the_only_difference(self):
        index, published = scenarios._ERRATUM
        assert scenarios.TERMS_FULL_PRINTED[index][2] == published
        assert scenarios.TERMS_FULL_PRINTED[:index] == scenarios.TERMS_FULL_CORRECTED[:index]
        assert scenarios.TERMS_FULL_PRINTED[index + 1 :] == scenarios.TERMS_FULL_CORRECTED[index + 1 :]
        assert scenarios.erratum_note() == (
            "erratum: E11 group, term 6 - published gamma_e4_1*gamma_e5_2, "
            "matrix form gives gamma_e4_2*gamma_e5_2"
        )

    @pytest.mark.parametrize("edge, variant", [("e3", "no-e3"), ("e5", "no-e2e5")])
    def test_edge_zeroing_names_the_variant_symbols(self, edge, variant):
        assert scenarios.edge_symbols(edge) == scenarios._REMOVED_BY_VARIANT[variant]

    def test_gradient_entry_matches_corrected_expansion(self):
        """The closed-form topology gradient's first entry equals the
        corrected expansion at the same real coefficients."""
        symbols = seeded_diamond_symbols(42)
        sys_c = diamond_compact_system(symbols)
        E = mmse_matrix(sys_c.M, InputDistribution.qpsk(2), EngineSpec(method="quadrature", nodes=12))
        entry = closed_gradient(sys_c, E, "G")[0, 0]
        poly = topology_grad11("full-corrected", symbols, E.matrix)
        assert entry == pytest.approx(poly, rel=1e-12)

    def test_diamond_full_build_reproduces_compact_factors(self):
        symbols = seeded_diamond_symbols(9)
        topology = diamond_topology()
        sys_full = build_coefficient_matrices(
            topology, diamond_coefficients(symbols), 2, 2
        )
        A_c, G_c, B_c = compact_form(sys_full, topology)
        direct = diamond_compact_system(symbols)
        np.testing.assert_allclose(A_c, direct.A, atol=1e-15)
        np.testing.assert_allclose(G_c, direct.G, atol=1e-15)
        np.testing.assert_allclose(B_c, direct.B, atol=1e-15)

    def test_symbols_read_back_from_coefficients(self):
        symbols = seeded_diamond_symbols(9)
        assert scenarios.diamond_symbols(diamond_topology(), diamond_coefficients(symbols)) == symbols


class TestCutAnalysis:
    def test_identity_chain_cuts_coincide(self, rng):
        B = rng.normal(size=(2, 2)) + 0j
        sys = SystemMatrices.from_factors(np.eye(2), np.eye(2), B, form="compact")
        dist = InputDistribution.qpsk(2)
        spec = EngineSpec(method="quadrature", nodes=12)
        with mock.patch.object(estimator, "_quadrature_pass", wraps=estimator._quadrature_pass) as computed:
            reports = {cut: cut_analysis(cut, sys, dist, spec) for cut in ("source", "mid", "full")}
        assert computed.call_count == 1  # the three cuts are one channel: the law keeps its one pass
        for cut in ("mid", "full"):
            assert reports[cut].mi.nats == pytest.approx(reports["source"].mi.nats, abs=1e-12)
            np.testing.assert_allclose(
                reports[cut].mmse.matrix, reports["source"].mmse.matrix, atol=1e-12
            )

    def test_unitary_topology_preserves_cut_error(self, rng):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        base = diamond_compact_system(seeded_diamond_symbols(42))
        sys = SystemMatrices.from_factors(base.A, q, base.B, form="compact")
        dist = InputDistribution.qpsk(2)
        spec = EngineSpec(method="quadrature", nodes=24)
        e_source = cut_analysis("source", sys, dist, spec).mmse.matrix
        e_mid = cut_analysis("mid", sys, dist, spec).mmse.matrix
        np.testing.assert_allclose(e_mid, e_source, atol=1e-8)

    def test_singular_topology_mid_cut_well_defined(self):
        G = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)  # rank 1
        sys = SystemMatrices.from_factors(np.eye(2), G, np.eye(2), form="compact")
        dist = InputDistribution.qpsk(2)
        report = cut_analysis("mid", sys, dist, EngineSpec(method="quadrature", nodes=12))
        assert np.isfinite(report.mi.nats)
        assert np.all(np.isfinite(report.mmse.matrix))
        assert set(report.gradients) == {"B", "G"}

    def test_full_cut_gradient_targets(self):
        sys = diamond_compact_system(seeded_diamond_symbols(1))
        report = cut_analysis("full", sys, InputDistribution.gaussian(2), EngineSpec())
        assert set(report.gradients) == {"A", "G", "B"}

    def test_unknown_cut_rejected(self):
        sys = diamond_compact_system(seeded_diamond_symbols(1))
        with pytest.raises(ValueError, match="unknown objective 'diagonal'"):
            cut_analysis("diagonal", sys, InputDistribution.gaussian(2), EngineSpec())


class TestPrecoderAscent:
    def test_from_zero_information_strictly_increases(self):
        sys = SystemMatrices.from_factors(
            np.eye(2), np.eye(2), np.zeros((2, 2)), form="compact"
        )
        traj = precoder_ascent(sys, InputDistribution.gaussian(2), 0.5, 3, np.sqrt(2.0))
        assert traj[0][1] == pytest.approx(0.0, abs=1e-14)
        assert traj[1][1] > 0.0

    def test_zero_step_is_constant(self, rng):
        B = rng.normal(size=(2, 2)) + 0j
        sys = SystemMatrices.from_factors(np.eye(2), np.eye(2), B, form="compact")
        traj = precoder_ascent(sys, InputDistribution.gaussian(2), 0.0, 4, 1.0)
        for Bk, info in traj:
            np.testing.assert_array_equal(Bk, B)
            assert info == traj[0][1]

    def test_converges_to_isotropic_optimum(self, rng):
        B0 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        B0 *= np.sqrt(2.0) / np.linalg.norm(B0)
        sys = SystemMatrices.from_factors(np.eye(2), np.eye(2), B0, form="compact")
        traj = precoder_ascent(sys, InputDistribution.gaussian(2), 0.3, 200, np.sqrt(2.0))
        values = [info for _, info in traj]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        target = 2.0 * np.log(2.0)
        assert values[-1] == pytest.approx(target, rel=1e-2)

    def test_budget_respected(self, rng):
        B0 = rng.normal(size=(2, 2)) + 0j
        sys = SystemMatrices.from_factors(np.eye(2), np.eye(2), B0, form="compact")
        traj = precoder_ascent(sys, InputDistribution.gaussian(2), 0.4, 10, 1.7)
        for Bk, _ in traj[1:]:
            assert np.linalg.norm(Bk) == pytest.approx(1.7, rel=1e-12)

    def test_start_outside_the_budget_is_projected(self):
        # figure1's seeded compact B has |B|^2 = 2.35 over the budget 2; unprojected, every
        # projected step lost information and the ascent stopped at its first point
        config = parse_config((Path(__file__).resolve().parent.parent / "configs" / "figure1.cfg").read_text())
        sys = _compact(config)
        budget = np.sqrt(2.0)
        assert np.linalg.norm(sys.B) > budget
        traj = precoder_ascent(sys, config.dist, 0.5, 3, budget, config.engine)
        values = [info for _, info in traj]
        assert len(traj) > 1
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert np.linalg.norm(traj[0][0]) == pytest.approx(budget, rel=1e-12)

    def test_discrete_input_path(self):
        sys = SystemMatrices.from_factors(
            np.eye(1), np.eye(1), np.array([[0.2 + 0j]]), form="compact"
        )
        with (
            mock.patch.object(estimator, "quadrature_moments", wraps=estimator.quadrature_moments) as called,
            mock.patch.object(estimator, "_quadrature_pass", wraps=estimator._quadrature_pass) as computed,
        ):
            traj = precoder_ascent(
                sys, InputDistribution.bpsk(1), 0.5, 3, 1.0, EngineSpec(method="quadrature", nodes=48)
            )
        values = [info for _, info in traj]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        # two channels, the start and the [[1]] every step projects onto: each is computed once
        assert (computed.call_count, called.call_count) == (2, 8)

    @staticmethod
    def _scripted(values):
        """Patch the ascent's information to return ``values`` in turn, as ``.nats``."""
        script = iter(values)
        return mock.patch.object(
            scenarios, "mutual_information", side_effect=lambda *_: SimpleNamespace(nats=next(script))
        )

    def test_a_falling_step_is_halved_once(self):
        B = np.array([[0.6, 0.1], [0.2, 0.5]], dtype=complex)
        sys = SystemMatrices.from_factors(np.eye(2), np.eye(2), B, form="compact")
        dist, step, budget = InputDistribution.gaussian(2), 0.5, 1.0
        assert np.linalg.norm(B) <= budget  # the start is not projected
        # the start, a candidate that falls, and the halved candidate that rises
        with self._scripted([1.0, 0.5, 1.5]) as info:
            traj = precoder_ascent(sys, dist, step, 1, budget)
        assert info.call_count == 3
        halved = B + (step / 2.0) * closed_gradient(sys, mmse_matrix(sys.M, dist), "B")
        np.testing.assert_array_equal(traj[1][0], halved * (budget / np.linalg.norm(halved)))
        assert [value for _, value in traj] == [1.0, 1.5]

    def test_an_ascent_whose_every_candidate_falls_stops_and_keeps_its_trajectory(self):
        B = np.array([[0.6, 0.1], [0.2, 0.5]], dtype=complex)
        sys = SystemMatrices.from_factors(np.eye(2), np.eye(2), B, form="compact")
        # the start, one accepted step, then only falls
        with self._scripted(itertools.chain([1.0, 2.0], itertools.repeat(0.0))) as info:
            traj = precoder_ascent(sys, InputDistribution.gaussian(2), 0.5, 3, 1.0)
        assert info.call_count == 2 + scenarios._HALVINGS + 1
        assert [value for _, value in traj] == [1.0, 2.0]
        np.testing.assert_array_equal(traj[0][0], B)

    def test_non_finite_gradient_aborts_with_partial_trajectory(self, rng, monkeypatch):
        sys = SystemMatrices.from_factors(
            np.eye(2), np.eye(2), rng.normal(size=(2, 2)) + 0j, form="compact"
        )
        bad = np.full((2, 2), np.nan, dtype=complex)
        monkeypatch.setattr(scenarios, "closed_gradient", lambda *_: bad)
        traj = precoder_ascent(sys, InputDistribution.gaussian(2), 0.5, 10, 1.0)
        assert len(traj) == 1

    def test_parameter_validation(self, rng):
        sys = SystemMatrices.from_factors(np.eye(1), np.eye(1), np.eye(1), form="compact")
        with pytest.raises(ValueError):
            precoder_ascent(sys, InputDistribution.gaussian(1), -0.1, 5, 1.0)
        with pytest.raises(ValueError):
            precoder_ascent(sys, InputDistribution.gaussian(1), 0.1, 5, 0.0)

    @pytest.mark.parametrize("iterations", [-3, 2.5, True, None])
    def test_iterations_must_be_an_integer_of_at_least_zero(self, iterations):
        sys = SystemMatrices.from_factors(np.eye(1), np.eye(1), np.eye(1), form="compact")
        with pytest.raises(ValueError, match="iterations must be an integer of at least 0"):
            precoder_ascent(sys, InputDistribution.gaussian(1), 0.1, iterations, 1.0)

    @pytest.mark.parametrize(
        "step, budget",
        [(np.inf, 1.0), (np.nan, 1.0), (0.5, np.inf), (0.5, np.nan)],
    )
    def test_non_finite_step_or_budget_rejected(self, step, budget):
        sys = SystemMatrices.from_factors(np.eye(2), np.eye(2), np.zeros((2, 2)), form="compact")
        with pytest.raises(ValueError, match=r"must be a real number in [\[(]0, inf\)"):
            precoder_ascent(sys, InputDistribution.qpsk(2), step, 3, budget)
