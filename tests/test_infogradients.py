"""Information values and matrix-gradient identities.

The frozen scalar information value comes from an independent adaptive
quadrature of the 1-D output-density reduction (see test module docstring
in test_estimator for the companion error values).

Conventions under test: all closed-form gradients are conjugate-coordinate
gradients, so a real directional perturbation moves the information at
``2 Re Tr(D^H grad)``.  The factor of two is pinned by two independent
anchors below; every other gradient test inherits it.
"""

import ctypes
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from functools import reduce
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import random_dag
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codedflow import (
    CostGuardError,
    DensityUnderflow,
    EngineSpec,
    GradientReport,
    InputDistribution,
    MmseMatrix,
    NATS_PER_BIT,
    StepTooSmallError,
    SystemMatrices,
    WIRTINGER_SCALE,
    build_coefficient_matrices,
    compact_system,
    directional_derivative,
    gaussian_logdet_gradient,
    gaussian_mutual_information,
    grad_mi_cut,
    grad_oracle,
    mmse_matrix,
    mutual_information,
    verify_gradients,
)
from codedflow import estimator, flowmodel, infogradients
from codedflow.cli import _compact, parse_config
from codedflow.estimator import mc_moments, quadrature_moments
from codedflow.errors import InvariantViolation
from codedflow.infogradients import (
    STEP_RANGE,
    MutualInformationValue,
    _OBJECTIVES,
    _chain,
    closed_gradient,
    effective_matrix,
)

# every (objective, target) pair of the objective table
_PAIRS = [(objective, target) for objective, factors in _OBJECTIVES.items() for target in factors]

FROZEN_SCALAR_INFO_M1 = 0.500072136066845  # two-point input, unit gain, nats

QUAD64 = EngineSpec(method="quadrature", nodes=64)


def _random_system(rng, n=2, scale=0.6):
    def mat():
        return scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))

    return SystemMatrices.from_factors(mat(), mat(), mat(), form="compact")


def _zero_mmse(n):
    return MmseMatrix.checked(np.zeros((n, n), dtype=complex), "exact", 0, np.eye(n))


class TestMutualInformation:
    def test_deterministic_input_has_no_information(self):
        dist = InputDistribution.point(np.array([1.0 + 0.5j]))
        mi = mutual_information(np.array([[2.0 + 0j]]), dist, QUAD64)
        assert abs(mi.nats) < 1e-12
        mi_mc = mutual_information(
            np.array([[2.0 + 0j]]), dist, EngineSpec(method="mc", samples=2000, seed=3)
        )
        assert abs(mi_mc.nats) < 1e-12

    def test_gaussian_closed_forms(self):
        dist = InputDistribution.gaussian(2)
        assert mutual_information(np.zeros((2, 2)), dist).nats == pytest.approx(0.0, abs=1e-14)
        mi = mutual_information(np.eye(2), dist)
        assert mi.nats == pytest.approx(2 * np.log(2.0), abs=1e-12)

    def test_scalar_two_point_matches_frozen_value(self):
        dist = InputDistribution.bpsk(1)
        mi = mutual_information(np.array([[1.0 + 0j]]), dist, QUAD64)
        assert mi.nats == pytest.approx(FROZEN_SCALAR_INFO_M1, abs=5e-9)
        assert mi.method == "quadrature"

    def test_sampling_estimate_agrees_with_quadrature(self):
        dist = InputDistribution.bpsk(1)
        mi_q = mutual_information(np.array([[1.0 + 0j]]), dist, QUAD64)
        mi_mc = mutual_information(
            np.array([[1.0 + 0j]]), dist, EngineSpec(method="mc", samples=200000, seed=8)
        )
        assert abs(mi_mc.nats - mi_q.nats) <= 3.0 * mi_mc.standard_error

    def test_units_conversion_is_exact(self):
        value = MutualInformationValue.checked(0.75, "exact", 0)
        assert value.bits == 0.75 / NATS_PER_BIT

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            MutualInformationValue.checked(-1.0, "exact", 0)
        with pytest.raises(ValueError):
            MutualInformationValue.checked(2.0, "quadrature", 64, entropy_limit=np.log(2))

    def test_non_finite_value_refused(self):
        for value in (np.nan, np.inf):
            with pytest.raises(InvariantViolation, match="not finite"):
                MutualInformationValue.checked(value, "quadrature", 372)

    def test_discrete_information_capped_by_entropy(self):
        # high gain drives the value to the input entropy, never beyond
        dist = InputDistribution.bpsk(1)
        mi = mutual_information(np.array([[40.0 + 0j]]), dist, QUAD64)
        assert mi.nats <= np.log(2) + 1e-9
        assert mi.nats == pytest.approx(np.log(2), rel=1e-6)


class TestClosedForms:
    def test_zero_error_matrix_zeroes_all_gradients(self, rng):
        sys = _random_system(rng)
        E = _zero_mmse(2)
        for target in ("A", "G", "B"):
            np.testing.assert_array_equal(closed_gradient(sys, E, target), np.zeros((2, 2)))

    def test_scalar_pattern(self):
        a, g, b = 0.8 + 0.3j, -0.5 + 0.9j, 1.1 - 0.2j
        e = 0.37
        sys = SystemMatrices.from_factors(
            np.array([[a]]), np.array([[g]]), np.array([[b]]), form="compact"
        )
        E = MmseMatrix.checked(np.array([[e + 0j]]), "exact", 0, np.eye(1))
        assert closed_gradient(sys, E, "A")[0, 0] == pytest.approx(a * abs(g) ** 2 * abs(b) ** 2 * e)
        assert closed_gradient(sys, E, "G")[0, 0] == pytest.approx(abs(a) ** 2 * g * abs(b) ** 2 * e)
        assert closed_gradient(sys, E, "B")[0, 0] == pytest.approx(abs(a) ** 2 * abs(g) ** 2 * b * e)

    def test_identity_readout_and_precoder_reduce_topology_gradient(self, rng):
        G = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        sys = SystemMatrices.from_factors(np.eye(2), G, np.eye(2), form="compact")
        E = mmse_matrix(sys.M, InputDistribution.gaussian(2), EngineSpec())
        np.testing.assert_allclose(closed_gradient(sys, E, "G"), G @ E.matrix, atol=1e-12)

    def test_identity_chain_matches_source_cut_form(self, rng):
        B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        sys = SystemMatrices.from_factors(np.eye(2), np.eye(2), B, form="compact")
        E = mmse_matrix(sys.M, InputDistribution.gaussian(2), EngineSpec())
        np.testing.assert_array_equal(
            closed_gradient(sys, E, "B"), grad_mi_cut("source", "B", sys, E)
        )


class TestCutGradients:
    def test_zero_error_matrix(self, rng):
        sys = _random_system(rng)
        E = _zero_mmse(2)
        for cut, which in (("source", "B"), ("mid", "B"), ("mid", "G")):
            np.testing.assert_array_equal(grad_mi_cut(cut, which, sys, E), np.zeros((2, 2)))

    def test_mid_cut_with_identity_topology_matches_source(self, rng):
        B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        sys = SystemMatrices.from_factors(np.eye(2), np.eye(2), B, form="compact")
        E = mmse_matrix(sys.B, InputDistribution.gaussian(2), EngineSpec())
        np.testing.assert_array_equal(
            grad_mi_cut("mid", "B", sys, E), grad_mi_cut("source", "B", sys, E)
        )

    def test_source_cut_has_no_topology_gradient(self, rng):
        sys = _random_system(rng)
        with pytest.raises(ValueError):
            grad_mi_cut("source", "G", sys, _zero_mmse(2))

    def test_unknown_cut_rejected(self, rng):
        sys = _random_system(rng)
        with pytest.raises(ValueError, match="unknown objective 'everywhere'"):
            grad_mi_cut("everywhere", "B", sys, _zero_mmse(2))

    def test_mid_cut_gradients_match_oracle_scalar(self):
        """1-D network: both mid-cut closed forms against finite differences."""
        sys = SystemMatrices.from_factors(
            np.array([[1.0 + 0j]]), np.array([[0.8 - 0.4j]]), np.array([[1.1 + 0.2j]]),
            form="compact",
        )
        dist = InputDistribution.qpsk(1)
        E_mid = mmse_matrix(sys.G @ sys.B, dist, QUAD64)
        for which in ("B", "G"):
            closed = grad_mi_cut("mid", which, sys, E_mid)
            oracle = grad_oracle(sys, dist, which, QUAD64, objective="mid")
            np.testing.assert_allclose(closed, oracle, rtol=1e-4, atol=1e-9)


class TestCalibration:
    """The two anchors that pin the real-perturbation factor of 2."""

    def test_scalar_information_error_anchor(self):
        dist = InputDistribution.bpsk(1)
        spec = EngineSpec(method="quadrature", nodes=192)
        for snr in (0.25, 1.0, 4.0):
            m = np.sqrt(snr)
            E = mmse_matrix(np.array([[m + 0j]]), dist, spec)
            e_val = E.matrix[0, 0].real
            h = 1e-5 * max(snr, 1.0)
            mi_p, _, _ = quadrature_moments(np.array([[np.sqrt(snr + h) + 0j]]), dist, 192, want_mmse=False)
            mi_m, _, _ = quadrature_moments(np.array([[np.sqrt(snr - h) + 0j]]), dist, 192, want_mmse=False)
            fd = (mi_p - mi_m) / (2 * h)
            assert fd == pytest.approx(e_val, rel=1e-3)
            # chain rule through the entry gradient: dI/dsnr = c Re(grad) / (2 sqrt(snr))
            sys = SystemMatrices.from_factors(np.eye(1), np.eye(1), np.array([[m + 0j]]), form="compact")
            chain = WIRTINGER_SCALE * closed_gradient(sys, E, "B")[0, 0].real / (2 * m)
            assert chain == pytest.approx(e_val, rel=1e-9)

    def test_gaussian_logdet_anchor(self, rng):
        sys = _random_system(rng)
        dist = InputDistribution.gaussian(2)
        E = mmse_matrix(sys.M, dist, EngineSpec())
        for target in ("A", "G", "B"):
            closed = closed_gradient(sys, E, target, "full")
            analytic = gaussian_logdet_gradient(sys, target)
            np.testing.assert_allclose(closed, analytic, rtol=1e-9, atol=1e-12)

    def test_directional_derivative_contract(self, rng):
        sys = _random_system(rng)
        dist = InputDistribution.qpsk(2)
        spec = EngineSpec(method="quadrature", nodes=16)
        E = mmse_matrix(sys.M, dist, spec)
        for target in ("A", "G", "B"):
            direction = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            fd = directional_derivative(sys, dist, target, direction, spec, step=1e-4)
            closed = closed_gradient(sys, E, target, "full")
            predicted = WIRTINGER_SCALE * float(
                np.real(np.trace(direction.conj().T @ closed))
            )
            assert fd == pytest.approx(predicted, rel=1e-3)

    @pytest.mark.parametrize(
        "direction, step, pattern",
        [
            (np.ones(2), 1e-4, r"direction must be a finite \(2, 2\) matrix"),  # would broadcast
            (np.ones((1, 1)), 1e-4, r"direction must be a finite \(2, 2\) matrix"),
            (np.array([[np.nan, 0.0], [0.0, 0.0]]), 1e-4, r"direction must be a finite \(2, 2\) matrix"),
            (np.eye(2), 0.0, r"step must be a real number in \(0, inf\), got 0.0"),
            (np.eye(2), -1e-4, r"step must be a real number in \(0, inf\), got -0.0001"),
            (np.eye(2), np.nan, r"step must be a real number in \(0, inf\), got nan"),
            (np.eye(2), np.inf, r"step must be a real number in \(0, inf\), got inf"),
        ],
    )
    def test_directional_derivative_refuses_bad_direction_or_step(self, rng, direction, step, pattern):
        sys = _random_system(rng)
        with pytest.raises(ValueError, match=pattern):
            directional_derivative(sys, InputDistribution.gaussian(2), "G", direction, step=step)

    def test_directional_derivative_takes_steps_outside_the_oracle_range(self, rng):
        sys = _random_system(rng)
        dist, direction = InputDistribution.gaussian(2), np.eye(2, dtype=complex)
        analytic = WIRTINGER_SCALE * np.real(np.trace(gaussian_logdet_gradient(sys, "G")))
        for step in (STEP_RANGE[0] / 2, 2 * STEP_RANGE[1]):
            assert directional_derivative(sys, dist, "G", direction, step=step) == pytest.approx(analytic, rel=1e-3)

    def test_gaussian_oracle_matches_analytic_logdet(self, rng):
        sys = _random_system(rng)
        dist = InputDistribution.gaussian(2)
        oracle = grad_oracle(sys, dist, "B", EngineSpec(), step=1e-4)
        analytic = gaussian_logdet_gradient(sys, "B")
        np.testing.assert_allclose(oracle, analytic, rtol=1e-6, atol=1e-9)


class TestOracle:
    def test_structurally_irrelevant_entries_read_zero(self):
        G = np.array([[0.9, 0.0], [0.0, 0.0]], dtype=complex)
        B = np.array([[1.1, 0.0], [0.0, 0.0]], dtype=complex)
        A = np.array([[0.7, 0.2], [0.3, 0.5]], dtype=complex)
        sys = SystemMatrices.from_factors(A, G, B, form="compact")
        dist = InputDistribution.qpsk(2)
        spec = EngineSpec(method="quadrature", nodes=16)
        oracle = grad_oracle(sys, dist, "A", spec)
        E = mmse_matrix(sys.M, dist, spec)
        closed = closed_gradient(sys, E, "A")
        np.testing.assert_array_equal(closed[:, 1], 0.0)
        np.testing.assert_allclose(oracle[:, 1], 0.0, atol=1e-8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_target_is_refused(self, bad):
        with np.errstate(invalid="ignore"):  # inf times the identity's zeros
            sys = SystemMatrices.from_factors(np.eye(1), np.eye(1), np.array([[bad]]), form="compact")
        with pytest.raises(ValueError) as caught:
            grad_oracle(sys, InputDistribution.gaussian(1), "B")
        assert str(caught.value) == "target matrix has non-finite entries"

    def test_step_bounds(self, rng):
        sys = _random_system(rng)
        with pytest.raises(ValueError):
            grad_oracle(sys, InputDistribution.gaussian(2), "B", EngineSpec(), step=1.0)

    def test_sampling_oracle_with_common_draws(self):
        dist = InputDistribution.bpsk(1)
        sys = SystemMatrices.from_factors(
            np.eye(1), np.eye(1), np.array([[1.0 + 0j]]), form="compact"
        )
        spec = EngineSpec(method="mc", samples=200000, seed=21)
        oracle = grad_oracle(sys, dist, "B", spec, step=1e-2)
        E = mmse_matrix(sys.M, dist, QUAD64)
        closed = closed_gradient(sys, E, "B")
        np.testing.assert_allclose(oracle, closed, rtol=3e-2, atol=1e-4)

    def test_noise_floor_reported(self):
        dist = InputDistribution.bpsk(1)
        sys = SystemMatrices.from_factors(
            np.eye(1), np.eye(1), np.array([[1.0 + 0j]]), form="compact"
        )
        spec = EngineSpec(method="mc", samples=1000, seed=4)
        with mock.patch.object(infogradients, "_NOISE_RATIO_LIMIT", 1e-4), pytest.raises(StepTooSmallError):
            grad_oracle(sys, dist, "B", spec, step=1e-5)

    def test_a_one_percent_noise_limit_trips_the_guard_on_figure1(self):
        # an infinite limit switches the guard off
        config = parse_config((Path(__file__).resolve().parent.parent / "configs" / "figure1.cfg").read_text())
        sys, spec = _compact(config), EngineSpec(method="mc", samples=2000, seed=1)
        with mock.patch.object(infogradients, "_NOISE_RATIO_LIMIT", 0.01), pytest.raises(StepTooSmallError):
            grad_oracle(sys, config.dist, "B", spec, step=1e-5)
        with mock.patch.object(infogradients, "_NOISE_RATIO_LIMIT", np.inf):
            assert grad_oracle(sys, config.dist, "B", spec, step=1e-5).shape == (2, 2)

    def test_a_quadrature_oracle_has_no_noise_floor_to_guard(self):
        # _slope's standard error is exactly 0 off Monte Carlo, so even a zero limit never trips
        config = parse_config((Path(__file__).resolve().parent.parent / "configs" / "figure1.cfg").read_text())
        sys = _compact(config)
        expected = grad_oracle(sys, config.dist, "B", EngineSpec())
        with mock.patch.object(infogradients, "_NOISE_RATIO_LIMIT", 0.0):
            np.testing.assert_array_equal(grad_oracle(sys, config.dist, "B", EngineSpec()), expected)

    def test_sample_guard_fires_before_any_draw(self, monkeypatch):
        # below the minimum, batch means of empty batches are NaN and would hide the noise floor
        def no_draw(*args, **kwargs):
            raise AssertionError("samples were drawn below the Monte Carlo minimum")

        monkeypatch.setattr(flowmodel, "draw_inputs_and_noise", no_draw)
        dist = InputDistribution.bpsk(1)
        sys = SystemMatrices.from_factors(
            np.eye(1), np.eye(1), np.array([[1.0 + 0j]]), form="compact"
        )
        spec = EngineSpec(method="mc", samples=10, seed=4)
        with mock.patch.object(infogradients, "_NOISE_RATIO_LIMIT", 1e-4), pytest.raises(CostGuardError, match="at least 1000"):
            grad_oracle(sys, dist, "B", spec, step=1e-5)


class TestVerifyGradients:
    def test_identity_scalar_deterministic_input_passes_with_zeros(self):
        sys = SystemMatrices.from_factors(np.eye(1), np.eye(1), np.eye(1), form="compact")
        dist = InputDistribution.point(np.array([1.0 + 0j]))
        report = verify_gradients(sys, dist, QUAD64)
        for target in ("A", "G", "B"):
            np.testing.assert_allclose(report.closed[target], 0.0, atol=1e-12)
            np.testing.assert_allclose(report.oracles[target], 0.0, atol=1e-9)
        assert report.passed(1e-3)

    def test_corrupted_closed_form_fails_with_located_entry(self, rng):
        sys = _random_system(rng)
        dist = InputDistribution.gaussian(2)
        report = verify_gradients(sys, dist, EngineSpec(), step=1e-4)
        assert report.passed(1e-3)
        corrupted_topology = np.array(report.closed["G"])
        corrupted_topology[1, 0] += 0.25
        corrupted = GradientReport(
            mmse=report.mmse,
            closed={**report.closed, "G": corrupted_topology},
            oracles=report.oracles,
            step=report.step,
        )
        assert not corrupted.passed(1e-3)
        disc = corrupted.discrepancy("G")
        assert disc["entry"] == (1, 0)
        assert disc["max_rel"] > 1e-2

    def test_report_records_calibration_and_refinement(self, rng):
        sys = _random_system(rng, n=1)
        dist = InputDistribution.bpsk(1)
        report = verify_gradients(sys, dist, QUAD64)
        assert set(report.refinement) == {"A", "G", "B"}
        assert report.passed(1e-3)


    def test_kept_passes_are_transparent(self, rng, monkeypatch):
        # a complex system, so that canonical forms conjugate; the reference law keeps no pass, so
        # every call of its run computes
        sys, spec = _random_system(rng), EngineSpec(nodes=6)
        with monkeypatch.context() as patch:
            patch.setattr(estimator, "_KEPT_PASSES", 0)
            plain = verify_gradients(sys, InputDistribution.qpsk(2), spec)
        dist = InputDistribution.qpsk(2)
        mutual_information(effective_matrix("full", sys), dist, spec)
        kept = verify_gradients(sys, dist, spec)
        pooled = verify_gradients(sys, InputDistribution.qpsk(2), replace(spec, workers=2))
        for report in (kept, pooled):
            np.testing.assert_array_equal(report.mmse.matrix, plain.mmse.matrix)
            assert report.refinement == plain.refinement
            for target in "AGB":
                np.testing.assert_array_equal(report.closed[target], plain.closed[target])
                np.testing.assert_array_equal(report.oracles[target], plain.oracles[target])
        for target in "AGB":
            np.testing.assert_array_equal(plain.oracles[target], grad_oracle(sys, dist, target, spec))


class TestEngineRoute:
    """Information and error matrix take one route per spec and input: each
    value is its kernel's or closed form's bit for bit, under one label."""

    M = np.array([[0.9 + 0.2j, -0.3j], [0.4 + 0j, 0.7 - 0.1j]])
    DISTS = {"qpsk": InputDistribution.qpsk(2), "gaussian": InputDistribution.gaussian(2)}
    SPECS = {"quadrature": EngineSpec(nodes=8), "mc": EngineSpec(method="mc", nodes=8, samples=2000, seed=11)}

    def _expected(self, dist, spec):
        """(mi, mi_se, err, err_se, label, count) straight from the kernel or closed form."""
        M = self.M
        if spec.method == "mc":
            mi, mi_se, _, _, count = mc_moments(M, dist, spec, want_mmse=False)
            _, _, err, err_se, _ = mc_moments(M, dist, spec, want_mi=False)
            return mi, mi_se, err, err_se, "monte-carlo", count
        if dist.kind == "gaussian":
            err = np.linalg.inv(np.eye(2, dtype=complex) + M.conj().T @ M)
            return gaussian_mutual_information(M), None, err, None, "exact", 0
        mi = estimator._quadrature_pass(M + 0.0, dist, 8, False)[0]  # computed: the law serves repeats
        err = estimator._quadrature_pass(M + 0.0, dist, 8, True)[1]
        return mi, None, err, None, "quadrature", 8

    @pytest.mark.parametrize("method", ["quadrature", "mc"])
    @pytest.mark.parametrize("kind", ["qpsk", "gaussian"])
    def test_values_match_their_evaluator_bit_for_bit(self, kind, method):
        dist, spec = self.DISTS[kind], self.SPECS[method]
        mi_nats, mi_se, err, err_se, label, count = self._expected(dist, spec)
        mi = mutual_information(self.M, dist, spec)
        E = mmse_matrix(self.M, dist, spec)
        assert (mi.nats, mi.standard_error, mi.method, mi.count) == (mi_nats, mi_se, label, count)
        assert (E.method, E.count) == (label, count)
        np.testing.assert_array_equal(E.matrix, 0.5 * (err + err.conj().T))  # as MmseMatrix stores it
        if err_se is None:
            assert E.standard_error is None
        else:
            np.testing.assert_array_equal(E.standard_error, err_se)

    @pytest.mark.parametrize("kind", ["qpsk", "gaussian"])
    def test_refinement_probe_is_quadrature_under_monte_carlo(self, kind):
        sys = SystemMatrices.from_factors(np.eye(2), np.eye(2), self.M, form="compact")
        direction = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        probes = [  # each on its own law, so both are computed
            directional_derivative(sys, getattr(InputDistribution, kind)(2), "B", direction, self.SPECS[method])
            for method in ("mc", "quadrature")
        ]
        assert probes[0] == probes[1]

    @pytest.mark.parametrize("method", ["quadrature", "mc"])
    @pytest.mark.parametrize(
        "dist, M",
        [(InputDistribution.gaussian(2), np.eye(1, dtype=complex)), (InputDistribution.qpsk(2), np.ones((2, 3), dtype=complex))],
    )
    def test_channel_of_another_input_dimension_is_refused(self, dist, M, method):
        spec = self.SPECS[method]
        sys = SystemMatrices.from_factors(np.eye(len(M)), np.eye(len(M)), M, form="compact")
        calls = [
            lambda: mutual_information(M, dist, spec),
            lambda: mmse_matrix(M, dist, spec),
            lambda: grad_oracle(sys, dist, "B", spec),
            lambda: directional_derivative(sys, dist, "B", M, spec),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=rf"input dimension {M.shape[1]} is not the input law's 2"):
                call()


def test_gaussian_information_formula(rng):
    M = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    direct = np.log(np.linalg.det(np.eye(3) + M @ M.conj().T).real)
    assert gaussian_mutual_information(M) == pytest.approx(direct, rel=1e-12)


def _dag_system(seed):
    """Compact factors of a random DAG: rectangular, sometimes with an empty dimension."""
    rng = np.random.default_rng(seed)
    topology, coeffs, n_in, n_out = random_dag(rng)
    return rng, compact_system(build_coefficient_matrices(topology, coeffs, n_in, n_out), topology)


def _hand_forms(sys, E):
    """The six closed forms of the module docstring, as factor lists."""
    A, G, B, M = sys.A, sys.G, sys.B, sys.M
    A_h, G_h, B_h = A.conj().T, G.conj().T, B.conj().T
    return {
        ("full", "A"): (M, E, B_h, G_h),
        ("full", "G"): (A_h, M, E, B_h),
        ("full", "B"): (G_h, A_h, M, E),
        ("source", "B"): (B, E),
        ("mid", "G"): (G, B, E, B_h),
        ("mid", "B"): (G_h, G, B, E),
    }


class TestChainTable:
    """The (X, L, R) derived from the objective table against hand-written forms.

    Random DAGs give rectangular factors and empty dimensions, which square
    2x2 factors cannot: an identity of the wrong size shows up only there.
    """

    @pytest.mark.parametrize("seed", [4, 9])
    def test_suffix_rule_expands_to_the_six_rows_in_chain_order(self, seed):
        _, sys = _dag_system(seed)
        assert sorted(_PAIRS) == sorted(_hand_forms(sys, None))
        # non-empty products are the plain chain-order products, empty ones real identities
        np.testing.assert_array_equal(_chain(sys, "full", "A")[2], sys.G @ sys.B)
        np.testing.assert_array_equal(_chain(sys, "full", "B")[1], sys.A @ sys.G)
        X, L, R = _chain(sys, "source", "B")
        assert L.dtype == R.dtype == np.float64
        np.testing.assert_array_equal(L, np.eye(X.shape[0]))
        np.testing.assert_array_equal(R, np.eye(X.shape[1]))

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @example(seed=4)  # A is 2x0, G is 0x2: an empty middle dimension
    @example(seed=9)  # A 2x3, G 3x3, B 3x2
    @settings(max_examples=60, deadline=None)
    def test_table_matches_hand_written_forms(self, seed):
        rng, sys = _dag_system(seed)
        np.testing.assert_array_equal(effective_matrix("full", sys), sys.M)
        np.testing.assert_array_equal(effective_matrix("source", sys), sys.B)
        np.testing.assert_array_equal(effective_matrix("mid", sys), sys.G @ sys.B)
        n_in = sys.B.shape[1]
        E = rng.normal(size=(n_in, n_in)) + 1j * rng.normal(size=(n_in, n_in))
        for (objective, target), factors in _hand_forms(sys, E).items():
            closed = closed_gradient(sys, MmseMatrix(E, "exact", 0), target, objective)
            scale = np.prod([np.linalg.norm(f) for f in factors])
            np.testing.assert_allclose(
                closed, reduce(np.matmul, factors), rtol=0, atol=1e-13 * scale, err_msg=str((objective, target))
            )

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @example(seed=4)  # A is 2x0, G is 0x2: an empty middle dimension
    @example(seed=9)  # A 2x3, G 3x3, B 3x2
    @settings(max_examples=60, deadline=None)
    def test_gaussian_closed_forms_match_logdet_gradient(self, seed):
        _, sys = _dag_system(seed)
        dist = InputDistribution.gaussian(sys.B.shape[1])
        for objective, target in _hand_forms(sys, None):
            E = mmse_matrix(effective_matrix(objective, sys), dist)
            closed = closed_gradient(sys, E, target, objective)
            analytic = gaussian_logdet_gradient(sys, target, objective)
            scale = max(1.0, np.abs(closed).max(initial=0.0), np.abs(analytic).max(initial=0.0))
            np.testing.assert_allclose(closed, analytic, rtol=0, atol=1e-9 * scale, err_msg=str((objective, target)))

    @pytest.mark.parametrize("seed", [4, 8, 9, 29])
    def test_gaussian_oracle_matches_logdet_gradient(self, seed):
        _, sys = _dag_system(seed)
        dist = InputDistribution.gaussian(sys.B.shape[1])
        for objective, target in _hand_forms(sys, None):
            oracle = grad_oracle(sys, dist, target, EngineSpec(), step=1e-4, objective=objective)
            analytic = gaussian_logdet_gradient(sys, target, objective)
            np.testing.assert_allclose(oracle, analytic, rtol=1e-6, atol=1e-9, err_msg=str((objective, target)))


_DISTS = {"bpsk": InputDistribution.bpsk, "qpsk": InputDistribution.qpsk, "gaussian": InputDistribution.gaussian}


def _compact_case(seed, n_out, n_mid, n_in, kind):
    """Random complex compact factors A (n_out x n_mid), G, B (n_mid x n_in) and an input law."""
    rng = np.random.default_rng(seed)

    def mat(rows, cols):
        return 0.6 * (rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols)))

    sys = SystemMatrices.from_factors(mat(n_out, n_mid), mat(n_mid, n_mid), mat(n_mid, n_in), form="compact")
    return sys, _DISTS[kind](n_in)


_SHARED_SLOPE_CASES = dict(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_out=st.integers(min_value=1, max_value=2),
    n_mid=st.integers(min_value=1, max_value=2),
    n_in=st.integers(min_value=1, max_value=2),
    kind=st.sampled_from(sorted(_DISTS)),
)


class TestSharedSlope:
    """Both oracles take their central differences from one slope: the
    entry-wise oracle is two directional derivatives per entry, and the Monte
    Carlo oracle is today's common-draw difference, bit for bit."""

    STEP = 1e-3

    @given(**_SHARED_SLOPE_CASES)
    @settings(max_examples=25, deadline=None)
    def test_quadrature_oracle_is_two_directional_derivatives(self, seed, n_out, n_mid, n_in, kind):
        sys, dist = _compact_case(seed, n_out, n_mid, n_in, kind)
        other = _DISTS[kind](n_in)  # computes its own passes, not the oracle's kept ones
        spec = EngineSpec(nodes=6)
        for objective, target in _PAIRS:
            oracle = grad_oracle(sys, dist, target, spec, step=self.STEP, objective=objective)
            expected = np.zeros_like(oracle)
            for i, j in np.ndindex(oracle.shape):
                unit = np.zeros(oracle.shape, dtype=complex)
                unit[i, j] = 1.0
                dd = [
                    directional_derivative(sys, other, target, u, spec, step=self.STEP, objective=objective)
                    for u in (unit, 1j * unit)
                ]
                expected[i, j] = (dd[0] + 1j * dd[1]) / 2
            np.testing.assert_array_equal(oracle, expected, err_msg=str((objective, target)))

    @given(**_SHARED_SLOPE_CASES)
    @settings(max_examples=25, deadline=None)
    def test_monte_carlo_oracle_matches_explicit_common_draws(self, seed, n_out, n_mid, n_in, kind):
        sys, dist = _compact_case(seed, n_out, n_mid, n_in, kind)
        spec = EngineSpec(method="mc", samples=2000, seed=seed % 1000)
        for objective, target in _PAIRS:
            X, L, R = _chain(sys, objective, target)
            drawn, noise = flowmodel.draw_inputs_and_noise(dist, L.shape[0], spec.seed, spec.samples)
            inputs = dist.support[drawn] if kind != "gaussian" else drawn  # a discrete law draws support labels
            log_cond = -L.shape[0] * np.log(np.pi) - np.sum(np.abs(noise) ** 2, axis=1)

            def info(Y):
                M = L @ Y @ R
                return log_cond - flowmodel._log_output_density(M, dist, inputs @ M.T + noise)

            expected = np.zeros(X.shape, dtype=complex)
            for i, j in np.ndindex(X.shape):
                for delta in (self.STEP, 1j * self.STEP):
                    plus, minus = np.array(X), np.array(X)
                    plus[i, j] += delta
                    minus[i, j] -= delta
                    slope = float(np.mean(info(plus) - info(minus))) / (2.0 * self.STEP)
                    expected[i, j] += (slope if delta == self.STEP else 1j * slope) / WIRTINGER_SCALE
            for workers in (1, 2):  # serial, and pooled with BLAS held at one thread
                with mock.patch.object(infogradients, "_NOISE_RATIO_LIMIT", np.inf):
                    oracle = grad_oracle(
                        sys, dist, target, replace(spec, workers=workers), step=self.STEP, objective=objective
                    )
                np.testing.assert_array_equal(oracle, expected, err_msg=str((objective, target, workers)))


class TestMonteCarloMemory:
    """A discrete law's kept draw holds support labels and noise, and the mixture kernel forms ``z``
    chunk by chunk, so neither the Monte Carlo information nor its error matrix forms an (N, n_out)
    or (N, n_in) array: on figure1 at 2e5 samples, with the kept draw made first, a whole oracle on G
    and an error matrix each peak below one full ``z`` of N n_out 16 B."""

    SPEC = EngineSpec(method="mc", samples=200_000, seed=1)

    @pytest.mark.parametrize("work", ["oracle", "error-matrix"])
    def test_a_monte_carlo_pass_peaks_below_one_full_output_array(self, work):
        config = parse_config((Path(__file__).resolve().parent.parent / "configs" / "figure1.cfg").read_text())
        sys_c, dist, spec = _compact(config), config.dist, self.SPEC
        n_out = sys_c.M.shape[0]
        flowmodel._draws(dist, n_out, spec.seed, spec.samples)
        run = {
            "oracle": lambda: grad_oracle(sys_c, dist, "G", spec),
            "error-matrix": lambda: mmse_matrix(sys_c.M, dist, spec),
        }[work]
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < spec.samples * n_out * 16, f"{peak / 2**20:.1f} MiB"


def _blas_thread_getter():
    """``scipy_openblas_get_num_threads64_`` of numpy's bundled OpenBLAS, None when not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            getter = lib.scipy_openblas_get_num_threads64_
            getter.argtypes, getter.restype = [], ctypes.c_int
            return getter
    return None


_BLAS_THREADS = _blas_thread_getter()


@pytest.mark.skipif(_BLAS_THREADS is None, reason="numpy's bundled OpenBLAS not found")
class TestBlasThreads:
    """``workers`` is the whole thread budget: pooled calls hold BLAS at one thread, and every call
    leaves the count as it found it, when a task raises and when pools overlap too."""

    SPEC = EngineSpec(method="mc", samples=2000, seed=5, workers=2)

    @pytest.fixture(autouse=True)
    def _no_noise_guard(self):
        # 2000 samples leave a noise floor the guard may refuse; these tests count threads
        with mock.patch.object(infogradients, "_NOISE_RATIO_LIMIT", np.inf):
            yield

    @staticmethod
    def _recording(monkeypatch, fail=False):
        """Patch the oracle's log-density to record the BLAS thread count it runs under."""
        seen, real = [], flowmodel._log_output_density

        def log_density(*args):
            seen.append(_BLAS_THREADS())
            if fail:
                raise DensityUnderflow("log p(z) = -701.0 fell below -700.0")
            return real(*args)

        monkeypatch.setattr(flowmodel, "_log_output_density", log_density)
        return seen

    def test_import_leaves_the_count_and_resolves_nothing(self):
        script = (
            "import ctypes, pathlib, numpy as np\n"
            "libs = pathlib.Path(np.__file__).resolve().parent.parent / 'numpy.libs'\n"
            "get = ctypes.CDLL(str(sorted(libs.glob('*openblas*'))[0])).scipy_openblas_get_num_threads64_\n"
            "before = get()\n"
            "import codedflow\n"
            "print(before, get(), codedflow.flowmodel._ONE_BLAS_THREAD._calls is ...)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60, cwd=src)
        before, after, unresolved = done.stdout.split()
        assert before == after and unresolved == "True", done.stderr

    def test_pooled_oracle_holds_one_thread_and_restores(self, monkeypatch):
        sys_c, dist = _compact_case(1, 2, 2, 2, "qpsk")
        seen = self._recording(monkeypatch)
        before = _BLAS_THREADS()
        grad_oracle(sys_c, dist, "G", self.SPEC)
        assert _BLAS_THREADS() == before
        assert len(seen) == 16 and set(seen) == {1}

    def test_raising_slope_restores(self, monkeypatch):
        sys_c, dist = _compact_case(2, 2, 2, 2, "qpsk")
        seen = self._recording(monkeypatch, fail=True)
        before = _BLAS_THREADS()
        with pytest.raises(DensityUnderflow):
            grad_oracle(sys_c, dist, "G", self.SPEC)
        assert _BLAS_THREADS() == before
        assert seen and set(seen) == {1}

    def test_overlapping_pools_restore(self, monkeypatch):
        # more pool threads than cores and a short switch interval, so the pools interleave
        sys_c, dist = _compact_case(3, 2, 2, 2, "qpsk")
        seen = self._recording(monkeypatch)
        spec = replace(self.SPEC, workers=4)
        before, errors = _BLAS_THREADS(), []

        def oracles():
            try:
                for _ in range(3):
                    grad_oracle(sys_c, dist, "G", spec)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=oracles) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert _BLAS_THREADS() == before
        assert len(seen) == 2 * 3 * 16 and set(seen) == {1}
