"""Conditional-mean estimation against independent oracles.

The scalar two-point-input error values are frozen from a separate
adaptive-quadrature computation (scipy.integrate.quad on the 1-D reduction
of the posterior-variance integral); the library's tensorized rule must
reproduce them.
"""

import logging
import re
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from codedflow import (
    CostGuardError,
    EngineSpec,
    InputDistribution,
    MmseMatrix,
    SingularSystemMatrix,
    SystemMatrices,
    build_coefficient_matrices,
    conditional_mean,
    conditional_mean_batch,
    diamond_compact_system,
    estimation_diagnostics,
    invert_flow_estimate,
    mmse_matrix,
    mutual_information,
    sample,
    score_identity_residual,
    seeded_diamond_symbols,
)
from codedflow import estimator, flowmodel, quadrature
from codedflow.cli import _INPUT_KINDS, parse_config
from codedflow.errors import InvariantViolation
from codedflow.estimator import _EXACT_FLOOR, quadrature_moments

# mmse(snr) for equiprobable {+1,-1} through z = sqrt(snr) x + CN(0,1),
# frozen from the independent 1-D adaptive quadrature
FROZEN_SCALAR_MMSE = {
    0.25: 0.649886595324869,
    1.0: 0.231018221929296,
    4.0: 0.007176257218157,
}

QUAD64 = EngineSpec(method="quadrature", nodes=64)


def _brute_force_posterior_mean(M, dist, z):
    weights = np.array(
        [p * np.exp(-np.sum(np.abs(z - M @ x) ** 2)) for p, x in zip(dist.probs, dist.support)]
    )
    weights /= weights.sum()
    return weights @ dist.support


class TestConditionalMean:
    def test_deterministic_input_is_constant(self, rng):
        x0 = np.array([1.0 - 2.0j, 0.5j])
        dist = InputDistribution.point(x0)
        M = rng.normal(size=(2, 2)) + 0j
        for _ in range(5):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            np.testing.assert_allclose(conditional_mean(M, dist, z), x0, atol=1e-14)

    def test_gaussian_linear_form(self, rng):
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        dist = InputDistribution.gaussian(2)
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        expected = M.conj().T @ np.linalg.solve(np.eye(2) + M @ M.conj().T, z)
        np.testing.assert_allclose(conditional_mean(M, dist, z), expected, atol=1e-12)

    def test_two_point_scalar_gives_tanh(self, rng):
        m = 0.85
        dist = InputDistribution.bpsk(1)
        M = np.array([[m + 0j]])
        for z_re in (-1.5, -0.2, 0.0, 0.4, 2.0):
            z = np.array([z_re + 0j])
            xhat = conditional_mean(M, dist, z)
            assert xhat[0] == pytest.approx(np.tanh(2 * m * z_re), abs=1e-12)
            np.testing.assert_allclose(
                xhat, _brute_force_posterior_mean(M, dist, z), atol=1e-12
            )

    def test_batch_matches_single(self, rng):
        M = rng.normal(size=(2, 2)) + 0j
        dist = InputDistribution.qpsk(2)
        points = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
        batch = conditional_mean_batch(M, dist, points)
        for i, z in enumerate(points):
            np.testing.assert_allclose(batch[i], conditional_mean(M, dist, z), atol=1e-13)


class TestMmseMatrix:
    def test_deterministic_input_zero_error(self, rng):
        dist = InputDistribution.point(np.array([1.0 + 1j]))
        M = np.array([[0.7 + 0j]])
        E = mmse_matrix(M, dist, QUAD64)
        np.testing.assert_allclose(E.matrix, 0.0, atol=1e-12)

    def test_a_system_is_read_as_its_product(self):
        sys = diamond_compact_system(seeded_diamond_symbols(3))
        dist, spec = InputDistribution.qpsk(2), EngineSpec(nodes=8)
        np.testing.assert_array_equal(mmse_matrix(sys, dist, spec).matrix, mmse_matrix(sys.M, dist, spec).matrix)
        assert mutual_information(sys, dist, spec) == mutual_information(sys.M, dist, spec)

    def test_gaussian_closed_form(self, rng):
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        dist = InputDistribution.gaussian(2)
        E = mmse_matrix(M, dist, EngineSpec(method="quadrature"))
        expected = np.linalg.inv(np.eye(2) + M.conj().T @ M)
        np.testing.assert_allclose(E.matrix, expected, atol=1e-12)
        assert E.method == "exact"

    @pytest.mark.parametrize("snr", sorted(FROZEN_SCALAR_MMSE))
    def test_scalar_two_point_error_matches_frozen_oracle(self, snr):
        dist = InputDistribution.bpsk(1)
        M = np.array([[np.sqrt(snr) + 0j]])
        E = mmse_matrix(M, dist, EngineSpec(method="quadrature", nodes=192))
        assert E.matrix[0, 0].real == pytest.approx(FROZEN_SCALAR_MMSE[snr], rel=1e-5)

    def test_frozen_oracle_reproducible_here(self):
        # regenerate one frozen value with the independent 1-D quadrature
        snr = 1.0
        m = np.sqrt(snr)

        def integrand(u):
            xhat = np.tanh(2 * m * u)
            total = 0.0
            for x in (1.0, -1.0):
                w = np.exp(-((u - m * x) ** 2)) / np.sqrt(np.pi)
                total += 0.5 * w * (x - xhat) ** 2
            return total

        value, _ = quad(integrand, -30, 30, limit=400)
        assert value == pytest.approx(FROZEN_SCALAR_MMSE[snr], abs=1e-12)

    def test_monte_carlo_matches_gaussian_closed_form(self, rng):
        M = np.array([[0.9, 0.3], [0.1, 0.7]]) + 0j
        dist = InputDistribution.gaussian(2)
        spec = EngineSpec(method="mc", samples=40000, seed=5)
        E = mmse_matrix(M, dist, spec)
        expected = np.linalg.inv(np.eye(2) + M.conj().T @ M)
        gap = np.abs(E.matrix - expected)
        assert np.all(gap <= 5.0 * E.standard_error + 1e-12)
        assert E.method == "monte-carlo"

    def test_mc_converges_to_quadrature(self):
        """Scalar two-point input: the sampling estimate approaches the
        quadrature value at the 1/sqrt(N) rate quantified by its own errors."""
        dist = InputDistribution.bpsk(1)
        M = np.array([[1.0 + 0j]])
        e_quad = mmse_matrix(M, dist, QUAD64).matrix[0, 0].real
        ses = []
        for n in (10**3, 10**4, 10**5):
            est = mmse_matrix(M, dist, EngineSpec(method="mc", samples=n, seed=31))
            gap = abs(est.matrix[0, 0].real - e_quad)
            se = float(est.standard_error[0, 0])
            assert gap <= 5.0 * se
            ses.append(se)
        assert ses[2] < ses[1] < ses[0]

    def test_hermitian_validation(self):
        bad = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError):
            MmseMatrix.checked(bad, "quadrature", 0, np.eye(2))

    def test_dominance_validation(self):
        # an "error" larger than the prior covariance must be rejected
        with pytest.raises(ValueError):
            MmseMatrix.checked(2.0 * np.eye(2), "quadrature", 0, np.eye(2))

    def test_non_finite_matrix_is_refused(self):
        with pytest.raises(InvariantViolation, match="non-finite"):
            MmseMatrix.checked(np.array([[np.nan + 0j]]), "quadrature", 372, np.eye(1))

    @pytest.mark.parametrize("nodes", [371, 372])
    def test_overflowing_hermite_rule_is_refused(self, nodes):
        # numpy's weights are all zero at 371 nodes and NaN from 372, which read as MI 0 and nan;
        # QPSK through a real channel splits, so the real rule is the one that refuses
        M, dist, spec = np.array([[2.0 + 0j]]), InputDistribution.qpsk(1), EngineSpec(nodes=nodes)
        with _rules() as (real, _), pytest.raises(CostGuardError, match=f"the {nodes}-node Hermite rule"):
            mmse_matrix(M, dist, spec)
        assert real.call_args == mock.call(1, nodes)
        with pytest.raises(CostGuardError, match=f"the {nodes}-node Hermite rule"):
            mutual_information(M, dist, spec)
        for rule in (quadrature.real_gauss_hermite, quadrature.complex_gauss_hermite):
            with pytest.raises(CostGuardError, match=f"the {nodes}-node Hermite rule"):
                rule(1, nodes)
        assert mutual_information(M, dist, EngineSpec(nodes=370)).nats > 1.0

    def test_quadrature_cost_guard(self):
        dist = InputDistribution.bpsk(4)
        with pytest.raises(CostGuardError):
            mmse_matrix(np.eye(4, dtype=complex), dist, EngineSpec(method="quadrature"))

    def test_mc_cost_guard(self):
        dist = InputDistribution.bpsk(1)
        with pytest.raises(CostGuardError):
            mmse_matrix(np.eye(1, dtype=complex), dist, EngineSpec(method="mc", samples=10))

    def test_rule_point_guard_fires_before_allocation(self, monkeypatch):
        # 64 nodes over 3 complex dimensions is (64*64)**3, about 6.9e10 points
        assert (64 * 64) ** 3 > quadrature.MAX_RULE_POINTS >= 12**6

        def no_rule(nodes):
            raise AssertionError("the rule was built past the point budget")

        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", no_rule)
        with pytest.raises(CostGuardError, match="68719476736 points"):
            quadrature.complex_gauss_hermite(3, 64)
        with pytest.raises(CostGuardError, match="68719476736 points"):  # counts the full grid
            quadrature.phase_orbit_rule(3, 64, 4)
        with pytest.raises(CostGuardError, match="68719476736 points"):  # refuses what the full rule refuses
            quadrature.real_gauss_hermite(3, 64)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("nodes", 0), ("nodes", -3), ("samples", 0), ("workers", 0), ("workers", -1),
            ("samples", 2000.5), ("nodes", 16.5), ("seed", 1.5), ("workers", 1.5), ("nodes", True),
        ],
    )
    def test_engine_rejects_invalid_settings(self, field, value):
        with pytest.raises(ValueError, match=field):
            EngineSpec(**{field: value})

    def test_engine_accepts_numpy_integers(self):
        spec = EngineSpec(nodes=np.int64(16), samples=np.int32(2000), seed=np.uint8(3), workers=np.int64(1))
        assert mutual_information(np.eye(1, dtype=complex), InputDistribution.bpsk(1), spec).count == 16

    @pytest.mark.parametrize("nodes", [0, -1])
    def test_rules_refuse_fewer_than_one_node(self, nodes):
        # both branches: a law with phase symmetry (orbit rule) and one without (full rule)
        for dist in (InputDistribution.qpsk(1), InputDistribution.discrete(np.array([[1.0], [0.5j]]))):
            with pytest.raises(ValueError, match=f"nodes must be an integer of at least 1, got {nodes}"):
                quadrature_moments(np.eye(1, dtype=complex), dist, nodes)
        for rule in (quadrature.complex_gauss_hermite, quadrature.real_gauss_hermite):
            with pytest.raises(ValueError, match=f"nodes must be an integer of at least 1, got {nodes}"):
                rule(1, nodes)


def _brute_force_moments(M, dist, nodes):
    """MI and error matrix from the mixture kernels at the explicit points
    ``mean_k + noise_q``, one support point at a time, on the full complex rule.  The residual
    ``x - xhat`` is the posterior-weighted sum of ``x - s_j``, never a subtraction of ``xhat``, so
    a tiny error matrix is not cancellation noise."""
    noise, weights = quadrature.complex_gauss_hermite(M.shape[0], nodes)
    means = dist.support @ M.T
    log_cond = -M.shape[0] * np.log(np.pi) - np.sum(np.abs(noise) ** 2, axis=1)
    mi = 0.0
    err = np.zeros((dist.dimension, dist.dimension), dtype=complex)
    for p, x, mean in zip(dist.probs, dist.support, means):
        points = mean + noise
        log_pz = flowmodel.mixture_log_density(means, dist.log_probs, points)
        mi += p * float(weights @ (log_cond - log_pz))
        resid = np.empty((len(points), dist.dimension), dtype=complex)
        for span, w, total, _ in flowmodel._mixture_chunks(means, dist.log_probs, points):
            resid[span] = (w.T @ (x - dist.support)) / total[:, None]
        err += p * (weights[:, None] * resid).T @ resid.conj()
    return mi, err


def _underflow_gap(M, dist, nodes):
    """max_j(2T[q,j] + C[j,k]) - a_q - b_k over all (q, k): how far the
    separable product's largest term sits below 1, in log units, at the
    points of the orbit rule the kernel sums over."""
    noise, _ = estimator._kernel_rule(M, dist, nodes)
    means = dist.support @ M.T
    C = (dist.log_probs - np.sum(np.abs(means) ** 2, axis=1))[:, None] + 2.0 * np.real(
        means.conj() @ means.T
    )
    T2 = 2.0 * np.real(noise @ means.conj().T)
    joint = np.max(T2[:, :, None] + C[None, :, :], axis=1)
    return joint - T2.max(axis=1)[:, None] - C.max(axis=0)[None, :]


def _assert_matches_brute_force(M, dist, nodes, rel=1e-12):
    mi, err, _ = quadrature_moments(M, dist, nodes)
    mi_ref, err_ref = _brute_force_moments(M, dist, nodes)
    # the information is a difference of O(1) sums, so a near-zero one is floored at their rounding
    assert abs(mi - mi_ref) <= max(rel * abs(mi_ref), 1e-15)
    assert np.max(np.abs(err - err_ref)) <= rel * max(1.0, np.max(np.abs(err_ref)))
    # a computed pass for one output gives the combined pass's value bit for bit (the law serves repeats)
    combined = estimator._quadrature_pass(M, dist, nodes, True)
    assert estimator._quadrature_pass(M, dist, nodes, False) == (combined[0], None)
    mi_skipped, err_only, _ = quadrature_moments(M, dist, nodes, want_mi=False)
    assert mi_skipped is None
    assert np.array_equal(err_only, err)


UNDERFLOW_CASES = [
    (np.array([[40.0 + 0j]]), InputDistribution.bpsk(1), 64),
    (np.array([[12.0 + 16.0j], [-16.0 + 12.0j]]), InputDistribution.qpsk(1), 16),
    (np.array([[24.0 + 32.0j], [-32.0 + 24.0j]]), InputDistribution.qpsk(1), 16),
]
UNDERFLOW_IDS = ["bpsk-gain40", "qpsk-2x1-gain20", "qpsk-2x1-gain40"]
# a weak second input leaves O(1) error at the underflowed entries, so E is right only if they are redone
WEAK_UNDERFLOW_CASE = (np.array([[24.0 + 32.0j, 0.3], [-32.0 + 24.0j, 0.4j]]), InputDistribution.qpsk(2), 12)


def _figure1():
    """figure1's channel, as a writable copy, and its law."""
    config = parse_config((Path(__file__).resolve().parent.parent / "configs" / "figure1.cfg").read_text())
    return build_coefficient_matrices(config.topology, config.coefficients, config.n_in, config.n_out).M.copy(), config.dist


def _pass_peak(M, dist, want_mmse):
    """The tracemalloc peak of one computed pass, its rule cached by an earlier pass outside the trace."""
    estimator._quadrature_pass(M, dist, 16, want_mmse)
    tracemalloc.start()
    try:
        estimator._quadrature_pass(M, dist, 16, want_mmse)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@contextmanager
def _shift(mode):
    """Forces ``_kernel_pass``'s shift: ``"first"``, the first support point's own exponent, or
    ``"max"``, each rule point's largest."""
    with mock.patch.object(estimator, "_FIRST_SHIFT_LIMIT", np.inf if mode == "first" else -np.inf):
        yield


@contextmanager
def _rules():
    """Spies on the two rules a pass may sum over: ``(real_gauss_hermite, phase_orbit_rule)``."""
    with (
        mock.patch.object(estimator, "real_gauss_hermite", wraps=quadrature.real_gauss_hermite) as real,
        mock.patch.object(estimator, "phase_orbit_rule", wraps=quadrature.phase_orbit_rule) as orbit,
    ):
        yield real, orbit


def _full_rule_pass(M, dist, nodes):
    """The kernel's pass of the law itself on the full complex rule: not split, no orbits, no real rule."""
    full = lambda dim, nodes, *_: quadrature.complex_gauss_hermite(dim, nodes)  # noqa: E731
    with mock.patch.object(estimator, "real_gauss_hermite", full), mock.patch.object(estimator, "phase_orbit_rule", full):
        return estimator._kernel_pass(M, dist, nodes, True)


# 8-PSK on exact points: x -> i x and x -> conj(x) map it onto itself, but it is no product of its halves
PSK8 = InputDistribution.discrete(
    np.concatenate([[1, 1j, -1, -1j], np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) * np.sqrt(0.5)])[:, None]
)
PSK8_PAIR = InputDistribution.discrete(flowmodel._product_constellation(PSK8.support.ravel(), 2))


class TestQuadratureKernel:
    @given(
        n_out=st.integers(min_value=1, max_value=2),
        kind=st.sampled_from(["bpsk", "qpsk"]),
        n_in=st.integers(min_value=1, max_value=2),
        gain=st.floats(min_value=0.1, max_value=4.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    @example(n_out=1, kind="bpsk", n_in=1, gain=0.25, seed=40599)  # MI 1.5e-5 nats, gap 2.6e-17
    def test_matches_brute_force_on_random_channels(self, n_out, kind, n_in, gain, seed):
        rng = np.random.default_rng(seed)
        M = gain * (rng.normal(size=(n_out, n_in)) + 1j * rng.normal(size=(n_out, n_in)))
        dist = getattr(InputDistribution, kind)(n_in)
        _assert_matches_brute_force(M, dist, 12 if n_out == 1 else 6)

    @pytest.mark.parametrize(
        "M, dist, nodes", UNDERFLOW_CASES + [WEAK_UNDERFLOW_CASE], ids=UNDERFLOW_IDS + ["qpsk-2x2-gain40-and-weak"]
    )
    def test_matches_brute_force_where_the_product_underflows(self, M, dist, nodes):
        # entries this far below 1 underflow in the separable product, so
        # they are right only if the exact recomputation ran; at gain 40 they
        # carry enough quadrature weight to move MI and E past the tolerance
        assert np.any(_underflow_gap(M, dist, nodes) < -708.0)
        _assert_matches_brute_force(M, dist, nodes)
        # the repair sums weighted differences s_j - s_k too: where every off-diagonal weight
        # underflows (QPSK 2x1) both read exactly 0, and elsewhere they agree relatively
        _, err, _ = quadrature_moments(M, dist, nodes)
        _, err_ref = _brute_force_moments(M, dist, nodes)
        assert np.max(np.abs(err - err_ref)) <= 1e-12 * np.max(np.abs(err_ref))

    @pytest.mark.parametrize("gain, size", [(4.0, 2.65e-8), (6.0, 2.44e-17), (8.0, 3.64e-29), (12.0, 4.44e-110)])
    def test_a_tiny_error_matrix_matches_brute_force_relatively(self, gain, size):
        # the residual x - xhat is formed as a sum of differences, never as a cancelling subtraction
        M, dist = np.array([[gain + 0j]]), InputDistribution.bpsk(1)
        _, err, _ = quadrature_moments(M, dist, 64)
        _, err_ref = _brute_force_moments(M, dist, 64)
        assert err_ref[0, 0].real == pytest.approx(size, rel=1e-2)
        assert np.max(np.abs(err - err_ref)) <= 1e-12 * np.max(np.abs(err_ref))

    def test_a_figure1_error_matrix_pass_peaks_below_1_mib(self):
        # peak_rss_mb is an end-to-end metric: a pass may not buy speed with chunk memory
        M, dist = _figure1()
        assert _pass_peak(M, dist, True) <= 1 << 20

    @pytest.mark.parametrize("want_mmse", [True, False], ids=["with-E", "information-only"])
    def test_a_figure1_complex_pass_peaks_below_1_mib(self, want_mmse):
        # the plus side of an imaginary-direction slope: the whole law on the 16,384-point orbit rule
        M, dist = _figure1()
        M[0, 0] += 1e-3j
        with _rules() as (real, orbit):
            assert _pass_peak(M, dist, want_mmse) <= 1 << 20
        assert orbit.called and not real.called

    def test_exact_recomputation_is_logged_once_with_its_count(self, caplog):
        M, _, nodes = UNDERFLOW_CASES[0]
        dist = InputDistribution.bpsk(1)  # a fresh law: UNDERFLOW_CASES' laws keep earlier tests' passes
        with caplog.at_level(logging.DEBUG, logger="codedflow"):
            quadrature_moments(M, dist, nodes)
        (record,) = caplog.records
        assert record.name == "codedflow.estimator" and record.levelno == logging.DEBUG
        # a shifted sum lies between its largest term and K times it
        gap = _underflow_gap(M, dist, nodes)
        surely = np.count_nonzero(gap + np.log(len(dist.probs)) <= np.log(_EXACT_FLOOR))
        at_most = np.count_nonzero(gap <= np.log(_EXACT_FLOOR))
        assert 0 < surely <= record.args[0] <= at_most

    def test_nothing_is_logged_without_underflow(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="codedflow"):
            quadrature_moments(np.array([[0.8 + 0.3j, -0.4j]]), InputDistribution.qpsk(2), 12)
        assert caplog.records == []

    def test_every_chunk_s_errors_share_one_buffer(self):
        # a yielded array is valid only until the next chunk, so an accumulator may not keep one
        M, dist = _figure1()
        M[0, 0] += 1e-3j  # the whole law on the 16,384-point orbit rule, in many chunks
        chunks = estimator._kernel_chunks(M, dist, 16, True)
        (*_, first), (*_, second) = next(chunks), next(chunks)
        assert np.shares_memory(first, second)
        assert all(errors is None for *_, errors in estimator._kernel_chunks(M, dist, 16, False))


def _below_the_limit(M, dist, nodes):
    """M scaled so that the first shift's bound, ``2 max_j |mean_j - mean_0|`` times the rule's radius
    bound ``sqrt(2 n_out (2 nodes + 1))``, less the smallest log p, lies 1e-9 below ``_FIRST_SHIFT_LIMIT``."""
    means = dist.support @ M.T
    bound = 2.0 * np.max(np.linalg.norm(means - means[0], axis=1)) * np.sqrt(2 * M.shape[0] * (2 * nodes + 1))
    return M * (estimator._FIRST_SHIFT_LIMIT * (1.0 - 1e-9) + dist.log_probs.min()) / bound


@contextmanager
def _pointwise():
    """Spies on the pointwise mixture kernel, which only the underflow repair calls from a pass."""
    with mock.patch.object(flowmodel, "_mixture_chunks", wraps=flowmodel._mixture_chunks) as spy:
        yield spy


class TestShiftModes:
    """A pass shifts its exponents by the first support point's own exponent while a bound keeps them
    within ``_FIRST_SHIFT_LIMIT``, else by each rule point's largest: the two agree up to rounding."""

    @pytest.mark.parametrize("case", ["figure1-qpsk-orbit", "8psk-pair-orbit", "bpsk-64-real"])
    def test_a_first_shift_total_never_needs_the_repair(self, case):
        # every total is at least p_k exp(-bound), so no log total falls below -limit and no first-shift
        # pass scans for underflow or enters the pointwise kernel
        M, dist, nodes = {
            "figure1-qpsk-orbit": (*_figure1(), 16),
            "8psk-pair-orbit": (_random_channel(2, 2, 1.0, 3), PSK8_PAIR, 8),
            "bpsk-64-real": (np.array([[1.0 + 0j]]), InputDistribution.bpsk(1), 64),
        }[case]
        M = _below_the_limit(M, dist, nodes)
        with _rules() as (real, orbit), _pointwise() as pointwise:
            lowest = min(log_total.min() for _, _, log_total, _ in estimator._kernel_chunks(M, dist, nodes, True))
            mi, err = estimator._kernel_pass(M, dist, nodes, True)
        assert (real.called, orbit.called) == ((False, True) if "orbit" in case else (True, False))
        assert lowest >= -estimator._FIRST_SHIFT_LIMIT
        assert not pointwise.called
        with _shift("first"):  # the bound chose the first point's shift
            mi_first, err_first = estimator._kernel_pass(M, dist, nodes, True)
        assert mi == mi_first and err.tobytes() == err_first.tobytes()

    @pytest.mark.parametrize("M, dist, nodes", UNDERFLOW_CASES, ids=UNDERFLOW_IDS)
    def test_a_max_shift_pass_still_repairs_its_underflowed_sums(self, M, dist, nodes):
        with _pointwise() as pointwise:
            mi, err = estimator._kernel_pass(M, dist, nodes, True)
        assert pointwise.called
        with _shift("max"):  # the bound chose each rule point's largest exponent
            mi_max, err_max = estimator._kernel_pass(M, dist, nodes, True)
        assert mi == mi_max and err.tobytes() == err_max.tobytes()

    @given(
        n_out=st.integers(min_value=1, max_value=2),
        law=st.sampled_from(["bpsk", "qpsk", "8psk-pair"]),
        n_in=st.integers(min_value=1, max_value=2),
        real=st.booleans(),
        gain=st.floats(min_value=0.1, max_value=6.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_the_two_shifts_agree(self, n_out, law, n_in, real, gain, seed):
        dist = PSK8_PAIR if law == "8psk-pair" else getattr(InputDistribution, law)(n_in)
        M = _random_channel(n_out, dist.dimension, gain, seed)
        M = M.real + 0j if real else M
        nodes = 12 if n_out == 1 else 6
        passes = []
        for mode in ("first", "max"):
            with _shift(mode):
                mi, err = estimator._quadrature_pass(M, dist, nodes, True)
                assert estimator._quadrature_pass(M, dist, nodes, False) == (mi, None)  # the same bits
            passes.append((mi, err))
        (mi_first, err_first), (mi_max, err_max) = passes
        assert abs(mi_first - mi_max) <= max(1e-13 * abs(mi_max), 1e-15)
        assert np.max(np.abs(err_first - err_max)) <= 1e-12 * np.max(np.abs(err_max))

    @pytest.mark.parametrize("side, mode", [(-1, "first"), (1, "max")], ids=["just-below", "just-above"])
    def test_a_channel_at_the_limit_matches_brute_force(self, side, mode):
        # QPSK's farthest mean lies 2 |M| from the first, so the bound less log p_min is
        # 4 |M| sqrt(2 (2 nodes + 1)) + log 4; no RuntimeWarning may fire on either side
        nodes, dist = 64, InputDistribution.qpsk(1)
        edge = (estimator._FIRST_SHIFT_LIMIT - np.log(4.0)) / (4.0 * np.sqrt(2.0 * (2 * nodes + 1)))
        M = np.array([[edge * (1.0 + side * 1e-9) * np.exp(0.3j)]])
        mi, err = estimator._quadrature_pass(M, dist, nodes, True)
        with _shift(mode):  # the side of the limit chose this shift
            mi_mode, err_mode = estimator._quadrature_pass(M, dist, nodes, True)
        assert mi == mi_mode and err.tobytes() == err_mode.tobytes()
        _assert_matches_brute_force(M, dist, nodes)
        # every total of a first-point shift is at least exp(-limit): only a max shift redoes sums
        assert np.exp(-estimator._FIRST_SHIFT_LIMIT) > _EXACT_FLOOR


class TestPhaseOrbitRule:
    @given(
        n_out=st.integers(min_value=1, max_value=2),
        kind=st.sampled_from(["bpsk", "qpsk"]),
        n_in=st.integers(min_value=1, max_value=2),
        odd=st.booleans(),
        gain=st.floats(min_value=0.5, max_value=2.5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    @example(n_out=1, kind="qpsk", n_in=1, odd=False, gain=1.0, seed=12454)  # MI 6.5e-4 nats, off by 3.2e-16
    def test_matches_full_rule_brute_force(self, n_out, kind, n_in, odd, gain, seed):
        # the brute force sums log-densities over the full rule; its own rounding reaches 1e-13
        # of MI near gains 0.15 and 4 (kernel and reference alike, with or without the orbit
        # rule), which the 1e-12 test above covers, and 1e-15 nats of a near-zero MI
        rng = np.random.default_rng(seed)
        M = gain * (rng.normal(size=(n_out, n_in)) + 1j * rng.normal(size=(n_out, n_in)))
        dist = getattr(InputDistribution, kind)(n_in)
        assert dist.phase_order == {"bpsk": 2, "qpsk": 4}[kind]
        _assert_matches_brute_force(M, dist, (12 if n_out == 1 else 6) + odd, rel=1e-13)

    @given(
        n_out=st.integers(min_value=1, max_value=2),
        kind=st.sampled_from(["bpsk", "qpsk", "point"]),
        n_in=st.integers(min_value=1, max_value=2),
        odd=st.booleans(),
        gain=st.floats(min_value=0.1, max_value=4.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_real_channels_match_the_kernel_on_the_full_rule(self, n_out, kind, n_in, odd, gain, seed):
        M = gain * np.random.default_rng(seed).normal(size=(n_out, n_in)) + 0j
        dist = _INPUT_KINDS[kind](n_in)
        nodes = (12 if n_out == 1 else 6) + odd
        with _rules() as (real, orbit):
            mi, err, _ = quadrature_moments(M, dist, nodes)
        # BPSK and the point have real support and QPSK splits into two equal real halves: every
        # discrete input kind of the CLI runs on the real rule through a real channel
        assert real.call_args_list == [mock.call(n_out, nodes)] and not orbit.called
        mi_full, err_full = _full_rule_pass(M, dist, nodes)
        # both rules round their O(1) per-entry terms alike: at most 1.6e-15 nats over 600 draws,
        # which is 6e-13 of an MI of 2.5e-5 nats, and E of 1e-33 is rounding noise in both
        assert abs(mi - mi_full) <= 1e-14 * max(1.0, abs(mi_full))
        assert np.max(np.abs(err - err_full)) <= 1e-14 * max(1.0, np.max(np.abs(err_full)))
        assert not err.imag.any()
        # the brute force sums the full rule and keeps its imaginary part: that part is rounding
        _, err_ref = _brute_force_moments(M, dist, nodes)
        scale = 1e-12 * max(1.0, np.max(np.abs(err_ref)))
        assert np.max(np.abs(err_ref.imag)) <= scale
        assert np.max(np.abs(err - err_ref.real)) <= scale

    @pytest.mark.parametrize(
        "M, dist",
        [
            (np.array([[0.9], [-0.7]]) + 0j, PSK8),
            # two streams: the rotation rule's sums leave E's off-diagonal imaginary part at ~1e-17
            (np.array([[0.9, 0.3], [-0.7, 1.1]]) + 0j, PSK8_PAIR),
        ],
        ids=["8psk", "8psk-2-streams"],
    )
    def test_a_conjugation_closed_law_that_does_not_split_runs_on_the_rotation_rule(self, M, dist):
        # through a real channel, x -> conj(x) makes E real, which the rule need not know
        with _rules() as (real, orbit):
            _, err, _ = quadrature_moments(M, dist, 6)
        assert orbit.call_args.args == (2, 6, 4) and not real.called
        assert not err.imag.any()
        _assert_matches_brute_force(M, dist, 6, rel=1e-13)

    @pytest.mark.parametrize(
        "M, dist",
        [
            (np.array([[0.9 + 0.4j, -0.7]]), InputDistribution.qpsk(2)),  # a complex channel
            (np.array([[1.3, 0.7]]) + 0j, InputDistribution.discrete(InputDistribution.qpsk(2).support * (1 + 0.3j))),
        ],
        ids=["complex-channel", "law-not-conjugation-closed"],
    )
    def test_without_the_symmetry_the_error_matrix_keeps_its_imaginary_part(self, M, dist):
        assert dist.phase_order == 4
        with _rules() as (real, orbit):
            _, err, _ = quadrature_moments(M, dist, 8)
        assert orbit.call_args.args == (M.shape[0], 8, 4) and not real.called
        assert err.imag.any()

    # (dim, nodes, order, count): every order at dims 1-3 and odd and even node counts
    ORBIT_CASES = [
        (2, 16, 4, 16384), (1, 15, 4, 57), (1, 15, 2, 113), (2, 15, 4, 12657),
        (2, 16, 2, 32768), (3, 5, 4, 3907), (1, 1, 2, 1),
        (1, 16, 4, 64), (1, 16, 2, 128), (1, 15, 1, 225), (2, 6, 4, 324),
        (2, 5, 2, 313), (2, 6, 1, 1296), (3, 4, 4, 1024), (3, 4, 2, 2048),
        (3, 5, 2, 7813),
        (1, 16, 1, 256), (1, 3, 4, 3), (1, 1, 4, 1), (2, 6, 2, 648), (2, 5, 1, 625),
        (3, 5, 1, 15625), (3, 4, 1, 4096),
    ]

    @pytest.mark.parametrize("dim, nodes, order, count", ORBIT_CASES, ids=["-".join(map(str, c)) for c in ORBIT_CASES])
    def test_orbits_tile_the_full_rule(self, dim, nodes, order, count):
        points, weights = quadrature.phase_orbit_rule(dim, nodes, order)
        assert len(points) == len(weights) == count
        # each representative's distinct rotations, each at 1/|orbit| of its weight, are the full rule
        omega = 1j if order == 4 else -1
        images = np.stack([points * omega**k for k in range(order)])
        rep = np.broadcast_to(np.arange(count), images.shape[:2])
        rows = np.unique(np.column_stack([rep.ravel(), images.reshape(-1, dim).view(float)]), axis=0)
        rep, image = rows[:, 0].astype(int), rows[:, 1:].copy().view(complex)
        orbit = np.bincount(rep, minlength=count)
        assert np.all(len(images) % orbit == 0)

        def table(pts, wts):
            rows = np.column_stack([pts.real, pts.imag, wts])
            return rows[np.lexsort(rows.T[::-1])]

        full = quadrature.complex_gauss_hermite(dim, nodes)
        assert np.array_equal(table(image, weights[rep] / orbit[rep]), table(*full))

    @pytest.mark.parametrize("dim, nodes, order, count", ORBIT_CASES, ids=["-".join(map(str, c)) for c in ORBIT_CASES])
    def test_representatives_lie_in_one_sector(self, dim, nodes, order, count):
        # the origin (odd node counts) and otherwise distinct points whose first nonzero
        # coordinate has its argument in [0, 2 pi / order), measured by angle, not by sign tests
        points, _ = quadrature.phase_orbit_rule(dim, nodes, order)
        assert len(np.unique(points.view(float), axis=0)) == count
        origin = ~points.any(axis=1)
        assert np.count_nonzero(origin) == nodes % 2
        rest = points[~origin]
        lead = rest[np.arange(len(rest)), np.argmax(rest != 0, axis=1)]
        arg = np.mod(np.angle(lead), 2 * np.pi)
        assert np.all((arg >= 0) & (arg < 2 * np.pi / order))

    @pytest.mark.parametrize("dim, nodes, order", [(1, 3, 2), (1, 3, 4), (2, 3, 4), (2, 5, 2), (3, 3, 4)])
    def test_only_the_origin_has_a_smaller_orbit(self, dim, nodes, order):
        # a rotation by i or -1 fixes the origin alone: every other point, on an axis, a diagonal or
        # with leading zero coordinates, keeps order times its weight
        full = {p.tobytes(): w for p, w in zip(*quadrature.complex_gauss_hermite(dim, nodes))}
        points, weights = quadrature.phase_orbit_rule(dim, nodes, order)
        sizes = weights / np.array([full[p.tobytes()] for p in points])
        origin = ~points.any(axis=1)
        assert np.count_nonzero(origin) == 1 and sizes[origin] == 1
        assert np.all(sizes[~origin] == order)

    def test_order_one_is_the_full_rule(self):
        assert quadrature.phase_orbit_rule(2, 6, 1) is quadrature.complex_gauss_hermite(2, 6)
        with pytest.raises(ValueError, match="phase order"):
            quadrature.phase_orbit_rule(2, 6, 3)


def _product_law(re, im, p_re=None, p_im=None):
    """The product law of ``re + 1j im`` on one stream, probabilities ``p_re[i] * p_im[j]``."""
    p_re = np.full(len(re), 1 / len(re)) if p_re is None else np.asarray(p_re)
    p_im = np.full(len(im), 1 / len(im)) if p_im is None else np.asarray(p_im)
    support = np.add.outer(np.asarray(re, dtype=float), 1j * np.asarray(im, dtype=float)).reshape(-1, 1)
    return InputDistribution.discrete(support, np.multiply.outer(p_re, p_im).ravel())


LEVELS4 = np.array([-3.0, -1.0, 1.0, 3.0])
SPLIT_LAWS = {  # name: (law, number of real halves a pass computes)
    "qpsk-1": (InputDistribution.qpsk(1), 1),
    "qpsk-2": (InputDistribution.qpsk(2), 1),
    "bpsk-1": (InputDistribution.bpsk(1), 1),  # real support: no split, the law itself on the real rule
    "bpsk-2": (InputDistribution.bpsk(2), 1),
    "qam16": (_product_law(LEVELS4 / np.sqrt(10), LEVELS4 / np.sqrt(10)), 1),
    "non-uniform": (_product_law([-1.0, 1.0], [-1.0, 1.0], [0.25, 0.75], [0.25, 0.75]), 1),
    "rectangular": (_product_law(LEVELS4, [-1.0, 1.0]), 2),
}
# QPSK whose probabilities are each within an ulp of 1/4, so not bitwise the product of its halves' 1/2
ULP_LAW = InputDistribution.discrete(
    InputDistribution.qpsk(1).support, [np.nextafter(0.25, 1), 0.25, 0.25, np.nextafter(0.25, 0)]
)


class TestRealSplit:
    """Through a real channel, a law that is exactly the product of the laws of ``Re x`` and ``Im x``
    splits into two real problems with N(0, 1/2) noise per axis, whose information and error
    matrices add; each half, and any law on real support, is summed on the real rule."""

    @given(
        n_out=st.integers(min_value=1, max_value=3),
        law=st.sampled_from(sorted(SPLIT_LAWS)),
        odd=st.booleans(),
        gain=st.floats(min_value=0.1, max_value=4.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_the_law_on_the_full_rule(self, n_out, law, odd, gain, seed):
        dist, halves = SPLIT_LAWS[law]
        M = gain * np.random.default_rng(seed).normal(size=(n_out, dist.dimension)) + 0j
        nodes = (12, 6, 3)[n_out - 1] + odd
        with _rules() as (real, orbit):
            mi, err = estimator._quadrature_pass(M, dist, nodes, True)
        assert real.call_args_list == [mock.call(n_out, nodes)] * halves and not orbit.called
        mi_full, err_full = _full_rule_pass(M, dist, nodes)
        assert abs(mi - mi_full) <= 1e-14 * max(1.0, abs(mi_full))
        assert np.max(np.abs(err - err_full)) <= 1e-14 * max(1.0, np.max(np.abs(err_full)))
        assert not err.imag.any()

    def test_equal_halves_are_computed_once_and_doubled(self):
        dist, M = InputDistribution.qpsk(2), np.array([[0.9, -0.7], [0.4, 1.2]]) + 0j
        ((half, count),) = dist.halves
        assert count == 2 and not half.support.imag.any()
        c = 1 / np.sqrt(2.0)  # as the QPSK symbols' parts are rounded
        np.testing.assert_array_equal(half.support, c * np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]]))
        np.testing.assert_array_equal(half.probs, np.full(4, 0.25))
        mi, err = estimator._quadrature_pass(M, dist, 6, True)
        mi_half, err_half = estimator._kernel_pass(M, half, 6, True)
        assert mi == 2 * mi_half
        np.testing.assert_array_equal(err, 2 * err_half)

    def test_unequal_halves_are_the_laws_of_the_real_and_imaginary_parts(self):
        (re, k_re), (im, k_im) = SPLIT_LAWS["rectangular"][0].halves
        assert (k_re, k_im) == (1, 1)
        np.testing.assert_array_equal(re.support.ravel(), LEVELS4)
        np.testing.assert_array_equal(im.support.ravel(), [-1.0, 1.0])
        np.testing.assert_array_equal(re.probs, np.full(4, 0.25))
        np.testing.assert_array_equal(im.probs, [0.5, 0.5])

    @pytest.mark.parametrize(
        "M, dist",
        [
            (np.array([[0.9], [-0.7]]) + 0j, PSK8),
            (np.array([[1.3 + 0j]]), ULP_LAW),
            # as many points as a 2 x 2 product, each probability the product of its marginals' 1/2, but Re x = Im x
            (np.array([[1.3 + 0j]]), InputDistribution.discrete([[1 + 1j], [1 + 1j], [-1 - 1j], [-1 - 1j]])),
            (np.array([[0.9 + 0.4j, -0.7]]), InputDistribution.qpsk(2)),
        ],
        ids=["8psk", "within-an-ulp", "repeated-support", "complex-channel"],
    )
    def test_a_law_that_does_not_factor_or_a_complex_channel_runs_whole(self, M, dist):
        assert dist.halves is None or M.imag.any()
        with mock.patch.object(estimator, "_kernel_pass", wraps=estimator._kernel_pass) as kernel, _rules() as (real, _):
            mi, err = estimator._quadrature_pass(M, dist, 6, True)
        assert kernel.call_count == 1 and kernel.call_args.args[1] is dist and not real.called
        mi_whole, err_whole = estimator._kernel_pass(M, dist, 6, True)
        assert mi == mi_whole and err.tobytes() == err_whole.tobytes()


class TestExactInformation:
    """Where the information is 0 or saturated, the per-entry MI brackets
    must cancel exactly rather than leave rounding of the mean energies."""

    def test_zero_channel_at_figure1_shape(self):
        mi, _, _ = quadrature_moments(np.zeros((2, 2), dtype=complex), InputDistribution.qpsk(2), 16)
        assert mi == 0.0

    POINT_CASES = [
        (np.array([[2.0 + 0j]]), np.array([1.0 + 0.5j])),
        (np.array([[0.7 - 1.3j, 2.1 + 0.2j], [1.1, -0.4j]]), np.array([0.3 + 0.4j, -1.0])),
        (np.array([[31.0 + 7.0j]]), np.array([-0.6 + 0.9j])),
    ]

    @pytest.mark.parametrize("M, x0", POINT_CASES)
    def test_point_input(self, M, x0):
        mi, err, _ = quadrature_moments(M, InputDistribution.point(x0), 16)
        assert mi == 0.0
        np.testing.assert_allclose(err, 0.0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["first", "max"])
    def test_both_shifts_keep_them_exact(self, mode):
        with _shift(mode):  # each case builds a fresh law, so no pass under the other shift is served
            self.test_zero_channel_at_figure1_shape()
            zero, psk8_pair = np.zeros((2, 2), dtype=complex), InputDistribution.discrete(PSK8_PAIR.support)
            assert quadrature_moments(zero, psk8_pair, 16)[0] == 0.0  # 64 points on the orbit rule
            for M, x0 in self.POINT_CASES:
                self.test_point_input(M, x0)

    @pytest.mark.parametrize(
        "M, dist, nodes",
        UNDERFLOW_CASES + [(60.0 * np.eye(2, dtype=complex), InputDistribution.qpsk(2), 8)],
        ids=UNDERFLOW_IDS + ["qpsk-2x2-gain60"],
    )
    def test_saturated_channel_carries_the_input_entropy(self, M, dist, nodes):
        # the channel's means lie 40 or more apart under unit noise, so the
        # MI is the input entropy to double precision; a fresh law computes it, the shared one may serve it
        mi, _, _ = quadrature_moments(M, InputDistribution.discrete(dist.support, dist.probs), nodes, want_mmse=False)
        assert abs(mi - dist.entropy_nats()) <= 1e-14


class TestScoreIdentity:
    def test_deterministic_input_exact(self, rng):
        x0 = np.array([0.3 + 0.4j, -1.0])
        dist = InputDistribution.point(x0)
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert score_identity_residual(M, dist, z) < 1e-12

    def test_gaussian_identity_is_analytic(self, rng):
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        dist = InputDistribution.gaussian(2)
        for _ in range(10):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            assert score_identity_residual(M, dist, z) < 1e-12

    def test_gaussian_score_and_information_factor_s_once(self, rng):
        M = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        S = np.eye(3) + M @ M.conj().T
        with (
            mock.patch.object(np.linalg, "inv", wraps=np.linalg.inv) as inv,
            mock.patch.object(np.linalg, "slogdet", wraps=np.linalg.slogdet) as slogdet,
        ):
            score = flowmodel.output_score(M, InputDistribution.gaussian(2), z)
            assert (inv.call_count, slogdet.call_count) == (1, 1)
            info = estimator.gaussian_mutual_information(M)
            assert (inv.call_count, slogdet.call_count) == (1, 2)  # the information inverts nothing
        np.testing.assert_allclose(score, -np.linalg.solve(S, z), rtol=1e-12, atol=0)
        assert info == pytest.approx(np.linalg.slogdet(S)[1], rel=1e-12)

    def test_discrete_identity_by_exact_summation(self, rng):
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        dist = InputDistribution.qpsk(2)
        worst = max(
            score_identity_residual(
                M, dist, rng.normal(size=2) + 1j * rng.normal(size=2)
            )
            for _ in range(100)
        )
        assert worst < 1e-8


class TestInvertFlowEstimate:
    def test_identity_network_recovers_point(self):
        sys = SystemMatrices.from_factors(np.eye(2), np.eye(2), np.eye(2))
        x0 = np.array([0.7 - 0.1j, 0.2 + 0.2j])
        dist = InputDistribution.point(x0)
        np.testing.assert_allclose(invert_flow_estimate(sys, dist, x0), x0, atol=1e-12)

    def test_matches_conditional_mean_on_diamond(self, rng):
        sys = diamond_compact_system(seeded_diamond_symbols(11))
        dist = InputDistribution.qpsk(2)
        for _ in range(100):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            via_inverse = invert_flow_estimate(sys, dist, z)
            direct = conditional_mean(sys.M, dist, z)
            assert np.abs(via_inverse - direct).max() < 1e-8

    def test_uses_coupling_matrix_when_available(self, rng):
        # a full-form square system: one source edge, one sink edge, chain
        from codedflow import CodingCoefficients, NetworkTopology, build_coefficient_matrices

        topology = NetworkTopology.from_edges(
            ["a", "b"], [("a", "b")], sources=("a",), sinks=("b",)
        )
        coeffs = CodingCoefficients({(0, 0): 1.2}, {}, {(0, 0): 0.8})
        sys = build_coefficient_matrices(topology, coeffs, 1, 1)
        dist = InputDistribution.bpsk(1)
        z = np.array([0.4 + 0.1j])
        np.testing.assert_allclose(
            invert_flow_estimate(sys, dist, z),
            conditional_mean(sys.M, dist, z),
            atol=1e-10,
        )

    def test_singular_system_rejected(self):
        B = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)  # rank deficient
        sys = SystemMatrices.from_factors(np.eye(2), np.eye(2), B)
        dist = InputDistribution.qpsk(2)
        with pytest.raises(SingularSystemMatrix):
            invert_flow_estimate(sys, dist, np.array([1.0 + 0j, 0.0]))


class TestSmallBatches:
    """A sample count too small for batch means is refused before any density work."""

    @pytest.fixture
    def no_density(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("density work on a batch below the Monte Carlo minimum")

        for name in ("_log_output_density", "mixture_log_density", "mixture_posterior_mean"):
            monkeypatch.setattr(flowmodel, name, refuse)

    @pytest.mark.parametrize("count", [10, 999])
    def test_mc_moments_refuses(self, count, no_density):
        M, dist = np.array([[1.0 + 0j]]), InputDistribution.qpsk(1)
        with pytest.raises(CostGuardError, match="at least 1000 samples"):
            estimator.mc_moments(M, dist, EngineSpec(method="mc", samples=count))

    @pytest.mark.parametrize("count", [10, 999])
    def test_diagnostics_refuse(self, count, no_density):
        M, dist = np.array([[1.0 + 0j]]), InputDistribution.qpsk(1)
        with pytest.raises(CostGuardError, match="at least 1000 samples"):
            estimation_diagnostics(M, dist, sample(M, dist, seed=1, count=count))


class TestDiagnostics:
    @pytest.mark.parametrize("kind", ["qpsk", "gaussian"])
    def test_orthogonality_and_tower(self, kind):
        sys = diamond_compact_system(seeded_diamond_symbols(42))
        dist = InputDistribution.qpsk(2) if kind == "qpsk" else InputDistribution.gaussian(2)
        batch = sample(sys.M, dist, seed=2024, count=30000)
        diag = estimation_diagnostics(sys.M, dist, batch)
        assert np.all(np.abs(diag["orthogonality"]) <= 5.0 * diag["orthogonality_se"] + 1e-12)
        assert np.all(np.abs(diag["tower_gap"]) <= 5.0 * diag["tower_se"] + 1e-12)


# name: (call, exception type, message)
REFUSALS = {
    "engine-method": (lambda: EngineSpec(method="newton"), ValueError, "unknown engine method 'newton'"),
    "error-matrix-below-psd": (
        lambda: MmseMatrix.checked(np.diag([1.0, -1e-6]), "quadrature", 16, np.eye(2)),
        InvariantViolation,
        "error matrix has eigenvalue -1.00e-06 below the PSD floor",
    ),
    "quadrature-of-a-gaussian": (
        lambda: quadrature_moments(np.eye(1), InputDistribution.gaussian(1), 8),
        ValueError,
        "quadrature_moments expects a discrete input",
    ),
    "wide-transfer-matrix": (
        lambda: invert_flow_estimate(
            SystemMatrices.from_factors(np.ones((1, 2)), np.eye(2), np.eye(2)), InputDistribution.gaussian(2), np.zeros(1)
        ),
        SingularSystemMatrix,
        "transfer matrix must be square to invert the flow",
    ),
    "wide-factor": (
        lambda: invert_flow_estimate(
            SystemMatrices.from_factors(np.ones((2, 3)), np.eye(3), np.ones((3, 2))),
            InputDistribution.gaussian(2),
            np.zeros(2),
        ),
        SingularSystemMatrix,
        "factor A is not square; cannot factor the inverse",
    ),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_a_malformed_request_is_refused_with_its_message(name):
    call, kind, message = REFUSALS[name]
    with pytest.raises(kind) as caught:
        call()
    assert type(caught.value) is kind and str(caught.value) == message


class TestChannelShape:
    """Every entry refuses a channel whose width is not the law's dimension, and outputs that are not
    an (N, rows of M) stack, with one wording each and for both laws: the Gaussian closed forms too."""

    WIDE = np.ones((2, 3), dtype=complex)  # three input columns for a two-dimensional law
    SQUARE = np.array([[0.9, 0.2j], [-0.3, 0.7]], dtype=complex)

    @pytest.mark.parametrize("kind", ["gaussian", "qpsk"])
    @pytest.mark.parametrize(
        "case, pattern",
        [("channel", r"the channel's input dimension 3 is not the input law's 2"), ("output", r"are not an \(N, 2\) stack")],
    )
    def test_every_entry_refuses(self, kind, case, pattern):
        dist = getattr(InputDistribution, kind)(2)
        M, z = (self.WIDE, np.ones(2, dtype=complex)) if case == "channel" else (self.SQUARE, np.ones(3, dtype=complex))
        batch = flowmodel.SampleBatch(seed=0, count=1000, inputs=np.zeros((1000, 2), complex), outputs=np.zeros((1000, len(z)), complex))
        calls = [
            lambda: flowmodel.log_output_density(M, dist, z),
            lambda: flowmodel.output_score(M, dist, z),
            lambda: conditional_mean(M, dist, z),
            lambda: conditional_mean_batch(M, dist, z[None, :]),
            lambda: score_identity_residual(M, dist, z),
            lambda: estimation_diagnostics(M, dist, batch),
        ]
        if case == "channel":  # entries that take no outputs
            calls += [
                lambda: sample(M, dist, seed=0, count=10),
                lambda: estimator.mc_moments(M, dist, EngineSpec(method="mc", samples=1000)),
            ]
            if kind == "qpsk":
                calls.append(lambda: quadrature_moments(M, dist, 8))
        for call in calls:
            with pytest.raises(ValueError, match=pattern):
                call()

    @pytest.mark.parametrize("kind", ["gaussian", "qpsk"])
    @pytest.mark.parametrize("M", [np.ones(2), np.ones((2, 2, 2))], ids=["vector", "3-d"])
    def test_channel_must_be_a_matrix(self, kind, M):
        dist = getattr(InputDistribution, kind)(2)
        calls = [lambda: mutual_information(M, dist), lambda: sample(M, dist, seed=0, count=10)]
        if kind == "qpsk":
            calls.append(lambda: quadrature_moments(M, dist, 8))
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(f"a channel of shape {M.shape} is not a matrix")):
                call()

    @pytest.mark.parametrize("z", [np.ones((1, 2), dtype=complex), np.complex128(1.0)])
    def test_one_output_must_be_a_vector(self, z):
        dist = InputDistribution.gaussian(2)
        for call in (flowmodel.log_output_density, flowmodel.output_score, conditional_mean):
            with pytest.raises(ValueError, match=r"are not an \(N, 2\) stack"):
                call(self.SQUARE, dist, z)


def _random_channel(n_out, n_in, gain, seed):
    rng = np.random.default_rng(seed)
    return gain * (rng.normal(size=(n_out, n_in)) + 1j * rng.normal(size=(n_out, n_in)))


class TestConjugateCanonical:
    """For a law closed under conjugation, the information of ``conj M`` is that of M and its error
    matrix is ``conj E(M)``: ``(conj x, conj z)`` under ``conj M`` has the law of ``(x, z)`` under M.
    ``quadrature_moments`` therefore evaluates one member of ``{M, conj M}`` for both."""

    @given(
        n_out=st.integers(min_value=1, max_value=2),
        kind=st.sampled_from(["bpsk", "qpsk"]),
        n_in=st.integers(min_value=1, max_value=2),
        gain=st.floats(min_value=0.1, max_value=4.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_conjugate_channel_conjugates_the_error_matrix(self, n_out, kind, n_in, gain, seed):
        M = _random_channel(n_out, n_in, gain, seed)
        dist = getattr(InputDistribution, kind)(n_in)
        nodes = 12 if n_out == 1 else 6
        mi, err = estimator._quadrature_pass(M, dist, nodes, True)
        mi_conj, err_conj = estimator._quadrature_pass(M.conj(), dist, nodes, True)  # no canonical form
        assert abs(mi_conj - mi) <= 1e-13 * max(1.0, abs(mi))
        assert np.max(np.abs(err_conj - err.conj())) <= 1e-13 * max(1.0, np.max(np.abs(err)))
        mi, err, _ = quadrature_moments(M, dist, nodes)
        mi_conj, err_conj, _ = quadrature_moments(M.conj(), dist, nodes)
        assert mi_conj == mi
        np.testing.assert_array_equal(err_conj, err.conj())

    def test_law_not_closed_under_conjugation_is_evaluated_as_given(self):
        dist = InputDistribution.discrete([[1], [1j]])
        assert not dist.conjugate_closed
        M = np.array([[0.8 - 0.6j]])
        with mock.patch.object(estimator, "_quadrature_pass", wraps=estimator._quadrature_pass) as kernel:
            quadrature_moments(M, dist, 12)
            quadrature_moments(M.conj(), dist, 12)
        assert [call.args[0].tolist() for call in kernel.call_args_list] == [[[0.8 - 0.6j]], [[0.8 + 0.6j]]]

    def test_canonical_member_has_a_positive_first_imaginary_entry(self):
        dist = InputDistribution.qpsk(2)
        M = np.array([[0.5, 0.3 - 0.2j], [0.7, 0.1 - 0.4j]])  # first nonzero imaginary part < 0
        with mock.patch.object(estimator, "_quadrature_pass", wraps=estimator._quadrature_pass) as kernel:
            quadrature_moments(M, dist, 6)
            quadrature_moments(M.real, dist, 6)  # a real channel and its conjugate, whose zeros are -0.0
            quadrature_moments(np.conj(M.real + 0j), dist, 6)
        canonical, real = kernel.call_args_list[0].args[0], kernel.call_args_list[1].args[0]
        np.testing.assert_array_equal(canonical, M.conj())
        assert not np.signbit(canonical.imag).any() and not np.signbit(real.imag).any()
        assert kernel.call_count == 2


class TestKeptPasses:
    """A law keeps each (nodes, canonical channel) pass it computes, at most ``_KEPT_PASSES`` of them,
    and serves it to every later call bit for bit; two laws never share a pass."""

    M = np.array([[0.9 + 0.4j], [-0.3 + 0.2j]])  # canonical: its first nonzero imaginary entry is positive

    def _counted(self):
        return mock.patch.object(estimator, "_quadrature_pass", wraps=estimator._quadrature_pass)

    def test_a_repeated_call_is_served(self):
        dist = InputDistribution.qpsk(1)
        with self._counted() as kernel:
            first = quadrature_moments(self.M, dist, 6)
            second = quadrature_moments(self.M, dist, 6)
        assert kernel.call_count == 1
        assert first[0] == second[0] and np.array_equal(first[1], second[1])

    def test_one_pass_serves_both_outputs_and_the_conjugate_channel(self):
        dist = InputDistribution.qpsk(1)
        mi, err = estimator._quadrature_pass(self.M, dist, 6, True)
        quadrature_moments(self.M, dist, 6)
        with self._counted() as kernel:
            assert quadrature_moments(self.M, dist, 6, want_mi=False)[0] is None
            assert quadrature_moments(self.M, dist, 6, want_mmse=False) == (mi, None, 6)
            served = quadrature_moments(self.M.conj(), dist, 6)
            again = quadrature_moments(self.M, dist, 6)
            again[1][0, 0] = 7.0  # each call returns its own array
            last = quadrature_moments(self.M, dist, 6)
        assert kernel.call_count == 0
        assert served[0] == last[0] == mi
        np.testing.assert_array_equal(served[1], err.conj())
        np.testing.assert_array_equal(last[1], err)

    def test_an_information_pass_does_not_serve_an_error_matrix(self):
        dist = InputDistribution.qpsk(1)
        with self._counted() as kernel:
            quadrature_moments(self.M, dist, 6, want_mmse=False)
            quadrature_moments(self.M, dist, 6, want_mi=False)
            quadrature_moments(self.M, dist, 6)
            quadrature_moments(self.M, dist, 7)  # another key: the node count
        assert [call.args[2:] for call in kernel.call_args_list] == [(6, False), (6, True), (7, True)]

    def test_an_information_pass_kept_late_keeps_the_error_matrix(self):
        # the interleaving of two threads, made deterministic: while an information-only pass runs,
        # an error-matrix pass of the same channel is computed and kept
        dist, kernel = InputDistribution.qpsk(1), estimator._quadrature_pass

        def interleaved(M, dist, nodes, want_mmse):
            if not want_mmse:
                quadrature_moments(M, dist, nodes)
            return kernel(M, dist, nodes, want_mmse)

        with mock.patch.object(estimator, "_quadrature_pass", interleaved):
            quadrature_moments(self.M, dist, 6, want_mmse=False)
        with self._counted() as counted:
            quadrature_moments(self.M, dist, 6)
        assert counted.call_count == 0

    def test_two_laws_never_share(self):
        # equal laws, two objects: each computes its own pass, and keeps its own
        laws = [InputDistribution.qpsk(1), InputDistribution.qpsk(1)]
        with self._counted() as kernel:
            for dist in laws + laws:
                quadrature_moments(self.M, dist, 6)
        assert kernel.call_count == 2
        assert [len(dist._kept["passes"]) for dist in laws] == [1, 1]

    def test_the_store_is_bounded_and_drops_the_oldest_pass_first(self, monkeypatch):
        monkeypatch.setattr(estimator, "_KEPT_PASSES", 3)
        dist = InputDistribution.qpsk(1)
        sample(np.eye(1), dist, seed=1, count=8)  # the kept draw is not a pass: the bound leaves it
        channels = [np.array([[0.5 + 0.1j * k]]) for k in range(1, 6)]
        for M in channels:
            quadrature_moments(M, dist, 6)
        assert len(dist._kept["passes"]) == 3 and "draw" in dist._kept
        with self._counted() as kernel:
            for M in channels[2:] + channels[:1]:  # the three newest are served; the oldest was dropped
                quadrature_moments(M, dist, 6)
        assert kernel.call_count == 1

    def test_pooled_calls_share_the_law_and_lose_no_error_matrix(self):
        # more pool threads than cores and a short switch interval, so that information-only and
        # error-matrix passes of one channel race to be kept
        dist = InputDistribution.qpsk(1)
        channels = [_random_channel(1, 1, 1.0 + 0.1 * k, k) for k in range(6)]
        expected = [quadrature_moments(M, InputDistribution.qpsk(1), 6) for M in channels]  # another law's passes
        jobs = [(k, want_mmse) for _ in range(4) for k in range(len(channels)) for want_mmse in (False, True)]

        def job(item):
            k, want_mmse = item
            return quadrature_moments(channels[k], dist, 6, want_mmse=want_mmse)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = flowmodel._pool_map(job, jobs, 8)
        finally:
            sys.setswitchinterval(interval)
        with self._counted() as kernel:
            kept = [quadrature_moments(M, dist, 6) for M in channels]
        assert kernel.call_count == 0
        for (k, want_mmse), (mi, err, _) in zip(jobs, results):
            assert mi == expected[k][0]
            assert np.array_equal(err, expected[k][1]) if want_mmse else err is None
        for (mi, err, _), (mi_ref, err_ref, _) in zip(kept, expected):
            assert mi == mi_ref and np.array_equal(err, err_ref)
