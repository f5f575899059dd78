import gc
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, softmax

from codedflow import (
    CostGuardError,
    DensityUnderflow,
    EmptySupport,
    EngineSpec,
    InputDistribution,
    log_conditional_density,
    log_output_density,
    output_score,
    sample,
    mutual_information,
    score_identity_residual,
)
from codedflow import flowmodel
from codedflow.estimator import quadrature_moments
from codedflow.flowmodel import mixture_log_density, mixture_posterior_mean
from codedflow.quadrature import complex_gauss_hermite


class TestConditionalDensity:
    def test_zero_residual_scalar(self):
        M = np.array([[0.3 + 0.1j]])
        x = np.array([2.0 - 1.0j])
        assert np.exp(log_conditional_density(M, x, M @ x)) == pytest.approx(1.0 / np.pi)

    def test_zero_residual_two_outputs(self, rng):
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        x = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert np.exp(log_conditional_density(M, x, M @ x)) == pytest.approx(1.0 / np.pi**2)

    def test_unit_residual(self):
        value = np.exp(log_conditional_density(np.array([[1.0]]), np.array([1.0]), np.array([0.0])))
        assert value == pytest.approx(np.exp(-1.0) / np.pi)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            log_conditional_density(np.eye(2), np.zeros(3), np.zeros(2))


class TestOutputDensity:
    def test_single_support_point_reduces_to_conditional(self, rng):
        M = rng.normal(size=(2, 2)) + 0j
        x0 = np.array([1.0 + 1j, -0.5j])
        dist = InputDistribution.point(x0)
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        expected = np.exp(log_conditional_density(M, x0, z))
        assert np.exp(log_output_density(M, dist, z)) == pytest.approx(expected)

    def test_indistinguishable_inputs_give_pure_noise_density(self, rng):
        dist = InputDistribution.bpsk(1)
        M = np.array([[0.0 + 0j]])
        for _ in range(5):
            z = np.array([complex(rng.normal(), rng.normal())])
            expected = np.exp(-abs(z[0]) ** 2) / np.pi
            assert np.exp(log_output_density(M, dist, z)) == pytest.approx(expected, rel=1e-12)

    def test_gaussian_closed_form_vs_fine_discrete_approximation(self, rng):
        # a discrete cloud of Gaussian draws approximates the Gaussian input;
        # its mixture density must converge to the closed form
        M = np.array([[0.8, 0.2], [0.1, 0.5]]) + 0j
        gauss = InputDistribution.gaussian(2)
        cloud = (rng.normal(size=(20000, 2)) + 1j * rng.normal(size=(20000, 2))) / np.sqrt(2)
        approx = InputDistribution.discrete(cloud)
        for _ in range(3):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            exact = np.exp(log_output_density(M, gauss, z))
            estimate = np.exp(log_output_density(M, approx, z))
            assert estimate == pytest.approx(exact, rel=0.05)

    def test_empty_support_rejected(self):
        with pytest.raises(EmptySupport):
            InputDistribution(kind="discrete", dimension=1, support=np.zeros((0, 1)))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: InputDistribution.gaussian(1.5),
            lambda: InputDistribution.gaussian(-1),
            lambda: InputDistribution.gaussian(0),
            lambda: InputDistribution.gaussian(True),
            lambda: InputDistribution.discrete([[]]),
            lambda: InputDistribution.bpsk(0),
            lambda: InputDistribution.qpsk(0),
            lambda: InputDistribution.bpsk(1.5),
        ],
    )
    def test_dimension_below_one_or_not_an_integer_is_refused(self, make):
        with pytest.raises(ValueError, match="input dimension must be an integer of at least 1"):
            make()

    def test_laws_compare_and_hash_by_identity(self):
        law = InputDistribution.qpsk(2)
        assert law == law and hash(law) == hash(law)
        assert law != InputDistribution.qpsk(2)
        assert len({law, InputDistribution.qpsk(2), InputDistribution.gaussian(np.int64(2))}) == 3

    def test_underflow_raises(self):
        dist = InputDistribution.bpsk(1)
        with pytest.raises(DensityUnderflow):
            log_output_density(np.array([[1.0]]), dist, np.array([40.0 + 0j]))

    def test_log_domain_matches_direct_sum(self, rng):
        M = rng.normal(size=(2, 2)) + 0j
        dist = InputDistribution.qpsk(2)
        for _ in range(10):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            direct = sum(
                p * np.exp(log_conditional_density(M, x, z))
                for p, x in zip(dist.probs, dist.support)
            )
            assert np.exp(log_output_density(M, dist, z)) == pytest.approx(direct, rel=1e-10)

    def test_scalar_normalization_by_quadrature(self):
        # importance-reweighted Gauss-Hermite integral of p(z) over the plane
        M = np.array([[1.3 + 0j]])
        dist = InputDistribution.bpsk(1)
        scale = np.sqrt(1.0 + float(np.abs(M).max()) ** 2)
        points, weights = complex_gauss_hermite(1, 64)
        z_points = scale * points
        ref_log = -np.log(np.pi * scale**2) - np.abs(z_points[:, 0]) ** 2 / scale**2
        p_log = mixture_log_density(dist.support @ M.T, dist.log_probs, z_points)
        total = float(weights @ np.exp(p_log - ref_log))
        assert total == pytest.approx(1.0, abs=1e-8)


def _mixture_case(rng, K, n, d, spread, N):
    """K means of dimension n scaled by ``spread`` (at 25, some unshifted
    exponents overflow exp), N points drawn near them, and a random support
    of dimension d."""
    means = spread * (rng.normal(size=(K, n)) + 1j * rng.normal(size=(K, n)))
    raw = rng.random(K) + 0.05
    log_probs = np.log(raw / raw.sum())
    support = rng.normal(size=(K, d)) + 1j * rng.normal(size=(K, d))
    noise = rng.normal(size=(N, n)) + 1j * rng.normal(size=(N, n))
    points = means[rng.integers(0, K, N)] + noise
    return means, log_probs, support, points


def _assert_mixture_matches_reference(means, log_probs, support, points):
    """The kernel expands |z - mean_k|^2 = |z|^2 - 2 Re(conj(mean_k) z) + |mean_k|^2,
    which loses a few ulps of the cancelling terms; the reference sums
    log p_k - |z - mean_k|^2 directly, so each log-density is allowed 1e-12
    relative plus 64 ulps of |z|^2 + max_k |mean_k|^2 (seen: at most 25)."""
    exponents = log_probs - np.sum(np.abs(points[:, None, :] - means[None, :, :]) ** 2, axis=2)
    log_pz = logsumexp(exponents, axis=1) - means.shape[1] * np.log(np.pi)
    cancel = 64 * np.finfo(float).eps * (np.sum(np.abs(points) ** 2, axis=1) + np.max(np.sum(np.abs(means) ** 2, axis=1)))
    got = mixture_log_density(means, log_probs, points)
    assert np.all(np.abs(got - log_pz) <= 1e-12 * np.abs(log_pz) + cancel)
    xhat = np.array([sum(p * s for p, s in zip(row, support)) for row in softmax(exponents, axis=1)])
    got = mixture_posterior_mean(means, log_probs, support, points)
    assert got.shape == xhat.shape
    assert np.max(np.abs(got - xhat)) <= 1e-12 * np.max(np.abs(support))


class TestMixtureKernel:
    @given(
        K=st.integers(min_value=1, max_value=64),
        n=st.integers(min_value=1, max_value=3),
        d=st.integers(min_value=1, max_value=2),
        spread=st.floats(min_value=0.1, max_value=30.0),
        N=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, K, n, d, spread, N, seed):
        _assert_mixture_matches_reference(*_mixture_case(np.random.default_rng(seed), K, n, d, spread, N))

    @pytest.mark.parametrize("K", [4, 64])
    @pytest.mark.parametrize("offset", [None, -1, 0, 1])
    def test_chunk_boundaries(self, K, offset):
        # N = 1 and one chunk minus one, exactly one, and one plus one row
        rows = flowmodel._LSE_CHUNK_BYTES // (8 * K)
        N = 1 if offset is None else rows + offset
        case = _mixture_case(np.random.default_rng(K + N), K, 2, 2, 25.0, N)
        means, log_probs, _, points = case
        # the shift matters: unshifted, some exponents overflow exp
        offsets = log_probs - np.sum(np.abs(means) ** 2, axis=1)
        assert np.max(offsets + 2.0 * np.real(points @ means.conj().T)) > 709.0
        _assert_mixture_matches_reference(*case)


class TestExactFallback:
    """Points about 26 from every mean of a one-output mixture: each unshifted total p_j exp(-|z -
    mean_j|^2) is at or below the chunk kernel's 1e-290 floor, yet log p(z) stays near -685, above
    the -700 floor.  The kernel redoes exactly those columns, and nothing raises."""

    @pytest.mark.parametrize("ordinary", [0, 5])
    def test_far_points_are_redone_exactly(self, ordinary):
        rng = np.random.default_rng(ordinary)
        means = np.array([[0.1], [-0.05 + 0.08j], [-0.07j]])  # |mean| <= 0.1
        log_probs = np.log([0.5, 0.3, 0.2])
        support = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        far = 26.2 * np.exp(2j * np.pi * rng.random((7, 1)))  # |z - mean|^2 in [681, 692]
        near = means[rng.integers(0, 3, ordinary)] + 0.3 * (rng.normal(size=(ordinary, 1)) + 1j * rng.normal(size=(ordinary, 1)))
        points = rng.permutation(np.concatenate([far, near]))  # one chunk mixing both
        _assert_mixture_matches_reference(means, log_probs, support, points)
        log_pz = mixture_log_density(means, log_probs, points)
        assert np.all(log_pz[np.abs(points[:, 0]) > 26] > -700.0)
        # the score reads a one-point chunk, so each far point is redone on its own
        dist = InputDistribution.discrete(means, np.exp(log_probs))
        posterior = softmax(log_probs - np.abs(points - means.T) ** 2, axis=1)
        for z, expected in zip(points, posterior @ means - points):
            np.testing.assert_allclose(output_score(np.eye(1), dist, z), expected, rtol=0, atol=1e-12)
            assert score_identity_residual(np.eye(1), dist, z) < 1e-12


class TestUnderflow:
    """High-SNR channels observed at pure-noise outputs: every mean lies at
    least ``gain - |z|`` from every point, so log p(z) is far below -700."""

    @given(
        gain=st.floats(min_value=40.0, max_value=200.0),
        kind=st.sampled_from(["bpsk", "qpsk"]),
        n_out=st.integers(min_value=1, max_value=2),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=20, deadline=None)
    def test_every_mixture_path_raises(self, gain, kind, n_out, seed):
        rng = np.random.default_rng(seed)
        column = rng.normal(size=(n_out, 1)) + 1j * rng.normal(size=(n_out, 1))
        M = gain * column / np.linalg.norm(column)  # |M x| = gain for unit symbols
        dist = getattr(InputDistribution, kind)(1)
        noise = sample(np.zeros((n_out, 1)), dist, seed=seed, count=1000)
        assert np.max(np.abs(noise.outputs)) < gain - np.sqrt(700.0 + np.log(np.pi) * n_out)
        means = dist.support @ M.T
        messages = set()
        for call in (
            lambda: mixture_log_density(means, dist.log_probs, noise.outputs),
            lambda: mixture_posterior_mean(means, dist.log_probs, dist.support, noise.outputs),
        ):
            with pytest.raises(DensityUnderflow) as caught:
                call()
            messages.add(str(caught.value))
        # one wording, naming the same lowest value on every path
        assert len(messages) == 1
        assert re.fullmatch(r"log p\(z\) = -\d+\.\d fell below -700\.0", messages.pop())


def _labelled_case(seed, K, n, N, scale):
    """A K-component mixture in n outputs with means of size ``scale``, support in two inputs, and
    N unit-noise points about the means of drawn labels, stored as a discrete law's draw stores them."""
    rng = np.random.default_rng(seed)
    means = scale * (rng.normal(size=(K, n)) + 1j * rng.normal(size=(K, n)))
    log_probs = np.log(rng.dirichlet(np.ones(K)))
    support = rng.normal(size=(K, 2)) + 1j * rng.normal(size=(K, 2))
    labels = rng.integers(0, K, N).astype(np.min_scalar_type(K - 1))
    noise = (rng.normal(size=(N, n)) + 1j * rng.normal(size=(N, n))) / np.sqrt(2.0)
    return means, log_probs, support, labels, noise


class TestLabelledPoints:
    """Given support labels, the kernel's points are noise about ``means[labels]``: each chunk gathers
    the means into its own block and adds the noise, the same float adds as forming ``means[labels] +
    noise`` first, so both functions give those outputs' bits.  The chunk is shrunk to 8 KiB of
    weights, so every case spans several chunks and ends on a short one."""

    @pytest.fixture(autouse=True)
    def _small_chunks(self, monkeypatch):
        monkeypatch.setattr(flowmodel, "_LSE_CHUNK_BYTES", 1 << 13)

    @staticmethod
    def _assert_same_bits(means, log_probs, support, labels, noise):
        z = means[labels] + noise
        for labelled, explicit in (
            (mixture_log_density(means, log_probs, noise, labels), mixture_log_density(means, log_probs, z)),
            (
                mixture_posterior_mean(means, log_probs, support, noise, labels),
                mixture_posterior_mean(means, log_probs, support, z),
            ),
        ):
            np.testing.assert_array_equal(labelled, explicit)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("K", [1, 2, 16, 64])
    def test_labelled_points_give_the_outputs_bits(self, K, n):
        rows = flowmodel._LSE_CHUNK_BYTES // (8 * K)
        assert 3100 > 3 * rows and 3100 % rows  # at least three chunks, the last one short
        case = _labelled_case(K * 10 + n, K, n, 3100, 1.5)
        self._assert_same_bits(*case)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("K", [1, 2, 16, 64])
    def test_far_noise_is_redone_alike(self, K, n):
        # means within about 0.1 of 0 and noise 26 along the first output: every unshifted total is
        # below the 1e-290 floor, so the chunk redoes it, while log p(z) stays above -700
        means, log_probs, support, labels, noise = _labelled_case(K * 10 + n, K, n, 600, 0.01)
        far = np.arange(0, 600, 7)
        noise[far] = 0.0
        noise[far, 0] = 26.0 * np.exp(2j * np.pi * np.linspace(0.0, 1.0, len(far)))
        log_pz = mixture_log_density(means, log_probs, noise, labels)
        assert np.all(log_pz[far] <= np.log(flowmodel._EXACT_FLOOR) - n * np.log(np.pi)) and log_pz.min() > -700.0
        self._assert_same_bits(means, log_probs, support, labels, noise)

    @pytest.mark.parametrize("K", [1, 16])
    def test_an_underflowed_point_raises_the_same_message(self, K):
        means, log_probs, support, labels, noise = _labelled_case(K, K, 2, 600, 1.0)
        noise[451] = 40.0  # log p(z) near -3200 there
        messages = set()
        for call in (
            lambda: mixture_log_density(means, log_probs, noise, labels),
            lambda: mixture_log_density(means, log_probs, means[labels] + noise),
            lambda: mixture_posterior_mean(means, log_probs, support, noise, labels),
            lambda: mixture_posterior_mean(means, log_probs, support, means[labels] + noise),
        ):
            with pytest.raises(DensityUnderflow) as caught:
                call()
            messages.add(str(caught.value))
        assert len(messages) == 1
        assert re.fullmatch(r"log p\(z\) = -\d+\.\d fell below -700\.0", messages.pop())


class TestOutputScore:
    def test_single_point_gaussian_score(self, rng):
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        x0 = rng.normal(size=2) + 0j
        dist = InputDistribution.point(x0)
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        np.testing.assert_allclose(output_score(M, dist, z), -(z - M @ x0), atol=1e-12)

    def test_gaussian_input_closed_form(self, rng):
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        dist = InputDistribution.gaussian(2)
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        cov = np.eye(2) + M @ M.conj().T
        np.testing.assert_allclose(
            output_score(M, dist, z), -np.linalg.solve(cov, z), atol=1e-12
        )

    def test_symmetric_mixture_score_vanishes_at_origin(self):
        dist = InputDistribution.bpsk(1)
        score = output_score(np.array([[0.7]]), dist, np.array([0.0 + 0j]))
        np.testing.assert_allclose(score, [0.0], atol=1e-15)

    @pytest.mark.parametrize("kind", ["qpsk", "gaussian"])
    def test_score_matches_numerical_gradient(self, rng, kind):
        """Conjugate-coordinate convention: score_k = (d_Re + i d_Im)/2 of log p."""
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        dist = InputDistribution.qpsk(2) if kind == "qpsk" else InputDistribution.gaussian(2)
        h = 1e-4
        for _ in range(3):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            score = output_score(M, dist, z)
            for k in range(2):
                fd = np.zeros(2, dtype=complex)
                for axis, delta in ((0, h), (1, 1j * h)):
                    zp, zm = z.copy(), z.copy()
                    zp[k] += delta
                    zm[k] -= delta
                    slope = (
                        log_output_density(M, dist, zp) - log_output_density(M, dist, zm)
                    ) / (2 * h)
                    fd[k] += slope if axis == 0 else 1j * slope
                assert abs(fd[k] / 2.0 - score[k]) < 1e-6


class TestInputDistribution:
    def test_qpsk_support_size_and_energy(self):
        dist = InputDistribution.qpsk(2)
        assert dist.support.shape == (16, 2)
        np.testing.assert_allclose(np.abs(dist.support) ** 2, 1.0)
        np.testing.assert_allclose(dist.covariance(), np.eye(2), atol=1e-15)

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            InputDistribution.discrete(np.array([[1.0], [-1.0]]), probs=[0.7, 0.7])
        with pytest.raises(ValueError):
            InputDistribution.discrete(np.array([[1.0], [-1.0]]), probs=[1.2, -0.2])

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: InputDistribution("uniform", 1), "unknown input kind 'uniform'"),
            (
                lambda: InputDistribution("discrete", 1, support=np.ones((2, 2))),
                "support vectors do not match the declared dimension",
            ),
            (lambda: InputDistribution.discrete(np.array([[1.0], [-1.0]]), probs=[1.0]), "probs length must match support"),
        ],
        ids=["kind", "support-width", "probs-length"],
    )
    def test_a_malformed_law_is_refused_with_its_message(self, build, message):
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == message

    @pytest.mark.parametrize("probs", [[np.nan, np.nan], [0.5, np.nan]])
    def test_nan_probabilities_rejected(self, probs):
        # every comparison with NaN is false, so the check must fail unless the probabilities hold
        with pytest.raises(ValueError, match="probs must be nonnegative"):
            InputDistribution.discrete(np.array([[1.0], [-1.0]]), probs=probs)

    @pytest.mark.parametrize("point", [np.inf, np.nan, complex(0.0, -np.inf)])
    def test_non_finite_support_rejected(self, point):
        with pytest.raises(ValueError, match="support points must be finite"):
            InputDistribution.discrete(np.array([[1.0], [point]]))

    def test_entropy(self):
        assert InputDistribution.bpsk(1).entropy_nats() == pytest.approx(np.log(2))
        assert InputDistribution.gaussian(1).entropy_nats() == np.inf

    @given(
        kind=st.sampled_from(["qpsk", "bpsk", "rectangular"]),
        dim=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_phase_order_ignores_support_order(self, kind, dim, seed):
        if kind == "rectangular":  # 4 real levels by 2 imaginary: closed under x -> -x and conjugation, not i x
            symbols = np.add.outer([-3.0, -1.0, 1.0, 3.0], [-1j, 1j]).ravel()
            law = InputDistribution.discrete(flowmodel._product_constellation(symbols, dim))
        else:
            law = getattr(InputDistribution, kind)(dim)
        shuffled = InputDistribution.discrete(np.random.default_rng(seed).permutation(law.support))
        assert law.phase_order == shuffled.phase_order == {"qpsk": 4, "bpsk": 2, "rectangular": 2}[kind]
        assert law.conjugate_closed and shuffled.conjugate_closed
        # a real law has no halves; QPSK's are one law counted twice, the rectangle's two laws
        assert [k for _, k in law.halves or ()] == {"qpsk": [2], "bpsk": [], "rectangular": [1, 1]}[kind]
        for (half, k), (same, k_same) in zip(law.halves or (), shuffled.halves or (), strict=True):
            assert k == k_same
            np.testing.assert_array_equal(half.support, same.support)
            np.testing.assert_array_equal(half.probs, same.probs)
        assert (law.halves is None) == (shuffled.halves is None)

    @pytest.mark.parametrize("where", [[0], [2], [4], [0, 4], [1, 1, 3]], ids=["first", "middle", "last", "both-ends", "three"])
    def test_points_of_probability_zero_are_dropped(self, where):
        # QPSK(2) with (3+3i, 3+3i) at probability 0 inserted before the given rows: the same law, the
        # same structure and bit-equal moments, with no log of 0 (the suite errors on RuntimeWarning)
        law = InputDistribution.qpsk(2)
        support = np.insert(law.support, where, [3 + 3j, 3 + 3j], axis=0)
        padded = InputDistribution.discrete(support, np.insert(law.probs, where, 0.0))
        np.testing.assert_array_equal(padded.support, law.support)
        np.testing.assert_array_equal(padded.probs, law.probs)
        assert (padded.phase_order, padded.conjugate_closed) == (law.phase_order, law.conjugate_closed) == (4, True)
        ((half, k),) = law.halves
        ((padded_half, padded_k),) = padded.halves
        assert padded_k == k == 2
        np.testing.assert_array_equal(padded_half.support, half.support)
        np.testing.assert_array_equal(padded_half.probs, half.probs)
        assert padded.entropy_nats() == law.entropy_nats() == np.log(16)
        for M in (np.array([[0.9, -0.7], [0.4, 1.2]]) + 0j, np.array([[0.9 + 0.3j, -0.7], [0.4, 1.2 - 0.5j]])):
            mi, err, _ = quadrature_moments(M, padded, 8)
            mi_law, err_law, _ = quadrature_moments(M, law, 8)
            assert mi == mi_law and err.tobytes() == err_law.tobytes()
            spec = EngineSpec(method="mc", samples=4000, seed=3)
            assert mutual_information(M, padded, spec).nats == mutual_information(M, law, spec).nats

    def test_the_law_keeps_read_only_copies_of_the_callers_arrays(self):
        support, probs = np.array([[1 + 1j], [1 - 1j]]), np.array([0.5, 0.5])
        law = InputDistribution.discrete(support, probs)
        assert support.flags.writeable and probs.flags.writeable
        assert not (law.support.flags.writeable or law.probs.flags.writeable)
        support[0, 0], probs[0] = 0.0, 1.0
        np.testing.assert_array_equal(law.support, [[1 + 1j], [1 - 1j]])
        np.testing.assert_array_equal(law.probs, [0.5, 0.5])

    @given(
        dim=st.integers(min_value=1, max_value=3),
        equal=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_conjugate_closure_ignores_support_order(self, dim, equal, seed):
        # a non-real x and conj(x) are closed only at equal probabilities; the phase orbit of
        # 1+0.3i is closed under i but not under conjugation
        rng = np.random.default_rng(seed)
        x = rng.normal(size=dim) + 1j * (rng.random(size=dim) + 0.1)
        pair = np.array([x, x.conj()]), np.array([0.5, 0.5] if equal else [0.3, 0.7])
        orbit = np.array([[1], [1j], [-1], [-1j]]) * (1 + 0.3j) * np.ones(dim), np.full(4, 0.25)
        for (support, probs), closed in ((pair, equal), (orbit, False)):
            order = rng.permutation(len(support))
            law = InputDistribution.discrete(support, probs)
            shuffled = InputDistribution.discrete(support[order], probs[order])
            assert law.conjugate_closed == shuffled.conjugate_closed == closed
        assert InputDistribution.discrete(*orbit).phase_order == 4

    @given(
        case=st.sampled_from(["point", "unequal-orbit", "partial-orbit", "generic"]),
        dim=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_laws_without_the_symmetry_get_order_one(self, case, dim, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=dim) + 1j * rng.normal(size=dim)  # nonzero almost surely
        orbit = np.array([x, 1j * x, -x, -1j * x])
        if case == "point":
            law = InputDistribution.point(x)
        elif case == "unequal-orbit":
            raw = rng.random(4) + 0.05
            law = InputDistribution.discrete(orbit, probs=raw / raw.sum())
        elif case == "partial-orbit":  # x, ix, -x: x -> ix maps ix to -x but -x to -ix
            law = InputDistribution.discrete(orbit[:3])
        else:
            law = InputDistribution.discrete(rng.normal(size=(5, dim)) + 1j * rng.normal(size=(5, dim)))
        assert law.phase_order == 1

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_posterior_weights_sum_to_one(self, k, seed):
        rng = np.random.default_rng(seed)
        support = rng.normal(size=(k, 1)) + 1j * rng.normal(size=(k, 1))
        raw = rng.random(k) + 0.05
        dist = InputDistribution.discrete(support, probs=raw / raw.sum())
        M = np.array([[complex(rng.normal(), rng.normal())]])
        z = np.array([complex(rng.normal(), rng.normal())])
        # total probability over support equals the mixture density
        direct = sum(
            p * np.exp(log_conditional_density(M, x, z)) for p, x in zip(dist.probs, dist.support)
        )
        assert np.exp(log_output_density(M, dist, z)) == pytest.approx(direct, rel=1e-9)


class TestSampling:
    def test_deterministic_input_passes_through(self):
        x0 = np.array([0.5 - 0.25j])
        batch = sample(np.array([[1.0]]), InputDistribution.point(x0), seed=9, count=1)
        np.testing.assert_array_equal(batch.inputs[0], x0)

    def test_empirical_mean_within_clt_bound(self):
        # pure-noise outputs have unit variance per component; 5 sigma at 1e6
        dist = InputDistribution.bpsk(2)
        M = np.zeros((2, 2), dtype=complex)
        batch = sample(M, dist, seed=77, count=10**6)
        bound = 5e-3 * np.sqrt(2)
        assert np.linalg.norm(batch.outputs.mean(axis=0)) <= bound

    def test_bitwise_identical_across_worker_counts(self):
        dist = InputDistribution.qpsk(2)
        M = np.array([[0.6, 0.1], [0.2, 0.9]]) + 0j
        one = sample(M, dist, seed=123, count=20000, workers=1)
        eight = sample(M, dist, seed=123, count=20000, workers=8)
        np.testing.assert_array_equal(one.inputs, eight.inputs)
        np.testing.assert_array_equal(one.outputs, eight.outputs)

    def test_seed_changes_stream(self):
        dist = InputDistribution.bpsk(1)
        M = np.array([[1.0 + 0j]])
        a = sample(M, dist, seed=1, count=100)
        b = sample(M, dist, seed=2, count=100)
        assert not np.array_equal(a.outputs, b.outputs)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample(np.eye(1), InputDistribution.bpsk(1), seed=0, count=0)

    def test_sample_uses_the_kept_draw(self):
        dist = InputDistribution.qpsk(2)
        M = np.array([[0.6, 0.1], [0.2, 0.9]]) + 0j
        batch = sample(M, dist, seed=5, count=3000)
        labels, noise, _ = flowmodel._draws(dist, 2, 5, 3000)  # a discrete law keeps support labels
        assert labels.shape == (3000,) and labels.dtype == np.uint8
        np.testing.assert_array_equal(batch.inputs, dist.support[labels])
        np.testing.assert_array_equal(batch.outputs, dist.support[labels] @ M.T + noise)

    def test_noise_model_density_normalizes(self):
        # with M = 0 the conditional density of z is the noise density
        M, x = np.zeros((1, 1)), np.zeros(1)
        assert np.exp(log_conditional_density(M, x, np.array([0.0]))) == pytest.approx(1 / np.pi)
        points, weights = complex_gauss_hermite(1, 64)
        # E_{CN(0,1)}[density / density] integrates the density exactly
        values = np.array([np.exp(log_conditional_density(M, x, p)) for p in points])
        reference = np.exp(-np.abs(points[:, 0]) ** 2) / np.pi
        assert float(weights @ (values / reference)) == pytest.approx(1.0, abs=1e-10)


class TestKeptDraw:
    """``_draws`` keeps each law's last draw for its (n_out, seed, count) key."""

    @staticmethod
    def _counting(monkeypatch):
        """Count the draws made."""
        calls, real = [], flowmodel.draw_inputs_and_noise

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(flowmodel, "draw_inputs_and_noise", counted)
        return calls

    def test_kept_arrays_are_read_only_and_equal_a_fresh_draw(self, monkeypatch):
        calls = self._counting(monkeypatch)
        dist = InputDistribution.qpsk(2)
        kept = flowmodel._draws(dist, 2, 11, 9000, 2)
        again = flowmodel._draws(dist, 2, 11, 9000, 2)
        assert len(calls) == 1 and all(a is b for a, b in zip(again, kept))
        inputs, noise = flowmodel.draw_inputs_and_noise(dist, 2, 11, 9000, workers=2)
        # the kept noise density is the noise's own, bit for bit
        for array, fresh in zip(kept, (inputs, noise, flowmodel._log_noise_density(noise, 2, axis=1))):
            assert not array.flags.writeable
            np.testing.assert_array_equal(array, fresh)
        for array in kept:
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_any_other_key_redraws(self, monkeypatch):
        calls = self._counting(monkeypatch)
        dist = InputDistribution.bpsk(1)
        base = (dist, 1, 3, 2000, 1)
        changed = [
            (dist, 1, 4, 2000, 1),  # seed
            (dist, 1, 3, 2001, 1),  # count
            (dist, 2, 3, 2000, 1),  # n_out
        ]
        for key in changed:  # each pair draws twice: the base key was dropped by the last change
            flowmodel._draws(*base)
            flowmodel._draws(*key)
        assert len(calls) == 2 * len(changed)
        # the worker count is not in the key: the draw is the same bits for any, so it is served
        kept = flowmodel._draws(*base)
        assert all(a is b for a, b in zip(flowmodel._draws(dist, 1, 3, 2000, 2), kept))
        assert len(calls) == 2 * len(changed) + 1

    def test_each_law_keeps_its_own_draw(self, monkeypatch):
        calls = self._counting(monkeypatch)
        first, second = InputDistribution.bpsk(1), InputDistribution.bpsk(1)  # equal laws, two objects
        kept = flowmodel._draws(first, 1, 3, 2000)
        other = flowmodel._draws(second, 1, 3, 2000)
        assert all(a is b for a, b in zip(flowmodel._draws(first, 1, 3, 2000), kept))
        assert all(a is not b for a, b in zip(other, kept))
        assert len(calls) == 2

    def test_dropping_a_law_frees_its_draw(self):
        dist = InputDistribution.qpsk(2)
        law, noise = weakref.ref(dist), weakref.ref(flowmodel._draws(dist, 2, 3, 2000)[1])
        del dist
        gc.collect()
        assert law() is None and noise() is None

    def test_refused_draw_keeps_nothing(self, monkeypatch):
        calls = self._counting(monkeypatch)
        dist = InputDistribution.bpsk(1)
        flowmodel._draws(dist, 1, 3, 2000)
        monkeypatch.setattr(flowmodel, "_DRAW_CAP_BYTES", 2000 * 32)
        with pytest.raises(CostGuardError):
            flowmodel._draws(dist, 1, 3, 2001)
        assert "draw" not in dist._kept
        flowmodel._draws(dist, 1, 3, 2000)
        assert len(calls) == 3
