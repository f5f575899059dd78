"""Probabilistic model of the coded-flow channel ``z = M x + n``.

Noise is circularly-symmetric complex Gaussian with unit variance per
component, so the conditional density is
``p(z|x) = pi**(-n) * exp(-||z - M x||**2)``.  Inputs are either a finite
complex constellation with point probabilities or a unit-covariance complex
Gaussian; Gaussian inputs use exact closed forms for the output density and
score instead of mixture sums.

Mixture log-densities come from one support-major kernel, ``_mixture_lse``:
a (K, N) real product of exponents, max-shifted and summed over components,
that also returns the unnormalised posterior weights.  ``mixture_log_density``,
``mixture_posterior_mean``, ``output_score`` and the exact fallback of
``estimator.quadrature_moments`` all call it.  An output log-density below
-700 raises ``DensityUnderflow`` rather than silently flushing to zero.

Score convention: the gradient with respect to the output is taken in
conjugate coordinates, entry k being ``(d/dRe z_k + i d/dIm z_k) / 2``
applied to ``log p(z)``.  Under this convention the posterior-mean identity
``M E[x|z] = z + score(z)`` holds exactly.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import CostGuardError, DensityUnderflow, EmptySupport

LOG_UNDERFLOW = -700.0
_PROB_TOL = 1e-12
_SAMPLE_CHUNK = 4096
# per chunk of points, 8*K B a point, never the worker count: fixes the chunking.  512 KiB was
# the fastest of 64 KiB-4 MiB at 2e5 points, K = 16 and 64, on 1 and 2 threads (2 MiB L2 a core)
_LSE_CHUNK_BYTES = 1 << 19
_DRAW_CAP_BYTES = 1 << 30  # input and noise draws, 16 B an entry: 16,777,216 figure1 samples (64 B each)

_QPSK_SYMBOLS = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)


@dataclass(frozen=True)
class InputDistribution:
    """Input law of the flow vector: finite support or unit Gaussian."""

    kind: str
    dimension: int
    support: np.ndarray | None = None
    probs: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("discrete", "gaussian"):
            raise ValueError(f"unknown input kind {self.kind!r}")
        if self.kind == "discrete":
            if self.support is None or len(self.support) == 0:
                raise EmptySupport("discrete input needs at least one support point")
            support = np.atleast_2d(np.asarray(self.support, dtype=complex))
            if support.shape[1] != self.dimension:
                raise ValueError("support vectors do not match the declared dimension")
            probs = (
                np.full(len(support), 1.0 / len(support))
                if self.probs is None
                else np.asarray(self.probs, dtype=float)
            )
            if probs.shape != (len(support),):
                raise ValueError("probs length must match support")
            if np.any(probs < 0) or abs(probs.sum() - 1.0) > _PROB_TOL:
                raise ValueError("probs must be nonnegative and sum to 1 within 1e-12")
            support.setflags(write=False)
            probs.setflags(write=False)
            object.__setattr__(self, "support", support)
            object.__setattr__(self, "probs", probs)

    # -- constructors ---------------------------------------------------

    @classmethod
    def discrete(cls, support, probs=None) -> "InputDistribution":
        support = np.atleast_2d(np.asarray(support, dtype=complex))
        return cls(kind="discrete", dimension=support.shape[1], support=support, probs=probs)

    @classmethod
    def point(cls, x0) -> "InputDistribution":
        """Deterministic input: a single support point with probability 1."""
        x0 = np.atleast_1d(np.asarray(x0, dtype=complex))
        return cls.discrete(x0[None, :])

    @classmethod
    def bpsk(cls, dimension: int = 1) -> "InputDistribution":
        symbols = np.array([1.0, -1.0], dtype=complex)
        return cls.discrete(_product_constellation(symbols, dimension))

    @classmethod
    def qpsk(cls, dimension: int = 1) -> "InputDistribution":
        return cls.discrete(_product_constellation(_QPSK_SYMBOLS, dimension))

    @classmethod
    def gaussian(cls, dimension: int) -> "InputDistribution":
        return cls(kind="gaussian", dimension=dimension)

    # -- moments ----------------------------------------------------------

    @property
    def log_probs(self) -> np.ndarray:
        return np.log(self.probs)

    def mean(self) -> np.ndarray:
        if self.kind == "gaussian":
            return np.zeros(self.dimension, dtype=complex)
        return self.probs @ self.support

    def covariance(self) -> np.ndarray:
        if self.kind == "gaussian":
            return np.eye(self.dimension, dtype=complex)
        mu = self.mean()
        centered = self.support - mu
        return np.einsum("k,ki,kj->ij", self.probs, centered, centered.conj())

    def entropy_nats(self) -> float:
        """Shannon entropy of a discrete input; infinite for Gaussian."""
        if self.kind == "gaussian":
            return np.inf
        p = self.probs[self.probs > 0]
        return float(-(p @ np.log(p)))


def _product_constellation(symbols: np.ndarray, dimension: int) -> np.ndarray:
    grids = np.meshgrid(*([np.arange(len(symbols))] * dimension), indexing="ij")
    index = np.stack(grids, axis=-1).reshape(-1, dimension)
    return symbols[index]


@dataclass(frozen=True)
class SampleBatch:
    """Paired (x, z) draws; identical (seed, count, model) gives identical arrays."""

    seed: int
    count: int
    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        self.inputs.setflags(write=False)
        self.outputs.setflags(write=False)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


def _log_noise_density(v, n, axis=None):
    """``-n log pi - |v|^2``, the log density of unit complex Gaussian noise
    ``v`` in n dimensions, with ``|v|^2`` summed over ``axis``."""
    return -n * np.log(np.pi) - np.sum(np.abs(v) ** 2, axis=axis)


def log_conditional_density(M, x, z) -> float:
    """log p(z|x) = -n log(pi) - ||z - Mx||^2."""
    M = np.asarray(M, dtype=complex)
    x = np.asarray(x, dtype=complex)
    z = np.asarray(z, dtype=complex)
    if x.shape != (M.shape[1],) or z.shape != (M.shape[0],):
        raise ValueError(
            f"dimension mismatch: M{M.shape}, x{x.shape}, z{z.shape}"
        )
    return float(_log_noise_density(z - M @ x, M.shape[0]))


def _output_moments(M) -> np.ndarray:
    """Output covariance I + M M^H for a unit-covariance Gaussian input."""
    M = np.asarray(M, dtype=complex)
    return np.eye(M.shape[0], dtype=complex) + M @ M.conj().T


def _log_output_density(M, dist: InputDistribution, points) -> np.ndarray:
    """log p(z) at each row of ``points``: the Gaussian closed form, unchecked
    against the floor, or one ``mixture_log_density`` call."""
    if dist.kind == "gaussian":
        cov = _output_moments(M)
        _, logdet = np.linalg.slogdet(cov)
        quad = np.real(np.einsum("ni,ni->n", points.conj(), points @ np.linalg.inv(cov).T))
        return -M.shape[0] * np.log(np.pi) - logdet - quad
    return mixture_log_density(dist.support @ M.T, dist.log_probs, points)


def log_output_density(M, dist: InputDistribution, z) -> float:
    """log p(z) for the mixture (discrete input) or Gaussian closed form."""
    M = np.asarray(M, dtype=complex)
    z = np.asarray(z, dtype=complex)
    n_out = M.shape[0]
    if z.shape != (n_out,):
        raise ValueError(f"z has shape {z.shape}, expected ({n_out},)")
    return float(_above_floor(_log_output_density(M, dist, z[None, :]))[0])


def output_score(M, dist: InputDistribution, z) -> np.ndarray:
    """Conjugate-coordinate gradient of log p(z).

    For the unit-variance model this equals ``-(z - M E[x|z])``: each
    mixture component contributes ``(Mx - z)`` weighted by its posterior
    probability.  Gaussian inputs use ``-(I + M M^H)^{-1} z`` directly.
    """
    M = np.asarray(M, dtype=complex)
    z = np.asarray(z, dtype=complex)
    if dist.kind == "gaussian":
        log_output_density(M, dist, z)  # dimension + underflow guard
        return -np.linalg.solve(_output_moments(M), z)
    means = dist.support @ M.T
    log_pz, w, total = _mixture_lse(means, dist.log_probs, z[None, :])
    _above_floor(log_pz)
    return (w[:, 0] @ means) / total[0] - z


# ---------------------------------------------------------------------------
# batched mixture evaluation (shared by the estimation and information layers)
# ---------------------------------------------------------------------------


def _above_floor(log_pz: np.ndarray) -> np.ndarray:
    """``log_pz``, or ``DensityUnderflow`` naming its lowest value when that lies below the floor."""
    lowest = float(log_pz.min(initial=np.inf))
    if lowest < LOG_UNDERFLOW:
        raise DensityUnderflow(f"log p(z) = {lowest:.1f} fell below {LOG_UNDERFLOW}")
    return log_pz


def _mixture_lse(means, log_probs, points):
    """``(log p(z), w, total)`` at each point; ``w / total`` is the posterior over components.

    Exponents ``c_k + 2 Re(conj(mean_k) z)`` are one real (K, N) product of the (re, im)-interleaved
    views; ``w`` is them max-shifted and exponentiated, ``total`` its sums over axis 0."""
    means = np.ascontiguousarray(means, dtype=complex)
    points = np.ascontiguousarray(points, dtype=complex)
    flat = points.view(float)
    w = (2.0 * means.view(float)) @ flat.T
    w += (log_probs - np.sum(np.abs(means) ** 2, axis=1))[:, None]
    mx = w.max(axis=0)
    w -= mx
    np.exp(w, out=w)
    total = w.sum(axis=0)
    log_pz = mx + np.log(total) - np.einsum("ij,ij->i", flat, flat) - means.shape[1] * np.log(np.pi)
    return log_pz, w, total


def mixture_log_density(means, log_probs, points) -> np.ndarray:
    """log p(z) at many points for a complex-Gaussian mixture with unit noise.

    ``means`` has shape (K, n), ``points`` (N, n); returns shape (N,).  A
    value below ``LOG_UNDERFLOW`` raises ``DensityUnderflow``.
    """
    points = np.asarray(points, dtype=complex)
    rows = max(1, _LSE_CHUNK_BYTES // (8 * len(means)))
    out = np.empty(points.shape[0])
    for start in range(0, points.shape[0], rows):
        out[start : start + rows] = _mixture_lse(means, log_probs, points[start : start + rows])[0]
    return _above_floor(out)


def mixture_posterior_mean(means, log_probs, support, points) -> np.ndarray:
    """Posterior mean of the mixture label vector at each point, chunked."""
    points = np.asarray(points, dtype=complex)
    parts = np.ascontiguousarray(support, dtype=complex).view(float)  # (K, 2d), re/im interleaved
    rows = max(1, _LSE_CHUNK_BYTES // (8 * len(means)))
    out = np.empty((points.shape[0], parts.shape[1]))
    for start in range(0, points.shape[0], rows):
        log_pz, w, total = _mixture_lse(means, log_probs, points[start : start + rows])
        _above_floor(log_pz)
        np.divide(w.T @ parts, total[:, None], out=out[start : start + rows])
    return out.view(complex)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _philox(seed: int, stream: int) -> np.random.Generator:
    """The Philox generator keyed by (seed, stream).  The seed is taken modulo 2**64, so any
    integer seed, a negative one too, keys a stream; a seed in [0, 2**64) is used as is."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stream)])
    return np.random.Generator(np.random.Philox(key=key))


def _draw_chunk(dist, n_out, seed, chunk, count):
    rng = _philox(seed, chunk)
    if dist.kind == "discrete":
        u = rng.random(count)
        idx = np.searchsorted(np.cumsum(dist.probs), u, side="right")
        x = dist.support[np.minimum(idx, len(dist.probs) - 1)]
    else:
        xr = rng.standard_normal((count, 2 * dist.dimension))
        x = (xr[:, ::2] + 1j * xr[:, 1::2]) / np.sqrt(2.0)
    nr = rng.standard_normal((count, 2 * n_out))
    noise = (nr[:, ::2] + 1j * nr[:, 1::2]) / np.sqrt(2.0)
    return x, noise


def draw_inputs_and_noise(dist: InputDistribution, n_out: int, seed: int, count: int, *, workers: int = 1):
    """Input and noise draws without forming z; used for common-random-number
    workflows where the same draws are pushed through many channel matrices.

    Draws are keyed per fixed-size chunk by (seed, chunk index) through a
    counter-based bit generator, so identical (seed, count) produce
    bitwise-identical arrays for any number of workers.  Draws over
    ``_DRAW_CAP_BYTES`` raise ``CostGuardError`` before any allocation.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    need = count * (dist.dimension + n_out) * 16
    if need > _DRAW_CAP_BYTES:
        raise CostGuardError(
            f"{count} Monte Carlo samples need {need / 2**30:.3g} GiB of draws, over the {_DRAW_CAP_BYTES >> 30} GiB cost guard"
        )
    xs = np.empty((count, dist.dimension), dtype=complex)
    ns = np.empty((count, n_out), dtype=complex)
    spans = [
        (c, start, min(start + _SAMPLE_CHUNK, count))
        for c, start in enumerate(range(0, count, _SAMPLE_CHUNK))
    ]

    def fill(span):
        chunk, start, stop = span
        x, noise = _draw_chunk(dist, n_out, seed, chunk, stop - start)
        xs[start:stop] = x
        ns[start:stop] = noise

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, spans))
    else:
        for span in spans:
            fill(span)
    return xs, ns


def sample(M, dist: InputDistribution, seed: int, count: int, *, workers: int = 1) -> SampleBatch:
    """Draw ``count`` paired (x, z) samples with z = Mx + n.

    Reproducibility contract: identical (seed, count, model) give
    bitwise-identical batches regardless of the worker count.
    """
    M = np.asarray(M, dtype=complex)
    if dist.dimension != M.shape[1]:
        raise ValueError("input dimension does not match the system matrix")
    xs, ns = draw_inputs_and_noise(dist, M.shape[0], seed, count, workers=workers)
    return SampleBatch(seed=seed, count=count, inputs=xs, outputs=xs @ M.T + ns)
