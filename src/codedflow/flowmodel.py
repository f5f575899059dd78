"""Probabilistic model of the coded-flow channel ``z = M x + n``.

Noise is circularly-symmetric complex Gaussian with unit variance per
component, so the conditional density is
``p(z|x) = pi**(-n) * exp(-||z - M x||**2)``.  Inputs are either a finite
complex constellation with point probabilities or a unit-covariance complex
Gaussian, whose closed forms read one factorisation of ``S = I + M M^H`` (``_gaussian_output``).
``_channel`` is the one shape check: a channel's width is the law's dimension, outputs (N, rows).

Every pointwise mixture sum (``mixture_log_density``, ``mixture_posterior_mean``, ``output_score``
and the underflow fallback of ``estimator.quadrature_moments``) is one fused chunk kernel,
``_mixture_chunks``, whose weights ``p_j exp(-|z - mean_j|^2)`` are one real product of row-major
operands, exponentiated in place without a max shift.  Given support labels, its points are noise
about ``means[label]``, and it forms ``z`` chunk by chunk in its own buffer.  A chunk redoes its
sums at or below ``_EXACT_FLOOR`` in place, shifted by their largest exponent.  An output log-density below -700
raises ``DensityUnderflow`` rather than silently flushing to zero.  ``workers`` is the whole
thread budget of a call: the library's pools hold BLAS at one thread (``_pool_map``).

A law works out its own structure once, when it is built (``_structure``): its phase rotation,
its closure under conjugation and its split into ``Re x`` and ``Im x`` laws.  It keeps the work
done for channels in its ``_kept`` store, guarded by ``_KEPT_LOCK`` and freed with the law:
``estimator.quadrature_moments`` keeps its passes there, and ``_draws`` its last draw, read-only,
for its key (``n_out``, seed, count).  So a Monte Carlo run draws once: ``sample`` and
``estimator._information`` both draw through ``_draws``.  A discrete law's draw holds each sample's
support label, not its input vector, so no Monte Carlo pass forms an (N, n) array of inputs or
outputs: the kernel forms ``z = means[label] + noise`` per chunk.  Every Monte Carlo mean and
standard error is read from sums over ``_batches``, and the draw keeps those of ``log p(z|x)``.

Score convention: the gradient with respect to the output is taken in
conjugate coordinates, entry k being ``(d/dRe z_k + i d/dIm z_k) / 2``
applied to ``log p(z)``.  Under this convention the posterior-mean identity
``M E[x|z] = z + score(z)`` holds exactly.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CostGuardError, DensityUnderflow, EmptySupport, _count

LOG_UNDERFLOW = -700.0
_PROB_TOL = 1e-12
_SAMPLE_CHUNK = 4096
# per chunk of points, 8*K B a point, never the worker count: fixes the chunking.  At 2e5 points,
# K = 16 and 64, one call on one thread was level from 256 KiB to 2 MiB within timing noise; two
# calls on two threads ran 1.4-2.8x slower at 256 KiB and below.  1 MiB beat 512 KiB there by
# 12-30% but raised figure1's Monte Carlo verify peak memory by 1.8 MB (2 vCPUs, 2 MiB L2 a core)
_LSE_CHUNK_BYTES = 1 << 19
_EXACT_FLOOR = 1e-290  # unshifted mixture sums at or below this may have underflowed: redone exactly
# caps a draw's kept bytes and, apart, ``sample``'s: 32,537,631 figure1 samples drawn at 33 B, 16,777,216 sampled at 64 B
_DRAW_CAP_BYTES = 1 << 30
_SE_BATCHES = 32  # the batches of every Monte Carlo draw (``_batches``), whose sums give means and errors

_KEPT_LOCK = threading.Lock()  # guards every law's ``_kept`` of work for channels: "draw" here, "passes" in estimator
_QPSK_SYMBOLS = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class InputDistribution:
    """Input law of the flow vector: finite support or unit Gaussian.  A discrete law keeps read-only
    copies of its points of nonzero probability and of their probabilities.  Three read-only fields,
    worked out once at construction by ``_structure``, describe its structure: ``phase_order`` is 4
    when ``x -> i x`` leaves the law unchanged, else 2 when ``x -> -x`` does, else 1;
    ``conjugate_closed`` says whether ``x -> conj(x)`` leaves it unchanged; ``halves`` is
    ``((law, multiplicity), ...)``, the laws of ``Re x`` and ``Im x`` when the law is exactly their
    product, else ``None``.  Laws compare and hash by identity: each keeps the work done for its
    channels in ``_kept``."""

    kind: str
    dimension: int
    support: np.ndarray | None = None
    probs: np.ndarray | None = None
    phase_order: int = field(default=4, init=False, repr=False)
    conjugate_closed: bool = field(default=True, init=False, repr=False)
    halves: tuple | None = field(default=None, init=False, repr=False)
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("discrete", "gaussian"):
            raise ValueError(f"unknown input kind {self.kind!r}")
        _count("input dimension", self.dimension, 1)
        if self.kind == "discrete":
            if self.support is None or len(self.support) == 0:
                raise EmptySupport("discrete input needs at least one support point")
            support = np.atleast_2d(np.asarray(self.support, dtype=complex))
            if support.shape[1] != self.dimension:
                raise ValueError("support vectors do not match the declared dimension")
            if not np.all(np.isfinite(support)):
                raise ValueError("support points must be finite")
            probs = (
                np.full(len(support), 1.0 / len(support))
                if self.probs is None
                else np.asarray(self.probs, dtype=float)
            )
            if probs.shape != (len(support),):
                raise ValueError("probs length must match support")
            if not (np.all(probs >= 0) and abs(probs.sum() - 1.0) <= _PROB_TOL):  # NaN fails both
                raise ValueError("probs must be nonnegative and sum to 1 within 1e-12")
            keep = probs > 0  # a point of probability 0 is not in the law
            support, probs = support[keep], probs[keep]
            support.setflags(write=False)
            probs.setflags(write=False)
            order, closed, halves = _structure(support, probs)
            fields = dict(support=support, probs=probs, phase_order=order, conjugate_closed=closed, halves=halves)
            for name, value in fields.items():
                object.__setattr__(self, name, value)

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
        return float(-(self.probs @ np.log(self.probs)))


def _structure(support: np.ndarray, probs: np.ndarray):
    """``(phase_order, conjugate_closed, halves)`` of the law on these (point, probability) rows.

    The order is the first of 4 (``x -> i x``) and 2 (``x -> -x``) whose rotation maps the rows onto
    themselves, else 1; the law is conjugation-closed if ``x -> conj(x)`` does.  Both are compared
    exactly, as multiplying by i or -1 and conjugating are exact.  The halves are the laws of
    ``Re x`` and ``Im x`` on real support, or one of them twice if they are equal, when the support
    is their Cartesian product and each probability is bitwise the product of its two marginals;
    else, or if the support is real, ``None``.  Through a real M, ``(Re x, Re z)`` and
    ``(Im x, Im z)`` are then independent real problems with N(0, 1/2) noise per axis, whose
    information and error matrices add."""

    def rows(points):
        table = np.column_stack([points.real, points.imag, probs])
        return table[np.lexsort(table.T[::-1])]

    def marginal(parts):  # sorted distinct rows, each row's index among them, their probabilities
        keys = list(map(tuple, parts.tolist()))
        values = sorted(set(keys))  # not np.unique, which imports numpy.ma (0.5 MB) on first use
        code = {value: n for n, value in enumerate(values)}
        index = np.array([code[key] for key in keys])
        return np.array(values), index, np.bincount(index, probs, len(values))

    own = rows(support)
    closed = np.array_equal(rows(support.conj()), own)
    order = next((order for order, omega in ((4, 1j), (2, -1)) if np.array_equal(rows(support * omega), own)), 1)
    if not support.imag.any():
        return order, closed, None
    (re, i, p_re), (im, j, p_im) = marginal(support.real), marginal(support.imag)
    cells = np.bincount(i * len(im) + j, minlength=len(re) * len(im))  # support points per (Re, Im) pair
    if not (np.all(cells == 1) and np.array_equal(probs, p_re[i] * p_im[j])):
        return order, closed, None
    if np.array_equal(re, im) and np.array_equal(p_re, p_im):
        return order, closed, ((InputDistribution.discrete(re, p_re), 2),)
    return order, closed, ((InputDistribution.discrete(re, p_re), 1), (InputDistribution.discrete(im, p_im), 1))


def _product_constellation(symbols: np.ndarray, dimension: int) -> np.ndarray:
    grids = np.meshgrid(*([np.arange(len(symbols))] * _count("input dimension", dimension, 1)), indexing="ij")
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


def log_conditional_density(M, x, z) -> float:
    """log p(z|x) = -n log(pi) - ||z - Mx||^2."""
    M = np.asarray(M, dtype=complex)
    x = np.asarray(x, dtype=complex)
    z = np.asarray(z, dtype=complex)
    if x.shape != (M.shape[1],) or z.shape != (M.shape[0],):
        raise ValueError(
            f"dimension mismatch: M{M.shape}, x{x.shape}, z{z.shape}"
        )
    return float(-M.shape[0] * np.log(np.pi) - np.sum(np.abs(z - M @ x) ** 2))


def _channel(M, dist: InputDistribution, points=None):
    """``M`` as a complex array, or ``(M, points)`` when ``points`` are given, refused unless ``M`` has
    the law's ``dimension`` columns and the points are an (N, rows of M) stack: the one shape check."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise ValueError(f"a channel of shape {M.shape} is not a matrix")
    if M.shape[1] != dist.dimension:
        raise ValueError(f"the channel's input dimension {M.shape[1]} is not the input law's {dist.dimension}")
    if points is None:
        return M
    points = np.asarray(points, dtype=complex)
    if points.ndim != 2 or points.shape[1] != M.shape[0]:
        raise ValueError(f"outputs of shape {points.shape} are not an (N, {M.shape[0]}) stack")
    return M, points


def _gaussian_output(M, inverse=True):
    """``(P, log det S)``, ``P = S^{-1}`` or ``None``, for a unit Gaussian input's ``S = I + M M^H``."""
    S = np.eye(M.shape[0], dtype=complex) + M @ M.conj().T
    return (np.linalg.inv(S) if inverse else None), np.linalg.slogdet(S)[1]


def _log_output_density(M, dist: InputDistribution, points, labels=None, *, gaussian=None) -> np.ndarray:
    """log p(z) at each row of ``points``, or of ``z = support[labels] @ M.T + points`` given a discrete
    law's ``labels``: the Gaussian closed form, from ``_gaussian_output(M)`` if not ``gaussian``,
    unchecked against the floor, or one ``mixture_log_density`` call."""
    if dist.kind == "gaussian":
        P, logdet = gaussian or _gaussian_output(M)
        quad = np.real(np.einsum("ni,ni->n", points.conj(), points @ P.T))
        return -M.shape[0] * np.log(np.pi) - logdet - quad
    return mixture_log_density(dist.support @ M.T, dist.log_probs, points, labels)


def log_output_density(M, dist: InputDistribution, z) -> float:
    """log p(z) for the mixture (discrete input) or Gaussian closed form."""
    M, points = _channel(M, dist, [z])
    return float(_above_floor(_log_output_density(M, dist, points))[0])


def output_score(M, dist: InputDistribution, z) -> np.ndarray:
    """Conjugate-coordinate gradient of log p(z).

    For the unit-variance model this equals ``-(z - M E[x|z])``: each
    mixture component contributes ``(Mx - z)`` weighted by its posterior
    probability.  Gaussian inputs use ``-(I + M M^H)^{-1} z`` directly.
    """
    M, points = _channel(M, dist, [z])
    if dist.kind == "gaussian":
        _above_floor(_log_output_density(M, dist, points, gaussian=(gaussian := _gaussian_output(M))))
        return -(gaussian[0] @ points[0])
    means = dist.support @ M.T
    _, w, total, log_pz = next(_mixture_chunks(means, dist.log_probs, points))
    _above_floor(log_pz)
    return (w[:, 0] @ means) / total[0] - points[0]


# ---------------------------------------------------------------------------
# batched mixture evaluation (shared by the estimation and information layers)
# ---------------------------------------------------------------------------


def _above_floor(log_pz: np.ndarray) -> np.ndarray:
    """``log_pz``, or ``DensityUnderflow`` naming its lowest value when that lies below the floor."""
    lowest = float(log_pz.min(initial=np.inf))
    if lowest < LOG_UNDERFLOW:
        raise DensityUnderflow(f"log p(z) = {lowest:.1f} fell below {LOG_UNDERFLOW}")
    return log_pz


def _mixture_chunks(means, log_probs, points, labels=None):
    """``(span, w, total, log p(z))`` per chunk of points; ``w / total`` is the posterior over components.
    Given ``labels``, the points are noise about ``means[labels]``: each chunk gathers its rows of the
    means into its block (``np.take``) and adds the noise, the same float adds as ``means[labels] +
    points``, so no (N, n) array of outputs is formed.

    ``w[j, n] = p_j exp(-|z_n - mean_j|^2)`` is one real product ``[2 mean, log p - |mean|^2, -1] .
    [z, 1, |z|^2]^T`` exponentiated in place, in one buffer reused for every chunk; the points fill a
    C-contiguous (2n+2, rows) block, reused likewise.  The exponent is at most ``log p_j <= 0``, so it
    needs no shift, but totals at or below ``_EXACT_FLOOR`` may have underflowed: their columns are
    redone in place shifted by their maximum, so that a log p(z) far below -700 reads its true value
    in the ``DensityUnderflow`` message."""
    means = np.ascontiguousarray(means, dtype=complex)
    points = np.ascontiguousarray(points, dtype=complex)
    (K, n), N = means.shape, len(points)
    coef = np.column_stack([2.0 * means.view(float), log_probs - np.sum(np.abs(means) ** 2, axis=1), -np.ones(K)])
    means_t = np.ascontiguousarray(means.view(float).T)  # (2n, K), gathered per chunk given labels
    rows = max(1, min(N, _LSE_CHUNK_BYTES // (8 * K)))
    cols, buf, ones = np.ones((2 * n + 2, rows)), np.empty(K * rows), np.ones(K)  # cols: [z, 1, |z|^2]^T
    for start in range(0, N, rows):
        block = points[start : start + rows]
        z = cols[:, : len(block)]
        if labels is None:
            z[: 2 * n] = block.view(float).T
        else:  # labels lie in range: "clip" skips the checked mode's buffered copy of ``out``
            np.take(means_t, labels[start : start + rows], axis=1, out=z[: 2 * n], mode="clip")
            z[: 2 * n] += block.view(float).T
        np.einsum("ij,ij->j", z[: 2 * n], z[: 2 * n], out=z[-1])  # down the filled columns: rows of 2n are short
        w = np.matmul(coef, z, out=buf[: K * len(block)].reshape(K, -1))
        total = ones @ np.exp(w, out=w)
        log_pz = np.log(np.maximum(total, _EXACT_FLOOR)) - n * np.log(np.pi)
        if total.min() <= _EXACT_FLOOR:  # one test a chunk, the scan only if it fires
            redo = np.flatnonzero(total <= _EXACT_FLOOR)
            e = coef @ z[:, redo]
            mx = e.max(axis=0)
            w[:, redo] = e = np.exp(e - mx)
            total[redo] = ones @ e
            log_pz[redo] = mx + np.log(total[redo]) - n * np.log(np.pi)
        yield slice(start, start + len(block)), w, total, log_pz


def mixture_log_density(means, log_probs, points, labels=None) -> np.ndarray:
    """log p(z) at many points for a complex-Gaussian mixture with unit noise.

    ``means`` has shape (K, n), ``points`` (N, n); returns shape (N,).  Given
    ``labels`` (N,), the points are noise about ``means[labels]``.  A value
    below ``LOG_UNDERFLOW`` raises ``DensityUnderflow``.
    """
    out = np.empty(len(points))
    for span, _, _, log_pz in _mixture_chunks(means, log_probs, points, labels):
        out[span] = log_pz
    return _above_floor(out)


def mixture_posterior_mean(means, log_probs, support, points, labels=None) -> np.ndarray:
    """Posterior mean of the mixture label vector at each point, chunked; given ``labels``, the
    points are noise about ``means[labels]``."""
    parts = np.ascontiguousarray(support, dtype=complex).view(float)  # (K, 2d), re/im interleaved
    out = np.empty((len(points), parts.shape[1]))
    for span, w, total, log_pz in _mixture_chunks(means, log_probs, points, labels):
        _above_floor(log_pz)
        np.divide(w.T @ parts, total[:, None], out=out[span])
    return out.view(complex)


# ---------------------------------------------------------------------------
# sampling, on the library's thread pools
# ---------------------------------------------------------------------------


class _OneBlasThread:
    """Holds numpy's bundled OpenBLAS at one thread while any of the library's pools runs.  The count
    is process-wide, so pools share a depth count under a lock: the first in saves it, the last out
    restores it.  The library is looked up on first entry, never at import; if absent, no-op."""

    def __init__(self):
        self._lock, self._depth, self._saved = threading.Lock(), 0, None
        self._calls = ...  # (get, set) once looked up, None if not found

    @staticmethod
    def _find():
        import ctypes

        libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
        for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
            lib = ctypes.CDLL(str(path))
            if hasattr(lib, "scipy_openblas_get_num_threads64_") and hasattr(lib, "scipy_openblas_set_num_threads64_"):
                get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
                get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
                return get, put
        return None

    def __enter__(self):
        with self._lock:
            if self._calls is ...:
                self._calls = self._find()
            if self._calls is not None and self._depth == 0:
                self._saved = self._calls[0]()
                self._calls[1](1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._calls is not None and self._depth == 0:
                self._calls[1](self._saved)


_ONE_BLAS_THREAD = _OneBlasThread()


def _pool_map(fn, items, workers: int) -> list:
    """``[fn(item) for item in items]``; with more than one worker, on a pool of ``workers`` threads
    with BLAS held at one thread (``workers`` is the whole thread budget)."""
    if workers <= 1:
        return [fn(item) for item in items]
    with _ONE_BLAS_THREAD, ThreadPoolExecutor(max_workers=workers) as pool:
        tasks = [pool.submit(fn, item) for item in items]
        return [task.result() for task in tasks]


def _philox(seed: int, stream: int) -> np.random.Generator:
    """The Philox generator keyed by (seed, stream).  The seed is taken modulo 2**64, so any
    integer seed, a negative one too, keys a stream; a seed in [0, 2**64) is used as is."""
    key = np.array([np.uint64(_count("seed", seed) & 0xFFFFFFFFFFFFFFFF), np.uint64(stream)])
    return np.random.Generator(np.random.Philox(key=key))


def _draw_chunk(dist, n_out, seed, chunk, count):
    """``(inputs, noise)`` of one chunk: a discrete law's inputs are support labels, a Gaussian's vectors."""
    rng = _philox(seed, chunk)
    if dist.kind == "discrete":
        u = rng.random(count)
        x = np.minimum(np.searchsorted(np.cumsum(dist.probs), u, side="right"), len(dist.probs) - 1)
    else:
        xr = rng.standard_normal((count, 2 * dist.dimension))
        x = (xr[:, ::2] + 1j * xr[:, 1::2]) / np.sqrt(2.0)
    nr = rng.standard_normal((count, 2 * n_out))
    noise = (nr[:, ::2] + 1j * nr[:, 1::2]) / np.sqrt(2.0)
    return x, noise


def _batches(*arrays):
    """The ``_SE_BATCHES`` batches of rows of equally long arrays, as tuples of views: the one batch
    layout of every Monte Carlo draw, ``np.array_split``'s, whose first ``N % _SE_BATCHES`` are one longer."""
    return zip(*(np.array_split(array, _SE_BATCHES) for array in arrays))


def _log_noise_sums(noise: np.ndarray) -> np.ndarray:
    """``log p(z|x) = -n log pi - |noise|^2`` summed over each of ``_batches``, one batch of squares at a time."""
    return np.array([-b.size * np.log(np.pi) - np.sum(np.square(b.view(float))) for b, in _batches(noise)])


def _cost_guard(count: int, per_sample: int, noun: str, what: str):
    """``CostGuardError`` if ``count`` samples of ``per_sample`` B each exceed ``_DRAW_CAP_BYTES``."""
    if count * per_sample > _DRAW_CAP_BYTES:
        cap = f"the {_DRAW_CAP_BYTES / 2**30:.3g} GiB cost guard"
        raise CostGuardError(f"{count} {noun} need {count * per_sample:,} B of {what} at {per_sample} B a sample, over {cap}")


def draw_inputs_and_noise(dist: InputDistribution, n_out: int, seed: int, count: int, *, workers: int = 1):
    """Input and noise draws without forming z; used for common-random-number
    workflows where the same draws are pushed through many channel matrices.
    A discrete law's inputs are its support labels, shape (count,), in the
    smallest unsigned dtype that holds ``K - 1`` (the inputs are
    ``dist.support[labels]``); a Gaussian law's are vectors, (count, dimension).

    Draws are keyed per fixed-size chunk by (seed, chunk index) through a
    counter-based bit generator, so identical (seed, count) produce
    bitwise-identical arrays for any number of workers.  ``workers`` is the
    whole thread budget: the chunks are filled on that many threads, with
    BLAS held at one thread (``_pool_map``).  The cost guard prices what a
    draw keeps, a label's itemsize (1 B up to 256 points) or a Gaussian input's
    ``16 dimension`` B, and ``16 n_out`` B of noise a sample: a draw over
    ``_DRAW_CAP_BYTES`` raises ``CostGuardError`` before any allocation.
    """
    count = _count("count", count, 1)
    discrete = dist.kind == "discrete"
    shape = (count,) if discrete else (count, dist.dimension)
    dtype = np.min_scalar_type(len(dist.probs) - 1) if discrete else np.dtype(complex)
    _cost_guard(count, dtype.itemsize * (1 if discrete else dist.dimension) + 16 * n_out, "Monte Carlo samples", "draws")
    xs, ns = np.empty(shape, dtype), np.empty((count, n_out), dtype=complex)
    spans = [(c, start, min(start + _SAMPLE_CHUNK, count)) for c, start in enumerate(range(0, count, _SAMPLE_CHUNK))]

    def fill(span):
        chunk, start, stop = span
        x, noise = _draw_chunk(dist, n_out, seed, chunk, stop - start)
        xs[start:stop] = x
        ns[start:stop] = noise

    _pool_map(fill, spans, workers)
    return xs, ns


def _draws(dist: InputDistribution, n_out: int, seed: int, count: int, workers: int = 1):
    """``draw_inputs_and_noise`` (a discrete law's support labels, or a Gaussian law's input vectors,
    and the noise) and the noise's log density as its ``_SE_BATCHES`` batch sums (``_log_noise_sums``),
    kept in the law's store for one key: the last (``n_out``, seed, count) drawn returns the same
    read-only arrays, and any other key drops them before drawing afresh, under the lock.  The worker
    count is not in the key, as the draw is the same bits for any.  A draw that raises keeps nothing."""
    seed, count = _count("seed", seed), _count("count", count, 1)  # before the key: True never meets 1
    key = n_out, seed, count
    with _KEPT_LOCK:
        last = dist._kept.get("draw")
        if last is None or last[0] != key:
            dist._kept.pop("draw", None)
            xs, ns = draw_inputs_and_noise(dist, n_out, seed, count, workers=workers)
            kept = xs, ns, _log_noise_sums(ns)
            for array in kept:
                array.setflags(write=False)
            last = dist._kept["draw"] = key, kept
        return last[1]


def sample(M, dist: InputDistribution, seed: int, count: int, *, workers: int = 1) -> SampleBatch:
    """Draw ``count`` paired (x, z) samples with z = Mx + n.

    Reproducibility contract: identical (seed, count, model) give
    bitwise-identical batches regardless of the worker count.  The draw is
    the law's kept one (``_draws``), shared with Monte Carlo runs on its key;
    a discrete law's input vectors are formed here from its kept labels,
    under their own cost guard with the outputs: ``16 (dimension + n_out)`` B a sample.
    """
    M = _channel(M, dist)
    _cost_guard(_count("count", count, 1), 16 * (dist.dimension + M.shape[0]), "samples", "inputs and outputs")
    drawn, ns, _ = _draws(dist, M.shape[0], seed, count, workers)
    xs = dist.support[drawn] if dist.kind == "discrete" else drawn
    return SampleBatch(seed=seed, count=count, inputs=xs, outputs=xs @ M.T + ns)
