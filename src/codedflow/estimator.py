"""Conditional-mean estimation and the MMSE error matrix.

The posterior mean ``xhat(z) = E[x|z]`` is an exact posterior sum for discrete inputs and
``M^H P z`` for Gaussian inputs, ``P = (I + M M^H)^{-1}`` read from ``flowmodel._gaussian_output``;
every entry checks the channel and its outputs against the law by ``flowmodel._channel``.

One private route, ``_moments``, chooses how the information and the error matrix
``E[(x - xhat)(x - xhat)^H]`` of a channel are evaluated, for every caller in the library:
Monte Carlo with batch-means standard errors when the spec asks for it, else the Gaussian closed
forms ``log det(I + M M^H)`` and ``(I + M^H M)^{-1}``, else tensorized Gauss-Hermite quadrature
(guarded at three complex output dimensions) over one orbit of the input's phase rotation, which
``_kernel_pass`` sums over the chunks of one generator, ``_kernel_chunks``.  It shifts the exponents
by the first support point's own, or past ``_FIRST_SHIFT_LIMIT`` by each rule point's largest, and
only then scans for underflowed sums and redoes them exactly.  Through a real channel a law on real
support needs only the real axes of the noise, and a law that is exactly the product of its
``Re x`` and ``Im x`` laws (QPSK, square QAM) splits into those two real problems, whose
information and error matrices add: exact up to rounding, on at most ``nodes ** n_out`` points
(the pruned real rule) where the orbit rule keeps about a quarter of the pruned complex rule's
``nodes ** (2 n_out)``.  Any other law (8-PSK) runs on the orbit rule;
through a real channel a conjugation-closed law's error matrix is real, and is returned with an
imaginary part of exactly 0.  The rotation order, the closure and the halves are the law's own
fields, worked out once when it was built (``flowmodel._structure``).

A quadrature pass always sums the information; a conjugation-closed law runs it on the member of
``{M, conj M}`` whose first nonzero imaginary entry is positive.  The law keeps its last
``_KEPT_PASSES`` passes in its store of work done for channels (``flowmodel``) and serves each to
every later call: the conjugate side of a slope, a repeated probe, the information of a channel
after its error matrix.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import flowmodel
from .errors import CostGuardError, InvariantViolation, SingularSystemMatrix, _count
from .flowmodel import _EXACT_FLOOR, InputDistribution, SampleBatch, _batches
from .netgraph import SystemMatrices
from .quadrature import default_nodes, phase_orbit_rule, real_gauss_hermite

_HERMITIAN_TOL = 1e-10
_PSD_FLOOR = -1e-10
_DOMINANCE_FLOOR = -1e-8
_MC_MIN_SAMPLES = 1000
_QUAD_CHUNK_BYTES = 1 << 19  # rows at 16*K*(dim+1) B each fix the summation order; figure1 peaks at ~1,450 B a row
_SYSTEM_CONDITION_LIMIT = 1e10
_FIRST_SHIFT_LIMIT = 300.0  # exp(300) is far from overflow and exp(-300) above _EXACT_FLOOR
_KEPT_PASSES = 256  # quadrature passes a law keeps, oldest dropped first; a figure1 command computes at most 45


def _enough_samples(count: int) -> int:
    """``count``, or ``CostGuardError`` if it is too few samples for the 32 means of ``_batches``."""
    if count < _MC_MIN_SAMPLES:
        raise CostGuardError(f"Monte Carlo needs at least {_MC_MIN_SAMPLES} samples")
    return count


@dataclass(frozen=True)
class EngineSpec:
    """How expectations are evaluated: exact quadrature or Monte Carlo."""

    method: str = "quadrature"
    nodes: int | None = None
    samples: int = 100_000
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.method not in ("quadrature", "mc"):
            raise ValueError(f"unknown engine method {self.method!r}")
        for name in ("nodes", "samples", "seed", "workers"):
            if name != "nodes" or self.nodes is not None:
                _count(f"engine {name}", getattr(self, name), None if name == "seed" else 1)

    def mc_samples(self) -> int:
        """The sample count for a Monte Carlo draw, refused before any draw if too few for batch means."""
        return _enough_samples(self.samples)

    def resolve_nodes(self, dim: int) -> int:
        return self.nodes if self.nodes is not None else default_nodes(dim)


@dataclass(frozen=True)
class MmseMatrix:
    """Hermitian PSD error matrix E[(x - xhat)(x - xhat)^H] with provenance.

    ``standard_error`` is a per-entry batch-means estimate (Monte Carlo
    only).  Construction enforces finite entries, Hermitian symmetry to
    1e-10, positive semidefiniteness to -1e-10, and dominance by the input
    covariance; the dominance floor is widened by five standard errors for
    Monte-Carlo estimates, whose fluctuation is quantified rather than zero.
    """

    matrix: np.ndarray
    method: str
    count: int
    standard_error: np.ndarray | None = None

    @classmethod
    def checked(cls, matrix, method, count, input_covariance, standard_error=None):
        matrix = np.asarray(matrix, dtype=complex)
        if not np.all(np.isfinite(matrix)):
            raise InvariantViolation("error matrix has non-finite entries")
        herm_gap = float(np.max(np.abs(matrix - matrix.conj().T), initial=0.0))
        if herm_gap > _HERMITIAN_TOL:
            raise InvariantViolation(f"error matrix is not Hermitian: gap {herm_gap:.2e}")
        matrix = 0.5 * (matrix + matrix.conj().T)
        eigs = np.linalg.eigvalsh(matrix)
        se_scale = 0.0
        if standard_error is not None:
            se_scale = float(np.linalg.norm(standard_error))
        if eigs.min(initial=0.0) < _PSD_FLOOR - 5.0 * se_scale:
            raise InvariantViolation(f"error matrix has eigenvalue {eigs.min():.2e} below the PSD floor")
        gap_eigs = np.linalg.eigvalsh(np.asarray(input_covariance) - matrix)
        if gap_eigs.min(initial=0.0) < _DOMINANCE_FLOOR - 5.0 * se_scale:
            raise InvariantViolation(
                f"error matrix exceeds the input covariance: eigenvalue {gap_eigs.min():.2e}"
            )
        matrix.setflags(write=False)
        return cls(matrix=matrix, method=method, count=count, standard_error=standard_error)


def _as_matrix(system) -> np.ndarray:
    if isinstance(system, SystemMatrices):
        return system.M
    return np.asarray(system, dtype=complex)


# ---------------------------------------------------------------------------
# conditional mean
# ---------------------------------------------------------------------------


def conditional_mean(M, dist: InputDistribution, z) -> np.ndarray:
    """Posterior mean of the input given one observed output vector."""
    return conditional_mean_batch(M, dist, [z])[0]


def conditional_mean_batch(M, dist: InputDistribution, points) -> np.ndarray:
    """Posterior means for a batch of output vectors, shape (N, n_in)."""
    M, points = flowmodel._channel(M, dist, points)
    if dist.kind == "gaussian":  # the linear MMSE filter M^H (I + M M^H)^{-1}
        return points @ (M.conj().T @ flowmodel._gaussian_output(M)[0]).T
    means = dist.support @ M.T
    return flowmodel.mixture_posterior_mean(means, dist.log_probs, dist.support, points)


# ---------------------------------------------------------------------------
# quadrature moments
# ---------------------------------------------------------------------------


def _kernel_rule(M: np.ndarray, dist: InputDistribution, nodes: int):
    """The rule ``_kernel_chunks`` sums over, exact up to rounding: the real rule for a real channel and
    a law on real support (the output's imaginary part is then noise), else the orbit rule of the law's
    phase rotation ``x -> omega x``, as ``n -> omega n`` maps the summed integrands onto themselves.  If
    M is real and ``x -> conj(x)`` maps the law onto itself, the error matrix is real (``n -> conj(n)``)."""
    if not (M.imag.any() or dist.support.imag.any()):
        return real_gauss_hermite(M.shape[0], nodes)
    return phase_orbit_rule(M.shape[0], nodes, dist.phase_order)


def quadrature_moments(M, dist: InputDistribution, nodes: int, *, want_mmse=True, want_mi=True):
    """Exact-expectation pass over the output density of a discrete input, ``nodes`` per axis.

    Returns ``(mi_nats, error_matrix, node_count)``; either output may be ``None`` if not requested.
    A conjugation-closed law is evaluated on the canonical member of ``{M, conj M}``, the error
    matrix conjugated back: under ``conj M``, ``(conj x, conj z)`` has the law of ``(x, z)`` under M.
    A pass the law keeps for the same (nodes, canonical channel) is served, not recomputed.
    """
    nodes = _count("nodes", nodes, 1)
    M = flowmodel._channel(M, dist)
    if dist.kind != "discrete":
        raise ValueError("quadrature_moments expects a discrete input")
    flip = dist.conjugate_closed and M.imag[M.imag != 0][:1].sum() < 0  # first nonzero, row-major
    if dist.conjugate_closed:
        M = (M.conj() if flip else M) + 0.0  # + 0.0 keys -0.0 as 0.0
    kept, key = dist._kept.setdefault("passes", {}), (nodes, M.shape, M.tobytes())
    mi, err = kept.get(key, (None, None))
    if mi is None or (want_mmse and err is None):
        mi, err = _quadrature_pass(M, dist, nodes, want_mmse)
        with flowmodel._KEPT_LOCK:
            if err is not None or key not in kept:  # never drop a kept error matrix
                kept[key] = mi, err
                if len(kept) > _KEPT_PASSES:
                    del kept[next(iter(kept))]
    err = (err.conj() if flip else err.copy()) if want_mmse else None
    return (mi if want_mi else None), err, nodes


def _quadrature_pass(M: np.ndarray, dist: InputDistribution, nodes: int, want_mmse: bool):
    """``(mi, error matrix or None)`` of a discrete input through the complex channel M, the error
    matrix formed only if ``want_mmse``; the information is the same bits either way.

    Through a real M, a law that is exactly the product of its ``Re x`` and ``Im x`` laws (QPSK,
    square QAM), found when the law was built (``dist.halves``), is the multiplicity-weighted sum
    of their ``_kernel_pass``es, each on the real rule of at most ``nodes ** n_out`` points: exact up to
    rounding.  Every other law is one ``_kernel_pass`` of the law itself.
    """
    if M.imag.any() or dist.halves is None:
        return _kernel_pass(M, dist, nodes, want_mmse)
    passes = [(k, *_kernel_pass(M, law, nodes, want_mmse)) for law, k in dist.halves]
    return sum(k * mi for k, mi, _ in passes), sum(k * err for k, _, err in passes) if want_mmse else None


def _kernel_pass(M: np.ndarray, dist: InputDistribution, nodes: int, want_mmse: bool):
    """``_quadrature_pass`` of one law: its information and its errors' gram, summed over ``_kernel_chunks``."""
    probs, dim = dist.probs, dist.dimension
    mi_total, gram = 0.0, np.zeros((2 * dim, 2 * dim))
    for wq, lin, log_total, errors in _kernel_chunks(M, dist, nodes, want_mmse):
        if want_mmse:  # p_k w_q, with no ufunc buffers
            gram += (errors * np.einsum("k,q->kq", probs, wq)).reshape(2 * dim, -1) @ errors.reshape(2 * dim, -1).T
        mi_total += float((lin - probs @ log_total) @ wq)
    err_total = gram[:dim, :dim] + gram[dim:, dim:] + 1j * (gram[dim:, :dim] - gram[:dim, dim:]) if want_mmse else None
    if want_mmse and dist.conjugate_closed and not M.imag.any():
        err_total.imag = 0.0
    return mi_total, err_total


def _kernel_chunks(M: np.ndarray, dist: InputDistribution, nodes: int, want_errors: bool):
    """``(w_q, lin, log total, errors)`` per chunk of ``_kernel_rule``'s points, ``errors`` only if
    ``want_errors``.  Every yielded array is valid only until the next chunk: ``errors`` is reused.

    At ``z = mean_k + noise_q`` the mixture sum ``sum_j p_j exp(-|z - mean_j|^2)`` separates, with
    ``T2[j, q] = 2 Re(conj(mean_j) noise_q)``, into ``exp(a_q - T2[k, q] - |noise_q|^2) total``,
    ``total = W @ P``, ``W[k, j] = p_j exp(-|mean_j - mean_k|^2)``, ``P = exp(T2 - a)``.  The shift
    ``a_q`` is the first support point's own exponent ``T2[0, q]``, taken inside the product as
    ``2 (mean_j - mean_0) . noise_q``, while ``bound = 2 max_j |mean_j - mean_0|`` times a bound on
    the rule's radius (``sqrt(2 n_out (2 nodes + 1))``: no Hermite node exceeds ``sqrt(2 nodes + 1)``)
    less the smallest ``log p`` stays within ``_FIRST_SHIFT_LIMIT``: every total is then at least
    ``p_k exp(-bound) >= exp(-_FIRST_SHIFT_LIMIT)``.  Above it, ``a_q`` is the point's largest
    exponent, and the totals at or below ``_EXACT_FLOOR``, which may have underflowed, are redone by
    the pointwise kernel, each error again a weighted sum of ``s_j - s_k``.  The information sums
    ``p_k w_q ((T2[k, q] - a_q) - log total)`` per entry, as ``(lin - p @ log total) @ w_q`` with
    ``lin = p @ (T2 - a)`` and no other term, so a point input, or the zero channel of a law whose
    probabilities sum to exactly 1, gives exactly 0.  The errors ``xhat - s_k`` are ``(W[k, j] (s_j -
    s_k)) @ P / total``, one product whose ``j = k`` term is exactly 0: ``xhat`` never cancels ``s_k``.
    """
    noise, weights = _kernel_rule(M, dist, nodes)
    support, probs = dist.support, dist.probs
    K, dim = support.shape
    means = support @ M.T
    gaps2 = np.sum(np.abs(means[:, None] - means) ** 2, axis=2)  # |mean_j - mean_k|^2, symmetric
    Wt = probs * np.exp(-gaps2)  # W[k, j], p_k on its diagonal
    bound = 2.0 * np.sqrt(gaps2[0].max() * 2 * M.shape[0] * (2 * nodes + 1))  # of |T2 - T2[0]|
    by_max = bound - dist.log_probs.min() > _FIRST_SHIFT_LIMIT
    twice_means = 2.0 * (means if by_max else means - means[0]).view(float)
    rows = max(1, _QUAD_CHUNK_BYTES // (16 * K * (dim + 1)))
    if want_errors:
        parts = np.concatenate([support.T.real, support.T.imag])  # (re/im and d, k)
        Wt_diff = ((parts[:, None, :] - parts[..., None]) * Wt).reshape(-1, K)  # W[k, j] (s_j - s_k) per row of parts
        buffer = np.empty(2 * dim * K * min(rows, len(noise)))  # reused: fresh ones fault

    recomputed, errors = 0, None
    for start in range(0, noise.shape[0], rows):
        block = noise[start : start + rows]
        P = twice_means @ block.view(float).T  # T2[j, q], less T2[0, q] unless by_max
        if by_max:
            a = P.max(axis=0)
            P -= a
        lin = probs @ P
        total = Wt @ np.exp(P, out=P)  # (k, q)
        if underflow := by_max and total.min() <= _EXACT_FLOOR:  # a first-shifted total never reaches it
            ki, qi = np.nonzero(total <= _EXACT_FLOOR)
            np.maximum(total, _EXACT_FLOOR, out=total)
        if want_errors:
            errors = buffer[: 2 * dim * K * len(block)].reshape(2 * dim, K, -1)
            np.matmul(Wt_diff, P, out=errors.reshape(2 * dim * K, -1))  # (xhat - s_k) total: its j = k term is 0
            errors *= np.reciprocal(total)
        np.log(total, out=total)  # in place: no second (k, q) array
        if underflow:  # log total = log p(z) + n log(pi) + |noise|^2 + T2[k, q] - a_q at z = mean_k + noise_q
            flat = block[qi].view(float)
            norms = np.einsum("ij,ij->i", flat, flat + twice_means[ki])
            for span, w, sums, log_pz in flowmodel._mixture_chunks(means, dist.log_probs, block[qi], ki):
                total[ki[span], qi[span]] = log_pz + M.shape[0] * np.log(np.pi) + norms[span] - a[qi[span]]
                if want_errors:  # s_j - s_k per (re/im and d, j, entry)
                    gaps = parts[:, :, None] - parts[:, None, ki[span]]
                    errors[:, ki[span], qi[span]] = np.einsum("djn,jn->dn", gaps, w) / sums
            recomputed += len(ki)
        yield weights[start : start + rows], lin, total, errors
    if recomputed:
        logging.getLogger(__name__).debug("quadrature recomputed %d underflowed sums exactly", recomputed)


# ---------------------------------------------------------------------------
# Monte Carlo moments
# ---------------------------------------------------------------------------


def _mean_se(sums: np.ndarray, count: int):
    """``(mean, batch-means standard error)`` of ``count`` samples from their ``_batches``' sums on axis 0."""
    sizes = [len(b) for b, in _batches(np.empty((count, 0)))]  # a (count, 0) array holds no bytes
    means = sums / np.reshape(sizes, (-1,) + (1,) * (sums.ndim - 1))
    var = np.var(means.real, axis=0, ddof=1) + np.var(means.imag, axis=0, ddof=1)
    return np.sum(sums, axis=0) / count, np.sqrt(var / len(means))


def _cross_moment(pairs):
    """``(E[a b^H], its batch-means standard error)`` from the ``_batches`` ``(a, b)`` of paired rows,
    one product per batch, so a batch may be formed, used and dropped before the next."""
    grams, sizes = zip(*((a.T @ b.conj(), len(a)) for a, b in pairs))
    return _mean_se(np.stack(grams), sum(sizes))


def _information(M, dist: InputDistribution, spec: EngineSpec) -> np.ndarray:
    """Information sums of M: under Monte Carlo, the kept draw's ``_batches``' sums of ``log p(z|x)`` less
    those of ``log p(z)``, at ``z = x M^T + noise`` formed chunk by chunk from a discrete law's labels
    in one ``mixture_log_density`` call, or per batch for a Gaussian law; else the ``_moments`` value."""
    if spec.method != "mc":
        return np.array([_moments(M, dist, spec, want_mmse=False)[0]])
    M = flowmodel._channel(M, dist)
    inputs, noise, log_cond = flowmodel._draws(dist, M.shape[0], spec.seed, spec.mc_samples(), spec.workers)
    if dist.kind == "discrete":  # the kernel's N floats, the one per-sample array
        parts = (b for b, in _batches(flowmodel._log_output_density(M, dist, noise, inputs)))
    else:
        gaussian = flowmodel._gaussian_output(M)
        parts = (flowmodel._log_output_density(M, dist, x @ M.T + n, gaussian=gaussian) for x, n in _batches(inputs, noise))
    return log_cond - np.array([np.sum(part) for part in parts])


def _residuals(M, dist: InputDistribution, inputs, noise) -> np.ndarray:
    """``x - xhat(z)`` at ``z = x M^T + noise`` on rows of a draw; a discrete law's ``inputs`` are its
    support labels, whose ``z`` the mixture kernel forms chunk by chunk."""
    if dist.kind == "discrete":
        means = dist.support @ M.T
        xhat = flowmodel.mixture_posterior_mean(means, dist.log_probs, dist.support, noise, inputs)
        return dist.support[inputs] - xhat
    return inputs - conditional_mean_batch(M, dist, inputs @ M.T + noise)


def mc_moments(M, dist: InputDistribution, spec: EngineSpec, *, want_mmse=True, want_mi=True):
    """Monte-Carlo estimates of mutual information and the error matrix on the law's kept draw.

    Returns ``(mi, mi_se, error_matrix, error_se, count)``: the means of the information, from
    ``_information``'s batch sums, and of the error's outer products, each with its batch-means
    standard error.  The error's residuals are formed one batch of ``_batches`` at a time.
    """
    M = flowmodel._channel(M, dist)
    inputs, noise, _ = flowmodel._draws(dist, M.shape[0], spec.seed, spec.mc_samples(), spec.workers)
    mi = mi_se = err = err_se = None
    if want_mi:
        mi, mi_se = map(float, _mean_se(_information(M, dist, spec), len(noise)))
    if want_mmse:
        residuals = (_residuals(M, dist, x_b, noise_b) for x_b, noise_b in _batches(inputs, noise))
        err, err_se = _cross_moment((r, r) for r in residuals)
    return mi, mi_se, err, err_se, len(noise)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def gaussian_mutual_information(M) -> float:
    """log det(I + M M^H) in nats, for a unit-covariance Gaussian input."""
    return float(flowmodel._gaussian_output(np.asarray(M, dtype=complex), inverse=False)[1])


def _moments(M, dist: InputDistribution, spec: EngineSpec, *, want_mi=True, want_mmse=True):
    """The one route from a channel to its information and error matrix.

    Returns ``(mi, mi_se, err, err_se, method, count)``, unrequested values ``None``: Monte Carlo
    when ``spec`` asks for it, else the closed forms for a Gaussian input (``exact``, count 0),
    else quadrature at the spec's node count for the channel's outputs.
    """
    M = flowmodel._channel(M, dist)
    if spec.method == "mc":
        mi, mi_se, err, err_se, count = mc_moments(M, dist, spec, want_mmse=want_mmse, want_mi=want_mi)
        return mi, mi_se, err, err_se, "monte-carlo", count
    if dist.kind == "gaussian":
        mi = gaussian_mutual_information(M) if want_mi else None
        err = np.linalg.inv(np.eye(M.shape[1], dtype=complex) + M.conj().T @ M) if want_mmse else None
        return mi, None, err, None, "exact", 0
    mi, err, nodes = quadrature_moments(M, dist, spec.resolve_nodes(M.shape[0]), want_mmse=want_mmse, want_mi=want_mi)
    return mi, None, err, None, "quadrature", nodes


def mmse_matrix(M, dist: InputDistribution, spec: EngineSpec = EngineSpec()) -> MmseMatrix:
    """Error matrix of the conditional-mean estimator for the channel M, by ``_moments``."""
    M = _as_matrix(M)
    _, _, err, err_se, method, count = _moments(M, dist, spec, want_mi=False)
    return MmseMatrix.checked(err, method, count, dist.covariance(), standard_error=err_se)


def score_identity_residual(system, dist: InputDistribution, z) -> float:
    """Norm of ``M xhat(z) - (z + score(z))``; zero up to numerics."""
    M = _as_matrix(system)
    z = np.asarray(z, dtype=complex)
    lhs = M @ conditional_mean(M, dist, z)
    rhs = z + flowmodel.output_score(M, dist, z)
    return float(np.linalg.norm(lhs - rhs))


def invert_flow_estimate(system: SystemMatrices, dist: InputDistribution, z) -> np.ndarray:
    """Recover the posterior mean through the factored inverse filter.

    Computes ``B^{-1} G^{-1} A^{-1} (z + score(z))``, which equals the
    conditional mean wherever the end-to-end matrix is invertible.  When
    the coupling matrix F is available, ``G^{-1}`` is applied as ``I - F``
    instead of a numerical inverse.
    """
    z = np.asarray(z, dtype=complex)
    A, G, B = system.A, system.G, system.B
    if system.M.shape[0] != system.M.shape[1]:
        raise SingularSystemMatrix("transfer matrix must be square to invert the flow")
    for name, factor in (("A", A), ("G", G), ("B", B)):
        if factor.shape[0] != factor.shape[1]:
            raise SingularSystemMatrix(f"factor {name} is not square; cannot factor the inverse")
    if np.linalg.cond(system.M) > _SYSTEM_CONDITION_LIMIT:
        raise SingularSystemMatrix("transfer matrix condition estimate exceeds 1e10")
    v = z + flowmodel.output_score(system.M, dist, z)
    w = np.linalg.solve(A, v)
    if system.F is not None:
        u = (np.eye(G.shape[0]) - system.F) @ w
    else:
        u = np.linalg.solve(G, w)
    return np.linalg.solve(B, u)


def estimation_diagnostics(M, dist: InputDistribution, batch: SampleBatch):
    """Orthogonality and tower-property residuals with batch-means errors.

    Returns a dict with the cross-moment ``E[(x - xhat) z^H]`` and the
    posterior-mean bias ``E[xhat] - E[x]``, each paired with per-entry
    standard errors.  A batch below ``_MC_MIN_SAMPLES`` raises ``CostGuardError``.
    """
    _enough_samples(batch.count)
    x, z = batch.inputs, batch.outputs
    xhat = conditional_mean_batch(M, dist, z)
    orthogonality, orthogonality_se = _cross_moment(_batches(x - xhat, z))
    return {
        "orthogonality": orthogonality,
        "orthogonality_se": orthogonality_se,
        "tower_gap": np.mean(xhat, axis=0) - dist.mean(),
        "tower_se": _mean_se(np.stack([np.sum(b, axis=0) for b, in _batches(xhat)]), len(xhat))[1],
    }
