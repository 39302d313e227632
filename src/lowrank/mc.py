"""Matrix completion by the inexact augmented Lagrange multiplier method.

The iterate ``A`` lives in factored form L @ R.T and is never densified in
the solver hot path; the unobserved block ``E`` is implicit (it always
equals the negated off-sample part of ``A``), and the multiplier is a value
vector on the sample set. One partial SVD of a sparse-plus-low-rank operator
per iteration, with a gap-based rank truncation that keeps the iterate rank
from oscillating.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ObservedSet, SparsePlusLowRank, truncated_svd
from .rpca import SV0_DEFAULTS, IterRecord, Iterate, SolveResult, _Config, _fro_norm, predict_rank

__all__ = [
    "McConfig",
    "FactoredMatrix",
    "rho_from_density",
    "gap_truncated_rank",
    "solve_mc_ialm",
]

# Rank heuristic: the truncating gap ratio and the hint jump on saturation.
GAP_THRESHOLD = 2.0
SV_JUMP = 10
# A step smaller than this multiple of ||A||_F cannot be distinguished from
# zero by any double-precision evaluation of the factored step formula (the
# Gram subtraction cancels at sqrt(eps)); the stopping test treats such steps
# as converged in the dual criterion.
DE_RESOLUTION = float(np.sqrt(np.finfo(np.float64).eps))
# Observed entries per gather in FactoredMatrix.values_at: the factor rows of a
# chunk are copied, so its extra memory is O(chunk * rank), not O(|Omega| * rank).
VALUES_CHUNK = 8192
# Bits of each row that the split projections of the step formula carry: about
# the 64-bit mantissa of the extended precision they are summed in.
SLICE_BITS = 60


def rho_from_density(rho_s):
    """Penalty growth factor as an affine function of the sampling density:
    1.2172 + 1.8588 * rho_s, valid for densities in (0, 1]."""
    if not (0.0 < rho_s <= 1.0):
        raise ValueError("sampling density must lie in (0, 1]")
    return 1.2172 + 1.8588 * rho_s


@dataclass
class McConfig(_Config):
    """``None`` selects the data-driven defaults mu0 = 1 / ||D||_2 and
    rho = rho_from_density(|Omega| / (m n))."""

    mu0: float | None = None
    rho: float | None = None
    eps1: float = 1e-7
    eps2: float = 1e-6
    max_iter: int = 500
    keep_iterates: bool = False


@dataclass
class FactoredMatrix:
    """A low-rank matrix held as ``L @ R.T`` (both factors have k columns)."""

    L: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        if self.L.ndim != 2 or self.R.ndim != 2 or self.L.shape[1] != self.R.shape[1]:
            raise ValueError("factors must be 2-D with matching column counts")
        if self.rank > min(self.shape):
            raise ValueError("factored rank exceeds matrix dimensions")

    @property
    def shape(self):
        return (self.L.shape[0], self.R.shape[0])

    @property
    def rank(self):
        return int(self.L.shape[1])

    def to_dense(self):
        """Materialize the product (desk-scale verification only)."""
        return self.L @ self.R.T

    def values_at(self, omega: ObservedSet):
        """Entries of the product on an observed set without densifying,
        gathered ``VALUES_CHUNK`` entries at a time."""
        out = np.zeros(omega.size)
        if self.rank == 0:
            return out
        for lo in range(0, omega.size, VALUES_CHUNK):
            hi = lo + VALUES_CHUNK
            left = self.L.take(omega.row_idx[lo:hi], axis=0)
            right = self.R.take(omega.col_idx[lo:hi], axis=0)
            out[lo:hi] = np.einsum("ij,ij->i", left, right)
        return out


def gap_truncated_rank(singular_values, svp):
    """Truncate the threshold count at the largest ratio between successive
    singular values when that ratio exceeds ``GAP_THRESHOLD``.

    A zero trailing value makes the ratio +inf at that position; the returned
    count never exceeds ``svp``.
    """
    s = np.asarray(singular_values, dtype=np.float64)
    if s.size == 0:
        raise ValueError("singular value list must be nonempty")
    if s.size == 1:
        return int(svp)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = s[:-1] / s[1:]
    ratios = np.where(np.isnan(ratios), 1.0, ratios)
    max_id = int(np.argmax(ratios))
    if ratios[max_id] <= GAP_THRESHOLD:
        return int(svp)
    return int(min(svp, max_id + 1))


def _exact_slices(X, inner):
    """Split the rows of ``X`` into slices X = X_1 + X_2 + ... whose products
    with slices of another matrix, summed over ``inner`` terms, are exact in
    float64 (the error-free splitting of Ozaki, Ogita, Oishi and Rump, 2012).

    Each slice keeps 53 - beta bits on its row's power of two, with
    2 * beta >= 53 + log2(inner), so a slice product never needs more than
    53 bits; enough slices are taken to carry ``SLICE_BITS`` of each row.
    """
    beta = (54 + int(inner).bit_length()) // 2
    # 2**e bounds the row, and each slice leaves a rest below 2**(e - 53 + beta)
    sigma = np.ldexp(1.0, np.frexp(np.abs(X).max(axis=1, keepdims=True))[1] + beta)
    slices = []
    for _ in range(-(-SLICE_BITS // (53 - beta))):
        hi = (X + sigma) - sigma
        slices.append(hi)
        X = X - hi
        sigma = np.ldexp(sigma, beta - 53)
    return slices


def _projection(Q, S):
    """``Q.T @ S`` to about ``SLICE_BITS`` bits, as an extended-precision
    array: the sum of the exact float64 products of the slices of both
    operands, leaving out the products below that resolution."""
    qs = _exact_slices(np.ascontiguousarray(Q.T), Q.shape[0])
    ss = _exact_slices(np.ascontiguousarray(S.T), S.shape[0])
    out = np.zeros((Q.shape[1], S.shape[1]), dtype=np.longdouble)
    for i, q in enumerate(qs):
        for s in ss[:len(qs) - i]:
            out += q @ s.T
    return out


def _delta_e_factored(L_new, R_new, L_old, R_old, obs_new, obs_old):
    """||off-sample part of (A_new - A_old)||_F via the Gram identity
    sqrt(||dA||_F^2 - ||on-sample dA||_F^2), with the radicand clamped at
    zero against rounding.

    The difference dA is the product of the stacked factors Ls = [L_new L_old]
    and Rs = [R_new -R_old]. Its norm is that of the small core
    (QL^T Ls) (QR^T Rs)^T, with QL, QR orthonormal bases of the stacked
    factors from float64 QR. The cancellation between the new and the old
    term happens inside that core, so the projections are summed from exact
    float64 products of split operands (:func:`_projection`) and the core is
    formed in extended precision; the float64 error of the bases only enters
    at second order. A float64 core (the QR triangles, say) would carry an
    absolute error of eps * ||A||_F, and the Gram traces of the stacked
    factors one of sqrt(eps) * ||A||_F, once the step is small relative to
    ||A||_F. Cost stays O((m + n) k^2) BLAS work with no dense intermediate.
    """
    Ls = np.hstack([L_new, L_old])
    Rs = np.hstack([R_new, -R_old])
    da2 = 0.0
    if Ls.shape[1]:
        core = (_projection(np.linalg.qr(Ls)[0], Ls)
                @ _projection(np.linalg.qr(Rs)[0], Rs).T)
        da2 = np.sum(core * core)
    diff = obs_new - obs_old
    return float(np.sqrt(max(da2 - diff @ diff, 0.0)))


def solve_mc_ialm(observed: ObservedSet, values, cfg=None):
    """Complete a matrix from samples on ``observed`` with ``values``.

    Starts from zero multiplier and zero iterate; per iteration applies SVT
    (threshold 1 / mu, dimension from ``predict_rank`` on the gap-truncated
    count with a jump of ``SV_JUMP``) to the implicit matrix D - E + Y / mu,
    assembled as sparse-plus-low-rank on the set's CSR pattern, takes
    the off-sample part as the new E, steps the multiplier on the sample set
    and grows the penalty geometrically by ``rho``. Stops when the scaled
    residual on the samples is below ``eps1`` and the damped dual surrogate
    min(mu, sqrt(mu)) * ||dE||_F / ||D||_F is below ``eps2`` (a step under
    the double-precision resolution of the step formula, ``DE_RESOLUTION``
    times ||A||_F, counts as meeting the dual criterion). Returns a
    ``SolveResult`` whose ``A`` is a ``FactoredMatrix``, with no ``E`` or ``Y``.
    """
    cfg = cfg or McConfig()
    if observed.size == 0:
        raise ValueError("observed set must be nonempty")
    vals = np.asarray(values, dtype=np.float64)
    if vals.shape != (observed.size,):
        raise ValueError("values must align with the observed set")
    if vals.size and not np.isfinite(vals).all():
        raise ValueError("observed values must be finite")

    m, n = observed.rows, observed.cols
    d = min(m, n)
    dnorm = float(_fro_norm(vals, "values"))
    if dnorm == 0.0:
        empty = FactoredMatrix(np.zeros((m, 0)), np.zeros((n, 0)))
        rec = IterRecord(1, 0.0, 0.0, 0.0, 0, observed.complement_size, 0, 0, 0.0)
        return SolveResult(empty, None, True, 1, 0, [rec], "mc-ialm")

    rho = cfg.rho if cfg.rho is not None else rho_from_density(observed.size / (m * n))
    mu = cfg.mu0
    if mu is None:
        probe = SparsePlusLowRank(observed.to_csr(vals), np.zeros((m, 0)), np.zeros((n, 0)))
        mu = 1.0 / truncated_svd(probe, 1).s[0]

    Y = np.zeros(observed.size)
    L, R = np.zeros((m, 0)), np.zeros((n, 0))
    obs_a = np.zeros(observed.size)
    sv = min(SV0_DEFAULTS["mc-ialm"], d)
    comp = observed.complement_size
    trace: list[IterRecord] = []
    iterates = [] if cfg.keep_iterates else None
    for k in range(1, cfg.max_iter + 1):
        # D - E_k + Y/mu = (sparse correction on the samples) + L R^T
        op = SparsePlusLowRank(observed.to_csr(vals + Y / mu - obs_a), L, R)
        t = truncated_svd(op, sv)
        svp = int((t.s > 1.0 / mu).sum())
        svn = gap_truncated_rank(t.s, svp) if svp else 0
        kept = t.s[:svn] - 1.0 / mu
        L_new = t.U[:, :svn] * kept
        R_new = t.V[:, :svn].copy()
        obs_new = FactoredMatrix(L_new, R_new).values_at(observed)

        delta_e = _delta_e_factored(L_new, R_new, L, R, obs_new, obs_a)
        resid = vals - obs_new
        Y = Y + mu * resid

        feas = float(np.linalg.norm(resid) / dnorm)
        dual = float(min(mu, np.sqrt(mu)) * delta_e / dnorm)
        obj = float(kept.sum())
        a_norm = float(np.sqrt(np.sum(kept ** 2)))
        trace.append(IterRecord(k, mu, feas, dual, svn, comp, sv, svp, obj))
        L, R, obs_a = L_new, R_new, obs_new
        if iterates is not None:
            iterates.append(Iterate(FactoredMatrix(L.copy(), R.copy()), None, Y.copy(), mu))

        sv = predict_rank(svn, sv, d, SV_JUMP)
        dual_ok = dual < cfg.eps2 or delta_e <= DE_RESOLUTION * a_norm
        converged = feas < cfg.eps1 and dual_ok
        if converged:
            break
        mu = rho * mu
    return SolveResult(FactoredMatrix(L, R), None, converged, k, k, trace, "mc-ialm",
                       iterates=iterates)
