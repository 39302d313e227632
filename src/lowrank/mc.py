"""Matrix completion by the inexact augmented Lagrange multiplier method.

The iterate ``A`` is the ``TruncatedSVD`` U diag(s) V.T its SVT step returns
and is never composed in the solver hot path; the unobserved block ``E`` is
implicit (it always equals the negated off-sample part of ``A``), and the
multiplier is a value vector on the sample set. One partial SVD of a
sparse-plus-low-rank operator per iteration, with a gap-based rank truncation
that keeps the iterate rank from oscillating.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ObservedSet, SparsePlusLowRank, TruncatedSVD, truncated_svd
from .rpca import SV0_DEFAULTS, IterRecord, Iterate, SolveResult, _Config, _fro_norm, _alm

__all__ = [
    "McConfig",
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


def _delta_e_factored(A_new, A_old, obs_new, obs_old):
    """||off-sample part of (A_new - A_old)||_F for two ``TruncatedSVD``
    iterates, via the Gram identity sqrt(||dA||_F^2 - ||on-sample dA||_F^2),
    with the radicand clamped at zero against rounding.

    The difference dA is the product of the stacked factors Ls = [L_new L_old]
    and Rs = [V_new -V_old], with L = U * s. Its norm is that of the small core
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
    Ls = np.hstack([A_new.U * A_new.s, A_old.U * A_old.s])
    Rs = np.hstack([A_new.V, -A_old.V])
    da2 = 0.0
    if Ls.shape[1]:
        core = (_projection(np.linalg.qr(Ls)[0], Ls)
                @ _projection(np.linalg.qr(Rs)[0], Rs).T)
        da2 = np.sum(core * core)
    diff = obs_new - obs_old
    return float(np.sqrt(max(da2 - diff @ diff, 0.0)))


def solve_mc_ialm(observed: ObservedSet, values, cfg=None):
    """Complete a matrix from samples on ``observed`` with ``values``, by the
    ALM loop of recovery (``rpca._alm``).

    Each sweep applies SVT (threshold 1 / mu, cut by :func:`gap_truncated_rank`)
    to the implicit D - E + Y / mu, held as sparse-plus-low-rank on the set's
    CSR pattern, takes the off-sample part as the new E and steps the
    multiplier on the samples. The penalty grows by ``rho`` every sweep and the
    SVD size jumps by ``SV_JUMP``. The dual test is damped:
    min(mu, sqrt(mu)) * ||dE||_F / ||D||_F < ``eps2``, or a step below the
    resolution of the step formula, ``DE_RESOLUTION`` * ||A||_F. ``A`` is the
    last SVT's ``TruncatedSVD``; the result has no ``E`` or ``Y``.
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
    comp = observed.complement_size
    A = TruncatedSVD(np.zeros((m, 0)), np.zeros(0), np.zeros((n, 0)))
    dnorm = float(_fro_norm(vals, "values"))
    if dnorm == 0.0:
        rec = IterRecord(1, 0.0, 0.0, 0.0, 0, comp, 0, 0, 0.0)
        return SolveResult(A, None, True, 1, 0, [rec], "mc-ialm")

    rho = cfg.rho if cfg.rho is not None else rho_from_density(observed.size / (m * n))
    mu = cfg.mu0
    if mu is None:
        probe = SparsePlusLowRank(observed.to_csr(vals), A.U, A.V)
        mu = 1.0 / truncated_svd(probe, 1).s[0]
    Y = np.zeros(observed.size)
    obs_a = np.zeros(observed.size)

    def step(k, mu, sv):
        nonlocal A, Y, obs_a
        # D - E_k + Y/mu = (sparse correction on the samples) + (U s) V^T
        t = truncated_svd(SparsePlusLowRank(observed.to_csr(vals + Y / mu - obs_a),
                                            A.U * A.s, A.V), sv)
        svp = int((t.s > 1.0 / mu).sum())
        svn = gap_truncated_rank(t.s, svp) if svp else 0
        # keep U in the SVD's memory order: BLAS products with U * s round by it
        A_new = TruncatedSVD(t.U[:, :svn].copy(order="K"), t.s[:svn] - 1.0 / mu,
                             t.V[:, :svn].copy())
        obs_new = A_new.values_at(observed)
        delta_e = _delta_e_factored(A_new, A, obs_new, obs_a)
        resid = vals - obs_new
        Y = Y + mu * resid
        A, obs_a = A_new, obs_new
        feas = float(np.linalg.norm(resid) / dnorm)
        dual = float(min(mu, np.sqrt(mu)) * delta_e / dnorm)
        obj = float(A.s.sum())
        a_norm = float(np.sqrt(np.sum(A.s ** 2)))
        dual_ok = dual < cfg.eps2 or delta_e <= DE_RESOLUTION * a_norm
        rec = IterRecord(k, mu, feas, dual, svn, comp, sv, svp, obj)
        return rec, dual_ok, True, lambda: Iterate(A, None, Y, mu)

    converged, trace, iterates = _alm(step, cfg, mu, rho, min(SV0_DEFAULTS["mc-ialm"], d), d,
                                      cfg.max_iter, SV_JUMP)
    return SolveResult(A, None, converged, len(trace), len(trace), trace, "mc-ialm",
                       iterates=iterates)
