"""Matrix completion by the inexact augmented Lagrange multiplier method.

The iterate ``A`` is the ``TruncatedSVD`` U diag(s) V.T its SVT step returns
and is never composed; the unobserved block ``E`` is implicit (it always
equals the negated off-sample part of ``A``), and the multiplier is a value
vector on the sample set. One partial SVD of a sparse-plus-low-rank operator
per iteration, with a gap-based rank truncation that keeps the iterate rank
from oscillating.

A solve holds three vectors of the sample count, updated in place (the
multiplier, ``A`` on the samples and one work vector), plus workspace of the
factors' size: nothing of size m x n, and nothing of size |Omega| x k.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import ObservedSet, SparsePlusLowRank, TruncatedSVD, truncated_svd
from .rpca import IterRecord, Iterate, SolveResult, _Config, _fro_norm, _grow, _loop

__all__ = [
    "McConfig",
    "rho_from_density",
    "gap_truncated_rank",
    "solve_mc_ialm",
]

# Rank heuristic: the truncating gap ratio.
GAP_THRESHOLD = 2.0
# A step smaller than this multiple of ||A||_F cannot be distinguished from
# zero by any double-precision evaluation of the factored step formula (the
# Gram subtraction cancels at sqrt(eps)); the stopping test treats such steps
# as converged in the dual criterion.
DE_RESOLUTION = float(np.sqrt(np.finfo(np.float64).eps))
# Bits of each row that the split projections of the step formula carry: about
# the 64-bit mantissa of the extended precision they are summed in.
SLICE_BITS = 60
# Entries per slice of a row block of the split projections: their workspace is
# a few such slices, whatever the dimensions and the rank.
SLICE_BUDGET = 2**13


def rho_from_density(rho_s):
    """Penalty growth factor as an affine function of the sampling density:
    1.2172 + 1.8588 * rho_s, valid for densities in (0, 1]."""
    if not (0.0 < rho_s <= 1.0):
        raise ValueError("sampling density must lie in (0, 1]")
    return 1.2172 + 1.8588 * rho_s


@dataclass
class McConfig(_Config):
    """``None`` selects the data-driven defaults mu0 = 1 / ||D||_2 and
    rho = rho_from_density(|Omega| / (m n)), and for ``max_iter`` the
    ``rpca.MAX_ITER_DEFAULTS`` entry, 500."""

    mu0: float | None = None
    rho: float | None = None
    eps1: float = 1e-7
    eps2: float = 1e-6
    max_iter: int | None = None
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


def _row_max(X):
    """max |x| over each row of ``X``, as a column."""
    return np.maximum(X.max(axis=1, keepdims=True), -X.min(axis=1, keepdims=True))


def _exact_slices(X, inner, row_max):
    """Split the rows of ``X`` into slices X = X_1 + X_2 + ... whose products
    with slices of another matrix, summed over ``inner`` terms, are exact in
    float64 (the error-free splitting of Ozaki, Ogita, Oishi and Rump, 2012).

    Each slice keeps 53 - beta bits on its row's power of two, with
    2 * beta >= 53 + log2(inner), so a slice product never needs more than
    53 bits; enough slices are taken to carry ``SLICE_BITS`` of each row.
    The powers of two come from ``row_max`` (:func:`_row_max`), the largest
    magnitude in each row of ``X`` or of a wider matrix whose block of columns
    ``X`` is: the slices are then those columns of the wider matrix's slices.
    They are generated one at a time from a C-ordered copy of ``X``, which
    holds the remainder, so ``X`` itself is left as it is.
    """
    beta = (54 + int(inner).bit_length()) // 2
    X = np.array(X, dtype=np.float64, order="C")
    # 2**e bounds the row, and each slice leaves a rest below 2**(e - 53 + beta)
    sigma = np.ldexp(1.0, np.frexp(row_max)[1] + beta)
    count = -(-SLICE_BITS // (53 - beta))
    for i in range(count):
        hi = X + sigma
        hi -= sigma
        yield hi
        if i + 1 < count:
            X -= hi
            sigma = np.ldexp(sigma, beta - 53)


def _projection(Q, S):
    """``Q.T @ S`` to about ``SLICE_BITS`` bits, as an extended-precision
    array: the sum of the exact float64 products of the slices of both
    operands, leaving out the products below that resolution.

    The inner dimension is taken in blocks of ``SLICE_BUDGET // k`` rows, k
    the wider operand's column count, so each slice holds at most that many
    entries. Every slice product is exact, so its block products add up to it
    exactly in float64, and the result does not depend on the blocks."""
    inner = Q.shape[0]
    q_max, s_max = _row_max(Q.T), _row_max(S.T)
    rows = max(1, SLICE_BUDGET // max(Q.shape[1], S.shape[1], 1))
    parts = {}
    for lo in range(0, inner, rows):
        ss = list(_exact_slices(S[lo:lo + rows].T, inner, s_max))
        for i, q in enumerate(_exact_slices(Q[lo:lo + rows].T, inner, q_max)):
            for j, s in enumerate(ss[:len(ss) - i]):
                parts[i, j] = parts.get((i, j), 0.0) + q @ s.T
    out = np.zeros((Q.shape[1], S.shape[1]), dtype=np.longdouble)
    for p in parts.values():
        out += p
    return out


def _delta_e_factored(A_new, A_old, on_sample2):
    """||off-sample part of (A_new - A_old)||_F for two ``TruncatedSVD``
    iterates, via the Gram identity sqrt(||dA||_F^2 - ``on_sample2``), where
    ``on_sample2`` is ||on-sample dA||_F^2, with the radicand clamped at zero
    against rounding.

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
    ||A||_F. Cost stays O((m + n) k^2) BLAS work with no dense intermediate;
    the two sides are projected one after the other, so the workspace is a
    few copies of one stacked factor and the slices of one row block.
    """
    # one stacked factor at a time: rebinding X frees the left one
    X = np.hstack([A_new.U * A_new.s, A_old.U * A_old.s])
    left = _projection(np.linalg.qr(X)[0], X)
    X = np.hstack([A_new.V, -A_old.V])
    core = left @ _projection(np.linalg.qr(X)[0], X).T
    da2 = np.sum(core * core)
    return float(np.sqrt(max(da2 - on_sample2, 0.0)))


def solve_mc_ialm(observed: ObservedSet, values, cfg=None):
    """Complete a matrix from samples on ``observed`` with ``values``, on the
    loop of the recovery solvers (``rpca._loop``).

    Each sweep applies SVT (threshold 1 / mu, cut by :func:`gap_truncated_rank`)
    to the implicit D - E + Y / mu, held as sparse-plus-low-rank on the set's
    CSR pattern, takes the off-sample part as the new E and steps the
    multiplier on the samples. The penalty grows by ``rho`` every sweep and the
    SVD size follows ``rpca.predict_rank``. The dual test is damped:
    min(mu, sqrt(mu)) * ||dE||_F / ||D||_F < ``eps2``, or a step below the
    resolution of the step formula, ``DE_RESOLUTION`` * ||A||_F. ``A`` is the
    last SVT's ``TruncatedSVD``; the result has no ``E`` or ``Y``, and its
    ``config`` is ``cfg`` with the ``mu0`` and ``rho`` the solve took.
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
        return SolveResult(A, None, True, [rec], "mc-ialm", config=cfg)

    rho = cfg.rho if cfg.rho is not None else rho_from_density(observed.size / (m * n))
    mu0 = cfg.mu0
    if mu0 is None:
        probe = SparsePlusLowRank(observed.to_csr(vals), A.U, A.V)
        mu0 = 1.0 / truncated_svd(probe, 1).s[0]
    # the multiplier and the iterate on the samples, and one work vector:
    # the whole sample-length state, updated in place
    Y = np.zeros(observed.size)
    obs_a = np.zeros(observed.size)
    work = np.empty(observed.size)

    def step(k, mu, sv):
        nonlocal A, Y, obs_a, work
        # D - E_k + Y/mu = (sparse correction on the samples) + (U s) V^T, the
        # correction formed as vals + Y / mu - obs_a would form it
        np.add(vals, np.divide(Y, mu, out=work), out=work)
        work -= obs_a
        t = truncated_svd(SparsePlusLowRank(observed.to_csr(work), A.U * A.s, A.V), sv)
        svp = int((t.s > 1.0 / mu).sum())
        svn = gap_truncated_rank(t.s, svp)
        # keep U in the SVD's memory order: BLAS products with U * s round by it
        A_new = TruncatedSVD(t.U[:, :svn].copy(order="K"), t.s[:svn] - 1.0 / mu,
                             t.V[:, :svn].copy())
        del t  # its m x sv and n x sv factors, past the cut
        # the new iterate on the samples goes to work, its change to obs_a
        A_new.values_at(observed, out=work)
        np.subtract(work, obs_a, out=obs_a)
        delta_e = _delta_e_factored(A_new, A, obs_a @ obs_a)
        A, obs_a, work = A_new, work, obs_a
        resid = np.subtract(vals, obs_a, out=work)
        feas = float(np.linalg.norm(resid) / dnorm)
        resid *= mu
        Y += resid
        dual = float(min(mu, np.sqrt(mu)) * delta_e / dnorm)
        obj = float(A.s.sum())
        a_norm = float(np.sqrt(np.sum(A.s ** 2)))
        dual_ok = dual < cfg.eps2 or delta_e <= DE_RESOLUTION * a_norm
        rec = IterRecord(k, mu, feas, dual, svn, comp, sv, svp, obj)
        return rec, dual_ok, _grow(mu, rho), lambda: Iterate(A, None, Y.copy(), mu)

    converged, trace, iterates = _loop(step, cfg, mu0, d, "mc-ialm")
    return SolveResult(A, None, converged, trace, "mc-ialm", iterates=iterates,
                       config=replace(cfg, mu0=mu0, rho=rho))
