"""Dense/sparse matrix primitives: soft thresholding, singular value
thresholding, spectral norms, observed index sets and a partial SVD of the
matrix-free sparse-plus-low-rank operator. Each SVD entry point takes one
input kind: :func:`truncated_svd` the operator (completion),
:func:`svt_triplets` and :func:`spectral_norm` a dense matrix (recovery).
A :class:`TruncatedSVD` gives its entries on a sample set
(:meth:`TruncatedSVD.values_at`) in workspace of ``U * s`` and
``VALUES_BUDGET`` entries, without forming the dense matrix.
:func:`spectral_norm`'s result does not depend on the memory layout of its
input.

The two dense size gates price different algorithms. :data:`_FULL_SVD_DIM`
(150) is where ARPACK's top-1 Lanczos run starts to beat LAPACK
(:func:`spectral_norm`). Above :data:`_BLOCK_MIN_DIM` (65) the dense SVT's
block iteration, which restarts from the previous call's block, is no slower
than one LAPACK SVD per threshold for any recovery solver."""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
from scipy.sparse.linalg import ArpackError, LinearOperator, svds

__all__ = [
    "ObservedSet",
    "TruncatedSVD",
    "SparsePlusLowRank",
    "as_matrix",
    "shrink",
    "truncated_svd",
    "svt_triplets",
    "spectral_norm",
]

# Below this dimension a Lanczos run costs more than LAPACK on the dense array
# (spectral_norm).
_FULL_SVD_DIM = 150
# Above this dimension the warm-started block iteration of the dense SVT is no
# slower per solve than one LAPACK SVD per call for IALM, EALM and APG
# (measured at min(m, n) = 40..100 with one BLAS thread; EALM crosses last).
_BLOCK_MIN_DIM = 65
# Partial SVD stops paying off once the requested rank passes this fraction of
# the small dimension; switch to a full decomposition instead.
_FULL_SVD_FRACTION = 0.2

# Block iteration of the dense SVT: columns beyond the requested rank, the
# residual tolerance (relative to the largest singular value) of a triplet above
# the threshold, the largest Chebyshev filter degree between two Rayleigh-Ritz
# steps, and the number of products with W^T W after which it gives up and
# takes the full LAPACK decomposition. At 1e-13 a permuted or transposed D
# gives the same A to 3.6e-13 relative over 300 draws per solver. The width
# k + 6 and the cap 8 come from a sweep of oversampling 3..10 and caps 4, 8 and
# 16 on m=100 solves, audited by tools/svt_audit.py: at 3 or 4 columns with a
# cap of 4 or 8, and at 5 or 6 with a cap of 16, a warm block lost a value just
# above the threshold, and every pair of 5 or more columns and a cap of at most
# 8 kept LAPACK's count. Fewer columns are faster; 6 keeps a column of margin.
_BLOCK_OVERSAMPLE = 6
_BLOCK_TOL = 1e-13
_BLOCK_MAX_DEGREE = 8
_BLOCK_MAX_STEPS = 100
# Philox key of the Gaussian columns that fill the block past the warm start.
_BLOCK_KEY = 20100918
# Factor entries gathered per operand in TruncatedSVD.values_at: a chunk of
# VALUES_BUDGET // k samples, so its extra memory past one copy of U is bounded
# whatever k and |Omega| are.
VALUES_BUDGET = 2**15

_log = logging.getLogger("lowrank")


def as_matrix(a, name="matrix"):
    """Coerce ``a`` to a 2-D float64 array, rejecting NaN/Inf entries."""
    w = np.asarray(a, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {w.shape}")
    if w.size and not np.isfinite(w).all():
        raise ValueError(f"{name} contains non-finite entries")
    return w


@dataclass(frozen=True)
class ObservedSet:
    """An index set over an ``rows x cols`` grid, kept sorted row-major.

    ``row_idx``/``col_idx`` are parallel int64 arrays, strictly increasing
    lexicographically (no duplicates), all 0-based.
    """

    rows: int
    cols: int
    row_idx: np.ndarray
    col_idx: np.ndarray

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("ObservedSet dimensions must be positive")
        ri = np.asarray(self.row_idx, dtype=np.int64)
        ci = np.asarray(self.col_idx, dtype=np.int64)
        if ri.shape != ci.shape or ri.ndim != 1:
            raise ValueError("row/col index arrays must be 1-D and parallel")
        if ri.size:
            if ri.min() < 0 or ri.max() >= self.rows or ci.min() < 0 or ci.max() >= self.cols:
                raise ValueError("index out of range")
            lin = ri * self.cols + ci
            if not (np.diff(lin) > 0).all():
                raise ValueError("indices must be strictly sorted with no duplicates")
        object.__setattr__(self, "row_idx", ri)
        object.__setattr__(self, "col_idx", ci)

    @classmethod
    def from_linear(cls, rows, cols, linear):
        """Build from row-major linear indices (``i * cols + j``)."""
        lin = np.sort(np.asarray(linear, dtype=np.int64))
        return cls(rows, cols, lin // cols, lin % cols)

    @property
    def size(self):
        return int(self.row_idx.size)

    @property
    def complement_size(self):
        return self.rows * self.cols - self.size

    @functools.cached_property
    def _csr_pattern(self):
        S = sparse.csr_matrix((np.zeros(self.size), (self.row_idx, self.col_idx)),
                              shape=(self.rows, self.cols))
        return S.indices, S.indptr

    def to_csr(self, values):
        """``values`` on the set as CSR. Sorted row-major, the set's order is CSR
        order, so every call shares one pattern, built on the first call."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.size,):
            raise ValueError("values must align with the index set")
        return sparse.csr_matrix((values, *self._csr_pattern), shape=(self.rows, self.cols))


@dataclass(frozen=True)
class TruncatedSVD:
    """Top-k singular triplets: ``U`` (m x k), ``s`` descending, ``V`` (n x k).
    After an SVT it is the low-rank matrix U diag(s) V.T, completion's iterate."""

    U: np.ndarray
    s: np.ndarray
    V: np.ndarray

    @property
    def shape(self):
        return (self.U.shape[0], self.V.shape[0])

    def compose(self, out=None):
        """Materialize ``U @ diag(s) @ V.T``, into ``out`` (a float64 array of
        :attr:`shape`) when given; zeros when ``s`` is empty."""
        return np.matmul(self.U * self.s, self.V.T, out=out)

    def values_at(self, omega, out=None):
        """Entries of ``U @ diag(s) @ V.T`` on an :class:`ObservedSet`, into
        ``out`` (a float64 vector of ``omega.size``) when given, without
        composing it: ``U * s``, formed once, and the rows of it and of ``V``
        for ``VALUES_BUDGET // k`` samples (at least one) at a time, gathered
        into two reused buffers. Each entry is one row-by-row dot product, so
        the bits do not depend on the chunk size."""
        if out is None:
            out = np.empty(omega.size)
        k = self.s.size
        chunk = max(1, min(VALUES_BUDGET // max(k, 1), omega.size))
        left, right = np.empty((chunk, k)), np.empty((chunk, k))
        Us = self.U * self.s
        for lo in range(0, omega.size, chunk):
            rows, cols = omega.row_idx[lo:lo + chunk], omega.col_idx[lo:lo + chunk]
            # the set's indices are in range, so "clip" changes none of them;
            # unlike the default mode it writes into ``out`` without a buffer
            L = Us.take(rows, axis=0, out=left[:rows.size], mode="clip")
            R = self.V.take(cols, axis=0, out=right[:rows.size], mode="clip")
            np.einsum("ij,ij->i", L, R, out=out[lo:lo + chunk])
        return out


@dataclass(frozen=True)
class SparsePlusLowRank:
    """Implicit ``S + L @ R.T`` operator for matrix-free partial SVDs.

    ``S`` is any scipy sparse matrix; ``L``/``R`` are tall factors (may have
    zero columns). Only products with vectors and column blocks are formed
    in the solver hot path. The transpose of ``S`` is taken once (for CSR a
    CSC view sharing its arrays), so the operator is frozen.
    """

    S: sparse.spmatrix
    L: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        m, n = self.S.shape
        if self.L.shape[0] != m or self.R.shape[0] != n or self.L.shape[1] != self.R.shape[1]:
            raise ValueError("factor shapes inconsistent with sparse part")
        object.__setattr__(self, "_St", self.S.T)

    @property
    def shape(self):
        return self.S.shape

    def matvec(self, x):
        return self.S @ x + self.L @ (self.R.T @ x)

    def rmatvec(self, y):
        return self._St @ y + self.R @ (self.L.T @ y)

    def as_linear_operator(self):
        # matvec takes a column block as it is: one sparse-times-dense product
        return LinearOperator(self.shape, matvec=self.matvec, rmatvec=self.rmatvec,
                              matmat=self.matvec, dtype=np.float64)

    def to_dense(self):
        return np.asarray(self.S.todense()) + self.L @ self.R.T


def shrink(W, eps, out=None):
    """Entrywise soft thresholding: the proximal map of ``eps * |.|_1``.

    Maps w to w - eps for w > eps, w + eps for w < -eps and 0 otherwise, as
    sign(w) * max(|w| - eps, 0). Accepts scalars or arrays; ``eps`` must be
    nonnegative. With ``out`` (a float64 array of W's shape that does not
    overlap W), the result goes into ``out`` and a float64 W is overwritten
    as the workspace, so no array is allocated.
    """
    if not eps >= 0:
        raise ValueError("shrink threshold must be nonnegative")
    W = np.asarray(W, dtype=np.float64)
    if out is None:
        sign, mag = np.sign(W, out=np.empty_like(W)), np.abs(W, out=np.empty_like(W))
    elif np.may_share_memory(out, W):
        raise ValueError("shrink out must not overlap W")
    else:
        sign, mag = np.sign(W, out=out), np.abs(W, out=W)
    mag -= eps
    np.maximum(mag, 0.0, out=mag)
    sign *= mag
    return sign if out is not None or sign.ndim else sign[()]


def _full_svd(W, k):
    """Top-``k`` triplets from one LAPACK SVD, as views of its factors."""
    U, s, Vt = np.linalg.svd(W, full_matrices=False)
    return TruncatedSVD(U[:, :k], s[:k], Vt[:k].T)


def _lanczos_svd(op, k):
    d = min(op.shape)
    U, s, Vt = svds(op, k=k, v0=np.full(d, 1.0 / np.sqrt(d)))
    order = np.argsort(-s)
    return TruncatedSVD(U[:, order], s[order], Vt[order].T)


def truncated_svd(op, k):
    """Top-``k`` singular triplets of a :class:`SparsePlusLowRank` operator.

    Lanczos (ARPACK) unless ``k`` passes the :data:`_FULL_SVD_FRACTION` share
    of min(m, n) or ARPACK fails (``ArpackError``, ``ArpackNoConvergence``
    included); then the operator is densified, with a logged WARNING, for
    one LAPACK SVD. ``ValueError`` for k out of range, ``TypeError`` for a
    dense matrix (use :func:`spectral_norm` or :func:`svt_triplets`).
    """
    if not isinstance(op, SparsePlusLowRank):
        raise TypeError("truncated_svd takes a SparsePlusLowRank operator; use "
                        "spectral_norm or svt_triplets for a dense matrix")
    d = min(op.shape)
    if not (1 <= k <= d):
        raise ValueError(f"k must be in [1, {d}], got {k}")
    if k > _FULL_SVD_FRACTION * d:
        reason = "k above the partial-SVD share"
    else:
        try:
            return _lanczos_svd(op.as_linear_operator(), k)
        except ArpackError:
            reason = "Lanczos did not converge"
    _log.warning("densifying a %dx%d SparsePlusLowRank operator for a rank-%d SVD: %s",
                 op.shape[0], op.shape[1], k, reason)
    return _full_svd(op.to_dense(), k)


_GEQRF, _ORGQR = scipy.linalg.get_lapack_funcs(("geqrf", "orgqr"), dtype=np.float64)


@functools.lru_cache(maxsize=None)
def _strictly_lower(n):
    mask = np.tri(n, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


@functools.lru_cache(maxsize=None)
def _qr_lwork(m, n):
    """The ``geqrf`` and ``orgqr`` workspace sizes LAPACK asks for at an m x n
    ``A``: a workspace query reads only the shape."""
    a = np.zeros((m, n), order="F")
    return int(_GEQRF(a, lwork=-1)[2][0]), int(_ORGQR(a, np.zeros(n), lwork=-1)[1][0])


def _qr(A):
    """``scipy.linalg.qr(A, mode="economic", overwrite_a=True)`` for a tall
    float64 ``A`` (Fortran order avoids a copy), as direct LAPACK calls. Each
    routine gets the workspace it asks for, queried once per shape
    (:func:`_qr_lwork`): a smaller one can take LAPACK's unblocked path and
    change the bits. ``R`` is zeroed through a cached mask, a quarter of
    ``np.triu``'s cost at block sizes."""
    n = A.shape[1]
    geqrf_lwork, orgqr_lwork = _qr_lwork(*A.shape)
    qr, tau, _, _ = _GEQRF(A, lwork=geqrf_lwork, overwrite_a=True)
    R = qr[:n].copy()
    R[_strictly_lower(n)] = 0.0
    return _ORGQR(qr, tau, lwork=orgqr_lwork, overwrite_a=True)[0], R


def _orth_rows(X):
    """Orthonormal rows spanning the rows of ``X`` (Householder QR of the
    row-normalised matrix, so rows of very different lengths lose nothing)."""
    norms = np.linalg.norm(X, axis=1)
    norms[norms == 0.0] = 1.0
    Q, _ = _qr((X / norms[:, None]).T)
    return np.ascontiguousarray(Q.T)


def _rayleigh_ritz(W, Qt):
    """Ritz triplets of ``W`` on the row space of ``Qt`` (orthonormal rows).

    Returns ``(Ut, s, Vt, Zt, res)``: Ritz vectors as rows, Ritz values in
    descending order, ``Zt`` the rows of ``W.T @ u_i`` and the residuals
    ``res_i = ||W.T u_i - s_i v_i||``. ``W v_i = s_i u_i`` holds by
    construction. Blocks are kept as rows so both products with ``W`` run as
    row-major GEMMs.
    """
    P, R = _qr((Qt @ W.T).T)
    Ur, s, Vrt = np.linalg.svd(R)
    Ut = Ur.T @ P.T
    Vt = Vrt @ Qt
    Zt = Ut @ W
    return Ut, s, Vt, Zt, np.linalg.norm(Zt - s[:, None] * Vt, axis=1)


@dataclass(frozen=True)
class _RitzBlock(TruncatedSVD):
    """The top-k triplets of a block iteration, and ``block`` (n x b), the
    right Ritz vectors of the whole block of b = :func:`_block_width` columns
    they came from."""

    block: np.ndarray


def _block_width(k, d):
    """Columns of the block iteration at hint ``k``: ``k`` +
    :data:`_BLOCK_OVERSAMPLE`, at most ``d``."""
    return min(k + _BLOCK_OVERSAMPLE, d)


def _block_svd(W, eps, k, v0):
    """Top-``k`` triplets of dense ``W`` for thresholding at ``eps``, by
    Chebyshev-filtered block subspace iteration with Rayleigh-Ritz.

    The block has :func:`_block_width` columns: the leading ones are
    ``v0`` (a guess of the right singular subspace, e.g. the block the
    previous SVT returned; may be None, narrower or wider than the block, or
    rank deficient), the rest Gaussian from a Philox stream keyed by
    ``_BLOCK_KEY``, which each call builds afresh on its first draw. It stops
    when every Ritz triplet among the top ``k`` with value above ``eps`` has
    residual at most ``_BLOCK_TOL`` times the largest value, and every one at
    or below ``eps`` has that residual too or satisfies ``s + res < eps``, the
    latter only after a filter or power step in a cold block (no ``v0``
    columns). That is no proof for a dense tail just below ``eps``: bounds such
    as the estimate of Halko, Martinsson & Tropp (arXiv:0909.4061, sec. 4.3)
    scale with the tail's norm, not with ``eps``.
    Ritz values are lower bounds of the singular values, so a k-th Ritz value
    above ``eps`` proves the hint saturated: ``k`` doubles and the block grows
    in place.

    Returns the top ``k`` Ritz triplets at the final ``k`` as a
    :class:`_RitzBlock`, whose ``block`` holds the right Ritz vectors of the
    whole block it stopped on, oversampling vectors included. It returns None
    when ``k`` would pass the :data:`_FULL_SVD_FRACTION` share of min(m, n) or
    the filter has spent ``_BLOCK_MAX_STEPS`` products with ``W.T @ W`` (the
    caller then takes the full decomposition). The values past the last one
    above ``eps`` are Ritz values at or below it, certified so among the top
    ``k``, and not necessarily converged.
    """
    m, n = W.shape
    d = min(m, n)
    rng = None

    def gaussian(rows, top):
        # ``top`` over ``rows`` Gaussian rows; the call's first draw builds its stream
        nonlocal rng
        rng = rng or np.random.Generator(np.random.Philox(key=_BLOCK_KEY))
        return np.vstack([top, rng.standard_normal((rows, n))])

    b = _block_width(k, d)
    if v0 is None:
        v0 = np.zeros((n, 0))
    v0 = as_matrix(v0, "v0")
    if v0.shape[0] != n:
        raise ValueError(f"v0 must have {n} rows, got {v0.shape[0]}")
    nv = min(v0.shape[1], b)
    top = v0[:, :nv].T
    Qt = _orth_rows(gaussian(b - nv, top) if nv < b else np.ascontiguousarray(top))
    cold = nv == 0
    steps = 0
    while steps < _BLOCK_MAX_STEPS:
        # drop the last step's blocks before this one allocates as many again
        Ut = Vt = Zt = X = X_prev = None
        Ut, s, Vt, Zt, res = _rayleigh_ritz(W, Qt)
        steps += 1
        if s[k - 1] > eps:
            k = min(2 * k, d)
            if k > _FULL_SVD_FRACTION * d:
                return None
            grown = _block_width(k, d)
            Qt = _orth_rows(gaussian(grown - b, Vt))
            b = grown
            continue
        tol = _BLOCK_TOL * s[0]
        lagging = (res[:k] > tol) & ((s[:k] > eps) | (s[:k] + res[:k] >= eps) | cold)
        if not lagging.any():
            return _RitzBlock(Ut[:k].T, s[:k], Vt[:k].T, Vt.T)
        cold = False  # a power or filter step follows
        if s[-1] == 0.0:
            # the block holds a null vector of W, so the filter interval
            # below is empty: take a plain power step instead
            Qt = _orth_rows(Zt)
            continue
        # Chebyshev filter of W^T W on [0, s_b^2], started from the Ritz
        # vectors (W^T W v_i = s_i W^T u_i is already known). The degree is
        # what the slowest lagging triplet needs at the filter's rate.
        s_lag, res_lag = s[:k][lagging], res[:k][lagging]
        target = np.where(s_lag > eps, tol, np.maximum(eps - s_lag, tol))
        x = 2.0 * (s_lag / s[-1]) ** 2 - 1.0
        with np.errstate(divide="ignore"):
            need = np.log(res_lag / target) / np.arccosh(np.maximum(x, 1.0))
        degree = int(np.clip(np.ceil(need.max()), 1, _BLOCK_MAX_DEGREE))
        c = s[-1] ** 2
        # soft locking: the converged top-k rows L are not filtered (they would
        # grow by T_deg(2 (s_1 / s_b)^2 - 1), past 1e40, and their rounding
        # swamp a lagging row), and are projected out after each product
        act = (np.arange(s.size) >= k) | (res > tol)
        L, X_prev = Vt[~act], Vt[act]
        X = (2.0 / c) * (s[act, None] * Zt[act]) - X_prev
        X -= (X @ L.T) @ L
        for _ in range(degree - 1):
            X, X_prev = (4.0 / c) * ((X @ W.T) @ W) - 2.0 * X - X_prev, X
            X -= (X @ L.T) @ L
        steps += degree - 1
        Qt = _orth_rows(np.vstack([L, X]))
    return None


def svt_triplets(W, eps, sv_hint, v0=None):
    """Singular value thresholding of dense ``W``, returned in factored form.

    Keeps the triplets of ``W`` with singular value strictly above ``eps`` and
    subtracts ``eps`` from them.

    When the small dimension exceeds :data:`_BLOCK_MIN_DIM` and the hint is
    within the :data:`_FULL_SVD_FRACTION` share of it, a block iteration
    (:func:`_block_svd`) warm-started from ``v0``, the right vectors of a
    nearby matrix (typically the ``block`` the previous call returned),
    computes the top ``sv_hint`` triplets; while every computed value clears
    the threshold the hint doubles, so nothing above ``eps`` is missed. Every
    other input, and every block fallback, takes all min(m, n) triplets from
    one full LAPACK SVD; ``v0`` is then ignored. The gate is lower than
    ARPACK's :data:`_FULL_SVD_DIM`: a warm-started block needs few products
    with ``W`` per call, a cold Lanczos run many.

    Returns ``(tsvd, svp, s_raw, block)`` where ``tsvd`` holds the ``svp``
    thresholded triplets and ``s_raw`` the raw singular values computed: every
    one on the LAPACK route, those at the final hint on the block route (where
    the values below ``eps`` are only certified to be below it). ``block``
    warm-starts the next call: the right vectors of the whole Ritz block the
    block route stopped on, oversampling vectors included, or a copy of the
    LAPACK SVD's leading right vectors, as many as a block at the largest hint
    the block route runs. It is None when nothing was kept, so the
    next block starts cold: such a call stopped once its Ritz values were
    certified below its threshold, converged or not, and a block warm-started
    from them can certify a value above ``eps`` below it off its first
    Rayleigh-Ritz step.
    """
    if not eps >= 0:
        raise ValueError("svt threshold must be nonnegative")
    W = as_matrix(W)
    d = min(W.shape)
    sv = int(min(max(sv_hint, 1), d))
    t = None
    if d > _BLOCK_MIN_DIM and sv <= _FULL_SVD_FRACTION * d:
        t = _block_svd(W, eps, sv, v0)
    if t is None:
        t = _full_svd(W, d)
        # a copy, so the decomposition is freed: as many right vectors as a
        # block takes at the largest hint the block route runs
        block = t.V[:, :_block_width(int(_FULL_SVD_FRACTION * d), d)].copy()
    else:
        block = t.block
    svp = int((t.s > eps).sum())
    kept = TruncatedSVD(t.U[:, :svp].copy(), t.s[:svp] - eps, t.V[:, :svp].copy())
    return kept, svp, t.s, block if svp else None


def spectral_norm(W):
    """Largest singular value of dense ``W``: a top-1 Lanczos run once
    min(m, n) exceeds :data:`_FULL_SVD_DIM`, LAPACK below that or when ARPACK
    fails."""
    W = as_matrix(W)
    if not W.any():
        return 0.0
    if min(W.shape) > _FULL_SVD_DIM:
        # ARPACK's products round by the memory layout; C order for all inputs
        try:
            return float(_lanczos_svd(np.ascontiguousarray(W), 1).s[0])
        except ArpackError:
            pass
    return float(np.linalg.svd(W, compute_uv=False)[0])
