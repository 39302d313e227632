"""Deterministic synthetic instances for the recovery and completion solvers.

All randomness comes from a Philox4x64-10 counter-based generator keyed by
the instance seed, with a fixed draw order (left factor, right factor,
support draws, support values), so instances are bit-reproducible across
platforms. Corruption supports and sample sets are drawn without replacement
by a partial Fisher-Yates pass over row-major linear indices: the i-th draw
picks position ``i + (r_i mod (N - i))`` with ``r_i`` a raw 64-bit word from
the generator. The pass is evaluated with array operations on the k draws
alone (sort by target, then follow the few collision chains), so memory is
O(k) whatever N is.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .linalg import ObservedSet, TruncatedSVD

__all__ = ["RpcaInstance", "McInstance", "gen_rpca", "gen_mc", "degrees_of_freedom"]

CORRUPTION_RANGE = 500.0
# Rows per block of the relative error: its dense workspace is this many rows.
ERROR_ROWS = 64


def _generator(seed):
    return np.random.Generator(np.random.Philox(seed))


def round_half_up(x):
    return int(np.floor(x + 0.5))


def degrees_of_freedom(m, r):
    """Parameter count of an m x m rank-r matrix: r(2m - r)."""
    return r * (2 * m - r)


def sample_without_replacement(n_total, k, rng):
    """k distinct integers from [0, n_total) via partial Fisher-Yates.

    Byte-level definition: with ``w`` one ``rng.integers(0, 2**64, size=k,
    dtype=np.uint64)`` call, step i swaps positions i and
    ``j_i = i + (w_i mod (n_total - i))`` of the virtual array ``0..n_total-1``
    and picks the value now at i. The modulo bias of ``w_i mod (n_total - i)``
    is below 2**-40 for any desk-scale n_total and is accepted for the sake of
    an easily specified algorithm.

    The steps are evaluated together, in O(k) memory independent of n_total.
    Since ``j_i >= i``, no step reads a position that an earlier step used as
    its source, so step i picks ``j_i`` unless an earlier step t also targeted
    ``j_i``; then it picks the value the latest such t moved there. That value
    is t itself, unless an earlier step targeted position t, and so on down a
    chain. Sorting the steps by (target, step) pairs each step with its
    previous one at the same target, and one search per link follows the
    chains; there are about k**2 / (2 n_total) collisions.
    """
    n_total, k = operator.index(n_total), operator.index(k)
    if not (0 <= k <= n_total <= 2**63):
        raise ValueError("sample size out of range")
    if k == 0:
        return np.empty(0, dtype=np.int64)
    draws = rng.integers(0, 2**64, size=k, dtype=np.uint64)
    step = np.arange(k, dtype=np.uint64)
    target = np.uint64(n_total) - step
    np.remainder(draws, target, out=target)
    target += step
    del draws
    # every target and step is below n_total <= 2**63, so both fit in int64
    target, step = target.view(np.int64), step.view(np.int64)
    # the steps ordered by (target, step): one packed sort key when it fits
    if n_total * k <= 2**63:
        key = target * k
        key += step
        key.sort()
        sorted_target, order = np.divmod(key, k)
        del key
    else:
        order = np.argsort(target, kind="stable")
        sorted_target = target[order]
    del step
    # step ``later`` picks what step ``source`` moved, the previous step at its target
    same = sorted_target[1:] == sorted_target[:-1]
    later = order[1:][same]
    source = order[:-1][same]
    # step t moves t itself unless an earlier step targeted position t; then it
    # moves what the latest such step moved. That step is the last entry at
    # target t: the steps there are at most t, and t is not among them, since
    # every step on a chain targets above itself. A negative ``last`` means no
    # entry, and ``found`` masks its wrapped lookup.
    pending = np.arange(source.size)
    while pending.size:
        t = source[pending]
        last = np.searchsorted(sorted_target, t, side="right") - 1
        found = (last >= 0) & (sorted_target[last] == t)
        source[pending[found]] = order[last[found]]
        pending = pending[found]
    target[later] = source
    return target


def _low_rank(m, r, rng):
    """A* = L R^T from m x r standard-normal factors, L drawn first; rank 0 draws none."""
    if r > m:
        raise ValueError("rank cannot exceed dimension")
    if r < 0 or m <= 0:
        raise ValueError("m must be positive and r nonnegative")
    L = rng.standard_normal((m, r))
    R = rng.standard_normal((m, r))
    return L @ R.T


def _default_lam(rows):
    """The default sparsity weight of the recovery program: 1/sqrt(rows)."""
    return 1.0 / np.sqrt(rows)


def _rel_error(A, a_star):
    """||A - a_star||_F / ||a_star||_F, or ||A||_F when ``a_star`` is zero; a
    ``ValueError`` unless the shapes agree.

    Both norms are summed over blocks of ``ERROR_ROWS`` rows. A dense ``A``
    is read through row views, and a ``TruncatedSVD`` ``A`` is never composed:
    each block of (U * s) V^T is formed in one reused buffer of that many rows.
    """
    a_star = np.asarray(a_star, dtype=np.float64)
    if A.shape != a_star.shape:
        raise ValueError(f"truth matrix has shape {a_star.shape}, the estimate {A.shape}")
    factored = isinstance(A, TruncatedSVD)
    if factored:
        L, Vt = A.U * A.s, A.V.T
    else:
        A = np.asarray(A, dtype=np.float64)
    m, n = a_star.shape
    buf = np.empty((min(ERROR_ROWS, m), n))
    err2 = ref2 = 0.0
    for lo in range(0, m, ERROR_ROWS):
        truth = a_star[lo:lo + ERROR_ROWS]
        diff = buf[:truth.shape[0]]
        if factored:
            np.matmul(L[lo:lo + ERROR_ROWS], Vt, out=diff)
            diff -= truth
        else:
            np.subtract(A[lo:lo + ERROR_ROWS], truth, out=diff)
        err2 += np.vdot(diff, diff)
        ref2 += np.vdot(truth, truth)
    err = np.sqrt(err2)
    return float(err / np.sqrt(ref2) if ref2 else err)


@dataclass(frozen=True)
class RpcaInstance:
    """Ground-truth decomposition D = A* + E* with known rank and support."""

    a_star: np.ndarray
    e_star: np.ndarray
    d: np.ndarray
    r: int
    e_card: int
    seed: int

    @property
    def m(self):
        return self.d.shape[0]

    @property
    def lam(self):
        """Default sparsity weight for this instance: 1/sqrt(m)."""
        return _default_lam(self.m)

    def rel_error(self, A):
        return _rel_error(A, self.a_star)


@dataclass(frozen=True)
class McInstance:
    """Ground-truth low-rank matrix with a uniformly sampled observed set."""

    a_star: np.ndarray
    omega: ObservedSet
    d_values: np.ndarray
    r: int
    d_r: int
    seed: int

    @property
    def m(self):
        return self.a_star.shape[0]

    @property
    def p(self):
        return self.omega.size

    def rel_error(self, A):
        return _rel_error(A, self.a_star)


def gen_rpca(m, r, corruption_frac, seed):
    """Random recovery instance: A* = L R^T with m x r standard-normal factors,
    E* supported on exactly round(corruption_frac * m^2) uniform positions
    with values i.i.d. uniform on [-500, 500]."""
    if not (0.0 <= corruption_frac < 1.0):
        raise ValueError("corruption_frac must be in [0, 1)")
    rng = _generator(seed)
    a_star = _low_rank(m, r, rng)
    k = round_half_up(corruption_frac * m * m)
    support = sample_without_replacement(m * m, k, rng)
    e_star = np.zeros((m, m))
    e_star.flat[support] = rng.uniform(-CORRUPTION_RANGE, CORRUPTION_RANGE, size=k)
    return RpcaInstance(a_star=a_star, e_star=e_star, d=a_star + e_star,
                        r=r, e_card=k, seed=int(seed))


def gen_mc(m, r, p, seed):
    """Random completion instance: p entries of A* sampled uniformly without
    replacement."""
    if not (0 <= p <= m * m):
        raise ValueError("sample count out of range")
    rng = _generator(seed)
    a_star = _low_rank(m, r, rng)
    support = sample_without_replacement(m * m, p, rng)
    omega = ObservedSet.from_linear(m, m, support)
    d_values = a_star[omega.row_idx, omega.col_idx]
    return McInstance(a_star=a_star, omega=omega, d_values=d_values,
                      r=r, d_r=degrees_of_freedom(m, r), seed=int(seed))
