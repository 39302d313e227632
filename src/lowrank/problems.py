"""Deterministic synthetic instances for the recovery and completion solvers.

All randomness comes from a Philox4x64-10 counter-based generator keyed by
the instance seed, with a fixed draw order (left factor, right factor,
support draws, support values), so instances are bit-reproducible across
platforms. Corruption supports and sample sets are drawn without replacement
by a partial Fisher-Yates pass over row-major linear indices whose swaps are
kept in a hash map; the i-th draw picks position ``i + (r_i mod (N - i))``
with ``r_i`` a raw 64-bit word from the generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ObservedSet

__all__ = ["RpcaInstance", "McInstance", "gen_rpca", "gen_mc", "degrees_of_freedom"]

CORRUPTION_RANGE = 500.0


def _generator(seed):
    return np.random.Generator(np.random.Philox(seed))


def round_half_up(x):
    return int(np.floor(x + 0.5))


def degrees_of_freedom(m, r):
    """Parameter count of an m x m rank-r matrix: r(2m - r)."""
    return r * (2 * m - r)


def sample_without_replacement(n_total, k, rng):
    """k distinct integers from [0, n_total) via partial Fisher-Yates.

    Sparse state (hash map) keeps memory at O(k) regardless of n_total. The
    modulo bias of ``r mod (n - i)`` is below 2**-40 for any desk-scale n and
    is accepted for the sake of an easily specified byte-level algorithm.
    """
    if not (0 <= k <= n_total):
        raise ValueError("sample size out of range")
    if k == 0:
        return np.empty(0, dtype=np.int64)
    draws = rng.integers(0, 2**64, size=k, dtype=np.uint64)
    state: dict[int, int] = {}
    picked = np.empty(k, dtype=np.int64)
    for i in range(k):
        j = i + int(draws[i] % np.uint64(n_total - i))
        picked[i] = state.get(j, j)
        state[j] = state.get(i, i)
    return picked


def _low_rank(m, r, rng):
    """A* = L R^T from m x r standard-normal factors, L drawn first; rank 0 draws none."""
    if r > m:
        raise ValueError("rank cannot exceed dimension")
    if r < 0 or m <= 0:
        raise ValueError("m must be positive and r nonnegative")
    if r == 0:
        return np.zeros((m, m))
    L = rng.standard_normal((m, r))
    R = rng.standard_normal((m, r))
    return L @ R.T


def _default_lam(rows):
    """The default sparsity weight of the recovery program: 1/sqrt(rows)."""
    return 1.0 / np.sqrt(rows)


def _rel_error(A, a_star):
    """||A - a_star||_F / ||a_star||_F, or ||A||_F when ``a_star`` is zero. A
    factored ``A`` is densified as an unnamed temporary that the subtraction
    reuses, so the error costs one dense matrix, not two."""
    dense = getattr(A, "to_dense", lambda: A)
    denom = np.linalg.norm(a_star)
    if denom == 0.0:
        return float(np.linalg.norm(dense()))
    return float(np.linalg.norm(dense() - a_star) / denom)


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
    if k:
        values = rng.uniform(-CORRUPTION_RANGE, CORRUPTION_RANGE, size=k)
        e_star.flat[support] = values
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
