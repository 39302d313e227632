import logging
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse
from hypothesis import assume, given, settings, strategies as st
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

import lowrank.linalg as ll
from lowrank.linalg import (
    ObservedSet,
    SparsePlusLowRank,
    TruncatedSVD,
    shrink,
    spectral_norm,
    svt_triplets,
    truncated_svd,
)
from lowrank.rpca import predict_rank


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def as_op(W):
    """Dense ``W`` as the operator truncated_svd takes: CSR part, no factors."""
    m, n = W.shape
    return SparsePlusLowRank(sparse.csr_matrix(W), np.zeros((m, 0)), np.zeros((n, 0)))


# ---------------------------------------------------------------- shrink

def test_shrink_scalar_cases():
    assert shrink(1.2, 0.5) == pytest.approx(0.7)
    assert shrink(-0.3, 0.5) == 0.0


def test_shrink_negative_eps_rejected():
    with pytest.raises(ValueError):
        shrink(np.ones((2, 2)), -0.1)


def test_shrink_nan_eps_rejected():
    # NaN compares false both ways: it must not pass as a threshold and turn
    # every entry NaN
    with pytest.raises(ValueError, match="nonnegative"):
        shrink(np.ones((2, 2)), np.nan)


def test_shrink_matches_grid_search_prox_oracle():
    # independent oracle: brute-force the 1-D prox objective on a grid
    g = rng(42)
    W = g.uniform(-9, 9, size=(5, 5))
    eps = 0.3
    out = shrink(W, eps)
    grid = np.arange(-10.0, 10.0 + 1e-9, 1e-4)
    for w, x in zip(W.ravel(), out.ravel()):
        obj = eps * np.abs(grid) + 0.5 * (grid - w) ** 2
        x_star = grid[int(np.argmin(obj))]
        assert abs(x - x_star) <= 5e-5 + 1e-12


def test_shrink_subgradient_condition():
    # 0 in eps * d|x| + (x - w), checked analytically per entry
    g = rng(3)
    for _ in range(50):
        W = g.standard_normal((5, 5)) * g.uniform(0.1, 5)
        eps = float(g.uniform(0.01, 2.0))
        X = shrink(W, eps)
        nz = X != 0
        assert np.allclose(eps * np.sign(X[nz]) + (X[nz] - W[nz]), 0.0, atol=1e-10)
        assert (np.abs(W[~nz]) <= eps + 1e-10).all()


def test_shrink_nonexpansive():
    g = rng(7)
    for _ in range(25):
        W1 = g.standard_normal((6, 4)) * 3
        W2 = g.standard_normal((6, 4)) * 3
        eps = float(g.uniform(0, 2))
        lhs = np.linalg.norm(shrink(W1, eps) - shrink(W2, eps))
        assert lhs <= np.linalg.norm(W1 - W2) + 1e-12


@given(st.floats(-100, 100), st.floats(0, 50))
def test_shrink_scalar_prox_properties(w, eps):
    x = float(shrink(w, eps))
    if x > 0:
        assert x == pytest.approx(w - eps, abs=1e-12)
    elif x < 0:
        assert x == pytest.approx(w + eps, abs=1e-12)
    else:
        assert abs(w) <= eps + 1e-12


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return (x.shape == y.shape and x.tobytes() == y.tobytes()
            and np.array_equal(np.signbit(x), np.signbit(y)))


@st.composite
def _shrink_cases(draw):
    """(W, eps): W a Python float, a 0-d array or a small matrix whose entries
    are often +-0.0, +-eps or their neighbours."""
    eps = draw(st.floats(0, 1e3))
    edge = [0.0, -0.0, eps, -eps, np.nextafter(eps, np.inf), -np.nextafter(eps, 0.0)]
    entry = st.one_of(st.sampled_from(edge), st.floats(-1e6, 1e6))
    kind = draw(st.sampled_from(["float", "0-d", "matrix"]))
    if kind == "float":
        return draw(entry), eps
    shape = () if kind == "0-d" else draw(st.tuples(st.integers(1, 4), st.integers(1, 4)))
    values = draw(st.lists(entry, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(values, dtype=np.float64).reshape(shape), eps


@given(_shrink_cases())
def test_shrink_kernel_bitwise_with_and_without_out(case):
    W, eps = case
    ref = np.sign(W) * np.maximum(np.abs(W) - eps, 0.0)
    before = np.array(W)
    fresh = shrink(W, eps)
    assert type(fresh) is type(ref) and _same_bits(fresh, ref)
    assert _same_bits(W, before)
    work = np.array(W, dtype=np.float64)
    out = np.full_like(work, np.nan)
    assert shrink(work, eps, out=out) is out
    assert _same_bits(out, ref)


def test_shrink_out_must_not_overlap_w():
    W = np.ones((3, 3))
    with pytest.raises(ValueError, match="overlap"):
        shrink(W, 0.5, out=W)
    with pytest.raises(ValueError, match="overlap"):
        shrink(W, 0.5, out=W.T)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_compose_out_is_compose_bitwise(k):
    g = rng(k)
    t = TruncatedSVD(g.standard_normal((7, k)), np.sort(g.uniform(0.1, 2.0, k))[::-1].copy(),
                     g.standard_normal((5, k)))
    out = np.full((7, 5), -np.nan)
    assert t.compose(out=out) is out
    assert _same_bits(out, t.compose())
    if not k:
        assert _same_bits(out, np.zeros((7, 5)))


# ---------------------------------------------------------- truncated_svd

def test_truncated_svd_rank_one():
    g = rng(1)
    u = g.standard_normal(8)
    v = g.standard_normal(5)
    t = truncated_svd(as_op(np.outer(u, v)), 1)
    assert t.s[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12)


def test_truncated_svd_matches_full():
    g = rng(2)
    W = g.standard_normal((8, 5))
    t = truncated_svd(as_op(W), 3)
    s_full = np.linalg.svd(W, compute_uv=False)
    assert np.allclose(t.s, s_full[:3], atol=1e-10)


def test_truncated_svd_k_out_of_range():
    op = as_op(rng(0).standard_normal((8, 5)))
    with pytest.raises(ValueError):
        truncated_svd(op, 6)
    with pytest.raises(ValueError):
        truncated_svd(op, 0)


def test_truncated_svd_rejects_dense_input():
    with pytest.raises(TypeError, match="spectral_norm"):
        truncated_svd(np.ones((300, 300)), 1)


def test_truncated_svd_full_k_reconstructs():
    g = rng(5)
    W = g.standard_normal((12, 7))
    t = truncated_svd(as_op(W), 7)
    assert np.linalg.norm(t.compose() - W) <= 1e-8 * np.linalg.norm(W)


def test_truncated_svd_orthonormal_factors():
    g = rng(6)
    W = g.standard_normal((30, 20))
    t = truncated_svd(as_op(W), 4)
    assert np.allclose(t.U.T @ t.U, np.eye(4), atol=1e-8)
    assert np.allclose(t.V.T @ t.V, np.eye(4), atol=1e-8)
    assert (np.diff(t.s) <= 1e-12).all() and (t.s >= 0).all()


def test_truncated_svd_lanczos_agrees_with_full():
    g = rng(8)
    W = g.standard_normal((300, 80))
    tl = ll._lanczos_svd(W, 5)
    tf = ll._full_svd(W, 5)
    assert np.allclose(tl.s, tf.s, rtol=1e-10)
    assert np.linalg.norm(tl.compose() - tf.compose()) <= 1e-8 * np.linalg.norm(tf.compose())


def test_truncated_svd_lanczos_needs_k_below_d():
    W = rng(0).standard_normal((8, 5))
    with pytest.raises(ValueError):
        ll._lanczos_svd(W, 5)


def test_truncated_svd_zero_matrix():
    t = truncated_svd(as_op(np.zeros((6, 4))), 2)
    assert np.allclose(t.s, 0)
    assert np.allclose(t.U.T @ t.U, np.eye(2), atol=1e-8)


@pytest.mark.parametrize("error", [
    ArpackNoConvergence("no convergence", np.arange(3.0), np.zeros((5, 3))),
    ArpackError(-9999),
], ids=["ArpackNoConvergence", "ArpackError"])
def test_lanczos_failure_falls_back_to_lapack(monkeypatch, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(ll, "svds", fail)
    W = rng(30).standard_normal((400, 400))
    with pytest.raises(type(error)):
        ll._lanczos_svd(W, 1)
    # spectral_norm takes the dense decomposition instead
    assert spectral_norm(W) == pytest.approx(np.linalg.svd(W, compute_uv=False)[0],
                                             rel=1e-12)


# ------------------------------------------------------------------- svt

def test_svt_diagonal_example():
    kept, svp, _ = svt_triplets(np.diag([3.0, 1.0, 0.2]), 0.5, 3)
    assert svp == 2
    assert np.allclose(kept.compose(), np.diag([2.5, 0.5, 0.0]), atol=1e-12)


def test_svt_zero_eps_is_identity():
    g = rng(9)
    W = g.standard_normal((6, 6))
    kept, svp, _ = svt_triplets(W, 0.0, 6)
    assert np.allclose(kept.compose(), W, atol=1e-10)
    assert svp == 6


def test_svt_beats_random_perturbations():
    # the prox objective at the output is a local (hence global) minimum
    g = rng(10)
    W = g.standard_normal((6, 6)) * 2
    eps = 0.8
    A = svt_triplets(W, eps, 6)[0].compose()
    obj = eps * np.linalg.svd(A, compute_uv=False).sum() + 0.5 * np.linalg.norm(A - W) ** 2
    for _ in range(200):
        P = A + 1e-3 * g.standard_normal((6, 6))
        obj_p = eps * np.linalg.svd(P, compute_uv=False).sum() + 0.5 * np.linalg.norm(P - W) ** 2
        assert obj <= obj_p + 1e-10


def test_svt_threshold_consistency():
    g = rng(11)
    for _ in range(20):
        W = g.standard_normal((7, 5)) * g.uniform(0.2, 3)
        eps = float(g.uniform(0.1, 2))
        kept, svp, s_raw = svt_triplets(W, eps, 5)
        assert (s_raw[:svp] > eps - 1e-12).all()
        assert (s_raw[svp:] <= eps + 1e-12).all()
        # retained values in the output are the shifted ones
        assert np.allclose(np.linalg.svd(kept.compose(), compute_uv=False)[:svp],
                           s_raw[:svp] - eps, atol=1e-10)


def test_svt_hint_reexpansion_catches_everything():
    # rank-4 matrix with all four values above threshold; a hint of 1 must
    # not silently truncate
    g = rng(12)
    U, _ = np.linalg.qr(g.standard_normal((10, 4)))
    V, _ = np.linalg.qr(g.standard_normal((8, 4)))
    W = (U * np.array([9.0, 8.0, 7.0, 6.0])) @ V.T
    kept, svp, _ = svt_triplets(W, 0.5, 1)
    assert svp == 4
    s = np.linalg.svd(kept.compose(), compute_uv=False)
    assert np.allclose(s[:4], [8.5, 7.5, 6.5, 5.5], atol=1e-9)


def test_svt_hint_out_of_range():
    # a hint past min(m, n) is clamped to it, one below 1 is raised to 1 and
    # then doubles while the values clear the threshold
    for hint in (5, 0, -3):
        kept, svp, s_raw = svt_triplets(np.eye(4), 0.1, hint)
        assert svp == 4 and s_raw.size == 4
        assert np.allclose(kept.compose(), 0.9 * np.eye(4), atol=1e-12)
    with pytest.raises(ValueError):
        svt_triplets(np.eye(4), -0.1, 4)


@pytest.mark.parametrize("d", [40, 120], ids=["lapack", "block"])
def test_svt_nan_threshold_rejected(d):
    # a NaN threshold would read as "nothing kept" on the LAPACK route and
    # fail inside the block iteration's degree estimate
    with pytest.raises(ValueError, match="nonnegative"):
        svt_triplets(rng(3).standard_normal((d, d)), np.nan, 3)


# ------------------------------------------------------- block SVT route
# Dense inputs with min(m, n) > _BLOCK_MIN_DIM (65) and a hint within 20% of
# it take the warm-started block iteration; the reference is the
# one-LAPACK-SVD route, reached by raising that dimension to min(m, n).

def with_spectrum(m, n, s, seed):
    """An m x n matrix with singular values ``s`` and Haar-like factors."""
    g = rng(seed)
    U, _ = np.linalg.qr(g.standard_normal((m, len(s))))
    V, _ = np.linalg.qr(g.standard_normal((n, len(s))))
    return (U * np.asarray(s)) @ V.T


def assert_matches_full(W, eps, hint, v0=None):
    kb, svp_b, s_b = svt_triplets(W, eps, hint, v0=v0)
    with mock.patch.object(ll, "_BLOCK_MIN_DIM", min(W.shape)):
        kf, svp_f, s_f = svt_triplets(W, eps, hint)
    assert svp_b == svp_f
    assert len(s_b) == len(s_f)
    assert np.allclose(kb.s, kf.s, rtol=1e-10, atol=1e-12 * s_f[0])
    ref = kf.compose()
    assert np.linalg.norm(kb.compose() - ref) <= 1e-9 * max(np.linalg.norm(ref), s_f[0])
    assert np.allclose(kb.U.T @ kb.U, np.eye(svp_b), atol=1e-10)
    assert np.allclose(kb.V.T @ kb.V, np.eye(svp_b), atol=1e-10)
    return kb, svp_b, s_b


def far_from(values, eps, margin=1e-3):
    return np.min(np.abs(np.asarray(values) - eps)) > margin * eps


@settings(max_examples=30, deadline=None)
@given(m=st.integers(ll._BLOCK_MIN_DIM + 1, 260), n=st.integers(ll._BLOCK_MIN_DIM + 1, 260),
       r=st.integers(1, 20),
       eps_frac=st.floats(0.05, 1.2), hint_frac=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_block_svt_matches_full_tall_and_wide(m, n, r, eps_frac, hint_frac, seed):
    d = min(m, n)
    g = rng(seed)
    s = np.sort(np.concatenate([g.uniform(1.0, 10.0, r),
                                g.uniform(0.0, 0.5, d - r)]))[::-1]
    eps = eps_frac * 10.0
    assume(far_from(s, eps))
    hint = 1 + int(hint_frac * (0.2 * d - 1))
    W = with_spectrum(m, n, s, seed)
    assert_matches_full(W, eps, hint)
    k = hint
    while (s > eps).sum() >= k:
        k = 2 * k
    # the block route gives up only where the doubling passes 20% of d
    assert (ll._block_svd(W, eps, hint, None)[0] is None) == (k > 0.2 * d)


@settings(max_examples=15, deadline=None)
@given(copies=st.integers(1, 6), delta=st.sampled_from([1e-3, 1e-2, 0.1]),
       tall=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_block_svt_clustered_and_repeated_values_around_eps(copies, delta, tall, seed):
    eps = 1.0
    s = ([5.0, 4.0, 4.0] + [eps * (1 + delta)] * copies + [eps * (1 - delta)] * copies
         + list(np.linspace(0.5, 0.0, 120)))
    m, n = (220, 170) if tall else (170, 220)
    W = with_spectrum(m, n, s, seed)
    _, svp, _ = assert_matches_full(W, eps, 3 + copies)
    assert svp == 3 + copies


@pytest.mark.parametrize("shape", [(300, 200), (200, 300)])
def test_block_svt_threshold_above_top_value(shape):
    W = rng(21).standard_normal(shape)
    s1 = np.linalg.svd(W, compute_uv=False)[0]
    kept, svp, s_raw = assert_matches_full(W, 1.5 * s1, 12)
    assert svp == 0 and kept.U.shape == (shape[0], 0) and kept.V.shape == (shape[1], 0)
    assert len(s_raw) == 12 and (s_raw < 1.5 * s1).all()


def test_block_svt_saturation_past_fraction_falls_back_to_full():
    # 60 values above eps from a hint of 8: the block doubles in place to 16
    # and 32, then 64 passes 20% of 200 and the full SVD takes over
    s = list(np.linspace(10.0, 2.0, 60)) + list(np.linspace(0.5, 0.0, 140))
    W = with_spectrum(250, 200, s, 22)
    with mock.patch.object(ll, "_full_svd", wraps=ll._full_svd) as full:
        kept, svp, s_raw = svt_triplets(W, 1.0, 8)
    assert full.call_count == 1
    assert svp == 60 and len(s_raw) == 64
    assert_matches_full(W, 1.0, 8)


def test_block_svt_saturation_within_fraction_grows_in_place():
    s = list(np.linspace(10.0, 2.0, 30)) + list(np.linspace(0.5, 0.0, 170))
    W = with_spectrum(200, 220, s, 23)
    with mock.patch.object(ll, "_full_svd", wraps=ll._full_svd) as full:
        _, svp, s_raw = svt_triplets(W, 1.0, 5)
    assert full.call_count == 0
    assert svp == 30 and len(s_raw) == 40
    assert_matches_full(W, 1.0, 5)


def test_block_svt_step_cap_falls_back_to_full(monkeypatch):
    monkeypatch.setattr(ll, "_BLOCK_MAX_STEPS", 1)
    W = rng(24).standard_normal((260, 240))
    eps = 0.8 * np.linalg.svd(W, compute_uv=False)[0]
    with mock.patch.object(ll, "_full_svd", wraps=ll._full_svd) as full:
        _, svp, s_raw = svt_triplets(W, eps, 10)
    # one LAPACK SVD; the hint doubles over its values, 10 -> 20 -> 40
    assert full.call_count == 1
    assert svp == 26 and len(s_raw) == 40
    assert_matches_full(W, eps, 10)


@pytest.mark.parametrize("tall", [True, False])
def test_block_route_starts_just_above_its_gate(tall):
    # the block route has its own gate, below spectral_norm's LAPACK dimension
    assert ll._BLOCK_MIN_DIM < ll._FULL_SVD_DIM
    for d, routes in ((ll._BLOCK_MIN_DIM + 1, (0, 1)), (ll._BLOCK_MIN_DIM, (1, 0))):
        s = list(np.linspace(10.0, 2.0, 5)) + list(np.linspace(0.5, 0.0, d - 5))
        shape = (d + 30, d) if tall else (d, d + 30)
        W = with_spectrum(*shape, s, 34)
        with mock.patch.object(ll, "_full_svd", wraps=ll._full_svd) as full, \
                mock.patch.object(ll, "_block_svd", wraps=ll._block_svd) as block:
            _, svp, _ = svt_triplets(W, 1.0, 6)
        assert (full.call_count, block.call_count) == routes
        assert svp == 5


def corrupted_low_rank(m, n, seed):
    """Rank round(0.05 m) plus 5% of the entries uniform on [-500, 500]."""
    g = rng(seed)
    r = round(0.05 * m)
    W = g.standard_normal((m, r)) @ g.standard_normal((n, r)).T
    idx = g.choice(m * n, size=round(0.05 * m * n), replace=False)
    W.flat[idx] += g.uniform(-500.0, 500.0, idx.size)
    return W


@pytest.mark.parametrize("solver", ["ialm", "ealm", "apg"])
@pytest.mark.parametrize("shape", [(160, 160), (160, 240), (160, 120)])
def test_block_svt_counts_match_lapack_through_solves(shape, solver):
    # every block call of a recovery solve keeps exactly the values LAPACK
    # puts above the threshold; a cold block (no warm start, e.g. after an
    # SVT that kept nothing) must not certify a value below it off its first
    # Rayleigh-Ritz step (APG on the wide and tall shapes came back short)
    import lowrank.rpca as rpca

    wrong = []
    block = ll._block_svd

    def audited(W, eps, k, v0):
        t, k = block(W, eps, k, v0)
        if t is not None:
            want = int((np.linalg.svd(W, compute_uv=False) > eps).sum())
            if (t.s > eps).sum() != want:
                wrong.append((int((t.s > eps).sum()), want))
        return t, k

    with mock.patch.object(ll, "_block_svd", side_effect=audited) as spy:
        getattr(rpca, f"solve_{solver}")(corrupted_low_rank(*shape, 1))
    assert spy.call_count > 0
    assert wrong == []


@pytest.mark.parametrize("shape", [(40, 1), (40, 7), (100, 21), (300, 30), (17, 17)])
def test_qr_matches_scipy_economic_bit_for_bit(shape):
    A = rng(35).standard_normal(shape)
    Q, R = ll._qr(np.array(A, order="F"))  # a copy: _qr overwrites its input
    Q_ref, R_ref = scipy.linalg.qr(A, mode="economic")
    assert Q.shape == Q_ref.shape and R.shape == R_ref.shape
    assert np.array_equal(Q, Q_ref) and np.array_equal(R, R_ref)


def test_full_svt_doubles_hint_over_one_decomposition():
    # 10 values above eps from a hint of 3: the hint saturates at 3 and 6 and
    # stops at 12; d = 40 is below the block route's dimension
    s = list(np.linspace(10.0, 2.0, 10)) + list(np.linspace(0.5, 0.0, 30))
    W = with_spectrum(60, 40, s, 33)
    with mock.patch.object(ll, "_full_svd", wraps=ll._full_svd) as full:
        kept, svp, s_raw = svt_triplets(W, 1.0, 3)
    assert full.call_count == 1
    assert svp == 10 and len(s_raw) == 12
    assert np.allclose(s_raw, s[:12], rtol=1e-12, atol=1e-14)
    assert np.allclose(kept.s, np.array(s[:10]) - 1.0, rtol=1e-12)


# route: (min(m, n), range of the count above eps, range of the hint, calls of
# (_block_svd, _full_svd)); the fallback's hint doubles past 20% of d
SVT_ROUTES = {"lapack": (40, (0, 40), (1, 40), (0, 1)),
              "block": (120, (0, 11), (1, 12), (1, 0)),
              "block-fallback": (120, (25, 120), (1, 24), (1, 1))}


@settings(max_examples=30, deadline=None)
@given(route=st.sampled_from(sorted(SVT_ROUTES)), r_frac=st.floats(0.0, 1.0),
       hint_frac=st.floats(0.0, 1.0), extra=st.integers(0, 30), tall=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_svt_hint_is_saturated_only_at_full_dimension(route, r_frac, hint_frac, extra, tall,
                                                      seed):
    # every route leaves a value at or below eps in s_raw unless it holds all
    # min(m, n) values, so the next hint is min(svp + 1, d): predict_rank's
    # SV_JUMP step, which completion takes, gives d for a recovery solve too
    d, (r_lo, r_hi), (h_lo, h_hi), calls = SVT_ROUTES[route]
    r = r_lo + int(r_frac * (r_hi - r_lo))
    hint = h_lo + int(hint_frac * (h_hi - h_lo))
    s = list(np.linspace(10.0, 2.0, r)) + list(np.linspace(0.5, 0.0, d - r))
    W = with_spectrum(*((d + extra, d) if tall else (d, d + extra)), s, seed)
    with mock.patch.object(ll, "_full_svd", wraps=ll._full_svd) as full, \
            mock.patch.object(ll, "_block_svd", wraps=ll._block_svd) as block:
        _, svp, s_raw = svt_triplets(W, 1.0, hint)
    assert (block.call_count, full.call_count) == calls
    assert svp == r
    assert svp < len(s_raw) or len(s_raw) == d
    assert predict_rank(svp, len(s_raw), d) == min(svp + 1, d)


@pytest.mark.parametrize("eps", [1.5, 6.0], ids=["below", "above"])
def test_block_svt_null_vector_power_step(eps):
    # one nonzero entry c = 3: the first Rayleigh-Ritz step finds c and zeros,
    # so the block holds a null vector and the Chebyshev interval is empty;
    # the block takes a plain power step from W^T u_i instead
    W = np.zeros((100, 100))
    W[17, 42] = 3.0
    steps, rayleigh_ritz = [], ll._rayleigh_ritz

    def spy(W, Qt):
        steps.append(rayleigh_ritz(W, Qt))
        return steps[-1]

    with mock.patch.object(ll, "_rayleigh_ritz", spy), \
            mock.patch.object(ll, "_orth_rows", wraps=ll._orth_rows) as orth:
        kept, svp, s_raw = svt_triplets(W, eps, 3)
    powered = [Zt for _, s, _, Zt, _ in steps if s[-1] == 0.0]
    assert any(call.args[0] is Zt for call in orth.call_args_list for Zt in powered)
    with mock.patch.object(ll, "_BLOCK_MIN_DIM", 100):
        ref, ref_svp, _ = svt_triplets(W, eps, 3)
    assert svp == ref_svp == (1 if eps < 3.0 else 0)
    assert s_raw[0] == pytest.approx(3.0, rel=1e-14)
    assert np.allclose(kept.s, ref.s, rtol=1e-14)
    assert np.allclose(kept.compose(), ref.compose(), rtol=0, atol=1e-14)


def test_block_svt_stale_warm_starts():
    s = list(np.linspace(10.0, 2.0, 12)) + list(np.linspace(0.5, 0.0, 180))
    W = with_spectrum(230, 192, s, 25)
    V = np.linalg.svd(W)[2].T
    other = np.linalg.qr(rng(26).standard_normal((192, 40)))[0]
    for v0 in (V[:, :40],                                 # wider than the block
               V[:, :3],                                  # narrower
               np.hstack([V[:, :4], V[:, :4]]),           # repeated columns
               np.hstack([V[:, :6], np.zeros((192, 4))]),  # zero columns
               other,                                     # another matrix's
               np.zeros((192, 0))):
        assert_matches_full(W, 1.0, 13, v0=v0)


def test_block_svt_warm_start_wrong_length_rejected():
    W = rng(27).standard_normal((200, 180))
    with pytest.raises(ValueError):
        svt_triplets(W, 1.0, 5, v0=np.ones((200, 2)))


def test_block_svt_is_bit_reproducible():
    s = list(np.linspace(10.0, 2.0, 15)) + list(np.linspace(0.5, 0.0, 160))
    W = with_spectrum(210, 175, s, 28)
    v0 = np.linalg.qr(rng(29).standard_normal((175, 10)))[0]
    a = svt_triplets(W, 1.0, 16, v0=v0)
    b = svt_triplets(W.copy(), 1.0, 16, v0=v0.copy())
    assert a[1] == b[1]
    for x, y in ((a[0].U, b[0].U), (a[0].s, b[0].s), (a[0].V, b[0].V), (a[2], b[2])):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("shape", [(300, 200), (200, 300), (400, 400)])
def test_spectral_norm_partial_route_matches_full(shape):
    g = rng(30)
    for W in (g.standard_normal(shape), with_spectrum(*shape, [3.0, 3.0, 1.0], 31)):
        with mock.patch.object(ll, "_lanczos_svd", wraps=ll._lanczos_svd) as lanczos:
            got = spectral_norm(W)
        assert lanczos.call_count == 1
        expect = np.linalg.svd(W, compute_uv=False)[0]
        assert abs(got - expect) <= 1e-12 * expect


# ------------------------------------------------------ densify fallbacks

def test_operator_densify_logs_one_warning_per_fallback(caplog, monkeypatch):
    g = rng(32)
    om = ObservedSet.from_linear(200, 180, np.sort(g.choice(200 * 180, size=2000,
                                                            replace=False)))
    op = SparsePlusLowRank(om.to_csr(g.standard_normal(2000)),
                           g.standard_normal((200, 2)), g.standard_normal((180, 2)))
    caplog.set_level(logging.WARNING, logger="lowrank")

    truncated_svd(op, 4)                           # Lanczos: stays matrix-free
    assert caplog.records == []
    truncated_svd(op, 50)
    assert len(caplog.records) == 1
    rec = caplog.records[0]
    assert rec.name == "lowrank" and rec.levelno == logging.WARNING
    assert "200x180" in rec.getMessage() and "partial-SVD share" in rec.getMessage()

    def fail(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.arange(1.0), np.zeros((5, 1)))

    monkeypatch.setattr(ll, "svds", fail)
    caplog.clear()
    truncated_svd(op, 4)
    assert len(caplog.records) == 1
    assert "rank-4" in caplog.records[0].getMessage()
    assert "did not converge" in caplog.records[0].getMessage()


# ------------------------------------------------------------ ObservedSet

def test_observed_set_rejects_duplicates_and_out_of_range():
    with pytest.raises(ValueError):
        ObservedSet.from_linear(3, 3, [0, 0])
    with pytest.raises(ValueError):
        ObservedSet(3, 3, [0], [3])


def test_observed_set_sorts_pairs():
    om = ObservedSet.from_linear(3, 3, [7, 2, 1])
    assert list(om.row_idx) == [0, 0, 2] and list(om.col_idx) == [1, 2, 1]
    assert om.size == 3 and om.complement_size == 6


def test_observed_set_extract_scatter_roundtrip():
    g = rng(18)
    W = g.standard_normal((5, 4))
    om = ObservedSet.from_linear(5, 4, [0, 3, 7, 19])
    vals = W[om.row_idx, om.col_idx]
    back = om.to_csr(vals).toarray()
    assert np.array_equal(back[om.row_idx, om.col_idx], vals)
    assert back[1, 0] == 0.0 and np.count_nonzero(back) == 4


def test_observed_set_csr_data_in_index_order():
    # completion reuses one CSR pattern and writes values in the set's order,
    # which holds because the set is sorted row-major with no duplicates;
    # explicit zeros must keep their slots
    g = rng(21)
    om = ObservedSet.from_linear(40, 30, np.sort(g.choice(1200, size=300, replace=False)))
    v = g.standard_normal(300)
    v[::7] = 0.0
    S = om.to_csr(v)
    assert S.has_sorted_indices and S.nnz == om.size
    assert np.array_equal(S.data, v)
    assert np.array_equal(S.indices, om.col_idx)
    assert np.array_equal(np.repeat(np.arange(40), np.diff(S.indptr)), om.row_idx)


# ------------------------------------------------------ SparsePlusLowRank

def test_sparse_plus_low_rank_matvec_matches_dense():
    g = rng(19)
    om = ObservedSet.from_linear(9, 7, np.sort(g.choice(63, size=20, replace=False)))
    S = om.to_csr(g.standard_normal(20))
    L = g.standard_normal((9, 3))
    R = g.standard_normal((7, 3))
    op = SparsePlusLowRank(S, L, R)
    dense = op.to_dense()
    x = g.standard_normal(7)
    y = g.standard_normal(9)
    assert np.allclose(op.matvec(x), dense @ x, atol=1e-12)
    assert np.allclose(op.rmatvec(y), dense.T @ y, atol=1e-12)


@pytest.mark.parametrize("m,n", [(9, 7), (7, 9)])
@pytest.mark.parametrize("k", [0, 3])
def test_sparse_plus_low_rank_block_product_matches_columns(m, n, k):
    g = rng(22)
    om = ObservedSet.from_linear(m, n, np.sort(g.choice(m * n, size=20, replace=False)))
    op = SparsePlusLowRank(om.to_csr(g.standard_normal(20)),
                           g.standard_normal((m, k)), g.standard_normal((n, k)))
    dense = op.to_dense()
    X = g.standard_normal((n, 4))
    y = g.standard_normal(m)
    stacked = np.column_stack([op.matvec(x) for x in X.T])
    block = op.matvec(X)
    assert np.allclose(block, stacked, rtol=1e-14, atol=1e-14)
    # rmatvec goes through the transpose taken once at construction
    assert np.allclose(op.rmatvec(y), dense.T @ y, atol=1e-12)
    assert np.allclose(block, dense @ X, atol=1e-12)
    # the LinearOperator hands whole blocks to matvec, so a partial SVD
    # recovers its singular vectors without per-column callbacks
    with mock.patch.object(SparsePlusLowRank, "matvec", autospec=True,
                           side_effect=SparsePlusLowRank.matvec) as mv:
        lin = op.as_linear_operator()
        assert np.array_equal(lin.matmat(X), block)
    assert mv.call_count == 1
    assert np.array_equal(mv.call_args.args[1], X)


def test_truncated_svd_on_operator_matches_dense():
    g = rng(20)
    om = ObservedSet.from_linear(200, 200, np.sort(g.choice(200 * 200, size=3000,
                                                            replace=False)))
    S = om.to_csr(g.standard_normal(3000))
    L = g.standard_normal((200, 2)) * 3
    R = g.standard_normal((200, 2))
    op = SparsePlusLowRank(S, L, R)
    t_op = truncated_svd(op, 4)
    t_dn = ll._full_svd(op.to_dense(), 4)
    assert np.allclose(t_op.s, t_dn.s, rtol=1e-10)
