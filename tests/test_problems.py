import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lowrank.linalg import TruncatedSVD
from lowrank.problems import (
    ERROR_ROWS,
    _rel_error,
    degrees_of_freedom,
    gen_mc,
    gen_rpca,
    round_half_up,
    sample_without_replacement,
)


def test_round_half_up():
    assert round_half_up(1.5) == 2
    assert round_half_up(2.5) == 3
    assert round_half_up(2.4) == 2


def test_degrees_of_freedom():
    assert degrees_of_freedom(50, 2) == 2 * (100 - 2)
    assert degrees_of_freedom(1000, 10) == 19900


def test_sample_without_replacement_distinct_and_in_range():
    g = np.random.Generator(np.random.Philox(0))
    picked = sample_without_replacement(1000, 400, g)
    assert len(set(picked.tolist())) == 400
    assert picked.min() >= 0 and picked.max() < 1000


def test_sample_without_replacement_validation():
    g = np.random.Generator(np.random.Philox(0))
    for n_total, k in ((5, 6), (5, -1), (2**63 + 1, 1)):
        with pytest.raises(ValueError):
            sample_without_replacement(n_total, k, g)


def test_sample_without_replacement_full_draw():
    g = np.random.Generator(np.random.Philox(1))
    picked = sample_without_replacement(10, 10, g)
    assert sorted(picked.tolist()) == list(range(10))


def _sequential_sample(n_total, k, rng):
    """The reference partial Fisher-Yates: one step at a time, swaps in a dict."""
    draws = rng.integers(0, 2**64, size=k, dtype=np.uint64) if k else ()
    state = {}
    picked = np.empty(k, dtype=np.int64)
    for i in range(k):
        j = i + int(draws[i] % np.uint64(n_total - i))
        picked[i] = state.get(j, j)
        state[j] = state.get(i, i)
    return picked


def _both_samples(n_total, k, seed):
    return [f(n_total, k, np.random.Generator(np.random.Philox(seed)))
            for f in (sample_without_replacement, _sequential_sample)]


@st.composite
def _sample_sizes(draw):
    # small N: collisions and long chains are common; huge N: the packed
    # (target, step) key overflows past N * k = 2**63 and the other sort runs
    n_total = draw(st.one_of(st.integers(1, 40), st.integers(1, 3000),
                             st.integers(2**32, 2**62)))
    return n_total, draw(st.integers(0, min(n_total, 600)))


@settings(max_examples=300, deadline=None)
@given(sizes=_sample_sizes(), seed=st.integers(0, 2**32 - 1))
@example(sizes=(1, 0), seed=0)
@example(sizes=(1, 1), seed=0)
@example(sizes=(7, 1), seed=3)
@example(sizes=(400, 400), seed=5)
@example(sizes=(2**61, 4), seed=6)
@example(sizes=(2**61, 5), seed=6)
@example(sizes=(2**63, 3), seed=7)
def test_sample_without_replacement_matches_sequential(sizes, seed):
    picked, reference = _both_samples(*sizes, seed)
    assert picked.dtype == reference.dtype == np.int64
    assert picked.tobytes() == reference.tobytes()


class _Words:
    """A stand-in generator whose one 64-bit draw returns the given words."""

    def __init__(self, words):
        self.words = words

    def integers(self, low, high, size, dtype):
        assert (low, high, size, dtype) == (0, 2**64, len(self.words), np.uint64)
        return np.array(self.words, dtype=np.uint64)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_total=st.one_of(st.integers(1, 40), st.integers(2**60, 2**62)))
def test_sample_without_replacement_matches_sequential_on_crafted_words(data, n_total):
    # small words make steps collide and chain at any N, so both sorts meet
    # ties: the packed key's at small N, the other one's past N * k = 2**63
    k = data.draw(st.integers(0, min(n_total, 100)))
    words = data.draw(st.lists(st.one_of(st.integers(0, 8), st.integers(0, 2**64 - 1)),
                               min_size=k, max_size=k))
    picked = sample_without_replacement(n_total, k, _Words(words))
    reference = _sequential_sample(n_total, k, _Words(words))
    assert picked.tobytes() == reference.tobytes()


def test_sample_without_replacement_past_the_packed_key():
    # N * k > 2**63: a packed (target, step) key would wrap step 2's target
    # 2**62 onto position 0, and step 1's chain looks position 0 up
    n_total, words = 2**62 + 1, [5, 4, 2**62 - 2, 0]
    picked = sample_without_replacement(n_total, 4, _Words(words))
    assert picked.tolist() == _sequential_sample(n_total, 4, _Words(words)).tolist() \
        == [5, 0, 2**62, 3]


def test_sample_without_replacement_matches_sequential_at_benchmark_scale():
    # the completion benchmark's size: N = 1000**2, p = 6 * r(2m - r) at r = 10
    picked, reference = _both_samples(10**6, 119_400, 1000)
    assert picked.tobytes() == reference.tobytes()


def test_sample_without_replacement_memory_independent_of_range():
    # an arange(n_total) or bitmap over the range would take terabytes
    n_total, k = 10**12, 1000
    tracemalloc.start()
    try:
        picked = sample_without_replacement(
            n_total, k, np.random.Generator(np.random.Philox(8)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert np.unique(picked).size == k
    assert picked.min() >= 0 and picked.max() < n_total
    reference = _sequential_sample(n_total, k, np.random.Generator(np.random.Philox(8)))
    assert picked.tobytes() == reference.tobytes()


def test_gen_rpca_table_protocol_counts():
    inst = gen_rpca(500, 25, 0.05, 0)
    assert inst.e_card == 12500
    assert int((inst.e_star != 0).sum()) == 12500
    s = np.linalg.svd(inst.a_star, compute_uv=False)
    assert s[24] / s[0] > 1e-10
    assert s[25] / s[0] < 1e-10


def test_gen_rpca_deterministic():
    a = gen_rpca(20, 2, 0.1, 77)
    b = gen_rpca(20, 2, 0.1, 77)
    assert np.array_equal(a.d, b.d)
    assert np.array_equal(a.e_star, b.e_star)
    c = gen_rpca(20, 2, 0.1, 78)
    assert not np.array_equal(a.d, c.d)


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")).tobytes())
    return h.hexdigest()


# The support draws follow both factor draws in the one Philox stream, so
# these pins also catch a change in how much of the stream the factors take.
# At rank 1, A* = L R^T is one product per entry (exact, with or without BLAS),
# so pinning it also fixes which factor is drawn first.
@pytest.mark.parametrize("seed, e_star_sha, a_star_sha", [
    (0, "ad0003d2c6ab2770936e4aefae61a128e5419444a039e49d818f9553e2ab87e3",
     "0a1646960007b6bb653398571be3a3040c3f7a7304949df13224329cda0c6f96"),
    (7, "bf8995ab76b06e246dd263c5a8c0c46587c33099bac2ed7a8d3cc2c9ab781218",
     "0afd83304529f24efaef712839c95fcaabe31de4e5a1257d2d1ed598d69200de"),
    (41000, "d9c8092918f90ba727ef3f1c82d49b8d57501e3e50fdd8c2505c9ea72a0143c2",
     "6c324307846ac3598f35d3e04b38ccb48577791925ec3c0ccbeee1033a2e96d2"),
])
def test_gen_rpca_draws_pinned(seed, e_star_sha, a_star_sha):
    inst = gen_rpca(40, 1, 0.1, seed)
    assert _sha256(inst.e_star) == e_star_sha
    assert _sha256(inst.a_star) == a_star_sha


def test_gen_rpca_degenerate_zero():
    inst = gen_rpca(20, 0, 0.0, 1)
    assert not inst.d.any() and not inst.a_star.any() and not inst.e_star.any()
    assert inst.e_card == 0


def test_gen_rpca_corruption_values_bounded():
    inst = gen_rpca(40, 2, 0.2, 5)
    nz = inst.e_star[inst.e_star != 0]
    assert nz.size == inst.e_card == round_half_up(0.2 * 1600)
    assert (np.abs(nz) <= 500.0).all()


def test_gen_rpca_lambda_default():
    inst = gen_rpca(64, 2, 0.05, 1)
    assert inst.lam == pytest.approx(1 / 8)


def test_gen_rpca_validation():
    with pytest.raises(ValueError):
        gen_rpca(10, 11, 0.05, 0)
    with pytest.raises(ValueError):
        gen_rpca(10, 2, 1.0, 0)


def test_gen_mc_table_protocol_counts():
    # p = 6 * d_r at m=1000, r=10 gives the 0.12 sampling density setup
    p = 6 * degrees_of_freedom(1000, 10)
    assert p == 119_400
    inst = gen_mc(1000, 10, p, 3)
    assert inst.p == p
    assert inst.d_r == 19_900
    assert pytest.approx(p / 1000**2, abs=1e-12) == 0.1194
    assert np.array_equal(inst.d_values,
                          inst.a_star[inst.omega.row_idx, inst.omega.col_idx])


def test_gen_mc_full_observation():
    inst = gen_mc(12, 2, 144, 4)
    assert inst.omega.size == 144
    omega = inst.omega
    assert list(omega.row_idx * omega.cols + omega.col_idx) == list(range(144))


def test_gen_mc_small_arithmetic():
    inst = gen_mc(50, 2, 5 * degrees_of_freedom(50, 2), 11)
    assert inst.p == 980
    assert inst.omega.size == 980


def test_gen_mc_deterministic():
    a = gen_mc(30, 2, 200, 9)
    b = gen_mc(30, 2, 200, 9)
    assert np.array_equal(a.a_star, b.a_star)
    assert np.array_equal(a.omega.row_idx, b.omega.row_idx)
    assert np.array_equal(a.omega.col_idx, b.omega.col_idx)


@pytest.mark.parametrize("seed, omega_sha", [
    (3, "e94ef9da44a7fcc8fd581015f438c8bc76c0686a93036152eeea0b29fb98fa14"),
    (11, "0af2f3f49f4bed75b478f5648465a691b0d2ef1c71312b6115573f4e83d1e97d"),
    (301000, "1a722b18f1cc68cbb364a847a1cdc2b94d96f0e97d623bc426a3a2e05a62b3c8"),
])
def test_gen_mc_sample_pinned(seed, omega_sha):
    omega = gen_mc(50, 2, 500, seed).omega
    assert _sha256(omega.row_idx, omega.col_idx) == omega_sha


def test_gen_mc_validation():
    with pytest.raises(ValueError):
        gen_mc(10, 2, 101, 0)
    with pytest.raises(ValueError):
        gen_mc(10, 11, 5, 0)


@pytest.mark.filterwarnings("error")
def test_rel_error_of_zero_truth_is_norm_of_estimate():
    # both instance kinds measure the estimate itself when a_star is zero,
    # with no 0/0 on the way
    mc = gen_mc(10, 0, 20, 1)
    rpca = gen_rpca(10, 0, 0.1, 1)
    for inst in (mc, rpca):
        assert inst.rel_error(np.zeros((10, 10))) == 0.0
        assert inst.rel_error(np.full((10, 10), 0.5)) == pytest.approx(5.0)
    inst = gen_mc(10, 2, 50, 1)
    assert inst.rel_error(2.0 * inst.a_star) == pytest.approx(1.0)


@pytest.mark.parametrize("m, n, k", [(1, 1, 1), (ERROR_ROWS, 5, 2),
                                     (2 * ERROR_ROWS + 1, 70, 3), (150, 2 * ERROR_ROWS, 0)])
def test_rel_error_of_factored_estimate_matches_dense_formula(m, n, k):
    # the blocked sums, for a factored or a dense estimate, give the value of
    # the formula on the composed matrix, block edges and zero rank included;
    # a Fortran-ordered truth is read through copies of its row blocks
    g = np.random.Generator(np.random.Philox(m + n + k))
    T = TruncatedSVD(g.standard_normal((m, k)), g.uniform(1, 2, k), g.standard_normal((n, k)))
    A = T.compose()
    for a_star in (g.standard_normal((m, n)), np.asfortranarray(A + g.standard_normal((m, n)))):
        dense = np.linalg.norm(A - a_star) / np.linalg.norm(a_star)
        assert _rel_error(T, a_star) == pytest.approx(dense, rel=1e-14, abs=0)
        assert _rel_error(A, a_star) == pytest.approx(dense, rel=1e-14, abs=0)
    zero = np.zeros((m, n))
    assert _rel_error(T, zero) == pytest.approx(np.linalg.norm(A), rel=1e-14, abs=0)
