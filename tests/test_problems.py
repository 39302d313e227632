import numpy as np
import pytest

from lowrank.problems import (
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


def test_sample_without_replacement_full_draw():
    g = np.random.Generator(np.random.Philox(1))
    picked = sample_without_replacement(10, 10, g)
    assert sorted(picked.tolist()) == list(range(10))


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
