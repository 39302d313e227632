import gc
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lowrank.linalg import ObservedSet, SparsePlusLowRank, TruncatedSVD
from lowrank.mc import (
    DE_RESOLUTION,
    McConfig,
    gap_truncated_rank,
    rho_from_density,
    _delta_e_factored,
    _exact_slices,
    _projection,
    _row_max,
    solve_mc_ialm,
)
from lowrank.problems import degrees_of_freedom, gen_mc, gen_rpca
from lowrank.rpca import SV0_DEFAULTS, SV_JUMP, predict_rank, solve_apg, solve_ealm, solve_ialm


def _mask(omega):
    """Dense boolean mask of an observed set."""
    mask = np.zeros((omega.rows, omega.cols), dtype=bool)
    mask[omega.row_idx, omega.col_idx] = True
    return mask


@pytest.fixture(scope="module")
def mc50():
    inst = gen_mc(50, 2, 5 * degrees_of_freedom(50, 2), 11)
    res = solve_mc_ialm(inst.omega, inst.d_values, McConfig(keep_iterates=True))
    return inst, res


# ------------------------------------------------------- rho_from_density

def test_rho_from_density_values():
    assert rho_from_density(0.12) == pytest.approx(1.440256, abs=1e-12)
    assert rho_from_density(1.0) == pytest.approx(3.076, abs=1e-12)


def test_rho_from_density_range():
    with pytest.raises(ValueError):
        rho_from_density(0.0)
    with pytest.raises(ValueError):
        rho_from_density(1.5)


# ------------------------------------------------------- rank prediction

def _predict_mc(svp, sv, s, d):
    """Completion's next partial-SVD dimension, as the solver computes it."""
    return predict_rank(gap_truncated_rank(s, svp), sv, d)


def test_predict_rank_mc_no_gap_saturated():
    assert _predict_mc(4, 4, [10, 9, 8, 7.5], 100) == 14 == 4 + SV_JUMP


def test_predict_rank_mc_gap_branch():
    assert _predict_mc(2, 4, [10, 9, 0.1, 0.05], 100) == 3


def test_predict_rank_mc_zero_tail_is_infinite_gap():
    # s2/s3 = inf: gap index 2, truncation keeps min(svp, 2)
    assert _predict_mc(3, 4, [10, 9, 0.0, 0.0], 100) == 3
    assert gap_truncated_rank([10, 9, 0.0, 0.0], 3) == 2


def test_predict_rank_mc_validation():
    with pytest.raises(ValueError):
        _predict_mc(1, 1, [], 100)
    with pytest.raises(ValueError):
        _predict_mc(3, 2, [5.0, 4.0], 100)


def test_gap_truncated_rank_single_value():
    assert gap_truncated_rank([3.0], 1) == 1


# ---------------------------------------------------------------- config

def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(rho=0.9)
    with pytest.raises(ValueError):
        McConfig(eps1=0)


def test_values_at_matches_dense_product_across_chunks(monkeypatch):
    import lowrank.linalg as ll

    g = np.random.Generator(np.random.Philox(40))
    m, n, k = 150, 140, 4
    lin = np.sort(g.choice(m * n, size=2 * ll.VALUES_BUDGET // k + 1234, replace=False))
    om = ObservedSet.from_linear(m, n, lin)
    # integer-valued factors and values: every product and sum is exact, so the
    # gathered values must equal the composed matrix bit for bit, chunk edges
    # included
    T = TruncatedSVD(g.integers(-9, 10, (m, k)).astype(float), np.arange(k, 0, -1.0),
                     g.integers(-9, 10, (n, k)).astype(float))
    got = T.values_at(om)
    assert np.array_equal(got, T.compose()[om.row_idx, om.col_idx])
    # neither the budget, down to one sample per chunk, nor ``out`` changes the
    # floating-point result
    T = TruncatedSVD(g.standard_normal((m, k)), g.uniform(1, 2, k), g.standard_normal((n, k)))
    ref = T.values_at(om)
    for budget in (1, k, 7 * k + 3, ll.VALUES_BUDGET, om.size * k):
        monkeypatch.setattr(ll, "VALUES_BUDGET", budget)
        assert T.values_at(om).tobytes() == ref.tobytes()
        out = np.full(om.size, np.nan)
        assert T.values_at(om, out=out) is out
        assert out.tobytes() == ref.tobytes()
    empty = TruncatedSVD(np.zeros((m, 0)), np.zeros(0), np.zeros((n, 0)))
    assert empty.shape == (m, n)
    assert np.array_equal(empty.values_at(om), np.zeros(om.size))
    assert np.array_equal(empty.values_at(om, out=np.full(om.size, np.nan)), np.zeros(om.size))


def test_mc_solver_gathers_through_values_at():
    from unittest import mock

    inst = gen_mc(50, 2, 5 * degrees_of_freedom(50, 2), 12)
    with mock.patch.object(TruncatedSVD, "values_at", autospec=True,
                           side_effect=TruncatedSVD.values_at) as spy:
        res = solve_mc_ialm(inst.omega, inst.d_values)
    assert spy.call_count == res.iterations


def test_mc_solver_builds_one_sparse_pattern_per_solve():
    # every iteration's sparse part sits on the index arrays the observed set
    # built once; only its values change, and a second solve on the same set
    # builds no new pattern
    from unittest import mock

    import lowrank.mc as mcmod

    inst = gen_mc(50, 2, 5 * degrees_of_freedom(50, 2), 12)
    parts = []

    def record(S, L, R):
        parts.append(S)
        return SparsePlusLowRank(S, L, R)

    with mock.patch.object(mcmod, "SparsePlusLowRank", side_effect=record):
        first = solve_mc_ialm(inst.omega, inst.d_values)
        second = solve_mc_ialm(inst.omega, inst.d_values)
    assert first.iterations > 1
    # the mu0 probe and one sparse part per iteration, per solve
    assert len(parts) == first.iterations + second.iterations + 2
    pattern = inst.omega.to_csr(inst.d_values)
    for S in parts:
        assert np.shares_memory(S.indices, pattern.indices)
        assert np.shares_memory(S.indptr, pattern.indptr)


# ---------------------------------------------------------------- solves

def test_mc_recovers_small_instance(mc50):
    inst, res = mc50
    assert res.converged
    assert res.rank == 2
    assert inst.rel_error(res.A.compose()) <= 1e-5


def test_mc_fully_observed_recovers_exactly():
    g = np.random.Generator(np.random.Philox(3))
    m = 20
    A0 = g.standard_normal((m, 2)) @ g.standard_normal((m, 2)).T
    omega = ObservedSet.from_linear(m, m, np.arange(m * m))
    res = solve_mc_ialm(omega, A0.ravel())
    assert res.converged
    err = np.linalg.norm(res.A.compose() - A0) / np.linalg.norm(A0)
    assert err < 1e-10


def test_mc_rejects_bad_inputs():
    empty = ObservedSet(4, 4, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    with pytest.raises(ValueError):
        solve_mc_ialm(empty, np.empty(0))
    omega = ObservedSet.from_linear(4, 4, [0, 5])
    with pytest.raises(ValueError):
        solve_mc_ialm(omega, np.array([1.0]))
    with pytest.raises(ValueError):
        solve_mc_ialm(omega, np.array([1.0, np.nan]))


def test_mc_zero_values_return_zero_rank():
    # ||values||_F = 0 is the all-zero input, not a failed scale check
    omega = ObservedSet.from_linear(4, 4, [0, 5, 9])
    res = solve_mc_ialm(omega, np.zeros(3))
    assert res.converged and res.iterations == 1 and res.rank == 0


def test_mc_max_iter_exhaustion():
    inst = gen_mc(30, 2, 300, 5)
    res = solve_mc_ialm(inst.omega, inst.d_values, McConfig(max_iter=3))
    assert not res.converged
    assert res.iterations == 3


# ------------------------------------------------------------- identities

def test_mc_multiplier_supported_on_omega(mc50):
    inst, res = mc50
    # stored sparse by construction; densify and re-check the complement
    for snap in res.iterates[:: max(1, len(res.iterates) // 10)]:
        Y = inst.omega.to_csr(snap.y).toarray()
        outside = Y.copy()
        outside[inst.omega.row_idx, inst.omega.col_idx] = 0.0
        assert not outside.any()


def test_mc_e_identity(mc50):
    # E from the complement projection equals pi_Omega(A) - A within 1e-12
    inst, res = mc50
    D = inst.omega.to_csr(inst.d_values).toarray()
    mask = _mask(inst.omega)
    for snap in res.iterates[:: max(1, len(res.iterates) // 8)]:
        A = snap.a.compose()
        Y = inst.omega.to_csr(snap.y).toarray()
        lhs = D - A + Y / snap.mu
        lhs[mask] = 0.0
        rhs = np.where(mask, A, 0.0) - A
        assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(A).max())


def test_mc_dual_surrogate_overestimates_true_distance(mc50):
    # mu * ||dE|| bounds the distance from the subgradient holder
    # Y_{k-1} + mu (D - A_k - E_{k-1}) to the set of matrices supported on
    # the sample set
    inst, res = mc50
    D = inst.omega.to_csr(inst.d_values).toarray()
    mask = _mask(inst.omega)
    y_prev = np.zeros((50, 50))
    a_prev = np.zeros((50, 50))
    for snap in res.iterates:
        A = snap.a.compose()
        e_prev = np.where(mask, 0.0, -a_prev)
        e_now = np.where(mask, 0.0, -A)
        y_hat = y_prev + snap.mu * (D - A - e_prev)
        true_dist = np.linalg.norm(np.where(mask, 0.0, y_hat))
        surrogate = snap.mu * np.linalg.norm(e_now - e_prev)
        assert surrogate >= true_dist - 1e-9 * max(1.0, true_dist)
        y_prev = inst.omega.to_csr(snap.y).toarray()
        a_prev = A


def test_mc_factored_delta_e_matches_dense(mc50):
    inst, res = mc50
    mask = _mask(inst.omega)
    prev = np.zeros((50, 50))
    rows, cols = inst.omega.row_idx, inst.omega.col_idx
    from lowrank.mc import _delta_e_factored

    a_old = TruncatedSVD(np.zeros((50, 0)), np.zeros(0), np.zeros((50, 0)))
    obs_old = np.zeros(inst.p)
    for snap in res.iterates:
        A = snap.a.compose()
        obs_new = A[rows, cols]
        dense = np.linalg.norm(np.where(mask, 0.0, A - prev))
        diff = obs_new - obs_old
        fact = _delta_e_factored(snap.a, a_old, diff @ diff)
        if dense > 1e-12:
            assert abs(fact - dense) / dense < 1e-8
        prev, a_old, obs_old = A, snap.a, obs_new


@pytest.mark.parametrize("inner", [7, 1000])
def test_projection_matches_exact_rational_product(inner, monkeypatch):
    # columns spread over 16 decades; the reference is exact rational arithmetic
    from fractions import Fraction

    g = np.random.Generator(np.random.Philox(inner))
    Q = g.standard_normal((inner, 3)) * 10.0 ** g.uniform(-8, 8, size=3)
    S = g.standard_normal((inner, 4)) * 10.0 ** g.uniform(-8, 8, size=4)

    def exact_dot(x, y):
        return sum(Fraction(a) * Fraction(b) for a, b in zip(x, y))

    # every product of two slices is exact in float64
    for x in _exact_slices(Q.T, inner, _row_max(Q.T)):
        for y in _exact_slices(S.T, inner, _row_max(S.T)):
            P = x @ y.T
            assert all(Fraction(P[i, j]) == exact_dot(x[i], y[j])
                       for i in range(3) for j in range(4))
    got = _projection(Q, S)
    # the slice products are exact, so the row blocks do not change the bits
    for budget in (1, 4 * 3 + 1, inner * 4):
        monkeypatch.setattr("lowrank.mc.SLICE_BUDGET", budget)
        assert _projection(Q, S).tobytes() == got.tobytes()
    tol = 8 * np.finfo(np.longdouble).eps
    for i in range(3):
        for j in range(4):
            err = abs(Fraction(*got[i, j].as_integer_ratio()) - exact_dot(Q[:, i], S[:, j]))
            assert err <= tol * Fraction(np.abs(Q[:, i]) @ np.abs(S[:, j]))


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 30), n=st.integers(1, 30), k_new=st.integers(0, 30),
       k_old=st.integers(0, 30), step_exp=st.floats(0.0, -np.log10(DE_RESOLUTION)),
       frac=st.floats(0.05, 0.99), seed=st.integers(0, 2**32 - 1))
def test_factored_delta_e_matches_dense_reference(m, n, k_new, k_old, step_exp, frac,
                                                  seed):
    # tall and wide shapes, either rank (zero included) and steps from ||A||_F
    # down to DE_RESOLUTION * ||A||_F. The factors are shaped like the
    # solver's: L carries the scale, R has (nearly) orthonormal columns; the
    # columns only one side has are scaled by the step, so the step stays small
    g = np.random.Generator(np.random.Philox(seed))
    d = min(m, n)
    k_new, k_old = min(k_new, d), min(k_old, d)
    K, c = max(k_new, k_old), min(k_new, k_old)
    h = 10.0 ** -step_exp
    BL = g.standard_normal((m, K)) * 10.0 ** g.uniform(-3.0, 3.0)
    BR = np.linalg.qr(g.standard_normal((n, K)))[0] if K else np.zeros((n, 0))
    L_old, R_old = BL[:, :k_old].copy(), BR[:, :k_old].copy()
    L_new, R_new = BL[:, :k_new].copy(), BR[:, :k_new].copy()
    L_old[:, c:] *= h
    L_new[:, c:] *= h
    L_new[:, :c] += h * g.standard_normal((m, c)) * np.abs(BL[:, :c]).max(initial=0.0)
    R_new[:, :c] += h * g.standard_normal((n, c))
    om = ObservedSet.from_linear(m, n, np.sort(g.choice(
        m * n, size=max(1, min(m * n, round(frac * m * n))), replace=False)))
    T_new = TruncatedSVD(L_new, np.ones(k_new), R_new)
    T_old = TruncatedSVD(L_old, np.ones(k_old), R_old)
    diff = T_new.values_at(om) - T_old.values_at(om)

    fact = _delta_e_factored(T_new, T_old, diff @ diff)
    A_new, A_old = L_new @ R_new.T, L_old @ R_old.T
    dA = A_new - A_old
    dense = np.linalg.norm(np.where(_mask(om), 0.0, dA))
    assert np.isfinite(fact) and fact >= 0.0
    if dense == 0.0:
        return
    # criterion 10's rule: compare where the dense float64 reference resolves
    # the step 1e-8 relative, its noise floor being ~eps * sqrt(mn) * max|A|
    # (with a margin of 2). The identity subtracts ||on-sample dA||^2 from
    # ||dA||^2, which scales any input error by ||dA||^2 / ||off-sample dA||^2,
    # so that factor multiplies the floor
    floor = np.finfo(np.float64).eps * np.sqrt(m * n) * max(
        np.abs(A_new).max(), np.abs(A_old).max())
    amplification = (np.linalg.norm(dA) / dense) ** 2
    if dense >= 2e8 * floor * amplification:
        assert abs(fact - dense) <= 1e-8 * dense


def test_mc_hot_path_never_densifies(monkeypatch):
    # the solver may only materialize dense matrices through the
    # truncated-SVD fallback; at this size the Lanczos path must suffice
    calls = []
    monkeypatch.setattr(SparsePlusLowRank, "to_dense",
                        lambda self: calls.append(1) or (_ for _ in ()).throw(
                            AssertionError("hot path densified")))
    inst = gen_mc(300, 5, 5 * degrees_of_freedom(300, 5), 8)
    res = solve_mc_ialm(inst.omega, inst.d_values)
    assert res.converged
    assert not calls


def test_mc_trace_and_report(mc50):
    inst, res = mc50
    cfg = McConfig()
    rep = res.report(config=cfg, a_star=inst.a_star)
    assert rep["algorithm"] == "mc-ialm"
    assert rep["rel_error"] <= 1e-5
    assert rep["iterations"] == res.iterations
    mus = [r.mu for r in res.trace]
    rho = rho_from_density(inst.p / 2500)
    for a, b in zip(mus, mus[1:]):
        assert b / a == pytest.approx(rho, rel=1e-12)
    assert all(r.e_card == inst.omega.complement_size for r in res.trace)


def test_mc_report_zero_ground_truth(mc50):
    # a zero a_star reports the plain error norm, as the recovery report does,
    # instead of dividing by zero
    _, res = mc50
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = res.report(a_star=np.zeros((50, 50)))
    # the blocked sum rounds differently from one norm of the composed matrix
    assert rep["rel_error"] == pytest.approx(np.linalg.norm(res.A.compose()), rel=1e-14)


def test_mc_solve_and_report_never_compose():
    # the solver, its report against the truth and the instance's error all
    # work from the factors of A: the dense m x n matrix is never formed
    from unittest import mock

    inst = gen_mc(60, 2, 5 * degrees_of_freedom(60, 2), 12)
    with mock.patch.object(TruncatedSVD, "compose", autospec=True,
                           side_effect=AssertionError("composed A")):
        res = solve_mc_ialm(inst.omega, inst.d_values)
        rep = res.report(config=McConfig(), a_star=inst.a_star)
        err = inst.rel_error(res.A)
    assert res.converged and rep["rel_error"] == err <= 1e-5


def test_mc_solve_and_report_stay_below_one_dense_matrix():
    # three sample-length vectors and workspace of the factors' size: on this
    # instance the tracemalloc peak of solve and report measured 0.73 m*n*8
    # bytes. The report that composed A took one m x n matrix by itself, and
    # the solve that gathered 8192 samples per chunk peaked at 1.44 of them.
    m = 800
    inst = gen_mc(m, 8, 6 * degrees_of_freedom(m, 8), 8)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = solve_mc_ialm(inst.omega, inst.d_values)
        rep = res.report(config=McConfig(), a_star=inst.a_star)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.converged and rep["rel_error"] <= 1e-5
    assert peak < m * m * 8


@pytest.mark.parametrize("kind", ["mc-ialm", "ialm", "ealm", "apg"])
def test_loop_predicts_rank_through_predict_rank(kind):
    # all four solvers take their SVD sizes from the one outer loop and its
    # one rule
    from unittest import mock

    solvers = {"ialm": solve_ialm, "ealm": solve_ealm, "apg": solve_apg}
    with mock.patch("lowrank.rpca.predict_rank", wraps=predict_rank) as spy:
        if kind == "mc-ialm":
            inst = gen_mc(50, 2, 5 * degrees_of_freedom(50, 2), 12)
            res = solve_mc_ialm(inst.omega, inst.d_values)
        else:
            res = solvers[kind](gen_rpca(50, 2, 0.05, 12).d)
    # the loop is the only caller, once per record, and each record is one SVT
    calls = spy.call_args_list
    assert len(calls) == res.iterations == res.svd_count
    # the loop also sets the first size, from the algorithm's default
    first = min(SV0_DEFAULTS[kind], 50)
    assert res.trace[0].sv_pred in ({first} if kind == "mc-ialm"
                                    else {min(first << j, 50) for j in range(7)})
    # each call takes that iteration's kept rank and SVD size, and its result
    # is the next iteration's SVD hint: completion's SVD takes the hint as is,
    # recovery's SVT doubles it while every computed value clears the threshold
    for call, rec, nxt in zip(calls, res.trace, res.trace[1:]):
        assert call.args == (rec.rank_a, rec.sv_pred, 50)
        hint = predict_rank(*call.args)
        doubled = {min(hint << j, 50) for j in range(7)}
        assert nxt.sv_pred in ({hint} if kind == "mc-ialm" else doubled)


def test_mc_rank_path_stabilizes_at_true_rank(mc50):
    # the truncation scheme may overshoot for an iteration or two before the
    # gap reveals the split; after that the rank path must hold the true rank
    # (monotonicity itself is a warn-level diagnostic, not an assertion)
    inst, res = mc50
    ranks = [r.rank_a for r in res.trace]
    settle = next(i for i, r in enumerate(ranks) if r == inst.r)
    assert all(r == inst.r for r in ranks[settle:])
    assert settle <= 5

    from lowrank.diagnostics import verify_report

    checks = {c["invariant"]: c["status"] for c in verify_report(res.report())}
    assert checks.get("rank_monotone") in ("pass", "warn")
