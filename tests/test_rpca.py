import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lowrank.linalg import _FULL_SVD_DIM, spectral_norm, svt_triplets
from lowrank.mc import McConfig, solve_mc_ialm
from lowrank.problems import gen_mc, gen_rpca
from lowrank.rpca import (
    ALM_MU0_FACTOR,
    APG_ETA,
    APG_MU_BAR_FACTOR,
    RpcaConfig,
    _dual_start,
    predict_rank,
    solve_apg,
    solve_ealm,
    solve_ialm,
    solve_it,
    t_next,
)

ALL_SOLVERS = [solve_it, solve_apg, solve_ealm, solve_ialm]


@pytest.fixture(scope="module")
def small_instance():
    return gen_rpca(20, 1, 0.05, 3)


@pytest.fixture(scope="module")
def small_solutions(small_instance):
    D = small_instance.d
    return {
        "ealm": solve_ealm(D),
        "ialm": solve_ialm(D),
        "apg": solve_apg(D),
    }


# ---------------------------------------------------------- predict_rank

def test_predict_rank_saturated_branch():
    assert predict_rank(10, 10, 500) == 20


def test_predict_rank_growing_branch():
    assert predict_rank(8, 10, 500) == 9


def test_predict_rank_cap():
    assert predict_rank(500, 500, 500) == 500


def test_predict_rank_validation():
    with pytest.raises(ValueError):
        predict_rank(11, 10, 500)
    with pytest.raises(ValueError):
        predict_rank(2, 501, 500)


# ------------------------------------------------------------ t sequence

def test_t_sequence_law_holds():
    ts = [1.0]
    for _ in range(199):
        ts.append(t_next(ts[-1]))
    for tk, tk1 in zip(ts, ts[1:]):
        assert tk1 * tk1 - tk1 <= tk * tk * (1 + 1e-12) + 1e-12


def test_apg_steps_momentum_with_t_next(small_instance):
    from unittest import mock

    with mock.patch("lowrank.rpca.t_next", wraps=t_next) as spy:
        res = solve_apg(small_instance.d)
    assert res.converged
    assert spy.call_count == res.iterations


# ------------------------------------------------------------ zero input

@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_zero_input_short_circuits(solver):
    res = solver(np.zeros((8, 6)))
    assert res.converged
    assert res.iterations == 1
    assert not res.A.any() and not res.E.any()
    assert res.rank == 0 and res.e_card == 0


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_empty_input_rejected(solver, shape):
    # 1/sqrt(0) and a 0 x n "solution" would otherwise pass as converged
    with pytest.raises(ValueError, match="positive dimensions"):
        solver(np.zeros(shape))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-170, 1e160])
@pytest.mark.parametrize("solver", ALL_SOLVERS + [solve_mc_ialm])
def test_unrepresentable_frobenius_norm_rejected(solver, scale):
    # the sum of squares underflows to 0 or overflows to inf, so every scaled
    # residual would read NaN, 0 or inf: refuse the input instead of iterating,
    # without numpy's overflow warning
    if solver is solve_mc_ialm:
        inst = gen_mc(50, 2, 500, 3)
        args = (inst.omega, scale * inst.d_values)
    else:
        args = (scale * gen_rpca(20, 2, 0.05, 1).d,)
    with pytest.raises(ValueError, match="scale"):
        solver(*args)


# -------------------------------------------------------- config checks

def test_config_validation():
    with pytest.raises(ValueError):
        RpcaConfig(rho=1.0)
    with pytest.raises(ValueError):
        RpcaConfig(eps1=-1e-7)
    with pytest.raises(ValueError):
        RpcaConfig(max_iter=0)


_NEVER_WORK = [(f, v) for f in ("mu0", "rho", "eps1", "eps2") for v in (np.nan, np.inf)] \
    + [("max_iter", 2.5), ("max_iter", True)]


@pytest.mark.parametrize("config, field, value",
                         [(RpcaConfig, f, v) for f in ("lam", "inner_tol") for v in (np.nan, np.inf)]
                         + [(c, f, v) for c in (RpcaConfig, McConfig) for f, v in _NEVER_WORK])
def test_config_rejects_values_that_never_work(config, field, value):
    # a NaN tolerance never stops a solve, and a non-finite penalty or a
    # fractional iteration count fails only mid-solve
    with pytest.raises(ValueError, match=field):
        config(**{field: value})


@pytest.mark.parametrize("config", [RpcaConfig, McConfig])
def test_config_takes_a_numpy_integer_max_iter(config):
    assert config(max_iter=np.int64(3)).max_iter == 3


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_max_iter_exhaustion_returns_trace(solver):
    inst = gen_rpca(15, 1, 0.05, 4)
    res = solver(inst.d, RpcaConfig(max_iter=3))
    assert not res.converged
    assert res.iterations == 3 == len(res.trace)
    assert res.rank == res.trace[-1].rank_a
    assert res.e_card == res.trace[-1].e_card


# ------------------------------------------------- cross-solver agreement

def test_ealm_ialm_match(small_instance, small_solutions):
    ealm, ialm = small_solutions["ealm"], small_solutions["ialm"]
    assert ealm.converged and ialm.converged
    denom = np.linalg.norm(ealm.A)
    assert np.linalg.norm(ealm.A - ialm.A) / denom < 1e-5
    assert np.linalg.norm(ealm.E - ialm.E) / np.linalg.norm(ealm.E) < 1e-5


def test_objectives_agree_within_tolerance(small_solutions):
    objs = {k: r.objective for k, r in small_solutions.items()}
    ref = objs["ealm"]
    for key, value in objs.items():
        assert abs(value - ref) / ref < 1e-3, key


def test_ealm_kkt_feasibility(small_instance, small_solutions):
    ealm = small_solutions["ealm"]
    D = small_instance.d
    feas = np.linalg.norm(D - ealm.A - ealm.E) / np.linalg.norm(D)
    assert feas < 1e-7


def test_converged_results_respect_eps1(small_instance, small_solutions):
    D = small_instance.d
    for res in small_solutions.values():
        feas = np.linalg.norm(D - res.A - res.E) / np.linalg.norm(D)
        assert feas < 1e-7
        assert res.A.shape == D.shape and res.E.shape == D.shape


# ------------------------------------------------- iterative thresholding

def test_it_matches_ealm_oracle_on_small_instance():
    # high-accuracy exact-ALM solve is the oracle; the relaxed dual-ascent
    # solver should land within 1e-3 of it (jointly over the (A, E) pair)
    inst = gen_rpca(10, 1, 0.05, 7)
    oracle = solve_ealm(inst.d, RpcaConfig(eps1=1e-10, inner_tol=1e-9))
    res = solve_it(inst.d, RpcaConfig(max_iter=50_000))
    base = np.sqrt(np.linalg.norm(oracle.A) ** 2 + np.linalg.norm(oracle.E) ** 2)
    gap = np.sqrt(np.linalg.norm(res.A - oracle.A) ** 2
                  + np.linalg.norm(res.E - oracle.E) ** 2)
    assert gap / base < 1e-3


def test_it_needs_orders_of_magnitude_more_iterations():
    # characterization, not a fixed count: at m=100 scale the dual-ascent
    # solver is still unconverged after 100x the inexact-ALM budget while
    # clearly progressing
    inst = gen_rpca(100, 5, 0.05, 2)
    ialm = solve_ialm(inst.d)
    assert ialm.converged
    budget = 100 * ialm.iterations
    it = solve_it(inst.d, RpcaConfig(max_iter=budget))
    assert not it.converged
    assert it.iterations == budget
    assert it.trace[-1].feas < it.trace[0].feas


@pytest.mark.parametrize("solver", [solve_it, solve_apg, solve_ealm, solve_ialm])
def test_each_record_is_one_svt_with_a_predicted_hint_and_warm_start(solver, monkeypatch):
    # every solver makes one SVT per record, EALM's sweeps included: the first
    # hint is the solver's SV0_DEFAULTS entry, each later one comes from
    # predict_rank, and each call starts from the previous V
    import lowrank.rpca as rpca

    calls = []

    def spy(W, eps, sv_hint, v0=None):
        out = svt_triplets(W, eps, sv_hint, v0=v0)
        calls.append((sv_hint, v0, out))
        return out

    monkeypatch.setattr(rpca, "svt_triplets", spy)
    inst = gen_rpca(100, 5, 0.05, 2)
    res = solver(inst.d, RpcaConfig(max_iter=30))
    assert len(calls) == len(res.trace) == res.iterations == res.svd_count
    assert calls[0][0] == rpca.SV0_DEFAULTS[res.algorithm] and calls[0][1] is None
    for (_, _, (kept, svp, s_raw)), nxt, rec in zip(calls, calls[1:], res.trace):
        assert rec.sv_pred == len(s_raw) and rec.svp == svp
        assert nxt[0] == predict_rank(svp, len(s_raw), 100)
        assert nxt[1] is kept.V


# ----------------------------------------------------------- trace rules

def test_ialm_feasibility_identity_bit_exact():
    inst = gen_rpca(30, 2, 0.05, 11)
    res = solve_ialm(inst.d, RpcaConfig(keep_iterates=True))
    D = inst.d
    # Y_0 = D / max(||D||_2, ||D||_inf / lam), the dual gauge of D
    y_prev = D / max(spectral_norm(D), np.abs(D).max() / inst.lam)
    for snap in res.iterates:
        replay = y_prev + snap.mu * (D - snap.a - snap.e)
        assert np.array_equal(replay, snap.y)
        y_prev = snap.y


def test_ialm_snapshots_are_copies_of_the_iterates():
    # the solve updates A, E and Y in place, so each snapshot must own its arrays
    inst = gen_rpca(30, 2, 0.05, 11)
    res = solve_ialm(inst.d, RpcaConfig(keep_iterates=True))
    arrays = [x for it in res.iterates for x in (it.a, it.e, it.y)] + [res.A, res.E, res.Y]
    assert len({id(x) for x in arrays}) == len(arrays)
    for i, x in enumerate(arrays):
        assert not any(np.may_share_memory(x, y) for y in arrays[i + 1:])
    for k, snap in enumerate(res.iterates):
        ref = solve_ialm(inst.d, RpcaConfig(max_iter=k + 1))
        assert ref.iterations == k + 1 and snap.mu == ref.trace[-1].mu
        for got, want in ((snap.a, ref.A), (snap.e, ref.E), (snap.y, ref.Y)):
            assert got.tobytes() == want.tobytes()


def test_ialm_bits_do_not_follow_the_layout_of_d():
    # the in-place arrays are C-ordered whatever D's layout, so a Fortran-ordered
    # D feeds the norms and the SVT the same arrays as a C-ordered one
    D = gen_rpca(80, 4, 0.05, 3).d
    c, f = solve_ialm(D), solve_ialm(np.asfortranarray(D))
    for x, y in ((c.A, f.A), (c.E, f.E), (c.Y, f.Y)):
        assert x.tobytes() == np.ascontiguousarray(y).tobytes()
    assert [r.to_dict() for r in c.trace] == [r.to_dict() for r in f.trace]


@pytest.mark.parametrize("solve", [solve_ialm, solve_ealm, solve_apg])
def test_recovery_bits_do_not_follow_the_layout_of_d(solve):
    # past the LAPACK size gate the start-up spectral norm is an ARPACK run,
    # whose products round by the memory layout; it runs on a C-ordered copy,
    # so a strided view, its C copy and its Fortran copy take the same steps
    D = gen_rpca(200, 4, 0.05, 3).d[:, :160]
    assert min(D.shape) > _FULL_SVD_DIM and not D.flags.c_contiguous
    results = [solve(X) for X in (np.ascontiguousarray(D), np.asfortranarray(D), D)]
    ref = results[0]
    for res in results[1:]:
        for x, y in ((ref.A, res.A), (ref.E, res.E), (ref.Y, res.Y)):
            # APG keeps no multiplier
            assert (x is y is None) or x.tobytes() == np.ascontiguousarray(y).tobytes()
        assert [r.to_dict() for r in ref.trace] == [r.to_dict() for r in res.trace]


@settings(max_examples=5, deadline=None)
@given(m=st.integers(50, 100), r=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       transpose=st.booleans(), solve=st.sampled_from([solve_ialm, solve_ealm, solve_apg]))
def test_recovery_is_equivariant_under_permutations_and_transposes(m, r, seed, transpose,
                                                                  solve):
    # a square D with its rows and columns permuted, and transposed or not,
    # takes the same number of steps to the same A, permuted alike, up to the
    # rounding of the SVT (3e-13 relative measured). The block SVT's Gaussian
    # start lives in column space, so this is no identity of the bits. A
    # non-square transpose changes lam = 1/sqrt(rows) and is left out.
    D = gen_rpca(m, r, 0.05, seed).d
    g = np.random.Generator(np.random.Philox(seed))
    rows, cols = g.permutation(m), g.permutation(m)

    def move(X):
        X = X[rows][:, cols]
        return X.T if transpose else X

    ref, res = solve(D), solve(move(D))
    assert res.iterations == ref.iterations
    assert np.linalg.norm(res.A - move(ref.A)) <= 1e-12 * np.linalg.norm(ref.A)


def test_ialm_working_set_is_four_dense_matrices():
    # A, E, Y and one work matrix, plus the SVT's own workspace. On
    # gen_rpca(150, 7, 0.05, 1) the tracemalloc peak measured 5.8 m*n*8 bytes
    # here; the earlier sweep, with a fresh array for each step of its
    # formulas, peaked at 8.3, so the bound 7.0 fails that sweep and leaves
    # this one more than a matrix of headroom.
    m, n = 150, 150
    inst = gen_rpca(m, 7, 0.05, 1)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = solve_ialm(inst.d)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.converged
    assert peak / (m * n * 8) < 7.0


def test_ialm_mu_rule(small_instance):
    cfg = RpcaConfig()
    res = solve_ialm(small_instance.d, cfg)
    mus = [r.mu for r in res.trace]
    duals = [r.dual_est for r in res.trace]
    assert all(b >= a for a, b in zip(mus, mus[1:]))
    for k in range(len(mus) - 1):
        ratio = mus[k + 1] / mus[k]
        if duals[k] < cfg.eps2:
            assert ratio == pytest.approx(1.6, rel=1e-12)
        else:
            assert ratio == pytest.approx(1.0, rel=1e-15)


def test_ialm_stopping_requires_both_criteria(small_instance):
    cfg = RpcaConfig()
    res = solve_ialm(small_instance.d, cfg)
    assert res.converged
    last = res.trace[-1]
    assert last.feas < cfg.eps1 and last.dual_est < cfg.eps2
    for rec in res.trace[:-1]:
        assert rec.feas >= cfg.eps1 or rec.dual_est >= cfg.eps2


def test_trace_fields_sane(small_solutions):
    for res in small_solutions.values():
        for rec in res.trace:
            assert np.isfinite(rec.feas) and rec.feas >= 0
            assert np.isfinite(rec.dual_est) and rec.dual_est >= 0
            assert 0 <= rec.svp <= rec.sv_pred or rec.sv_pred == 0
        assert res.trace[-1].rank_a == res.rank
        assert res.trace[-1].e_card == res.e_card


def test_deterministic_traces(small_instance):
    a = solve_ialm(small_instance.d)
    b = solve_ialm(small_instance.d)
    assert a.iterations == b.iterations
    assert np.array_equal(a.A, b.A) and np.array_equal(a.E, b.E)
    for ra, rb in zip(a.trace, b.trace):
        assert ra.to_dict() == rb.to_dict()


def test_ealm_takes_the_spectral_norms_of_sign_d_and_d():
    # ||sign(D)||_2 scales the initial multiplier and ||D||_2 sets mu0; above
    # d = 150 they are the solve's only Lanczos runs (SVT takes the block or
    # LAPACK route)
    from unittest import mock

    import lowrank.linalg as ll

    inst = gen_rpca(200, 10, 0.05, 7)
    with mock.patch.object(ll, "_lanczos_svd", wraps=ll._lanczos_svd) as lanczos:
        res = solve_ealm(inst.d)
    assert res.converged
    assert lanczos.call_count == 2


def test_ealm_steps_the_multiplier_only_once_the_subproblem_is_solved(small_instance):
    # an inner tolerance no sweep can meet: every sweep keeps mu0 and the
    # starting multiplier, keeps no snapshot, and the solve ends at max_iter
    D = small_instance.d
    res = solve_ealm(D, RpcaConfig(inner_tol=1e-300, max_iter=5, keep_iterates=True))
    assert not res.converged and res.iterates == []
    assert [r.iter for r in res.trace] == [1, 2, 3, 4, 5]
    assert {r.mu for r in res.trace} == {ALM_MU0_FACTOR / spectral_norm(D)}
    sgn = np.sign(D)
    assert np.array_equal(res.Y, _dual_start(sgn, spectral_norm(sgn), 1 / np.sqrt(20)))


SCALE_EXPONENTS = [-40, -20, -10, 0, 6, 10, 20, 40]


@pytest.fixture(scope="module")
def scaled_solutions():
    inst = gen_rpca(40, 2, 0.05, 1)
    return inst, {(solve, k): solve(np.ldexp(inst.d, k))
                  for solve in (solve_ialm, solve_ealm, solve_apg) for k in SCALE_EXPONENTS}


def test_no_solver_reports_a_wrong_answer_as_converged_at_any_scale(scaled_solutions):
    inst, results = scaled_solutions
    for (solve, k), res in results.items():
        a_star = np.ldexp(inst.a_star, k)
        err = np.linalg.norm(res.A - a_star) / np.linalg.norm(a_star)
        assert not (res.converged and err > 1e-4), (solve.__name__, k, err)


@pytest.mark.parametrize("solve", [solve_ealm, solve_apg])
def test_recovery_is_equivariant_under_power_of_two_scaling(scaled_solutions, solve):
    # the start-up norms, thresholds and stopping tests all scale with D, so
    # solving 2^k D takes the same steps and returns 2^k times A and E bit for bit
    _, results = scaled_solutions
    ref = results[solve, 0]
    for k in SCALE_EXPONENTS:
        res = results[solve, k]
        assert res.iterations == ref.iterations and res.svd_count == ref.svd_count, k
        assert np.array_equal(res.A, np.ldexp(ref.A, k)), k
        assert np.array_equal(res.E, np.ldexp(ref.E, k)), k


@pytest.mark.parametrize("solver", [solve_it, solve_apg])
def test_keep_iterates_refused_without_alm_multiplier(solver, small_instance):
    # snapshots are kept by EALM, IALM and completion only; the others refuse
    # the flag instead of silently returning no iterates
    with pytest.raises(ValueError, match="EALM, IALM and completion can"):
        solver(small_instance.d, RpcaConfig(keep_iterates=True))
    with pytest.raises(ValueError, match="keep_iterates"):
        solver(np.zeros((3, 3)), RpcaConfig(keep_iterates=True))


def test_apg_cold_block_keeps_the_value_above_threshold():
    # iteration 25 runs a cold block (the step before kept nothing) on a
    # matrix with one singular value above the threshold; a first
    # Rayleigh-Ritz step once certified it below and returned svp 0
    res = solve_apg(gen_rpca(100, 5, 0.05, 41019).d)
    assert res.trace[23].svp == 0 and res.trace[24].svp == 1
    assert (res.iterations, res.rank, res.e_card) == (151, 5, 505)


# --------------------------------------------------------------- reports

def test_report_contents(small_instance):
    cfg = RpcaConfig()
    res = solve_ialm(small_instance.d, cfg)
    rep = res.report(config=cfg, a_star=small_instance.a_star)
    assert rep["schema"] == "lowrank.solve.v1"
    assert rep["algorithm"] == "ialm"
    assert rep["iterations"] == res.iterations
    assert rep["rel_error"] == pytest.approx(small_instance.rel_error(res.A))
    assert len(rep["trace"]) == res.iterations
    assert "spectral_y" in rep["final"]
    assert rep["config"]["eps1"] == cfg.eps1


def test_report_rejects_a_wrong_shaped_truth(small_instance):
    # one row of a 20x20 truth broadcasts against A unless the shapes are checked
    res = solve_ialm(small_instance.d)
    with pytest.raises(ValueError, match=r"\(1, 20\).*\(20, 20\)"):
        res.report(a_star=small_instance.a_star[:1])
    with pytest.raises(ValueError, match="shape"):
        small_instance.rel_error(res.A[:, :1])


def test_rectangular_input_accepted():
    # solvers take any shape even though the generator only makes squares
    g = np.random.Generator(np.random.Philox(21))
    A0 = g.standard_normal((18, 9)) @ g.standard_normal((12, 9)).T / 3.0
    E0 = np.zeros((18, 12))
    E0[g.choice(18, 9), g.choice(12, 9)] = g.uniform(-50, 50, 9)
    res = solve_ialm(A0 + E0)
    assert res.converged
    assert res.A.shape == (18, 12)
    feas = np.linalg.norm(A0 + E0 - res.A - res.E) / np.linalg.norm(A0 + E0)
    assert feas < 1e-7


def test_apg_momentum_with_custom_floor(small_instance, monkeypatch):
    # continuation: mu decays by APG_ETA per iteration down to the floor
    # APG_MU_BAR_FACTOR * mu0, at the defaults and under a custom floor
    for factor in (APG_MU_BAR_FACTOR, 1e-3):
        monkeypatch.setattr("lowrank.rpca.APG_MU_BAR_FACTOR", factor)
        res = solve_apg(small_instance.d, RpcaConfig(max_iter=500))
        mus = [r.mu for r in res.trace]
        floor = factor * mus[0]
        assert all(b == max(APG_ETA * a, floor) for a, b in zip(mus, mus[1:]))
        assert min(mus) >= floor
