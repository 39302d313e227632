"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion lines as they complete). The heavyweight recovery benchmark
(m=500) and completion benchmark (m=1000) instances are solved once per
session and shared across criteria.
"""

import numpy as np
import pytest

from lowrank.diagnostics import (
    divergence_demo,
    high_accuracy_reference,
    lyapunov_increases,
    lyapunov_trace,
)
from lowrank.linalg import shrink, svt_triplets
from lowrank.mc import McConfig, _delta_e_factored, solve_mc_ialm
from lowrank.problems import degrees_of_freedom, gen_mc, gen_rpca
from lowrank.rpca import RpcaConfig, solve_apg, solve_ealm, solve_ialm

BENCH_SEED = 1          # m=500 recovery instance shared by criteria 1-4
MC_SEED = 5             # m=1000 completion instance for criterion 5
DEMO_SEED = 11          # 30x30 divergence-demo instance for criterion 9


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def bench500():
    inst = gen_rpca(500, 25, 0.05, BENCH_SEED)
    return inst


@pytest.fixture(scope="module")
def ialm500(bench500):
    return solve_ialm(bench500.d)


@pytest.fixture(scope="module")
def ealm500(bench500):
    return solve_ealm(bench500.d)


@pytest.fixture(scope="module")
def apg500(bench500):
    return solve_apg(bench500.d)


def test_criterion_01_ialm_table_row(bench500, ialm500):
    res = ialm500
    rel = bench500.rel_error(res.A)
    ok = (res.converged and res.rank == 25 and abs(res.e_card - 12500) <= 20
          and rel <= 1e-6 and res.svd_count <= 30)
    report(1, ok, f"ialm m=500: rank={res.rank} e_card={res.e_card} "
                  f"rel={rel:.2e} svd={res.svd_count}")


def test_criterion_02_ealm_table_row(bench500, ealm500):
    res = ealm500
    rel = bench500.rel_error(res.A)
    ok = res.converged and rel <= 1e-6 and res.svd_count <= 45
    report(2, ok, f"ealm m=500: rel={rel:.2e} svd={res.svd_count}")


def test_criterion_03_speed_ordering(ialm500, apg500):
    ok = apg500.svd_count >= 4 * ialm500.svd_count
    report(3, ok, f"apg svd={apg500.svd_count} vs 4 x ialm svd="
                  f"{4 * ialm500.svd_count}")


def test_criterion_04_sparsity_accuracy_gap(ialm500, apg500):
    over = apg500.e_card - 12500
    ok = over >= 20 and abs(ialm500.e_card - 12500) <= 5
    report(4, ok, f"apg e_card=12500+{over}, ialm e_card={ialm500.e_card}")


def test_criterion_05_mc_table_row():
    inst = gen_mc(1000, 10, 6 * degrees_of_freedom(1000, 10), MC_SEED)
    res = solve_mc_ialm(inst.omega, inst.d_values)
    rel = inst.rel_error(res.A.to_dense())
    ok = (res.converged and res.iterations <= 110 and res.rank == 10
          and rel <= 5e-6)
    report(5, ok, f"mc m=1000: iter={res.iterations} rank={res.rank} "
                  f"rel={rel:.2e}")


def test_criterion_06_prox_oracles():
    g = np.random.Generator(np.random.Philox(2024))
    ok = True
    detail = "50 shrink subgradient + 50 svt perturbation checks"
    for trial in range(50):
        # shrink on a 5x5: subgradient optimality per entry, margin 1e-10
        W = g.standard_normal((5, 5)) * g.uniform(0.5, 4)
        eps = float(g.uniform(0.05, 1.5))
        X = shrink(W, eps)
        nz = X != 0
        if not np.all(np.abs(eps * np.sign(X[nz]) + (X[nz] - W[nz])) <= 1e-10):
            ok, detail = False, f"shrink subgradient failed at trial {trial}"
            break
        if not np.all(np.abs(W[~nz]) <= eps + 1e-10):
            ok, detail = False, f"shrink dead zone failed at trial {trial}"
            break
        # svt on a 6x6: output beats 200 random perturbations, margin 1e-10
        W6 = g.standard_normal((6, 6)) * 2
        eps6 = float(g.uniform(0.2, 1.5))
        A = svt_triplets(W6, eps6, 6)[0].compose()
        obj = (eps6 * np.linalg.svd(A, compute_uv=False).sum()
               + 0.5 * np.linalg.norm(A - W6) ** 2)
        for _ in range(200):
            P = A + 1e-3 * g.standard_normal((6, 6))
            obj_p = (eps6 * np.linalg.svd(P, compute_uv=False).sum()
                     + 0.5 * np.linalg.norm(P - W6) ** 2)
            if obj > obj_p + 1e-10:
                ok, detail = False, f"svt perturbation beat prox at trial {trial}"
                break
        if not ok:
            break
    report(6, ok, detail)


def test_criterion_07_dual_feasibility():
    # eps2 controls how far the multiplier can sit outside the dual ball
    # (the l-inf gap scales with mu * ||dA||, which the default eps2 = 1e-5
    # does not pin down to 1e-3); run the check at a tight dual tolerance
    worst_sp = worst_li = 0.0
    ok = True
    for seed in range(100, 110):
        inst = gen_rpca(50, 2, 0.05, seed)
        cfg = RpcaConfig(eps2=1e-7)
        res = solve_ialm(inst.d, cfg)
        if not res.converged:
            ok = False
            break
        final = res.report(config=cfg)["final"]
        sp, li = final["spectral_y"], final["linf_y_over_lambda"]
        worst_sp = max(worst_sp, sp)
        worst_li = max(worst_li, li)
    ok = ok and worst_sp <= 1 + 1e-3 and worst_li <= 1 + 1e-3
    report(7, ok, f"10 instances: worst |Y|_2={worst_sp:.6f}, "
                  f"worst |Y|_inf/lam={worst_li:.6f}")


def test_criterion_08_lyapunov_monotone():
    bad_total = []
    for seed in range(60, 65):
        inst = gen_rpca(20, 1, 0.05, seed)
        ref = high_accuracy_reference(inst.d)
        assert ref.converged
        res = solve_ialm(inst.d, RpcaConfig(keep_iterates=True))
        vals = lyapunov_trace(res.iterates, ref.E, ref.Y)
        bad_total.extend((seed, k) for k in lyapunov_increases(vals))
    report(8, not bad_total, f"5 instances, violations: {bad_total or 'none'}")


def test_criterion_09_divergence_demo():
    inst = gen_rpca(30, 2, 0.05, DEMO_SEED)
    stalled, err_bad = divergence_demo(inst, 10.0)
    base = solve_ialm(inst.d, RpcaConfig(eps1=1e-8))
    err_base = inst.rel_error(base.A)
    ok = stalled and err_bad > 1e-2 and base.converged and err_base < 1e-6
    report(9, ok, f"forced schedule err={err_bad:.2e} (stalled={stalled}), "
                  f"standard schedule err={err_base:.2e}")


def test_criterion_10_mc_identities():
    inst = gen_mc(50, 2, 5 * degrees_of_freedom(50, 2), DEMO_SEED)
    res = solve_mc_ialm(inst.omega, inst.d_values, McConfig(keep_iterates=True))
    omega = inst.omega
    rows, cols = omega.row_idx, omega.col_idx
    mask = np.zeros((50, 50), dtype=bool)
    mask[rows, cols] = True

    # multiplier support: zero off the sample set at every iteration
    support_ok = True
    for snap in res.iterates:
        Y = omega.to_csr(snap.y).toarray()
        off = Y.copy()
        off[rows, cols] = 0.0
        if off.any():
            support_ok = False
            break

    # factored step formula vs dense computation, 1e-8 relative, compared
    # where the dense float64 reference itself resolves the step (its own
    # noise floor is ~eps * sqrt(mn) * max|A| ~ 1e-13; below ~2e-5 the
    # comparison would measure reference noise, not formula error)
    worst = 0.0
    prev = np.zeros((50, 50))
    L_old = np.zeros((50, 0))
    R_old = np.zeros((50, 0))
    obs_old = np.zeros(inst.p)
    for snap in res.iterates:
        A = snap.a.L @ snap.a.R.T
        obs_new = A[rows, cols]
        dense = np.linalg.norm(np.where(mask, 0.0, A - prev))
        fact = _delta_e_factored(snap.a.L, snap.a.R, L_old, R_old, obs_new, obs_old)
        if dense >= 2e-5:
            worst = max(worst, abs(fact - dense) / dense)
        prev, L_old, R_old, obs_old = A, snap.a.L, snap.a.R, obs_new

    ok = support_ok and worst <= 1e-8
    report(10, ok, f"multiplier support clean={support_ok}, "
                   f"worst step-formula deviation={worst:.2e}")
