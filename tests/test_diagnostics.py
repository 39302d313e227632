import re
from unittest import mock

import pytest

from lowrank.diagnostics import (
    DUAL_FEAS_SLACK,
    divergence_demo,
    high_accuracy_reference,
    lyapunov_increases,
    lyapunov_trace,
    objective_rate_check,
    verify_report,
)
from lowrank.mc import McConfig, solve_mc_ialm
from lowrank.problems import gen_mc, gen_rpca
from lowrank.rpca import Iterate, RpcaConfig, solve_apg, solve_ealm, solve_ialm


@pytest.fixture(scope="module")
def inst20():
    return gen_rpca(20, 1, 0.05, 3)


@pytest.fixture(scope="module")
def tight_reference(inst20):
    ref = high_accuracy_reference(inst20.d)
    assert ref.converged
    return ref


# ------------------------------------------------------------ residuals

def test_feasibility_decreases_across_outer_trace(inst20):
    # mid-run snapshots of an exact-ALM solve: positive and strictly
    # decreasing over the last five outer records
    res = solve_ealm(inst20.d)
    feas = [r.feas for r in res.trace][-5:]
    assert all(f > 0 for f in feas)
    assert all(b < a for a, b in zip(feas, feas[1:]))


# -------------------------------------------------------- dual feasibility

def test_dual_feasibility_converged_multiplier_near_boundary():
    # at the default tolerances the converged multiplier sits on the dual
    # boundary to within 1e-2 in both gauges (A and E both nonzero here)
    inst = gen_rpca(50, 2, 0.05, 100)
    cfg = RpcaConfig()
    res = solve_ialm(inst.d, cfg)
    assert res.A.any() and res.E.any()
    final = res.report(config=cfg)["final"]
    sp, li = final["spectral_y"], final["linf_y_over_lambda"]
    assert abs(sp - 1.0) <= 1e-2
    assert abs(li - 1.0) <= 1e-2


# ---------------------------------------------------------------- lyapunov

def test_lyapunov_zero_at_optimum(tight_reference):
    ref = tight_reference
    vals = lyapunov_trace([Iterate(ref.A, ref.E, ref.Y, 1.0),
                           Iterate(ref.A, ref.E, ref.Y, 2.0)], ref.E, ref.Y)
    assert vals == [0.0, 0.0]


def test_lyapunov_nonincreasing_along_ialm(inst20, tight_reference):
    res = solve_ialm(inst20.d, RpcaConfig(keep_iterates=True))
    vals = lyapunov_trace(res.iterates, tight_reference.E, tight_reference.Y)
    assert lyapunov_increases(vals) == []


def test_lyapunov_flags_perturbed_trace(inst20, tight_reference):
    res = solve_ialm(inst20.d, RpcaConfig(keep_iterates=True))
    snaps = list(res.iterates)
    snaps[2], snaps[10] = snaps[10], snaps[2]
    vals = lyapunov_trace(snaps, tight_reference.E, tight_reference.Y)
    assert lyapunov_increases(vals) != []


def test_lyapunov_requires_oracle(inst20):
    with pytest.raises(ValueError):
        lyapunov_trace([], None, None)


# ---------------------------------------------------- objective rate check

def test_objective_gap_bounded_by_inverse_penalty(inst20, tight_reference):
    # the objective gap at the multiplier steps (the last record at each mu)
    # decays at least like 1/mu: fit the constant on the first three, verify
    # on the rest
    steps = {r.mu: r for r in solve_ealm(inst20.d).trace}.values()
    objs = [r.objective for r in steps]
    mus = [r.mu for r in steps]
    C, ok = objective_rate_check(objs, mus, tight_reference.objective)
    assert C > 0
    assert all(ok)


def test_objective_rate_check_validation():
    with pytest.raises(ValueError):
        objective_rate_check([1.0, 2.0], [1.0, 2.0], 1.0)


# --------------------------------------------------------- divergence demo

def test_divergence_demo_documented_triple():
    inst = gen_rpca(30, 2, 0.05, 11)
    stalled, err = divergence_demo(inst, 10.0)
    assert stalled and err > 1e-2


def test_divergence_demo_standard_schedule_converges():
    inst = gen_rpca(30, 2, 0.05, 11)
    res = solve_ialm(inst.d, RpcaConfig(eps1=1e-8))
    assert res.converged
    assert inst.rel_error(res.A) < 1e-6


@pytest.mark.parametrize("rho", [3.0, 10.0, 100.0])
def test_divergence_demo_control_is_ialm_with_its_dual_gate(rho):
    # the same rho, but mu grows only where the dual surrogate is below eps2
    inst = gen_rpca(30, 2, 0.05, 11)
    assert divergence_demo(inst, rho)[0]
    res = solve_ialm(inst.d, RpcaConfig(rho=rho))
    assert res.converged
    assert inst.rel_error(res.A) < 1e-5


def test_divergence_demo_on_a_zero_matrix():
    assert divergence_demo(gen_rpca(20, 0, 0.0, 3), 10.0) == (False, 0.0)


def test_divergence_demo_stall_is_flagged_by_the_report(monkeypatch):
    # IALM calls the stalled point converged (it is feasible); the report's
    # dual gauge is what tells it from the optimum
    import lowrank.diagnostics as diag

    spy = mock.Mock(wraps=solve_ialm)
    monkeypatch.setattr(diag, "solve_ialm", spy)
    inst = gen_rpca(30, 2, 0.05, 11)
    assert divergence_demo(inst, 10.0)[0]
    assert spy.call_count == 1
    cfg = spy.call_args.args[1]
    res = solve_ialm(inst.d, cfg)
    assert res.converged
    report = res.report(config=cfg)
    assert report["final"]["linf_y_over_lambda"] == pytest.approx(1.884, abs=1e-3)
    assert report["final"]["spectral_y"] == pytest.approx(1.0, abs=1e-3)
    by_name = {c["invariant"]: c["status"] for c in verify_report(report)}
    assert by_name.pop("dual_feasibility") == "fail"
    assert set(by_name.values()) == {"pass"}


def test_divergence_demo_takes_one_spectral_norm(monkeypatch):
    import lowrank.linalg as ll
    import lowrank.rpca as rpca

    spy = mock.Mock(wraps=ll.spectral_norm)
    monkeypatch.setattr(ll, "spectral_norm", spy)
    monkeypatch.setattr(rpca, "spectral_norm", spy)
    divergence_demo(gen_rpca(30, 2, 0.05, 11), 10.0)
    assert spy.call_count == 1


def test_divergence_demo_runs_the_ialm_sweep(monkeypatch):
    # one IALM solve, one SVT per sweep
    import lowrank.diagnostics as diagnostics
    import lowrank.rpca as rpca

    solve = mock.Mock(wraps=rpca.solve_ialm)
    svt = mock.Mock(wraps=rpca.svt_triplets)
    monkeypatch.setattr(diagnostics, "solve_ialm", solve)
    monkeypatch.setattr(rpca, "svt_triplets", svt)
    divergence_demo(gen_rpca(30, 2, 0.05, 11), 10.0, max_iter=5)
    assert solve.call_count == 1 and svt.call_count == 5


def test_divergence_demo_growth_precondition():
    inst = gen_rpca(10, 1, 0.05, 1)
    with pytest.raises(ValueError):
        divergence_demo(inst, 2.0)


# ----------------------------------------------------------- verify_report

def test_verify_report_passes_on_clean_run(inst20):
    cfg = RpcaConfig()
    res = solve_ialm(inst20.d, cfg)
    checks = verify_report(res.report(config=cfg))
    by_name = {c["invariant"]: c["status"] for c in checks}
    assert by_name["residuals_finite_nonnegative"] == "pass"
    assert by_name["mu_nondecreasing"] == "pass"
    assert by_name["mu_adaptive_rule"] == "pass"
    assert by_name["converged_feasibility"] == "pass"
    assert by_name["dual_feasibility"] in ("pass", "warn")


@pytest.mark.parametrize("sp,li,status", [
    (1.0 + DUAL_FEAS_SLACK, 0.5, "pass"),
    (1.005, 1.01, "warn"),
    (10.0, 10.0, "fail"),
])
def test_verify_report_dual_feasibility_bands(inst20, sp, li, status):
    cfg = RpcaConfig()
    rep = solve_ialm(inst20.d, cfg).report(config=cfg)
    rep["final"].update(spectral_y=sp, linf_y_over_lambda=li)
    by_name = {c["invariant"]: c["status"] for c in verify_report(rep)}
    assert by_name["dual_feasibility"] == status


@pytest.mark.parametrize("block, field", [
    ("trace", "feas"), ("trace", "dual_est"), ("trace", "mu"), ("trace", "rank_a"),
    ("config", "eps1"), ("config", "eps2"), ("config", "rho"),
    ("final", "spectral_y"), ("final", "linf_y_over_lambda"),
])
def test_verify_report_refuses_booleans_as_numbers(inst20, block, field):
    # Python's bool is an int, but a JSON true is no number: a report with
    # "feas": true must not be judged as feas 1
    cfg = RpcaConfig()
    rep = solve_ialm(inst20.d, cfg).report(config=cfg)
    (rep["trace"][-1] if block == "trace" else rep[block])[field] = True
    where = f"trace[{len(rep['trace']) - 1}]" if block == "trace" else block
    with pytest.raises(ValueError, match=re.escape(f"'{where}.{field}'")):
        verify_report(rep)


@pytest.mark.parametrize("solver, cfg, check", [
    (solve_ialm, RpcaConfig(rho=2.0), "mu_adaptive_rule"),
    (solve_ialm, RpcaConfig(eps2=1e-4), "mu_adaptive_rule"),
    (solve_ialm, RpcaConfig(eps1=1e-4), "converged_feasibility"),
    (solve_apg, RpcaConfig(eps1=1e-4), "converged_feasibility"),
])
def test_verify_report_reads_the_config_the_solve_ran(solver, cfg, check):
    # a bare report echoes the config the solve ran, its defaults resolved, so
    # a correct solve with a non-default rho, eps2 or eps1 passes without
    # config=; without that block the check falls back to the defaults and
    # reads fail
    res = solver(gen_rpca(60, 3, 0.05, 1).d, cfg)
    bare = res.report()
    assert bare["config"] == res.config.to_dict()
    assert {k: bare["config"][k] for k in ("eps1", "eps2")} == {"eps1": cfg.eps1, "eps2": cfg.eps2}
    assert bare["config"]["rho"] == (cfg.rho or 1.6 if solver is solve_ialm else None)
    for rep, want in ((bare, "pass"), (res.report(config=cfg), "pass"),
                      ({k: v for k, v in bare.items() if k != "config"}, "fail")):
        by_name = {c["invariant"]: c["status"] for c in verify_report(rep)}
        assert by_name[check] == want


def test_verify_report_reads_the_config_a_completion_solve_ran():
    # a completion result carries its McConfig, mu0 and rho resolved, so the
    # bare report of a correct solve with a loose eps1 passes; judged against
    # the recovery default eps1 = 1e-7 it read fail
    inst = gen_mc(300, 5, 17850, 1)
    cfg = McConfig(eps1=1e-3, eps2=1e-1)
    res = solve_mc_ialm(inst.omega, inst.d_values, cfg)
    bare = res.report()
    assert res.converged and 1e-7 < res.trace[-1].feas < 1e-3
    assert res.lam is None and isinstance(res.config, McConfig)
    assert bare["config"] == res.config.to_dict()
    assert res.config.mu0 == res.trace[0].mu and res.trace[1].mu == res.config.rho * res.config.mu0
    assert bare["config"]["eps1"] == 1e-3
    for rep, want in ((bare, "pass"), ({k: v for k, v in bare.items() if k != "config"}, "fail")):
        by_name = {c["invariant"]: c["status"] for c in verify_report(rep)}
        assert by_name["converged_feasibility"] == want


def test_verify_report_catches_tampered_mu(inst20):
    cfg = RpcaConfig()
    res = solve_ialm(inst20.d, cfg)
    rep = res.report(config=cfg)
    rep["trace"][3]["mu"] *= 1.01
    by_name = {c["invariant"]: c["status"] for c in verify_report(rep)}
    assert by_name["mu_adaptive_rule"] == "fail"


def test_verify_report_checks_the_ealm_penalty_path(inst20):
    # EALM's trace shows the penalty of every sweep: held between multiplier
    # steps, never lowered
    cfg = RpcaConfig()
    res = solve_ealm(inst20.d, cfg)
    rep = res.report(config=cfg)
    assert res.report()["config"]["rho"] == 6.0
    by_name = {c["invariant"]: c["status"] for c in verify_report(rep)}
    assert by_name["mu_nondecreasing"] == "pass"
    rep["trace"][-1]["mu"] = rep["trace"][0]["mu"] / 2
    by_name = {c["invariant"]: c["status"] for c in verify_report(rep)}
    assert by_name["mu_nondecreasing"] == "fail"


def test_verify_report_rank_warning_only(inst20):
    cfg = RpcaConfig()
    res = solve_ialm(inst20.d, cfg)
    rep = res.report(config=cfg)
    for rec in rep["trace"][:3]:
        rec["rank_a"] = 5
    by_name = {c["invariant"]: c["status"] for c in verify_report(rep)}
    assert by_name["rank_monotone"] == "warn"


def test_verify_report_manifest_rank(inst20):
    cfg = RpcaConfig()
    res = solve_ialm(inst20.d, cfg)
    rep = res.report(config=cfg)
    by_name = {c["invariant"]: c["status"]
               for c in verify_report(rep, {"r": inst20.r})}
    assert by_name["rank_matches_manifest"] == "pass"
