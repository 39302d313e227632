"""Convergence checkers: the Lyapunov quantity that certifies inexact-ALM
progress, the objective's 1/mu rate, a divergence demonstration for too-fast
penalty growth, and trace-level invariant verification for solver reports.

The KKT numbers of a solve (feasibility, dual surrogate, objective and the
multiplier's two dual gauges) are the ``final`` block of
``SolveResult.report()``; :func:`verify_report` judges them."""

from __future__ import annotations

import numpy as np

from .linalg import as_matrix
from .problems import RpcaInstance
from .rpca import IALM_RHO, RpcaConfig, solve_ealm, solve_ialm

__all__ = [
    "lyapunov_trace",
    "lyapunov_increases",
    "divergence_demo",
    "objective_rate_check",
    "high_accuracy_reference",
    "verify_report",
]

DUAL_FEAS_SLACK = 1e-3
LYAPUNOV_REL_SLACK = 1e-8
STALL_ERROR = 1e-2
# objective_rate_check: points that fit C, and the multiplicative slack on the rest
RATE_FIT_COUNT = 3
RATE_SLACK = 1.05
# high_accuracy_reference: every exact-ALM tolerance
REFERENCE_TOL = 1e-10


def lyapunov_trace(iterates, e_star, y_star):
    """V_k = ||E_k - E*||_F^2 + mu_k^-2 ||Y_k - Y*||_F^2 along a solver run.

    ``iterates`` is a sequence of per-iteration ``Iterate`` snapshots; the
    oracle pair should come from a high-accuracy reference solve. The
    sequence is non-increasing for a nondecreasing penalty schedule; use
    :func:`lyapunov_increases` to flag violations.
    """
    if e_star is None or y_star is None:
        raise ValueError("oracle solution (E*, Y*) is required")
    e_star = as_matrix(e_star, "e_star")
    y_star = as_matrix(y_star, "y_star")
    return [float(np.linalg.norm(it.e - e_star) ** 2
                  + np.linalg.norm(it.y - y_star) ** 2 / it.mu**2) for it in iterates]


def lyapunov_increases(values):
    """Indices k where V_{k+1} exceeds V_k beyond the relative slack
    :data:`LYAPUNOV_REL_SLACK`."""
    v = np.asarray(values, dtype=np.float64)
    bad = []
    for k in range(v.size - 1):
        if v[k + 1] > v[k] * (1.0 + LYAPUNOV_REL_SLACK):
            bad.append(k + 1)
    return bad


def high_accuracy_reference(D):
    """Reference optimum from the exact-ALM solver with all tolerances
    tightened to :data:`REFERENCE_TOL`; the result's objective serves as f*."""
    return solve_ealm(D, RpcaConfig(eps1=REFERENCE_TOL, inner_tol=REFERENCE_TOL))


def objective_rate_check(objectives, mus, f_star):
    """Fit C from the first :data:`RATE_FIT_COUNT` points of
    |obj_k - f*| <= C / mu_k and verify the bound (with multiplicative
    :data:`RATE_SLACK`) on the rest.

    Returns ``(C, ok)`` where ``ok`` lists one boolean per remaining point.
    """
    obj = np.asarray(objectives, dtype=np.float64)
    mus = np.asarray(mus, dtype=np.float64)
    if obj.size != mus.size or obj.size < RATE_FIT_COUNT + 1:
        raise ValueError(f"need matching objective/mu arrays of over {RATE_FIT_COUNT} points")
    gaps = np.abs(obj - f_star)
    C = float((gaps[:RATE_FIT_COUNT] * mus[:RATE_FIT_COUNT]).max())
    ok = [bool(gaps[k] <= RATE_SLACK * C / mus[k]) for k in range(RATE_FIT_COUNT, obj.size)]
    return C, ok


def divergence_demo(instance: RpcaInstance, growth, max_iter=100):
    """Solve ``instance`` by IALM with rho = ``growth`` and the dual gate held
    open (eps2 the largest double), so the penalty grows at every sweep:
    mu_k = mu0 * growth**(k - 1).

    With ``growth`` >= 3 the inverse penalties are summable, so the iterates
    stall far from the optimum, often at a point IALM's feasibility test
    accepts: ``stalled`` reports whether the final recovery error exceeds
    :data:`STALL_ERROR`. Plain IALM at the same rho, with its dual gate, is
    the control run. Returns ``(stalled, final_error)``.
    """
    if growth < 3:
        raise ValueError("growth must be at least 3 so the inverse penalties are summable")
    cfg = RpcaConfig(rho=growth, eps2=np.finfo(np.float64).max, max_iter=max_iter)
    final_error = instance.rel_error(solve_ialm(instance.d, cfg).A)
    return final_error > STALL_ERROR, final_error


def _check(name, status, detail):
    return {"invariant": name, "status": status, "detail": detail}


def _report_fields(report, manifest):
    """The trace, config and final block of a report, once every field that
    :func:`verify_report` reads holds its JSON type; ``ValueError`` names the
    first that is missing or mistyped. A JSON boolean is not a number here,
    though Python's ``bool`` is an ``int``."""
    def need(ok, field, kind):
        if not ok:
            raise ValueError(f"report field {field!r} must be {kind}")

    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if not isinstance(report, dict) or not isinstance(manifest, (dict, type(None))):
        raise ValueError("the report and the manifest must be JSON objects")
    trace, cfg, final = report.get("trace", []), report.get("config") or {}, report.get("final", {})
    need(isinstance(trace, list), "trace", "a list")
    for i, rec in enumerate(trace):
        need(isinstance(rec, dict), f"trace[{i}]", "an object")
        for k in ("feas", "dual_est", "mu", "rank_a"):
            need(number(rec.get(k)), f"trace[{i}].{k}", "a number")
    need(isinstance(cfg, dict), "config", "an object")
    for k in ("eps1", "eps2", "rho"):
        need(cfg.get(k) is None or number(cfg.get(k)), f"config.{k}", "a number or null")
    need(isinstance(final, dict), "final", "an object")
    for k in ("spectral_y", "linf_y_over_lambda") if "spectral_y" in final else ():
        need(number(final.get(k)), f"final.{k}", "a number")
    return trace, cfg, final


def verify_report(report, manifest=None):
    """Trace-level invariant verdicts for a solver JSON report.

    Returns a list of ``{invariant, status, detail}`` entries with status
    ``pass``, ``fail`` or ``warn``. The checks cover residual sanity, the
    penalty update rule, stopping consistency, multiplier dual feasibility
    (when the report carries the final gauge values) and the monotone-rank
    observation (warn only). A malformed report or manifest is a ``ValueError``.
    """
    checks = []
    trace, cfg, final = _report_fields(report, manifest)
    algorithm = report.get("algorithm", "?")
    feas = [r["feas"] for r in trace]
    dual = [r["dual_est"] for r in trace]
    mus = [r["mu"] for r in trace]

    finite = all(np.isfinite(v) and v >= 0 for v in feas + dual)
    checks.append(_check("residuals_finite_nonnegative",
                         "pass" if finite else "fail",
                         f"{len(trace)} records"))

    if algorithm in ("ealm", "ialm", "mc-ialm") and len(mus) > 1:
        nondecr = all(b >= a for a, b in zip(mus, mus[1:]))
        checks.append(_check("mu_nondecreasing", "pass" if nondecr else "fail",
                             f"mu range [{min(mus):.3g}, {max(mus):.3g}]"))

    if algorithm == "ialm" and len(mus) > 1:
        rho = cfg.get("rho") or IALM_RHO
        eps2 = cfg.get("eps2") or RpcaConfig.eps2
        ok = True
        for k in range(len(mus) - 1):
            ratio = mus[k + 1] / mus[k]
            grew = abs(ratio - rho) < 1e-9 * rho
            stayed = abs(ratio - 1.0) < 1e-12
            if not (grew or stayed) or grew != (dual[k] < eps2):
                ok = False
                break
        checks.append(_check("mu_adaptive_rule", "pass" if ok else "fail",
                             f"rho={rho}, eps2={eps2}"))

    if report.get("converged") and trace:
        eps1 = cfg.get("eps1") or RpcaConfig.eps1
        ok = feas[-1] < eps1
        checks.append(_check("converged_feasibility", "pass" if ok else "fail",
                             f"final feas {feas[-1]:.3g} vs eps1 {eps1:.3g}"))

    if "spectral_y" in final:
        sp, li = final["spectral_y"], final["linf_y_over_lambda"]
        if sp <= 1 + DUAL_FEAS_SLACK and li <= 1 + DUAL_FEAS_SLACK:
            status = "pass"
        elif sp <= 1.01 and li <= 1.01:
            status = "warn"
        else:
            status = "fail"
        checks.append(_check("dual_feasibility", status,
                             f"|Y|_2={sp:.6f}, |Y|_inf/lam={li:.6f}"))

    ranks = [r["rank_a"] for r in trace]
    if ranks:
        monotone = all(b >= a for a, b in zip(ranks, ranks[1:]))
        checks.append(_check("rank_monotone", "pass" if monotone else "warn",
                             f"rank path {ranks[:3]}...{ranks[-3:]}"))

    if manifest is not None and trace:
        want = manifest.get("r")
        if want is not None:
            got = report.get("rank")
            checks.append(_check("rank_matches_manifest",
                                 "pass" if got == want else "warn",
                                 f"recovered {got}, manifest {want}"))
    return checks
