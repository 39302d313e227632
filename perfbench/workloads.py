"""The benchmark's workloads: how each one makes its instances from the seed,
which solvers run on every instance, and the correctness gate on each solve.

This module imports nothing numeric at import time, so ``run.py`` can read the
workload names before BLAS threads are pinned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "rpca" (gen_rpca + recovery solvers) or "mc" (gen_mc + completion)
    m: int
    r: int
    # Instances generated during set-up, about as many as one run solves: the
    # timed loop solves them in turn and cycles if the run outlasts them.
    # Solve time varies from one instance to the next, so each run needs
    # several for its median to repeat across seeds.
    instances: int
    # Solver names on the lowrank package, run in this order on every instance.
    solvers: tuple[str, ...]
    # Largest accepted ||A - A*||_F / ||A*||_F per solver.
    rel_error_limit: dict
    # Solves measured under tracemalloc for peak_mem_mib.
    mem_solves: int
    # Report solve times scaled by the reference timed around each solve
    # (reference.py). The reference follows the host's speed for work made of
    # many small numpy calls, as the m=100 solves and the completion solves
    # (7.7k single-vector products each) are: scaling cut the spread of
    # solve_s over seeds from 0.18 to 0.02 of the median on the small batch
    # and from about 0.2 to 0.05 on mc-ialm-1000. An m=1000 IALM solve spends
    # most of its time in dense LAPACK on 1000x1000 matrices, which the
    # reference did not follow: scaled, its solve_s spread more than raw.
    # Set-up time is always scaled.
    calibrated: bool


CORRUPTION_FRAC = 0.05
# Completion samples p = 6 * r(2m - r): six times the degrees of freedom.
MC_OVERSAMPLING = 6

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rpca-ialm-1000",
            kind="rpca", m=1000, r=50, instances=5,
            solvers=("solve_ialm",),
            # The published table bound for IALM; this cell reaches about 3e-7.
            rel_error_limit={"solve_ialm": 1e-6},
            mem_solves=1, calibrated=False,
        ),
        Workload(
            name="mc-ialm-1000",
            kind="mc", m=1000, r=10, instances=10,
            solvers=("solve_mc_ialm",),
            # The acceptance bound for completion at m=1000.
            rel_error_limit={"solve_mc_ialm": 5e-6},
            mem_solves=3, calibrated=True,
        ),
        Workload(
            name="rpca-small-batch",
            kind="rpca", m=100, r=5, instances=64,
            solvers=("solve_ialm", "solve_ealm", "solve_apg"),
            # Worst errors over 372 instances at this size: IALM 2.2e-6, APG
            # 3.1e-6, EALM 9.3e-5 (its 99th percentile is 1.9e-5).
            rel_error_limit={"solve_ialm": 1e-5, "solve_ealm": 1e-3,
                             "solve_apg": 3e-5},
            mem_solves=3, calibrated=True,
        ),
    )
}


def generate(lowrank, wl, seed):
    """The run's instances, made by the package's own generators; the i-th
    has seed ``seed * 1000 + i``."""
    out = []
    for i in range(wl.instances):
        s = seed * 1000 + i
        if wl.kind == "rpca":
            out.append(lowrank.gen_rpca(wl.m, wl.r, CORRUPTION_FRAC, s))
        else:
            p = MC_OVERSAMPLING * wl.r * (2 * wl.m - wl.r)
            out.append(lowrank.gen_mc(wl.m, wl.r, p, s))
    return out


def warm_up_instance(lowrank, wl):
    """A small instance on the same code paths (m=200 still takes the Lanczos
    route), solved once before timing so that lazy set-up is paid untimed."""
    m = min(wl.m, 200)
    r = max(1, wl.r * m // wl.m)
    if wl.kind == "mc":
        return lowrank.gen_mc(m, r, MC_OVERSAMPLING * r * (2 * m - r), 0)
    return lowrank.gen_rpca(m, r, CORRUPTION_FRAC, 0)


def solve(lowrank, solver, inst):
    """One solver call on the generated matrices only."""
    fn = getattr(lowrank, solver)
    if solver == "solve_mc_ialm":
        return fn(inst.omega, inst.d_values)
    return fn(inst.d)


# verify_report invariants whose verdict is counted but does not fail a solve.
# At the default eps2 / inner_tol the solvers leave the multiplier up to a few
# percent outside the dual ball, while verify_report fails anything past 1%:
# |Y|_inf/lam reaches 1.03-1.08 for IALM at m=1000 and |Y|_2 reaches 1.2 for
# EALM at m=100. tests/test_acceptance.py (criterion 7) notes the same gap and
# checks dual feasibility at eps2=1e-7 instead.
UNGATED_INVARIANTS = ("dual_feasibility",)


def check(lowrank, wl, solver, inst, res):
    """Correctness gate for one solve: returns ``(reason, rel_error,
    ungated)`` with ``reason`` None when the solve passes and ``ungated`` the
    failing verdicts of :data:`UNGATED_INVARIANTS`.

    A solve fails when it did not converge, when ``verify_report`` gives a
    ``fail`` verdict on its report (other than the ungated invariants), when
    its relative error exceeds the workload's limit for that solver, or
    (completion) when the recovered rank differs from the planted rank.
    """
    if wl.kind == "mc":
        report = res.report(config=lowrank.McConfig(), a_star=inst.a_star)
    else:
        report = res.report(config=lowrank.RpcaConfig(), a_star=inst.a_star)
    rel = float(report["rel_error"])
    failed = [c["invariant"] for c in lowrank.diagnostics.verify_report(report)
              if c["status"] == "fail"]
    ungated = [name for name in failed if name in UNGATED_INVARIANTS]
    gated = [name for name in failed if name not in UNGATED_INVARIANTS]
    if not res.converged:
        return "not converged", rel, ungated
    if gated:
        return "verify_report fail: " + ",".join(gated), rel, ungated
    if not math.isfinite(rel) or rel > wl.rel_error_limit[solver]:
        return (f"rel_error {rel:.3e} over limit {wl.rel_error_limit[solver]:.0e}",
                rel, ungated)
    if wl.kind == "mc" and res.rank != inst.r:
        return f"rank {res.rank} != {inst.r}", rel, ungated
    return None, rel, ungated
