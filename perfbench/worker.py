"""One run of one workload, in a fresh process.

``run.py`` starts this file with BLAS pinned to one thread and ``src`` on the
path, before numpy is imported. It prints readable lines and, last, one JSON
object for ``run.py``: ``{"setup_s": <seconds>, "result": {...}}``.

Closed loop, one client, one solve at a time: the next solve starts when the
previous one and its correctness check have finished, and no new instance is
started once ``--seconds`` have passed. The reference kernel of
``reference.py`` is timed after set-up, before the first solve and after
every solve. Set-up time, and on workloads marked ``calibrated`` the solve
times, are reported scaled by it; the raw figures are printed too.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

from reference import REF_NOMINAL_S, Reference
from tracing import LAYER_METRICS, Tracer
from workloads import WORKLOADS, check, generate, solve, warm_up_instance

SRC = Path(__file__).resolve().parent.parent / "src"


class Tally:
    """Solve times, relative errors and failures of one run."""

    def __init__(self):
        self.times = []
        # Per solve: REF_NOMINAL_S over the mean reference time around it.
        self.factors = []
        self.solvers = []
        self.rel_errors = []
        self.attempted = 0
        self.failed = 0
        self.ungated = 0

    def run(self, lowrank, wl, solver, inst, tracer=None):
        """Time one solve, installing ``tracer`` around it when given, and
        check the answer. Returns the result, or None if the solve raised."""
        self.attempted += 1
        res = None
        t = time.perf_counter()
        try:
            if tracer is None:
                res = solve(lowrank, solver, inst)
            else:
                with tracer.installed():
                    res = solve(lowrank, solver, inst)
        except Exception:
            traceback.print_exc()
        self.times.append(time.perf_counter() - t)
        self.solvers.append(solver)
        reason = "raised"
        if res is not None:
            try:
                reason, rel, ungated = check(lowrank, wl, solver, inst, res)
                self.rel_errors.append(rel)
                self.ungated += bool(ungated)
            except Exception:
                traceback.print_exc()
                reason = "check raised"
        if reason is not None:
            self.failed += 1
            print(f"# FAIL {solver} on instance seed {inst.seed}: {reason}", flush=True)
        return res

    def calibrated(self):
        return [t * f for t, f in zip(self.times, self.factors)]

    def reported(self, wl):
        """The solve times the metrics use."""
        return self.calibrated() if wl.calibrated else self.times


def environment(lowrank, args):
    import numpy
    import scipy

    def blas(mod):
        b = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{b['name']} {b['version']}"

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
        "nproc": os.cpu_count(), "lowrank": lowrank.__version__,
        **{k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def timed_loop(lowrank, wl, instances, seconds, tally, ref, tracer=None):
    """Solve instances in turn until ``seconds`` have passed, timing the
    reference ``ref`` between solves. With a tracer, every solve is repeated
    under it, the two runs in alternating order, into a second tally; returns
    that tally, its root spans and the counter mismatches."""
    traced = Tally()
    roots, mismatches = [], []
    ref_before = ref.seconds()

    def run(t, solver, inst, tracer=None):
        nonlocal ref_before
        res = t.run(lowrank, wl, solver, inst, tracer)
        ref_after = ref.seconds()
        t.factors.append(REF_NOMINAL_S / ((ref_before + ref_after) / 2))
        ref_before = ref_after
        return res

    start = time.perf_counter()
    i = 0
    while True:
        inst = instances[i % len(instances)]
        for solver in wl.solvers:
            if tracer is None:
                run(tally, solver, inst)
                continue
            for use_tracer in ((False, True) if len(roots) % 2 == 0 else (True, False)):
                if not use_tracer:
                    run(tally, solver, inst)
                    continue
                root = len(tracer.spans)
                res = run(traced, solver, inst, tracer)
                if res is not None:
                    mismatches += tracer.cross_check(root, res)
                roots.append(root)
        i += 1
        if time.perf_counter() - start >= seconds:
            return traced, roots, mismatches


def peak_memory(lowrank, wl, instances, tally):
    """Peak traced allocation above the pre-solve level, MiB, per solve of an
    untimed pass under tracemalloc."""
    peaks = []
    tracemalloc.start()
    try:
        for j in range(wl.mem_solves):
            inst = instances[(j // len(wl.solvers)) % len(instances)]
            solver = wl.solvers[j % len(wl.solvers)]
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            res = tally.run(lowrank, wl, solver, inst)
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2**20)
            del res
    finally:
        tracemalloc.stop()
    return peaks


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time set-up (import and generation), print it and stop")
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    import lowrank
    tracer = Tracer(lowrank) if args.trace else None
    if tracer is None:
        instances = generate(lowrank, wl, args.seed)
    else:
        with tracer.installed():
            instances = generate(lowrank, wl, args.seed)
    setup_raw_s = time.perf_counter() - t0
    if not Path(lowrank.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"lowrank was imported from {lowrank.__file__}, not from {SRC}")
    ref = Reference()
    setup_s = setup_raw_s * REF_NOMINAL_S / statistics.median(
        ref.seconds() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return

    print("# env " + json.dumps(environment(lowrank, args)), flush=True)
    warm = warm_up_instance(lowrank, wl)
    for solver in wl.solvers:
        solve(lowrank, solver, warm)

    tally = Tally()
    traced, roots, mismatches = timed_loop(lowrank, wl, instances, args.seconds,
                                           tally, ref, tracer)
    # The memory pass is checked like the timed solves, but its slower
    # solves stay out of the timings.
    mem = Tally()
    if tracer is None:
        peaks = peak_memory(lowrank, wl, instances, mem)
    tallies = (tally, traced, mem)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    # A non-finite error, or none at all, counts as no correct digit.
    rels = [r if math.isfinite(r) else 1.0 for t in tallies for r in t.rel_errors]
    max_rel = max(rels, default=1.0)
    # The largest error of a run is one draw from the tail of EALM's errors on
    # the small batch, and its digits spread 0.10 of their median over seeds;
    # the 90th percentile spreads 0.014 there.
    p90_rel = (statistics.quantiles(rels, n=10, method="inclusive")[-1]
               if len(rels) > 1 else max_rel)
    print(f"# {attempted} solves, {failed} failed; rel_error 90th percentile "
          f"{p90_rel:.3e}, largest {max_rel:.3e}; "
          f"ungated verify_report fail verdicts on "
          f"{sum(t.ungated for t in tallies)} solves", flush=True)
    for label, t in (("untraced", tally), ("traced", traced)):
        for solver in wl.solvers:
            wall = [dt for dt, s in zip(t.times, t.solvers) if s == solver]
            cal = [dt for dt, s in zip(t.calibrated(), t.solvers) if s == solver]
            if wall:
                print(f"# {label} {solver}: over {len(wall)} solves, calibrated median "
                      f"{statistics.median(cal):.4f} s, quartiles "
                      f"{[round(q, 4) for q in quartiles(cal)]}; raw median "
                      f"{statistics.median(wall):.4f} s, quartiles "
                      f"{[round(q, 4) for q in quartiles(wall)]}", flush=True)
    print(f"# host speed factor (REF_NOMINAL_S / reference time): set-up "
          f"{setup_s / setup_raw_s:.3f}, solves median "
          f"{statistics.median(tally.factors):.3f} range "
          f"{min(tally.factors):.3f}-{max(tally.factors):.3f}", flush=True)

    if tracer is None:
        metrics = {
            "solve_s": metric(statistics.median(tally.reported(wl)), "s"),
            "solves_per_s": metric(
                (tally.attempted - tally.failed) / sum(tally.reported(wl)), "1/s"),
            "accuracy_digits": metric(-math.log10(min(max(p90_rel, 1e-16), 1.0)),
                                      "digits"),
            "pass_frac": metric((attempted - failed) / attempted, "1"),
            "peak_mem_mib": metric(statistics.median(peaks), "MiB"),
        }
        print(f"# solve_s: median of {len(tally.times)} "
              f"{'calibrated' if wl.calibrated else 'raw'} solve times", flush=True)
        print(f"# peak_mem_mib samples {[round(x, 3) for x in peaks]}", flush=True)
    else:
        for line in tracer.summary(roots):
            print("# " + line)
        values = tracer.layer_metrics(roots, len(instances))
        metrics = {name: metric(values[name], unit)
                   for name, (unit, _) in LAYER_METRICS.items()}
        metrics["trace.overhead_ratio"] = metric(
            statistics.median(traced.reported(wl))
            / statistics.median(tally.reported(wl)), "1")
        metrics["diagnostics.ungated_fail_frac"] = metric(
            sum(t.ungated for t in tallies) / attempted, "1")
        absent = [name for name, v in values.items() if v is None]
        print(f"# traced solves {len(roots)}; absent metrics: {absent or 'none'}",
              flush=True)
        for line in mismatches:
            print(f"# COUNTER MISMATCH {line}", flush=True)
    result = {
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s,
                      "result": result}))


if __name__ == "__main__":
    main()
