#!/usr/bin/env python3
"""Benchmark of the lowrank solvers, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                 # every workload, seed 1, 25 s

Each workload runs in a fresh process with OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS set to 1 before numpy is imported, and with the checkout's
``src`` as the only added import path. The benchmark calls the library API
directly: closed loop, one client, one solve at a time (see ``worker.py``).
Every solve is checked (``workloads.check``). The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end metrics (``--trace 0``):

* ``solve_s``: median wall time of one solver call; the sample count is printed.
* ``solves_per_s``: correct solves per second of solver time in the timed loop.
* ``setup_s``: importing lowrank plus generating the run's instances, median of
  three fresh processes (two set-up-only probes and the measuring process).
* ``accuracy_digits``: -log10 of the 90th percentile of ||A - A*||_F / ||A*||_F
  over the run's solves. The raw percentile and the largest error are printed;
  the largest varies too much from one instance to the next to bound. Every
  solve must still meet its own error limit to pass (``workloads.check``).
* ``pass_frac``: solves that passed the correctness gate / solves attempted.
* ``peak_mem_mib``: median over an untimed pass of the tracemalloc peak above
  the pre-solve level during one solve.

Set-up time, and the solve times of workloads marked ``calibrated``, are
scaled to a nominal host speed measured by a fixed reference kernel timed
next to them (``reference.py``); the raw times are printed beside them.

Per-layer metrics (``--trace 1``) come from wrappers installed around the
package's names from outside (``tracing.py``). Each solve runs once untraced
and once traced, and ``trace.overhead_ratio`` is the traced median solve time
over the untraced one. The wrapper counts are checked against the solvers' own
counters; a mismatch makes ``correct`` false. ``diagnostics.ungated_fail_frac``
is the share of solves with a ``fail`` verdict that the gate does not count
(see ``workloads.UNGATED_INVARIANTS``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 2
# Every run must end within 180 s; leave room for start-up and the probes.
RUN_TIMEOUT_S = 170


def child_env():
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=str(SRC))
    return env


def run_worker(args, extra, timeout):
    """Run worker.py to completion; returns its stdout lines. Raises
    SystemExit on a non-zero exit, a timeout or output without a result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"worker timed out after {timeout:.0f} s: {' '.join(extra)}")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit(f"worker failed with exit code {proc.returncode}")
    return lines


def run_one(args):
    """One benchmark run; prints the result as the last line."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    probes = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            lines = run_worker(args, ["--setup-only"], deadline - time.monotonic())
            probes.append(json.loads(lines[-1]))
    lines = run_worker(args, [], deadline - time.monotonic())
    out = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    result = out["result"]
    if not args.trace:
        probes.append(out)
        print(f"# setup_s samples {[round(p['setup_s'], 4) for p in probes]}, "
              f"raw {[round(p['setup_raw_s'], 4) for p in probes]}")
        result["metrics"]["setup_s"] = {
            "value": statistics.median(p["setup_s"] for p in probes), "unit": "s"}
    print(json.dumps(result), flush=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="workload to run; all of them, one after another, if omitted")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "lowrank" / "__init__.py").is_file():
        sys.exit(f"no lowrank sources under {SRC}: run from a source checkout")
    if args.workload is not None:
        run_one(args)
        return
    for name in WORKLOADS:
        print(f"## {name}", flush=True)
        run_one(argparse.Namespace(**{**vars(args), "workload": name}))


if __name__ == "__main__":
    main()
