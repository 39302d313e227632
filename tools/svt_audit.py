"""Check every block SVT call of recovery solves against LAPACK's count.

    python tools/svt_audit.py M R FIRST LAST

runs IALM, EALM and APG on ``gen_rpca(M, R, 0.05, s)`` for each seed s from
FIRST to LAST inclusive. Every call of ``linalg._block_svd`` that returns
triplets is audited: the number of its values above the threshold must equal
the number of singular values above it from one LAPACK SVD of the same matrix,
as ``tests/test_linalg.py`` audits its block calls. The block route runs only
above ``min(m, n)`` = 65, so smaller M audits nothing. Prints each miss as
``miss: solver seed call kept lapack``, then the calls and misses per solver
and in total, and exits 1 on any miss. BLAS is pinned to one thread unless the
environment already sets it, so the solves take the path the benchmark takes.
"""

import argparse
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# the package of the checkout this file sits in, not an installed one
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import lowrank  # noqa: E402
from lowrank import linalg  # noqa: E402

SOLVERS = ("solve_ialm", "solve_ealm", "solve_apg")
CORRUPTION_FRAC = 0.05


def audit(m, r, seeds):
    """``{solver: (calls, misses)}`` over the seeds, each miss a tuple
    ``(seed, call, kept, lapack)`` with the call's 0-based index in its solve."""
    block = linalg._block_svd
    out = {}
    for solver in SOLVERS:
        calls, misses = 0, []
        for seed in seeds:
            index = 0

            def audited(W, eps, k, v0):
                nonlocal index
                t = block(W, eps, k, v0)
                if t is not None:
                    kept = int((t.s > eps).sum())
                    want = int((np.linalg.svd(W, compute_uv=False) > eps).sum())
                    if kept != want:
                        misses.append((seed, index, kept, want))
                    index += 1
                return t

            linalg._block_svd = audited
            try:
                getattr(lowrank, solver)(lowrank.gen_rpca(m, r, CORRUPTION_FRAC, seed).d)
            finally:
                linalg._block_svd = block
            calls += index
        out[solver] = (calls, misses)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for name in ("M", "R", "FIRST", "LAST"):
        p.add_argument(name, type=int)
    args = p.parse_args(argv)
    m, r, first, last = args.M, args.R, args.FIRST, args.LAST
    result = audit(m, r, range(first, last + 1))
    for solver, (_, misses) in result.items():
        for seed, call, kept, want in misses:
            print(f"miss: {solver} {seed} {call} {kept} {want}")
    for solver, (calls, misses) in result.items():
        print(f"{solver}: {calls} calls, {len(misses)} misses")
    calls = sum(c for c, _ in result.values())
    missed = sum(len(ms) for _, ms in result.values())
    print(f"total: {calls} calls, {missed} misses over gen_rpca({m}, {r}, "
          f"{CORRUPTION_FRAC}, {first}..{last})")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
