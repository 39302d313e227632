"""Print one SHA-256 per (solver, instance) over everything a solve returns.

Each digest covers the result arrays (recovery: A, E, Y; completion: the
factors L and R of A), the trace records, and the report JSON both bare and
with ``config`` and ``a_star``. Two checkouts whose outputs are equal line
for line compute the same numbers. Only the public API is used, so the same
file runs on an older checkout too:

    python tools/fingerprint.py > new.txt
    mkdir -p ../old/tools && cp tools/fingerprint.py ../old/tools/
    python ../old/tools/fingerprint.py > old.txt
    diff old.txt new.txt

The digests depend on the BLAS build, so compare runs from one machine. BLAS
is pinned to one thread unless the environment already sets it.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# the package of the checkout this file sits in, not an installed one
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import lowrank  # noqa: E402


def _digest(res, cfg, a_star):
    h = hashlib.sha256()
    arrays = (res.A.L, res.A.R) if hasattr(res.A, "L") else (res.A, res.E, res.Y)
    for X in arrays:
        if X is None:
            h.update(b"none")
        else:
            X = np.ascontiguousarray(X)
            h.update(f"{X.dtype}{X.shape}".encode())
            h.update(X.tobytes())
    h.update(json.dumps([r.to_dict() for r in res.trace]).encode())
    h.update(json.dumps(res.report()).encode())
    h.update(json.dumps(res.report(config=cfg, a_star=a_star)).encode())
    return h.hexdigest()


def _rpca_cases():
    solvers = {"ialm": lowrank.solve_ialm, "ealm": lowrank.solve_ealm,
               "apg": lowrank.solve_apg}
    for s in range(20):
        for name, solve in solvers.items():
            yield name, (100, 5, 0.05, 41000 + s), solve
    yield "it", (30, 2, 0.05, 11), lowrank.solve_it
    yield "ialm", (300, 15, 0.05, 1), lowrank.solve_ialm
    yield "ialm", (1000, 50, 0.05, 201000), lowrank.solve_ialm


def main():
    for name, args, solve in _rpca_cases():
        inst = lowrank.gen_rpca(*args)
        res = solve(inst.d)
        print(f"{name} gen_rpca{args} {_digest(res, lowrank.RpcaConfig(), inst.a_star)}")

    inst = lowrank.gen_rpca(30, 2, 0.05, 11)
    for cap in (None, 30):
        out = lowrank.divergence_demo(inst, 10.0, mu_cap_factor=cap)
        digest = hashlib.sha256(repr(out).encode()).hexdigest()
        print(f"divergence_demo gen_rpca(30, 2, 0.05, 11) growth=10 cap={cap} {digest}")

    for s in (5, 301000):
        args = (1000, 10, 119400, s)
        inst = lowrank.gen_mc(*args)
        res = lowrank.solve_mc_ialm(inst.omega, inst.d_values)
        print(f"mc-ialm gen_mc{args} {_digest(res, lowrank.McConfig(), inst.a_star)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
