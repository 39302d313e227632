"""Print one SHA-256 per (solver, instance) over everything a solve returns.

Each digest covers the result arrays (recovery: A, E, Y; completion: the
factors U * s and V of A), the trace records, and the report JSON both bare and
with ``config`` and ``a_star``. Next to it, ``arrays=`` digests the result
arrays alone and ``trace=`` the arrays, the records and the bare report, so a
diff tells a moved result from a moved trace, and both from a moved
``rel_error``, which only the report with ``a_star`` carries. ``path=``
digests the solve's path alone: ``converged`` and each record's ``rank_a``,
``svp`` and ``e_card``, so the iteration count and the rank and support
sequences, without the SVD sizes (``sv_pred``) or any float. Four lines
cover solves capped at ``max_iter=3`` (APG, EALM, IALM and completion),
which end unconverged at the loop's iteration cap. Three more
digests cover every ``Iterate`` of an IALM, an EALM and a completion solve
with ``keep_iterates``, and two more the sampled sets alone at sizes where
the sampler's draws collide and chain: a completion Omega and a corruption
support at m = 1000. Two checkouts whose outputs are equal line for line
compute the same numbers. Only the public API is used, so the same file runs
on an older checkout too:

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


def _update(h, arrays):
    for X in arrays:
        if X is None:
            h.update(b"none")
        else:
            X = np.ascontiguousarray(X)
            h.update(f"{X.dtype}{X.shape}".encode())
            h.update(X.tobytes())


def _factors(a):
    """A completion iterate as the factors (U * s, V) of its ``TruncatedSVD``;
    None for a dense array."""
    if hasattr(a, "U"):
        return (a.U * a.s, a.V)
    return None


def _digest(res, cfg, a_star):
    """The full digest, then ``arrays=``, the digest of the arrays alone,
    ``trace=``, that of the arrays, the records and the bare report, and
    ``path=``, that of ``converged`` and each record's rank and support counts."""
    arrays = hashlib.sha256()
    _update(arrays, _factors(res.A) or (res.A, res.E, res.Y))
    trace = arrays.copy()
    trace.update(json.dumps([r.to_dict() for r in res.trace]).encode())
    trace.update(json.dumps(res.report()).encode())
    h = trace.copy()
    h.update(json.dumps(res.report(config=cfg, a_star=a_star)).encode())
    path = hashlib.sha256(json.dumps(
        [res.converged] + [[r.rank_a, r.svp, r.e_card] for r in res.trace]).encode())
    return (f"{h.hexdigest()} arrays={arrays.hexdigest()} trace={trace.hexdigest()} "
            f"path={path.hexdigest()}")


def _iterates_digest(res):
    """One digest over every kept ``Iterate``: ``a`` (or its factors), ``e``, ``y``, ``mu``."""
    h = hashlib.sha256()
    for it in res.iterates:
        _update(h, (_factors(it.a) or (it.a,)) + (it.e, it.y))
        h.update(repr(it.mu).encode())
    return h.hexdigest()


def _rpca_cases():
    solvers = {"ialm": lowrank.solve_ialm, "ealm": lowrank.solve_ealm,
               "apg": lowrank.solve_apg}
    for s in range(20):
        for name, solve in solvers.items():
            yield name, (100, 5, 0.05, 41000 + s), solve
    yield "ialm", (300, 15, 0.05, 1), lowrank.solve_ialm
    yield "ealm", (300, 15, 0.05, 1), lowrank.solve_ealm
    yield "ialm", (1000, 50, 0.05, 201000), lowrank.solve_ialm


def main():
    for name, args, solve in _rpca_cases():
        inst = lowrank.gen_rpca(*args)
        res = solve(inst.d)
        print(f"{name} gen_rpca{args} {_digest(res, lowrank.RpcaConfig(), inst.a_star)}")

    # capped solves that end unconverged, at the loop's max_iter exit
    args = (100, 5, 0.05, 41000)
    inst = lowrank.gen_rpca(*args)
    cfg = lowrank.RpcaConfig(max_iter=3)
    for name, solve in (("apg", lowrank.solve_apg), ("ealm", lowrank.solve_ealm),
                        ("ialm", lowrank.solve_ialm)):
        res = solve(inst.d, cfg)
        print(f"{name} max_iter=3 gen_rpca{args} {_digest(res, cfg, inst.a_star)}")
    args = (300, 5, 17850, 1)
    inst = lowrank.gen_mc(*args)
    cfg = lowrank.McConfig(max_iter=3)
    res = lowrank.solve_mc_ialm(inst.omega, inst.d_values, cfg)
    print(f"mc-ialm max_iter=3 gen_mc{args} {_digest(res, cfg, inst.a_star)}")

    out = lowrank.divergence_demo(lowrank.gen_rpca(30, 2, 0.05, 11), 10.0)
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    print(f"divergence_demo gen_rpca(30, 2, 0.05, 11) growth=10 {digest}")

    for s in (5, 301000):
        args = (1000, 10, 119400, s)
        inst = lowrank.gen_mc(*args)
        res = lowrank.solve_mc_ialm(inst.omega, inst.d_values)
        print(f"mc-ialm gen_mc{args} {_digest(res, lowrank.McConfig(), inst.a_star)}")

    args = (100, 5, 0.05, 41003)
    inst = lowrank.gen_rpca(*args)
    for name, solve in (("ialm", lowrank.solve_ialm), ("ealm", lowrank.solve_ealm)):
        res = solve(inst.d, lowrank.RpcaConfig(keep_iterates=True))
        print(f"{name} iterates gen_rpca{args} {_iterates_digest(res)}")
    args = (300, 5, 17850, 1)
    inst = lowrank.gen_mc(*args)
    res = lowrank.solve_mc_ialm(inst.omega, inst.d_values, lowrank.McConfig(keep_iterates=True))
    print(f"mc-ialm iterates gen_mc{args} {_iterates_digest(res)}")

    h = hashlib.sha256()
    args = (1000, 10, 119400, 5)
    omega = lowrank.gen_mc(*args).omega
    _update(h, (omega.row_idx, omega.col_idx))
    print(f"omega gen_mc{args} {h.hexdigest()}")
    h = hashlib.sha256()
    args = (1000, 50, 0.05, 201000)
    _update(h, (lowrank.gen_rpca(*args).e_star != 0,))
    print(f"support gen_rpca{args} {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
