"""Command-line front end: instance generation, single solves, benchmark
sweeps and trace verification.

Exit codes: 0 success, 1 solver non-convergence, 2 invalid input. A JSON
config file (``--config``) may supply any flag of the subcommand, parsed
exactly like the flag; explicit flags win, and a key the subcommand has no
flag for is invalid input. Flags are spelled in full.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import io as mio
from .diagnostics import verify_report
from .mc import McConfig, solve_mc_ialm
from .problems import degrees_of_freedom, gen_mc, gen_rpca, round_half_up
from .rpca import RpcaConfig, solve_apg, solve_ealm, solve_ialm

BENCH_SCHEMA = "lowrank-bench-v1"
RPCA_SOLVERS = {"apg": solve_apg, "ealm": solve_ealm, "ialm": solve_ialm}


def _add_common_solver_flags(p):
    p.add_argument("--mu0", type=float, default=None, help="initial penalty")
    p.add_argument("--rho", type=float, default=None, help="penalty growth factor")
    p.add_argument("--eps1", type=float, default=None, help="feasibility tolerance")
    p.add_argument("--eps2", type=float, default=None, help="dual tolerance")
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--trace", default=None, metavar="OUT.json",
                   help="write the JSON solve report here")


def build_parser():
    ap = argparse.ArgumentParser(prog="lowrank", allow_abbrev=False,
                                 description="Low-rank plus sparse recovery toolkit")
    ap.add_argument("--config", default=None,
                    help="JSON file supplying defaults for any flag")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic instance", allow_abbrev=False)
    g.add_argument("--kind", choices=("rpca", "mc"), required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--r", type=int, required=True)
    g.add_argument("--frac", type=float, default=0.05,
                   help="corruption fraction (rpca)")
    g.add_argument("--p", type=int, default=None, help="sample count (mc)")
    g.add_argument("--p-ratio", type=float, default=None,
                   help="sample count as a multiple of r(2m - r) (mc)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output directory")

    s = sub.add_parser("solve-rpca", help="run one recovery solver", allow_abbrev=False)
    s.add_argument("--alg", choices=sorted(RPCA_SOLVERS), required=True)
    s.add_argument("--input", required=True, help="dense matrix (.csv or .mtx)")
    s.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="sparsity weight (default: 1/sqrt(rows))")
    _add_common_solver_flags(s)
    s.add_argument("--truth", default=None, help="ground-truth low-rank matrix")
    s.add_argument("--output-a", default=None)
    s.add_argument("--output-e", default=None)

    c = sub.add_parser("solve-mc", help="complete a matrix from samples", allow_abbrev=False)
    c.add_argument("--input", required=True, help="observed entries (.mtx coordinate)")
    _add_common_solver_flags(c)
    c.add_argument("--truth", default=None)
    c.add_argument("--dense-output", default=None,
                   help="materialize the completed matrix to CSV (desk scale only)")

    b = sub.add_parser("bench", help="benchmark sweep at a configurable scale",
                       allow_abbrev=False)
    b.add_argument("--table", type=int, choices=(1, 2, 3), required=True)
    b.add_argument("--scale", type=int, required=True, help="matrix dimension m")
    b.add_argument("--algs", default=None,
                   help="comma-separated solvers (default per table)")
    b.add_argument("--corruption", type=float, default=0.05)
    b.add_argument("--rank-frac", type=float, default=None)
    b.add_argument("--p-ratio", type=float, default=6.0)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", default=None, help="CSV path (default: stdout)")

    k = sub.add_parser("check", help="verify invariants on a solve report", allow_abbrev=False)
    k.add_argument("--trace", required=True, help="JSON report from a solve")
    k.add_argument("--manifest", default=None, help="instance manifest JSON")
    k.add_argument("--out", default=None, help="verdict JSON path (default: stdout)")
    return ap


def _config_argv(argv):
    """``argv`` with its ``--config`` file's entries spliced in right after the
    subcommand as ``--key=value`` flags (``_`` read as ``-``): the parser then
    types and checks them like flags, and a later explicit flag wins."""
    pre = argparse.ArgumentParser(prog="lowrank", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    pre.add_argument("rest", nargs=argparse.REMAINDER)
    known, _ = pre.parse_known_args(argv)
    if not known.config or not known.rest:
        return argv
    with open(known.config) as fh:
        entries = json.load(fh)
    if not isinstance(entries, dict):
        raise ValueError(f"{known.config}: expected a JSON object of flag values")
    bad = [key for key, value in entries.items() if type(value) not in (str, int, float)]
    if bad:
        raise ValueError(f"{known.config}: expected a string or a number for "
                         + ", ".join(bad))
    at = len(argv) - len(known.rest) + 1
    return argv[:at] + [f"--{key.replace('_', '-')}={value}"
                        for key, value in entries.items()] + argv[at:]


def _read_dense(path):
    if str(path).endswith(".mtx"):
        out = mio.read_mm(path)
        if isinstance(out, tuple):
            raise ValueError("expected a dense matrix file")
        return out
    return mio.read_dense_csv(path)


def _write_text(path, text):
    """``text`` to the file at ``path``, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


def _cmd_gen(args):
    os.makedirs(args.out, exist_ok=True)
    manifest = {"kind": args.kind, "m": args.m, "r": args.r, "seed": args.seed}
    if args.kind == "rpca":
        inst = gen_rpca(args.m, args.r, args.frac, args.seed)
        mio.write_dense_csv(os.path.join(args.out, "d.csv"), inst.d)
        mio.write_dense_csv(os.path.join(args.out, "a_star.csv"), inst.a_star)
        mio.write_dense_csv(os.path.join(args.out, "e_star.csv"), inst.e_star)
        manifest["lambda"] = inst.lam
        manifest["e_card"] = inst.e_card
        manifest["corruption_frac"] = args.frac
    else:
        if args.p is None:
            if args.p_ratio is None:
                raise ValueError("mc generation needs --p or --p-ratio")
            p = round_half_up(args.p_ratio * degrees_of_freedom(args.m, args.r))
        else:
            p = args.p
        inst = gen_mc(args.m, args.r, p, args.seed)
        mio.write_coordinate_mm(os.path.join(args.out, "observed.mtx"),
                                inst.omega, inst.d_values)
        mio.write_dense_csv(os.path.join(args.out, "a_star.csv"), inst.a_star)
        manifest["p"] = inst.p
        manifest["d_r"] = inst.d_r
    path = os.path.join(args.out, "manifest.json")
    _write_text(path, json.dumps(manifest, indent=2) + "\n")
    print(path)
    return 0


def _config(cls, args):
    """``cls`` (RpcaConfig or McConfig) from the solver flags that are set."""
    names = ("lam", "mu0", "rho", "eps1", "eps2", "max_iter")
    return cls(**{n: getattr(args, n) for n in names
                  if getattr(args, n, None) is not None})


def _finish_solve(args, res):
    """Write the solve report, with the config the solve ran, where ``--trace``
    asks, print the summary line and return the exit code."""
    a_star = _read_dense(args.truth) if args.truth else None
    report = res.report(a_star=a_star)
    if args.trace:
        _write_text(args.trace, json.dumps(report, indent=2) + "\n")
    line = report["algorithm"] + ":" + "".join(
        f" {key}={report[key]}" for key in
        ("converged", "iterations", "svd_count", "rank", "e_card") if key in report)
    if "rel_error" in report:
        line += f" rel_error={report['rel_error']:.3e}"
    print(line)
    return 0 if res.converged else 1


def _cmd_solve_rpca(args):
    D = _read_dense(args.input)
    res = RPCA_SOLVERS[args.alg](D, _config(RpcaConfig, args))
    if args.output_a:
        mio.write_dense_csv(args.output_a, res.A)
    if args.output_e:
        mio.write_dense_csv(args.output_e, res.E)
    return _finish_solve(args, res)


def _cmd_solve_mc(args):
    omega, values = mio.read_observed(args.input)
    res = solve_mc_ialm(omega, values, _config(McConfig, args))
    if args.dense_output:
        mio.write_dense_csv(args.dense_output, res.A.compose())
    return _finish_solve(args, res)


def _bench_row(inst, algorithm, solve):
    """One CSV row: the timed ``solve()`` of ``inst`` and its counts."""
    t0 = time.perf_counter()
    res = solve()
    elapsed = time.perf_counter() - t0
    return {
        "m": inst.m, "algorithm": algorithm,
        "rel_error": inst.rel_error(res.A),
        "rank": res.rank, "e_card": res.e_card,
        "iter": res.iterations, "svd_count": res.svd_count,
        "wall_time_seconds": round(elapsed, 3),
        "converged": res.converged,
    }


def _cmd_bench(args):
    m = args.scale
    if args.table in (1, 2):
        rank_frac = args.rank_frac if args.rank_frac is not None else \
            (0.05 if args.table == 1 else 0.10)
        r = max(1, round_half_up(rank_frac * m))
        algs = (args.algs.split(",") if args.algs else ["apg", "ealm", "ialm"])
        for a in algs:
            if a not in RPCA_SOLVERS:
                raise ValueError(f"unknown solver {a!r}")
        inst = gen_rpca(m, r, args.corruption, args.seed)
        rows = [_bench_row(inst, a, lambda: RPCA_SOLVERS[a](inst.d, RpcaConfig()))
                for a in algs]
        columns = ["m", "algorithm", "rel_error", "rank", "e_card",
                   "svd_count", "wall_time_seconds", "converged"]
    else:
        rank_frac = args.rank_frac if args.rank_frac is not None else 0.01
        r = max(1, round_half_up(rank_frac * m))
        p = round_half_up(args.p_ratio * degrees_of_freedom(m, r))
        inst = gen_mc(m, r, p, args.seed)
        rows = [_bench_row(inst, "ialm",
                           lambda: solve_mc_ialm(inst.omega, inst.d_values, McConfig()))]
        columns = ["m", "algorithm", "rel_error", "rank", "iter",
                   "svd_count", "wall_time_seconds", "converged"]

    rows.sort(key=lambda row: (row["m"], row["algorithm"]))
    lines = [f"# {BENCH_SCHEMA}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt_cell(row[c]) for c in columns))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0 if all(r["converged"] for r in rows) else 1


def _fmt_cell(v):
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.6e}"
    return str(v)


def _cmd_check(args):
    with open(args.trace) as fh:
        report = json.load(fh)
    manifest = None
    if args.manifest:
        with open(args.manifest) as fh:
            manifest = json.load(fh)
    checks = verify_report(report, manifest)
    verdict = {"schema": "lowrank-check-v1",
               "ok": all(c["status"] != "fail" for c in checks),
               "checks": checks}
    _write_text(args.out, json.dumps(verdict, indent=2) + "\n")
    return 0 if verdict["ok"] else 1


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(_config_argv(sys.argv[1:] if argv is None else list(argv)))
        handler = {
            "gen": _cmd_gen,
            "solve-rpca": _cmd_solve_rpca,
            "solve-mc": _cmd_solve_mc,
            "bench": _cmd_bench,
            "check": _cmd_check,
        }[args.command]
        return handler(args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(exc.code or 0) if exc.code != 2 else 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
