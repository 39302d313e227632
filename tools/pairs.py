#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit and this checkout, in one BENCH file.

    python tools/pairs.py --parent REV --out BENCH_N.json \\
        --run rpca-small-batch:1:10 --run rpca-ialm-1000:1:5

Each ``--run NAME:SEED:PAIRS`` runs ``perfbench/run.py --workload NAME --seed
SEED --trace 0`` PAIRS times on each tree, for ``BENCHMARK.json``'s
``run_seconds`` each, alternating which tree goes first
(pair i runs the parent first when i is even), then once more per tree with
``--trace 1`` for the per-layer counts: iterations, SVT calls and the like.
The parent is ``git archive REV`` of this repository, extracted into a
temporary directory; the change is this checkout's working tree. perfbench
pins BLAS to one thread in its workers, and this tool pins it for the
fingerprint runs too.

The file records every run, each side's failed operations and whether every
run was correct, and, for each end-to-end metric of ``BENCHMARK.json``, each
side's median and quartiles, the pairs the change won, lost and tied by the
metric's direction out of every pair run (a pair where either run errored is a
loss), the change of the median relative to the parent's, and whether that
stays within the metric's bound and whether it is a gain: won at least nine
pairs in ten, by more than the parent's interquartile range, with every run
correct and no more operations failed on the change than on the parent. It
also records both trees' digests from this checkout's ``tools/fingerprint.py``,
run in each tree: every line's full, ``arrays=``, ``trace=`` and ``path=``
digests, how many lines are byte-identical between the trees, how many keep
each kind of digest, and which digests moved on each line that differs.
:func:`print_moved` prints that last part for two saved fingerprint outputs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A gain must win this share of the pairs run.
WIN_SHARE = 0.9


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def extract(rev, into):
    """``git archive rev`` of this repository, unpacked into ``into``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(into, filter="data")


def bench(tree, name, seed, seconds, trace):
    """One perfbench run in ``tree``: its result object, or the failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          env={**os.environ, **PIN})
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(lines[-1])


def run_fingerprint(tree):
    """The output of this checkout's fingerprint file, run in ``tree``."""
    script = Path(tree) / "tools" / "fingerprint.py"
    script.parent.mkdir(exist_ok=True)
    if script.resolve() != (ROOT / "tools" / "fingerprint.py").resolve():
        script.write_bytes((ROOT / "tools" / "fingerprint.py").read_bytes())
    return subprocess.run([sys.executable, str(script)], check=True, capture_output=True,
                          text=True, env={**os.environ, **PIN}).stdout


def parse_fingerprint(text):
    """label -> {kind: digest} of each line of a fingerprint output, the kinds
    being ``full`` and those the line names (``arrays``, ``trace``, ``path``)."""
    digests = {}
    for line in text.splitlines():
        words = line.split()
        first = next(i for i, w in enumerate(words) if len(w) == 64)
        digests[" ".join(words[:first])] = {
            "full": words[first], **dict(w.split("=", 1) for w in words[first + 1:])}
    return digests


def same_bits(parent, change):
    """Both trees' fingerprint lines compared: how many are byte-identical,
    how many keep each kind of digest out of those that carry it, and which
    digests moved on each line that differs (a line new to the change moved
    in all of its digests)."""
    kinds = ("full", "arrays", "trace", "path")

    def moved(label):
        old, new = parent.get(label, {}), change[label]
        return sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))

    diff = {label: moved(label) for label in change}
    return {
        "lines": len(change),
        "identical": sum(not m for m in diff.values()),
        "kept": {k: sum(k in change[label] and k not in m for label, m in diff.items())
                 for k in kinds},
        "carrying": {k: sum(k in d for d in change.values()) for k in kinds},
        "moved": {label: m for label, m in diff.items() if m},
        "only_in_parent": sorted(parent.keys() - change.keys()),
        "digests": {"parent": parent, "change": change}}


def print_moved(parent_file, change_file):
    """For two fingerprint output files, print ``moved: label: kinds`` with
    the kinds of digest that moved on each line that differs, ``added`` or
    ``removed`` in place of the kinds for a line only one file has."""
    same = same_bits(*(parse_fingerprint(Path(f).read_text())
                       for f in (parent_file, change_file)))
    for label, kinds in same["moved"].items():
        moved = ", ".join(kinds) if label in same["digests"]["parent"] else "added"
        print(f"moved: {label}: {moved}")
    for label in same["only_in_parent"]:
        print(f"moved: {label}: removed")


def spread(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def failed(runs):
    """Operations failed over ``runs``, and whether every run was correct (a
    run that errored was not)."""
    return {"failed": sum(r.get("failed", 0) for r in runs),
            "all_correct": all(r.get("correct") is True for r in runs)}


def compare(parent, change, metrics):
    """Per end-to-end metric: each side's spread over the pairs where both
    runs reported it, the paired wins, losses and ties out of every pair run,
    a pair that lacks the metric on either side counting as a loss, and the
    bound and gain verdicts. No metric is a gain unless every run was correct
    and the change failed no more operations than the parent."""
    run = len(parent)
    p_fail, c_fail = failed(parent), failed(change)
    sound = (p_fail["all_correct"] and c_fail["all_correct"]
             and c_fail["failed"] <= p_fail["failed"])
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(parent, change)
                 if name in p.get("metrics", {}) and name in c.get("metrics", {})]
        out[name] = {"unit": m["unit"], "better": m["better"], "pairs_run": run,
                     "pairs": len(pairs), "bound": m["bound"]}
        if not pairs:
            out[name].update(wins=0, losses=run, ties=0, within_bound=False, gain=False)
            continue
        sign = 1.0 if higher else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in pairs)
        losses = sum(sign * (c - p) < 0 for p, c in pairs) + run - len(pairs)
        ps, cs = spread([p for p, _ in pairs]), spread([c for _, c in pairs])
        gain = sign * (cs["median"] - ps["median"])
        rel = (cs["median"] - ps["median"]) / ps["median"] if ps["median"] else 0.0
        out[name].update(
            parent=ps, change=cs, wins=wins, losses=losses, ties=run - wins - losses,
            median_rel_change=rel, within_bound=-sign * rel <= m["bound"],
            gain=sound and wins >= WIN_SHARE * run and gain > ps["q3"] - ps["q1"])
    return out


def host():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), **PIN}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision of the parent")
    p.add_argument("--out", required=True, type=Path, help="BENCH file to write")
    p.add_argument("--run", action="append", required=True, metavar="NAME:SEED:PAIRS")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    runs = []
    for r in args.run:
        name, seed, pairs = r.split(":")
        runs.append((name, int(seed), int(pairs)))
    result = {
        "what": "perfbench run in alternating pairs on the parent and this change",
        "command": " ".join(["python", "tools/pairs.py", *(argv or sys.argv[1:])]),
        "parent": git("rev-parse", args.parent).decode().strip(),
        "change": git("rev-parse", "HEAD").decode().strip(),
        "change_tree_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "pair_order": "pair i runs the parent first when i is even, the change first when odd",
        "seconds": seconds,
        "host": host(),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as parent:
        extract(args.parent, parent)
        trees = {"parent": parent, "change": str(ROOT)}
        for name, seed, pairs in runs:
            got = {"parent": [], "change": []}
            for i in range(pairs):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    got[side].append(bench(trees[side], name, seed, seconds, 0))
                    print(f"{name} seed {seed} pair {i} {side}: "
                          f"{json.dumps(got[side][-1].get('metrics', got[side][-1]))}",
                          file=sys.stderr, flush=True)
            traced = {side: bench(trees[side], name, seed, seconds, 1) for side in trees}
            result["workloads"].setdefault(name, {})[str(seed)] = {
                "failed": {side: failed(runs) for side, runs in got.items()},
                "metrics": compare(got["parent"], got["change"], spec["end_to_end"]),
                "runs": got, "traced": traced}
        result["fingerprint"] = same_bits(*(parse_fingerprint(run_fingerprint(tree))
                                            for tree in (parent, str(ROOT))))
    args.out.write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
