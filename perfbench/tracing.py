"""Outside-in tracing for the benchmark's traced run (``--trace 1``).

Spans come only from wrappers the benchmark installs around names of the
package; nothing inside the package changes. Every wrapper comes from the one
table ``WRAPS`` of (site, attribute, span) entries. The site is where solver
code looks the name up at call time: ``rpca`` and ``mc`` bind
``svt_triplets``, ``shrink``, ``truncated_svd`` and the norms at import, so the
table patches ``lowrank.rpca.svt_triplets`` and ``lowrank.mc.truncated_svd``,
not only ``lowrank.linalg``. A site or attribute that no longer exists leaves
its span uninstalled, and each metric that needs that span is reported absent
(``None``) instead of failing the run.

A span records its name, start, end, parent span and root span (the solve or
generator call that caused it). Self time is a span's duration minus the time
its child spans cover; on one thread children never overlap, so that is the
sum of their durations.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

NAME, START, END, PARENT, ROOT, FAILED, ARG, CHILD = range(8)


def _k_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["k"]


# (site, attribute, span[, recorder of one call argument])
WRAPS = (
    # problems: instance generation, inside set-up
    ("lowrank", "gen_rpca", "problems.gen"),
    ("lowrank", "gen_mc", "problems.gen"),
    ("lowrank.problems", "sample_without_replacement", "problems.sample"),
    # rpca: the solver entry points as the benchmark calls them, one
    # IterRecord per outer iteration, and the linalg names rpca bound at import
    ("lowrank", "solve_ialm", "rpca.solve"),
    ("lowrank", "solve_ealm", "rpca.solve"),
    ("lowrank", "solve_apg", "rpca.solve"),
    ("lowrank.rpca", "IterRecord", "rpca.iteration"),
    ("lowrank.rpca", "svt_triplets", "linalg.svt"),
    ("lowrank.rpca", "shrink", "linalg.shrink"),
    ("lowrank.rpca", "spectral_norm", "linalg.norm0"),
    ("lowrank.rpca", "dual_gauge", "linalg.norm0"),
    # mc: likewise
    ("lowrank", "solve_mc_ialm", "mc.solve"),
    ("lowrank.mc", "IterRecord", "mc.iteration"),
    ("lowrank.mc", "truncated_svd", "linalg.svd", _k_arg),
    ("lowrank.mc", "_delta_e_factored", "mc.delta_e"),
    # linalg: calls between its own functions and methods of its classes
    ("lowrank.linalg", "truncated_svd", "linalg.svd", _k_arg),
    ("lowrank.linalg", "_lanczos_svd", "linalg.svd.lanczos"),
    ("lowrank.linalg", "_full_svd", "linalg.svd.full"),
    ("lowrank.linalg.SparsePlusLowRank", "matvec", "linalg.op.matvec"),
    ("lowrank.linalg.SparsePlusLowRank", "rmatvec", "linalg.op.matvec"),
    ("lowrank.linalg.SparsePlusLowRank", "to_dense", "linalg.op.dense"),
    ("lowrank.linalg.ObservedSet", "to_csr", "linalg.observed.to_csr"),
    ("lowrank.linalg.TruncatedSVD", "compose", "linalg.compose"),
)

# Per-layer metrics: name -> (unit, spans it needs). Values are per traced
# solve, except problems.* which are per generated instance.
LAYER_METRICS = {
    "problems.gen_s": ("s", ("problems.gen",)),
    "problems.sample_s": ("s", ("problems.sample",)),
    "linalg.svt.calls": ("count", ("linalg.svt",)),
    "linalg.svd.calls": ("count", ("linalg.svd",)),
    "linalg.svd.total_s": ("s", ("linalg.svd",)),
    "linalg.svd.kept_ratio": ("1", ("linalg.svt", "linalg.svd")),
    "linalg.svd.k_mean": ("count", ("linalg.svd",)),
    "linalg.svd.lanczos_calls": ("count", ("linalg.svd.lanczos",)),
    "linalg.svd.lanczos_s": ("s", ("linalg.svd.lanczos",)),
    "linalg.svd.full_calls": ("count", ("linalg.svd.full",)),
    "linalg.svd.full_s": ("s", ("linalg.svd.full",)),
    "linalg.svd.fallback_calls": (
        "count", ("linalg.svd", "linalg.svd.lanczos", "linalg.svd.full")),
    "linalg.op.matvecs": ("count", ("linalg.op.matvec",)),
    "linalg.op.matvec_s": ("s", ("linalg.op.matvec",)),
    "linalg.op.dense_calls": ("count", ("linalg.op.dense",)),
    "linalg.observed.to_csr_s": ("s", ("linalg.observed.to_csr",)),
    "linalg.norm0_s": ("s", ("linalg.norm0",)),
    "linalg.shrink_s": ("s", ("linalg.shrink",)),
    "linalg.compose_s": ("s", ("linalg.compose",)),
    "rpca.self_s": ("s", ("rpca.solve",)),
    "rpca.iterations": ("count", ("rpca.iteration",)),
    "mc.delta_e_s": ("s", ("mc.delta_e",)),
    "mc.self_s": ("s", ("mc.solve",)),
    "mc.iterations": ("count", ("mc.iteration",)),
}


def _resolve(package, site):
    """The module or class named by ``site`` (a dotted path from the package
    root), or None if some part of it no longer exists."""
    obj = package
    for part in site.split(".")[1:]:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class Tracer:
    """Span recorder plus the wrappers of ``WRAPS``; install them with
    :meth:`installed` around the calls to trace."""

    def __init__(self, package):
        self.spans = []
        self._stack = []
        self._patches = []
        self.available = set()
        for site, attr, span, *recorder in WRAPS:
            owner = _resolve(package, site)
            if owner is None or attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            wrapped = self._wrap(original, span, recorder[0] if recorder else None)
            self._patches.append((owner, attr, original, wrapped))
            self.available.add(span)

    def _wrap(self, fn, name, recorder):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            rec = [name, clock(), 0.0, parent,
                   spans[parent][ROOT] if parent >= 0 else idx, False,
                   recorder(args, kwargs) if recorder else None, 0.0]
            spans.append(rec)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                stack.pop()
                rec[END] = clock()
                if parent >= 0:
                    spans[parent][CHILD] += rec[END] - rec[START]

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def cross_check(self, root, res):
        """Compare the wrapper counts of the solve whose span is ``root``
        against the solver's own counters; returns the mismatches."""
        sub = self.spans[root:]
        kind = sub[0][NAME].split(".")[0]

        def children(name):
            return sum(1 for s in sub if s[NAME] == name and s[PARENT] == root)

        bad = []
        if kind == "rpca" and "linalg.svt" in self.available:
            got = children("linalg.svt")
            if got != res.svd_count:
                bad.append(f"linalg.svt.calls {got} != svd_count {res.svd_count}")
        if kind == "mc" and "linalg.svd" in self.available:
            got = children("linalg.svd")
            if got != res.svd_count + 1:
                bad.append(f"mc truncated_svd calls {got} != svd_count + 1 "
                           f"= {res.svd_count + 1}")
        if f"{kind}.iteration" in self.available:
            got = children(f"{kind}.iteration")
            if got != res.iterations:
                bad.append(f"{kind}.iterations {got} != result.iterations "
                           f"{res.iterations}")
        return bad

    def _aggregate(self, roots):
        """name -> [calls, total_s, self_s] over the spans under ``roots``,
        plus the sums the derived metrics need."""
        rootset = set(roots)
        agg = {}
        svd_in_svt = k_sum = fallbacks = 0
        failed_lanczos_parents = set()
        for i, s in enumerate(self.spans):
            if s[ROOT] not in rootset:
                continue
            dur = s[END] - s[START]
            a = agg.setdefault(s[NAME], [0, 0.0, 0.0])
            a[0] += 1
            a[1] += dur
            a[2] += dur - s[CHILD]
            if s[NAME] == "linalg.svd":
                k_sum += s[ARG]
                if s[PARENT] >= 0 and self.spans[s[PARENT]][NAME] == "linalg.svt":
                    svd_in_svt += 1
            elif s[NAME] == "linalg.svd.lanczos" and s[FAILED]:
                failed_lanczos_parents.add(s[PARENT])
            elif s[NAME] == "linalg.svd.full" and s[PARENT] in failed_lanczos_parents:
                fallbacks += 1
        return agg, svd_in_svt, k_sum, fallbacks

    def layer_metrics(self, roots, n_instances):
        """Every per-layer metric of ``LAYER_METRICS``; ``None`` marks one
        whose spans could not be installed."""
        agg, svd_in_svt, k_sum, fallbacks = self._aggregate(roots)
        gen = {name: [0, 0.0] for name in ("problems.gen", "problems.sample")}
        for s in self.spans:
            if s[NAME] in gen:
                gen[s[NAME]][0] += 1
                gen[s[NAME]][1] += s[END] - s[START]
        n = max(len(roots), 1)

        def calls(name):
            return agg.get(name, [0, 0.0, 0.0])[0]

        def per_solve(name, field):
            return agg.get(name, [0, 0.0, 0.0])[field] / n

        svt_calls, svd_calls = calls("linalg.svt"), calls("linalg.svd")
        values = {
            "problems.gen_s": gen["problems.gen"][1] / max(n_instances, 1),
            "problems.sample_s": gen["problems.sample"][1] / max(n_instances, 1),
            "linalg.svt.calls": per_solve("linalg.svt", 0),
            "linalg.svd.calls": per_solve("linalg.svd", 0),
            "linalg.svd.total_s": per_solve("linalg.svd", 1),
            # no svt call wastes no decomposition
            "linalg.svd.kept_ratio": svt_calls / svd_in_svt if svd_in_svt else 1.0,
            "linalg.svd.k_mean": k_sum / svd_calls if svd_calls else 0.0,
            "linalg.svd.lanczos_calls": per_solve("linalg.svd.lanczos", 0),
            "linalg.svd.lanczos_s": per_solve("linalg.svd.lanczos", 1),
            "linalg.svd.full_calls": per_solve("linalg.svd.full", 0),
            "linalg.svd.full_s": per_solve("linalg.svd.full", 1),
            "linalg.svd.fallback_calls": fallbacks / n,
            "linalg.op.matvecs": per_solve("linalg.op.matvec", 0),
            "linalg.op.matvec_s": per_solve("linalg.op.matvec", 1),
            "linalg.op.dense_calls": per_solve("linalg.op.dense", 0),
            "linalg.observed.to_csr_s": per_solve("linalg.observed.to_csr", 1),
            "linalg.norm0_s": per_solve("linalg.norm0", 1),
            "linalg.shrink_s": per_solve("linalg.shrink", 1),
            "linalg.compose_s": per_solve("linalg.compose", 1),
            "rpca.self_s": per_solve("rpca.solve", 2),
            "rpca.iterations": per_solve("rpca.iteration", 0),
            "mc.delta_e_s": per_solve("mc.delta_e", 1),
            "mc.self_s": per_solve("mc.solve", 2),
            "mc.iterations": per_solve("mc.iteration", 0),
        }
        return {
            name: (values[name] if all(s in self.available for s in spans) else None)
            for name, (_, spans) in LAYER_METRICS.items()
        }

    def summary(self, roots):
        """Lines of calls, total and self seconds per span name under ``roots``."""
        agg = self._aggregate(roots)[0]
        lines = [f"{'span':<26}{'calls':>10}{'total_s':>12}{'self_s':>12}"]
        for name in sorted(agg):
            c, total, own = agg[name]
            lines.append(f"{name:<26}{c:>10}{total:>12.4f}{own:>12.4f}")
        return lines
