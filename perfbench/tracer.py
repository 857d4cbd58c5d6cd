"""Out-of-program tracing of the gaussdesign layers.

The tracer wraps every public function of every ``gaussdesign`` module in
each module namespace that binds it (``apply_map`` is bound in ``covmap``,
``optimizer`` and ``inference``; a call through any of them is caught), plus
a fixed set of methods on their classes.  Each call becomes a span (name,
start, end, parent) kept in memory; ``layer_metrics`` folds the spans into
the per-layer metrics and ``dump`` writes them out.  Nothing in the package
is edited: ``uninstall`` puts every original binding back.
"""

from __future__ import annotations

import functools
import inspect
import json
import re
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager

import numpy as np

MODULES = ("rng", "covmap", "elliptope", "estimators", "hermite", "inference",
           "optimizer", "simbench", "cli")

# Methods wrapped on their class, as (module, class, method).
METHODS = (
    ("covmap", "CovarianceMap", "eval"),
    ("covmap", "CovarianceMap", "deriv"),
    ("simbench", "GaussianDesign", "latent"),
    ("simbench", "GaussianDesign", "arms"),
    ("simbench", "CompleteRandomization", "arms"),
    ("simbench", "Rerandomization", "arms"),
    ("estimators", "ExperimentRecords", "__post_init__"),
)

# Counted, not spanned: their time stays in the caller's self time.  r_ij is
# the quadrature inside CovarianceMap.eval, binormal_density the exact f'
# inside CovarianceMap.deriv.
COUNT_ONLY = frozenset({"covmap.r_ij", "covmap.binormal_density",
                        "estimators.ExperimentRecords.__post_init__"})

# Spans whose tracemalloc peak above their entry level is recorded.
PEAK_SPANS = frozenset({"covmap.CovarianceMap.eval", "optimizer.pgd_step",
                        "inference.variance_ht_arm",
                        "inference.aronow_samii_bound"})

DESIGN_DRAWS = frozenset({"simbench.GaussianDesign.latent",
                          "simbench.GaussianDesign.arms",
                          "simbench.CompleteRandomization.arms",
                          "simbench.Rerandomization.arms"})

RNG_DRAWS = frozenset({"rng.normals", "rng.uniforms", "rng.permutations"})

GRADIENTS = frozenset({"optimizer.gradient_nuclear", "optimizer.gradient_operator"})
HT = frozenset({"estimators.ht_arm", "estimators.ht_contrast",
                "estimators.ht_continuous"})


def _eval_attrs(a, result):
    rho = np.asarray(a["rho"], dtype=float)
    table = a["self"].table
    if table is None:
        return {"path": "exact", "exact": int(rho.size), "table": 0}
    inside = int(np.count_nonzero((rho >= table.grid[0]) & (rho <= table.grid[-1])))
    return {"path": "table", "exact": int(rho.size) - inside, "table": inside}


def _rows(result):
    return {"rows": int(np.shape(result)[0]), "values": int(np.size(result))}


# Per-function hooks: (bound arguments, result) -> span attributes.
HOOKS = {
    "rng.normals": lambda a, r: _rows(r),
    "rng.uniforms": lambda a, r: _rows(r),
    "rng.permutations": lambda a, r: _rows(r),
    "covmap.CovarianceMap.eval": _eval_attrs,
    "covmap.CovarianceMap.deriv": lambda a, r: {"points": int(np.size(a["rho"]))},
    "covmap.r_ij": lambda a, r: {
        "points": int(np.count_nonzero(np.abs(np.asarray(a["rho"], dtype=float)) < 1.0))},
    "covmap.discretize": lambda a, r: {"values": int(np.size(a["t"]))},
    "elliptope.sample": lambda a, r: {"draws": int(a["B"])},
    "optimizer.pgd_step": lambda a, r: {
        "flop": 2.0 * a["factor"].n ** 2 * a["factor"].k},
    "optimizer.pgd_gauss": lambda a, r: {
        "iterations": len(r[1].rows),
        "halvings": int(sum(row.halvings for row in r[1].rows))},
    "simbench.mc_estimates": lambda a, r: {"design": id(a["design"]), "B": int(a["B"])},
    "simbench.mc_coverage": lambda a, r: {"design": id(a["design"]),
                                          "B": int(a["B_outer"])},
    "simbench.GaussianDesign.latent": lambda a, r: _rows(r),
    "simbench.GaussianDesign.arms": lambda a, r: _rows(r),
    "simbench.CompleteRandomization.arms": lambda a, r: _rows(r),
    "simbench.Rerandomization.arms": lambda a, r: _rows(r),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "peak")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.attrs = None
        self.peak = None


class Tracer:
    """Spans and counters for one traced execution."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []       # indices of open spans
        self._mem_stack = []   # [entry level, running peak, owns tracing] per open peak span
        self._patched = []     # (owner, attribute, original)
        self._wrappers = {}    # id(original function) -> wrapper

    # -- span bookkeeping ------------------------------------------------
    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, parent)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        if name in PEAK_SPANS:
            # tracemalloc runs only inside the outermost peak span, so it
            # slows no other layer.
            owner = not tracemalloc.is_tracing()
            if owner:
                tracemalloc.start()
            level, peak = tracemalloc.get_traced_memory()
            if self._mem_stack:
                self._mem_stack[-1][1] = max(self._mem_stack[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem_stack.append([level, level, owner])
        span.start = time.perf_counter()
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.name in PEAK_SPANS:
            level, running, owner = self._mem_stack.pop()
            peak = max(running, tracemalloc.get_traced_memory()[1])
            span.peak = peak - level
            if self._mem_stack:
                self._mem_stack[-1][1] = max(self._mem_stack[-1][1], peak)
            if owner:
                tracemalloc.stop()

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark's own code around a call."""
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    # -- installation ----------------------------------------------------
    def _wrap(self, name, fn):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        tracer = self

        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.counts[name + ".calls"] += 1
                result = fn(*args, **kwargs)
                if hook:
                    for k, v in hook(sig.bind(*args, **kwargs).arguments, result).items():
                        tracer.counts[f"{name}.{k}"] += v
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(span)
                if hook:
                    span.attrs = hook(sig.bind(*args, **kwargs).arguments, result)
                return result

        self._wrappers[key] = wrapper
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, package):
        """Wrap public functions in every gaussdesign namespace, and METHODS."""
        namespaces = [package] + [getattr(package, m) for m in MODULES]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith(package.__name__ + "."):
                    continue
                name = f"{home.rsplit('.', 1)[1]}.{obj.__qualname__}"
                self._patch(ns, attr, self._wrap(name, obj))
        for module, cls_name, method in METHODS:
            cls = getattr(getattr(package, module), cls_name)
            fn = vars(cls)[method]
            self._patch(cls, method, self._wrap(f"{module}.{cls_name}.{method}", fn))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def count_warnings(self, caught):
        """Fold the program's RuntimeWarnings into layer counters."""
        for w in caught:
            text = str(w.message)
            if "collapsed" in text:
                rows = re.search(r"\[(.*?)\]", text)
                self.counts["optimizer.collapsed_rows"] += \
                    len(rows.group(1).split(",")) if rows else 1
            elif "rerandomization cap exhausted" in text:
                self.counts["simbench.rr.cap_exhausted"] += 1

    # -- output ----------------------------------------------------------
    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs", "peak_bytes"],
                       "spans": [[s.name, s.start, s.end, s.parent, s.attrs, s.peak]
                                 for s in self.spans],
                       "counts": dict(self.counts)}, fh)

    def layer_metrics(self):
        """The per_layer metrics of BENCHMARK.json that spans and counters give."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        calls, self_s, incl = Counter(), Counter(), Counter()
        attr = Counter()
        peak = Counter()
        for i, s in enumerate(self.spans):
            dur = s.end - s.start
            calls[s.name] += 1
            incl[s.name] += dur
            self_s[s.name] += dur - child[i]
            if s.peak is not None:
                peak[s.name] = max(peak[s.name], s.peak)
            for k, v in (s.attrs or {}).items():
                if k not in ("path", "design"):  # labels, not amounts
                    attr[f"{s.name}.{k}"] += v

        def ancestors(i):
            p = self.spans[i].parent
            while p is not None:
                yield self.spans[p].name
                p = self.spans[p].parent

        # rng: values handed to callers outside the rng layer.
        top_values = top_calls = 0
        top_time = 0.0
        for i, s in enumerate(self.spans):
            if s.name in RNG_DRAWS and not any(a.startswith("rng.") for a in ancestors(i)):
                top_values += s.attrs["values"] if s.attrs else 0
                top_calls += 1
                top_time += s.end - s.start

        # eval split by path.
        eval_self = {"exact": 0.0, "table": 0.0}
        for i, s in enumerate(self.spans):
            if s.name == "covmap.CovarianceMap.eval" and s.attrs:
                eval_self[s.attrs["path"]] += s.end - s.start - child[i]

        # simbench: assignment rows returned by outermost design draws, and
        # rng.uniforms rows requested inside Rerandomization.arms.
        drawn = candidates = 0
        for i, s in enumerate(self.spans):
            if s.name in DESIGN_DRAWS and s.attrs \
                    and not any(a in DESIGN_DRAWS for a in ancestors(i)):
                drawn += s.attrs["rows"]
            if s.name == "rng.uniforms" and s.attrs \
                    and "simbench.Rerandomization.arms" in ancestors(i):
                candidates += s.attrs["rows"]
        replicates = {}
        for s in self.spans:
            if s.name in ("simbench.mc_estimates", "simbench.mc_coverage") and s.attrs:
                d = s.attrs["design"]
                replicates[d] = max(replicates.get(d, 0), s.attrs["B"])
        n_replicates = sum(replicates.values())

        pgd_calls = calls["optimizer.pgd_step"]
        pgd_self = self_s["optimizer.pgd_step"]
        iterations = attr["optimizer.pgd_gauss.iterations"]
        rr_rows = attr["simbench.Rerandomization.arms.rows"]
        mb = 1.0 / 2 ** 20

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "rng.normals.calls": calls["rng.normals"],
            "rng.normals.values": attr["rng.normals.values"],
            "rng.normals.self_s": self_s["rng.normals"],
            "rng.uniforms.calls": calls["rng.uniforms"],
            "rng.uniforms.values": attr["rng.uniforms.values"],
            "rng.uniforms.self_s": self_s["rng.uniforms"],
            "rng.values_per_s": ratio(top_values, top_time),
            "rng.values_per_call": ratio(top_values, top_calls),
            "covmap.eval.calls": calls["covmap.CovarianceMap.eval"],
            "covmap.eval.points_exact": attr["covmap.CovarianceMap.eval.exact"],
            "covmap.eval.points_table": attr["covmap.CovarianceMap.eval.table"],
            "covmap.eval.exact_self_s": eval_self["exact"],
            "covmap.eval.table_self_s": eval_self["table"],
            "covmap.eval.peak_alloc_mb": peak["covmap.CovarianceMap.eval"] * mb,
            "covmap.r_ij.points": self.counts["covmap.r_ij.points"],
            "covmap.deriv.points": attr["covmap.CovarianceMap.deriv.points"],
            "covmap.deriv.self_s": self_s["covmap.CovarianceMap.deriv"],
            "covmap.apply_map.calls": calls["covmap.apply_map"],
            "covmap.apply_map.self_s": self_s["covmap.apply_map"],
            "covmap.build_table.calls": calls["covmap.build_table"],
            "covmap.build_table.s": incl["covmap.build_table"],
            "covmap.discretize.values": attr["covmap.discretize.values"],
            "covmap.discretize.self_s": self_s["covmap.discretize"],
            "optimizer.iterations": iterations,
            "optimizer.objective.calls": calls["optimizer.objective"],
            "optimizer.objective.self_s": self_s["optimizer.objective"],
            "optimizer.gradient.calls": sum(calls[n] for n in GRADIENTS),
            "optimizer.gradient.self_s": sum(self_s[n] for n in GRADIENTS),
            "optimizer.pgd_step.calls": pgd_calls,
            "optimizer.pgd_step.self_s": pgd_self,
            "optimizer.pgd_step.peak_alloc_mb": peak["optimizer.pgd_step"] * mb,
            # computed: 2 n^2 k flop per (I - eta G) V product over self time
            "optimizer.pgd_step.gflop_per_s":
                ratio(attr["optimizer.pgd_step.flop"], pgd_self) * 1e-9,
            "optimizer.accepted_step_frac": ratio(iterations, pgd_calls),
            "optimizer.halvings": attr["optimizer.pgd_gauss.halvings"],
            "optimizer.collapsed_rows": self.counts["optimizer.collapsed_rows"],
            "optimizer.pgd_gauss.s": incl["optimizer.pgd_gauss"],
            "elliptope.sample.calls": calls["elliptope.sample"],
            "elliptope.sample.draws": attr["elliptope.sample.draws"],
            "elliptope.sample.self_s": self_s["elliptope.sample"],
            "elliptope.validate.s": incl["elliptope.validate"],
            "estimators.records_from_csv.s": incl["estimators.records_from_csv"],
            "estimators.ExperimentRecords.calls":
                self.counts["estimators.ExperimentRecords.__post_init__.calls"],
            "estimators.ht.calls": sum(calls[n] for n in HT),
            "estimators.ht.self_s": sum(self_s[n] for n in HT),
            "inference.variance_ht_arm.s": incl["inference.variance_ht_arm"],
            "inference.variance_ht_arm.peak_alloc_mb": peak["inference.variance_ht_arm"] * mb,
            "inference.aronow_samii_bound.s": incl["inference.aronow_samii_bound"],
            "inference.aronow_samii_bound.peak_alloc_mb":
                peak["inference.aronow_samii_bound"] * mb,
            "inference.randomization_ci_discrete.calls":
                calls["inference.randomization_ci_discrete"],
            "inference.randomization_ci_discrete.self_s":
                self_s["inference.randomization_ci_discrete"],
            "inference.ols_fit.calls": calls["inference.ols_fit"],
            "inference.ols_fit.self_s": self_s["inference.ols_fit"],
            "simbench.run_scenario.s": incl["simbench.run_scenario"],
            "simbench.mc_estimates.calls": calls["simbench.mc_estimates"],
            "simbench.mc_estimates.self_s": self_s["simbench.mc_estimates"],
            "simbench.assignments_drawn": drawn,
            "simbench.assignments_per_replicate": ratio(drawn, n_replicates),
            "simbench.rr.arms.self_s": self_s["simbench.Rerandomization.arms"],
            "simbench.rr.candidates": candidates,
            "simbench.rr.accept_frac": ratio(rr_rows, candidates),
            "simbench.rr.cap_exhausted": self.counts["simbench.rr.cap_exhausted"],
            "simbench.balance_objective_nuc.s": incl["simbench.balance_objective_nuc"],
            "simbench.mc_coverage.self_s": self_s["simbench.mc_coverage"],
            "cli.sample.s": incl["cli.sample"],
            "cli.estimate.s": incl["cli.estimate"],
            "cli.ci_normal.s": incl["cli.ci_normal"],
            "cli.ci_randomization.s": incl["cli.ci_randomization"],
            "trace.spans": len(self.spans),
        }
