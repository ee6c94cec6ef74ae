"""Per-layer tracing from outside the package.

`Tracer.install()` wraps every public function of the toricglsm modules
(and the construction of a section collection) and rebinds each alias of
it in every `toricglsm.*` namespace: `validate_fan` is imported by name
into cox, delta and collapse, and `rank` into fan, so patching only the
defining module would miss most calls.  A span (name, start, end, parent,
op) is kept in memory for every call; `layer_metrics` turns the spans of
the timed ops into per-layer counts and self times.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

MODULES = ("fan", "cox", "lattice", "ratlp", "forms", "delta", "moduli", "collapse",
           "glsm", "jsonio", "cli", "catalog")
CACHED = ("fan.is_smooth", "fan.is_complete", "fan.walls")
# Left unwrapped: fm_witness is the whole body of ratlp.feasible (and of
# separating_functional), so its time belongs to their self time.
SKIP = ("ratlp.fm_witness",)

# metric name -> unit, in the order of BENCHMARK.json
PER_LAYER = {
    "fan.validate.calls": "count", "fan.validate.ms": "ms", "fan.validate.unique_ratio": "ratio",
    "fan.is_complete.ms": "ms", "fan.cache_hit_ratio": "ratio",
    "ratlp.feasible.calls": "count", "ratlp.feasible.ms": "ms", "ratlp.rows_in": "count",
    "lattice.snf.calls": "count", "lattice.snf.ms": "ms",
    "lattice.rank.calls": "count", "lattice.rank.ms": "ms",
    "cox.presentation.ms": "ms", "cox.primitive_collections.ms": "ms",
    "forms.gcd.calls": "count", "forms.gcd.ms": "ms", "forms.mul.ms": "ms",
    "forms.compose.ms": "ms", "forms.substitute.ms": "ms",
    "delta.construct.calls": "count", "delta.construct.ms": "ms", "delta.isomorphic.ms": "ms",
    "delta.base_divisor.ms": "ms", "moduli.sample.ms": "ms", "collapse.collapse.ms": "ms",
    "glsm.semistable.calls": "count", "glsm.semistable.ms": "ms", "glsm.phase.ms": "ms",
    "glsm.phase.lps_per_call": "count",
    "glsm.kn.ms": "ms", "glsm.kn.iterations": "count", "glsm.kn.converged_ratio": "ratio",
    "cli.process_ms": "ms", "cli.command_ms": "ms", "cli.startup_share": "ratio",
    "cli.import_ms": "ms", "jsonio.ms": "ms",
    "ref_kernel_ms": "ms", "trace_overhead_ratio": "ratio", "untraced_share": "ratio",
}

# span names behind the per-layer metrics
_SPAN = {
    "fan.validate": "fan.validate_fan", "fan.is_complete": "fan.is_complete",
    "ratlp.feasible": "ratlp.feasible", "lattice.snf": "lattice.smith_normal_form",
    "lattice.rank": "lattice.rank", "cox.presentation": "cox.cox_presentation",
    "cox.primitive_collections": "cox.primitive_collections", "forms.gcd": "forms.gcd",
    "forms.mul": "forms.mul", "forms.compose": "forms.compose",
    "forms.substitute": "forms.substitute", "delta.construct": "delta.construct",
    "delta.isomorphic": "delta.isomorphic", "delta.base_divisor": "delta.base_divisor",
    "moduli.sample": "moduli.sample", "collapse.collapse": "collapse.collapse",
    "glsm.semistable": "glsm.semistable", "glsm.phase": "glsm.unstable_supports",
    "glsm.kn": "glsm.kempf_ness_solve",
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op index or None]
        self.stack = []
        self.op = None  # index of the timed op in flight; None outside ops
        self.fans = set()  # distinct fans given to validate_fan inside ops
        self.rows_in = 0
        self.kn = []  # (status, iterations) of Kempf-Ness solves inside ops
        self.hits = self.misses = 0
        self._cached = []

    def _wrap(self, label, fn):
        spans, stack = self.spans, self.stack
        pre = {"fan.validate_fan": self._on_validate, "ratlp.feasible": self._on_feasible}.get(label)
        post = self._on_solve if label == "glsm.kempf_ness_solve" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None and self.op is not None:
                pre(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (label, t0, t1, parent, self.op)
            if post is not None and self.op is not None:
                post(result)
            return result

        return traced

    def _on_validate(self, args):
        f = args[0]
        self.fans.add((f.dim, f.rays, f.max_cones))

    def _on_feasible(self, args):
        self.rows_in += len(args[0])

    def _on_solve(self, report):
        self.kn.append((report.status, report.iterations))

    def install(self):
        import toricglsm  # noqa: F401
        from toricglsm import delta

        wrappers = {}
        for short in MODULES:
            mod = sys.modules["toricglsm." + short]
            for name, obj in vars(mod).items():
                callable_ = inspect.isfunction(obj) or hasattr(obj, "cache_info")
                if name.startswith("_") or not callable_ or obj.__module__ != mod.__name__:
                    continue
                label = f"{short}.{name}"
                if label in SKIP:
                    continue
                wrappers[id(obj)] = self._wrap(label, obj)
                if label in CACHED:
                    self._cached.append(obj)
        for modname, mod in list(sys.modules.items()):
            if modname == "toricglsm" or modname.startswith("toricglsm."):
                for name, obj in list(vars(mod).items()):
                    if id(obj) in wrappers:
                        setattr(mod, name, wrappers[id(obj)])
        cls = delta.WeakDeltaCollection
        cls.__post_init__ = self._wrap("delta.construct", cls.__post_init__)

    def cache_totals(self):
        infos = [f.cache_info() for f in self._cached]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    def begin(self, op):
        self.op = op
        self._c0 = self.cache_totals()

    def end(self):
        h, m = self.cache_totals()
        self.hits += h - self._c0[0]
        self.misses += m - self._c0[1]
        self.op = None

    def dump(self):
        """Everything a parent process needs, as JSON-ready data."""
        return {"spans": self.spans, "fans": [repr(f) for f in self.fans],
                "rows_in": self.rows_in, "kn": self.kn, "hits": self.hits,
                "misses": self.misses}

    def merge(self, child, op):
        """Add a child process's dump, re-tagging its spans with `op`."""
        base = len(self.spans)
        for name, t0, t1, parent, child_op in child["spans"]:
            self.spans.append((name, t0, t1, parent + base if parent >= 0 else -1,
                               None if child_op is None else op))
        self.fans.update(child["fans"])
        self.rows_in += child["rows_in"]
        self.kn += [tuple(k) for k in child["kn"]]
        self.hits += child["hits"]
        self.misses += child["misses"]

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.dump(), fh)


def layer_metrics(tracer, factors, op_seconds, refs, cli=None):
    """Per-layer metrics of the timed ops.  Times are reference-scaled with
    the factor of the stretch each op ran in.

    factors[i], op_seconds[i]: scale factor and raw duration of op i.
    cli: {"process": [raw seconds per op], "imports": [raw seconds per op]};
    a process time excludes the launcher's own time (cli_launcher.py).
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, t0, t1, parent, op in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls, self_ms, top = {}, {}, [0.0] * len(op_seconds)
    lps = 0
    for idx, (name, t0, t1, parent, op) in enumerate(spans):
        if op is None:
            continue
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + (t1 - t0 - child[idx]) * factors[op] * 1e3
        if parent < 0:
            top[op] += t1 - t0
        elif name == "glsm.semistable" and spans[parent][0] == "glsm.unstable_supports":
            lps += 1
    m = {}
    for metric, span in _SPAN.items():
        m[metric + ".calls"] = calls.get(span, 0)
        m[metric + ".ms"] = self_ms.get(span, 0.0)
    n_validate = calls.get("fan.validate_fan", 0)
    m["fan.validate.unique_ratio"] = len(tracer.fans) / n_validate if n_validate else 0.0
    looked = tracer.hits + tracer.misses
    m["fan.cache_hit_ratio"] = tracer.hits / looked if looked else 0.0
    m["ratlp.rows_in"] = tracer.rows_in
    phases = calls.get("glsm.unstable_supports", 0)
    m["glsm.phase.lps_per_call"] = lps / phases if phases else 0.0
    converged = [it for status, it in tracer.kn if status == "Converged"]
    m["glsm.kn.iterations"] = statistics.mean(converged) if converged else 0.0
    m["glsm.kn.converged_ratio"] = len(converged) / len(tracer.kn) if tracer.kn else 0.0
    m["jsonio.ms"] = sum(v for k, v in self_ms.items() if k.startswith("jsonio."))
    command = sum((t1 - t0) * factors[op] * 1e3 for name, t0, t1, _, op in spans
                  if name == "cli.main" and op is not None)
    m["cli.command_ms"] = command
    if cli:
        m["cli.process_ms"] = sum(s * f for s, f in zip(cli["process"], factors)) * 1e3
        m["cli.import_ms"] = sum(s * f for s, f in zip(cli["imports"], factors)) * 1e3
        m["cli.startup_share"] = 1 - command / m["cli.process_ms"]
    else:
        m["cli.process_ms"] = m["cli.import_ms"] = m["cli.startup_share"] = 0.0
    m["ref_kernel_ms"] = statistics.median(refs) * 1e3
    total = sum(op_seconds)
    m["untraced_share"] = 1 - sum(top) / total if total else 0.0
    return {k: m[k] for k in PER_LAYER if k in m}
