"""Span tracing of the ``mfa`` layers from outside the program.

Each public function of each ``mfa`` module is wrapped, and the wrapper is
bound wherever a module holds the function (``mfa.cli.integrate`` as well as
``mfa.sim.integrate``), so calls made through any import are seen.  A span
is (name, start_ns, end_ns, parent); spans stay in memory until written.
A few counts are taken at the same boundaries: saturation evaluations in
the equilibrium scan, frequency points evaluated, RK4 steps.  Names that a
later version of the program no longer has are skipped and read as 0.
"""

from __future__ import annotations

import json
import sys
import time
import types
from collections import Counter, defaultdict

MODULES = ("tf_core", "freq_analysis", "equilibria", "sim", "multichannel",
           "interconnect", "cli")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if name == "equilibria.solve_phi_line":
                evals = [0]
                args = (_counting(args[0], evals), *args[1:])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if name == "equilibria.solve_phi_line":
                counts["equilibria.phi_evals"] += evals[0]
                counts["equilibria.roots"] += len(result)
            elif name == "sim.integrate":
                counts["sim.rk4_steps"] += len(result.t) - 1
            return result

        return traced

    def install(self):
        """Bind a traced wrapper in place of every public mfa function."""
        wrappers = {}
        for short in MODULES:
            mod = sys.modules.get("mfa." + short)
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        freq = sys.modules.get("mfa.freq_analysis")
        for name, size in (("_eval_re_axis", lambda a: len(a[1])), ("_re_at", lambda a: 1)):
            fn = getattr(freq, name, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, _sized(fn, size, self.counts, "freq_analysis.sweep_points"))
        for modname, mod in list(sys.modules.items()):
            if modname != "mfa" and not modname.startswith("mfa."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def totals(self):
        """Per span name: calls, total ns and self ns (total minus child spans)."""
        child_ns = defaultdict(int)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        agg = defaultdict(lambda: [0, 0, 0])
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = agg[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_ns[i]
        return agg

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


def _counting(phi, evals):
    def counted(y):
        evals[0] += 1
        return phi(y)
    return counted


def _sized(fn, size, counts, key):
    def counted(*args, **kwargs):
        counts[key] += size(args)
        return fn(*args, **kwargs)
    return counted


# name -> unit; every value is per traced operation unless the unit says otherwise.
LAYER_METRICS = {
    "tf_core.poly_roots.calls": "count/op",
    "tf_core.poly_roots.ms": "ms/op",
    "tf_core.tf_shift.ms": "ms/op",
    "freq_analysis.min_real_part.calls": "count/op",
    "freq_analysis.min_real_part.ms": "ms/op",
    "freq_analysis.min_real_part.us_per_call": "us/call",
    "freq_analysis.sweep_points": "count/op",
    "freq_analysis.critical_gain.self_ms": "ms/op",
    "freq_analysis.check_p_passivity.self_ms": "ms/op",
    "equilibria.solve_phi_line.calls": "count/op",
    "equilibria.solve_phi_line.ms": "ms/op",
    "equilibria.phi_evals": "count/op",
    "equilibria.phi_evals_per_root": "evals",
    "equilibria.find_equilibria.self_ms": "ms/op",
    "equilibria.dominance_map.self_ms": "ms/op",
    "sim.integrate.ms": "ms/op",
    "sim.rk4_steps": "count/op",
    "sim.integrate.us_per_step": "us/step",
    "sim.detect_oscillation.ms": "ms/op",
    "sim.boundedness_check.ms": "ms/op",
    "cli.main.self_ms": "ms/op",
    "cli.bytes_written": "B/op",
    "cli.build_analysis_report.self_ms": "ms/op",
    "multichannel.build_extended_openloop.ms": "ms/op",
    "multichannel.check_interlacing.ms": "ms/op",
    "multichannel.realize_diagonal.ms": "ms/op",
    "interconnect.interconnection_openloop.ms": "ms/op",
    "interconnect.find_equilibria_interconnected.self_ms": "ms/op",
    "interconnect.assemble_closed_loop.ms": "ms/op",
    "trace.overhead_pct": "%",
    "op_p90_ms": "ms",
}


def layer_values(tracer, n_ops, bytes_written, scale):
    """Per-layer values of LAYER_METRICS except the two the runner measures.

    Times are multiplied by ``scale``, the run's nominal-speed factor.
    """
    agg = tracer.totals()
    counts = tracer.counts

    def per_op(x):
        return x / n_ops if n_ops else 0.0

    out = {}
    for metric in LAYER_METRICS:
        span, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = per_op(agg[span][0] if span in agg else 0)
        elif stat in ("ms", "self_ms"):
            ns = agg[span][1 if stat == "ms" else 2] if span in agg else 0
            out[metric] = per_op(ns / 1e6 * scale)
    mrp = agg.get("freq_analysis.min_real_part", [0, 0, 0])
    integ = agg.get("sim.integrate", [0, 0, 0])
    out["freq_analysis.min_real_part.us_per_call"] = (mrp[1] / 1e3 * scale / mrp[0]
                                                      if mrp[0] else 0.0)
    out["freq_analysis.sweep_points"] = per_op(counts["freq_analysis.sweep_points"])
    out["equilibria.phi_evals"] = per_op(counts["equilibria.phi_evals"])
    roots = counts["equilibria.roots"]
    out["equilibria.phi_evals_per_root"] = counts["equilibria.phi_evals"] / roots if roots else 0.0
    steps = counts["sim.rk4_steps"]
    out["sim.rk4_steps"] = per_op(steps)
    out["sim.integrate.us_per_step"] = integ[1] / 1e3 * scale / steps if steps else 0.0
    out["cli.bytes_written"] = per_op(bytes_written)
    return out
