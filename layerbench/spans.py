"""Outside-in tracing of trendcomp's layers.

A :class:`Tracer` replaces each layer function, in every trendcomp
module that holds a reference to it, with a wrapper that records a span:
id, parent id, operation id, name, start and end.  Names are patched
where they are looked up (``trendcomp.ctp.contrast_test``,
``trendcomp.simulate.MvnSpec``, ``trendcomp.mvn._kernel.qmc_shift_means``
...), not only where they are defined, so calls between modules are
seen.  Spans stay in memory until :meth:`Tracer.write`.  Counters that
the spans cannot show are read from arguments and results at the same
boundaries.  The library itself is not modified.

The parent of a span is the innermost open span, so a tracer is only
valid while one thread runs trendcomp: trace at parallelism 1.
"""

from __future__ import annotations

import json
import sys
import time

# (layer, module that defines the name, name); the kernel module is the
# backend trendcomp.mvn selected at import, reached as trendcomp.mvn._kernel.
LAYERS = (
    ("kernel", None, "qmc_shift_means"),
    ("mvn", "trendcomp.mvn", "MvnSpec"),
    ("mvn", "trendcomp.mvn", "adjust_maxt"),
    ("mvn", "trendcomp.mvn", "adjusted_p_below"),
    ("mvn", "trendcomp.mvn", "mvn_upper_orthant_complement"),
    ("contrasts", "trendcomp.contrasts", "contrast_moments"),
    ("contrasts", "trendcomp.contrasts", "contrast_test"),
    ("ctp", "trendcomp.ctp", "closed_analysis"),
    ("model", "trendcomp.model", "fit_saturated_logit"),
    ("data", "trendcomp.data", "read_counts_csv"),
    ("simulate", "trendcomp.simulate", "run_scenario"),
    ("cli", "trendcomp.cli", "main"),
)

COUNTERS = (
    "kernel.points",
    "kernel.evals",
    "mvn.points",
    "simulate.n_boundary",
    "simulate.n_degenerate",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_kernel(counters, args, kwargs, result):
    # qmc_shift_means(chol, upper, sqrt_primes, shifts, npts)
    points = _arg(args, kwargs, 3, "shifts").shape[0] * int(_arg(args, kwargs, 4, "npts"))
    counters["kernel.points"] += points
    counters["kernel.evals"] += points * (_arg(args, kwargs, 1, "upper").shape[0] - 1)


def _count_tail(counters, args, kwargs, result):
    counters["mvn.points"] += result.points


def _count_scenario(counters, args, kwargs, result):
    counters["simulate.n_boundary"] += result.n_boundary
    counters["simulate.n_degenerate"] += result.n_degenerate


_ON_RETURN = {
    "kernel.qmc_shift_means": _count_kernel,
    "mvn.mvn_upper_orthant_complement": _count_tail,
    "simulate.run_scenario": _count_scenario,
}


class Tracer:
    """Spans and counters of one traced pass; install, run, uninstall."""

    def __init__(self):
        self.spans = []  # [id, parent, op, name, start, end]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.sites = []  # "module.attribute" of every patched reference
        self.op = -1
        self._stack = []
        self._undo = []

    def _wrapper(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        on_return = _ON_RETURN.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, self.op, name, clock(), 0.0]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if on_return is not None:
                on_return(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "trendcomp" or name.startswith("trendcomp.")
        }
        for layer, defined_in, attr in LAYERS:
            home = modules["trendcomp.mvn"]._kernel if defined_in is None else modules[defined_in]
            original = getattr(home, attr)
            wrapper = self._wrapper(f"{layer}.{attr}", original)
            for mod_name, mod in sorted(modules.items()):
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))
                    self.sites.append(f"{mod_name}.{attr}")

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def metrics(self) -> dict:
        """Calls, inclusive and self seconds per layer function, plus counters."""
        child = [0.0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for layer, _, attr in LAYERS:
            name = f"{layer}.{attr}"
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for sid, _, _, name, start, end in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child[sid]
        out.update(self.counters)
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({"sites": self.sites}) + "\n")
            for sid, parent, op, name, start, end in self.spans:
                fh.write(
                    json.dumps([sid, parent, op, name, round(start - t0, 7), round(end - t0, 7)])
                    + "\n"
                )
