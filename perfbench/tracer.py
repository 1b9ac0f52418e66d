"""In-memory span tracer that wraps gpbudget's public names from outside.

Modules in the package import each other by name (``from .kernels import
gram_matrix``), so a name has to be replaced in every module namespace
that bound it.  ``Tracer.install`` does that for each target and keeps
the originals so that ``uninstall`` can put them back.  Nothing under
``src/`` is edited.

A span records its name, start, end, parent span, trace id, whether the
call raised, and the operation counts of that call.  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

import numpy as np

# Each target is (layer, home module, name).  The home module is where the
# object lives; it is wrapped wherever a gpbudget module binds that same
# object.
TARGETS = (
    ("kernels", "gpbudget.kernels", "gram_matrix"),
    ("kernels", "gpbudget.kernels", "cross_matrix"),
    ("kernels", "scipy.special", "kv"),
    ("planner", "gpbudget.planner", "fit_hyperparameters"),
    ("planner", "gpbudget.planner", "concentrated_log_likelihood"),
    ("gp_core", "gpbudget.gp_core", "fit_blup"),
    ("gp_core", "gpbudget.gp_core", "predict_mean"),
    ("gp_core", "gpbudget.gp_core", "predict_mse"),
    ("allocation", "gpbudget.allocation", "plan_allocation"),
    ("allocation", "gpbudget.allocation", "optimal_real_allocation"),
    ("allocation", "gpbudget.allocation", "local_imse_weight"),
    ("allocation", "gpbudget.allocation", "heteroscedastic_imse"),
    ("learning_curve", "gpbudget.learning_curve", "empirical_learning_curve"),
    ("spectrum", "gpbudget.spectrum", "nystrom_spectrum"),
    ("spectrum", "gpbudget.spectrum", "eigenfunction_matrix"),
    ("sim_harness", "gpbudget.sim_harness", "sample_observations"),
    ("sim_harness", "gpbudget.sim_harness", "run_case_study"),
    ("sim_harness", "gpbudget.sim_harness", "run_figure1"),
    ("sim_harness", "gpbudget.sim_harness", "run_figure2"),
    ("cli", "gpbudget.cli", "main"),
    ("linalg", "scipy.linalg", "cho_factor"),
    ("linalg", "scipy.linalg", "cho_solve"),
    ("linalg", "scipy.linalg", "solve_triangular"),
    ("linalg", "scipy.linalg", "eigh"),
)


def _size(args, out) -> int:
    return int(np.size(out))


def _order(args, out) -> int:
    return int(np.shape(args[0])[0])


# span name -> (stat, count of one call from (args, result), how calls combine)
COUNTS = {
    "kernels.gram_matrix": ("entries", _size, sum),
    "kernels.cross_matrix": ("entries", _size, sum),
    "kernels.kv": ("evals", _size, sum),
    "linalg.cho_factor": ("order_sum", _order, sum),
    "linalg.eigh": ("order_max", _order, max),
}

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))

# span record fields
NAME, START, END, PARENT, TRACE, FAILED, COUNT = range(7)


class Tracer:
    """Collects spans from wrapped functions of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.trace_id = 0
        self.found: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, span_name, fn, count):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [span_name, clock(), 0.0, stack[-1] if stack else -1,
                   self.trace_id, False, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if count is not None:
                rec[COUNT] = count(args, out)
            return out

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap every target in every gpbudget module that binds it.

        A target that no gpbudget module binds is recorded in ``found``
        with an empty module list, so a renamed or removed name shows up
        as missing instead of as a silent zero.
        """
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "gpbudget" or k.startswith("gpbudget."))]
        for layer, home, name in targets:
            span_name = f"{layer}.{name}"
            fn = getattr(importlib.import_module(home), name, None)
            self.found[span_name] = []
            if fn is None:
                continue
            count = COUNTS[span_name][1] if span_name in COUNTS else None
            wrapper = self._wrap(span_name, fn, count)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, fn))
                        self.found[span_name].append(f"{mod.__name__}.{attr}")

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def missing(self) -> list[str]:
        return [name for name, where in self.found.items() if not where]

    def write(self, path, extra: dict) -> None:
        """Write every span, plus ``extra``, as one JSON document."""
        fields = ("name", "start", "end", "parent", "trace", "failed", "count")
        with open(path, "w") as fh:
            json.dump(dict(extra, found=self.found, fields=fields, spans=self.spans), fh)


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its child spans cover.

    Spans come from one thread, so the children of a span never overlap
    and their durations add up.
    """
    own = [rec[END] - rec[START] for rec in spans]
    out = list(own)
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= own[i]
    return out


def summarize(spans, lo: int, hi: int, selfs) -> dict[str, float]:
    """Per-layer metrics of the spans ``spans[lo:hi]``.

    For each span name: ``calls``, ``failed``, ``self_s``, ``ms_p50`` of the
    inclusive durations, ``ms_p99`` (0 below 1000 calls, where it would rest
    on fewer than ten samples), and the name's count stat.  For each layer:
    ``self_s`` summed over its names.
    """
    durs: dict[str, list[float]] = {}
    counts: dict[str, list[int]] = {}
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for layer, _, fname in TARGETS:
        name = f"{layer}.{fname}"
        durs[name], counts[name] = [], []
        out[name + ".failed"] = 0
        out[name + ".self_s"] = 0.0
    for i in range(lo, hi):
        rec = spans[i]
        name = rec[NAME]
        durs[name].append(rec[END] - rec[START])
        counts[name].append(rec[COUNT])
        out[name + ".failed"] += int(rec[FAILED])
        out[name + ".self_s"] += selfs[i]
        out[name.split(".")[0] + ".self_s"] += selfs[i]
    for name, d in durs.items():
        out[name + ".calls"] = len(d)
        out[name + ".ms_p50"] = 1e3 * statistics.median(d) if d else 0.0
        out[name + ".ms_p99"] = 1e3 * statistics.quantiles(d, n=100)[98] if len(d) >= 1000 else 0.0
        if name in COUNTS:
            stat, _, combine = COUNTS[name]
            out[f"{name}.{stat}"] = combine([0, *counts[name]])
    return out
