"""Spans around the public functions of eiskron, recorded from outside.

The tracer replaces a public function by a wrapper at every module that
binds it (``relations`` imports ``convolve_int`` by name, so both
``eiskron.qseries.convolve_int`` and ``eiskron.relations.convolve_int`` are
replaced), and a method on its class.  Each call through a wrapper appends
one span (name, start, end, parent, folded_s) to an in-memory list; the
list is written out once, after the traced run.  The most frequently
called leaf, ``reduce_mod_cyclotomic`` (tens of thousands of calls per
scan sample, one per nonzero residual vector), is folded: it adds to
counters and to its parent span's ``folded_s`` instead of making spans.

Self time of a span is its duration minus its direct children's durations
and its folded leaf time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# name -> (module, attribute path); names are "<module>.<function>"
BOUNDARIES = {
    "cli.main": ("eiskron.cli", "main"),
    "relations.run_scan": ("eiskron.relations", "run_scan"),
    "relations.verify_instance": ("eiskron.relations", "verify_instance"),
    "eisenstein.eisenstein_qexp": ("eiskron.eisenstein", "eisenstein_qexp"),
    "qseries.convolve_int": ("eiskron.qseries", "convolve_int"),
    "qseries.to_int_form": ("eiskron.qseries", "to_int_form"),
    "qseries.linear_combination": ("eiskron.qseries", "linear_combination"),
    "qseries.int_form_is_zero": ("eiskron.qseries", "int_form_is_zero"),
    "qseries.QExpansion.field_equals": ("eiskron.qseries", "QExpansion.field_equals"),
    "qseries.QExpansion.twist": ("eiskron.qseries", "QExpansion.twist"),
    "qseries.QExpansion.scale": ("eiskron.qseries", "QExpansion.scale"),
    "qseries.QExpansion.eval_numeric": ("eiskron.qseries", "QExpansion.eval_numeric"),
    "cyclotomic.reduce_mod_cyclotomic": ("eiskron.cyclotomic", "reduce_mod_cyclotomic"),
    "numeric.eval_E_fourier": ("eiskron.numeric", "eval_E_fourier"),
    "numeric.eval_E_lattice": ("eiskron.numeric", "eval_E_lattice"),
    "numeric.check_relation_numeric": ("eiskron.numeric", "check_relation_numeric"),
}

FOLDED = {"cyclotomic.reduce_mod_cyclotomic"}


def _operand_bits(level, order, A, B) -> int:
    return sum(x.bit_length() for data in (A, B)
               for n, vec in data.items() if n < order for x in vec)


# Counters taken from a call's arguments, outside its span's timed interval.
ARGUMENT_COUNTERS: Dict[str, Callable[..., Dict[str, int]]] = {
    "qseries.convolve_int": lambda *a, **kw: {
        "qseries.convolve_int.in_bits": _operand_bits(*a, **kw)},
    "qseries.linear_combination": lambda level, order, terms: {
        "relations.residual_terms": len(terms)},
    "numeric.eval_E_lattice": lambda k, z, tau, cfg: {
        "numeric.eval_E_lattice.points": (2 * cfg.lattice_cutoff + 1) ** 2},
}

# The per-layer metrics of a traced run, with their units.
PER_LAYER_UNITS = {
    "cli.main.s": "s",
    "relations.run_scan.s": "s",
    "relations.run_scan.worker_cpu_s": "s",
    "relations.run_scan.worker_util": "ratio",
    "relations.verify_instance.calls": "count",
    "relations.verify_instance.self_s": "s",
    "relations.residual_terms": "count",
    "relations.cache_hit_ratio": "ratio",
    "eisenstein.eisenstein_qexp.calls": "count",
    "eisenstein.eisenstein_qexp.s": "s",
    "qseries.convolve_int.calls": "count",
    "qseries.convolve_int.s": "s",
    "qseries.convolve_int.in_bits": "bits",
    "qseries.to_int_form.s": "s",
    "qseries.linear_combination.s": "s",
    "qseries.int_form_is_zero.s": "s",
    "qseries.QExpansion.field_equals.s": "s",
    "qseries.QExpansion.twist.s": "s",
    "qseries.QExpansion.scale.s": "s",
    "qseries.QExpansion.eval_numeric.s": "s",
    "cyclotomic.reduce_mod_cyclotomic.calls": "count",
    "cyclotomic.reduce_mod_cyclotomic.s": "s",
    "numeric.eval_E_fourier.calls": "count",
    "numeric.eval_E_fourier.s": "s",
    "numeric.check_relation_numeric.s": "s",
    "numeric.eval_E_lattice.calls": "count",
    "numeric.eval_E_lattice.s": "s",
    "numeric.eval_E_lattice.points": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """Installs span-recording wrappers; restores the originals on close."""

    def __init__(self, boundaries: Optional[List[str]] = None):
        self.spans: List[list] = []   # [name, start, end, parent index, folded_s]
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._patched: List[tuple] = []
        for name in boundaries or BOUNDARIES:
            module, attr = BOUNDARIES[name]
            # A module the workload never imported has no calls to trace.
            if module in sys.modules:
                self._install(name, importlib.import_module(module), attr)

    def _install(self, name: str, module, attr: str) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            self._patch(cls, meth, self._wrap(name, cls.__dict__[meth]))
            return
        orig = getattr(module, attr)
        wrapper = self._wrap(name, orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "eiskron" or mod_name.startswith("eiskron."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def close(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        calls_key, s_key = name + ".calls", name + ".s"

        if name in FOLDED:
            def wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    counters[calls_key] += 1
                    counters[s_key] += dt
                    if stack:
                        spans[stack[-1]][4] += dt
            return functools.wraps(fn)(wrapper)

        measure = ARGUMENT_COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            if measure is not None:
                for key, value in measure(*args, **kwargs).items():
                    counters[key] += value
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(record)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                record[1] = t0
                stack.pop()
        return functools.wraps(fn)(wrapper)

    def layer_stats(self) -> Dict[str, Dict[str, float]]:
        """calls, inclusive seconds and self seconds per boundary name."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, folded in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        stats: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _, folded), inner in zip(self.spans, child_s):
            st = stats[name]
            st["calls"] += 1
            st["s"] += end - start
            st["self_s"] += end - start - inner - folded
        for name in FOLDED:
            st = stats[name]
            st["calls"] = self.counters[name + ".calls"]
            st["s"] = st["self_s"] = self.counters[name + ".s"]
        return stats

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "folded_s"],
                       "spans": self.spans, "counters": self.counters}, fh)


def layer_metrics(stats: Dict[str, Dict[str, float]], counters: Dict[str, float],
                  worker_cpu_s: float, workers: int) -> Dict[str, float]:
    """The per-layer metrics (all of PER_LAYER_UNITS but trace.overhead_s)."""
    def get(name: str, field: str) -> float:
        return stats[name][field] if name in stats else 0

    terms = counters.get("relations.residual_terms", 0)
    misses = get("qseries.convolve_int", "calls") + get("eisenstein.eisenstein_qexp", "calls")
    scan_s = get("relations.run_scan", "s")
    out = {
        "relations.run_scan.worker_cpu_s": worker_cpu_s,
        "relations.run_scan.worker_util":
            worker_cpu_s / (workers * scan_s) if scan_s else 0.0,
        # No residual terms (the cross-check) means there was nothing to cache.
        "relations.cache_hit_ratio": 1 - misses / terms if terms else 0.0,
    }
    for metric in PER_LAYER_UNITS:
        if metric in counters:
            out[metric] = counters[metric]
        elif metric not in out and metric != "trace.overhead_s":
            name, field = metric.rsplit(".", 1)
            out[metric] = get(name, field)
    return out
