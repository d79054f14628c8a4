"""Per-layer timing from outside the program.

``install`` replaces each layer's entry point with a timing wrapper at run
time.  A name is patched in every ``quermass`` module that holds it, so the
wrappers also see calls made through names imported with ``from ... import``
(``variation`` imports the ``intrinsic`` batch functions, ``bodies`` imports
``support_lp``, ``counterexamples`` and ``cli`` import ``build_grid`` and the
Wulff and p-mean functions).  Spans (name, start, end, parent) stay in memory;
the caller writes them out when the run ends.  A span's self time is its
duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

#: (module, attribute, span name).  A dotted module path ending in a class
#: name patches a method of that class.
ENTRY_POINTS = [
    ("quermass.sphere", "build_grid", "sphere.build_grid"),
    ("quermass.calculus", "tangent_hessian", "calculus.tangent_hessian"),
    ("quermass.intrinsic", "_elem_sym_all_batch", "intrinsic.elem_sym"),
    ("quermass.intrinsic", "_cofactor_batch", "intrinsic.cofactor"),
    ("quermass.intrinsic", "_second_cofactor_batch", "intrinsic.second_cofactor"),
    ("quermass.intrinsic", "vk_quadrature", "intrinsic.vk_quadrature"),
    ("quermass.variation:VariationPath", "__post_init__", "variation.path"),
    ("quermass.variation:VariationPath", "_node_data", "variation.path"),
    ("quermass.variation", "concavity_scan", "variation.concavity_scan"),
    ("quermass.variation", "ibp_check", "variation.ibp_check"),
    ("quermass.variation", "f_k_third", "variation.f_k_third"),
    ("quermass.bodies", "wulff_support_upper", "bodies.wulff_support"),
    ("quermass.bodies", "pmean_values", "bodies.pmean"),
    ("quermass.simplex", "support_lp", "simplex.support_lp"),
    ("quermass.counterexamples", "containment_check", "counterexamples.containment"),
    ("quermass.counterexamples", "verify_counterexample", "counterexamples.verify"),
    ("quermass.counterexamples", "v1_reverse_check", "counterexamples.v1_reverse"),
    ("quermass.cli", "main", "cli.main"),
]

#: Per-layer metrics: (name, unit, span, what).  ``what`` is ``ms`` (self
#: time), ``calls``, or a counter name.  All are per job.
LAYER_METRICS = [
    ("sphere.build_grid_ms", "ms/job", "sphere.build_grid", "ms"),
    ("sphere.build_grid_calls", "count/job", "sphere.build_grid", "calls"),
    ("calculus.tangent_hessian_ms", "ms/job", "calculus.tangent_hessian", "ms"),
    ("calculus.tangent_hessian_calls", "count/job", "calculus.tangent_hessian", "calls"),
    ("calculus.field_points", "count/job", None, "field_points"),
    ("intrinsic.elem_sym_ms", "ms/job", "intrinsic.elem_sym", "ms"),
    ("intrinsic.cofactor_ms", "ms/job", "intrinsic.cofactor", "ms"),
    ("intrinsic.second_cofactor_ms", "ms/job", "intrinsic.second_cofactor", "ms"),
    ("intrinsic.second_cofactor_mb", "MB/job", None, "second_cofactor_bytes"),
    ("intrinsic.vk_quadrature_ms", "ms/job", "intrinsic.vk_quadrature", "ms"),
    ("variation.path_ms", "ms/job", "variation.path", "ms"),
    ("variation.concavity_scan_ms", "ms/job", "variation.concavity_scan", "ms"),
    ("variation.ibp_check_ms", "ms/job", "variation.ibp_check", "ms"),
    ("variation.f_k_third_ms", "ms/job", "variation.f_k_third", "ms"),
    ("bodies.wulff_support_ms", "ms/job", "bodies.wulff_support", "ms"),
    ("bodies.wulff_support_calls", "count/job", "bodies.wulff_support", "calls"),
    ("bodies.pmean_ms", "ms/job", "bodies.pmean", "ms"),
    ("simplex.support_lp_ms", "ms/job", "simplex.support_lp", "ms"),
    ("simplex.support_lp_calls", "count/job", "simplex.support_lp", "calls"),
    ("counterexamples.containment_ms", "ms/job", "counterexamples.containment", "ms"),
    ("counterexamples.verify_ms", "ms/job", "counterexamples.verify", "ms"),
    ("counterexamples.v1_reverse_ms", "ms/job", "counterexamples.v1_reverse", "ms"),
    ("cli.import_ms", "ms/job", "cli.import", "ms"),
    ("cli.import_scipy_special_ms", "ms/job", None, "import_scipy_special_ms"),
    ("cli.main_ms", "ms/job", "cli.main", "ms"),
]


class Tracer:
    """Spans and counters kept in memory for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced

    def self_times(self) -> dict[str, list[float]]:
        """name -> [self seconds, calls] over all recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name][0] += end - start - child[i]
            out[name][1] += 1
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


def _count_field_points(tracer: Tracer, fn):
    # Q[f] evaluates f at the nodes and at every difference stencil point;
    # count the rows handed to the field callable.
    @functools.wraps(fn)
    def traced(f, *args, **kwargs):
        def counted(X):
            tracer.counters["field_points"] += X.shape[0] if getattr(X, "ndim", 1) > 1 else 1
            return f(X)

        return fn(counted, *args, **kwargs)

    return traced


def _count_second_cofactor_bytes(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        out = fn(*args, **kwargs)
        tracer.counters["second_cofactor_bytes"] += out.nbytes
        return out

    return traced


_COUNTERS = {
    "calculus.tangent_hessian": _count_field_points,
    "intrinsic.second_cofactor": _count_second_cofactor_bytes,
}


def install(tracer: Tracer) -> None:
    """Patch every entry point in ENTRY_POINTS, in all loaded quermass modules."""
    importlib.import_module("quermass.cli")
    for target, attr, name in ENTRY_POINTS:
        mod_name, _, cls_name = target.partition(":")
        owner = importlib.import_module(mod_name)
        if cls_name:
            owner = getattr(owner, cls_name)
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original)
        if name in _COUNTERS:
            wrapped = _COUNTERS[name](tracer, wrapped)
        if cls_name:
            setattr(owner, attr, wrapped)
            continue
        for mod_key, mod in list(sys.modules.items()):
            if mod_key == "quermass" or mod_key.startswith("quermass."):
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapped)


def layer_metrics(totals: dict[str, list[float]], counters: dict[str, float],
                  jobs: int) -> dict[str, dict]:
    """Per-job layer metrics from summed self times, calls and counters."""
    out = {}
    for metric, unit, span, what in LAYER_METRICS:
        if what == "ms":
            value = totals.get(span, [0.0, 0])[0] * 1e3
        elif what == "calls":
            value = totals.get(span, [0.0, 0])[1]
        elif what == "second_cofactor_bytes":
            value = counters.get(what, 0.0) / 1e6
        else:
            value = counters.get(what, 0.0)
        out[metric] = {"value": value / jobs, "unit": unit}
    return out
