"""Per-layer tracing from outside the program: span wrappers on public functions.

``Tracer.install()`` replaces each function in ``SPANS`` with a timing wrapper
everywhere the program looks it up: the defining module's attribute and
every ``repro.*`` module that bound the same object by ``from ... import``
(methods are patched on their class).  Spans are kept in memory as
aggregates keyed by ``(parent, name)`` and read out with ``Tracer.snapshot()``.

A span's self time is its duration minus the time covered by its child
spans on the same thread.  Workers run on one thread per process except
the daemon's batcher thread, so the span stack is thread-local.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

#: (layer-qualified span name, defining module, attribute path)
SPANS = (
    ("benchgen.generate_control_taskset", "repro.benchgen.taskgen", "generate_control_taskset"),
    ("control.design_lqg", "repro.control.lqg", "design_lqg"),
    ("lti.c2d_zoh_delay_stacks", "repro.lti.discretize", "c2d_zoh_delay_stacks"),
    ("jittermargin.stability_bound_for_plant", "repro.jittermargin.linearbound", "stability_bound_for_plant"),
    ("jittermargin.stability_curve", "repro.jittermargin.curve", "stability_curve"),
    ("jittermargin.population_margins", "repro.jittermargin.popmargin", "population_margins"),
    ("search.assign_backtracking", "repro.assignment.backtracking", "assign_backtracking"),
    ("anomalies.all_anomalies", "repro.anomalies.detectors", "all_anomalies"),
    ("rta.evaluate_problems", "repro.rta.popbatch", "evaluate_problems"),
    ("sweep.run_sweep", "repro.sweep.executor", "run_sweep"),
    ("scenarios.instance", "repro.scenarios.spec", "ScenarioSpec.instance"),
    ("scenarios.validate_instance", "repro.scenarios.validate", "validate_instance"),
    ("sim.simulate_fpps", "repro.sim.fpps", "simulate_fpps"),
    ("sim.cosimulate_control_task", "repro.sim.cosim", "cosimulate_control_task"),
    ("linalg.expm", "repro.linalg.expm", "expm"),
    ("api.analyze", "repro.api.service", "analyze"),
    ("api.report_json", "repro.api.report", "AnalysisReport.report_json"),
)

SPAN_NAMES = tuple(name for name, _, _ in SPANS)

#: Modules imported before patching, so that every ``from x import f``
#: binding already exists when the scan over ``sys.modules`` runs.
PRELOAD = (
    "repro.experiments.census",
    "repro.scenarios.validate",
    "repro.serve",
    "repro.sim",
)

class Tracer:
    """Span aggregates of one process, kept in memory until ``snapshot()``."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (parent, name) -> [calls, total_s, self_s]
        self._edges = {}
        #: counters taken from the arguments or results of wrapped calls
        self._counts = {}

    def _count(self, key, value):
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + value

    def _observe(self, name, args, result):
        if name == "rta.evaluate_problems":
            self._count("rta.evaluate_problems.problems", len(args[0]) if args else 0)
        elif name == "search.assign_backtracking":
            self._count("memo.search.logical_evals", result.evaluations)
            self._count("memo.search.cache_hits", result.cache_hits)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            parent = stack[-1][0] if stack else None
            stack.append([name, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                _, child = stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with self._lock:
                    edge = self._edges.setdefault((parent, name), [0, 0.0, 0.0])
                    edge[0] += 1
                    edge[1] += elapsed
                    edge[2] += elapsed - child
            self._observe(name, args, result)
            return result

        return span

    def install(self):
        """Patch every span target; return ``{span name: patched sites}``."""
        for module in PRELOAD:
            importlib.import_module(module)
        sites = {}
        for name, module_name, path in SPANS:
            module = importlib.import_module(module_name)
            if "." in path:
                owner_name, attr = path.split(".")
                owner = getattr(module, owner_name)
                setattr(owner, attr, self._wrap(name, owner.__dict__[attr]))
                sites[name] = 1
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original)
            count = 0
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapper)
                        count += 1
            sites[name] = count
        return sites

    def snapshot(self):
        """Aggregated spans and hook counters, JSON-ready."""
        with self._lock:
            spans = {}
            for (parent, name), (calls, total, self_s) in self._edges.items():
                entry = spans.setdefault(
                    name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "parents": {}}
                )
                entry["calls"] += calls
                entry["total_s"] += total
                entry["self_s"] += self_s
                entry["parents"][parent or "-"] = calls
            return {"spans": spans, "counts": dict(self._counts)}


def kernel_tiers():
    """Problems per RTA kernel tier from the process-wide metrics registry."""
    from repro.obs.metrics import default_registry

    counter = default_registry().get("repro_kernel_tier_total")
    if counter is None:
        return {}
    return {key[0]: value for key, value in counter.snapshot().items()}


def sweep_chunks():
    """(chunk count, chunk seconds) from the sweep engine's own histogram."""
    from repro.obs.metrics import default_registry

    histogram = default_registry().get("repro_sweep_chunk_seconds")
    if histogram is None:
        return 0, 0.0
    series = histogram.snapshot().values()
    return (
        sum(int(s["count"]) for s in series),
        sum(float(s["sum"]) for s in series),
    )
