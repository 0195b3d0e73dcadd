"""One batch-workload process: the program as a user runs it, in a fresh interpreter.

Usage (run by ``run.py`` with ``PYTHONPATH=src``)::

    python3 perfbench/batch.py <census|validate> <seed> <setup|run|sample> \
        [--items i,j,...] [--instances N] [--core M] [--chunk-size K] [--trace]

Protocol: one JSON line ``{"ready": ...}`` once imports and the input spec
are built, then (except in ``setup`` mode) one JSON line with the result.
``sample`` recomputes the listed census items alone, with whatever kernel
tier the environment selects, and returns their record hashes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

CENSUS_BENCHMARKS = 334
VALIDATE_SCENARIOS = ("benchmark_baseline", "transient_overload")
#: Seed of the fixed ("core") validation instances.
VALIDATE_CORE_SEED = 7


def _emit(payload):
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _record_hashes(records):
    """Short content hash per record, without the engine's position field ``i``."""
    from repro.sweep.result import canonical_dumps

    return [
        hashlib.sha256(
            canonical_dumps({k: v for k, v in record.items() if k != "i"}).encode("utf-8")
        ).hexdigest()[:16]
        for record in records
    ]


class _ChunkClock:
    """Serial backend passed to ``run_sweep`` that keeps each chunk's clock.

    Forwards ``run_iter`` unchanged.  ``chunk_s`` holds the chunk times the
    sweep engine itself measured, in chunk order; each record's latency
    is its share of its chunk's time, kept per task count ``n`` when the
    records carry one.
    """

    def __init__(self):
        from repro.exec.backends import backend_for_jobs

        self._inner = backend_for_jobs(1)
        self.kind = self._inner.kind
        self.chunk_s = []
        self.item_s = {}

    def run_iter(self, plan):
        for position, outcome in self._inner.run_iter(plan):
            seconds, records = outcome.result
            self.chunk_s.append(seconds)
            for record in records:
                if "n" in record:
                    self.item_s.setdefault(str(record["n"]), []).append(seconds / len(records))
            yield position, outcome


def _census(seed, mode, items):
    import dataclasses

    from repro.experiments.census import sweep_spec
    from repro.sweep import run_sweep

    spec = sweep_spec(benchmarks=CENSUS_BENCHMARKS, seed=seed)
    if items is not None:
        spec = dataclasses.replace(spec, items=tuple(spec.items[i] for i in items))
    _emit({"ready": True, "cpu_s": time.process_time()})
    if mode == "setup":
        return None
    clock = _ChunkClock()
    result = run_sweep(spec, jobs=1, backend=clock)
    start = time.perf_counter()
    text = result.canonical_json()
    serialize_s = time.perf_counter() - start
    return {
        "canonical_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "items": len(result.records),
        "record_hashes": _record_hashes(result.records),
        "serialize_s": serialize_s,
        "item_s": clock.item_s,
        "chunk_s": clock.chunk_s,
    }


def _validate(seed, mode, instances, core, chunk_size):
    """Validate each scenario on ``core`` instances at seed 7 and on
    ``instances`` instances drawn at ``seed``, as ``validate_scenario``
    does (sweep spec, serial sweep, confusion report).

    The scenario sweep runs its worker item by item, so ``chunk_size`` 1
    changes no record and gives each instance its own clock (the canonical
    sha covers the chunk size, so it differs from the default's).
    """
    from repro.scenarios.validate import from_sweep, sweep_spec
    from repro.sweep import run_sweep

    specs = [
        (name, part, sweep_spec(
            scenario=name, instances=count, seed=part_seed, chunk_size=chunk_size
        ))
        for name in VALIDATE_SCENARIOS
        for part, part_seed, count in (
            ("core", VALIDATE_CORE_SEED, core),
            ("seeded", seed, instances),
        )
        if count
    ]
    _emit({"ready": True, "cpu_s": time.process_time()})
    if mode == "setup":
        return None
    clock = _ChunkClock()
    out = {"scenarios": {}, "items": 0, "serialize_s": 0.0}
    for name, part, spec in specs:
        start = time.perf_counter()
        validation = from_sweep(run_sweep(spec, jobs=1, backend=clock))
        seconds = time.perf_counter() - start
        start = time.perf_counter()
        report = validation.report_json()
        out["serialize_s"] += time.perf_counter() - start
        entry = out["scenarios"].setdefault(name, {"ok": True, "seconds": 0.0})
        entry["ok"] = entry["ok"] and bool(validation.ok)
        entry["seconds"] += seconds
        entry[f"{part}_sha256"] = validation.canonical_sha256
        entry[f"{part}_report_sha"] = hashlib.sha256(report.encode("utf-8")).hexdigest()
        out["items"] += spec.n_items
    out["chunk_s"] = clock.chunk_s
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("census", "validate"))
    parser.add_argument("seed", type=int)
    parser.add_argument("mode", choices=("setup", "run", "sample"))
    parser.add_argument("--items", default=None)
    parser.add_argument("--instances", type=int, default=1)
    parser.add_argument("--core", type=int, default=24)
    parser.add_argument("--chunk-size", type=int, default=8)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    if args.trace:
        import spans

        tracer = spans.Tracer()
        sites = tracer.install()
    if args.workload == "census":
        items = None if args.items is None else [int(i) for i in args.items.split(",")]
        result = _census(args.seed, args.mode, items)
    else:
        result = _validate(args.seed, args.mode, args.instances, args.core, args.chunk_size)
    if result is None:
        return 0
    result["cpu_s"] = time.process_time()
    if args.trace:
        chunks, chunk_s = spans.sweep_chunks()
        result["trace"] = {
            **tracer.snapshot(),
            "sites": sites,
            "tiers": spans.kernel_tiers(),
            "chunks": chunks,
            "chunk_s": chunk_s,
        }
    _emit({"result": result})
    return 0


if __name__ == "__main__":
    sys.exit(main())
