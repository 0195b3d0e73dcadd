"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload <census|validate|serve_repeat|serve_edits|all> \
        --seed <n> --seconds <s> --trace <0|1>

Each workload builds its inputs from ``--seed``, runs the program in its
own process (a fresh interpreter per batch repetition, a ``repro serve``
daemon for the serve workloads), measures for about ``--seconds`` seconds
and checks every output against a reference.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs the workload
once more with span wrappers installed (``spans.py``) and reports the
per-layer metrics.  Metrics a workload does not exercise read 0 in the
traced run.  Human-readable lines (host, per-metric value with unit and
sample count, verdicts) come first; the last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)
# This process imports the program to generate serve inputs and reference bytes.
sys.path.insert(1, os.path.join(ROOT, "src"))

import load  # noqa: E402

CHILD_TIMEOUT_S = 170.0
#: Set-ups measured per run (each repetition counts as one).
SETUP_SAMPLES = 5
#: Batch repetitions per run at least, however long they take: the
#: per-chunk minimum (``chunk_floor_s``) needs several samples of each chunk.
MIN_REPS = 3

CENSUS_PIN_SEED = 424242
CENSUS_PIN = "0040a14d7db0eb9db324612f454a2325b46cf1331d03e304795ec96e01ce3929"
#: Census items recomputed with the scalar reference tier per run.
CENSUS_SAMPLE = 6
VALIDATE_PIN_SEED = 7
VALIDATE_PIN_INSTANCES = 32
VALIDATE_PINS = {
    "benchmark_baseline": "fb8f57d7d92f09c0852bd1e7b75a37be4b8fe891586dc7408d8e283e68cce458",
    "transient_overload": "65972ec05572d312ba4f1c893e5919c530081e513a94677b20c2fe257f43435b",
}
#: One validate repetition: per scenario, a fixed core of instances at seed 7
#: plus ``VALIDATE_INSTANCES`` instances drawn at ``--seed``.  Instance cost
#: and peak memory vary several-fold between draws; the core keeps the job's
#: size steady across seeds.  One instance per sweep chunk, so each is timed on its own
#: (``chunk_floor_s``).  Core shas as computed by the parent commit of the
#: benchmark at that chunk size.
VALIDATE_CORE_INSTANCES = 24
VALIDATE_INSTANCES = 1
VALIDATE_CHUNK_SIZE = 1
VALIDATE_CORE_PINS = {
    "benchmark_baseline": "de31397f1a2e5983ef1039fd7dc47a9bbc11708460e0216c0efe94618b8b4ba5",
    "transient_overload": "bb2bf811982b99bc3072b5af767df27b1480e2376c763d975e4c58bd7864af61",
}

#: Open-loop serve schedules: (stage, offered rate in requests/s, share of
#: ``--seconds``).  Stages after ``warmup`` form the max-rate ladder.
SERVE_STAGES = {
    "serve_repeat": (("warmup", 300.0, 0.1), ("low", 300.0, 0.5), ("high", 800.0, 0.5)),
    "serve_edits": (("warmup", 100.0, 0.1), ("low", 100.0, 0.5), ("high", 120.0, 0.4)),
}
#: At least this many requests per measured stage: ten samples beyond p99.
STAGE_MIN_REQUESTS = 1000
P99_LIMIT_MS = 50.0
#: A failed request has infinite latency; JSON has no infinity, so a
#: percentile that reaches a failed request is reported as this value.
FAILED_LATENCY_MS = 1e9
ACHIEVED_SHARE = 0.95
#: Models drawn for ``serve_repeat``; the rest of its stream repeats them.
REPEAT_UNIQUE = 120

#: Test hook for the benchmark's own tests: corrupt one output before it is
#: checked (``census_record`` or ``serve_body``).
FAULT = os.environ.get("PERFBENCH_FAULT", "")

#: Spans each workload must record at least one call of in a traced run.
CLAIMS = {
    "census": (
        "benchgen.generate_control_taskset",
        "control.design_lqg",
        "lti.c2d_zoh_delay_stacks",
        "jittermargin.stability_bound_for_plant",
        "jittermargin.stability_curve",
        "jittermargin.population_margins",
        "search.assign_backtracking",
        "anomalies.all_anomalies",
        "rta.evaluate_problems",
        "sweep.run_sweep",
        "linalg.expm",
    ),
    "validate": (
        "control.design_lqg",
        "scenarios.instance",
        "scenarios.validate_instance",
        "sim.simulate_fpps",
        "sim.cosimulate_control_task",
        "linalg.expm",
        "sweep.run_sweep",
    ),
    "serve_repeat": ("api.analyze", "api.report_json"),
    "serve_edits": ("api.analyze", "api.report_json", "rta.evaluate_problems"),
}


class BenchError(Exception):
    """The benchmark could not produce a valid measurement."""


# -- host ---------------------------------------------------------------------
_BURN = "import time\nt=time.perf_counter()\nx=0\nfor i in range(3000000): x+=i\nprint(time.perf_counter()-t)"


def _burn(copies):
    procs = [
        subprocess.Popen([sys.executable, "-c", _BURN], stdout=subprocess.PIPE)
        for _ in range(copies)
    ]
    return [float(p.communicate()[0]) for p in procs]


def host_record():
    """CPU count, measured two-process parallelism, interpreter and numpy."""
    single = _burn(1)[0]
    pair = max(_burn(2))
    return {
        "nproc": os.cpu_count(),
        "effective_parallelism": round(2.0 * single / pair, 3),
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
    }


# -- batch workloads ----------------------------------------------------------
def run_child(
    workload, seed, mode, *, items=None, instances=None, core=None, chunk_size=None,
    trace=False, reference=False,
):
    """One fresh-interpreter run of ``batch.py``; timings, rusage and result."""
    argv = [sys.executable, os.path.join(HERE, "batch.py"), workload, str(seed), mode]
    if items is not None:
        argv += ["--items", ",".join(str(i) for i in items)]
    if instances is not None:
        argv += ["--instances", str(instances)]
    if core is not None:
        argv += ["--core", str(core)]
    if chunk_size is not None:
        argv += ["--chunk-size", str(chunk_size)]
    if trace:
        argv.append("--trace")
    env = load.program_env(ROOT)
    if reference:
        env["REPRO_POPULATION_KERNEL"] = "off"
    with open(os.path.join(WORK, f"{workload}.log"), "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=log)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            ready_s = time.perf_counter() - start
            line = proc.stdout.readline() if mode != "setup" else b"{}"
            done_s = time.perf_counter() - start
            proc.stdout.read()
            _, status, rusage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
    if proc.returncode != 0 or not ready.startswith(b'{"ready"'):
        raise BenchError(f"{workload} {mode} child failed (exit {proc.returncode})")
    return {
        "setup_s": ready_s,
        "wall_s": done_s,
        "rss_mb": rusage.ru_maxrss / 1024.0,
        "cpu_s": rusage.ru_utime + rusage.ru_stime,
        "result": json.loads(line).get("result"),
    }


def timed_reps(workload, seed, seconds, **options):
    """Repeat the job in fresh processes, at least ``MIN_REPS`` times and
    until the next repetition would end well past ``seconds``."""
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(run_child(workload, seed, "run", **options))
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed + 0.5 * reps[-1]["wall_s"] > seconds:
            return reps


def setup_samples(workload, seed, reps):
    samples = [rep["setup_s"] for rep in reps]
    while len(samples) < SETUP_SAMPLES:
        samples.append(run_child(workload, seed, "setup")["setup_s"])
    return samples


def chunk_floor_s(reps):
    """Sweep-chunk time of the job: each chunk's fastest repetition, summed.

    Every repetition runs the same chunks in the same order.  On a shared
    host the speed swings by up to a factor of two, for seconds at a time;
    a chunk reads slow in every repetition only if each one was caught by
    such a swing, so the per-chunk minimum keeps the job's cost and drops
    most of the swings shorter than a run.
    """
    return sum(min(times) for times in zip(*(r["result"]["chunk_s"] for r in reps)))


def batch_metrics(reps, setups, low, high):
    """End-to-end and latency metrics of a batch workload from its repetitions.

    ``wall_s`` is the median time outside the sweep chunks (spawn, imports,
    spec, result encoding) plus ``chunk_floor_s``; ``capacity_rps`` is items
    per second of that chunk time.  ``low``/``high`` hold, per repetition,
    the latencies (seconds) of the workload's light and heavy items;
    percentiles pool all repetitions.
    """

    def latency_ms(samples, q):
        return 1e3 * load.percentile([v for rep in samples for v in rep], q)

    items = reps[0]["result"]["items"]
    chunks_s = chunk_floor_s(reps)
    outside_s = median([r["wall_s"] - sum(r["result"]["chunk_s"]) for r in reps])
    metrics = {
        "setup_s": (median(setups), len(setups)),
        "wall_s": (outside_s + chunks_s, len(reps)),
        "peak_rss_mb": (median([r["rss_mb"] for r in reps]), len(reps)),
        "capacity_rps": (items / chunks_s, len(reps)),
    }
    latency = {
        "lat_p50_ms.low": (latency_ms(low, 50), sum(map(len, low))),
        "lat_p99_ms.low": (latency_ms(low, 99), sum(map(len, low))),
        "lat_p50_ms.high": (latency_ms(high, 50), sum(map(len, high))),
        "lat_p99_ms.high": (latency_ms(high, 99), sum(map(len, high))),
        "max_rate_rps": (
            median([items / (r["wall_s"] - r["setup_s"]) for r in reps]),
            len(reps),
        ),
    }
    return metrics, latency


def census(seed, seconds, trace):
    reps = timed_reps("census", seed, seconds)
    setups = setup_samples("census", seed, reps)
    checks = {}
    first = reps[0]["result"]
    hashes = list(first["record_hashes"])
    checks["repetitions agree"] = all(
        r["result"]["canonical_sha256"] == first["canonical_sha256"]
        and r["result"]["record_hashes"] == first["record_hashes"]
        for r in reps
    )
    sample = sorted(random.Random(seed).sample(range(first["items"]), CENSUS_SAMPLE))
    if FAULT == "census_record":
        hashes[sample[0]] = "0" * 16
    reference = run_child("census", seed, "sample", items=sample, reference=True)
    mismatched = sum(
        1 for i, ref in zip(sample, reference["result"]["record_hashes"]) if hashes[i] != ref
    )
    checks[f"{len(sample)} sampled records match the scalar reference tier"] = mismatched == 0
    if seed == CENSUS_PIN_SEED:
        pinned = first["canonical_sha256"] == CENSUS_PIN
        checks[f"canonical sha {CENSUS_PIN[:8]} at seed {CENSUS_PIN_SEED}"] = pinned
    out = {
        "checks": checks,
        "attempted": first["items"] * len(reps),
        "failed": mismatched,
    }
    out["metrics"], out["latency"] = batch_metrics(
        reps,
        setups,
        [r["result"]["item_s"]["4"] for r in reps],
        [r["result"]["item_s"]["12"] for r in reps],
    )
    if trace:
        out["layers"] = traced_batch("census", seed, reps)
    return out


def validate(seed, seconds, trace):
    options = {
        "instances": VALIDATE_INSTANCES,
        "core": VALIDATE_CORE_INSTANCES,
        "chunk_size": VALIDATE_CHUNK_SIZE,
    }
    reps = timed_reps("validate", seed, seconds, **options)
    setups = setup_samples("validate", seed, reps)
    checks = {}
    first = reps[0]["result"]["scenarios"]
    checks["repetitions agree"] = all(
        r["result"]["scenarios"][name][key] == entry[key]
        for r in reps
        for name, entry in first.items()
        for key in ("core_sha256", "seeded_sha256")
    )
    for name in first:
        checks[f"{name} reports ok in {len(reps)} repetitions"] = all(
            r["result"]["scenarios"][name]["ok"] for r in reps
        )
    for name, sha in VALIDATE_CORE_PINS.items():
        checks[
            f"{name} core sha {sha[:8]} ({VALIDATE_CORE_INSTANCES} instances at seed "
            f"{VALIDATE_PIN_SEED})"
        ] = first[name]["core_sha256"] == sha
    if seed == VALIDATE_PIN_SEED:
        pinned = run_child("validate", seed, "run", instances=0, core=VALIDATE_PIN_INSTANCES)
        for name, sha in VALIDATE_PINS.items():
            checks[f"{name} sha {sha[:8]} at seed {seed}, {VALIDATE_PIN_INSTANCES} instances"] = (
                pinned["result"]["scenarios"][name]["core_sha256"] == sha
            )
    failed = sum(
        1 for r in reps for s in r["result"]["scenarios"].values() if not s["ok"]
    )
    out = {
        "checks": checks,
        "attempted": sum(r["result"]["items"] for r in reps),
        "failed": failed,
    }
    out["metrics"], out["latency"] = batch_metrics(
        reps,
        setups,
        [[r["result"]["scenarios"]["benchmark_baseline"]["seconds"]] for r in reps],
        [[r["result"]["scenarios"]["transient_overload"]["seconds"]] for r in reps],
    )
    if trace:
        out["layers"] = traced_batch("validate", seed, reps, **options)
    return out


def _import_s(module):
    code = f"import time\nt=time.perf_counter()\nimport {module}\nprint(time.perf_counter()-t)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=load.program_env(ROOT),
        capture_output=True, text=True, check=True,
    )
    return float(result.stdout)


def traced_batch(workload, seed, reps, **options):
    """The job again, traced: per-layer metrics, byte identity, overhead."""
    traced = run_child(workload, seed, "run", trace=True, **options)
    result = traced["result"]
    if workload == "census":
        identical = result["canonical_sha256"] == reps[0]["result"]["canonical_sha256"]
    else:
        identical = all(
            result["scenarios"][name][key] == s[key]
            for name, s in reps[0]["result"]["scenarios"].items()
            for key in ("core_report_sha", "seeded_report_sha")
        )
    if not identical:
        raise BenchError(f"{workload}: traced output differs from the untraced run")
    untraced_cpu_s = median([r["cpu_s"] for r in reps])
    layers = span_metrics(workload, result["trace"])
    chunk_s = result["trace"]["chunk_s"]
    layers.update(
        {
            "sweep.chunks": result["trace"]["chunks"],
            "sweep.chunk_s": chunk_s,
            "sweep.serialize_s": result["serialize_s"],
            "exec.overhead_s": layers["sweep.run_sweep.total_s"] - chunk_s,
            "setup.import_s": _import_s(
                "repro.experiments.census" if workload == "census" else "repro.scenarios.validate"
            ),
            "trace.overhead_share": traced["cpu_s"] / untraced_cpu_s - 1.0,
        }
    )
    return layers


def span_metrics(workload, data):
    """Span aggregates -> ``<layer>.<F>.calls``/``.self_s`` plus derived ratios."""
    import spans

    missing = [name for name in CLAIMS[workload] if data["spans"].get(name, {}).get("calls", 0) == 0]
    if missing:
        raise BenchError(f"{workload}: traced run recorded no calls of {missing}")
    unpatched = [name for name, sites in data["sites"].items() if sites == 0]
    if unpatched:
        raise BenchError(f"span wrappers found no lookup site for {unpatched}")
    out = {}
    for name in spans.SPAN_NAMES:
        entry = data["spans"].get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.self_s"] = entry["self_s"]
        out[f"{name}.total_s"] = entry["total_s"]
    bound_calls = out["jittermargin.stability_bound_for_plant.calls"]
    out["jittermargin.bound.hit_share"] = (
        1.0 - out["jittermargin.stability_curve.calls"] / bound_calls if bound_calls else 0.0
    )
    counts = data["counts"]
    evals = counts.get("memo.search.logical_evals", 0)
    out["memo.search.logical_evals"] = evals
    out["memo.search.recompute_share"] = (
        1.0 - counts.get("memo.search.cache_hits", 0) / evals if evals else 0.0
    )
    calls = out["rta.evaluate_problems.calls"]
    out["rta.popbatch.problems_per_call"] = (
        counts.get("rta.evaluate_problems.problems", 0) / calls if calls else 0.0
    )
    tiers = data["tiers"]
    rta_total = sum(tiers.get(t, 0.0) for t in ("batch", "popbatch", "scalar"))
    out["rta.tier.popbatch_share"] = tiers.get("popbatch", 0.0) / rta_total if rta_total else 0.0
    return out


# -- serve workloads ----------------------------------------------------------
def serve_streams(workload, seed, seconds):
    """Per-stage request segments of one seeded stream: [(stage, rate, systems)]."""
    from repro.scenarios import scenario_request_stream
    from repro.scenarios.workload import edited_model_request_stream

    sizes = [
        (stage, rate, max(STAGE_MIN_REQUESTS if stage != "warmup" else 1, round(rate * share * seconds)))
        for stage, rate, share in SERVE_STAGES[workload]
    ]
    total = sum(n for _, _, n in sizes)
    if workload == "serve_repeat":
        repeat = 1.0 - REPEAT_UNIQUE / total
        systems = scenario_request_stream(total, unique=REPEAT_UNIQUE, repeat_fraction=repeat, seed=seed)
    else:
        systems = edited_model_request_stream(total, repeat_fraction=0.1, seed=seed)
    segments, offset = [], 0
    for stage, rate, n in sizes:
        segments.append((stage, rate, systems[offset:offset + n]))
        offset += n
    return segments


def serve_inputs(workload, seed, seconds):
    """Request bodies and the cold façade's reference bytes, per stage."""
    from repro.api.service import analyze

    bodies, references, by_sha = {}, {}, {}
    stages = []
    for stage, rate, systems in serve_streams(workload, seed, seconds):
        stage_bodies, stage_refs = [], []
        for system in systems:
            key = id(system)
            if key not in bodies:
                bodies[key] = json.dumps(system.to_dict()).encode("utf-8")
                sha = system.canonical_sha256()
                if sha not in by_sha:
                    by_sha[sha] = analyze(system).report_json().encode("utf-8")
                references[key] = by_sha[sha]
            stage_bodies.append(bodies[key])
            stage_refs.append(references[key])
        stages.append((stage, rate, stage_bodies, stage_refs))
    return stages, len(by_sha)


def _delta(after, before, key):
    return after.get(key, 0.0) - before.get(key, 0.0)


def drive_daemon(stages, trace_out=None):
    """Start one daemon, run every stage against it, stop it."""
    log = os.path.join(WORK, "daemon.log")
    daemon = load.Daemon(load.serve_argv(ROOT, trace_out), load.program_env(ROOT), log)
    results = []
    try:
        for stage, rate, bodies, refs in stages:
            raw = [load.encode_request(b, daemon.host, daemon.port) for b in bodies]
            corrupt = FAULT == "serve_body" and stage == "low"
            before = (daemon.stats(), daemon.metrics())
            result = load.run_stage(daemon, rate, raw, refs, corrupt_first=corrupt)
            after = (daemon.stats(), daemon.metrics())
            result["stage"] = stage
            result["before"], result["after"] = before, after
            hits = after[0]["responses_from_cache"] - before[0]["responses_from_cache"]
            result["store_hit_share"] = hits / len(bodies)
            results.append(result)
    finally:
        daemon.stop()
    return daemon, results


def serve(workload, seed, seconds, trace):
    prep = time.perf_counter()
    stages, distinct = serve_inputs(workload, seed, seconds)
    prep_s = time.perf_counter() - prep
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        probe = load.Daemon(load.serve_argv(ROOT), load.program_env(ROOT), os.path.join(WORK, "daemon.log"))
        setups.append(probe.ready_s)
        probe.stop()
    daemon, results = drive_daemon(stages)
    setups.append(daemon.ready_s)
    measured = [r for r in results if r["stage"] != "warmup"]
    by_stage = {r["stage"]: r for r in results}
    max_rate = 0.0
    for r in measured:
        if not (
            r["valid"]
            and load.windowed(r["latency"], 99) * 1e3 <= P99_LIMIT_MS
            and r["achieved_rps"] >= ACHIEVED_SHARE * r["rate"]
        ):
            break
        max_rate = r["achieved_rps"]
    low, high = by_stage["low"], by_stage["high"]
    served = sum(r["requests"] for r in measured)
    # Capacity: requests per daemon CPU-second, each stage at its CPU cost
    # per request (``load.cpu_per_request``).
    metrics = {
        "setup_s": (median(setups), len(setups)),
        "wall_s": (low["wall_s"] + high["wall_s"], low["requests"] + high["requests"]),
        "peak_rss_mb": (daemon.rusage.ru_maxrss / 1024.0, 1),
        "capacity_rps": (served / sum(r["requests"] * r["cpu_per_request_s"] for r in measured), served),
    }
    # A stage the generator sent late is invalid: its latencies read 0.
    latency = {
        f"lat_p{q}_ms.{r['stage']}": (
            1e3 * load.windowed(r["latency"], q) if r["valid"] else 0.0,
            r["requests"],
        )
        for r in (low, high)
        for q in (50, 99)
    }
    latency["max_rate_rps"] = (max_rate, served)
    checks = {
        f"{r['stage']}: {r['requests']} bodies byte-identical to the cold facade": r["failed"] == 0
        for r in results
    }
    notes = [f"inputs: {distinct} distinct models, reference bytes in {prep_s:.2f} s"]
    for r in results:
        notes.append(
            f"stage {r['stage']:>6} @ {r['rate']:g}/s: {r['requests']} requests, achieved "
            f"{r['achieved_rps']:.1f}/s, store-hit share {r['store_hit_share']:.3f}, "
            f"generator late p99 {r['late_p99_s'] * 1e3:.2f} ms"
            f"{'' if r['valid'] else ' (INVALID: late beyond bound)'}, stalls>=1s {r['stalls']}"
        )
    out = {
        "checks": checks,
        "attempted": sum(r["requests"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
        "latency": latency,
        "notes": notes,
    }
    if trace:
        out["layers"] = traced_serve(workload, stages, daemon)
    return out


def traced_serve(workload, stages, plain_daemon):
    """The same stages against a traced daemon: per-layer metrics."""
    spans_path = os.path.join(WORK, "daemon-spans.json")
    daemon, results = drive_daemon(stages, trace_out=spans_path)
    if any(r["failed"] for r in results):
        raise BenchError(f"{workload}: traced daemon served bytes that differ from the untraced run")
    with open(spans_path) as handle:
        data = json.load(handle)
    layers = span_metrics(workload, data)
    measured = [r for r in results if r["stage"] != "warmup"]
    (s0, m0), (s1, m1) = measured[0]["before"], measured[-1]["after"]
    endpoint = '{endpoint="/v1/analyze"}'
    requests = _delta(m1, m0, "repro_requests_total" + endpoint)
    served_s = _delta(m1, m0, "repro_request_seconds_sum" + endpoint)
    served_n = _delta(m1, m0, "repro_request_seconds_count" + endpoint)
    compute_s = _delta(m1, m0, 'repro_stage_seconds_sum{stage="batch_compute"}')
    batches = s1["batcher"]["batches"] - s0["batcher"]["batches"]
    memo_evals = s1["memo"]["evaluations"] - s0["memo"]["evaluations"]
    latencies = [v for r in measured for v in r["latency"] if math.isfinite(v)]
    server_mean_ms = 1e3 * served_s / served_n if served_n else 0.0
    late = [v for r in measured for v in r["late"]]
    # Spans are only read at shutdown, so the batcher's wait is taken over
    # the daemon's whole life: batch-compute stage time minus traced compute.
    traced_compute = layers["api.analyze.total_s"] + layers["api.report_json.total_s"]
    lifetime_compute_s = _delta(
        m1, results[0]["before"][1], 'repro_stage_seconds_sum{stage="batch_compute"}'
    )
    ready = [plain_daemon.ready_s, daemon.ready_s]
    layers.update(
        {
            "serve.requests": requests,
            "serve.store_hit_share": (s1["responses_from_cache"] - s0["responses_from_cache"]) / requests
            if requests else 0.0,
            "serve.stage.store_lookup_s": _delta(m1, m0, 'repro_stage_seconds_sum{stage="store_lookup"}'),
            "serve.stage.batch_compute_s": compute_s,
            "serve.stage.store_fill_s": _delta(m1, m0, 'repro_stage_seconds_sum{stage="store_fill"}'),
            "serve.server_mean_ms": server_mean_ms,
            "serve.batches": batches,
            "serve.batch_size_mean": (s1["batcher"]["requests"] - s0["batcher"]["requests"]) / batches
            if batches else 0.0,
            "serve.batch_wait_s": lifetime_compute_s - traced_compute,
            "memo.serve.hit_share": (s1["memo"]["cache_hits"] - s0["memo"]["cache_hits"]) / memo_evals
            if memo_evals else 0.0,
            "memo.serve.kernel_s": s1["memo"]["kernel_seconds"] - s0["memo"]["kernel_seconds"],
            "loadgen.late_p50_ms": 1e3 * load.percentile(late, 50),
            "loadgen.late_p99_ms": 1e3 * load.percentile(late, 99),
            "loadgen.client_cpu_s": sum(r["client_cpu_s"] for r in measured),
            "loadgen.stalls_1s": sum(r["stalls"] for r in measured),
            "loadgen.client_server_gap_ms": 1e3 * statistics.fmean(latencies) - server_mean_ms,
            "setup.import_s": _import_s("repro.serve"),
            "setup.daemon_ready_s": median(ready),
            "trace.overhead_share": (daemon.rusage.ru_utime + daemon.rusage.ru_stime)
            / (plain_daemon.rusage.ru_utime + plain_daemon.rusage.ru_stime) - 1.0,
        }
    )
    return layers


WORKLOADS = {
    "census": census,
    "validate": validate,
    "serve_repeat": lambda seed, seconds, trace: serve("serve_repeat", seed, seconds, trace),
    "serve_edits": lambda seed, seconds, trace: serve("serve_edits", seed, seconds, trace),
}


# -- reporting ----------------------------------------------------------------
def load_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_workload(name, seed, seconds, trace, manifest):
    """Run one workload; print its report; return the JSON result."""
    out = WORKLOADS[name](seed, seconds, trace)
    correct = all(out["checks"].values()) and out["failed"] == 0
    print(f"== {name} (seed {seed}, {seconds} s, trace {trace})")
    for note in out.get("notes", ()):
        print(f"   {note}")
    for check, passed in out["checks"].items():
        print(f"   [{'pass' if passed else 'FAIL'}] {check}")
    print(f"   verdict: {'correct' if correct else 'INCORRECT'} "
          f"({out['failed']} failed of {out['attempted']} attempted, "
          f"fail_share {out['failed'] / out['attempted']:.4f})")
    if not trace:
        for metric, (value, samples) in out["latency"].items():
            print(f"   ({metric:<16} {value:>12.4f}, n={samples}; per-layer metric)")
    metrics = {}
    if trace:
        layers = {**out["layers"], **{k: v for k, (v, _) in out["latency"].items()}}
        for spec in manifest["per_layer"]:
            value = layers.get(spec["name"], 0)
            if not math.isfinite(value):
                value = FAILED_LATENCY_MS
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
            print(f"   {spec['name']:<46} {value:>14.6g} {spec['unit']}")
    else:
        for spec in manifest["end_to_end"]:
            value, samples = out["metrics"][spec["name"]]
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
            print(f"   {spec['name']:<16} {value:>12.4f} {spec['unit']:<5} (n={samples})")
    return {
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program under src/repro in this checkout", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    manifest = load_manifest()
    print(f"host: {json.dumps(host_record(), sort_keys=True)}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace), manifest)
            for name in names
        }
    except (BenchError, RuntimeError, OSError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    if args.workload == "all":
        for name, result in results.items():
            print(f"{name}: {'correct' if result['correct'] else 'INCORRECT'}")
        return 0 if all(r["correct"] for r in results.values()) else 1
    print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
