"""Record ``BENCH_serve.json``: the daemon's coalescing/cache/memo wins.

Two workloads, each served from a thread-pool of concurrent clients over
real HTTP.

**Scenario stream** (:func:`repro.scenarios.scenario_request_stream`:
diverse models with whole-model repeats) through three configurations:

* ``naive``    -- per-request dispatch: no batching window, batch size 1,
  response store off.  What a thin RPC wrapper around ``analyze()``
  would do.
* ``batched``  -- coalescing + micro-batching on, store and memo off:
  isolates the win of batching requests into one dispatch and
  deduplicating in-flight repeats (each distinct model is one cold
  ``analyze()``).
* ``served``   -- the shipping configuration: batching *and* the
  content-addressed response store.

**Edited-model stream**
(:func:`repro.scenarios.edited_model_request_stream`: one-WCET edits of
a shared base model -- ROADMAP item 2's near-identical traffic, which
whole-model caching cannot exploit) through the shipping configuration
with the daemon-lifetime analysis memo on vs off (``memo_entries=0``,
which computes every store-missing model as a cold ``analyze()`` with no
memo at all): the memo-on/off req/s ratio is the incremental-analysis
win.

Every response of every mode is checked byte-identical to the direct
in-process façade output -- the serving contract -- and the acceptance
bars are ``served`` strictly beating ``naive`` on the scenario stream
and memo-on reaching >= 2x memo-off on the edited-model stream.

Usage::

    PYTHONPATH=src python benchmarks/run_serve_bench.py \
        --requests 200 --unique 24 --clients 8 --out BENCH_serve.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List

from repro.api import analyze
from repro.scenarios import edited_model_request_stream, scenario_request_stream
from repro.serve import AnalysisDaemon, ServeClient, run_daemon_in_thread, wait_until_ready

MODES = {
    "naive": dict(
        batch_window=0.0, max_batch=1, cache_responses=False, memo_entries=0
    ),
    "batched": dict(
        batch_window=0.02, max_batch=64, cache_responses=False, memo_entries=0
    ),
    "served": dict(batch_window=0.02, max_batch=64, cache_responses=True),
}

#: The shipping configuration with the analysis memo on/off -- the store
#: stays on in both, so the ratio isolates the memo's incremental win on
#: store-missing (edited) models.
MEMO_MODES = {
    "memo_on": dict(batch_window=0.02, max_batch=64, cache_responses=True),
    "memo_off": dict(
        batch_window=0.02, max_batch=64, cache_responses=True, memo_entries=0
    ),
}


def _serve_stream(
    mode: str, models: List[Dict[str, Any]], expected: List[str], clients: int
) -> Dict[str, Any]:
    """Run one daemon configuration against the stream; return metrics."""
    config = MODES.get(mode) or MEMO_MODES[mode]
    daemon = AnalysisDaemon(port=0, jobs=1, **config)
    thread = run_daemon_in_thread(daemon)
    client = wait_until_ready(daemon.host, daemon.port)

    def one(k: int) -> bool:
        status, body = ServeClient(daemon.host, daemon.port).analyze_raw(
            models[k]
        )
        assert status == 200, (status, body[:200])
        return body.decode("utf-8") == expected[k]

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=clients) as pool:
        identical = list(pool.map(one, range(len(models))))
    elapsed = time.perf_counter() - start

    stats = client.stats()
    client.shutdown()
    thread.join(timeout=10)

    batcher = stats["batcher"]
    dispatched = batcher["requests"] - batcher["coalesced"]
    return {
        "mode": mode,
        "config": {k: v for k, v in config.items()},
        "memo": stats.get("memo"),
        "requests": len(models),
        "byte_identical_responses": sum(identical),
        "wall_seconds": round(elapsed, 4),
        "requests_per_second": round(len(models) / elapsed, 1),
        "responses_from_cache": stats["responses_from_cache"],
        "batches": batcher["batches"],
        "coalesced_in_flight": batcher["coalesced"],
        "computed_models": dispatched,
        "mean_batch_size": round(
            batcher["requests"] / max(batcher["batches"], 1), 2
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--unique", type=int, default=24)
    parser.add_argument("--repeat-fraction", type=float, default=0.5)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--edited-requests", type=int, default=120)
    parser.add_argument("--edited-tasks", type=int, default=80)
    parser.add_argument("--edited-repeat", type=float, default=0.15)
    parser.add_argument("--out", type=str, default="BENCH_serve.json")
    args = parser.parse_args()

    print(
        f"[serve bench] drawing {args.requests} requests "
        f"({args.unique} unique, repeat={args.repeat_fraction}) "
        "from the scenario catalogue ...",
        flush=True,
    )
    stream = scenario_request_stream(
        args.requests,
        unique=args.unique,
        repeat_fraction=args.repeat_fraction,
        seed=args.seed,
    )
    models = [system.to_dict() for system in stream]
    # The serving contract reference: direct in-process façade output.
    expected = [analyze(system).report_json() for system in stream]

    runs = []
    for mode in MODES:
        print(f"[serve bench] mode {mode!r} ...", flush=True)
        run = _serve_stream(mode, models, expected, args.clients)
        runs.append(run)
        print(
            f"  {run['requests_per_second']} req/s, "
            f"{run['batches']} batches (mean {run['mean_batch_size']}), "
            f"{run['responses_from_cache']} from cache, "
            f"{run['byte_identical_responses']}/{run['requests']} byte-identical",
            flush=True,
        )

    print(
        f"[serve bench] drawing {args.edited_requests} edited-model "
        f"requests ({args.edited_tasks} tasks, "
        f"repeat={args.edited_repeat}) ...",
        flush=True,
    )
    edited_stream = edited_model_request_stream(
        args.edited_requests,
        n_tasks=args.edited_tasks,
        repeat_fraction=args.edited_repeat,
        seed=args.seed,
    )
    edited_models = [system.to_dict() for system in edited_stream]
    edited_expected = [
        analyze(system).report_json() for system in edited_stream
    ]
    edited_runs = []
    for mode in MEMO_MODES:
        print(f"[serve bench] edited-model mode {mode!r} ...", flush=True)
        run = _serve_stream(mode, edited_models, edited_expected, args.clients)
        edited_runs.append(run)
        memo = run["memo"] or {}
        print(
            f"  {run['requests_per_second']} req/s, "
            f"{run['responses_from_cache']} from store, "
            f"memo hits {memo.get('cache_hits', 0)}, "
            f"{run['byte_identical_responses']}/{run['requests']} byte-identical",
            flush=True,
        )

    by_mode = {run["mode"]: run for run in runs}
    speedup = round(
        by_mode["served"]["requests_per_second"]
        / by_mode["naive"]["requests_per_second"],
        2,
    )
    edited_by_mode = {run["mode"]: run for run in edited_runs}
    memo_speedup = round(
        edited_by_mode["memo_on"]["requests_per_second"]
        / edited_by_mode["memo_off"]["requests_per_second"],
        2,
    )
    all_identical = all(
        run["byte_identical_responses"] == run["requests"]
        for run in runs + edited_runs
    )
    payload = {
        "workload": (
            f"{args.requests} analyze requests over HTTP from "
            f"{args.clients} concurrent clients; models drawn from the "
            f"scenario catalogue ({args.unique} unique, "
            f"repeat_fraction={args.repeat_fraction}, seed={args.seed})"
        ),
        "cpu_count": os.cpu_count(),
        "runs": runs,
        "edited_workload": (
            f"{args.edited_requests} analyze requests over HTTP from "
            f"{args.clients} concurrent clients; one-WCET edits of a "
            f"shared {args.edited_tasks}-task base model "
            f"(repeat_fraction={args.edited_repeat}, seed={args.seed})"
        ),
        "edited_runs": edited_runs,
        "acceptance": {
            "criterion": (
                "served (coalesced+cached) beats naive per-request "
                "dispatch; memo-on reaches >= 2x memo-off req/s on the "
                "edited-model stream; every response byte-identical to "
                "direct analyze()"
            ),
            "served_over_naive_speedup": speedup,
            "memo_over_memoless_speedup": memo_speedup,
            "all_responses_byte_identical": all_identical,
            "ok": bool(
                speedup > 1.0 and memo_speedup >= 2.0 and all_identical
            ),
        },
        "note": (
            "single-process daemon at jobs=1 on this host; the naive mode "
            "still amortises Python/HTTP overhead, so the speedup is the "
            "coalescing+store win alone, not process parallelism"
        ),
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(
        f"[serve bench] written to {args.out}; served/naive {speedup}x, "
        f"memo on/off {memo_speedup}x",
        flush=True,
    )
    # Exit status gates on correctness only: the speedup is wall-clock
    # and noisy runners may not reproduce it (the artifact records it).
    return 0 if all_identical else 1


if __name__ == "__main__":
    sys.exit(main())
