"""The benchmark's own tests: its checks must catch bad output.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Runs short benchmark passes and asserts that

* the metric names of a timed and a traced run match ``BENCHMARK.json``;
* one flipped byte in a served response makes the serve run incorrect;
* one altered census record makes the census run incorrect;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  benchmark exits non-zero without printing a result.

Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(workload, *, trace=0, fault="", cwd=ROOT, seconds=1):
    env = dict(os.environ)
    env.pop("PERFBENCH_FAULT", None)
    if fault:
        env["PERFBENCH_FAULT"] = fault
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    failures = []

    def expect(condition, message):
        print(f"[{'pass' if condition else 'FAIL'}] {message}", flush=True)
        if not condition:
            failures.append(message)

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        _, result = bench("serve_repeat", trace=trace)
        names = [spec["name"] for spec in manifest[key]]
        expect(
            result is not None and result["correct"]
            and list(result["metrics"]) == names
            and all(result["metrics"][n]["unit"] == s["unit"] for n, s in zip(names, manifest[key])),
            f"trace {trace}: metric names and units match BENCHMARK.json {key}",
        )
    _, result = bench("serve_repeat", fault="serve_body")
    expect(result is not None and not result["correct"] and result["failed"] == 1,
           "one flipped byte in a served response fails the serve run")
    _, result = bench("census", fault="census_record")
    expect(result is not None and not result["correct"],
           "one altered census record fails the census run")

    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = bench("census", cwd=bare)
    expect(proc.returncode != 0 and result is None and not proc.stdout.strip(),
           "without the program the benchmark exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest:", "ok" if not failures else f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
