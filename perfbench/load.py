"""Daemon lifecycle and an open-loop HTTP load generator for the serve workloads.

The generator times every request from the moment it was *due* on the
schedule, not from when the generator got round to sending it, so a
stalled generator or a full accept queue shows up as latency.  How late
the generator itself ran is reported next to the latencies, and a stage
whose generator lateness exceeds ``LATE_BOUND_S`` at p99 is invalid.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
import urllib.request

#: A stage is invalid when the generator sends its p99 request later than
#: this after the request was due.
LATE_BOUND_S = 0.020
#: Requests at or above this latency are counted as stalls: one SYN
#: retransmit after an accept-backlog overflow costs about one second.
STALL_S = 1.0
REQUEST_TIMEOUT_S = 30.0
MAX_IN_FLIGHT = 512
#: Stage latency percentiles are taken per window of this many consecutive
#: requests and reported as the median over the windows, so that one short
#: stall of the shared host moves one window rather than the whole stage.
WINDOW = 250
#: The daemon's CPU time is sampled this often during a stage.
CPU_SAMPLE_S = 0.5


def percentile(values, q):
    """Nearest-rank percentile of ``values`` (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def windowed(values, q):
    """Median over consecutive ``WINDOW``-request windows of each window's percentile."""
    count = max(1, len(values) // WINDOW)
    size = len(values) // count
    return statistics.median(
        percentile(values[i * size:(i + 1) * size], q) for i in range(count)
    )


def encode_request(body, host, port):
    return (
        "POST /v1/analyze HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode("ascii") + body


def _split_response(raw):
    head, separator, body = raw.partition(b"\r\n\r\n")
    if not separator:
        return None, b""
    parts = head.split(b"\r\n", 1)[0].split()
    return (int(parts[1]) if len(parts) > 1 else None), body


class Daemon:
    """One program daemon process, started and stopped by the benchmark."""

    def __init__(self, argv, env, log_path):
        started = time.perf_counter()
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE, stderr=self._log
        )
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        if "listening on http://" not in line:
            self.kill()
            raise RuntimeError(f"daemon did not start: {line.strip()!r}")
        address = line.split("http://", 1)[1].split()[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)
        # Drain anything else the daemon prints so its pipe never fills.
        self._drain = threading.Thread(target=self.proc.stdout.read, daemon=True)
        self._drain.start()
        while True:
            try:
                self.get("/v1/health")
                break
            except OSError:
                if self.proc.poll() is not None:
                    self.kill()
                    raise RuntimeError("daemon exited before answering /v1/health")
                time.sleep(0.001)
        self.ready_s = time.perf_counter() - started
        self.rusage = None

    def cpu_s(self):
        """Seconds the daemon's live threads have run on a CPU so far.

        Read from each thread's ``schedstat`` (nanoseconds) rather than
        ``stat`` (10 ms ticks), so that half-second intervals resolve.
        """
        total = 0
        tasks = f"/proc/{self.proc.pid}/task"
        for tid in os.listdir(tasks):
            try:
                with open(f"{tasks}/{tid}/schedstat") as handle:
                    total += int(handle.read().split()[0])
            except FileNotFoundError:
                pass  # the thread ended between listing and reading
        return total / 1e9

    def get(self, path):
        url = f"http://{self.host}:{self.port}{path}"
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.read()

    def stats(self):
        return json.loads(self.get("/v1/stats"))

    def metrics(self):
        """``/v1/metrics`` as {series: value} (summary quantiles dropped)."""
        out = {}
        for line in self.get("/v1/metrics").decode("utf-8").splitlines():
            if not line or line.startswith("#") or "quantile=" in line:
                continue
            name, _, value = line.rpartition(" ")
            out[name] = float(value)
        return out

    def stop(self, timeout=20.0):
        """Ask the daemon to shut down; reap it and keep its resource usage."""
        try:
            request = urllib.request.Request(
                f"http://{self.host}:{self.port}/v1/shutdown", data=b"", method="POST"
            )
            urllib.request.urlopen(request, timeout=5).read()
        except OSError:
            pass
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.rusage = rusage
                break
            time.sleep(0.01)
        else:
            self.kill()
        self._drain.join(timeout=5)
        self._log.close()
        return self.rusage

    def kill(self):
        self.proc.kill()
        try:
            _, status, self.rusage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
        except ChildProcessError:
            pass  # already reaped by an earlier poll()
        if not self._log.closed:
            self._log.close()


async def _request(host, port, raw, due, expect, loop, out, semaphore, index, corrupt):
    out["late"][index] = loop.time() - due
    body = None
    try:
        async with semaphore:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout=REQUEST_TIMEOUT_S
            )
            try:
                writer.write(raw)
                await writer.drain()
                remaining = REQUEST_TIMEOUT_S - (loop.time() - due)
                data = await asyncio.wait_for(reader.read(-1), timeout=max(0.001, remaining))
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except OSError:
                    pass
        status, body = _split_response(data)
        if corrupt and body:
            body = bytes([body[0] ^ 1]) + body[1:]
    except (OSError, asyncio.TimeoutError):
        status = None
    finished = loop.time()
    if status == 200 and body == expect:
        out["latency"][index] = finished - due
        out["ok"] += 1
        out["last"] = max(out["last"], finished)
    else:
        out["failed"] += 1
        if status == 200:
            out["wrong_bytes"] += 1


async def _sample_cpu(cpu_probe, out, done):
    """Append (requests finished, daemon CPU seconds) every ``CPU_SAMPLE_S``."""
    while True:
        out["cpu_samples"].append((out["ok"] + out["failed"], cpu_probe()))
        if done.is_set():
            return
        try:
            await asyncio.wait_for(done.wait(), timeout=CPU_SAMPLE_S)
        except asyncio.TimeoutError:
            pass


async def _stage(host, port, rate, requests, expected, corrupt_first, cpu_probe):
    loop = asyncio.get_running_loop()
    semaphore = asyncio.Semaphore(MAX_IN_FLIGHT)
    # Per request, in schedule order; a failed request keeps infinite latency.
    out = {
        "late": [0.0] * len(requests),
        "latency": [math.inf] * len(requests),
        "ok": 0,
        "failed": 0,
        "wrong_bytes": 0,
        "cpu_samples": [],
    }
    done = asyncio.Event()
    sampler = loop.create_task(_sample_cpu(cpu_probe, out, done))
    cpu = time.process_time()
    start = loop.time() + 0.005
    out["last"] = start
    tasks = []
    for i, raw in enumerate(requests):
        due = start + i / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(
            loop.create_task(
                _request(
                    host, port, raw, due, expected[i], loop, out, semaphore,
                    i, corrupt_first and i == 0,
                )
            )
        )
    await asyncio.gather(*tasks)
    done.set()
    await sampler
    out["client_cpu_s"] = time.process_time() - cpu
    out["wall_s"] = out["last"] - start
    return out


def run_stage(daemon, rate, requests, expected, corrupt_first=False):
    """One open-loop stage at ``rate`` requests/s; per-request results.

    ``corrupt_first`` flips one byte of the first response before it is
    checked (the benchmark's own tests use it).
    """
    out = asyncio.run(
        _stage(daemon.host, daemon.port, rate, requests, expected, corrupt_first, daemon.cpu_s)
    )
    out["rate"] = rate
    out["requests"] = len(requests)
    out["achieved_rps"] = out["ok"] / out["wall_s"] if out["wall_s"] > 0 else 0.0
    out["late_p99_s"] = percentile(out["late"], 99)
    out["valid"] = out["late_p99_s"] <= LATE_BOUND_S
    out["stalls"] = sum(1 for value in out["latency"] if value >= STALL_S)
    out["cpu_per_request_s"] = cpu_per_request(out["cpu_samples"])
    return out


def cpu_per_request(samples):
    """Daemon CPU seconds per finished request: the lower quartile over the
    sampling intervals.

    Every interval carries the same traffic mix, so its cost differs from
    the others' mostly by how hard the shared host's other tenants pressed
    on the CPU at the time; the lower quartile keeps the intervals with the
    least interference without resting on a single one.  The last interval
    is usually short and is dropped unless it is the only one.
    """
    spans = [
        (cpu1 - cpu0) / (n1 - n0)
        for (n0, cpu0), (n1, cpu1) in zip(samples, samples[1:])
        if n1 > n0
    ]
    if not spans:
        (n0, cpu0), (n1, cpu1) = samples[0], samples[-1]
        return (cpu1 - cpu0) / max(1, n1 - n0)
    spans = spans[:-1] or spans
    return statistics.quantiles(spans, n=4)[0] if len(spans) > 1 else spans[0]


def program_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("REPRO_POPULATION_KERNEL", None)
    return env


def serve_argv(root, trace_out=None):
    """The daemon command: the program's own CLI, or the traced launcher."""
    if trace_out is None:
        return [sys.executable, "-m", "repro", "serve", "--port", "0", "--jobs", "1"]
    launcher = os.path.join(root, "perfbench", "launch.py")
    return [sys.executable, launcher, trace_out, "serve", "--port", "0", "--jobs", "1"]
