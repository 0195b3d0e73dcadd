"""Regression: the ceiling guard never drops a released hp job.

Two models, both with a tiny-WCET victim whose first WCRT iterate puts a
quotient inside the ``1e-9`` integer guard:

* ``zero-quotient`` -- task ``a`` (period 1, WCET 1e-10) runs below
  ``b`` (period 2, WCET 1.5).  At the critical instant ``b``'s first job
  preempts ``a``, so ``R^w_a = 1.5 + 1e-10 > 1`` -- a deadline miss.  The
  first iterate divides ``1e-10`` by ``b``'s period; the quotient
  ``5e-11`` lies within the guard of 0, and a guard that snapped it to 0
  dropped ``b``'s job and reported ``R^w_a = 1e-10``.
* ``saturated`` -- ``starved`` (period 10, WCET 1e-10) runs below
  ``hog`` (period 2, WCET 2).  The hp utilisation is exactly 1, so
  ``starved`` never runs and ``R^w = inf``.  Iterating reaches
  ``2 + 1e-10``, whose quotient ``1 + 5e-11`` the guard reads as 1,
  dropping ``hog``'s job released at ``t = 2``; only the saturation test
  (hp utilisation ``+ 1e-12 >= 1``) reports the miss.

Every analysis path must report the victim missing its deadline.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.api import ControlTaskSystem, analyze
from repro.memo import AnalysisMemo
from repro.memo.kernels import make_record
from repro.rta.interface import latency_jitter
from repro.rta.popbatch import analyze_population, evaluate_problems
from repro.rta.taskset import Task, TaskSet

_INF = float("inf")

#: (model, victim, victim's best-case response time)
CASES = {
    "zero-quotient": (
        {
            "name": "zero-quotient",
            "tasks": [
                {"name": "a", "period": 1.0, "wcet": 1e-10, "priority": 1},
                {"name": "b", "period": 2.0, "wcet": 1.5, "priority": 2},
            ],
        },
        "a",
        1e-10,
    ),
    "saturated": (
        {
            "name": "saturated",
            "tasks": [
                {"name": "hog", "period": 2.0, "wcet": 2.0, "priority": 2},
                {
                    "name": "starved",
                    "period": 10.0,
                    "wcet": 1e-10,
                    "priority": 1,
                },
            ],
        },
        "starved",
        _INF,
    ),
}

pytestmark = pytest.mark.parametrize("case", sorted(CASES))


def _taskset(model) -> TaskSet:
    return TaskSet([Task(**spec) for spec in model["tasks"]])


def _assert_victim_misses(report, victim) -> None:
    assert not report.schedulable
    assert report.violating == (victim,)


def test_latency_jitter(case):
    model, victim, best = CASES[case]
    taskset = _taskset(model)
    task = taskset.by_name(victim)
    times = latency_jitter(task, taskset.higher_priority(task))
    assert math.isinf(times.worst)
    assert times.best == best


def test_analyze(case):
    model, victim, _ = CASES[case]
    _assert_victim_misses(analyze(ControlTaskSystem.from_dict(model)), victim)


def test_analyze_with_memo(case):
    model, victim, _ = CASES[case]
    report = analyze(ControlTaskSystem.from_dict(model), memo=AnalysisMemo())
    _assert_victim_misses(report, victim)


@pytest.mark.parametrize("population_kernel", [True, False])
def test_analyze_population(case, population_kernel):
    # 16 sets reach the stacked tier; "off" runs the scalar tier.
    model, victim, _ = CASES[case]
    analyses = analyze_population(
        [_taskset(model) for _ in range(16)],
        population_kernel=population_kernel,
    )
    for analysis in analyses:
        assert not analysis.deadlines_met
        assert analysis.violating == (victim,)


@pytest.mark.parametrize("copies", [1, 40])
def test_evaluate_problems(case, copies):
    # One problem runs the scalar kernel, 40 distinct ones the stack.
    model, victim, expected_best = CASES[case]

    def record(spec):
        return make_record(
            spec["period"], spec["wcet"], spec["wcet"], None, spec["name"]
        )

    (victim_spec,) = [s for s in model["tasks"] if s["name"] == victim]
    hp_specs = [s for s in model["tasks"] if s["name"] != victim]
    problems = [
        (record(victim_spec), [record(s) for s in hp_specs])
        for _ in range(copies)
    ]
    for best, worst, slack in evaluate_problems(
        problems, population_kernel=True
    ):
        assert math.isinf(worst)
        assert slack == float("-inf")
        assert best == expected_best


@pytest.mark.parametrize("memo_entries", [65536, 0])
def test_served_analyze(case, memo_entries):
    from repro.serve import AnalysisDaemon, run_daemon_in_thread, wait_until_ready

    model, victim, _ = CASES[case]
    daemon = AnalysisDaemon(port=0, batch_window=0.002, memo_entries=memo_entries)
    thread = run_daemon_in_thread(daemon)
    client = wait_until_ready(daemon.host, daemon.port)
    try:
        status, body = client.analyze_raw(model)
        assert status == 200
        served = json.loads(body)
        assert served["schedulable"] is False
        assert served["violating"] == [victim]
        direct = analyze(ControlTaskSystem.from_dict(model)).report_json()
        assert body.decode("utf-8") == direct
    finally:
        client.shutdown()
        thread.join(timeout=10)
