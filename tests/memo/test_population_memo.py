"""``AnalysisMemo.population_analysis``: the memo layered on the
population kernel tier (what the execution plane's worker memos use on
the batch-analysis path).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.memo import AnalysisMemo
from repro.memo.core import EvaluationCounter
from repro.rta.taskset import Task, TaskSet

from tests.memo._memo_population import random_taskset


def _population(seed=71, sets=7, n=6):
    rng = np.random.default_rng(seed)
    return [random_taskset(rng, n) for _ in range(sets)]


class TestPopulationAnalysis:
    def test_matches_sequential_taskset_analysis(self):
        tasksets = _population()
        sequential = [
            AnalysisMemo().taskset_analysis(ts) for ts in tasksets
        ]
        population = AnalysisMemo().population_analysis(tasksets)
        assert population == sequential

    def test_matches_popbatch_analyze_population(self):
        from repro.rta.popbatch import analyze_population

        tasksets = _population(seed=72)
        assert AnalysisMemo().population_analysis(
            tasksets
        ) == analyze_population(tasksets)

    def test_counters_match_sequentially_memoised_run(self):
        tasksets = _population(seed=73)
        # Duplicate a whole set: sequentially, its subproblems all hit.
        tasksets = tasksets + [tasksets[0]]

        sequential_memo = AnalysisMemo()
        sequential_counter = EvaluationCounter()
        sequential = [
            sequential_memo.taskset_analysis(ts, sequential_counter)
            for ts in tasksets
        ]

        population_memo = AnalysisMemo()
        population_counter = EvaluationCounter()
        population = population_memo.population_analysis(
            tasksets, population_counter
        )

        assert population == sequential
        assert population_counter.count == sequential_counter.count
        assert population_counter.hits == sequential_counter.hits
        assert (
            population_memo.stats()["cache_hits"]
            == sequential_memo.stats()["cache_hits"]
        )

    def test_warm_memo_answers_without_recomputation(self):
        tasksets = _population(seed=74)
        memo = AnalysisMemo()
        first = memo.population_analysis(tasksets)
        recomputed_before = memo.stats()["recomputations"]
        second = memo.population_analysis(tasksets)
        assert second == first
        assert memo.stats()["recomputations"] == recomputed_before

    def test_bounded_memo_still_correct(self):
        tasksets = _population(seed=75)
        bounded = AnalysisMemo(max_entries=4).population_analysis(tasksets)
        fresh = AnalysisMemo().population_analysis(tasksets)
        assert bounded == fresh


def _state(memo: AnalysisMemo, counter: EvaluationCounter) -> dict:
    """Counter and ``stats()`` values, minus the wall-clock kernel time."""
    stats = memo.stats()
    del stats["kernel_seconds"]
    return dict(stats, count=counter.count, hits=counter.hits)


def _with_saturated_infinite_period_task(taskset: TaskSet) -> TaskSet:
    """``taskset`` plus a utilisation-1 hog above an infinite-period task.

    The infinite-period task has no finite deadline to exceed, so its
    WCRT fixed point diverges and every kernel raises ``ScheduleError``.
    It sits in the middle of the task-set order, so a sequential pass
    evaluates part of the set before raising.
    """
    tasks = list(taskset)
    n = len(tasks)
    hog = Task(name="hog", period=1.0, wcet=1.0, priority=n + 2)
    bad = Task(name="bad", period=math.inf, wcet=1.0, priority=n + 1)
    middle = n // 2
    return TaskSet(tasks[:middle] + [hog, bad] + tasks[middle:])


class TestKernelErrorReplay:
    def test_error_text_and_counters_match_sequential_calls(self):
        first, second, third = _population(seed=76, sets=3)
        second = _with_saturated_infinite_period_task(second)
        tasksets = [first, second, third]

        def warm_memo():
            # The first set's three highest-priority tasks are known
            # already: the population mixes memo hits, misses and the
            # failing subproblem.
            memo = AnalysisMemo()
            top = sorted(first, key=lambda task: -task.priority)[:3]
            memo.taskset_analysis(TaskSet(top))
            return memo

        sequential_memo, sequential_counter = warm_memo(), EvaluationCounter()
        with pytest.raises(ScheduleError) as sequential:
            for taskset in tasksets:
                sequential_memo.taskset_analysis(taskset, sequential_counter)

        population_memo, population_counter = warm_memo(), EvaluationCounter()
        with pytest.raises(ScheduleError) as population:
            population_memo.population_analysis(tasksets, population_counter)

        assert str(population.value) == str(sequential.value)
        expected = _state(sequential_memo, sequential_counter)
        got = _state(population_memo, population_counter)
        # The population interns every set before evaluating anything;
        # the sequential pass never reached the third set.
        interned = got.pop("interned_tasks")
        assert interned == expected.pop("interned_tasks") + len(third)
        assert got == expected
        assert got["hits"] == 3
        assert got["count"] < sum(len(ts) for ts in tasksets)


class TestRepeatedKeysInOneCall:
    def test_counts_match_sequential_entry_calls(self):
        (taskset,) = _population(seed=77, sets=1, n=5)
        tasks = list(taskset)

        def pairs(memo):
            a, b, c, d, e = memo.intern_all(tasks)
            # (a, {b, c}) three times -- once in another hp order -- and
            # (e, {}) twice; (d, {a}) is already in the memo.
            return [
                (a, [b, c]),
                (d, [a]),
                (e, []),
                (a, [b, c]),
                (b, [c, d]),
                (a, [c, b]),
                (e, []),
            ]

        def warm_memo():
            memo = AnalysisMemo()
            d, a = memo.intern_all([tasks[3], tasks[0]])
            memo._entry(d, [a], frozenset([a]), EvaluationCounter())
            return memo

        sequential_memo, sequential_counter = warm_memo(), EvaluationCounter()
        sequential = [
            sequential_memo._entry(tid, hp, frozenset(hp), sequential_counter)
            for tid, hp in pairs(sequential_memo)
        ]

        batched_memo, batched_counter = warm_memo(), EvaluationCounter()
        items = pairs(batched_memo)
        batched = batched_memo._entries(
            [tid for tid, _ in items], [hp for _, hp in items], batched_counter
        )

        assert batched == sequential
        assert _state(batched_memo, batched_counter) == _state(
            sequential_memo, sequential_counter
        )
        assert (batched_counter.count, batched_counter.hits) == (7, 4)


class TestTaskVerdictMemoRoute:
    def test_memo_routed_verdict_bit_identical(self):
        from repro.api.service import task_verdict

        rng = np.random.default_rng(81)
        memo = AnalysisMemo()
        for _ in range(5):
            taskset = random_taskset(rng, 6)
            for task in taskset:
                hp = taskset.higher_priority(task)
                plain = task_verdict(task, hp)
                routed = task_verdict(task, hp, memo=memo)
                assert routed == plain
                # And again from the warm memo.
                assert task_verdict(task, hp, memo=memo) == plain

    def test_explicit_deadline_takes_scalar_path(self):
        from repro.api.service import task_verdict

        rng = np.random.default_rng(82)
        taskset = random_taskset(rng, 5)
        task = next(iter(taskset))
        memo = AnalysisMemo()
        verdict = task_verdict(
            task,
            taskset.higher_priority(task),
            deadline=task.period / 2,
            memo=memo,
        )
        # Nothing entered the memo: explicit deadlines are not memoisable.
        assert memo.stats()["evaluations"] == 0
        assert verdict == task_verdict(
            task, taskset.higher_priority(task), deadline=task.period / 2
        )
