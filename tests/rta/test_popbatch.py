"""Equivalence tests of the population kernel tier (RTA half).

The contract under test is *bit-identity*: for any population,
:func:`repro.rta.popbatch.analyze_population` must return exactly the
floats of the serial ``[analyze_taskset(ts) for ts in tasksets]`` loop,
and :func:`repro.rta.popbatch.evaluate_problems` exactly those of
per-candidate :func:`repro.memo.kernels.evaluate_candidate` calls --
including infinities, verdicts, and the position of the first
:class:`~repro.errors.ScheduleError`.  Equality below is ``==`` on
floats, never ``approx``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen.uunifast import uunifast
from repro.errors import ScheduleError
from repro.memo.kernels import evaluate_candidate, make_record
from repro.rta.batch import analyze_taskset
from repro.rta.popbatch import (
    MIN_POPULATION,
    MIN_PROBLEM_POPULATION,
    analyze_population,
    evaluate_problems,
)
from repro.rta.taskset import Task, TaskSet


def _random_taskset(rng: np.random.Generator, n: int, *, utilization=None) -> TaskSet:
    """A priority-assigned UUniFast task set with random rational periods."""
    if utilization is None:
        utilization = float(rng.uniform(0.3, 0.95))
    shares = uunifast(n, utilization, rng)
    periods = rng.choice([1.0, 2.0, 2.5, 4.0, 5.0, 8.0, 10.0, 20.0], size=n)
    tasks = []
    for k, (share, period) in enumerate(zip(shares, periods)):
        wcet = min(max(share * period, 1e-6), period)
        bcet = max(wcet * float(rng.uniform(0.2, 1.0)), 1e-9)
        tasks.append(
            Task(
                name=f"t{k}",
                period=float(period),
                wcet=float(wcet),
                bcet=float(bcet),
                priority=n - k,
            )
        )
    return TaskSet(tasks)


def _assert_identical(population, scalar):
    """Bitwise comparison of analysis lists (== on every float)."""
    assert len(population) == len(scalar)
    for got, want in zip(population, scalar):
        assert got.deadlines_met == want.deadlines_met
        assert got.stable == want.stable
        assert got.violating == want.violating
        assert set(got.times) == set(want.times)
        for name, interface in want.times.items():
            assert got.times[name].best == interface.best
            assert got.times[name].worst == interface.worst


class TestAnalyzePopulationEquivalence:
    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 2**32 - 1),
        counts=st.lists(st.integers(1, 16), min_size=1, max_size=24),
    )
    def test_mixed_population_matches_scalar_loop(self, seed, counts):
        # Mixed task counts 1-16: stacked groups, singleton groups, and
        # the scalar fallback for tiny groups all in one population.
        rng = np.random.default_rng(seed)
        tasksets = [_random_taskset(rng, n) for n in counts]
        scalar = [analyze_taskset(ts) for ts in tasksets]
        population = analyze_population(tasksets, population_kernel=True)
        _assert_identical(population, scalar)

    @settings(max_examples=10)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_single_task_sets(self, seed):
        # Degenerate n=1 populations: no interference at all.
        rng = np.random.default_rng(seed)
        tasksets = [_random_taskset(rng, 1) for _ in range(MIN_POPULATION + 4)]
        _assert_identical(
            analyze_population(tasksets, population_kernel=True),
            [analyze_taskset(ts) for ts in tasksets],
        )

    @settings(max_examples=10)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_overloaded_sets_keep_exact_infinities(self, seed):
        # Utilisation near/above 1: deadline misses (inf WCRT) and slow
        # fixed points that trip the straggler fallback.
        rng = np.random.default_rng(seed)
        tasksets = [
            _random_taskset(rng, int(rng.integers(2, 9)), utilization=u)
            for u in rng.uniform(0.97, 1.3, size=MIN_POPULATION + 4)
        ]
        _assert_identical(
            analyze_population(tasksets, population_kernel=True),
            [analyze_taskset(ts) for ts in tasksets],
        )

    def test_escape_hatch_forces_batch_tier(self, rng):
        tasksets = [_random_taskset(rng, 6) for _ in range(MIN_POPULATION + 2)]
        _assert_identical(
            analyze_population(tasksets, population_kernel="off"),
            [analyze_taskset(ts) for ts in tasksets],
        )

    def test_small_population_runs_batch_tier(self, rng):
        tasksets = [_random_taskset(rng, 4) for _ in range(MIN_POPULATION - 1)]
        _assert_identical(
            analyze_population(tasksets),
            [analyze_taskset(ts) for ts in tasksets],
        )

    def test_empty_population(self):
        assert analyze_population([]) == []


def _record_problems(rng: np.random.Generator, count: int):
    """Random candidate problems over one interned record pool."""
    pool = []
    for i in range(12):
        period = float(rng.choice([1.0, 2.0, 2.5, 4.0, 5.0, 10.0]))
        wcet = float(rng.uniform(0.01, 0.4)) * period
        bcet = wcet * float(rng.uniform(0.2, 1.0))
        pool.append(make_record(period, wcet, bcet, None, f"r{i}"))
    problems = []
    for _ in range(count):
        record = pool[int(rng.integers(len(pool)))]
        hp_size = int(rng.integers(0, 6))
        hp = [pool[int(j)] for j in rng.integers(0, len(pool), size=hp_size)]
        problems.append((record, hp))
    return problems


class TestEvaluateProblemsEquivalence:
    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(0, 3 * MIN_PROBLEM_POPULATION),
    )
    def test_matches_scalar_kernels(self, seed, count):
        # Counts straddle every tier gate: empty, the no-dedup fast
        # path, the deduped scalar tier, and the stacked tier.
        rng = np.random.default_rng(seed)
        problems = _record_problems(rng, count)
        scalar = [evaluate_candidate(r, hp) for r, hp in problems]
        batched = evaluate_problems(problems, population_kernel=True)
        assert batched == scalar  # tuple == tuple: bitwise float equality

    def test_duplicate_problems_share_entries(self, rng):
        # The detector pattern: the same (record, hp) posed many times.
        base = _record_problems(rng, MIN_PROBLEM_POPULATION)
        problems = base + base + base
        scalar = [evaluate_candidate(r, hp) for r, hp in problems]
        assert evaluate_problems(problems) == scalar

    def test_escape_hatch_matches(self, rng):
        problems = _record_problems(rng, 2 * MIN_PROBLEM_POPULATION)
        assert evaluate_problems(problems, population_kernel="off") == [
            evaluate_candidate(r, hp) for r, hp in problems
        ]

    def test_non_convergent_problem_raises_like_scalar(self, rng):
        # An infinite-period candidate against overloaded hp has no
        # finite deadline to exceed: the scalar kernel raises
        # ScheduleError, and the stacked tier must surface the same
        # error (its scalar fallback re-runs the problem).
        hp = [make_record(1.0, 1.0, 0.5, None, "hog")]
        bad = (make_record(math.inf, 1.0, 0.5, None, "bad"), hp)
        problems = _record_problems(rng, 2 * MIN_PROBLEM_POPULATION)
        problems.insert(7, bad)
        with pytest.raises(ScheduleError):
            [evaluate_candidate(r, h) for r, h in problems]
        with pytest.raises(ScheduleError):
            evaluate_problems(problems, population_kernel=True)
