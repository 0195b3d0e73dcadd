"""Microbenchmarks of the analysis kernels under everything else.

These bound the per-evaluation costs that Fig. 5's algorithm runtimes are
made of: one exact response-time interface (WCRT + BCRT fixed points), one
scheduler-simulation hyperperiod, one ZOH discretisation, one DARE solve.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.control.plants import get_plant
from repro.linalg.riccati import solve_dare
from repro.lti.discretize import c2d_zoh_delay
from repro.rta.bcrt import best_case_response_time
from repro.rta.wcrt import worst_case_response_time
from repro.sim.fpps import simulate_fpps
from repro.sim.workload import UniformExecution


@pytest.fixture(scope="module")
def big_taskset(benchmark_instances):
    ts = benchmark_instances[20][0]
    priorities = {t.name: i + 1 for i, t in enumerate(ts)}
    return ts.with_priorities(priorities)


def test_kernel_wcrt(benchmark, big_taskset):
    lowest = big_taskset.sorted_by_priority()[-1]
    hp = big_taskset.higher_priority(lowest)
    value = benchmark(worst_case_response_time, lowest, hp, limit=float("inf"))
    assert value > 0


def test_kernel_bcrt(benchmark, big_taskset):
    lowest = big_taskset.sorted_by_priority()[-1]
    hp = big_taskset.higher_priority(lowest)
    value = benchmark(best_case_response_time, lowest, hp)
    assert value > 0


def test_kernel_simulator(benchmark, three_task_set=None):
    from repro.rta.taskset import Task, TaskSet

    ts = TaskSet(
        [
            Task(name="a", period=0.004, wcet=0.001, bcet=0.0005, priority=3),
            Task(name="b", period=0.008, wcet=0.002, bcet=0.001, priority=2),
            Task(name="c", period=0.016, wcet=0.003, bcet=0.002, priority=1),
        ]
    )
    trace = benchmark(
        simulate_fpps, ts, 1.6, execution_model=UniformExecution(), seed=1
    )
    assert trace.completed_jobs_of("c")


def test_kernel_discretisation(benchmark):
    plant = get_plant("dc_servo").state_space()
    system = benchmark(c2d_zoh_delay, plant, 0.006, 0.004)
    assert system.n_states == 3


def test_kernel_dare(benchmark):
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 6)) * 0.5
    b = rng.standard_normal((6, 2))
    q = np.eye(6)
    r = np.eye(2)
    x = benchmark(solve_dare, a, b, q, r)
    assert np.all(np.isfinite(x))


# ----------------------------------------------------------------------
# Kernel tiers: per-task reference vs the scalar whole-set pass
# (analyze_taskset) vs popbatch on mixed 4/8/12-task populations (the
# census workload shape).
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tier_population(benchmark_instances):
    """60 priority-assigned task sets: 20 each of 4/8/12 tasks."""
    population = []
    for n in (4, 8, 12):
        for ts in benchmark_instances[n]:
            priorities = {t.name: i + 1 for i, t in enumerate(ts)}
            population.append(ts.with_priorities(priorities))
    return population


def _scalar_tier(population):
    from repro.rta.interface import latency_jitter

    return [
        [latency_jitter(task, ts.higher_priority(task)) for task in ts]
        for ts in population
    ]


def _batch_tier(population):
    from repro.rta.batch import analyze_taskset

    return [analyze_taskset(ts) for ts in population]


def _popbatch_tier(population):
    from repro.rta.popbatch import analyze_population

    return analyze_population(population, population_kernel=True)


@pytest.mark.slow
def test_kernel_tier_scalar(benchmark, tier_population):
    interfaces = benchmark(_scalar_tier, tier_population)
    assert len(interfaces) == len(tier_population)


@pytest.mark.slow
def test_kernel_tier_batch(benchmark, tier_population):
    analyses = benchmark(_batch_tier, tier_population)
    assert len(analyses) == len(tier_population)


@pytest.mark.slow
def test_kernel_tier_popbatch(benchmark, tier_population):
    analyses = benchmark(_popbatch_tier, tier_population)
    # The stacked tier returns the batch tier's exact analyses.
    assert analyses == _batch_tier(tier_population)
