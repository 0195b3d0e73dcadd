"""Every production RTA path against the per-task reference analyses.

The reference is :func:`repro.rta.interface.latency_jitter` (eqs. (3)
and (4) evaluated task by task) plus :func:`task_is_stable` for the
verdicts.  The production paths -- :func:`analyze_taskset`,
:func:`analyze_population` (stacked), :meth:`AnalysisMemo.taskset_analysis`
and :func:`evaluate_problems` (scalar and stacked) -- must return the
same floats (``==``, never ``approx``) and, where the reference raises,
a :class:`~repro.errors.ScheduleError` with the same text.  The drawn
task sets lean on the numeric edges: WCET/period ratios down to 1e-12
(quotients inside the ceiling guard's reach of 0) and saturated hp sets
(a task with WCET equal to its period).  The reference itself is held to
one guard-independent fact: an hp set with utilisation ``>= 1`` leaves
the task no processor time, so its WCRT is ``inf``.
"""

from __future__ import annotations

from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScheduleError
from repro.jittermargin.linearbound import LinearStabilityBound
from repro.memo import AnalysisMemo
from repro.memo.kernels import make_record
from repro.rta.batch import analyze_taskset
from repro.rta.interface import latency_jitter, task_is_stable
from repro.rta.popbatch import analyze_population, evaluate_problems
from repro.rta.taskset import Task, TaskSet

_PERIODS = st.one_of(
    st.sampled_from([1.0, 2.0, 2.5, 4.0, 5.0, 10.0]),
    st.floats(0.5, 20.0, allow_nan=False, allow_infinity=False),
)
_RATIOS = st.one_of(
    st.floats(1e-12, 1e-8),
    st.floats(0.01, 0.6),
    st.just(1.0),
)


@st.composite
def _tasks(draw):
    period = draw(_PERIODS)
    wcet = min(period * draw(_RATIOS), period)
    bcet = wcet * draw(st.sampled_from([1.0, 0.5, 0.01]))
    bound = draw(
        st.one_of(
            st.none(),
            st.builds(
                LinearStabilityBound,
                a=st.floats(1.0, 3.0),
                b=st.floats(0.0, 10.0),
            ),
        )
    )
    return period, wcet, bcet, bound


@st.composite
def _tasksets(draw, max_tasks: int = 6):
    drawn = draw(st.lists(_tasks(), min_size=1, max_size=max_tasks))
    order = draw(st.permutations(range(len(drawn))))
    return TaskSet(
        Task(
            name=f"t{k}",
            period=period,
            wcet=wcet,
            bcet=bcet,
            priority=order[k] + 1,
            stability=bound,
        )
        for k, (period, wcet, bcet, bound) in enumerate(drawn)
    )


def _reference(taskset: TaskSet):
    """``({name: (best, worst)}, violating)``, task by task."""
    times = {}
    violating = []
    for task in taskset:
        hp = taskset.higher_priority(task)
        interface = latency_jitter(task, hp)
        if sum(other.wcet / other.period for other in hp) >= 1.0:
            assert interface.worst == float("inf")
        times[task.name] = (interface.best, interface.worst)
        if not task_is_stable(task, hp):
            violating.append(task.name)
    return times, tuple(violating)


def _error_text(fn) -> Optional[str]:
    try:
        fn()
    except ScheduleError as exc:
        return str(exc)
    return None


def _assert_matches(analysis, reference) -> None:
    times, violating = reference
    got = {name: (rt.best, rt.worst) for name, rt in analysis.times.items()}
    assert got == times
    assert analysis.violating == violating
    assert analysis.stable == (not violating)
    assert analysis.deadlines_met == all(
        worst != float("inf") for _, worst in times.values()
    )


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(taskset=_tasksets())
    def test_whole_set_paths(self, taskset):
        error = _error_text(lambda: _reference(taskset))
        paths = {
            "analyze_taskset": lambda: analyze_taskset(taskset),
            "memo": lambda: AnalysisMemo().taskset_analysis(taskset),
        }
        for name, path in paths.items():
            if error is not None:
                assert _error_text(path) == error, name
            else:
                _assert_matches(path(), _reference(taskset))

    @settings(max_examples=40, deadline=None)
    @given(tasksets=st.lists(_tasksets(max_tasks=4), min_size=16, max_size=24))
    def test_population_paths(self, tasksets):
        error = _error_text(lambda: [_reference(ts) for ts in tasksets])
        paths = {
            "analyze_population": lambda: analyze_population(
                tasksets, population_kernel=True
            ),
            "memo": lambda: AnalysisMemo().population_analysis(tasksets),
        }
        for name, path in paths.items():
            if error is not None:
                assert _error_text(path) == error, name
            else:
                for taskset, analysis in zip(tasksets, path()):
                    _assert_matches(analysis, _reference(taskset))

    @settings(max_examples=40, deadline=None)
    @given(tasksets=st.lists(_tasksets(), min_size=1, max_size=12))
    def test_evaluate_problems(self, tasksets):
        problems = []
        expected = []  # (task, hp tasks) behind each problem
        for taskset in tasksets:
            records = {
                t.name: make_record(t.period, t.wcet, t.bcet, t.stability, t.name)
                for t in taskset
            }
            for task in taskset:
                hp = taskset.higher_priority(task)
                problems.append(
                    (records[task.name], [records[o.name] for o in hp])
                )
                expected.append((task, hp))

        def reference():
            return [
                (rt.best, rt.worst)
                for rt in (latency_jitter(t, hp) for t, hp in expected)
            ]

        error = _error_text(reference)
        for population_kernel in (True, False):
            run = lambda: evaluate_problems(  # noqa: E731
                problems, population_kernel=population_kernel
            )
            if error is not None:
                assert _error_text(run) == error
                continue
            got = run()
            assert [(best, worst) for best, worst, _ in got] == reference()
            for _, worst, slack in got:
                assert (slack == float("-inf")) == (worst == float("inf"))
