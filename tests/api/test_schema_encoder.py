"""The schema encoder of :mod:`repro.api.encode` against its oracle.

Reports, assignment outcomes and system models are written directly in
pre-sorted key order by :mod:`repro.api.encode`; every byte must equal
what the generic walk, :func:`~repro.sweep.result.canonical_dumps` of
the matching ``to_dict()`` view, writes.  The inputs aim at the places a
direct writer can drift from it: sentinel-spelled and escaped names,
quotes, control and non-ASCII characters, non-finite response times and
slacks, numpy-typed fields, unassigned and unbounded tasks, and values
``json`` rejects (which must raise the same ``TypeError``).
"""

from __future__ import annotations

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import AnalysisReport, ControlTaskSystem, TaskVerdict, analyze
from repro.api.service import AssignmentOutcome, assign
from repro.jittermargin.linearbound import LinearStabilityBound
from repro.rta.interface import ResponseTimes
from repro.rta.taskset import Task, TaskSet
from repro.scenarios.workload import (
    edited_model_request_stream,
    scenario_request_stream,
)
from repro.search.result import AssignmentResult
from repro.sweep.result import canonical_dumps, canonical_sha256_of

# Generated numpy-typed bounds meet nan/inf response times on purpose.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

_awkward_names = st.sampled_from(
    [
        "NaN",
        "Infinity",
        "-Infinity",
        "~NaN",
        "~Infinity",
        "~~-Infinity",
        "NaNa",
        'say "hi"',
        "back\\slash",
        "ctl\x00\x1f\n\t",
        "café",
        "τ₂",
        "\U0001f680",
    ]
)
_names = st.one_of(_awkward_names, st.text(min_size=1, max_size=12))

_nonfinite = st.sampled_from([math.nan, math.inf, -math.inf])
_any_float = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64), _nonfinite
)
_positive = st.floats(min_value=1e-6, max_value=1e6)


def _maybe_numpy(values):
    """Plain floats, or the same values as numpy scalars."""
    return st.one_of(values, values.map(np.float64))


_bounds = st.one_of(
    st.none(),
    st.builds(
        LinearStabilityBound,
        a=_maybe_numpy(st.floats(min_value=1.0, max_value=1e3)),
        b=_maybe_numpy(st.floats(min_value=0.0, max_value=1e3)),
    ),
)

_times = st.builds(
    ResponseTimes,
    best=_any_float,
    worst=st.one_of(_any_float, st.just(math.inf)),
)

_verdicts = st.builds(
    TaskVerdict,
    name=_names,
    period=st.one_of(_positive, st.integers(1, 100), _nonfinite),
    wcet=st.one_of(_any_float, st.integers(0, 100)),
    bcet=_any_float,
    priority=st.one_of(st.none(), st.integers(-(2**40), 2**40)),
    times=_times,
    bound=_bounds,
)

_reports = st.builds(
    AnalysisReport,
    name=_names,
    priority_policy=st.sampled_from(["as_given", "rate_monotonic", "NaN"]),
    verdicts=st.lists(_verdicts, max_size=6).map(tuple),
)


@given(_reports)
def test_report_matches_generic_walk(report):
    assert report.canonical_json() == canonical_dumps(report._canonical_dict())
    assert report.canonical_sha256() == canonical_sha256_of(
        report._canonical_dict()
    )
    assert report.report_json() == canonical_dumps(report.to_dict())


@given(_verdicts)
def test_derived_verdict_fields_follow_the_conventions(verdict):
    times, bound = verdict.times, verdict.bound
    assert verdict.deadline_met is (times.worst != math.inf)
    if bound is None:
        assert verdict.slack is None and verdict.rel_slack is None
        assert verdict.stable is True
    elif not verdict.deadline_met:
        assert verdict.slack == -math.inf and verdict.stable is False
    else:
        expected = float(bound.slack(times.latency, times.jitter))
        assert verdict.slack == expected or (
            math.isnan(verdict.slack) and math.isnan(expected)
        )
    assert verdict.ok is (verdict.deadline_met and verdict.stable)


@given(_reports)
def test_verdicts_pickle_and_copy_with_their_derived_fields(report):
    # Frozen slotted verdicts cross the process pool by pickle.
    for verdict in report.verdicts:
        assert not hasattr(verdict, "__dict__")
        state = repr(verdict.__getstate__())
        for clone in (
            pickle.loads(pickle.dumps(verdict)),
            copy.copy(verdict),
            copy.deepcopy(verdict),
        ):
            assert type(clone) is TaskVerdict
            assert repr(clone.__getstate__()) == state
    assert pickle.loads(pickle.dumps(report)).report_json() == report.report_json()


def test_empty_violating_list_and_no_bounds():
    times = ResponseTimes(best=1.0, worst=2.0)
    report = AnalysisReport(
        name="plain",
        priority_policy="as_given",
        verdicts=(TaskVerdict("t", 10, 3, 1, None, times, None),),
    )
    assert report.violating == () and report.min_rel_slack is None
    assert '"violating":[]' in report.report_json()
    assert report.report_json() == canonical_dumps(report.to_dict())


_results = st.builds(
    AssignmentResult,
    algorithm=_names,
    priorities=st.one_of(
        st.none(),
        st.dictionaries(_names, st.integers(1, 50), max_size=5),
    ),
    claims_valid=st.one_of(st.none(), st.booleans()),
    evaluations=st.integers(0, 10**6),
    backtracks=st.integers(0, 10**3),
    cache_hits=st.integers(0, 10**3),
)


@given(_names, _results, st.one_of(st.none(), _reports))
def test_outcome_matches_generic_walk(name, result, report):
    outcome = AssignmentOutcome(
        name=name,
        algorithm=result.algorithm,
        result=result,
        system=None,
        report=report,
    )
    assert outcome.outcome_json() == canonical_dumps(outcome.to_dict())
    assert outcome.canonical_sha256() == canonical_sha256_of(outcome.to_dict())


@st.composite
def _systems(draw):
    names = draw(st.lists(_names, min_size=1, max_size=5, unique=True))
    tasks = []
    for name in names:
        period = draw(st.one_of(_positive, st.integers(1, 100)))
        wcet = period * draw(st.floats(min_value=0.01, max_value=1.0))
        stability = draw(_bounds)
        tasks.append(
            Task(
                name=name,
                period=draw(st.sampled_from([period, np.float64(period)])),
                wcet=wcet,
                bcet=wcet * draw(st.floats(min_value=0.01, max_value=1.0)),
                priority=draw(st.one_of(st.none(), st.integers(0, 50))),
                stability=stability,
                plant_name=draw(st.one_of(st.none(), st.just(""), _names)),
            )
        )
    return ControlTaskSystem(
        taskset=TaskSet(tasks),
        name=draw(_names),
        priority_policy=draw(st.sampled_from(["as_given", "audsley"])),
    )


@given(_systems())
def test_model_matches_generic_walk(system):
    assert system.canonical_json() == canonical_dumps(system.to_dict())
    assert system.canonical_sha256() == canonical_sha256_of(system.to_dict())


@pytest.mark.parametrize(
    "field, value",
    [("priority", np.int64(3)), ("plant_name", np.int64(1)), ("name", b"t")],
)
def test_rejected_types_raise_the_oracles_type_error(field, value):
    task = Task(name="t", period=1.0, wcet=0.5, bcet=0.25)
    setattr(task, field, value)
    system = ControlTaskSystem(taskset=TaskSet([task]), name="bad")
    with pytest.raises(TypeError) as oracle:
        canonical_dumps(system.to_dict())
    with pytest.raises(TypeError) as compiled:
        system.canonical_json()
    assert str(compiled.value) == str(oracle.value)


def test_served_streams_match_generic_walk():
    systems = scenario_request_stream(12, unique=12, repeat_fraction=0.0)
    systems += edited_model_request_stream(8, repeat_fraction=0.0)
    for system in systems:
        report = analyze(system)
        assert system.canonical_json() == canonical_dumps(system.to_dict())
        assert report.report_json() == canonical_dumps(report.to_dict())
    for system in systems[:4]:
        outcome = assign(system)
        assert outcome.outcome_json() == canonical_dumps(outcome.to_dict())
