"""Whole-task-set response-time analysis on the scalar kernel tier.

:func:`analyze_taskset` computes the exact latency/jitter interface of
every task of one task set in one pass.  Per-task records
``(period, wcet, bcet, bcet/period, bound, name)`` are built once per
set, and each task is scored by
:func:`repro.memo.kernels.evaluate_candidate` -- the scalar fixed point
the memo, the searches and the anomaly detectors already run.  Each
task's hp list is enumerated in task-set order (the
:meth:`~repro.rta.taskset.TaskSet.higher_priority` order of the
per-task analyses), so every float is bit-identical to
:func:`repro.rta.interface.latency_jitter` and to the memoised path;
that is what makes memoised and fresh façade analyses byte-identical.

:func:`guarded_ceil_array` is the vectorised guarded ceiling of the
population tier (:mod:`repro.rta.popbatch`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.memo.kernels import evaluate_candidate, make_record
from repro.rta.interface import ResponseTimes, TasksetAnalysis, assemble_analysis
from repro.rta.taskset import TaskSet
from repro.rta.wcrt import _CEIL_RTOL


def guarded_ceil_array(quotients: np.ndarray) -> np.ndarray:
    """Vectorised :func:`repro.rta.wcrt.guarded_ceil`.

    Values within ``1e-9`` (relative) of a nonzero integer round to that
    integer; everything else is ceiled.  Matches the scalar guard
    decision exactly.
    """
    quotients = np.asarray(quotients, dtype=float)
    nearest = np.round(quotients)
    guard = (nearest != 0.0) & (
        np.abs(quotients - nearest)
        <= _CEIL_RTOL * np.maximum(1.0, np.abs(quotients))
    )
    return np.where(guard, nearest, np.ceil(quotients))


def analyze_taskset(taskset: TaskSet) -> TasksetAnalysis:
    """Exact latency/jitter interface of every task, one pass.

    Requires distinct priorities (like the per-task interface).  Verdicts
    match :func:`repro.assignment.validate.validate_assignment`.
    """
    taskset.check_distinct_priorities()
    tasks = list(taskset)
    records = [
        make_record(t.period, t.wcet, t.bcet, t.stability, t.name)
        for t in tasks
    ]
    priorities = [t.priority for t in tasks]
    entries = [
        evaluate_candidate(
            record,
            [records[j] for j, other in enumerate(priorities) if other > priority],
        )
        for record, priority in zip(records, priorities)
    ]
    return assemble_analysis(tasks, entries)


def batch_response_times(
    tasksets: Sequence[TaskSet],
) -> List[Dict[str, ResponseTimes]]:
    """Latency/jitter interfaces of a whole chunk of task sets.

    .. deprecated:: prefer ``repro.api.analyze_batch``, whose reports
       carry the interfaces plus verdicts and the canonical JSON schema.
    """
    return [analyze_taskset(ts).times for ts in tasksets]


def batch_validate(tasksets: Sequence[TaskSet]) -> List[bool]:
    """Validity (deadlines + stability) of each assigned task set.

    .. deprecated:: prefer ``[r.stable for r in
       repro.api.analyze_batch(tasksets)]`` -- same kernel, plus
       per-task detail and sweep-engine parallelism.
    """
    return [analyze_taskset(ts).stable for ts in tasksets]
