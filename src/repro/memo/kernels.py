"""Float-exact evaluation kernels of the shared analysis memo.

The subproblem every analysis and assignment algorithm evaluates is the
exact response-time interface of one candidate against one
higher-priority set (:func:`repro.rta.interface.latency_jitter`)
followed by the linear stability bound.  The seed algorithms called the
per-task analyses once per candidate, rebuilding hp tuples and
re-deriving utilisations every time; the kernels here score candidates
over interned per-task records ``(period, wcet, bcet, bcet/period,
bound)`` that the :class:`~repro.memo.core.AnalysisMemo` precomputes
once.

Equivalence contract (the foundation of the golden tests in
``tests/search/`` and the byte-equivalence tests in ``tests/memo/``):
for the same candidate and the same hp *order*, these kernels return
bit-identical floats to the scalar analyses of :mod:`repro.rta.wcrt` /
:mod:`repro.rta.bcrt` -- same accumulation order, same guarded
ceilings, same convergence tests.  :func:`evaluate_candidate` is the
one production scalar kernel: :func:`repro.rta.batch.analyze_taskset`
runs on it, and the stacked population tier (:mod:`repro.rta.popbatch`)
is pinned bit-identical to it, which is what makes memoised and fresh
analyses byte-identical; it matters beyond the bytes because assignment
searches sort candidates by slack, and a last-ulp difference can flip
an argmax.

Moved here from ``repro.search.kernels`` (which re-exports these names
unchanged) when the memo became a shared layer.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from repro.errors import ScheduleError
from repro.jittermargin.linearbound import LinearStabilityBound
from repro.rta.wcrt import _CEIL_RTOL, SATURATED_DIVERGES

#: Interned per-task record: ``(period, wcet, bcet, bcet/period, bound,
#: name)``.  The division is precomputed once per task; summing the
#: precomputed quotients in hp order reproduces the scalar generator sums
#: exactly (same operands, same order).
TaskRecord = Tuple[float, float, float, float, Optional[LinearStabilityBound], str]

_PERIOD, _WCET, _BCET, _BCET_UTIL, _BOUND, _NAME = range(6)

_MAX_ITERATIONS = 10_000

_INF = float("inf")
_NEG_INF = float("-inf")


def make_record(
    period: float,
    wcet: float,
    bcet: float,
    bound: Optional[LinearStabilityBound],
    name: str,
) -> TaskRecord:
    return (period, wcet, bcet, bcet / period, bound, name)


def _wcrt_exact(
    wcet: float, period: float, hp: Sequence[TaskRecord], name: str
) -> float:
    """Replica of :func:`repro.rta.wcrt.worst_case_response_time` with
    ``limit = period`` (the implicit deadline every search predicate uses).

    A saturated hp set (utilisation ``+ 1e-12 >= 1``) returns ``inf``
    before iterating -- or, under an infinite period, raises -- as the
    scalar analysis does; the utilisation sums the same quotients in the
    same order.
    """
    util = 0.0
    for record in hp:
        util += record[1] / record[0]
    if util + 1e-12 >= 1.0:
        if period == _INF:
            raise ScheduleError(SATURATED_DIVERGES)
        return _INF
    # Hot loop: the branchy max/abs/int builtins of the reference
    # analysis are unrolled into arithmetic on the (non-negative)
    # quotient -- every comparison sees the same floats, so the factor
    # and convergence decisions are unchanged bit for bit (including the
    # guard's refusal to snap a positive quotient down to 0).
    ceil = math.ceil
    rtol = _CEIL_RTOL
    response = wcet
    for _ in range(_MAX_ITERATIONS):
        interference = 0.0
        for record in hp:
            quotient = response / record[0]
            nearest = round(quotient)
            diff = quotient - nearest
            if diff < 0.0:
                diff = -diff
            if nearest and diff <= rtol * (
                quotient if quotient > 1.0 else 1.0
            ):
                factor = nearest
            else:
                factor = ceil(quotient)
            interference += factor * record[1]
        updated = wcet + interference
        if updated > period:
            return _INF
        diff = updated - response
        if diff < 0.0:
            diff = -diff
        if diff <= 1e-12 * (updated if updated > 1.0 else 1.0):
            return updated
        response = updated
    raise ScheduleError(
        f"WCRT iteration did not converge within {_MAX_ITERATIONS} steps "
        f"for task {name!r}"
    )


def _bcrt_exact(bcet: float, hp: Sequence[TaskRecord], name: str) -> float:
    """Replica of :func:`repro.rta.bcrt.best_case_response_time`."""
    bcet_util = 0.0
    for record in hp:
        bcet_util += record[3]
    if bcet_util + 1e-12 >= 1.0:
        return _INF
    # Same builtin-free unrolling as :func:`_wcrt_exact`; skipping the
    # ``factor <= 1`` terms drops exact ``+ 0.0`` additions, which are
    # the identity on the non-negative interference accumulator.
    ceil = math.ceil
    rtol = _CEIL_RTOL
    response = bcet / (1.0 - bcet_util) + 1e-9
    for _ in range(_MAX_ITERATIONS):
        interference = 0.0
        for record in hp:
            quotient = response / record[0]
            nearest = round(quotient)
            diff = quotient - nearest
            if diff < 0.0:
                diff = -diff
            if nearest and diff <= rtol * (
                quotient if quotient > 1.0 else 1.0
            ):
                factor = nearest
            else:
                factor = ceil(quotient)
            if factor > 1:
                interference += (factor - 1) * record[2]
        updated = bcet + interference
        if updated > response + 1e-12 * (response if response > 1.0 else 1.0):
            raise ScheduleError(
                f"BCRT iteration increased for task {name!r}; "
                "seed was not an upper bound (numerical inconsistency)"
            )
        diff = updated - response
        if diff < 0.0:
            diff = -diff
        if diff <= 1e-12 * (updated if updated > 1.0 else 1.0):
            return updated
        response = updated
    raise ScheduleError(
        f"BCRT iteration did not converge within {_MAX_ITERATIONS} steps "
        f"for task {name!r}"
    )


def evaluate_candidate(
    record: TaskRecord, hp: Sequence[TaskRecord]
) -> Tuple[float, float, float]:
    """``(best, worst, slack)`` of one candidate at the lowest priority.

    The slack convention matches
    :func:`repro.assignment.predicate.stability_slack`: ``-inf`` on a
    deadline miss, the (scaled) deadline slack for tasks without a
    stability bound, the signed bound margin otherwise.
    """
    worst = _wcrt_exact(record[1], record[0], hp, record[5])
    best = _bcrt_exact(record[2], hp, record[5])
    if worst == _INF:
        return best, worst, _NEG_INF
    bound = record[4]
    if bound is None:
        return best, worst, record[0] - worst
    return best, worst, bound.slack(best, worst - best)
