"""Exact worst-case response-time analysis (paper eq. (3)).

Joseph & Pandya (1986): under fixed-priority preemptive scheduling with
independent tasks, synchronous release is the critical instant and the
worst-case response time of ``tau_i`` is the least fixed point of::

    R^w_i = c^w_i + sum_{j in hp(i)} ceil(R^w_i / h_j) * c^w_j

valid while ``R^w_i <= h_i`` (implicit deadlines, no carry-in), which all
callers enforce when using the result.

Floating-point ceilings: periods and execution times come from continuous
plant dynamics, so quotients can land within rounding error of an integer.
``ceil`` is evaluated with a relative guard so that ``ceil(k +/- 1e-12)``
is ``k`` for every integer ``k >= 1`` -- without the guard, anomaly
*detection* (which compares response times across minutely different
configurations) becomes noise-driven.  The guard never rounds a positive
quotient down to 0: that would drop a released higher-priority job.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.errors import ScheduleError
from repro.rta.taskset import Task

#: Relative tolerance for quotient-boundary decisions.
_CEIL_RTOL = 1e-9

#: Error text of a saturated hp set under an infinite limit.
SATURATED_DIVERGES = (
    "higher-priority utilisation >= 1: the response-time fixed "
    "point diverges; pass a finite limit to get inf instead"
)


def guarded_ceil(quotient: float) -> int:
    """``ceil`` that treats values within ``1e-9`` (relative) of a nonzero
    integer as that integer.

    The guard never snaps to 0: a positive quotient, however small, means
    the interfering task has released a job, so it ceils to 1.
    """
    nearest = round(quotient)
    if nearest and abs(quotient - nearest) <= _CEIL_RTOL * max(
        1.0, abs(quotient)
    ):
        return int(nearest)
    return int(math.ceil(quotient))


def worst_case_response_time(
    task: Task,
    higher_priority: Sequence[Task],
    *,
    limit: float = float("inf"),
    max_iterations: int = 10_000,
) -> float:
    """Least fixed point of eq. (3); ``inf`` if it exceeds ``limit``.

    Parameters
    ----------
    task:
        The task under analysis (only ``wcet`` is used).
    higher_priority:
        The interfering tasks ``hp(tau_i)`` (``wcet`` and ``period`` used).
    limit:
        Divergence guard: once the iterate exceeds ``limit`` the analysis
        returns ``inf``.  Callers checking implicit deadlines pass the
        period; the default is a pure busy-period computation, guarded by
        the utilisation test below.

    An interfering load ``>= 1`` leaves the task no processor time, so
    with a finite ``limit`` the result is ``inf`` without iterating.
    Iterating could stop short: the ceiling guard reads a quotient just
    above an integer as that integer, which on a saturated hp set can
    drop a released job and close a spurious fixed point.

    Raises
    ------
    ScheduleError
        If the fixed point cannot be bracketed because the interfering load
        is >= 1 and no finite ``limit`` was given.
    """
    interference_util = sum(t.wcet / t.period for t in higher_priority)
    if interference_util + 1e-12 >= 1.0:
        if math.isinf(limit):
            raise ScheduleError(SATURATED_DIVERGES)
        return float("inf")

    response = task.wcet
    for _ in range(max_iterations):
        interference = sum(
            guarded_ceil(response / other.period) * other.wcet
            for other in higher_priority
        )
        updated = task.wcet + interference
        if updated > limit:
            return float("inf")
        if abs(updated - response) <= 1e-12 * max(1.0, updated):
            return updated
        response = updated
    raise ScheduleError(
        f"WCRT iteration did not converge within {max_iterations} steps "
        f"for task {task.name!r}"
    )
