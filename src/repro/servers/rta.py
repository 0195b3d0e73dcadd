"""Response-time analysis of fixed-priority tasks inside a server.

Generalises the paper's eqs. (3)-(4) from a dedicated processor to a
periodic resource: the processor-demand of task ``tau_i`` plus its
higher-priority interference must be *served*, and service follows the
supply envelopes of :mod:`repro.servers.model`:

    R^w_i = min { t : sbf(t) >= c^w_i + sum ceil(t/h_j) c^w_j }
    R^b_i = max fixed point of  t = inverse_msf(c^b_i +
                                     sum (ceil(t/h_j) - 1) c^b_j)

With a full-bandwidth server (``Theta = Pi``) both reduce exactly to the
plain Joseph-Pandya / Redell-Sanfridson analyses, which the tests assert.
The latency/jitter interface (paper eq. (2)) then feeds the same stability
bounds as on a dedicated processor -- this is how reference [12] sizes
servers for control loops.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import ScheduleError
from repro.rta.interface import ResponseTimes
from repro.rta.taskset import Task
from repro.rta.wcrt import guarded_ceil
from repro.servers.model import PeriodicServer

_MAX_ITERATIONS = 10_000


def server_worst_case_response_time(
    server: PeriodicServer,
    task: Task,
    higher_priority: Sequence[Task],
    *,
    limit: float = float("inf"),
) -> float:
    """Least solution of the served-demand equation; ``inf`` past ``limit``."""
    interference_util = sum(t.wcet / t.period for t in higher_priority)
    if interference_util >= server.bandwidth - 1e-12:
        # No supply is left for the task; as in the dedicated-processor
        # analysis, a finite limit yields inf without iterating.
        if math.isinf(limit):
            raise ScheduleError(
                "higher-priority demand reaches the server bandwidth: the "
                "response-time iteration may diverge; pass a finite limit"
            )
        return float("inf")

    response = server.inverse_sbf(task.wcet)
    for _ in range(_MAX_ITERATIONS):
        demand = task.wcet + sum(
            guarded_ceil(response / other.period) * other.wcet
            for other in higher_priority
        )
        updated = server.inverse_sbf(demand)
        if updated > limit:
            return float("inf")
        if abs(updated - response) <= 1e-12 * max(1.0, updated):
            return updated
        response = updated
    raise ScheduleError(
        f"server WCRT iteration did not converge for task {task.name!r}"
    )


def server_best_case_response_time(
    server: PeriodicServer,
    task: Task,
    higher_priority: Sequence[Task],
) -> float:
    """Greatest fixed point of the best-case served-demand equation.

    Seeded from the analytic upper bound of the *dedicated-processor* best
    case divided by the bandwidth: every fixed point ``t`` satisfies
    ``t <= inverse_msf(c^b + (t/h_j) c^b_j ...)`` and ``inverse_msf(x) <=
    x / bandwidth + (period - budget)``; solving the linear recursion gives
    the seed below.  The iteration is monotone decreasing from any upper
    bound, as in eq. (4).
    """
    bcet_util = sum(t.bcet / t.period for t in higher_priority)
    if bcet_util >= server.bandwidth - 1e-12:
        return float("inf")

    slack_term = server.period - server.budget
    seed = (task.bcet / server.bandwidth + slack_term) / (
        1.0 - bcet_util / server.bandwidth
    ) + 1e-9
    response = seed
    for _ in range(_MAX_ITERATIONS):
        demand = task.bcet + sum(
            max(0, guarded_ceil(response / other.period) - 1) * other.bcet
            for other in higher_priority
        )
        updated = server.inverse_msf(demand)
        if updated > response + 1e-9 * max(1.0, response):
            raise ScheduleError(
                f"server BCRT seed was not an upper bound for {task.name!r}"
            )
        if abs(updated - response) <= 1e-12 * max(1.0, updated):
            return updated
        response = updated
    raise ScheduleError(
        f"server BCRT iteration did not converge for task {task.name!r}"
    )


def server_latency_jitter(
    server: PeriodicServer,
    task: Task,
    higher_priority: Sequence[Task] = (),
    *,
    deadline: float | None = None,
) -> ResponseTimes:
    """Latency/jitter interface (eq. (2)) of a task hosted in a server."""
    limit = task.period if deadline is None else deadline
    worst = server_worst_case_response_time(
        server, task, higher_priority, limit=limit
    )
    best = server_best_case_response_time(server, task, higher_priority)
    return ResponseTimes(best=best, worst=worst)
