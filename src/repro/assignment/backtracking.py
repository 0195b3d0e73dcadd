"""Algorithm 1 of the paper: backtracking priority assignment.

Bottom-up search: find a task that can take the lowest priority (its exact
latency/jitter against *all remaining tasks* satisfies its stability
bound), commit, recurse on the rest with the next priority level; on
failure, un-commit and try the next candidate.  Because the constraint
checked at each level is exact for the final assignment (the
higher-priority set of the committed task is exactly the remaining set),
the algorithm is sound; because it enumerates all candidates at every
level, it is complete -- anomalies cost backtracking steps, never
correctness.

Candidates at each level are tried in decreasing stability-slack order.
When the monotonicity property holds (almost always, per the paper's
experiments) the first candidate succeeds, the recursion never backtracks,
and the run costs ``n + (n-1) + ... + 1`` constraint evaluations --
quadratic on average, exactly the behaviour of Fig. 5.  The worst case is
exponential; ``max_evaluations`` bounds the search for pathological
instances (failure is then reported rather than silent).

Implemented as the ``"backtracking"`` strategy of :mod:`repro.search`:
levels are scored through the batched sibling kernel, and on a shared
:class:`~repro.memo.AnalysisMemo` the tree never re-evaluates
a visited ``(task, hp-set)`` subproblem.
"""

from __future__ import annotations

from typing import Optional

from repro.rta.taskset import TaskSet
from repro.memo import AnalysisMemo
from repro.search.engine import run_strategy
from repro.search.result import AssignmentResult


def assign_backtracking(
    taskset: TaskSet,
    *,
    max_evaluations: int = 10_000_000,
    memo: Optional[AnalysisMemo] = None,
) -> AssignmentResult:
    """Run Algorithm 1 and return the discovered assignment.

    Returns a result with ``priorities=None`` when the search space is
    exhausted (no valid assignment exists) or the evaluation budget is hit.
    """
    return run_strategy(
        "backtracking",
        taskset,
        memo=memo,
        max_evaluations=max_evaluations,
    )
