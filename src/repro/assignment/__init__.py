"""Priority assignment for control task sets (paper sec. IV-V).

The paper's case study: assign distinct fixed priorities to ``n`` control
tasks so that every task's stability constraint ``L_i + a_i J_i <= b_i``
holds under the exact response-time interface.

* :mod:`~repro.assignment.backtracking` -- **Algorithm 1** of the paper:
  bottom-up assignment with backtracking; correct under anomalies,
  exponential worst case, quadratic on average.
* :mod:`~repro.assignment.unsafe_quadratic` -- the baseline of the
  experiments ("Unsafe Quadratic"): the EMSOFT'13-style greedy, modified to
  use exact response times; O(n^2) constraint evaluations, but trusts
  monotonicity and may emit an invalid assignment when anomalies strike.
* :mod:`~repro.assignment.audsley` -- classic Audsley OPA (reference [16]),
  with a pluggable feasibility predicate.
* :mod:`~repro.assignment.exhaustive` -- brute-force ground truth for
  small ``n``.
* :mod:`~repro.assignment.heuristics` -- rate-monotonic and
  slack-monotonic orderings (ablation baselines).
* :mod:`~repro.assignment.validate` -- exact validity verdict of a
  complete assignment.

All algorithms report the number of stability-constraint evaluations they
performed, the currency in which the paper measures design complexity.

The algorithms are strategies of the unified :mod:`repro.search`
engine: every entry point accepts an optional ``memo=``
(:class:`repro.memo.AnalysisMemo`) that shares the
memoised ``(task, hp-set)`` subproblem cache -- and the batched sibling
kernels -- across runs, while the reported evaluation counts stay exactly
the paper's logical metric.
"""

from repro.assignment.audsley import assign_audsley
from repro.assignment.backtracking import assign_backtracking
from repro.assignment.exhaustive import assign_exhaustive, count_valid_orders
from repro.assignment.heuristics import (
    assign_rate_monotonic,
    assign_slack_monotonic,
)
from repro.assignment.unsafe_quadratic import assign_unsafe_quadratic
from repro.assignment.validate import ValidationReport, validate_assignment
from repro.search.result import AssignmentResult

__all__ = [
    "AssignmentResult",
    "assign_backtracking",
    "assign_unsafe_quadratic",
    "assign_audsley",
    "assign_exhaustive",
    "count_valid_orders",
    "assign_rate_monotonic",
    "assign_slack_monotonic",
    "validate_assignment",
    "ValidationReport",
]
