"""Classic Audsley optimal priority assignment (paper reference [16]).

Bottom-up greedy *without* backtracking: at each level, commit to the
best-slack task whose constraint holds; declare failure if none does.
Audsley's optimality theorem guarantees completeness when the feasibility
predicate depends only on the *set* of higher-priority tasks and is
monotone under removing interference.  The latency/jitter stability
predicate satisfies the first condition but -- as the paper's anomalies
show -- not always the second, so OPA here is sound but *incomplete*: it
can fail on instances the backtracking algorithm solves.  Unlike Unsafe
Quadratic, it never commits past a violated constraint.

Implemented as the ``"audsley"`` strategy of :mod:`repro.search`; this
module is the stable entry point.
"""

from __future__ import annotations

from typing import Optional

from repro.rta.taskset import TaskSet
from repro.memo import AnalysisMemo
from repro.search.engine import run_strategy
from repro.search.result import AssignmentResult


def assign_audsley(
    taskset: TaskSet, *, memo: Optional[AnalysisMemo] = None
) -> AssignmentResult:
    """OPA with max-slack tie-breaking; fails cleanly at dead ends."""
    return run_strategy("audsley", taskset, memo=memo)
