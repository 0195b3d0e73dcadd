"""The engine entry point: run one strategy on one task set.

``run_strategy`` is what the thin wrappers in :mod:`repro.assignment`,
the façade's :func:`repro.api.assign`, the codesign loop, and the
``assign`` experiment all call.  Passing an explicit
:class:`~repro.memo.AnalysisMemo` via ``memo=`` shares the subproblem
memo across runs; omitting it gives the classic cold-start behaviour.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.errors import ModelError
from repro.memo import AnalysisMemo
from repro.rta.taskset import TaskSet
from repro.search.result import AssignmentResult
from repro.search.strategies import STRATEGIES


def run_strategy(
    algorithm: str,
    taskset: TaskSet,
    *,
    memo: Optional[AnalysisMemo] = None,
    **options,
) -> AssignmentResult:
    """Run one assignment algorithm, optionally on a shared memo.

    ``options`` are strategy-specific (``max_evaluations`` for
    ``backtracking``); unknown options are rejected by name.  The
    result reports the paper's logical evaluation count plus the memo's
    ``cache_hits`` for this run.
    """
    strategy = STRATEGIES.get(algorithm)
    if strategy is None:
        raise ModelError(
            f"unknown assignment algorithm {algorithm!r}; "
            f"known: {sorted(STRATEGIES)}"
        )
    run = (memo if memo is not None else AnalysisMemo()).run()
    start = time.perf_counter()
    priorities, claims_valid, backtracks = strategy.search(
        taskset, run, **options
    )
    return AssignmentResult(
        algorithm=strategy.name,
        priorities=priorities,
        claims_valid=claims_valid,
        evaluations=run.counter.count,
        backtracks=backtracks,
        elapsed_seconds=time.perf_counter() - start,
        cache_hits=run.counter.hits,
    )
