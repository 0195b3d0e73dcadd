"""Minimum-bandwidth server synthesis for a control task (ref [12]).

Design question: a control task (period, execution-time bounds, stability
constraint) is to be hosted in its own periodic server with a given server
period; what is the *smallest budget* that keeps the plant stable?

The anomaly-aware subtlety -- the reason this module evaluates instead of
bisecting -- concerns *shared* servers: when the control task has
higher-priority companions inside the server, its jitter is **not**
monotone in the budget (growing the budget shifts the interleaving of
budget chunks and preemptions; a pinned counter-example lives in
``tests/servers/test_rta.py``), so "more budget" can violate
``L + aJ <= b`` where less budget satisfied it.  For a task running alone
the interface is benign (``J = 2 (Pi - Theta)`` exactly, monotone), but
the synthesis keeps one uniform, verified grid scan for both cases -- the
paper's prescription: exploit trends for ordering, never for soundness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.api.service import verdict_from_times
from repro.errors import ModelError
from repro.rta.taskset import Task
from repro.memo import AnalysisMemo
from repro.servers.model import PeriodicServer
from repro.servers.rta import server_latency_jitter


@dataclass(frozen=True)
class ServerDesignResult:
    """Outcome of the minimum-bandwidth search."""

    server: PeriodicServer
    latency: float
    jitter: float
    evaluations: int
    stable_budgets: Tuple[float, ...]
    anomalous: bool  # stability was non-monotone across the budget grid

    @property
    def bandwidth(self) -> float:
        return self.server.bandwidth


def minimum_bandwidth_server(
    task: Task,
    server_period: float,
    *,
    companions: Tuple[Task, ...] = (),
    grid_points: int = 64,
    memo: Optional[AnalysisMemo] = None,
) -> Optional[ServerDesignResult]:
    """Smallest-budget periodic server keeping ``task`` stable.

    By default the task runs alone in the server (the isolation scenario
    of [12]); ``companions`` adds higher-priority tasks sharing the same
    server.  Stability means: deadline met (``R^w <= h``) and, if the task
    carries a bound, ``L + aJ <= b``.  Returns ``None`` when no budget up
    to the full server period works.

    The candidate scan runs on an :class:`~repro.memo.AnalysisMemo` run
    (pass ``memo=`` to pool its evaluation accounting with other searches);
    server-supply subproblems are keyed by budget, not hp-set, so they
    are counted rather than memoised.
    """
    if task.stability is None:
        raise ModelError(
            f"task {task.name!r} has no stability bound; server sizing "
            "needs the control constraint"
        )
    if server_period <= 0:
        raise ModelError(f"server period must be positive, got {server_period}")
    if grid_points < 2:
        raise ModelError("need at least two candidate budgets")

    run = (memo if memo is not None else AnalysisMemo()).run()
    budgets = np.linspace(0.0, server_period, grid_points + 1)[1:]
    stable: List[Tuple[float, float, float]] = []  # (budget, L, J)
    verdicts: List[bool] = []
    for budget in budgets:
        server = PeriodicServer(budget=float(budget), period=server_period)
        # Served-supply response times, judged by the same (L, J) -> margin
        # step of the façade that dedicated-processor analyses use; the
        # evaluation is tallied into the shared analysis-memo counter.
        run.count_external()
        verdict = verdict_from_times(
            task, server_latency_jitter(server, task, companions)
        )
        verdicts.append(verdict.ok)
        if verdict.ok:
            stable.append((float(budget), verdict.latency, verdict.jitter))
    evaluations = run.counter.count
    if not stable:
        return None
    # Non-monotone stability across the grid = a server-budget anomaly.
    first_true = verdicts.index(True)
    anomalous = not all(verdicts[first_true:])
    budget, latency, jitter = stable[0]
    return ServerDesignResult(
        server=PeriodicServer(budget=budget, period=server_period),
        latency=latency,
        jitter=jitter,
        evaluations=evaluations,
        stable_budgets=tuple(b for b, _, _ in stable),
        anomalous=anomalous,
    )
