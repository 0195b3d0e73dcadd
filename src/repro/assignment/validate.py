"""Exact validation of complete priority assignments.

The experiments of the paper hinge on an independent notion of validity:
an assignment is valid iff *every* task, under the exact response-time
interface induced by the full assignment, meets its implicit deadline and
its stability constraint.  The unsafe algorithms are judged against this,
never against their own beliefs.

:func:`validate_assignment` is a thin wrapper over the unified analysis
façade; :func:`repro.api.analyze` returns the same verdicts plus slacks
in the canonical JSON schema (:class:`repro.api.AnalysisReport`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.rta.interface import ResponseTimes
from repro.rta.taskset import TaskSet


@dataclass(frozen=True)
class TaskVerdict:
    """Validation detail of one task."""

    times: ResponseTimes
    deadline_met: bool
    stable: bool

    @property
    def ok(self) -> bool:
        return self.deadline_met and self.stable


@dataclass(frozen=True)
class ValidationReport:
    """Validation of a complete assignment, with per-task detail."""

    verdicts: Dict[str, TaskVerdict]

    @property
    def valid(self) -> bool:
        return all(v.ok for v in self.verdicts.values())

    @property
    def violating_tasks(self) -> tuple:
        return tuple(name for name, v in self.verdicts.items() if not v.ok)


def validate_assignment(taskset: TaskSet) -> ValidationReport:
    """Check deadlines and stability of every task under its priorities.

    Delegates to :func:`repro.api.analyze` (imported lazily: the façade
    sits above this package) and repackages the per-task verdicts into
    the legacy report shape.
    """
    from repro.api.service import analyze

    report = analyze(taskset)
    verdicts: Dict[str, TaskVerdict] = {
        verdict.name: TaskVerdict(
            times=verdict.times,
            deadline_met=verdict.deadline_met,
            stable=verdict.stable,
        )
        for verdict in report.verdicts
    }
    return ValidationReport(verdicts=verdicts)
