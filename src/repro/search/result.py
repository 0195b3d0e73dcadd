"""Common result type of all priority-assignment strategies."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.rta.taskset import TaskSet


@dataclass
class AssignmentResult:
    """Outcome of one priority-assignment run.

    Attributes
    ----------
    algorithm:
        Name of the algorithm that produced the result.
    priorities:
        Complete map task name -> priority (1 = lowest), or ``None`` when
        the algorithm declared failure without committing to an
        assignment (e.g. Audsley's OPA finding no feasible task).  Note
        that *Unsafe Quadratic always commits* -- its possible invalidity
        is only discovered by validation, which is the paper's point.
    claims_valid:
        What the algorithm believes about its own output: ``True`` if it
        checked every constraint along the way, ``False`` if it knowingly
        committed past a violated constraint, ``None`` if it performed no
        checks at all (pure heuristics).
    evaluations:
        Number of *logical* stability-constraint evaluations -- the
        paper's complexity measure.  Memoised runs report the identical
        number a from-scratch run would; see ``cache_hits``.
    cache_hits:
        How many of those evaluations the analysis memo answered from
        its subproblem cache instead of re-running the response-time
        analyses.  Always 0 for a cold memo on a tree without
        overlapping subproblems.
    backtracks:
        Number of times a partial assignment was abandoned.
    elapsed_seconds:
        Wall-clock time of the run (filled by the caller or the runner).
    """

    algorithm: str
    priorities: Optional[Dict[str, int]]
    claims_valid: Optional[bool]
    evaluations: int = 0
    backtracks: int = 0
    elapsed_seconds: float = 0.0
    cache_hits: int = 0

    @property
    def succeeded(self) -> bool:
        """An assignment was produced and the algorithm believes it valid."""
        return self.priorities is not None and bool(self.claims_valid)

    @property
    def recomputations(self) -> int:
        """Evaluations that actually ran the RTA kernels (memo misses)."""
        return self.evaluations - self.cache_hits

    def apply_to(self, taskset: TaskSet) -> TaskSet:
        """Return a copy of ``taskset`` carrying the assigned priorities."""
        if self.priorities is None:
            raise ValueError(f"{self.algorithm} produced no assignment")
        return taskset.with_priorities(self.priorities)

    def to_dict(self) -> Dict[str, Any]:
        """Flat, JSON-ready record (volatile wall-clock excluded)."""
        return {
            "algorithm": self.algorithm,
            "priorities": (
                None if self.priorities is None else dict(self.priorities)
            ),
            "claims_valid": self.claims_valid,
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "recomputations": self.recomputations,
            "backtracks": self.backtracks,
        }
