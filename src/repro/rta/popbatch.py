"""Population-vectorised RTA: stacked fixed points across task sets.

The scalar tier (:func:`repro.memo.kernels.evaluate_candidate`, which
:func:`repro.rta.batch.analyze_taskset` runs per task) solves one fixed
point at a time; this module vectorises *across the population*:
subproblems are stacked into padded ``(n_problems, n_hp)`` ndarrays and
every problem's best/worst-case response times iterate
**simultaneously**, with per-problem convergence masking.  This is the
second of the two kernel tiers (scalar / population) -- see the "Kernel
tiers" section of the README.

Bit-identity contract
---------------------
The stacked iterations reproduce the scalar fixed points *bit for bit*:

* the guarded ceiling uses the same relative guard and the same
  round-half-even nearest-integer decision
  (:func:`repro.rta.batch.guarded_ceil_array` == scalar
  :func:`repro.rta.wcrt.guarded_ceil` decisions);
* interference accumulates **sequentially over hp columns in task-set
  order** -- the padded (non-hp) columns hold ``(period, wcet, bcet,
  quotient) = (1, 0, 0, 0)`` so they contribute an exact ``+0.0``, which
  is a bitwise no-op on a non-negative IEEE-754 accumulator.  The true
  hp entries therefore accumulate with exactly the scalar operand order
  and associativity;
* divergence / error / convergence tests run in the scalar order with
  the scalar tolerances, and each problem's result is frozen on the
  iterate where the scalar loop would have returned it.

Problems that the stack cannot settle quickly (stragglers past
:data:`_STRAGGLER_ITERATIONS` rounds) or that hit an error condition are
recomputed from scratch through the scalar kernels, in input order -- so
pathological populations converge, and :class:`~repro.errors
.ScheduleError` carries the exact scalar message for the *first* failing
problem, exactly as a serial loop would raise it.

Both entry points iterate the same stacked fixed points and are pinned
to the one scalar kernel:

* :func:`analyze_population` -- many task sets at once, grouped by task
  count into ``(S*m, m)`` stacks; bit-identical to
  ``[analyze_taskset(ts) for ts in tasksets]`` (the façade contract);
* :func:`evaluate_problems` -- many ``(candidate, hp-set)`` subproblems
  at once, bit-identical to ``[evaluate_candidate(r, hp) ...]`` (the
  memo contract the detectors and search strategies consume).

The ``population_kernel`` escape hatch (``on``/``off``, CLI flags, or
the ``REPRO_POPULATION_KERNEL`` environment variable, which worker
processes inherit) routes everything back through the scalar tier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.memo.kernels import TaskRecord, evaluate_candidate
from repro.rta.batch import analyze_taskset, guarded_ceil_array
from repro.rta.interface import TasksetAnalysis, assemble_analysis
from repro.rta.taskset import TaskSet
from repro.tiers import (
    POPULATION_KERNEL_ENV,
    observe_tier as _observe_tier,
    resolve_population_flag,
)

#: Task-set populations smaller than this run the scalar tier
#: (:func:`~repro.rta.batch.analyze_taskset`): below ~16 sets the
#: ndarray setup costs more than the stack saves (measured crossover on
#: the census benchmark mix).
MIN_POPULATION = 16

#: Candidate-problem populations with fewer *distinct* problems than
#: this run the scalar kernels: below ~32 problems the ndarray setup
#: costs more than the stack saves (measured crossover against the
#: unrolled scalar kernels, which moved it up from 16).
MIN_PROBLEM_POPULATION = 32

#: Problem lists shorter than this skip the dedup pre-pass entirely:
#: repeats only appear in the detector-sized lists (dozens of problems),
#: and the id-tuple keys are pure overhead for the memo's small
#: per-level batches.
_DEDUP_MIN_PROBLEMS = 12

#: Stacked rounds before remaining active problems fall back to the
#: scalar kernels.  Well-conditioned RTA fixed points settle in a few
#: dozen iterations; a straggler forces full-width array work on every
#: round, so past this point per-problem scalar loops are cheaper (and
#: reproduce the scalar 10k-iteration/error behaviour by construction).
_STRAGGLER_ITERATIONS = 128

#: Convergence tolerance shared with the scalar fixed points.
_FP_RTOL = 1e-12

_INF = float("inf")
_NEG_INF = float("-inf")


@dataclass
class _ProblemStack:
    """Padded population of ``(candidate, hp-set)`` fixed-point problems.

    Row ``p`` holds one candidate; the ``H`` hp columns are in task-set
    order with non-hp slots padded to ``(period, wcet, bcet, quot) =
    (1, 0, 0, 0)`` -- exact-zero contributions in every accumulation.
    """

    period: np.ndarray  # (P,)
    wcet: np.ndarray  # (P,)
    bcet: np.ndarray  # (P,)
    hp_period: np.ndarray  # (P, H)
    hp_wcet: np.ndarray  # (P, H)
    hp_bcet: np.ndarray  # (P, H)
    hp_quot: np.ndarray  # (P, H) precomputed bcet/period records

    @property
    def n_problems(self) -> int:
        return self.period.shape[0]


def _column_sums(matrix: np.ndarray) -> np.ndarray:
    """Sequential left-to-right column accumulation (scalar add order)."""
    total = np.zeros(matrix.shape[0])
    for j in range(matrix.shape[1]):
        total = total + matrix[:, j]
    return total


def _stacked_wcrt(stack: _ProblemStack) -> Tuple[np.ndarray, np.ndarray]:
    """Stacked least fixed point of eq. (3) with ``limit = period``.

    Returns ``(worst, fallback)``: per-problem response times (``inf``
    where the iterate exceeds the period or the hp set is saturated) and
    a mask of problems the caller must recompute through the scalar
    kernel (stragglers, and saturated rows under an infinite period).
    The iteration mirrors
    ``repro.memo.kernels._wcrt_exact`` step for step.
    """
    period, wcet = stack.period, stack.wcet
    hp_period, hp_wcet = stack.hp_period, stack.hp_wcet
    n = stack.n_problems
    result = np.zeros(n)
    # Pad columns contribute 0 / 1 == +0.0 to the utilisation.  Under an
    # infinite period the scalar kernel raises on a saturated hp set, so
    # those rows fall back to it for the exact error.
    saturated = _column_sums(hp_wcet / hp_period) + 1e-12 >= 1.0
    fallback = saturated & np.isinf(period)
    result[saturated] = _INF
    active = ~saturated
    if not active.any():
        return result, fallback

    # Frozen rows keep a harmless finite response so the full-width
    # arithmetic never produces inf/nan that could leak via masks.
    response = np.where(active, wcet, 1.0)
    for _ in range(_STRAGGLER_ITERATIONS):
        ceils = guarded_ceil_array(response[:, None] / hp_period)
        interference = _column_sums(ceils * hp_wcet)
        updated = wcet + interference
        diverged = active & (updated > period)
        result[diverged] = _INF
        converged = (
            active
            & ~diverged
            & (
                np.abs(updated - response)
                <= _FP_RTOL * np.maximum(1.0, updated)
            )
        )
        result[converged] = updated[converged]
        active &= ~diverged & ~converged
        if not active.any():
            return result, fallback
        response = np.where(active, updated, 1.0)
    fallback[active] = True
    return result, fallback


def _stacked_bcrt(stack: _ProblemStack) -> Tuple[np.ndarray, np.ndarray]:
    """Stacked greatest fixed point of eq. (4), seeded from the
    utilisation bound.

    Returns ``(best, fallback)``; error conditions (an iterate that
    *increases*, which the scalar kernel reports as a
    :class:`~repro.errors.ScheduleError`) are routed to the scalar
    fallback so the exception text matches exactly.
    """
    bcet = stack.bcet
    hp_period, hp_bcet = stack.hp_period, stack.hp_bcet
    n = stack.n_problems
    result = np.zeros(n)
    fallback = np.zeros(n, dtype=bool)
    active = np.ones(n, dtype=bool)

    bcet_util = _column_sums(stack.hp_quot)
    saturated = active & (bcet_util + 1e-12 >= 1.0)
    result[saturated] = _INF
    active &= ~saturated
    if not active.any():
        return result, fallback

    denominator = np.where(active, 1.0 - bcet_util, 1.0)
    response = np.where(active, bcet / denominator + 1e-9, 1.0)
    for _ in range(_STRAGGLER_ITERATIONS):
        ceils = guarded_ceil_array(response[:, None] / hp_period)
        interference = _column_sums(
            np.maximum(ceils - 1.0, 0.0) * hp_bcet
        )
        updated = bcet + interference
        errored = active & (
            updated > response + _FP_RTOL * np.maximum(1.0, response)
        )
        fallback |= errored
        converged = (
            active
            & ~errored
            & (
                np.abs(updated - response)
                <= _FP_RTOL * np.maximum(1.0, updated)
            )
        )
        result[converged] = updated[converged]
        active &= ~errored & ~converged
        if not active.any():
            return result, fallback
        response = np.where(active, updated, 1.0)
    fallback[active] = True
    return result, fallback


# ----------------------------------------------------------------------
# Task-set populations (the analyze_taskset contract)
# ----------------------------------------------------------------------

def _stack_tasksets(tasksets: Sequence[TaskSet], m: int) -> Tuple[_ProblemStack, list]:
    """Pad a group of ``m``-task sets into one ``(S*m, m)`` problem stack.

    Row ``s*m + i`` is task ``i`` of set ``s`` against its hp columns
    ``j`` (``priority[j] > priority[i]``), all other columns padded.
    """
    task_lists = [list(ts) for ts in tasksets]
    s = len(task_lists)
    period = np.array([[t.period for t in tasks] for tasks in task_lists])
    wcet = np.array([[t.wcet for t in tasks] for tasks in task_lists])
    bcet = np.array([[t.bcet for t in tasks] for tasks in task_lists])
    quot = np.array(
        [[t.bcet / t.period for t in tasks] for tasks in task_lists]
    )
    prio = np.array(
        [[t.priority for t in tasks] for tasks in task_lists], dtype=float
    )
    # mask[s, i, j]: task j interferes with task i of set s.
    mask = prio[:, None, :] > prio[:, :, None]
    shape = (s * m, m)
    stack = _ProblemStack(
        period=period.reshape(s * m),
        wcet=wcet.reshape(s * m),
        bcet=bcet.reshape(s * m),
        hp_period=np.where(mask, period[:, None, :], 1.0).reshape(shape),
        hp_wcet=np.where(mask, wcet[:, None, :], 0.0).reshape(shape),
        hp_bcet=np.where(mask, bcet[:, None, :], 0.0).reshape(shape),
        hp_quot=np.where(mask, quot[:, None, :], 0.0).reshape(shape),
    )
    return stack, task_lists


def analyze_population(
    tasksets: Sequence[TaskSet],
    *,
    population_kernel: Union[None, bool, str] = None,
) -> List[TasksetAnalysis]:
    """Analyse many task sets through the population kernel tier.

    Bit-identical to ``[analyze_taskset(ts) for ts in tasksets]`` (the
    equivalence suite in ``tests/rta/test_popbatch.py`` pins this on
    random mixed populations): task sets are grouped by task count,
    stacked, and iterated together; groups too small to pay for the
    stacking -- and the population as a whole when ``population_kernel``
    resolves to off -- run the scalar tier.
    """
    tasksets = list(tasksets)
    if not resolve_population_flag(population_kernel) or (
        len(tasksets) < MIN_POPULATION
    ):
        if tasksets:
            _observe_tier("scalar", len(tasksets), len(tasksets))
        return [analyze_taskset(ts) for ts in tasksets]

    groups = {}
    for index, taskset in enumerate(tasksets):
        taskset.check_distinct_priorities()
        groups.setdefault(len(taskset), []).append(index)

    results: List[Optional[TasksetAnalysis]] = [None] * len(tasksets)
    scalar_rerun: List[int] = []
    for m, indices in groups.items():
        group_sets = [tasksets[i] for i in indices]
        if m == 0 or len(indices) < 2:
            scalar_rerun.extend(indices)
            continue
        stack, task_lists = _stack_tasksets(group_sets, m)
        worst, fb_w = _stacked_wcrt(stack)
        best, fb_b = _stacked_bcrt(stack)
        needs_scalar = (fb_w | fb_b).reshape(len(indices), m).any(axis=1)
        pairs = list(zip(best.tolist(), worst.tolist()))
        _observe_tier("popbatch", len(indices), len(indices))
        for g, index in enumerate(indices):
            if needs_scalar[g]:
                scalar_rerun.append(index)
                continue
            results[index] = assemble_analysis(
                task_lists[g], pairs[g * m : (g + 1) * m]
            )
    # Stragglers and error conditions recompute scalar, in input order,
    # so any ScheduleError raises exactly as the serial loop would.
    for index in sorted(scalar_rerun):
        results[index] = analyze_taskset(tasksets[index])
    return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Candidate-problem populations (the memo-kernel contract)
# ----------------------------------------------------------------------

#: One subproblem: an interned candidate record against its hp records,
#: enumerated in the caller's (task-set) order.
Problem = Tuple[TaskRecord, Sequence[TaskRecord]]


def _stack_problems(problems: Sequence[Problem]) -> _ProblemStack:
    n = len(problems)
    candidates = np.array([record[:3] for record, _ in problems], dtype=float)
    hp_count = np.fromiter(
        (len(hp) for _, hp in problems), dtype=np.intp, count=n
    )
    h = max(int(hp_count.max(initial=0)), 1)  # keep (P, H) two-dimensional
    hp_period = np.ones((n, h))
    hp_wcet = np.zeros((n, h))
    hp_bcet = np.zeros((n, h))
    hp_quot = np.zeros((n, h))
    flat = [other[:4] for _, hp in problems for other in hp]
    if flat:
        # Scatter the ragged hp rows into the padded stack in one fancy
        # assignment per column; pad cells keep their neutral defaults.
        values = np.array(flat, dtype=float)
        rows = np.repeat(np.arange(n), hp_count)
        offsets = np.cumsum(hp_count) - hp_count
        cols = np.arange(len(flat)) - np.repeat(offsets, hp_count)
        hp_period[rows, cols] = values[:, 0]
        hp_wcet[rows, cols] = values[:, 1]
        hp_bcet[rows, cols] = values[:, 2]
        hp_quot[rows, cols] = values[:, 3]
    return _ProblemStack(
        period=candidates[:, 0],
        wcet=candidates[:, 1],
        bcet=candidates[:, 2],
        hp_period=hp_period,
        hp_wcet=hp_wcet,
        hp_bcet=hp_bcet,
        hp_quot=hp_quot,
    )


def _problem_entry(
    record: TaskRecord, best: float, worst: float
) -> Tuple[float, float, float]:
    """``(best, worst, slack)`` with the ``evaluate_candidate`` slack
    convention."""
    if worst == _INF:
        return best, worst, _NEG_INF
    bound = record[4]
    if bound is None:
        return best, worst, record[0] - worst
    return best, worst, bound.slack(best, worst - best)


def evaluate_problems(
    problems: Sequence[Problem],
    *,
    population_kernel: Union[None, bool, str] = None,
) -> List[Tuple[float, float, float]]:
    """Evaluate many ``(candidate, hp-set)`` subproblems at once.

    Bit-identical to ``[evaluate_candidate(r, hp) for r, hp in
    problems]`` -- the memo-kernel contract, which is what the anomaly
    detectors' and search strategies' pinned goldens rely on.  Problems of different hp sizes
    share one stack: the pad columns contribute exact ``+0.0``.
    """
    problems = list(problems)
    if not problems:
        return []
    if len(problems) < _DEDUP_MIN_PROBLEMS:
        # Small batches (the memo's per-level candidate lists) almost
        # never repeat a subproblem, so the dedup bookkeeping below
        # would cost more than it saves.
        _observe_tier("scalar", len(problems), len(problems))
        return [evaluate_candidate(record, hp) for record, hp in problems]

    # Dedupe repeated subproblems first: the anomaly detectors re-pose
    # each task's unchanged "before" problem once per interferer and
    # once per family, so the unique set is often 2-3x smaller.  Keys
    # are object identities of the (record, hp-container) pair --
    # records and the repeated hp lists are interned per caller
    # (:func:`repro.anomalies.detectors._before_hp_map`), so repeats
    # share the exact objects, and distinct-content problems can never
    # collide; content-equal problems in distinct containers merely
    # evaluate twice, which is correct either way.  Equal problems have
    # equal entries, and both tiers below walk the *input* order while
    # evaluating each unique problem once, so the first
    # :class:`~repro.errors.ScheduleError` raises on the same problem as
    # the strictly serial loop (a failing problem always fails at its
    # first occurrence, and everything before it succeeded).
    unique_of: dict = {}
    uniques: List[Problem] = []
    positions = []
    for problem in problems:
        key = (id(problem[0]), id(problem[1]))
        u = unique_of.get(key)
        if u is None:
            u = len(uniques)
            unique_of[key] = u
            uniques.append(problem)
        positions.append(u)

    entries: List[Optional[Tuple[float, float, float]]] = [None] * len(problems)
    unique_entries: List[Optional[Tuple[float, float, float]]] = [
        None
    ] * len(uniques)
    if not resolve_population_flag(population_kernel) or (
        len(uniques) < MIN_PROBLEM_POPULATION
    ):
        _observe_tier("scalar", len(problems), len(problems))
        for p, u in enumerate(positions):
            entry = unique_entries[u]
            if entry is None:
                record, hp = uniques[u]
                entry = unique_entries[u] = evaluate_candidate(record, hp)
            entries[p] = entry
        return entries  # type: ignore[return-value]

    stack = _stack_problems(uniques)
    worst, fb_w = _stacked_wcrt(stack)
    best, fb_b = _stacked_bcrt(stack)
    needs_scalar = fb_w | fb_b
    _observe_tier("popbatch", len(problems), len(problems))
    for p, u in enumerate(positions):
        entry = unique_entries[u]
        if entry is None:
            record, hp = uniques[u]
            if needs_scalar[u]:
                entry = evaluate_candidate(record, hp)
            else:
                entry = _problem_entry(record, float(best[u]), float(worst[u]))
            unique_entries[u] = entry
        entries[p] = entry
    return entries  # type: ignore[return-value]
