"""Facade calls behind the backends' serving entry point, ``compute``.

:meth:`~repro.exec.backends.PoolBackend.compute` sends
:func:`facade_slice` to workers: one slice of a daemon batch, each
payload computed through the public :mod:`repro.api` facade with the
ambient worker-lifetime memo.
:meth:`~repro.exec.backends.SerialBackend.compute` calls
:func:`compute_one` in-process with its own memo.  Kept separate from
the backends so the worker path, the parent's failover path and the
serial path share one definition (identical result shapes, identical
bytes).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.exec.workerenv import worker_memo

#: One computed response: ``(ok, body, meta)`` -- the daemon dispatch
#: result shape (meta carries the report summary for the obs window).
PoolResult = Tuple[bool, str, Optional[Dict[str, Any]]]


def _error_body(exc: BaseException) -> str:
    return json.dumps(
        {"error": str(exc)}, sort_keys=True, separators=(",", ":")
    )


def compute_one(group: Tuple[str, ...], system: Any, memo=None) -> PoolResult:
    """Compute one model through the facade; never raises.

    Shared by both backends' ``compute`` and the pool's failover path,
    so every topology produces identical result shapes (and identical
    bytes -- the memo=/memo-less outputs are bit-identical by the memo
    contract).  With a ``memo``, ``meta`` also carries this model's memo
    deltas (``memo_hits``, ``memo_recomputations``); they are exact as
    long as the calling thread is the memo's only writer.
    """
    from repro.api.service import analyze, assign

    if memo is not None:
        before = memo.stats()
    meta: Optional[Dict[str, Any]] = None
    try:
        if group[0] == "analyze":
            report = analyze(system, memo=memo)
            body = report.report_json()
            meta = {"summary": report.summary()}
        else:
            # validation_memo, not memo: a warm *search* memo would change
            # the outcome's canonical cache_hits field and break wire
            # byte-identity with cold facade calls.
            body = assign(
                system, algorithm=group[1], validation_memo=memo
            ).outcome_json()
    except Exception as exc:  # noqa: BLE001 -- isolate the poisoned model
        return False, _error_body(exc), None
    if memo is not None:
        after = memo.stats()
        meta = dict(
            meta or {},
            memo_hits=after["cache_hits"] - before["cache_hits"],
            memo_recomputations=(
                after["recomputations"] - before["recomputations"]
            ),
        )
    return True, body, meta


def facade_slice(
    group: Tuple[str, ...], systems: List[Any]
) -> List[PoolResult]:
    """One slice of a serving batch, computed with the ambient memo."""
    memo = worker_memo()
    return [compute_one(group, system, memo) for system in systems]
