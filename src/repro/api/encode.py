"""Schema-compiled canonical JSON for the façade's three wire schemas.

The analysis report, the assignment outcome and the system model (whose
hash is the daemon's cache key) have fixed key sets, so their canonical
form -- sorted keys, compact separators, non-finite floats as sentinel
strings, sentinel-like strings escaped with ``~`` (the rules of
:mod:`repro.sweep.result`) -- is written here directly in pre-sorted key
order: each float is checked for a non-finite value once, each string
escaped once, and a report's body is hashed once with its
``canonical_sha256`` member (which sorts first) prepended instead of
dumped a second time.

Every writer is byte-identical to :func:`~repro.sweep.result.canonical_dumps`
of the matching ``to_dict()`` view; that generic walk stays the test
oracle (``tests/api/test_schema_encoder.py``).  A value of a type the
schema does not expect -- a numpy scalar, a subclass, a container --
takes the generic walk for that one value, so its bytes, and the
``TypeError`` of a type ``json`` rejects, match the oracle by
construction.
"""

from __future__ import annotations

import hashlib
from json.encoder import encode_basestring_ascii
from typing import Any, Tuple

from repro.sweep.result import canonical_dumps, escape_sentinel

#: Version of the report (and system-model) JSON schema.  Bump on any
#: field addition/removal/semantic change; the API-surface snapshot test
#: pins it so accidental schema drift fails CI in seconds.
SCHEMA_VERSION = 1

#: ``float.__repr__`` spellings of the non-finite floats -> JSON sentinels.
_NONFINITE = {"nan": '"NaN"', "inf": '"Infinity"', "-inf": '"-Infinity"'}

_float_repr = float.__repr__
_int_repr = int.__repr__


def _float(value: float) -> str:
    """A float, sentinel-encoded when non-finite (``json``'s finite spelling)."""
    text = _float_repr(value)
    return _NONFINITE.get(text, text)


def _string(value: str) -> str:
    return encode_basestring_ascii(escape_sentinel(value))


def _scalar(value: Any) -> str:
    """One schema value of unknown type, exactly as the generic walk writes it."""
    kind = type(value)
    if kind is float:
        return _float(value)
    if kind is str:
        return _string(value)
    if kind is int:
        return _int_repr(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    return canonical_dumps(value)


def sha256_hex(text: str) -> str:
    """SHA-256 of one canonical JSON text (``canonical_sha256_of``'s digest)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- analysis report ---------------------------------------------------------
# One ``tasks[]`` entry (TaskVerdict.to_dict) per template.  Every value
# goes through ``%s``, which prints a float as its repr -- json's
# spelling of a finite float -- so the float formatting of a whole task
# list happens in one ``%`` operation.
_BOUNDED = (
    '{"bcet":%s,"best":%s,"bound":{"a":%s,"b":%s},"deadline_met":%s,'
    '"jitter":%s,"latency":%s,"name":%s,"ok":%s,"period":%s,"priority":%s,'
    '"rel_slack":%s,"slack":%s,"stable":%s,"wcet":%s,"worst":%s}'
)
_UNBOUNDED = (
    '{"bcet":%s,"best":%s,"bound":null,"deadline_met":%s,"jitter":%s,'
    '"latency":%s,"name":%s,"ok":%s,"period":%s,"priority":%s,'
    '"rel_slack":null,"slack":null,"stable":true,"wcet":%s,"worst":%s}'
)
_BOOL = {True: "true", False: "false"}

_REPORT = (
    '{"n_tasks":%d,"name":%s,"priority_policy":%s,"schedulable":%s,'
    '"schema_version":' + str(SCHEMA_VERSION) + ',"stable":%s,"tasks":[%s],'
    '"utilization":%s,"violating":[%s]}'
)


def _tasks(verdicts) -> str:
    """The comma-joined ``tasks[]`` entries of a report."""
    templates = []
    values = []
    total = 0.0
    for verdict in verdicts:
        times = verdict.times
        best = float(times.best)
        worst = float(times.worst)
        jitter = float(times.worst - times.best)
        bcet = float(verdict.bcet)
        period = float(verdict.period)
        wcet = float(verdict.wcet)
        priority = verdict.priority
        priority = "null" if priority is None else _int_repr(int(priority))
        name = _scalar(verdict.name)
        met = _BOOL[verdict.deadline_met]
        ok = _BOOL[verdict.ok]
        total += best + worst + jitter + bcet + period + wcet
        bound = verdict.bound
        if bound is None:
            templates.append(_UNBOUNDED)
            values += (bcet, best, met, jitter, best, name, ok, period)
            values += (priority, wcet, worst)
        else:
            a = float(bound.a)
            b = float(bound.b)
            slack = verdict.slack
            rel_slack = verdict.rel_slack
            total += a + b + slack + rel_slack
            templates.append(_BOUNDED)
            values += (bcet, best, a, b, met, jitter, best, name, ok, period)
            values += (priority, rel_slack, slack, _BOOL[verdict.stable])
            values += (wcet, worst)
    # Any inf or nan makes the total nan or inf (so does an overflowing
    # sum of finite values): only then encode the floats one by one.
    if total - total != 0.0:
        values = [_float(v) if type(v) is float else v for v in values]
    return ",".join(templates) % tuple(values)


def report_body(report) -> Tuple[str, str]:
    """``(canonical JSON without the hash, its SHA-256)`` of a report."""
    body = _REPORT % (
        len(report.verdicts),
        _scalar(report.name),
        _scalar(report.priority_policy),
        _BOOL[report.schedulable],
        _BOOL[report.stable],
        _tasks(report.verdicts),
        _float(report.utilization),
        ",".join([_scalar(name) for name in report.violating]),
    )
    return body, sha256_hex(body)


def with_hash(body: str, sha: str) -> str:
    """Embed ``canonical_sha256``, the first key in sorted order, in a body."""
    return '{"canonical_sha256":"' + sha + '",' + body[1:]


# -- assignment outcome ------------------------------------------------------
_OUTCOME = (
    '{"algorithm":%s,"assigned":%s,"assignment":%s,"name":%s,"ok":%s,'
    '"report":%s,"schema_version":' + str(SCHEMA_VERSION) + "}"
)


def outcome_json(outcome) -> str:
    """Canonical JSON of an :class:`AssignmentOutcome`.

    The report member is the report's own encoded fragment, not a second
    walk over its dict view; the small assignment record takes the
    generic walk.
    """
    report = outcome.report
    return _OUTCOME % (
        _scalar(outcome.algorithm),
        _BOOL[outcome.assigned],
        canonical_dumps(outcome.result.to_dict()),
        _scalar(outcome.name),
        _BOOL[outcome.ok],
        "null" if report is None else report.report_json(),
    )


# -- system model ------------------------------------------------------------
_MODEL = (
    '{"name":%s,"priority_policy":%s,"schema_version":'
    + str(SCHEMA_VERSION)
    + ',"tasks":[%s]}'
)


def _model_task(task) -> str:
    """One model ``tasks[]`` entry; optional keys appear only when set."""
    parts = [
        '{"bcet":',
        _scalar(task.bcet),
        ',"name":',
        _scalar(task.name),
        ',"period":',
        _scalar(task.period),
    ]
    if task.plant_name is not None:
        parts += ',"plant":', _scalar(task.plant_name)
    if task.priority is not None:
        parts += ',"priority":', _scalar(task.priority)
    stability = task.stability
    if stability is not None:
        parts += (
            ',"stability":{"a":',
            _scalar(stability.a),
            ',"b":',
            _scalar(stability.b),
            "}",
        )
    parts += ',"wcet":', _scalar(task.wcet), "}"
    return "".join(parts)


def model_json(system) -> str:
    """Canonical JSON of a :class:`ControlTaskSystem` (its cache-key form)."""
    return _MODEL % (
        _scalar(system.name),
        _scalar(system.priority_policy),
        ",".join([_model_task(task) for task in system.taskset]),
    )
