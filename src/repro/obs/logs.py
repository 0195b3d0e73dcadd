"""Structured stderr logging for ``python -m repro serve``.

The daemon logs through the stdlib ``logging`` tree under
``repro.serve``; this module owns the handler/formatter setup so the
CLI's ``--log-level``/``--log-json`` flags are one call
(:func:`configure_serve_logging`).  In JSON mode every line is a single
object (``{"ts": ..., "level": ..., "logger": ..., "message": ...,
**extra}``) so log shippers need no parsing rules; in text mode the
same records render as a conventional one-liner.  Extra fields passed
via ``logger.info(..., extra={"trace_id": ...})`` appear in both forms.
"""

from __future__ import annotations

import json
import logging
import sys
from typing import Optional

SERVE_LOGGER_NAME = "repro.serve"

#: LogRecord attributes that are plumbing, not user-supplied fields.
_RESERVED = frozenset(
    logging.LogRecord(
        "x", logging.INFO, "x", 0, "x", None, None
    ).__dict__
) | {"message", "asctime", "taskName"}


class JsonLineFormatter(logging.Formatter):
    """One JSON object per record, extras included, sorted keys."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "message": record.getMessage(),
        }
        for key, value in record.__dict__.items():
            if key in _RESERVED or key.startswith("_"):
                continue
            payload[key] = value
        if record.exc_info:
            payload["exception"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True, default=str)


class TextLineFormatter(logging.Formatter):
    """Conventional one-liner with extras appended as ``key=value``."""

    def format(self, record: logging.LogRecord) -> str:
        base = (
            f"{self.formatTime(record, '%Y-%m-%dT%H:%M:%S')} "
            f"{record.levelname.lower():7s} {record.name}: "
            f"{record.getMessage()}"
        )
        extras = [
            f"{key}={value}"
            for key, value in sorted(record.__dict__.items())
            if key not in _RESERVED and not key.startswith("_")
        ]
        if extras:
            base = f"{base} [{' '.join(extras)}]"
        if record.exc_info:
            base = f"{base}\n{self.formatException(record.exc_info)}"
        return base


class _StderrHandler(logging.StreamHandler):
    """Writes to whatever ``sys.stderr`` is when a record is emitted.

    The ``logging.lastResort`` pattern: binding the stream once, at
    configuration time, leaves the handler writing to a closed file
    after a test harness (or an embedding application) swaps
    ``sys.stderr`` out and closes the old one.
    """

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


def serve_logger() -> logging.Logger:
    return logging.getLogger(SERVE_LOGGER_NAME)


def configure_serve_logging(
    level: str = "info",
    *,
    json_mode: bool = False,
    stream=None,
) -> logging.Logger:
    """(Re)configure the ``repro.serve`` logger; returns it.

    Idempotent: replaces any handler a previous call installed, so
    repeated CLI invocations or tests never double-log.  The logger does
    not propagate, keeping daemon output away from the root logger.
    """
    logger = serve_logger()
    numeric = getattr(logging, level.upper(), None)
    if not isinstance(numeric, int):
        raise ValueError(f"unknown log level {level!r}")
    handler = (
        _StderrHandler() if stream is None else logging.StreamHandler(stream)
    )
    handler.setFormatter(
        JsonLineFormatter() if json_mode else TextLineFormatter()
    )
    for old in list(logger.handlers):
        logger.removeHandler(old)
    logger.addHandler(handler)
    logger.setLevel(numeric)
    logger.propagate = False
    return logger


def disable_serve_logging() -> logging.Logger:
    """Silence the serve logger (the library-embedding default)."""
    logger = serve_logger()
    for old in list(logger.handlers):
        logger.removeHandler(old)
    logger.addHandler(logging.NullHandler())
    logger.setLevel(logging.CRITICAL + 1)
    logger.propagate = False
    return logger


def log_level_from_args(level: Optional[str]) -> int:
    numeric = getattr(logging, (level or "info").upper(), None)
    if not isinstance(numeric, int):
        raise ValueError(f"unknown log level {level!r}")
    return numeric
