"""Structured (JSON-lines) logging for the service layer.

One logger -- ``repro.service`` -- carries every operational event: one
``request`` line per served request (key, cell, algorithm, status, shard,
latency_ms, cache tier), plus lifecycle events (``client_disconnected``,
``stream_closed``, ``job_error``, ...).  Events are emitted through
:func:`log_event`, which stashes the structured fields on the record;
:class:`JsonLineFormatter` renders each record as exactly one JSON object
per line, machine-parseable by anything that eats JSONL.

By default the logger has no handler and the root logger sits at
``WARNING``, so the per-request ``isEnabledFor`` guard short-circuits and
serving pays almost nothing.  ``repro serve --log-json PATH`` (or ``-``
for stdout) attaches a handler via :func:`configure_json_logging`.
"""

from __future__ import annotations

import json
import logging
import sys
from typing import Any

__all__ = [
    "DEFAULT_LOG_MAX_BYTES",
    "DEFAULT_LOG_BACKUPS",
    "SERVICE_LOGGER",
    "JsonLineFormatter",
    "configure_json_logging",
    "log_event",
    "service_logger",
]

SERVICE_LOGGER = "repro.service"

#: Default size-based rotation for file logs: rotate at 64 MiB, keep 3
#: rotated generations (``PATH.1`` .. ``PATH.3``) -- ~256 MiB worst case
#: per long-running worker.  ``max_bytes=0`` disables rotation entirely.
DEFAULT_LOG_MAX_BYTES = 64 * 1024 * 1024
DEFAULT_LOG_BACKUPS = 3

#: Attribute carrying the structured payload on a LogRecord.
_FIELDS_ATTR = "repro_fields"


def service_logger() -> logging.Logger:
    return logging.getLogger(SERVICE_LOGGER)


def log_event(event: str, *, logger: logging.Logger | None = None,
              level: int = logging.INFO, **fields: Any) -> None:
    """Emit one structured event (a no-op when nothing listens)."""
    logger = logger if logger is not None else service_logger()
    if not logger.isEnabledFor(level):
        return
    logger.log(level, event, extra={_FIELDS_ATTR: fields})


class JsonLineFormatter(logging.Formatter):
    """One JSON object per record: timestamp, level, event, fields."""

    def format(self, record: logging.LogRecord) -> str:
        doc: dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": record.getMessage(),
        }
        fields = getattr(record, _FIELDS_ATTR, None)
        if isinstance(fields, dict):
            for key, value in fields.items():
                if key not in doc:
                    doc[key] = value
        if record.exc_info and record.exc_info[1] is not None:
            doc["exception"] = repr(record.exc_info[1])
        return json.dumps(doc, sort_keys=True, default=str)


def configure_json_logging(path: str | None, *,
                           level: int = logging.INFO,
                           max_bytes: int = DEFAULT_LOG_MAX_BYTES,
                           backup_count: int = DEFAULT_LOG_BACKUPS,
                           ) -> logging.Handler | None:
    """Attach a JSON-lines handler to the service logger.

    ``path`` of ``"-"`` streams to stdout; any other string appends to
    that file; ``None`` is a no-op (returns ``None``).  File logs rotate
    by size: when the file would exceed ``max_bytes`` it is renamed to
    ``PATH.1`` (shifting older generations up to ``backup_count``) and a
    fresh file is started, so a long-running worker's log stays bounded.
    The default is :data:`DEFAULT_LOG_MAX_BYTES` (64 MiB) with
    :data:`DEFAULT_LOG_BACKUPS` (3) rotated files; ``max_bytes=0``
    disables rotation and appends forever (the historical behaviour).
    The returned handler lets callers (tests, ``serve`` teardown) detach
    it again with ``service_logger().removeHandler(handler)``.
    """
    if path is None:
        return None
    if path == "-":
        handler: logging.Handler = logging.StreamHandler(sys.stdout)
    else:
        # Imported here: the handlers module (sockets, pickle, queues)
        # costs every process that only logs through log_event ~0.8 MB.
        from logging.handlers import RotatingFileHandler

        handler = RotatingFileHandler(
            path, maxBytes=max(0, int(max_bytes)),
            backupCount=max(0, int(backup_count)), encoding="utf-8")
    handler.setFormatter(JsonLineFormatter())
    handler.setLevel(level)
    logger = service_logger()
    logger.addHandler(handler)
    if logger.level == logging.NOTSET or logger.level > level:
        logger.setLevel(level)
    return handler
