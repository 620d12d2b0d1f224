"""A small structured logger for operational output.

Replaces ad-hoc ``print(..., file=sys.stderr)`` status lines with one
consistent, parseable shape::

    repro cli info wrote-artifact path=benchmarks/results/loadtest_ci.json

Rules of the road:

- *Results* (tables, waterfalls, JSON payloads) are program output and
  stay on stdout via ``print``; the logger carries *status* — progress,
  artifact paths, warnings — on stderr, where it never corrupts piped
  output.
- The threshold comes from ``REPRO_LOG_LEVEL`` (debug/info/warning/
  error/quiet) and can be overridden programmatically
  (:func:`set_level`) — the CLI maps ``--quiet`` onto it.
- Fields are rendered ``key=value`` with shell-safe quoting so logs grep
  and parse trivially; no dependency beyond the stdlib.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Optional, TextIO

__all__ = ["Logger", "get_logger", "set_level", "get_level", "LEVELS"]

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40,
          "quiet": 100}

_level: Optional[int] = None  # resolved lazily from the environment


def _resolve_level() -> int:
    global _level
    if _level is None:
        raw = os.environ.get("REPRO_LOG_LEVEL", "info").strip().lower()
        _level = LEVELS.get(raw, LEVELS["info"])
    return _level


def set_level(level: str) -> None:
    """Set the process-wide threshold ('debug'..'error', or 'quiet')."""
    global _level
    try:
        _level = LEVELS[level.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown log level {level!r}; "
                         f"expected one of {sorted(LEVELS)}")


def get_level() -> str:
    resolved = _resolve_level()
    for name, value in LEVELS.items():
        if value == resolved:
            return name
    return str(resolved)


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        text = f"{value:g}"
    else:
        text = str(value)
    if " " in text or "=" in text or '"' in text or text == "":
        return '"' + text.replace('"', r'\"') + '"'
    return text


class Logger:
    """One named emitter; cheap enough to create per module."""

    __slots__ = ("name", "stream")

    def __init__(self, name: str, stream: Optional[TextIO] = None):
        self.name = name
        #: None = resolve sys.stderr per call (plays well with capsys)
        self.stream = stream

    def _emit(self, level: str, event: str, fields: dict) -> None:
        if LEVELS[level] < _resolve_level():
            return
        parts = [f"repro {self.name} {level} {event}"]
        parts.extend(f"{key}={_format_value(value)}"
                     for key, value in fields.items())
        out = self.stream if self.stream is not None else sys.stderr
        print(" ".join(parts), file=out)

    def debug(self, event: str, **fields: Any) -> None:
        self._emit("debug", event, fields)

    def info(self, event: str, **fields: Any) -> None:
        self._emit("info", event, fields)

    def warning(self, event: str, **fields: Any) -> None:
        self._emit("warning", event, fields)

    def error(self, event: str, **fields: Any) -> None:
        self._emit("error", event, fields)


_loggers: dict[str, Logger] = {}


def get_logger(name: str) -> Logger:
    """Get-or-create the named logger (shared per process)."""
    existing = _loggers.get(name)
    if existing is None:
        existing = _loggers[name] = Logger(name)
    return existing
