"""Shared trace ingestion: one parser, every schema version.

:mod:`repro.trace.report` and :mod:`repro.trace.replay` each used to
open the JSONL stream themselves and refuse anything but the current
:data:`~repro.trace.events.SCHEMA_VERSION`; the parsing and version
policy live here so every consumer reads every version alike.

Version policy
--------------
The schema has only ever grown by *optional* fields:

* **v1 → v2** added ``store`` (tiered synthesis-store counters) to
  ``run_end``;
* **v2 → v3** added ``discovered`` (pre-pruning candidate counts by
  kind) to ``step``.

An older trace is therefore already a valid current-schema trace with
those fields absent, and consumers default them.  Older v3 traces may
also carry what this build no longer writes — a ``policy`` field on
``run_start`` and ``eval`` events — which consumers ignore.  :func:`iter_events`
accepts every version from :data:`MIN_SCHEMA_VERSION` through
:data:`~repro.trace.events.SCHEMA_VERSION` and yields the events
untouched; traces from a *newer* build (or with no recognizable
header version) raise :class:`TraceSchemaError`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Union

from ..errors import ReproError
from .events import SCHEMA_VERSION

__all__ = [
    "MIN_SCHEMA_VERSION",
    "TraceSchemaError",
    "check_schema",
    "iter_events",
    "read_events",
    "trace_schema",
]

#: Oldest schema this build still reads.  Every bump since has added
#: optional fields only, so upgrading is pure tolerance — no rewriting.
MIN_SCHEMA_VERSION = 1

#: Accepted event sources: a JSONL file path, an open text stream, an
#: iterable of JSONL lines, or an iterable of already-parsed events.
TraceSource = Union[str, Path, IO[str], Iterable[str], Iterable[dict]]


class TraceSchemaError(ReproError, ValueError):
    """The trace's recorded schema version cannot be read by this build."""


def check_schema(version: Any) -> int:
    """Validate a ``run_start`` schema version; returns it as an int.

    Raises :class:`TraceSchemaError` for versions outside
    [:data:`MIN_SCHEMA_VERSION`, :data:`~repro.trace.events.SCHEMA_VERSION`]
    and for non-integer values (a missing or mangled header).
    """
    if not isinstance(version, int) or isinstance(version, bool):
        raise TraceSchemaError(
            f"trace has no usable schema version (got {version!r}); "
            "is this a synthesis trace?"
        )
    if not MIN_SCHEMA_VERSION <= version <= SCHEMA_VERSION:
        raise TraceSchemaError(
            f"trace schema {version} is not supported (this build reads "
            f"schema {MIN_SCHEMA_VERSION} through {SCHEMA_VERSION})"
        )
    return version


def trace_schema(events: Iterable[dict[str, Any]]) -> int:
    """Schema version of a parsed event stream (validated).

    Raises ``ValueError`` when the stream has no ``run_start`` header
    and :class:`TraceSchemaError` when the version is unreadable.
    """
    for event in events:
        if event.get("k") == "run_start":
            return check_schema(event.get("schema"))
    raise ValueError("not a synthesis trace: no run_start event")


def _iter_lines(source: TraceSource) -> tuple[Iterable, bool]:
    """Normalize *source* to (iterable, is_parsed) without consuming it."""
    if isinstance(source, (str, Path)):
        return Path(source).read_text().splitlines(), False
    if hasattr(source, "read"):
        return source, False
    iterator = iter(source)
    try:
        first = next(iterator)
    except StopIteration:
        return (), False
    if isinstance(first, dict):
        return _chain_first(first, iterator), True
    return _chain_first(first, iterator), False


def _chain_first(first, rest) -> Iterator:
    yield first
    yield from rest


def iter_events(source: TraceSource) -> Iterator[dict[str, Any]]:
    """Stream trace events from *source*, validating the schema header.

    *source* may be a JSONL file path, an open text stream, an iterable
    of JSONL lines, or an iterable of already-parsed event dicts (the
    latter passes through unreparsed — useful for in-memory
    ``SynthesisResult.trace_events``).  Blank lines are skipped; a
    malformed line raises ``ValueError`` with its 1-based line number;
    an unsupported ``run_start`` schema raises
    :class:`TraceSchemaError` at the point the header is seen.
    """
    lines, parsed = _iter_lines(source)
    for lineno, item in enumerate(lines, start=1):
        if parsed:
            event = item
        else:
            text = item.strip()
            if not text:
                continue
            try:
                event = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"trace line {lineno}: not valid JSON ({exc})"
                ) from exc
            if not isinstance(event, dict) or "k" not in event:
                raise ValueError(
                    f"trace line {lineno}: not a trace event "
                    "(expected an object with a 'k' kind field)"
                )
        if event.get("k") == "run_start":
            check_schema(event.get("schema"))
        yield event


def read_events(source: TraceSource) -> list[dict[str, Any]]:
    """Read a whole trace into a list (see :func:`iter_events`)."""
    return list(iter_events(source))
