"""Bounded trace recorder and JSONL serialization.

One :class:`TraceRecorder` travels with a synthesis run (owned by the
:class:`~repro.synthesis.context.SynthesisEnv` when
``SynthesisConfig.trace`` is set).  It buffers events in memory with a
hard bound — a runaway search drops events and counts them instead of
exhausting RAM — and knows nothing about files: the run serializes the
merged buffer at the end with :func:`write_trace`.

Parallel sweeps give every worker process its own recorder (it rides
inside the worker's fresh env); the parent concatenates the per-worker
buffers **in operating-point order**, which is exactly the order the
serial sweep would have emitted, so the merged trace is deterministic.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Iterable

__all__ = ["TraceRecorder", "dumps_trace", "load_trace", "write_trace"]

#: Hard bound on buffered events: past it, events are dropped and
#: counted (``run_end.events_dropped``).
MAX_EVENTS = 1_000_000


class TraceRecorder:
    """An append-only, bounded buffer of trace events.

    ``timings=False`` (the byte-determinism mode) suppresses every
    wall-clock field: :meth:`clock` returns ``None`` and :meth:`emit`
    drops ``dur_ns``-style keys whose value is ``None``.
    """

    def __init__(self, timings: bool = True, max_events: int = MAX_EVENTS):
        self.timings = timings
        self.max_events = max_events
        #: Current operating-point index; stamped by the sweep driver so
        #: events emitted deep inside the engine carry their coordinate.
        self.point: int | None = None
        self.events: list[dict[str, Any]] = []
        #: Events discarded because the buffer hit ``max_events``.
        self.dropped = 0

    # ------------------------------------------------------------------
    def clock(self) -> int | None:
        """Monotonic nanoseconds, or ``None`` when timings are off."""
        if not self.timings:
            return None
        return time.perf_counter_ns()

    def elapsed_ns(self, t0: int | None) -> int | None:
        """Nanoseconds since a :meth:`clock` mark (``None`` passthrough)."""
        if t0 is None:
            return None
        return time.perf_counter_ns() - t0

    # ------------------------------------------------------------------
    def emit(self, kind: str, /, **fields: Any) -> None:
        """Append one event; ``None``-valued fields are omitted.

        Field order follows the keyword order at the call site, which
        the emitters keep fixed per kind — that is what makes the JSONL
        output byte-stable.
        """
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        event: dict[str, Any] = {"k": kind}
        for key, value in fields.items():
            if value is None:
                continue
            event[key] = value
        self.events.append(event)

    def absorb(self, events: Iterable[dict[str, Any]], dropped: int = 0) -> None:
        """Merge a worker's buffered events (already in point order)."""
        for event in events:
            if len(self.events) >= self.max_events:
                self.dropped += 1
                continue
            self.events.append(event)
        self.dropped += dropped


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def dumps_trace(events: Iterable[dict[str, Any]]) -> str:
    """Serialize events to JSONL text (one compact object per line)."""
    lines = [
        json.dumps(event, separators=(",", ":"), ensure_ascii=True)
        for event in events
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_trace(events: Iterable[dict[str, Any]], path: str | Path) -> int:
    """Write events as JSONL to *path*; returns the number of events."""
    events = list(events)
    Path(path).write_text(dumps_trace(events))
    return len(events)


def load_trace(path: str | Path) -> list[dict[str, Any]]:
    """Read a JSONL trace back into a list of event dicts."""
    events: list[dict[str, Any]] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            events.append(json.loads(line))
    return events
