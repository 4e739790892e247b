"""Unit tests for the bounded trace recorder and JSONL round-trip."""

from __future__ import annotations

import json

from repro.trace import (
    SCHEMA_VERSION,
    TraceRecorder,
    dumps_trace,
    load_trace,
    span_kinds,
    write_trace,
)


def test_emit_drops_none_fields_and_keeps_order():
    rec = TraceRecorder(timings=False)
    rec.emit("step", point=0, gain=1.5, dur_ns=None, move="A-swap")
    assert rec.events == [{"k": "step", "point": 0, "gain": 1.5, "move": "A-swap"}]
    # Insertion order is the keyword order at the call site.
    assert list(rec.events[0]) == ["k", "point", "gain", "move"]


def test_timings_off_clock_returns_none():
    rec = TraceRecorder(timings=False)
    assert rec.clock() is None
    assert rec.elapsed_ns(None) is None


def test_timings_on_clock_is_monotonic_ns():
    rec = TraceRecorder(timings=True)
    t0 = rec.clock()
    assert isinstance(t0, int)
    assert rec.elapsed_ns(t0) >= 0


def test_bounded_buffer_counts_drops():
    rec = TraceRecorder(timings=False, max_events=2)
    for i in range(5):
        rec.emit("step", i=i)
    assert len(rec.events) == 2
    assert rec.dropped == 3


def test_absorb_merges_in_order_and_respects_bound():
    parent = TraceRecorder(timings=False, max_events=3)
    parent.emit("run_start", schema=SCHEMA_VERSION)
    worker_events = [{"k": "step", "i": 0}, {"k": "step", "i": 1},
                     {"k": "step", "i": 2}]
    parent.absorb(worker_events, dropped=4)
    assert [e.get("i") for e in parent.events] == [None, 0, 1]
    assert parent.dropped == 1 + 4


def test_jsonl_round_trip(tmp_path):
    events = [
        {"k": "run_start", "schema": SCHEMA_VERSION, "design": "t"},
        {"k": "step", "gain": -0.25},
    ]
    path = tmp_path / "trace.jsonl"
    assert write_trace(events, path) == 2
    text = path.read_text()
    # One compact JSON object per line, trailing newline, no spaces.
    assert text.endswith("\n")
    assert " " not in text.splitlines()[0]
    assert load_trace(path) == events
    assert dumps_trace([]) == ""


def test_dumps_trace_is_byte_stable():
    events = [{"k": "step", "b": 1, "a": 2}]
    assert dumps_trace(events) == dumps_trace(json.loads(dumps_trace(events))
                                              and events)
    # Key order is preserved verbatim (insertion order, not sorted).
    assert dumps_trace(events) == '{"k":"step","b":1,"a":2}\n'


def test_span_kinds_documents_every_kind():
    kinds = span_kinds()
    for expected in ("run_start", "point_start", "pass_start", "step",
                     "pass_end", "verify", "point_end", "run_end"):
        assert expected in kinds
        assert kinds[expected], f"kind {expected} has no documented fields"
    # The registry is a copy: mutating it must not leak.
    kinds["step"] = ()
    assert span_kinds()["step"]
