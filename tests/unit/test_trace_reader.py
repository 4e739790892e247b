"""Unit tests for the shared trace reader and schema compatibility.

The checked-in samples under ``tests/data/traces/`` are one real
synthesis trace in three wire formats: ``sample_v3.jsonl`` as recorded,
``sample_v2.jsonl`` with the v3-only ``discovered`` step field stripped,
and ``sample_v1.jsonl`` additionally without the v2-only run_end
``store`` field — the exact deltas each schema bump introduced.  Every
consumer (reader, report, replay and the ``repro-trace`` subcommands
over them) must accept all three.

``legacy_v3.jsonl`` is a v3 trace recorded by an older build under a
non-default search policy with per-evaluation events on: it carries a
``run_start.policy`` field and ``eval`` events, which this build no
longer writes, plus the CLI's provenance, so it also replays.
"""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from repro.trace import (
    MIN_SCHEMA_VERSION,
    SCHEMA_VERSION,
    TraceSchemaError,
    iter_events,
    read_events,
    replay_trace,
    span_kinds,
)
from repro.trace.cli import main as trace_main
from repro.trace.reader import check_schema, trace_schema
from repro.trace.report import render_report, run_overview

DATA = Path(__file__).parent.parent / "data" / "traces"
SAMPLES = {
    1: DATA / "sample_v1.jsonl",
    2: DATA / "sample_v2.jsonl",
    3: DATA / "sample_v3.jsonl",
}
LEGACY = DATA / "legacy_v3.jsonl"
#: Every checked-in trace → (schema version it records, path).
READABLE = {version: (version, path) for version, path in SAMPLES.items()}
READABLE["legacy_v3"] = (3, LEGACY)


class TestCheckSchema:
    def test_accepts_every_supported_version(self):
        for version in range(MIN_SCHEMA_VERSION, SCHEMA_VERSION + 1):
            assert check_schema(version) == version

    @pytest.mark.parametrize("bad", [0, SCHEMA_VERSION + 1, -1])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(TraceSchemaError, match="schema"):
            check_schema(bad)

    @pytest.mark.parametrize("bad", [None, "3", 3.0, True])
    def test_rejects_non_integer(self, bad):
        with pytest.raises(TraceSchemaError, match="schema"):
            check_schema(bad)

    def test_is_a_value_error_for_legacy_callers(self):
        # report historically raised ValueError on a bad schema; the
        # shared error keeps that contract.
        with pytest.raises(ValueError):
            check_schema(SCHEMA_VERSION + 1)


class TestIterEvents:
    def test_reads_file_path(self):
        events = read_events(SAMPLES[3])
        assert events[0]["k"] == "run_start"
        assert events[-1]["k"] == "run_end"

    def test_reads_open_stream_and_line_iterable(self):
        text = SAMPLES[3].read_text()
        from_stream = read_events(io.StringIO(text))
        from_lines = read_events(text.splitlines())
        assert from_stream == from_lines == read_events(SAMPLES[3])

    def test_passes_through_parsed_events(self):
        events = read_events(SAMPLES[3])
        assert read_events(events) == events

    def test_skips_blank_lines(self):
        text = SAMPLES[3].read_text().replace("\n", "\n\n")
        assert read_events(io.StringIO(text)) == read_events(SAMPLES[3])

    def test_empty_source_yields_nothing(self):
        assert read_events([]) == []
        assert read_events(io.StringIO("")) == []

    def test_malformed_line_reports_line_number(self):
        lines = SAMPLES[3].read_text().splitlines()
        lines.insert(2, "{not json")
        with pytest.raises(ValueError, match="line 3"):
            read_events(lines)

    def test_non_event_object_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            read_events(['{"no_kind": 1}'])

    def test_unsupported_schema_raises_at_header(self):
        lines = SAMPLES[3].read_text().splitlines()
        lines[0] = lines[0].replace(
            f'"schema":{SCHEMA_VERSION}', f'"schema":{SCHEMA_VERSION + 1}'
        )
        it = iter_events(lines)
        with pytest.raises(TraceSchemaError):
            next(it)

    def test_is_lazy(self):
        lines = iter(SAMPLES[3].read_text().splitlines())
        it = iter_events(lines)
        first = next(it)
        assert first["k"] == "run_start"
        # The source iterator has only been consumed as far as needed.
        assert next(lines) is not None


class TestSchemaCompatibility:
    @pytest.mark.parametrize("trace", list(READABLE))
    def test_reader_accepts_all_versions(self, trace):
        version, path = READABLE[trace]
        events = read_events(path)
        assert trace_schema(events) == version
        assert events[0]["schema"] == version

    @pytest.mark.parametrize("trace", list(READABLE))
    def test_report_renders_all_versions(self, trace):
        _version, path = READABLE[trace]
        events = read_events(path)
        text = render_report(events)
        assert "winner" in text
        overview = run_overview(events)
        assert overview["design"] == "paulin"
        assert overview["n_steps"] > 0

    @pytest.mark.parametrize("trace", list(READABLE))
    @pytest.mark.parametrize("command", ["report", "profile"])
    def test_trace_cli_reads_all_versions(self, command, trace, capsys):
        """Every checked-in trace was recorded without timings, so
        ``profile`` reports that instead of a breakdown."""
        _version, path = READABLE[trace]
        assert trace_main([command, str(path)]) == 0
        out, err = capsys.readouterr()
        expected = {"report": "winner:", "profile": "no timing spans"}
        assert expected[command] in out
        assert not err

    def test_versions_are_the_same_run(self):
        # The samples differ only by the optional fields each schema
        # bump added; the search trajectory they record is identical.
        def skeleton(events):
            out = []
            for e in events:
                e = {k: v for k, v in e.items()
                     if k not in ("schema", "discovered", "store")}
                out.append(e)
            return out

        v1, v2, v3 = (read_events(SAMPLES[v]) for v in (1, 2, 3))
        assert skeleton(v1) == skeleton(v2) == skeleton(v3)
        assert any("discovered" in e for e in v3 if e["k"] == "step")
        assert not any("discovered" in e for e in v2 if e["k"] == "step")

    def test_trace_schema_requires_header(self):
        with pytest.raises(ValueError, match="run_start"):
            trace_schema([{"k": "step"}])


class TestLegacyFixture:
    def test_carries_what_this_build_no_longer_writes(self):
        events = read_events(LEGACY)
        assert events[0]["policy"] == "greedy"
        assert events[0]["provenance"]["benchmark"] == "paulin"
        assert any(e["k"] == "eval" for e in events)
        kinds = span_kinds()
        assert "eval" not in kinds
        assert "policy" not in {f.rstrip("?") for f in kinds["run_start"][1]}

    def test_replays_bit_for_bit(self):
        result = replay_trace(read_events(LEGACY), verify=True)
        assert result.n_moves > 0
        assert result.cost == result.recorded_cost
        assert result.ok

    def test_trace_cli_replays_it(self, capsys):
        assert trace_main(["replay", str(LEGACY)]) == 0
        assert "bit-identical; oracle OK" in capsys.readouterr().out
