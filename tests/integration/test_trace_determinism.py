"""Byte-determinism of the structured search trace.

The contract: with ``trace_timings=False``, the same seed and config
produce **byte-identical** JSONL regardless of how many worker processes
the operating-point sweep used.  Each worker buffers its own events and
the parent merges them in point order — the serial emission order — so
the only nondeterminism a trace could pick up is wall-clock, and the
determinism mode strips exactly that.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench_suite import get_benchmark
from repro.power import speech_traces
from repro.synthesis import SynthesisConfig, synthesize
from repro.trace import SCHEMA_VERSION, dumps_trace, span_kinds


def _config(n_workers: int, timings: bool = False) -> SynthesisConfig:
    return SynthesisConfig(
        max_moves=6,
        max_passes=2,
        max_ab_targets=4,
        max_share_pairs=8,
        max_split_candidates=4,
        n_clocks=2,
        resynth_passes=1,
        resynth_moves=4,
        n_workers=n_workers,
        trace=True,
        trace_timings=timings,
    )


def _run(circuit: str, n_workers: int, timings: bool = False):
    design = get_benchmark(circuit)
    traces = speech_traces(design.top, n=24, seed=3)
    return synthesize(
        design,
        laxity_factor=2.2,
        objective="power",
        traces=traces,
        config=_config(n_workers, timings),
        n_samples=24,
    )


def test_trace_is_byte_identical_across_worker_counts():
    serial = _run("test1", n_workers=1)
    parallel = _run("test1", n_workers=4)
    assert serial.trace_events, "tracing enabled but no events recorded"
    assert dumps_trace(serial.trace_events) == dumps_trace(parallel.trace_events)


def test_trace_is_byte_identical_across_repeated_runs():
    first = dumps_trace(_run("test1", n_workers=1).trace_events)
    second = dumps_trace(_run("test1", n_workers=1).trace_events)
    assert first == second


def test_trace_is_byte_identical_across_hash_seeds(tmp_path):
    """String hashing, and with it the iteration order of sets and of
    dicts built from them, changes with ``PYTHONHASHSEED``; the trace of
    a CLI run must not."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    traces = []
    for seed in ("0", "1"):
        path = tmp_path / f"hashseed{seed}.jsonl"
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "synth", "--benchmark", "paulin",
             "--laxity", "2.2", "--flatten", "--trace", str(path),
             "--no-trace-timings"],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        traces.append(path.read_bytes())
    assert traces[0]
    assert traces[0] == traces[1]


def test_trace_events_are_well_formed():
    result = _run("test1", n_workers=1)
    events = result.trace_events
    kinds = span_kinds()
    for event in events:
        assert event["k"] in kinds, f"undocumented span kind {event['k']!r}"
        _desc, fields = kinds[event["k"]]
        required = {f for f in fields if not f.endswith("?")}
        missing = required - set(event)
        extra = set(event) - {"k"} - {f.rstrip("?") for f in fields}
        assert not extra, f"{event['k']} event has undocumented fields {extra}"
        assert not missing, f"{event['k']} event missing fields {missing}"
    assert events[0]["k"] == "run_start"
    assert events[0]["schema"] == SCHEMA_VERSION
    assert events[-1]["k"] == "run_end"
    # The determinism mode excludes worker count and timing knobs from
    # the recorded config, and no event carries a wall-clock field.
    recorded_config = events[0]["config"]
    assert "n_workers" not in recorded_config
    assert not any(k.startswith("trace") for k in recorded_config)
    assert not any("dur_ns" in e for e in events)


def test_timed_trace_carries_spans():
    result = _run("test1", n_workers=1, timings=True)
    assert any("dur_ns" in e for e in result.trace_events)
    assert "stage_s" in result.trace_events[-1]


def test_tracing_off_records_nothing():
    design = get_benchmark("test1")
    traces = speech_traces(design.top, n=24, seed=3)
    config = _config(1)
    config.trace = False
    result = synthesize(
        design, laxity_factor=2.2, objective="power",
        traces=traces, config=config, n_samples=24,
    )
    assert result.trace_events is None


@pytest.mark.slow
def test_trace_determinism_on_paulin_with_library():
    serial = _run("paulin", n_workers=1)
    parallel = _run("paulin", n_workers=4)
    assert dumps_trace(serial.trace_events) == dumps_trace(parallel.trace_events)
