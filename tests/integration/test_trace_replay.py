"""Report + bit-identical replay of traced runs on paulin and test1.

A power-mode run of each benchmark is traced; the report must print
per-pass gain attribution by move type, and replaying the recorded
committed move sequence — with inputs reconstructed purely from the
trace's provenance — must reproduce the final committed cost
**bit-identically** and pass the differential RTL verification oracle.
Replay rediscovers each step's candidates through the relational
engine; paulin is flat, test1 is hierarchical (module moves and move-B
resynthesis).
"""

import pytest

from repro.bench_suite import get_benchmark
from repro.power import speech_traces
from repro.synthesis import SynthesisConfig, synthesize
from repro.trace import dumps_trace, load_trace, replay_trace
from repro.trace.cli import main as trace_main
from repro.trace.report import render_report


def _config(benchmark: str) -> SynthesisConfig:
    return SynthesisConfig(
        max_moves=6,
        max_passes=2,
        max_ab_targets=4,
        max_share_pairs=8,
        max_split_candidates=4,
        n_clocks=2,
        resynth_passes=1,
        resynth_moves=4,
        trace=True,
        trace_timings=False,
        # Provenance equivalent to the CLI's --trace metadata: lets
        # replay_trace rebuild design/library/stimulus standalone.
        trace_meta={
            "benchmark": benchmark,
            "design_path": None,
            "traces": "speech",
            "seed": 3,
            "samples": 24,
            "built_library": False,
        },
    )


@pytest.fixture(scope="module", params=["paulin", "test1"])
def traced_run(request):
    design = get_benchmark(request.param)
    traces = speech_traces(design.top, n=24, seed=3)
    result = synthesize(
        design,
        laxity_factor=2.2,
        objective="power",
        traces=traces,
        config=_config(request.param),
        n_samples=24,
    )
    return design, traces, result


def test_report_attributes_gain_by_move_type(traced_run):
    design, _traces, result = traced_run
    text = render_report(result.trace_events)
    assert f"trace: {design.name} — objective power" in text
    assert "winner: point" in text
    assert "committed prefix" in text
    assert "gain attribution by move family" in text
    # Every column of the attribution table is present.
    for column in ("tried", "chosen", "committed", "neg-gain",
                   "committed gain"):
        assert column in text


def test_replay_reproduces_cost_bit_identically(traced_run):
    design, traces, result = traced_run
    replayed = replay_trace(
        result.trace_events, design=design, traces=traces, verify=True
    )
    assert replayed.n_moves > 0
    # Bit-identical equality, not approximate.
    assert replayed.cost == replayed.recorded_cost
    assert replayed.verification is not None and replayed.verification.ok
    assert replayed.ok
    # The replayed architecture prices to the winner's metrics too.
    assert (replayed.vdd, replayed.clk_ns) == (result.vdd, result.clk_ns)


def test_replay_standalone_from_provenance(traced_run):
    _design, _traces, result = traced_run
    # No design/library/traces passed: everything is reconstructed from
    # the run_start provenance — the `repro-trace replay file` path.
    replayed = replay_trace(result.trace_events, verify=False)
    assert replayed.ok
    assert replayed.cost == replayed.recorded_cost


def test_trace_cli_round_trip(traced_run, tmp_path, capsys):
    design, _traces, result = traced_run
    path = tmp_path / f"{design.name}.jsonl"
    path.write_text(dumps_trace(result.trace_events))
    assert load_trace(path) == result.trace_events

    assert trace_main(["report", str(path)]) == 0
    report_out = capsys.readouterr().out
    assert "gain attribution by move family" in report_out

    assert trace_main(["replay", str(path), "--no-verify"]) == 0
    replay_out = capsys.readouterr().out
    assert "bit-identical" in replay_out

    assert trace_main(["profile", str(path)]) == 0
    assert "no timing spans" in capsys.readouterr().out
