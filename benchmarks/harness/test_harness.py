"""Tests of the benchmark harness: ``PYTHONPATH=src pytest benchmarks/harness``.

Each workload runs at ``--smoke`` size (one design, or six service
jobs) twice: untraced, with the benchmark command's ``--seconds``, and
traced.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parent
ROOT = HARNESS.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HARNESS)]

import bench  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402

SPEC = bench.load_spec()
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

SYNTHESIS_SPANS = {
    "synthesis.library_gen", "synthesis.improve", "synthesis.improve.resynth",
    "synthesis.moves.discover", "synthesis.moves.prune", "synthesis.relational",
    "synthesis.costs", "synthesis.costs.schedule_of",
    "synthesis.incremental.plan", "synthesis.incremental.finish",
    "synthesis.datapath_build", "scheduling", "power.activity",
    "power.simulate", "synthesis.initial", "synthesis.store",
}
FLAT_BYPASSED = {"synthesis.library_gen", "synthesis.improve.resynth"}
#: Span names each workload must record (an upstream rename that moves a
#: call away from a wrapped name shows up here as a zero).
EXPECTED_SPANS = {
    "hier-power": SYNTHESIS_SPANS,
    "flat-power": SYNTHESIS_SPANS - FLAT_BYPASSED,
    "warm-rerun": SYNTHESIS_SPANS,
    "service-mix": {"service.submit", "service.registry", "synthesis.store"},
}


def _run(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd, "benchmarks/harness/bench.py")), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict[tuple[str, int], tuple[dict, dict, list[str]]]:
    """``(workload, trace) -> (result line, run record, stdout lines)``."""
    out = tmp_path_factory.mktemp("runs")
    runs = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = _run("run", "--workload", name, "--seed", "0", "--smoke",
                        "--seconds", "5", "--trace", str(trace),
                        "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            stem = f"{name}-s0{'-trace' if trace else ''}"
            record = json.loads((out / f"{stem}-0.json").read_text())
            runs[name, trace] = (json.loads(lines[-1]), record, lines)
    return runs


def test_spec_follows_the_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/harness"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [w["name"] for w in SPEC["workloads"]]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        names.append(m["name"])
        assert UNIT_RE.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert all(NAME_RE.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_match_the_spec():
    from workloads import WORKLOADS

    assert sorted(WORKLOADS) == sorted(WORKLOAD_NAMES)


def test_every_boundary_resolves_and_restores():
    from repro.synthesis import incremental

    original = incremental.build_netlist
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert incremental.build_netlist is not original
    finally:
        tracer.uninstall()
    assert incremental.build_netlist is original


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_result_line_and_printed_metrics(smoke, name, trace):
    line, record, lines = smoke[name, trace]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1 and isinstance(line["failed"], int)
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    assert set(line["metrics"]) == set(units)
    for metric, entry in line["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], (int, float))
        assert entry["unit"] == units[metric]
        # End-to-end metrics are never 0.
        assert trace or entry["value"] > 0, metric
    printed = {ln.split()[0] for ln in lines[:-1]}
    assert set(record["layers"] if trace else record["metrics"]) <= printed


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_no_check_failed(smoke, name, trace):
    line, record, _ = smoke[name, trace]
    assert line["correct"] and line["failed"] == 0, record["failures"]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_and_untraced_results_are_equal(smoke, name):
    cost = smoke[name, 0][1]["pass"]["cost_geomean"]
    assert cost == smoke[name, 1][1]["pass"]["cost_geomean"]
    assert cost > 0


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_expected_spans_fired(smoke, name):
    calls = smoke[name, 1][1]["pass"]["spans"]["calls"]
    assert {s for s in EXPECTED_SPANS[name] if calls[s] == 0} == set()
    if name == "flat-power":
        assert all(calls[s] == 0 for s in FLAT_BYPASSED)


def test_every_patched_name_fires_somewhere(smoke):
    fired = {
        boundary
        for name in WORKLOAD_NAMES
        for boundary, n in smoke[name, 1][1]["pass"]["spans"]["boundary_calls"].items()
        if n
    }
    assert {tracing.boundary_id(b) for b in tracing.BOUNDARIES} - fired == set()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HARNESS, tmp_path / "benchmarks" / "harness",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("run", "--workload", "hier-power", "--seed", "0",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _probe_of(segments: list[tuple[float, float]]) -> hostspeed.SpeedProbe:
    """A probe whose samples come from ``(seconds, unit_s)`` host phases."""
    probe = hostspeed.SpeedProbe()
    t = 0.0
    for seconds, unit_s in segments:
        end = t + seconds
        while t < end:
            probe.starts.append(t)
            probe.durations.append(unit_s)
            t += hostspeed.PERIOD_S
    return probe


def test_scaled_time_does_not_move_with_host_speed():
    # The same program work on a host at nominal speed, and on one that
    # runs at half speed for the second half of the work (equal up to the
    # probe's own share, which grows with wall-clock time).
    ref = hostspeed.REF_UNIT_S
    steady = _probe_of([(10.0, ref)])
    slowed = _probe_of([(5.0, ref), (10.0, 2 * ref)])
    assert steady.scaled(0.0, 10.0) == pytest.approx(
        slowed.scaled(0.0, 15.0), rel=0.02)
    # The probe's own time is taken out of the program's.
    busy = ref / hostspeed.PERIOD_S
    assert steady.scaled(0.0, 10.0) == pytest.approx(10.0 * (1 - busy), rel=0.01)
    # An interval shorter than half a window uses the median of all samples.
    assert slowed.scaled(1.0, 1.2) == pytest.approx(0.2 / 2, rel=0.1)


def _record(seed: int, batch_s: float) -> dict:
    return {"workload": "hier-power", "seed": seed, "trace": False,
            "smoke": False, "metrics": {"batch_s": batch_s}}


@pytest.mark.parametrize("change, exact, verdict", [
    ([10.0, 10.2, 9.9, 10.1], False, "same"),
    ([12.0, 12.2, 11.9, 12.1], False, "WORSE"),
    ([8.0, 8.2, 7.9, 8.1], False, "gain"),
    # Exact metrics are compared pair by pair, not against the bound.
    ([10.0, 10.1, 9.9, 10.2], True, "same"),
    ([10.0, 10.1, 9.9, 10.2001], True, "WORSE"),
    ([10.0, 10.1, 9.9, 10.1999], True, "gain"),
])
def test_compare_verdicts(change, exact, verdict):
    parent = [(s, v) for s, v in enumerate([10.0, 10.1, 9.9, 10.2])]
    row = bench.compare_metric(parent, list(enumerate(change)), "lower", 0.1,
                               exact=exact)
    assert row["verdict"] == verdict


def test_compare_is_unresolved_when_spread_exceeds_bound():
    parent = list(enumerate([8.0, 10.0, 12.0, 14.0]))
    change = list(enumerate([9.0, 11.0, 13.0, 15.0]))
    row = bench.compare_metric(parent, change, "lower", 0.1)
    assert row["verdict"] == "unresolved"


def test_compare_reads_run_directories(tmp_path, capsys):
    for side, values in (("parent", [10.0, 10.1]), ("change", [13.0, 13.1])):
        (tmp_path / side).mkdir()
        for seed, v in enumerate(values):
            (tmp_path / side / f"r{seed}.json").write_text(
                json.dumps(_record(seed, v)))
    args = bench.build_parser().parse_args(
        ["compare", str(tmp_path / "parent"), str(tmp_path / "change")])
    assert bench.cmd_compare(args) == 1
    assert "WORSE" in capsys.readouterr().out
