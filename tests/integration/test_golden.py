"""Golden regression snapshots of the synthesis cost metrics.

Each golden pins the (area, power, clock, Vdd) quadruple a full
``synthesize()`` run produces for one benchmark under a fixed stimulus
seed and reduced-effort configuration, for both objectives.  The runs
are deterministic, so any drift means a synthesis change moved the
costs — caught here at PR time instead of in the benchmark sweeps.

When a change *intentionally* moves the numbers, regenerate with::

    PYTHONPATH=src python -m pytest tests/integration/test_golden.py \
        --update-goldens

and commit the refreshed JSON files under ``tests/integration/goldens/``.
"""

import json
import sqlite3
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.bench_suite import example3_dfg1, get_benchmark
from repro.dfg import Design
from repro.power import speech_traces
from repro.reporting import quick_config
from repro.synthesis import synthesize

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: Floats are compared to a tight relative tolerance: the flow is
#: deterministic, so the slack only absorbs cross-platform libm noise.
REL_TOL = 1e-9

TRACE_SEED = 2026
TRACE_SAMPLES = 24
LAXITY = 1.8


def _example3_design() -> Design:
    # example3 ships as a bare DFG (the Table 2 demonstration pair);
    # wrap DFG1 as a single-behavior design so synthesize() accepts it.
    design = Design("example3")
    design.add_dfg(example3_dfg1(), top=True)
    return design


CASES = {
    "test1": lambda: get_benchmark("test1"),
    "paulin": lambda: get_benchmark("paulin"),
    "example3": _example3_design,
}


def _snapshot(name: str) -> dict:
    snapshot: dict = {}
    for objective in ("area", "power"):
        design = CASES[name]()
        traces = speech_traces(design.top, n=TRACE_SAMPLES, seed=TRACE_SEED)
        result = synthesize(
            design,
            laxity_factor=LAXITY,
            objective=objective,
            traces=traces,
            config=quick_config(),
        )
        snapshot[objective] = {
            "area": result.area,
            "power": result.power,
            "clock_ns": result.clk_ns,
            "vdd": result.vdd,
        }
    return snapshot


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_costs(name, update_goldens):
    observed = _snapshot(name)
    path = GOLDEN_DIR / f"{name}.json"
    if update_goldens:
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(observed, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden updated: {path}")
    _assert_matches_golden(name, observed)


def _assert_matches_golden(name: str, observed: dict) -> None:
    path = GOLDEN_DIR / f"{name}.json"
    assert path.exists(), (
        f"missing golden {path}; generate it with pytest --update-goldens"
    )
    expected = json.loads(path.read_text())
    assert set(observed) == set(expected)
    for objective, metrics in expected.items():
        assert set(observed[objective]) == set(metrics)
        for key, want in metrics.items():
            got = observed[objective][key]
            assert got == pytest.approx(want, rel=REL_TOL), (
                f"{name}/{objective}/{key}: golden {want}, observed {got}"
            )


def test_synthesis_without_cache_dir_opens_no_database(monkeypatch):
    """Discovery and the in-memory store need no SQLite: with no
    ``cache_dir`` a run reaches its golden while ``sqlite3.connect``
    raises."""

    def refuse(*args, **kwargs):
        raise sqlite3.OperationalError("synthesis opened a database")

    monkeypatch.setattr(sqlite3, "connect", refuse)
    assert quick_config().cache_dir is None
    # A fresh thread, so that no connection an earlier test left open
    # on this one (a per-thread cache, say) can stand in for a connect.
    with ThreadPoolExecutor(max_workers=1) as pool:
        observed = pool.submit(_snapshot, "paulin").result()
    _assert_matches_golden("paulin", observed)
