"""Byte-identity of the improvement search against golden traces.

The improvement loop runs the paper's fixed scheme
(``docs/SEARCH.md``), and a refactor of it must reproduce the search
**byte for byte** — same moves, same telemetry-fed eval counters, same
trace JSONL.  The goldens pin that (timings disabled, so the traces are
deterministic).

Each case keeps one golden, ``<name>.jsonl``, and runs twice: as
shipped (``relational``, the in-process discovery engine) and with the
per-pair reference loops of ``tests/reference_discovery.py`` patched
over the improvement loop's view (``legacy``).  Both must emit the
same bytes.

When a change *intentionally* moves the search (a new move family, a
cost-model fix), regenerate with::

    PYTHONPATH=src python -m pytest tests/integration/test_search_goldens.py \
        --update-goldens

The relational run writes each golden; the legacy run of the same case
still compares against it, so an update fails if the two disagree.
Check that the regeneration moved only the fields the change meant to
move with ``tools/trace_field_diff.py OLD NEW --allow FIELD``, then
commit the refreshed JSONL files under
``tests/integration/goldens/traces/``.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro.bench_suite import get_benchmark
from repro.gen import GenConfig, generate_design
from repro.power import speech_traces
from repro.synthesis import SynthesisConfig, synthesize
from repro.trace import dumps_trace
from tests.reference_discovery import ReferenceView

GOLDEN_DIR = Path(__file__).parent / "goldens" / "traces"

#: Stimulus pinning for the benchmark cases.
TRACE_SEED = 3
TRACE_SAMPLES = 16
LAXITY = 2.2

#: Generated-corpus shape: hierarchical and flat designs, with
#: anisomorphic variants so move A's module swaps are exercised.
GEN_SEEDS = tuple(range(12))
GEN_CONFIG = dataclasses.replace(
    GenConfig(),
    ops_per_dfg=(4, 14),
    n_behaviors=(0, 2),
    variants_per_behavior=(1, 2),
    n_samples=12,
)
GEN_LAXITY = 2.0


def _trace_config() -> SynthesisConfig:
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
    )


def _run_benchmark(name: str) -> str:
    design = get_benchmark(name)
    traces = speech_traces(design.top, n=TRACE_SAMPLES, seed=TRACE_SEED)
    result = synthesize(
        design,
        laxity_factor=LAXITY,
        objective="power",
        traces=traces,
        config=_trace_config(),
        n_samples=TRACE_SAMPLES,
    )
    return dumps_trace(result.trace_events)


def _run_generated(seed: int) -> str:
    generated = generate_design(seed, GEN_CONFIG)
    result = synthesize(
        generated.design,
        laxity_factor=GEN_LAXITY,
        objective="power",
        traces=generated.traces,
        config=_trace_config(),
        n_samples=GEN_CONFIG.n_samples,
    )
    return dumps_trace(result.trace_events)


CASES: dict[str, object] = {
    "paulin": lambda: _run_benchmark("paulin"),
    "test1": lambda: _run_benchmark("test1"),
}
for _seed in GEN_SEEDS:
    CASES[f"gen{_seed:02d}"] = lambda seed=_seed: _run_generated(seed)


@pytest.mark.parametrize("relational", (True, False),
                         ids=("relational", "legacy"))
@pytest.mark.parametrize("name", sorted(CASES))
def test_search_trace_matches_golden(
    name, relational, update_goldens, monkeypatch
):
    if not relational:
        monkeypatch.setattr("repro.synthesis.improve.RelationalView", ReferenceView)
    observed = CASES[name]()
    path = GOLDEN_DIR / f"{name}.jsonl"
    # The parametrization runs each case's relational engine before its
    # legacy one, so in update mode the legacy run checks the fresh file.
    if update_goldens and relational:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(observed)
        pytest.skip(f"golden updated: {path}")
    assert path.exists(), (
        f"missing golden {path}; generate it with pytest --update-goldens"
    )
    expected = path.read_text()
    assert observed == expected, (
        f"search trace for {name} ({'relational' if relational else 'reference'} "
        f"discovery) diverged from the golden {path.name}"
    )


def test_golden_dir_holds_one_file_per_case():
    """Both discovery views share one golden, so no per-view twins linger."""
    on_disk = {path.name for path in GOLDEN_DIR.iterdir()}
    assert on_disk == {f"{name}.jsonl" for name in CASES}
