"""Determinism of the parallel operating-point sweep.

The outer (Vdd, clock) loop fans out over a process pool when
``SynthesisConfig.n_workers > 1``; every point runs in a fresh
:class:`~repro.synthesis.context.SynthesisEnv`, which must be
bit-equivalent to the serial path's reset-between-points env.  These
tests pin that contract on two paper benchmarks.
"""

import pytest

from repro.bench_suite import get_benchmark
from repro.power import speech_traces
from repro.synthesis import SynthesisConfig, synthesize


def _config(n_workers: int) -> SynthesisConfig:
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
    )


def _run(circuit: str, n_workers: int):
    design = get_benchmark(circuit)
    traces = speech_traces(design.top, n=24, seed=3)
    return synthesize(
        design,
        laxity_factor=2.2,
        objective="power",
        traces=traces,
        config=_config(n_workers),
        n_samples=24,
    )


@pytest.mark.parametrize("circuit", ["test1", "paulin"])
def test_parallel_matches_serial(circuit):
    serial = _run(circuit, n_workers=1)
    parallel = _run(circuit, n_workers=4)

    assert (parallel.area, parallel.power, parallel.vdd, parallel.clk_ns) == (
        serial.area, serial.power, serial.vdd, serial.clk_ns
    )
    # The whole trajectory matches, not just the winner: the merged
    # worker telemetry equals the serial sweep's cumulative counts.
    assert parallel.telemetry.evaluations == serial.telemetry.evaluations
    assert parallel.telemetry.cache_hits == serial.telemetry.cache_hits
    assert parallel.telemetry.moves_tried == serial.telemetry.moves_tried
    assert parallel.telemetry.moves_committed == serial.telemetry.moves_committed
    assert parallel.telemetry.points_explored == serial.telemetry.points_explored


def test_cost_cache_earns_hits_on_paulin():
    result = _run("paulin", n_workers=1)
    assert result.telemetry.cache_hits > 0
    assert result.telemetry.cache_hit_rate > 0.0


def test_parallel_library_build_does_not_nest_library_copies(monkeypatch):
    """A library build characterizes modules from each sweep's winner
    into the library.  A worker's winner must refer to the parent's
    library, not to the worker's copy of it: otherwise every sweep
    pickles a library that nests the previous one, and the pickle
    doubles per sweep.  At every sweep the parallel build's pickled
    library stays within twice the serial one's, and the two builds
    are equal in content."""
    import pickle

    from repro.dfg.canonical import library_signature
    from repro.library import default_library
    from repro.synthesis import library_gen

    synthesize_sweep = library_gen.synthesize

    def build(n_workers, bounds=None):
        library = default_library()
        sizes = []

        def sweep(*args, **kwargs):
            result = synthesize_sweep(*args, **kwargs)
            sizes.append(len(pickle.dumps(library)))
            if bounds is not None:
                # Fail at the first sweep that overshoots, before a
                # doubling library costs real memory.
                bound = 2 * bounds[len(sizes) - 1]
                assert sizes[-1] <= bound, (len(sizes), sizes[-1], bound)
            return result

        monkeypatch.setattr(library_gen, "synthesize", sweep)
        library_gen.build_complex_library(
            get_benchmark("test1"), library, config=_config(n_workers),
            n_samples=24,
        )
        return library, sizes

    serial, serial_sizes = build(1)
    parallel, parallel_sizes = build(2, bounds=serial_sizes)
    assert len(parallel_sizes) == len(serial_sizes) > 10
    assert library_signature(parallel) == library_signature(serial)
    assert [
        m.name for b in parallel.complex_behaviors()
        for m in parallel.complex_modules_for(b)
    ] == [
        m.name for b in serial.complex_behaviors()
        for m in serial.complex_modules_for(b)
    ]
