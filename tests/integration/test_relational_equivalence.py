"""Relational engine ≡ legacy loops, from generated corpus to traces.

Two layers of evidence that the legacy loops (``relational=False``)
are a bit-exact reference for the relational engine:

* a property test over the :mod:`repro.gen` corpus asserting the two
  engines discover identical candidate multisets (ordered by
  :func:`~repro.synthesis.moves.candidate_order_key`, the total order
  the improvement loop breaks ties with) and that every lazy
  descriptor's precomputed fingerprint equals its materialized clone's;
* an end-to-end traced run asserting byte-identical trace JSONL and
  equal final metrics across engines — equal multisets per step imply
  equal trajectories, and the trace is the step-by-step witness.
"""

import dataclasses

import pytest

from repro.bench_suite import get_benchmark
from repro.gen import GenConfig, generate_design
from repro.library import default_library
from repro.power import simulate_subgraph, speech_traces
from repro.synthesis import SynthesisConfig, synthesize
from repro.synthesis.context import SynthesisEnv
from repro.synthesis.initial import initial_solution
from repro.synthesis.moves import (
    candidate_order_key,
    sharing_candidates,
    splitting_candidates,
    type_a_b_candidates,
)
from repro.synthesis.relational import RelationalView
from repro.trace import dumps_trace

NONE_LOCKED = frozenset()

#: Flat and hierarchical shapes; discovery equivalence must hold for
#: both (module instances exercise the families that *stay* on the
#: shared Python helpers next to the relational ones).
CORPUS_CONFIG = dataclasses.replace(
    GenConfig(),
    ops_per_dfg=(4, 18),
    n_behaviors=(0, 2),
    variants_per_behavior=(1, 2),
    n_samples=8,
)


class TestGeneratedCorpus:
    @pytest.mark.parametrize("seed", range(12))
    def test_discovery_multisets_identical(self, seed):
        generated = generate_design(seed, CORPUS_CONFIG)
        design, traces = generated.design, generated.traces
        top = design.top
        sim = simulate_subgraph(
            design, top, [traces[name] for name in top.inputs]
        )
        env = SynthesisEnv(design, default_library(), "power", SynthesisConfig())
        solution = initial_solution(env, top, sim, 10.0, 5.0, 2000.0)

        view = RelationalView(env, solution, NONE_LOCKED)
        relational = (
            list(type_a_b_candidates(env, solution, sim, NONE_LOCKED, view=view))
            + sharing_candidates(env, solution, sim, NONE_LOCKED, view=view)
            + splitting_candidates(env, solution, sim, NONE_LOCKED, view=view)
        )
        legacy = (
            list(type_a_b_candidates(env, solution, sim, NONE_LOCKED, view=None))
            + sharing_candidates(env, solution, sim, NONE_LOCKED, view=None)
            + splitting_candidates(env, solution, sim, NONE_LOCKED, view=None)
        )
        assert sorted(candidate_order_key(c) for c in relational) == sorted(
            candidate_order_key(c) for c in legacy
        ), f"discovery diverged on generated seed {seed}"

        for cand in relational:
            if not cand.is_materialized:
                # Derived from scratch on a clone: the built solution
                # itself adopts the descriptor's key.
                derived = cand.solution.clone().fingerprint_key()
                assert cand.fingerprint_key() == derived, (
                    f"seed {seed}: {cand.kind} descriptor fingerprint "
                    "diverges from its materialized clone"
                )


def _traced(circuit: str, relational: bool):
    design = get_benchmark(circuit)
    traces = speech_traces(design.top, n=24, seed=3)
    config = SynthesisConfig(
        max_moves=6,
        max_passes=2,
        max_ab_targets=4,
        max_share_pairs=8,
        max_split_candidates=4,
        n_clocks=2,
        resynth_passes=1,
        resynth_moves=4,
        n_workers=1,
        trace=True,
        trace_timings=False,
        relational=relational,
    )
    return synthesize(
        design,
        laxity_factor=2.2,
        objective="power",
        traces=traces,
        config=config,
        n_samples=24,
    )


class TestEndToEndBitIdentity:
    @pytest.mark.parametrize("circuit", ["paulin", "test1"])
    def test_trace_and_costs_identical(self, circuit):
        default = _traced(circuit, relational=True)
        fallback = _traced(circuit, relational=False)
        assert default.trace_events, "tracing enabled but no events recorded"
        assert dumps_trace(default.trace_events) == dumps_trace(
            fallback.trace_events
        ), f"legacy-engine trace diverges from default on {circuit}"
        assert default.metrics == fallback.metrics
        assert default.vdd == fallback.vdd
        assert default.clk_ns == fallback.clk_ns
        assert sorted(default.solution.instances) == sorted(
            fallback.solution.instances
        )
