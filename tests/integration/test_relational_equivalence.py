"""Relational engine ≡ per-pair reference loops, from corpus to traces.

Two layers of evidence that the relational engine discovers exactly
what the per-pair loops of ``tests/reference_discovery.py`` do:

* a property test over the :mod:`repro.gen` corpus asserting the two
  views yield identical candidate multisets (ordered by
  :func:`~repro.synthesis.moves.candidate_order_key`, the total order
  the improvement loop breaks ties with) and that every lazy
  descriptor's precomputed fingerprint equals its materialized clone's;
  drawn solutions add random locked sets and family caps, which decide
  where the top-k joins stop, and two built cases pin the ties those
  joins break by position (saved area, then binding order; min-area
  fallback targets, then library order);
* an end-to-end traced run, once as shipped and once with the reference
  patched over the improvement loop's view, asserting byte-identical
  trace JSONL and equal final metrics — equal multisets per step imply
  equal trajectories, and the trace is the step-by-step witness.
"""

import dataclasses
import random

import pytest

from repro.bench_suite import get_benchmark
from repro.dfg import Design, GraphBuilder
from repro.dfg.ops import Operation
from repro.gen import GenConfig, generate_design
from repro.library import ModuleLibrary, default_library
from repro.library.cells import CellKind, LibraryCell
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
from tests.reference_discovery import ReferenceView

NONE_LOCKED = frozenset()
DISCOVER = (type_a_b_candidates, sharing_candidates, splitting_candidates)

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

        def discover_all(view) -> list:
            return [
                cand
                for discover in DISCOVER
                for cand in discover(env, solution, sim, NONE_LOCKED, view=view)
            ]

        relational = discover_all(RelationalView(env, solution, NONE_LOCKED))
        expected = discover_all(ReferenceView(env, solution, NONE_LOCKED))
        assert sorted(candidate_order_key(c) for c in relational) == sorted(
            candidate_order_key(c) for c in expected
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


#: Family caps the drawn solutions choose from: 0 and 1 empty or
#: nearly empty families, 64 reaches past the first area level.
SHARE_CAPS = (0, 1, 2, 3, 8, 64)
SPLIT_CAPS = (0, 1, 3, 8)
FAMILIES = (
    "cell_replacements", "fu_sharing", "register_sharing", "fu_splits",
    "register_splits",
)


def _assert_views_agree(env, solution, locked, targets, where: str) -> None:
    """Each family: equal order-key multisets, exact lazy fingerprints."""
    engine = RelationalView(env, solution, locked)
    reference = ReferenceView(env, solution, locked)
    for method in FAMILIES:
        args = (targets,) if method == "cell_replacements" else ()
        got = getattr(engine, method)(*args)
        want = getattr(reference, method)(*args)
        assert sorted(map(candidate_order_key, got)) == sorted(
            map(candidate_order_key, want)
        ), f"{where}: {method} diverges from the reference"
        for cand in got:
            derived = cand.solution.clone().fingerprint_key()
            assert cand.fingerprint_key() == derived, (
                f"{where}: {cand.kind} descriptor fingerprint diverges from "
                "its materialized clone"
            )


def _check_drawn(draw: int) -> None:
    """One generated solution, walked, capped and locked at random."""
    rng = random.Random(draw)
    generated = generate_design(draw, CORPUS_CONFIG)
    design, traces = generated.design, generated.traces
    top = design.top
    sim = simulate_subgraph(design, top, [traces[name] for name in top.inputs])
    library = default_library()
    walk_env = SynthesisEnv(design, library, "power", SynthesisConfig())
    solution = initial_solution(walk_env, top, sim, 10.0, 5.0, 2000.0)
    # A few random merges give the split families shared resources and
    # the sharing joins units with unions of requirements.
    for _ in range(rng.randrange(4)):
        view = RelationalView(walk_env, solution, NONE_LOCKED)
        merges = view.fu_sharing() + view.register_sharing()
        if not merges:
            break
        solution = rng.choice(merges).solution
    config = SynthesisConfig(
        max_share_pairs=rng.choice(SHARE_CAPS),
        max_split_candidates=rng.choice(SPLIT_CAPS),
    )
    env = SynthesisEnv(design, library, "power", config)
    p_lock = rng.choice((0.0, 0.2, 0.5))
    locked = frozenset(
        r
        for r in [*solution.instances, *solution.reg_signals]
        if rng.random() < p_lock
    )
    targets = [
        i
        for i, inst in solution.instances.items()
        if not inst.is_module and i not in locked and solution.executions[i]
    ]
    if targets and rng.random() < 0.5:
        # A capped target list out of binding order, as a binding
        # cap (``max_ab_targets``) leaves it after ranking by weight.
        rng.shuffle(targets)
        targets = targets[: rng.randrange(1, len(targets) + 1)]
    _assert_views_agree(
        env, solution, locked, targets,
        f"draw {draw} ({config.max_share_pairs}/{config.max_split_candidates}"
        f" caps, {len(locked)} locked)",
    )


class TestDrawnSolutions:
    """Random locked sets and caps over generated, partly merged solutions."""

    @pytest.mark.parametrize("draw", range(24))
    def test_engine_matches_reference(self, draw):
        _check_drawn(draw)

    @pytest.mark.fuzz
    @pytest.mark.parametrize("draw", range(1000, 1240))
    def test_engine_matches_reference_fuzz(self, draw):
        _check_drawn(draw)


def _fu(name: str, ops: set[Operation], area: float) -> LibraryCell:
    return LibraryCell(
        name=name, kind=CellKind.FUNCTIONAL, ops=frozenset(ops), area=area,
        delay_ns=5.0, cap=1.0,
    )


def _built(dfg, library: ModuleLibrary, bind: dict[Operation, str]):
    """Initial solution of *dfg* with each op type bound to one cell."""
    design = Design(dfg.name)
    design.add_dfg(dfg, top=True)
    sim = simulate_subgraph(
        design, dfg, [speech_traces(dfg, n=8, seed=1)[n] for n in dfg.inputs]
    )
    env = SynthesisEnv(design, library, "power", SynthesisConfig())
    solution = initial_solution(env, dfg, sim, 10.0, 5.0, 2000.0)
    for inst_id in list(solution.instances):
        (group,) = solution.executions[inst_id]
        op = dfg.node(group[0]).op
        solution.set_cell(inst_id, library.cell(bind[op]))
    return design, library, solution


class TestBuiltTies:
    """Pairs that only position ranks: the ties the top-k joins break."""

    @pytest.mark.parametrize("cap", [1, 2, 3, 8, 64])
    def test_one_cell_everywhere_ranks_by_binding_order(self, cap):
        b = GraphBuilder("adds")
        x, y, z, w = b.inputs("x", "y", "z", "w")
        s = [b.add(x, y), b.add(z, w), b.add(x, w), b.add(y, z), b.add(x, z)]
        b.output("o0", b.add(b.add(s[0], s[1]), b.add(s[2], s[3])))
        b.output("o1", s[4])
        design, library, solution = _built(
            b.build(), default_library(), {Operation.ADD: "add1"}
        )
        assert {inst.cell.name for inst in solution.instances.values()} == {
            "add1"
        }, "every unit must tie on saved area"
        env = SynthesisEnv(
            design, library, "power", SynthesisConfig(max_share_pairs=cap)
        )
        _assert_views_agree(
            env, solution, NONE_LOCKED, list(solution.instances), f"cap {cap}"
        )
        got = RelationalView(env, solution, NONE_LOCKED).fu_sharing()
        assert len(got) == min(cap, 28)  # 8 units, 28 pairs

    @pytest.mark.parametrize("first", ["alu_a", "alu_b"])
    def test_fallback_target_ties_break_by_library_position(self, first):
        second = {"alu_a": "alu_b", "alu_b": "alu_a"}[first]
        both = {Operation.ADD, Operation.MULT}
        # The wide ALU sits first so that area, not position, rules it
        # out; the two equal-area ALUs differ only in library position.
        library = ModuleLibrary(
            cells=[
                _fu("alu_wide", both, 90.0),
                _fu("add_only", {Operation.ADD}, 10.0),
                _fu("mul_only", {Operation.MULT}, 50.0),
                _fu(first, both, 70.0),
                _fu(second, both, 70.0),
            ]
        )
        b = GraphBuilder("mac")
        x, y, z = b.inputs("x", "y", "z")
        b.output("o", b.add(b.mult(x, y), b.add(z, x)))
        design, library, solution = _built(
            b.build(),
            library,
            {Operation.ADD: "add_only", Operation.MULT: "mul_only"},
        )
        env = SynthesisEnv(
            design, library, "power", SynthesisConfig(max_share_pairs=64)
        )
        _assert_views_agree(
            env, solution, NONE_LOCKED, list(solution.instances), first
        )
        targets = {
            c.description.rsplit("(", 1)[1].rstrip(")")
            for c in RelationalView(env, solution, NONE_LOCKED).fu_sharing()
        }
        # add+add keeps add_only; each add+mult pair falls back.
        assert targets == {"add_only", first}


def _traced(circuit: str):
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
    def test_trace_and_costs_identical(self, circuit, monkeypatch):
        default = _traced(circuit)
        monkeypatch.setattr("repro.synthesis.improve.RelationalView", ReferenceView)
        fallback = _traced(circuit)
        assert default.trace_events, "tracing enabled but no events recorded"
        assert dumps_trace(default.trace_events) == dumps_trace(
            fallback.trace_events
        ), f"reference-discovery trace diverges from default on {circuit}"
        assert default.metrics == fallback.metrics
        assert default.vdd == fallback.vdd
        assert default.clk_ns == fallback.clk_ns
        assert sorted(default.solution.instances) == sorted(
            fallback.solution.instances
        )
