"""Relational candidate discovery: throughput vs. the legacy loops.

PR 9 replaced the per-pair Python loops that regenerate each KL round's
candidate set with the relational engine
(``repro.synthesis.relational``): the solution is projected into
in-memory SQLite tables once per round and the A/C/D candidate families
come back from batched joins as *lazy descriptors* — ``Solution.clone``
only runs for candidates that survive pruning.  The legacy loops remain
as its test reference (``relational=False``) and are bit-identical by
construction, which makes an in-process race meaningful:

* both engines generate from the *same* solution object, so schedule
  and lifetime memos are shared and the timed region isolates discovery
  itself (join + descriptor cost vs. loop + eager clone cost);
* the candidate multisets are asserted identical (by
  ``candidate_order_key``, the total order the improvement loop breaks
  ties with) outside the timed region — equal multisets mean equal
  search trajectories, so the time ratio is the throughput ratio.

Circuits: the paper's ``paulin`` and ``test1`` benchmarks plus one
seeded flat design from :mod:`repro.gen` (no module instances, so the
race measures the relational families rather than eager resynthesis).

Writes ``benchmarks/results/BENCH_9.json``; the CI perf-smoke job gates
on >= 3x generation throughput for paulin and test1.
"""

from __future__ import annotations

import json
import time

from repro.bench_suite import get_benchmark
from repro.gen import GenConfig, generate_design
from repro.library import default_library
from repro.power import simulate_subgraph, speech_traces
from repro.synthesis import SynthesisConfig, SynthesisEnv
from repro.synthesis.api import flatten_for_synthesis
from repro.synthesis.initial import initial_solution
from repro.synthesis.moves import (
    candidate_order_key,
    sharing_candidates,
    splitting_candidates,
    type_a_b_candidates,
)
from repro.synthesis.relational import RelationalView

from conftest import RESULTS_DIR, save_result

_GATED = ("paulin", "test1")
_N_TRACES = 256
_ROUNDS = 15  # best-of timing rounds per engine
_SPEEDUP_TARGET = 3.0  # required on every gated circuit

#: Seeded flat companion design: larger than the paper circuits and
#: free of module instances, so discovery time is dominated by the
#: families the relational engine actually batches.
_GEN_SEED = 9
_GEN_CONFIG = GenConfig(
    n_behaviors=(0, 0),
    ops_per_dfg=(28, 28),
    inputs_per_dfg=(5, 5),
    outputs_per_dfg=(3, 3),
    n_samples=32,
)


def _harness(circuit: str):
    """(env, solution, sim) for one circuit, memos cold."""
    if circuit.startswith("gen:"):
        generated = generate_design(int(circuit[4:]), _GEN_CONFIG)
        design, traces = generated.design, generated.traces
    else:
        # Flatten first: test1's top holds only module instances (zero
        # simple op nodes), so the un-flattened candidate families are
        # degenerate.  The flattened design is what the paper's baseline
        # (and `repro synth --flatten`) actually iterates on.
        design = flatten_for_synthesis(get_benchmark(circuit))
        traces = speech_traces(design.top, n=_N_TRACES, seed=3)
    top = design.top
    sim = simulate_subgraph(design, top, [traces[name] for name in top.inputs])
    env = SynthesisEnv(design, default_library(), "power", SynthesisConfig())
    solution = initial_solution(env, top, sim, 10.0, 5.0, 2000.0)
    return env, solution, sim


def _generate(env, solution, sim, *, relational: bool):
    locked: frozenset[str] = frozenset()
    view = RelationalView(env, solution, locked) if relational else None
    cands = list(type_a_b_candidates(env, solution, sim, locked, view=view))
    cands += sharing_candidates(env, solution, sim, locked, view=view)
    cands += splitting_candidates(env, solution, sim, locked, view=view)
    return cands


def _race(circuit: str) -> dict:
    env, solution, sim = _harness(circuit)

    # Warm pass both ways: primes the shared schedule/lifetime memos so
    # the timed rounds measure steady-state discovery, and pins the
    # engines to the same candidate multiset.
    relational = _generate(env, solution, sim, relational=True)
    legacy = _generate(env, solution, sim, relational=False)
    keys = sorted(candidate_order_key(c) for c in relational)
    assert keys == sorted(candidate_order_key(c) for c in legacy), (
        f"engines discovered different candidate multisets on {circuit}"
    )
    lazy = sum(1 for c in relational if not c.is_materialized)

    # Each engine is timed in its own consecutive block (not
    # interleaved) so the best-of reflects steady state rather than
    # the other engine's cache footprint.
    relational_s = legacy_s = float("inf")
    for _ in range(_ROUNDS):
        t0 = time.perf_counter()
        _generate(env, solution, sim, relational=True)
        relational_s = min(relational_s, time.perf_counter() - t0)
    for _ in range(_ROUNDS):
        t0 = time.perf_counter()
        _generate(env, solution, sim, relational=False)
        legacy_s = min(legacy_s, time.perf_counter() - t0)

    n = len(keys)
    return {
        "candidates": n,
        "lazy_descriptors": lazy,
        "legacy_s": legacy_s,
        "legacy_per_s": n / legacy_s,
        "relational_s": relational_s,
        "relational_per_s": n / relational_s,
        "speedup": legacy_s / relational_s,
    }


def test_candidate_generation_throughput():
    circuits = (*_GATED, f"gen:{_GEN_SEED}")
    races = {circuit: _race(circuit) for circuit in circuits}

    snapshot = {
        "bench": "candidate_gen",
        "pr": 9,
        "rounds": _ROUNDS,
        "n_traces": _N_TRACES,
        "gen_seed": _GEN_SEED,
        "races": races,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_9.json").write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    )

    lines = [
        "Relational candidate discovery vs legacy per-pair loops",
        f"(equal candidate multisets asserted, best of {_ROUNDS})",
        "=================================================================",
    ]
    for circuit, m in races.items():
        lines.append(
            f"{circuit:8s} {m['candidates']:4d} candidates "
            f"({m['lazy_descriptors']} lazy): "
            f"{m['legacy_per_s']:.0f}/s legacy -> "
            f"{m['relational_per_s']:.0f}/s relational "
            f"({m['speedup']:.2f}x)"
        )
    save_result("candidate_gen", "\n".join(lines))

    slow = {c: races[c]["speedup"] for c in _GATED
            if races[c]["speedup"] < _SPEEDUP_TARGET}
    assert not slow, (
        f"expected >= {_SPEEDUP_TARGET}x generation throughput on every "
        "gated circuit, got "
        + ", ".join(f"{c}: {s:.2f}x" for c, s in slow.items())
    )
