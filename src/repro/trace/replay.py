"""Deterministic replay of a recorded move sequence.

A trace records, for every improvement pass, the moves the engine chose
and the cost after each one.  Replay re-executes exactly the *committed*
prefixes of those passes — regenerating the candidate moves at each step
and selecting the recorded one — against a freshly reconstructed run
(design, library, stimulus, operating point).  Because every stage of
the engine is deterministic, the replayed solution must price to the
recorded final cost **bit-identically**; the replayed architecture is
then cross-checked against the behavioral simulation by the
differential verification oracle (:mod:`repro.verify`).

Two ways in:

* :func:`replay_trace` with explicit ``design``/``library``/``traces``
  objects — for API users who hold the originals;
* a trace whose ``run_start`` carries CLI provenance (benchmark name or
  design path, trace generator, seed) replays standalone:
  ``repro-trace replay run.jsonl``.

Candidate matching is by (kind, description); committed move-B chains
can rename generated modules between runs (the fresh-name counter sees
a different pricing history), so an exact-cost fallback resolves those.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from ..dfg.hierarchy import Design
from ..errors import ReproError
from ..library.library import ModuleLibrary, default_library
from ..power.simulate import simulate_subgraph
from ..power.traces import TraceSet
from ..synthesis.api import flatten_for_synthesis
from ..synthesis.context import SynthesisConfig, SynthesisEnv
from ..synthesis.initial import initial_solution
from ..synthesis.moves import (
    Candidate,
    sharing_candidates,
    splitting_candidates,
    type_a_b_candidates,
)
from ..synthesis.solution import Solution
from .reader import TraceSchemaError, check_schema

__all__ = ["ReplayError", "ReplayResult", "replay_trace"]


class ReplayError(ReproError):
    """A recorded move could not be reproduced from the trace."""


@dataclass
class ReplayResult:
    """Outcome of replaying one trace's winning operating point."""

    #: True when the replayed cost equals the recorded cost bit-for-bit
    #: and (if requested) the verification oracle passed.
    ok: bool
    #: Objective value of the replayed final solution.
    cost: float
    #: Objective value the trace's ``run_end`` recorded for the winner.
    recorded_cost: float
    #: Number of committed moves re-applied.
    n_moves: int
    #: (Vdd, clk_ns) of the replayed operating point.
    vdd: float
    clk_ns: float
    #: The replayed architecture.
    solution: Solution
    #: Oracle verdict (None when ``verify=False``).
    verification: Any | None = None

    def describe(self) -> str:
        """One-paragraph human-readable verdict."""
        head = (
            f"replayed {self.n_moves} committed moves at "
            f"Vdd {self.vdd:.2f} V / clock {self.clk_ns:.2f} ns: "
            f"cost {self.cost!r} vs recorded {self.recorded_cost!r} — "
            f"{'bit-identical' if self.cost == self.recorded_cost else 'MISMATCH'}"
        )
        if self.verification is not None:
            head += (
                "; oracle OK"
                if self.verification.ok
                else f"; oracle FAILED ({self.verification.counterexample.describe()})"
            )
        return head


# ----------------------------------------------------------------------
# Trace dissection
# ----------------------------------------------------------------------

def _parse(events: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Extract run header, winner and the committed move plan."""
    run_start = next((e for e in events if e["k"] == "run_start"), None)
    if run_start is None:
        raise ReplayError("not a synthesis trace: no run_start event")
    try:
        # Replay only consumes fields present since schema v1 (committed
        # prefixes and the recorded config), so every version the shared
        # reader accepts replays.
        check_schema(run_start.get("schema"))
    except TraceSchemaError as exc:
        raise ReplayError(str(exc)) from exc
    run_end = next((e for e in events if e["k"] == "run_end"), None)
    if run_end is None:
        raise ReplayError("trace is incomplete: no run_end event")
    winner = run_end["winner"]
    point = winner["point"]
    committed = {
        e["pass"]: e["committed"]
        for e in events
        if e["k"] == "pass_end" and e.get("point") == point
    }
    plan: list[list[dict]] = []
    for p in sorted(committed):
        if committed[p] == 0:
            continue
        steps = sorted(
            (
                e for e in events
                if e["k"] == "step" and e.get("point") == point
                and e["pass"] == p and e["step"] < committed[p]
            ),
            key=lambda e: e["step"],
        )
        if len(steps) != committed[p]:
            raise ReplayError(
                f"trace is missing step events for point {point} pass {p} "
                f"(have {len(steps)}, committed {committed[p]}) — "
                "was it truncated by the event bound?"
            )
        plan.append(steps)
    return {"run_start": run_start, "winner": winner, "plan": plan}


def _reconstruct_inputs(
    run_start: dict[str, Any],
    design: Design | None,
    library: ModuleLibrary | None,
    traces: TraceSet | None,
) -> tuple[Design, ModuleLibrary, TraceSet, SynthesisConfig]:
    """Rebuild the run's inputs from arguments or recorded provenance."""
    provenance = run_start.get("provenance") or {}
    config_fields = {f for f in SynthesisConfig.__dataclass_fields__}
    config = SynthesisConfig(**{
        k: v for k, v in run_start["config"].items() if k in config_fields
    })
    config.n_workers = 1
    config.trace = False
    config.verify_moves = False

    if design is None:
        design = _design_from_provenance(provenance)
    if library is None:
        library = default_library()
        if provenance.get("built_library"):
            from ..synthesis.library_gen import build_complex_library

            library = build_complex_library(design, library, config=config)
    if traces is None:
        traces = _traces_from_provenance(provenance, design)
    return design, library, traces, config


def _design_from_provenance(provenance: dict[str, Any]) -> Design:
    if provenance.get("benchmark"):
        from ..bench_suite import get_benchmark

        return get_benchmark(provenance["benchmark"])
    if provenance.get("design_path"):
        from ..dfg import parse_design, validate_design

        path = Path(provenance["design_path"])
        if not path.exists():
            raise ReplayError(
                f"recorded design file {path} no longer exists; pass "
                "design= explicitly"
            )
        design = parse_design(path.read_text(), name_hint=path.stem)
        validate_design(design)
        return design
    raise ReplayError(
        "trace has no design provenance (API-produced trace): pass "
        "design=, and usually library=/traces=, explicitly"
    )


def _traces_from_provenance(
    provenance: dict[str, Any], design: Design
) -> TraceSet:
    from ..power import image_traces, speech_traces, white_traces

    generators = {
        "speech": speech_traces, "white": white_traces, "image": image_traces,
    }
    name = provenance.get("traces")
    if name not in generators:
        raise ReplayError(
            "trace has no stimulus provenance: pass traces= explicitly"
        )
    return generators[name](
        design.top,
        n=int(provenance.get("samples", 48)),
        seed=int(provenance.get("seed", 0)),
    )


# ----------------------------------------------------------------------
# Move matching
# ----------------------------------------------------------------------

def _regenerate(env, work, sim, locked) -> list[Candidate]:
    """All candidate moves the engine could have generated at one step."""
    return (
        type_a_b_candidates(env, work, sim, locked)
        + sharing_candidates(env, work, sim, locked)
        + splitting_candidates(env, work, sim, locked)
    )


def _match(
    candidates: list[Candidate],
    recorded: dict[str, Any],
    ctx,
) -> Candidate:
    """Find the recorded move among freshly generated candidates.

    Primary key: (kind, description).  Fallback: same kind and the
    exact recorded post-move cost — this absorbs generated-module name
    drift (``dct_sub_v3`` vs ``_v5``) without weakening the check,
    because the cost is a full structural evaluation.
    """
    same_kind = [c for c in candidates if c.kind == recorded["kind"]]
    exact = [c for c in same_kind if c.description == recorded["move"]]
    if len(exact) == 1:
        return exact[0]
    if len(exact) > 1:
        priced = [c for c in exact if ctx.cost(c.solution) == recorded["cost"]]
        if priced:
            return priced[0]
        raise ReplayError(
            f"ambiguous candidates for recorded move {recorded['move']!r} "
            "and none prices to the recorded cost"
        )
    by_cost = [
        c for c in same_kind if ctx.cost(c.solution) == recorded["cost"]
    ]
    if len(by_cost) >= 1:
        return by_cost[0]
    raise ReplayError(
        f"recorded move {recorded['move']!r} ({recorded['kind']}) could "
        "not be regenerated — replay inputs differ from the recorded run"
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def replay_trace(
    events: Sequence[dict[str, Any]],
    design: Design | None = None,
    library: ModuleLibrary | None = None,
    traces: TraceSet | None = None,
    verify: bool = True,
) -> ReplayResult:
    """Re-execute a trace's committed move sequence and cross-check it.

    Reconstructs the winning operating point's search: initial solution,
    then each committed pass prefix move by move.  Returns a
    :class:`ReplayResult` whose ``ok`` requires the replayed final cost
    to equal the recorded one bit-for-bit and — unless ``verify=False``
    — the differential RTL oracle to accept the replayed architecture.
    """
    parsed = _parse(events)
    run_start, winner = parsed["run_start"], parsed["winner"]
    design, library, traces, config = _reconstruct_inputs(
        run_start, design, library, traces
    )
    if run_start.get("flattened"):
        design = flatten_for_synthesis(design)

    top = design.top
    input_streams = [traces[name] for name in top.inputs]
    sim = simulate_subgraph(design, top, input_streams)

    env = SynthesisEnv(design, library, run_start["objective"], config)
    ctx = env.context(sim)
    vdd, clk_ns = winner["vdd"], winner["clk_ns"]
    current = initial_solution(
        env, top, sim, clk_ns, vdd, run_start["sampling_ns"]
    )

    n_moves = 0
    for pass_steps in parsed["plan"]:
        locked: frozenset[str] = frozenset()
        work = current
        for recorded in pass_steps:
            candidates = _regenerate(env, work, sim, locked)
            chosen = _match(candidates, recorded, ctx)
            work = chosen.solution
            locked = locked | chosen.touched
            n_moves += 1
        current = work

    cost = ctx.cost(current)
    verification = None
    ok = cost == winner["cost"]
    if verify:
        from ..verify import verify_solution

        verification = verify_solution(design, current, sim=sim)
        ok = ok and verification.ok
    return ReplayResult(
        ok=ok,
        cost=cost,
        recorded_cost=winner["cost"],
        n_moves=n_moves,
        vdd=vdd,
        clk_ns=clk_ns,
        solution=current,
        verification=verification,
    )
