"""Cost evaluation: area, trace-driven power, and the objective function.

Every tentative move is priced by re-evaluating the mutated solution:
rebuild the structural netlist (area side) and re-price the
per-resource stream interleavings (power side).  Gains are then
differences of these costs, exactly as in the paper's
``Gain(move, Obj)`` (Figure 4).  Local moves are priced *by delta*
against a per-term breakdown of the current solution (see
:mod:`repro.synthesis.incremental`); the result is bit-identical to a
from-scratch evaluation either way.

The evaluation context pins everything that stays fixed during one
iterative-improvement run: the module library, the simulated value
streams, the hierarchy path of the DFG being synthesized, the sampling
period and the objective.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal

import numpy as np

from ..dfg.canonical import graph_signature
from ..dfg.graph import Signal
from ..errors import SynthesisError
from ..power.estimator import PowerReport
from ..power.simulate import SimTrace
from ..rtl.components import DatapathNetlist
from ..telemetry import Telemetry
from .caching import HashedKey, LRUCache
from .store import MISSING, SynthesisStore
from ..power.activity import batch_activities
from .datapath_build import build_netlist, operand_port_map
from .incremental import (
    Breakdown,
    evaluate_solution,
    finish_evaluation,
    plan_evaluation,
)
from .solution import Solution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scheduling.model import ScheduleResult

__all__ = [
    "Objective",
    "Metrics",
    "EvaluationContext",
    "area_of",
    "schedule_digest",
    "DEFAULT_COST_CACHE_SIZE",
]

#: Default bound on the fingerprint-keyed cost cache (entries, not bytes;
#: one entry holds a Metrics record).
DEFAULT_COST_CACHE_SIZE = 4096

Objective = Literal["area", "power"]

#: Weight of the secondary metric in the objective, used only to break
#: ties between otherwise equal candidates.
_TIEBREAK = 1e-6

#: Reference area at which the interconnect length factor equals one.
_AREA_REF = 300.0


#: Base cost assigned to infeasible solutions; the amount of constraint
#: violation is added on top so the optimizer can still rank infeasible
#: candidates and descend back into the feasible region (used when an
#: initial solution misses the budget by a small margin).
_INFEASIBLE_COST = 1e9


@dataclass
class Metrics:
    """Evaluated properties of one solution."""

    area: float
    energy_per_sample: float
    power: float
    schedule_length: int
    feasible: bool
    report: PowerReport
    violation: float = 0.0

    def objective_value(self, objective: Objective) -> float:
        """Scalar cost under ``objective``; infeasible points cost ~1e9."""
        if not self.feasible:
            return _INFEASIBLE_COST * (1.0 + self.violation)
        if objective == "power":
            return self.power + _TIEBREAK * self.area
        return self.area + _TIEBREAK * self.power

    def __reduce__(self):
        """Pickle as one flat tuple of field values, report included.

        A stored metrics blob then carries no field names: on dct it is
        less than half the size of the dataclass form, which still
        loads (it restores ``__dict__`` and never calls this).
        """
        report = self.report
        return _metrics_from_fields, (
            self.area, self.energy_per_sample, self.power,
            self.schedule_length, self.feasible, self.violation,
            report.fu_energy, report.register_energy, report.mux_energy,
            report.wire_energy, report.extra_energy,
            report.sampling_period_ns, report.vdd, report.controller_energy,
        )


def _metrics_from_fields(
    area, energy_per_sample, power, schedule_length, feasible, violation,
    *report,
) -> Metrics:
    """Rebuild a :class:`Metrics` from :meth:`Metrics.__reduce__`'s tuple.

    Every stored metrics blob names this function: renaming it turns
    them into counted ``corrupt.metrics`` misses.
    """
    return Metrics(
        area, energy_per_sample, power, schedule_length, feasible,
        PowerReport(*report), violation,
    )


def area_of(solution: Solution, netlist: DatapathNetlist | None = None) -> float:
    """Total area: leaf netlist + complex-module instances."""
    if netlist is None:
        netlist = build_netlist(solution)
    total = netlist.area(solution.library)
    for inst in solution.instances.values():
        if inst.is_module:
            assert inst.module is not None
            total += inst.module.area(solution.library)
    return total


def schedule_digest(solution: Solution) -> str:
    """Store address of *solution*'s schedule, composed from its blocks.

    Equal to ``digest_content(("schedule", graph_signature(dfg),
    solution.task_signature()))``: list scheduling is a pure function
    of the graph and the task list, and the graph signature is
    identity-exact because a schedule's dicts reference concrete
    node/task ids.  The ``repr`` of that tuple is composed from each
    non-empty task block's cached :meth:`~repro.synthesis.solution.
    TaskBlock.signature_text` instead of being rendered afresh, so only
    blocks a move re-derived are rendered; a one-row signature keeps
    ``repr``'s trailing comma.
    """
    texts: list[str] = []
    n_rows = 0
    for block in solution.task_blocks():
        if block.tasks:
            texts.append(block.signature_text())
            n_rows += len(block.tasks)
    rows = ", ".join(texts) + ("," if n_rows == 1 else "")
    text = f"('schedule', {graph_signature(solution.dfg)!r}, ({rows}))"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class EvaluationContext:
    """Fixed context for evaluating solutions of one DFG level."""

    def __init__(
        self,
        sim: SimTrace,
        path: tuple[str, ...],
        objective: Objective,
        telemetry: Telemetry | None = None,
        cache_size: int = DEFAULT_COST_CACHE_SIZE,
        validate_incremental: bool = False,
        store: SynthesisStore | None = None,
    ):
        self.sim = sim
        self.path = path
        self.objective = objective
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        #: Debug mode: recompute every delta-priced and batch-priced
        #: evaluation from scratch and raise on any bitwise mismatch.
        self.validate_incremental = validate_incremental
        #: Memoized full evaluations, keyed by solution fingerprint.  The
        #: KL loop re-generates thousands of structurally identical
        #: candidates across steps and passes; pricing them is a lookup.
        self._cost_cache: LRUCache[HashedKey, Metrics] = LRUCache(cache_size)
        #: Per-term energy breakdowns of evaluated solutions, keyed like
        #: the cost cache; the improvement loop fetches the current
        #: solution's breakdown to delta-price its candidates against.
        self._breakdowns: LRUCache[HashedKey, Breakdown] = LRUCache(cache_size)
        #: Results priced ahead by :meth:`evaluate_batch`, consumed by
        #: the accounting pass in :meth:`evaluate`.
        self._batched: dict[
            HashedKey, tuple[Metrics, Breakdown, int, int]
        ] = {}
        #: Tiered synthesis store carrying the shared schedule memo
        #: (namespace ``"schedule"``); ``None`` for bare contexts
        #: (voltage scaling, module characterization), which fall back
        #: to the local LRU below.
        self.store = store
        #: Local schedule memo for store-less contexts (see
        #: :meth:`schedule_of`): register-binding moves and equal-timing
        #: cell swaps do not change the task set, so whole families of
        #: candidates share one list-scheduling run.
        self._schedules: LRUCache[HashedKey, "ScheduleResult"] = LRUCache(
            cache_size
        )

    # ------------------------------------------------------------------
    def _operand_streams(
        self, solution: Solution, group: tuple[str, ...]
    ) -> list[np.ndarray]:
        """External operand streams of one execution, in port order."""
        ports = operand_port_map(solution, group)
        ordered: list[tuple[int, Signal]] = []
        inside = set(group)
        for node_id in group:
            for edge in solution.dfg.in_edges(node_id):
                if edge.src in inside:
                    continue
                ordered.append((ports[(node_id, edge.dst_port)], edge.signal))
        ordered.sort()
        return [self.sim.stream(self.path, signal) for _port, signal in ordered]

    def _execution_order(
        self, solution: Solution, inst_id: str
    ) -> list[tuple[str, ...]]:
        """Executions of an instance in scheduled (serialization) order."""
        sched = solution.schedule()
        order = sched.instance_order.get(inst_id, [])
        groups = []
        for task_id in order:
            groups.append(solution.task(task_id).nodes)
        return groups

    def schedule_of(self, solution: Solution) -> "ScheduleResult":
        """Schedule *solution*, memoized by task signature.

        List scheduling is a deterministic function of (DFG, tasks), so
        an equal :meth:`~repro.synthesis.solution.Solution.
        task_signature` guarantees a bit-identical result; sharing the
        cached :class:`~repro.scheduling.model.ScheduleResult` (it is
        never mutated downstream) changes nothing but the wall clock.
        The hit is installed into the solution's own schedule cache so
        feasibility checks, register lifetimes and serialization order
        all see the same object.
        """
        sched = solution._schedule
        if sched is not None:
            return sched
        key = solution.schedule_key()
        if self.store is None:
            cached = self._schedules.get(key)
            if cached is None:
                cached = solution.schedule()
                self._schedules.put(key, cached)
            else:
                solution.adopt_schedule(cached)
            return cached
        cached = self.store.get("schedule", key)
        if cached is MISSING:
            digest = schedule_digest(solution)
            cached = self.store.fetch("schedule", key, digest)
            if cached is MISSING:
                cached = solution.schedule()
                self.store.put("schedule", key, digest, cached)
                return cached
        solution.adopt_schedule(cached)
        return cached

    # ------------------------------------------------------------------
    def evaluate(self, solution: Solution, base: Breakdown | None = None) -> Metrics:
        """Area/power evaluation of *solution*, memoized by fingerprint.

        Two solutions with equal :meth:`~repro.synthesis.solution.
        Solution.fingerprint` evaluate identically, so the second one is
        answered from the cache without rebuilding the netlist or
        re-running trace-driven power estimation.

        When *base* carries the current solution's per-term breakdown
        (see :mod:`repro.synthesis.incremental`), a cache miss is priced
        incrementally: energy terms whose inputs are unchanged are
        reused instead of recomputed.  The result is bit-identical to a
        from-scratch evaluation; telemetry classifies each miss as a
        delta hit, a delta fall-back (base offered, nothing reusable) or
        a full evaluation.
        """
        self.telemetry.evaluations += 1
        key = solution.fingerprint_key()
        cached = self._cost_cache.get(key)
        if cached is not None:
            self.telemetry.cache_hits += 1
            return cached
        self.telemetry.cache_misses += 1
        batched = self._batched.pop(key, None)
        if batched is not None:
            metrics, breakdown, reused, _terms = batched
        else:
            metrics, breakdown, reused, _terms = evaluate_solution(
                self, solution, base
            )
            if base is not None and self.validate_incremental:
                reference = evaluate_solution(self, solution, None)[0]
                _check_identical(metrics, reference)
        if base is None:
            self.telemetry.full_evals += 1
        elif reused:
            self.telemetry.delta_hits += 1
        else:
            self.telemetry.delta_fallbacks += 1
        self._cost_cache.put(key, metrics)
        self._breakdowns.put(key, breakdown)
        return metrics

    def breakdown_of(self, solution: Solution) -> Breakdown | None:
        """The stored per-term breakdown of an already-evaluated solution.

        Returns ``None`` when the solution has not been evaluated (or
        its breakdown was evicted); callers then simply price without a
        base, which is always correct.
        """
        return self._breakdowns.peek(solution.fingerprint_key())

    # ------------------------------------------------------------------
    def evaluate_batch(
        self, work: list[tuple[Solution, Breakdown | None]]
    ) -> None:
        """Price a whole candidate set through one batched activity call.

        Every uncached ``(solution, base)`` pair is *planned* (netlist,
        schedule, stream-free terms, activity-key matching against its
        base); the activity requests of all plans are then resolved with
        a single :func:`~repro.power.activity.batch_activities` kernel
        call, and each plan's per-term float arithmetic is replayed
        unchanged.  Results are stashed for the caller's :meth:`evaluate`
        pass, which keeps all telemetry/cache/trace accounting — and
        therefore counters, traces and metrics — identical to pricing
        each candidate alone; validate mode checks every batch-priced
        result against a from-scratch one.
        """
        jobs: list[tuple[HashedKey, Solution, Breakdown | None]] = []
        seen: set[HashedKey] = set()
        for solution, base in work:
            key = solution.fingerprint_key()
            if (
                key in seen
                or key in self._batched
                or self._cost_cache.peek(key) is not None
            ):
                continue
            seen.add(key)
            jobs.append((key, solution, base))
        if not jobs:
            return
        plans = [
            plan_evaluation(self, solution, base)
            for _key, solution, base in jobs
        ]
        requests: list = []
        offsets: list[int] = []
        for plan in plans:
            offsets.append(len(requests))
            requests.extend(plan.requests)
        activities = batch_activities(requests) if requests else []
        for (key, solution, base), plan, lo in zip(jobs, plans, offsets):
            result = finish_evaluation(
                plan, activities[lo:lo + len(plan.requests)]
            )
            if self.validate_incremental:
                reference = evaluate_solution(self, solution, None)[0]
                _check_identical(result[0], reference)
            self._batched[key] = result

    def discard_batched(self) -> None:
        """Drop unconsumed batch-priced results.

        Called at the end of each pricing round: a stale entry would
        later be consumed with reuse counts from the wrong base,
        skewing the delta-hit telemetry away from one-at-a-time pricing.
        """
        self._batched.clear()

    def cost(self, solution: Solution, base: Breakdown | None = None) -> float:
        """Objective value of a solution (~1e9 when infeasible)."""
        return self.evaluate(solution, base).objective_value(self.objective)


def _check_identical(delta: Metrics, full: Metrics) -> None:
    """Raise unless a delta-priced evaluation equals the full one bitwise."""
    pairs = [
        ("area", delta.area, full.area),
        ("energy_per_sample", delta.energy_per_sample, full.energy_per_sample),
        ("power", delta.power, full.power),
        ("schedule_length", delta.schedule_length, full.schedule_length),
        ("feasible", delta.feasible, full.feasible),
        ("violation", delta.violation, full.violation),
        ("fu_energy", delta.report.fu_energy, full.report.fu_energy),
        (
            "register_energy",
            delta.report.register_energy,
            full.report.register_energy,
        ),
        ("mux_energy", delta.report.mux_energy, full.report.mux_energy),
        ("wire_energy", delta.report.wire_energy, full.report.wire_energy),
        ("extra_energy", delta.report.extra_energy, full.report.extra_energy),
        (
            "controller_energy",
            delta.report.controller_energy,
            full.report.controller_energy,
        ),
    ]
    for name, got, want in pairs:
        if got != want:
            raise SynthesisError(
                "incremental evaluation diverged from full evaluation: "
                f"{name} {got!r} != {want!r}"
            )
