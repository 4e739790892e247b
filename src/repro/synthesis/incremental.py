"""Incremental (delta) cost evaluation for the KL inner loop.

Pricing a candidate move used to mean a full re-evaluation: rebuild the
netlist, reschedule, and — the expensive part — re-assemble every
per-resource stream interleaving and push it through the switched-
capacitance model.  A local move (swap one cell, merge two registers)
leaves most of those stream-derived energy terms untouched, so this
module prices solutions *by delta*: the evaluation context keeps a
:class:`Breakdown` of the last full evaluation, and every term whose
inputs provably did not change is reused instead of recomputed.

Bit-identity is the design constraint, enforced structurally rather
than numerically: there is exactly **one** evaluation function
(:func:`evaluate_solution`), used for both the from-scratch and the
delta path.  It computes each energy term either fresh or by copying
the base solution's float, and accumulates them in exactly the order
the original evaluator used — so a reused term contributes the very
same IEEE-754 value to the very same summation sequence, and the
resulting :class:`~repro.synthesis.costs.Metrics` are equal bit for
bit.  Golden cost snapshots therefore do not move when incremental
evaluation is switched on.

What is reused is decided per resource, in two tiers.

**Identity.** A functional unit or module instance whose netlist block
(:class:`~repro.synthesis.datapath_build.InstanceNetBlock`) is the very
object its base entry was priced with, and whose serialization order
(``ScheduleResult.instance_order``) is equal, carries its whole entry
over: activity, energy or module addends.  The block is keyed by the
``Instance`` object (its cell or module), a copy of its execution list
and the sources of its signals, and holds the width and the multi-source
ports the glitch count comes from; task ids are positions in that
execution list.  So the same block with an equal order fixes every input
of the term, and the header pins the DFG and the operating point.  A
register holding one signal carries its activity and write energy when
its :class:`~repro.synthesis.datapath_build.RegisterNetBlock` is the
base's; only the idle-clocking arithmetic is replayed when the schedule
length moved.  No key is built for a carried entry.

**Activity key.** Every other resource compares an *activity key*
against its base entry and reuses the switching activity — the only
stream-derived (and therefore expensive) factor of its energy term —
when the keys are equal:

* functional unit / complex module — (executions in scheduled order,
  width): these determine the operand streams and their interleaving;
* register — (written signals in availability order, width): these
  determine the write-value stream.

Everything downstream of a key-matched activity (cell energy at that
activity, glitch surcharge, width scaling, idle clocking) is replayed,
so the reused activity flows through the identical float operations a
fresh one would (or copied, when the energy signature matches too; see
:class:`Breakdown`).  The keys exclude the bound cell or module and the
schedule length: an A-cell swap reuses the touched instance's own
activity (same operands, different cell), a module swap (``A-module``,
``A-remerge``) likewise reuses the instance's interleaved input activity
and replays the new module's per-execution energy, and a schedule shift
reuses every register's write activity while the idle-clocking
arithmetic is replayed with the new length.  Blocks, orders and keys are
all taken from the candidate's own (cheaply rebuilt) netlist and
schedule, so any side effect a move has on an untouched resource — a
register merge reordering writes, a serialization change on a shared
unit, a module profile that moves its consumers — changes that
resource's block, order or key and forces recomputation.  That makes
delta pricing exact for every move, not only for local ones, so the
improvement loop prices every candidate against the current solution's
breakdown.  A move that changes a lot (type-B resynthesis, chain
formation, module shares and embeddings) simply reuses fewer terms; one
that leaves nothing reusable degenerates into the full evaluation
automatically (counted as a delta fall-back).  Only the seed of each KL
run, which has no base, is priced from scratch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..power.activity import batch_activities
from ..power.estimator import (
    GLITCH_FRACTION,
    REGISTER_CLOCK_FRACTION,
    ControllerUsage,
    InterconnectUsage,
    MuxUsage,
    PowerReport,
)
from .datapath_build import build_netlist
from .solution import Instance, Solution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .costs import EvaluationContext, Metrics

__all__ = [
    "Breakdown",
    "EvaluationPlan",
    "evaluate_solution",
    "plan_evaluation",
    "finish_evaluation",
]


@dataclass
class Breakdown:
    """Per-resource energy terms of one evaluated solution.

    Entries are plain tuples whose first two fields are always the
    *activity key* (every input of the stream-driven activity
    computation, the expensive factor of the term) and the activity it
    produced.  The rest of each entry is what the next evaluation needs
    to carry the term over unchanged:

    * FU — ``(key, activity, block, order, energy sig, energy)``;
    * module — ``(key, activity, block, order, addends)``, the addends
      being the instance's ordered ``extra_energy`` contributions;
    * register — ``(key, activity, block, energy sig, write energy,
      energy)``.

    ``block`` is the netlist block the term was priced with
    (:class:`~repro.synthesis.datapath_build.InstanceNetBlock` or
    :class:`~repro.synthesis.datapath_build.RegisterNetBlock`) and
    ``order`` the instance's task ids in serialization order.  A later
    evaluation copies an FU or module entry whole when its own block
    *is* that block and its order is equal, and a one-signal register's
    activity and write energy when its block is that block.  Otherwise
    it compares keys: an equal key reuses the activity and replays the
    energy arithmetic on top of it.  The energy signature covers every
    input of that arithmetic *beyond* the key and header (the cell name
    and glitch count for FUs; the schedule length and register cell
    for registers); when both key and signature match, the cached
    energy is the same pure function of the same inputs and is copied.
    ``header`` pins the context the terms were computed in (DFG identity
    and operating point); a header mismatch discards the whole
    breakdown.
    """

    header: tuple
    #: simple FU instance id → (key, activity, block, order, energy
    #: sig, energy).
    fu: dict[str, tuple] = field(default_factory=dict)
    #: module instance id → (key, interleaved input activity, block,
    #: order, addends).
    module: dict[str, tuple] = field(default_factory=dict)
    #: register id → (key, activity, block, energy sig, write energy,
    #: energy).
    reg: dict[str, tuple] = field(default_factory=dict)


#: (id(mux cell), fan-in, vdd) → (cell, energy): memoized
#: ``MuxUsage(...).energy_per_sample`` results.  The energy is a pure
#: function of the key; the cell is pinned in the value (id-reuse
#: idiom).  Candidates at one operating point hit the same handful of
#: fan-ins thousands of times per pricing step.
_MUX_ENERGY: dict = {}

#: (n_states, n_control_signals, vdd) → energy: memoized
#: ``ControllerUsage(...).energy_per_sample`` results (pure arithmetic
#: on the key — nothing to pin).
_CTRL_ENERGY: dict = {}


def _reset_energy_memos() -> None:
    _MUX_ENERGY.clear()
    _CTRL_ENERGY.clear()


#: ``(_AREA_REF, area_of, Metrics)`` bound from ``.costs`` on first use.
#: A module-scope import would be circular (costs imports this module),
#: and re-importing inside :func:`plan_evaluation` /
#: :func:`finish_evaluation` costs a trip through the import machinery
#: per priced candidate; a None check replaces it.
_COSTS_NAMES: tuple | None = None


def _bind_costs() -> None:
    global _COSTS_NAMES
    from .costs import _AREA_REF, Metrics, area_of

    _COSTS_NAMES = (_AREA_REF, area_of, Metrics)


def _header(solution: Solution) -> tuple:
    """Context fingerprint a breakdown is only valid under."""
    return (
        id(solution.dfg),
        solution.clk_ns,
        solution.vdd,
        solution.sampling_ns,
    )


def _module_addends(
    solution: Solution,
    inst: Instance,
    groups: tuple[tuple[str, ...], ...],
    input_activity: float,
    glitch_evals: int,
) -> tuple[float, ...]:
    """The ordered ``extra_energy`` addends of one module instance.

    One addend per execution (characterized energy at the interleaved
    input activity) plus the steering-mux glitch term, in the exact
    order the original evaluator accumulated them.
    """
    assert inst.module is not None
    addends: list[float] = []
    for group in groups:
        (node_id,) = group
        behavior = solution.dfg.node(node_id).behavior
        addends.append(
            inst.module.energy_per_exec(
                solution.vdd, input_activity, behavior=behavior
            )
        )
    # Shared modules glitch on their steering muxes too.
    addends.append(
        glitch_evals
        * GLITCH_FRACTION
        * inst.module.energy_per_exec(solution.vdd, 0.5)
        / max(len(groups), 1)
    )
    return tuple(addends)


@dataclass
class EvaluationPlan:
    """Everything :func:`finish_evaluation` needs except the activities.

    Produced by :func:`plan_evaluation`: the netlist has been rebuilt,
    the schedule resolved and every stream-free term computed.
    ``breakdown`` already holds, in resource order, every entry carried
    over from the base; each other resource holds a ``None`` placeholder
    and one tuple in ``pending``, whose activity is either reused
    (its key matched) or indexes into ``requests`` — the ``(streams,
    width)`` activity requests still to be priced.  Splitting the
    evaluator here lets :meth:`~repro.synthesis.costs.EvaluationContext.
    evaluate_batch` gather the requests of a whole candidate set and
    resolve them with one batched kernel call before replaying each
    candidate's float arithmetic unchanged.
    """

    solution: Solution
    breakdown: Breakdown
    pending: list[tuple]
    #: Stream-derived terms carried over or key-matched.
    reused: int
    requests: list[tuple[list[np.ndarray], int]]
    area: float  # includes controller area
    schedule_length: int
    feasible: bool
    violation: float
    mux_terms: list[float]
    wire_energy: float
    controller_energy: float


#: ``pending`` tuple tags (the first field of each tuple).
_FU, _MODULE, _REG = 0, 1, 2


def plan_evaluation(
    ctx: "EvaluationContext",
    solution: Solution,
    base: Breakdown | None = None,
) -> EvaluationPlan:
    """Phase one of :func:`evaluate_solution`: everything but activities.

    Rebuilds the netlist, resolves the schedule and computes all
    stream-free terms; stream-derived terms are carried over from
    *base* by block identity, or keyed against it, and unresolved
    activities become batched kernel requests.
    """
    if _COSTS_NAMES is None:
        _bind_costs()
    _AREA_REF, area_of, _Metrics = _COSTS_NAMES

    netlist = build_netlist(solution)
    area = area_of(solution, netlist)
    sched = ctx.schedule_of(solution)
    feasible = solution.is_feasible()
    violation = 0.0
    if not feasible:
        excess = max(0, sched.length - solution.deadline_cycles)
        violation = excess / max(solution.deadline_cycles, 1)
        violation += 0.1 * len(solution.register_conflicts())

    header = _header(solution)
    if base is not None and base.header != header:
        base = None
    vdd = solution.vdd

    # Glitch counts — spurious evaluations from input-mux switching on a
    # shared unit: each multi-source port re-triggers the combinational
    # logic once per select change (≈ executions − 1) — are computed
    # inline in the instance loop below, from the netlist blocks.
    inst_blocks = netlist.instance_blocks
    reg_blocks = netlist.register_blocks

    breakdown = Breakdown(header)
    bd_fu = breakdown.fu
    bd_module = breakdown.module
    bd_reg = breakdown.reg
    pending: list[tuple] = []
    reused = 0
    requests: list[tuple[list[np.ndarray], int]] = []

    def port_requests(
        groups: tuple[tuple[str, ...], ...], width: int
    ) -> tuple[int, ...]:
        """Per-port activity requests of one FU/module instance — the
        same port decomposition :func:`~repro.power.activity.
        operand_activity` performs."""
        streams_per_op = [
            ctx._operand_streams(solution, group) for group in groups
        ]
        n_ports = max(len(ops) for ops in streams_per_op)
        slots = []
        for port in range(n_ports):
            port_streams = [
                ops[port] for ops in streams_per_op if port < len(ops)
            ]
            slots.append(len(requests))
            requests.append((port_streams, width))
        return tuple(slots)

    # Stream-derived terms, in instance insertion order — the order the
    # original evaluator built (and summed) its usage records in.
    inst_order = sched.instance_order
    exec_groups = sched.exec_groups_memo
    base_fu = base.fu if base is not None else {}
    base_module = base.module if base is not None else {}
    base_reg = base.reg if base is not None else {}
    for inst_id, inst in solution.instances.items():
        order = inst_order.get(inst_id)
        if order is None:
            continue  # no executions, no term
        block = inst_blocks[inst_id]
        is_module = inst.is_module
        if is_module:
            bd = bd_module
            prior = base_module.get(inst_id)
        else:
            bd = bd_fu
            prior = base_fu.get(inst_id)
        if prior is not None and prior[2] is block and prior[3] == order:
            # Same block, same serialization order: the same execution
            # groups, width, glitch count and cell or module, so the
            # whole term is the base's.
            bd[inst_id] = prior
            reused += 1
            continue
        groups = exec_groups.get(inst_id)
        if groups is None:
            groups = tuple(ctx._execution_order(solution, inst_id))
            exec_groups[inst_id] = groups
        # The widest node the instance runs: a functional unit's
        # component width, and a module's stream width (module
        # components carry no width in the netlist).
        width = block.width
        n_execs = len(groups)
        glitch_evals = len(block.multi) * (n_execs - 1) if n_execs > 1 else 0
        key = (groups, width)
        if prior is not None and prior[0] == key:
            activity: float | None = prior[1]
            ports: tuple[int, ...] = ()
            reused += 1
        else:
            prior = None
            activity = None
            ports = port_requests(groups, width)
            if not ports:
                activity = 0.0  # no operand ports → defined as zero
        bd[inst_id] = None
        if is_module:
            pending.append((
                _MODULE, inst_id, key, activity, ports, block, order,
                inst, groups, glitch_evals,
            ))
        else:
            # Beyond (header, key, activity) the FU energy depends only
            # on the bound cell (A-cell swaps keep the key!) and the
            # netlist-derived glitch count.
            cell = inst.cell
            assert cell is not None
            energy_sig = (cell.name, glitch_evals)
            energy = (
                prior[5]
                if prior is not None and prior[4] == energy_sig
                else None
            )
            pending.append((
                _FU, inst_id, key, activity, ports, block, order,
                energy_sig, energy, cell, n_execs, glitch_evals,
            ))

    sched_avail = sched.avail
    # Beyond (header, key, activity) a register's energy depends only on
    # the schedule length (idle clocking) and the library register cell.
    reg_sig = (sched.length, solution.library.register_cell.name)
    for reg_id, signals in solution.reg_signals.items():
        # The register's netlist block holds its width (no registers
        # are skipped on the evaluation path).
        block = reg_blocks[reg_id]
        prior = base_reg.get(reg_id)
        if len(signals) == 1:
            if prior is not None and prior[2] is block:
                # Same block, same one signal: the same write stream.
                prior_sig = prior[3]
                if prior_sig == reg_sig:
                    bd_reg[reg_id] = prior
                    reused += 1
                    continue
                if prior_sig[1] == reg_sig[1]:
                    # Only the schedule length moved: replay the idle
                    # clocking on the carried write energy.
                    bd_reg[reg_id] = None
                    pending.append((
                        _REG, reg_id, prior[0], prior[1], (), block,
                        reg_sig, prior[4], None, 1,
                    ))
                    reused += 1
                    continue
            # Single-value registers dominate; sorting their one signal
            # (with a lambda key) was measurable across thousands of
            # plans.
            ordered = signals
        else:
            ordered = sorted(signals, key=lambda s: sched_avail.get(s, 0))
        reg_width = block.width
        key = (tuple(ordered), reg_width)
        write_energy = energy = None
        if prior is not None and prior[0] == key:
            activity = prior[1]
            ports = ()
            reused += 1
            if prior[3] == reg_sig:
                write_energy, energy = prior[4], prior[5]
        else:
            activity = None
            ports = (len(requests),)
            requests.append(
                (
                    [ctx.sim.stream(ctx.path, signal) for signal in ordered],
                    reg_width,
                )
            )
        bd_reg[reg_id] = None
        pending.append((
            _REG, reg_id, key, activity, ports, block, reg_sig,
            write_energy, energy, len(ordered),
        ))

    # Stream-free terms are always recomputed: they are cheap, and
    # computing them from the candidate's own netlist is what catches a
    # local move's side effects on shared structure.
    # One mux term per multi-source port, in (component, port) order.
    mux_terms: list[float] = []
    mux_cell = solution.library.mux_cell
    for _dst, _port, n_srcs, _width in netlist.multi_source_ports():
        mkey = (id(mux_cell), n_srcs, vdd)
        cached = _MUX_ENERGY.get(mkey)
        if cached is not None and cached[0] is mux_cell:
            mux_terms.append(cached[1])
        else:
            if len(_MUX_ENERGY) >= 4096:
                _MUX_ENERGY.clear()
            mux_energy = MuxUsage(
                cell=mux_cell,
                n_inputs=n_srcs,
                accesses_per_sample=n_srcs,
            ).energy_per_sample(vdd)
            _MUX_ENERGY[mkey] = (mux_cell, mux_energy)
            mux_terms.append(mux_energy)

    # Average wire length grows with the square root of circuit area;
    # _AREA_REF pins the factor to 1.0 for a mid-size datapath.
    interconnect = InterconnectUsage(
        n_connections=netlist.n_connections(),
        length_factor=math.sqrt(max(area, 1.0) / _AREA_REF),
    )

    # Controller estimate: one start per execution, one load per
    # registered value, one select per mux leg (see the paper's
    # FSM-controller output; SIS-synthesized in the original flow).
    n_starts = sum(len(groups) for groups in solution.executions.values())
    controller = ControllerUsage(
        n_states=max(sched.length, 1),
        n_control_signals=(
            n_starts + len(solution.reg_signals) + netlist.mux_legs()
        ),
    )
    ckey = (controller.n_states, controller.n_control_signals, vdd)
    controller_energy = _CTRL_ENERGY.get(ckey)
    if controller_energy is None:
        if len(_CTRL_ENERGY) >= 4096:
            _CTRL_ENERGY.clear()
        controller_energy = controller.energy_per_sample(vdd)
        _CTRL_ENERGY[ckey] = controller_energy

    return EvaluationPlan(
        solution=solution,
        breakdown=breakdown,
        pending=pending,
        reused=reused,
        requests=requests,
        area=area + controller.area(),
        schedule_length=sched.length,
        feasible=feasible,
        violation=violation,
        mux_terms=mux_terms,
        wire_energy=interconnect.energy_per_sample(vdd),
        controller_energy=controller_energy,
    )


def finish_evaluation(
    plan: EvaluationPlan, activities: list[float]
) -> tuple["Metrics", Breakdown, int, int]:
    """Phase two: fill in the pending terms and sum every term.

    ``activities`` resolves ``plan.requests`` position for position
    (:func:`repro.power.activity.batch_activities` output).  Only the
    plan's pending terms are computed here; the sums then walk the
    whole breakdown in resource order, exactly the order the original
    single-pass evaluator accumulated terms in, so results are
    bit-identical regardless of how the activities were batched or
    which terms were carried over.
    """
    if _COSTS_NAMES is None:
        _bind_costs()
    Metrics = _COSTS_NAMES[2]

    solution = plan.solution
    vdd = solution.vdd
    breakdown = plan.breakdown
    bd_fu = breakdown.fu
    bd_module = breakdown.module
    bd_reg = breakdown.reg
    # Every register term of one plan scales the identical idle
    # clock-tree product (fraction × schedule length × idle-op energy),
    # so it is computed once here — same floats in the same order as
    # ``RegisterUsage.energy_per_sample``, whose arithmetic the replay
    # branches below mirror term for term.
    reg_cell = solution.library.register_cell
    reg_clock_energy = (
        REGISTER_CLOCK_FRACTION
        * plan.schedule_length
        * reg_cell.energy_per_op(vdd, 0.0)
    )
    for term in plan.pending:
        activity = term[3]
        if activity is None:
            ports = term[4]
            if len(ports) == 1:
                # Registers request exactly one activity; a one-port
                # unit's mean IS that port's activity (np.mean of a
                # single float is exact), so the kernel result is used
                # directly either way.
                activity = activities[ports[0]]
            else:
                # The unit's activity is the mean over its operand ports
                # — the same float(np.mean([...])) the scalar path
                # computes.
                activity = float(np.mean([activities[p] for p in ports]))
        kind = term[0]
        if kind == _FU:
            (_kind, res_id, key, _activity, _ports, block, order,
             energy_sig, energy, cell, activations, glitch_evals) = term
            # A None energy means key or signature mismatch: replay the
            # arithmetic.  A cached float is the result of the identical
            # arithmetic on identical inputs (same key, same signature,
            # same header).
            if energy is None:
                # Inlined ``FUUsage.energy_per_sample`` (identical ops
                # in identical order): constructing a usage record per
                # term is measurable on this loop.
                useful = activations * cell.energy_per_op(vdd, activity)
                glitch = (
                    glitch_evals
                    * GLITCH_FRACTION
                    * cell.energy_per_op(vdd, 0.5)
                )
                energy = (useful + glitch) * (block.width / 16.0)
            bd_fu[res_id] = (key, activity, block, order, energy_sig, energy)
        elif kind == _MODULE:
            (_kind, res_id, key, _activity, _ports, block, order, inst,
             groups, glitch_evals) = term
            bd_module[res_id] = (
                key, activity, block, order,
                _module_addends(
                    solution, inst, groups, activity, glitch_evals
                ),
            )
        else:
            (_kind, res_id, key, _activity, _ports, block, reg_sig,
             write_energy, energy, n_writes) = term
            if energy is None:
                # Inlined ``RegisterUsage.energy_per_sample`` with the
                # plan-constant clock term hoisted above.
                if write_energy is None:
                    if n_writes == 0:
                        write_energy = 0.0
                    else:
                        write_energy = n_writes * reg_cell.energy_per_op(
                            vdd, activity
                        )
                energy = (write_energy + reg_clock_energy) * (
                    block.width / 16.0
                )
            bd_reg[res_id] = (
                key, activity, block, reg_sig, write_energy, energy
            )

    extra_energy = 0.0
    for entry in bd_module.values():
        for addend in entry[4]:
            extra_energy += addend
    report = PowerReport(
        fu_energy=sum([entry[5] for entry in bd_fu.values()]),
        register_energy=sum([entry[5] for entry in bd_reg.values()]),
        mux_energy=sum(plan.mux_terms),
        wire_energy=plan.wire_energy,
        extra_energy=extra_energy,
        sampling_period_ns=solution.sampling_ns,
        vdd=vdd,
        controller_energy=plan.controller_energy,
    )
    metrics = Metrics(
        area=plan.area,
        energy_per_sample=report.total_energy,
        power=report.power,
        schedule_length=plan.schedule_length,
        feasible=plan.feasible,
        report=report,
        violation=plan.violation,
    )
    n_terms = len(bd_fu) + len(bd_module) + len(bd_reg)
    return metrics, breakdown, plan.reused, n_terms


def evaluate_solution(
    ctx: "EvaluationContext",
    solution: Solution,
    base: Breakdown | None = None,
) -> tuple["Metrics", Breakdown, int, int]:
    """Evaluate *solution*, reusing *base*'s terms where blocks or keys match.

    With ``base=None`` this **is** the full evaluator (netlist rebuild
    plus trace-driven estimation); with a base breakdown it prices the
    solution incrementally.  Both paths run the identical float
    operations in the identical order, so the returned metrics are bit
    for bit the same either way.

    Returns ``(metrics, breakdown, reused_terms, stream_terms)`` where
    the counts cover the stream-derived terms (FU, module, register)
    that were copied from the base versus present in total.
    """
    plan = plan_evaluation(ctx, solution, base)
    activities = batch_activities(plan.requests) if plan.requests else []
    return finish_evaluation(plan, activities)
