"""Construct the structural datapath netlist and FSM from a solution.

The netlist is the arbiter for area (cells + inferred muxes +
interconnect measure) and the object RTL embedding works on; the FSM
controller is part of the synthesized deliverable ("a datapath netlist,
and a finite-state machine description of the controller", Section 5).

The netlist of a candidate is derived one resource at a time, from
per-register and per-instance blocks that a solution's clones start
from (:func:`build_netlist`), so a move re-derives only what it
changed; pricing reads area, fan-ins and widths from the blocks.

Port id convention: primary inputs become PORT components ``in0``,
``in1``, ... (positional, matching the DFG's ordered input list) and
primary outputs ``out0``, ``out1``, ...  — positional ids are what lets
:func:`repro.rtl.embedding.embed_netlists` overlay module boundaries of
two different behaviors.
"""

from __future__ import annotations

from ..dfg.graph import DFG, NodeKind, Signal
from ..errors import DFGError
from ..library.library import ModuleLibrary
from ..rtl.components import (
    REFERENCE_WIDTH,
    Component,
    ComponentKind,
    Connection,
    DatapathNetlist,
    cell_area,
)
from ..rtl.controller import (
    ControllerState,
    FSMController,
    MuxSelect,
    RegisterLoad,
    UnitStart,
)
from .solution import Instance, Solution

__all__ = [
    "BlockNetlist",
    "InstanceNetBlock",
    "RegisterNetBlock",
    "build_netlist",
    "build_controller",
    "operand_port_map",
]


def operand_port_map(solution: Solution, group: tuple[str, ...]) -> dict[tuple[str, int], int]:
    """Assign instance input-port indices to a task's external operands.

    For a singleton execution the DFG ports map through directly; for a
    chain, external operands are numbered in (node, port) order — the
    convention both the netlist builder and the controller share.
    """
    inside = set(group)
    mapping: dict[tuple[str, int], int] = {}
    next_port = 0
    for node_id in group:
        for edge in solution.dfg.in_edges(node_id):
            if edge.src in inside:
                continue
            mapping[(node_id, edge.dst_port)] = next_port
            next_port += 1
    return mapping


def _source_component(
    solution: Solution, signal: Signal
) -> tuple[str, int]:
    """The netlist component/port a consumer reads *signal* from."""
    src_node = solution.dfg.node(signal[0])
    if src_node.kind == NodeKind.CONST:
        return (f"k_{signal[0]}", 0)
    return (solution.register_of(signal), 0)


#: id(dfg) → (dfg, port/const components, const-source map, node
#: widths, input ports, output ports).  These parts of a netlist depend
#: only on the DFG, and :class:`~repro.rtl.components.Component` is an
#: immutable named tuple, so the same objects are shared by every
#: netlist built for that DFG (thousands per pricing step).  The dfg is
#: kept in the value to pin its id, same idiom as the activity caches.
_STATIC_PARTS: dict[int, tuple] = {}


def _static_parts(dfg: DFG) -> tuple:
    """Per-DFG invariants: boundary ports, constants, node widths.

    Returns ``(components, const sources, widths, input ports, output
    ports)``; an input port is ``(port id, sampled signal)`` and an
    output port ``(port id, signal it reads)``.
    """
    entry = _STATIC_PARTS.get(id(dfg))
    if entry is not None and entry[0] is dfg:
        return entry[1:]
    comps: list[Component] = []
    in_ports: list[tuple[str, Signal]] = []
    out_ports: list[tuple[str, Signal]] = []
    for idx, input_id in enumerate(dfg.inputs):
        comps.append(Component(f"in{idx}", ComponentKind.PORT, "in"))
        in_ports.append((f"in{idx}", (input_id, 0)))
    for idx, output_id in enumerate(dfg.outputs):
        comps.append(Component(f"out{idx}", ComponentKind.PORT, "out"))
        (edge,) = dfg.in_edges(output_id)
        out_ports.append((f"out{idx}", edge.signal))
    const_src: dict[str, tuple[str, int]] = {}
    widths: dict[str, int] = {}
    for node in dfg.nodes():
        widths[node.node_id] = node.width
        if node.kind == NodeKind.CONST:
            comps.append(
                Component(f"k_{node.node_id}", ComponentKind.PORT, "const")
            )
            const_src[node.node_id] = (f"k_{node.node_id}", 0)
    if len(_STATIC_PARTS) >= 64:
        _STATIC_PARTS.clear()
    entry = (dfg, comps, const_src, widths, in_ports, out_ports)
    _STATIC_PARTS[id(dfg)] = entry
    return entry[1:]


class RegisterNetBlock:
    """The netlist share of one register: its component and area term.

    A block is keyed by the register id and a copy of the register's
    signal list.  Its width is the widest signal it holds, and its area
    term is the library register cell's area at that width.  A block
    never changes once built.
    """

    __slots__ = ("signals", "width", "component", "area")

    def __init__(
        self,
        reg_id: str,
        signals: list[Signal],
        widths: dict[str, int],
        library: ModuleLibrary,
    ):
        self.signals = list(signals)
        width = (
            max([widths[src] for src, _port in signals])
            if signals
            else REFERENCE_WIDTH
        )
        cell = library.register_cell.name
        self.width = width
        self.component = Component(reg_id, ComponentKind.REGISTER, cell, width)
        self.area = cell_area(library, cell) * (width / REFERENCE_WIDTH)


class InstanceNetBlock:
    """The netlist share of one instance: its component and its wires.

    A block is keyed by the :class:`~repro.synthesis.solution.Instance`
    object, a copy of the instance's execution list and the source of
    every signal in ``signals``, the signals it reads or writes: the
    register, or the input port a module netlist serves it from (none
    for a result no register holds).  Constants are left out: their
    sources depend on the DFG alone.  A block holds:

    * ``component`` — the instance's netlist component;
    * ``wires`` — the connections it ends (operands) or starts
      (results), deduplicated, never edited;
    * ``multi`` — its operand ports with more than one distinct source,
      as :meth:`~repro.rtl.components.DatapathNetlist.
      multi_source_ports` rows sorted by port;
    * ``writes`` — one register id per distinct (result port,
      register) wire: the instance's share of each register's fan-in;
    * ``area`` — its cell-area term (``None`` for a module instance,
      which the owner prices, see :func:`repro.synthesis.costs.
      area_of`);
    * ``width`` — the widest node it executes (16 when idle): its
      functional unit's width, and a module instance's stream width.

    A move replaces an :class:`Instance` rather than edit it, so a cell
    swap, a share or a split misses on one or two blocks, and a
    register merge or split misses on the blocks of the instances
    reading or writing the registers it touched.
    """

    __slots__ = ("instance", "executions", "signals", "component", "width",
                 "area", "wires", "n_wires", "multi", "writes")

    def __init__(
        self,
        dfg: DFG,
        inst: Instance,
        execs: list[tuple[str, ...]],
        src_of: dict[Signal, str],
        const_src: dict[str, tuple[str, int]],
        widths: dict[str, int],
        library: ModuleLibrary,
    ):
        inst_id = inst.inst_id
        # Raw tuple construction: the NamedTuple ``__new__`` wrapper
        # costs an extra Python frame per wire.
        new_nt = tuple.__new__
        wires: set[Connection] = set()
        add_wire = wires.add
        signals: list[Signal] = []
        in_edges = dfg.in_edges
        for group in execs:
            # External operands get sequential instance ports in the
            # very (node, edge) order walked here (operand_port_map's
            # convention), so the port index is just a counter.
            inside = set(group)
            port = 0
            for node_id in group:
                for edge in in_edges(node_id):
                    if edge.src in inside:
                        continue
                    sig = edge.signal
                    src = const_src.get(sig[0])
                    if src is None:
                        signals.append(sig)
                        src = (src_of[sig], 0)
                    add_wire(new_nt(Connection, src + (inst_id, port)))
                    port += 1
            # Produced signals land in their registers.
            if inst.is_module:
                (node_id,) = group
                results = [
                    (node_id, out_port)
                    for out_port in range(dfg.node(node_id).n_outputs)
                ]
            else:
                results = [(node_id, 0) for node_id in group]
            for sig in results:
                signals.append(sig)
                reg_id = src_of.get(sig)
                if reg_id is not None:
                    add_wire(new_nt(Connection, (inst_id, sig[1], reg_id, 0)))

        bound = [widths[node_id] for group in execs for node_id in group]
        width = max(bound) if bound else REFERENCE_WIDTH
        if inst.is_module:
            assert inst.module is not None
            component = Component(inst_id, ComponentKind.MODULE, inst.module.name)
            area = None
        else:
            assert inst.cell is not None
            component = Component(
                inst_id, ComponentKind.FUNCTIONAL, inst.cell.name, width
            )
            area = cell_area(library, inst.cell.name) * (width / REFERENCE_WIDTH)

        fanin: dict[int, int] = {}
        writes: list[str] = []
        for conn in wires:
            if conn.dst == inst_id:
                fanin[conn.dst_port] = fanin.get(conn.dst_port, 0) + 1
            else:
                writes.append(conn.dst)

        self.instance = inst
        self.executions = list(execs)
        self.signals = tuple(signals)
        self.component = component
        self.width = width
        self.area = area
        self.wires = wires
        self.n_wires = len(wires)
        self.multi = tuple(
            sorted(
                (inst_id, port, n, component.width)
                for port, n in fanin.items()
                if n > 1
            )
        )
        self.writes = tuple(writes)


class BlockNetlist(DatapathNetlist):
    """A solution's netlist, derived from its netlist blocks.

    Area, connection count, mux legs, multi-source ports and widths
    come from the blocks (``register_blocks`` and ``instance_blocks``,
    keyed by component id, in component order).  The component map and
    connection set are assembled on first read — emission, controller,
    verification, embedding, pickling — and never while pricing.  The
    netlist is read-only (edit a :meth:`copy`), and pickles as the
    equal eager :class:`~repro.rtl.components.DatapathNetlist`.
    """

    def __init__(
        self,
        name: str,
        library: ModuleLibrary,
        static: list[Component],
        register_blocks: dict[str, RegisterNetBlock],
        instance_blocks: dict[str, InstanceNetBlock],
        src_of: dict[Signal, str],
        input_wires: list[Connection],
        output_wires: list[Connection],
        binding: dict[str, list[Signal]],
        inst_sums: tuple[int, dict[str, int], list[tuple[str, int, int, int]]],
    ):
        # The base initializer is skipped on purpose: the component map
        # and connection set are properties here.
        self.name = name
        self._invalidate()
        self.register_blocks = register_blocks
        self.instance_blocks = instance_blocks
        #: Signal → the component a consumer reads it from (its
        #: register, or the input port serving it): the source every
        #: instance block here was derived or checked against.
        self._src_of = src_of
        #: Input ports → their registers, and sources → output ports.
        self._input_wires = input_wires
        self._output_wires = output_wires
        #: register id → signals of every register in ``register_blocks``
        #: (the blocks' own lists).  Equal to a solution's
        #: ``reg_signals`` only when this netlist omitted no register and
        #: the binding has not changed since.
        self._binding = binding
        self._library = library
        self._static = static
        self._parts: tuple[dict[str, Component], set[Connection]] | None = None

        #: Instance-block wire count, per-register writer counts and
        #: multi-source operand-port rows (see :func:`_instance_sums`).
        self._inst_sums = inst_sums
        n_wires, writes, multi = inst_sums
        self._n_connections = len(input_wires) + len(output_wires) + n_wires
        # A register's fan-in is its number of distinct writers, and
        # writers in different blocks (or input ports) are distinct.
        fanin = dict(writes)
        for wire in input_wires:
            fanin[wire.dst] = fanin.get(wire.dst, 0) + 1
        multi = multi + [
            (reg_id, 0, n, register_blocks[reg_id].width)
            for reg_id, n in fanin.items()
            if n > 1
        ]
        multi.sort()
        self._multi = multi

    def _assemble(self) -> tuple[dict[str, Component], set[Connection]]:
        """Build the component map and connection set from the blocks."""
        comps = list(self._static)
        comps += [block.component for block in self.register_blocks.values()]
        comps += [block.component for block in self.instance_blocks.values()]
        components = {comp.comp_id: comp for comp in comps}
        if len(components) != len(comps):
            raise DFGError(f"duplicate component ids in netlist {self.name!r}")
        connections = set(self._input_wires)
        connections.update(self._output_wires)
        for block in self.instance_blocks.values():
            connections |= block.wires
        self._parts = (components, connections)
        return self._parts

    @property
    def _components(self) -> dict[str, Component]:
        return (self._parts or self._assemble())[0]

    @property
    def _connections(self) -> set[Connection]:
        return (self._parts or self._assemble())[1]

    def add_component(self, *args, **kwargs) -> Component:
        """Refused: a derived netlist is read-only (edit a :meth:`copy`)."""
        raise DFGError(f"netlist {self.name!r} is read-only; edit a copy")

    def connect(self, *args, **kwargs) -> Connection:
        """Refused: a derived netlist is read-only (edit a :meth:`copy`)."""
        raise DFGError(f"netlist {self.name!r} is read-only; edit a copy")

    def multi_source_ports(self) -> list[tuple[str, int, int, int]]:
        """Ports with a mux, from the blocks (read-only list; see base)."""
        return self._multi

    def n_connections(self) -> int:
        """Number of distinct connections, from the blocks."""
        return self._n_connections

    def _cell_area_terms(self, library: ModuleLibrary) -> list[float]:
        # The blocks' area terms are priced with the solution's library.
        if library is not self._library:
            return super()._cell_area_terms(library)
        terms = [block.area for block in self.register_blocks.values()]
        terms += [
            block.area
            for block in self.instance_blocks.values()
            if block.area is not None
        ]
        return terms


def build_netlist(
    solution: Solution,
    name: str | None = None,
    skip_input_registers: bool = False,
) -> BlockNetlist:
    """Build the structural netlist implied by the solution's bindings.

    The netlist is derived one resource at a time: each register and
    each instance contributes a block (:class:`RegisterNetBlock`,
    :class:`InstanceNetBlock`).  The solution keeps the blocks it was
    last built from and shares them with its clones, and a block is
    reused whenever its key still matches, so a candidate move
    re-derives only the blocks of the resources it changed.

    ``skip_input_registers=True`` is used when packaging a sub-solution
    as a complex RTL module: the module's inputs are already held in the
    *parent* datapath's registers for as long as the module's profile
    needs them, so registers that exist purely to sample primary inputs
    are omitted and consumers are wired to the input ports directly
    (otherwise every hierarchy level would pay for the same value
    twice).
    """
    dfg = solution.dfg
    library = solution.library
    static, const_src, widths, in_ports, out_ports = _static_parts(dfg)
    last = solution._netlist

    if (
        last is not None
        and not skip_input_registers
        and solution.reg_signals == last._binding
    ):
        # The register binding the last build saw, and that build
        # omitted no register: its register blocks, boundary wires and
        # signal sources all still hold.
        src_of = last._src_of
        stale: set[Signal] = set()
        register_blocks = last.register_blocks
        binding = last._binding
        input_wires, output_wires = last._input_wires, last._output_wires
    else:
        src_of = solution.registered_map()
        input_regs: set[str] = set()
        if skip_input_registers:
            input_signals = {sig for _port_id, sig in in_ports}
            for reg_id, signals in solution.reg_signals.items():
                if signals and all(s in input_signals for s in signals):
                    input_regs.add(reg_id)
            src_of = dict(src_of)
            for port_id, sig in in_ports:
                if solution.register_of(sig) in input_regs:
                    src_of[sig] = port_id
        # Signals whose source differs from the last build's: the
        # instance blocks reading or writing them are re-derived.
        stale = (
            {sig for sig, _src in src_of.items() ^ last._src_of.items()}
            if last is not None
            else set()
        )
        prior_regs = last.register_blocks if last is not None else {}
        register_blocks = {}
        for reg_id, signals in solution.reg_signals.items():
            if reg_id in input_regs:
                continue
            reg_block = prior_regs.get(reg_id)
            if reg_block is None or reg_block.signals != signals:
                reg_block = RegisterNetBlock(reg_id, signals, widths, library)
            register_blocks[reg_id] = reg_block
        binding = {
            reg_id: reg_block.signals
            for reg_id, reg_block in register_blocks.items()
        }
        # Primary inputs are sampled into their registers (unless
        # served directly from the module boundary); outputs read their
        # source.
        new_nt = tuple.__new__
        input_wires = [
            new_nt(Connection, (port_id, 0, src_of[sig], 0))
            for port_id, sig in in_ports
            if src_of[sig] != port_id
        ]
        output_wires = [
            new_nt(
                Connection,
                (const_src.get(sig[0]) or (src_of[sig], 0)) + (port_id, 0),
            )
            for port_id, sig in out_ports
        ]

    # Every block of the last build matches the last build's sources,
    # so an instance block is reused when its instance and executions
    # are unchanged and none of its signals changed source.
    prior_insts = last.instance_blocks if last is not None else {}
    executions = solution.executions
    instance_blocks: dict[str, InstanceNetBlock] = {}
    fresh: list[InstanceNetBlock] = []
    gone: list[InstanceNetBlock] = []
    for inst_id, inst in solution.instances.items():
        execs = executions[inst_id]
        block = prior_insts.get(inst_id)
        if (
            block is None
            or block.instance is not inst
            or block.executions != execs
            or (stale and not stale.isdisjoint(block.signals))
        ):
            if block is not None:
                gone.append(block)
            block = InstanceNetBlock(
                dfg, inst, execs, src_of, const_src, widths, library
            )
            fresh.append(block)
        instance_blocks[inst_id] = block
    if len(prior_insts) + len(fresh) != len(instance_blocks) + len(gone):
        # Instances removed since the last build.
        gone += [
            prior_insts[inst_id]
            for inst_id in prior_insts.keys() - instance_blocks.keys()
        ]

    netlist = BlockNetlist(
        name or f"{dfg.name}_dp",
        library,
        static,
        register_blocks,
        instance_blocks,
        src_of,
        input_wires,
        output_wires,
        binding,
        _instance_sums(last, fresh, gone),
    )
    solution._netlist = netlist
    return netlist


def _instance_sums(
    last: BlockNetlist | None,
    fresh: list[InstanceNetBlock],
    gone: list[InstanceNetBlock],
) -> tuple[int, dict[str, int], list[tuple[str, int, int, int]]]:
    """Sums over all instance blocks of a build, from the last build's.

    Returns the number of wires, the writer count of every register
    written, and the multi-source operand-port rows: the last build's
    sums, less the blocks in *gone* (replaced or removed), plus those
    in *fresh*.  A move derives one or two blocks, so this costs a few
    blocks' worth of work instead of a walk over every instance.
    """
    if last is None:
        n_wires, writes, multi = 0, {}, []
    else:
        n_wires, writes, multi = last._inst_sums
    writes = dict(writes)
    dropped = {block.instance.inst_id for block in gone}
    multi = [row for row in multi if row[0] not in dropped]
    for block in gone:
        n_wires -= block.n_wires
        for reg_id in block.writes:
            count = writes[reg_id] - 1
            if count:
                writes[reg_id] = count
            else:
                del writes[reg_id]
    for block in fresh:
        n_wires += block.n_wires
        for reg_id in block.writes:
            writes[reg_id] = writes.get(reg_id, 0) + 1
        multi += block.multi
    return n_wires, writes, multi


def build_controller(
    solution: Solution, netlist: DatapathNetlist | None = None
) -> FSMController:
    """Derive the per-cycle control word sequence from the schedule."""
    if netlist is None:
        netlist = build_netlist(solution)
    sched = solution.schedule()
    dfg = solution.dfg
    n_states = max(sched.length, 1)
    states = [ControllerState(cycle=c) for c in range(n_states)]

    def state_at(cycle: int) -> ControllerState:
        return states[min(cycle, n_states - 1)]

    registered = set(solution.registered_signals())

    # Input sampling in cycle 0.
    for idx, input_id in enumerate(dfg.inputs):
        signal = (input_id, 0)
        state_at(0).loads.append(
            RegisterLoad(solution.register_of(signal), f"in{idx}", 0)
        )

    for inst_id, execs in solution.executions.items():
        inst = solution.instances[inst_id]
        for k, group in enumerate(execs):
            task = solution.task(f"{inst_id}#{k}")
            start = sched.start[task.task_id]
            if inst.is_module:
                (node_id,) = group
                op_name = dfg.node(node_id).behavior or "?"
            else:
                op_name = "+".join(
                    str(dfg.node(n).op) for n in group if dfg.node(n).op
                )
            state_at(start).starts.append(UnitStart(inst_id, op_name))

            # Mux selects for multi-source operand ports, asserted when read.
            ports = operand_port_map(solution, group)
            inside = set(group)
            for node_id in group:
                for edge in dfg.in_edges(node_id):
                    if edge.src in inside:
                        continue
                    port = ports[(node_id, edge.dst_port)]
                    if len(netlist.sources_of(inst_id, port)) > 1:
                        src, src_port = _source_component(solution, edge.signal)
                        read_at = start + task.offset_of(node_id, edge.dst_port)
                        state_at(read_at).selects.append(
                            MuxSelect(inst_id, port, src, src_port)
                        )

            # Register loads when produced values become available.
            for node_id in group:
                node = dfg.node(node_id)
                for out_port in range(node.n_outputs):
                    signal = (node_id, out_port)
                    if signal not in registered:
                        continue
                    avail = sched.avail[signal]
                    state_at(avail if avail < n_states else n_states - 1).loads.append(
                        RegisterLoad(solution.register_of(signal), inst_id, out_port)
                    )

    return FSMController(f"{dfg.name}_fsm", states)
