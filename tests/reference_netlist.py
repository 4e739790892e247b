"""Eager netlist builder: the test oracle for ``build_netlist``.

This is :func:`repro.synthesis.build_netlist` as it was before netlists
were derived from per-resource blocks shared through clones.  It walks
every instance and register of the solution and builds the whole
component map and connection set in one go.  The property tests
require the block-derived netlist to equal what this returns: the
component map (insertion order included), the connection set, the
fan-in map, the connection count, the mux legs and the area, bit for
bit.
"""

from __future__ import annotations

from repro.dfg.graph import NodeKind
from repro.errors import DFGError
from repro.rtl.components import (
    Component,
    ComponentKind,
    Connection,
    DatapathNetlist,
)
from repro.synthesis.solution import Solution


def eager_build_netlist(
    solution: Solution,
    name: str | None = None,
    skip_input_registers: bool = False,
) -> DatapathNetlist:
    """Build the structural netlist implied by the solution's bindings.

    Same contract as :func:`repro.synthesis.build_netlist`, including
    ``skip_input_registers`` (registers that only sample primary inputs
    are omitted and their consumers read the input ports directly).
    """
    dfg = solution.dfg
    comps: list[Component] = []
    conns: set[Connection] = set()

    input_regs: set[str] = set()
    if skip_input_registers:
        input_signals = {(input_id, 0) for input_id in dfg.inputs}
        for reg_id, signals in solution.reg_signals.items():
            if signals and all(s in input_signals for s in signals):
                input_regs.add(reg_id)

    #: Input signals served straight from their port.
    direct_inputs: dict[tuple[str, int], str] = {}
    for idx, input_id in enumerate(dfg.inputs):
        if skip_input_registers:
            signal = (input_id, 0)
            if solution.register_of(signal) in input_regs:
                direct_inputs[signal] = f"in{idx}"

    for idx, _input in enumerate(dfg.inputs):
        comps.append(Component(f"in{idx}", ComponentKind.PORT, "in"))
    for idx, _output in enumerate(dfg.outputs):
        comps.append(Component(f"out{idx}", ComponentKind.PORT, "out"))
    const_src: dict[str, tuple[str, int]] = {}
    widths: dict[str, int] = {}
    for node in dfg.nodes():
        widths[node.node_id] = node.width
        if node.kind == NodeKind.CONST:
            comps.append(
                Component(f"k_{node.node_id}", ComponentKind.PORT, "const")
            )
            const_src[node.node_id] = (f"k_{node.node_id}", 0)

    register_cell_name = solution.library.register_cell.name
    for reg_id, signals in solution.reg_signals.items():
        if reg_id in input_regs:
            continue
        reg_width = (
            max([widths[src] for src, _port in signals]) if signals else 16
        )
        comps.append(
            Component(reg_id, ComponentKind.REGISTER, register_cell_name, reg_width)
        )

    for inst_id, inst in solution.instances.items():
        if inst.is_module:
            comps.append(
                Component(inst_id, ComponentKind.MODULE, inst.module.name)
            )
        else:
            bound = [
                widths[node_id]
                for group in solution.executions[inst_id]
                for node_id in group
            ]
            inst_width = max(bound) if bound else 16
            comps.append(
                Component(inst_id, ComponentKind.FUNCTIONAL, inst.cell.name, inst_width)
            )

    reg_of = solution.registered_map()

    def source(sig) -> tuple[str, int]:
        src = const_src.get(sig[0])
        if src is not None:
            return src
        if sig in direct_inputs:
            return (direct_inputs[sig], 0)
        return (reg_of[sig], 0)

    # Primary inputs are sampled into their registers (unless served
    # directly from the module boundary).
    for idx, input_id in enumerate(dfg.inputs):
        signal = (input_id, 0)
        if signal in direct_inputs:
            continue
        conns.add(Connection(f"in{idx}", 0, reg_of[signal], 0))

    for inst_id, execs in solution.executions.items():
        inst = solution.instances[inst_id]
        for group in execs:
            # External operands get sequential instance ports in
            # (node, edge) order.
            inside = set(group)
            port = 0
            for node_id in group:
                for edge in dfg.in_edges(node_id):
                    if edge.src in inside:
                        continue
                    conns.add(Connection(*source(edge.signal), inst_id, port))
                    port += 1
            # Produced signals land in their registers.
            if inst.is_module:
                (node_id,) = group
                node = dfg.node(node_id)
                for out_port in range(node.n_outputs):
                    reg_id = reg_of.get((node_id, out_port))
                    if reg_id is not None:
                        conns.add(Connection(inst_id, out_port, reg_id, 0))
            else:
                for node_id in group:
                    reg_id = reg_of.get((node_id, 0))
                    if reg_id is not None:
                        conns.add(Connection(inst_id, 0, reg_id, 0))

    for idx, output_id in enumerate(dfg.outputs):
        (edge,) = dfg.in_edges(output_id)
        conns.add(Connection(*source(edge.signal), f"out{idx}", 0))

    components = {comp.comp_id: comp for comp in comps}
    if len(components) != len(comps):
        raise DFGError(
            f"duplicate component ids while building netlist for {dfg.name!r}"
        )
    netlist = DatapathNetlist(name or f"{dfg.name}_dp")
    netlist._components = components
    netlist._connections = conns
    return netlist
