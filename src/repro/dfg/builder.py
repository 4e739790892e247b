"""Fluent construction helper for DFGs.

Writing graphs with raw ``add_op``/``connect`` calls is verbose; the
benchmark suite builds dozens of graphs, so this module provides a small
builder where node outputs are first-class handles:

>>> b = GraphBuilder("madd")
>>> x, y, z = b.inputs("x", "y", "z")
>>> b.output("out", b.add(b.mult(x, y), z))
>>> dfg = b.build()

Handles are ``(node_id, port)`` pairs wrapped in :class:`Wire`; passing a
:class:`Wire` of a multi-output hierarchical node selects port 0 unless
indexed (``h[1]``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DFGError
from .graph import DEFAULT_WIDTH, DFG
from .ops import Operation

__all__ = ["Wire", "GraphBuilder"]


@dataclass(frozen=True)
class Wire:
    """Handle to one output port of a node under construction."""

    node_id: str
    port: int = 0

    def __getitem__(self, port: int) -> "Wire":
        return Wire(self.node_id, port)


class GraphBuilder:
    """Incrementally build a :class:`~repro.dfg.graph.DFG`."""

    def __init__(self, name: str, behavior: str | None = None, width: int = DEFAULT_WIDTH):
        self._dfg = DFG(name, behavior=behavior)
        self._width = width
        self._counter = 0
        self._built = False

    # ------------------------------------------------------------------
    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def _as_wire(self, value: "Wire | int") -> Wire:
        """Coerce ints to constant nodes so expressions read naturally."""
        if isinstance(value, Wire):
            return value
        if isinstance(value, int):
            return self.const(value)
        raise DFGError(f"cannot use {value!r} as a DFG operand")

    # ------------------------------------------------------------------
    # Sources and sinks
    # ------------------------------------------------------------------
    def input(self, name: str) -> Wire:
        """Declare one primary input."""
        self._dfg.add_input(name, width=self._width)
        return Wire(name)

    def inputs(self, *names: str) -> list[Wire]:
        """Declare several primary inputs at once (in port order)."""
        return [self.input(n) for n in names]

    def const(self, value: int, name: str | None = None) -> Wire:
        """Declare a constant source."""
        node_id = name or self._fresh("c")
        self._dfg.add_const(node_id, value, width=self._width)
        return Wire(node_id)

    def output(self, name: str, src: "Wire | int") -> None:
        """Declare a primary output fed by *src*."""
        wire = self._as_wire(src)
        self._dfg.add_output(name, width=self._width)
        self._dfg.connect(wire.node_id, wire.port, name, 0)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def op(self, op: Operation, *args: "Wire | int", name: str | None = None) -> Wire:
        """Add a simple operation fed by *args*."""
        node_id = name or self._fresh(op.value[0])
        self._dfg.add_op(node_id, op, width=self._width)
        for port, arg in enumerate(args):
            wire = self._as_wire(arg)
            self._dfg.connect(wire.node_id, wire.port, node_id, port)
        return Wire(node_id)

    def add(self, a, b, name: str | None = None) -> Wire:
        """Add an addition node computing *a* + *b*."""
        return self.op(Operation.ADD, a, b, name=name)

    def sub(self, a, b, name: str | None = None) -> Wire:
        """Add a subtraction node computing *a* - *b*."""
        return self.op(Operation.SUB, a, b, name=name)

    def mult(self, a, b, name: str | None = None) -> Wire:
        """Add a multiplication node computing *a* · *b*."""
        return self.op(Operation.MULT, a, b, name=name)

    def lt(self, a, b, name: str | None = None) -> Wire:
        """Add a less-than comparison node computing *a* < *b*."""
        return self.op(Operation.LT, a, b, name=name)

    def gt(self, a, b, name: str | None = None) -> Wire:
        """Add a greater-than comparison node computing *a* > *b*."""
        return self.op(Operation.GT, a, b, name=name)

    def neg(self, a, name: str | None = None) -> Wire:
        """Add a negation node computing -*a*."""
        return self.op(Operation.NEG, a, name=name)

    def hier(
        self,
        behavior: str,
        *args: "Wire | int",
        n_outputs: int = 1,
        name: str | None = None,
    ) -> Wire:
        """Add a hierarchical node implementing *behavior*.

        Returns a handle to output port 0; index the handle (``h[1]``)
        for further ports.
        """
        node_id = name or self._fresh("h")
        self._dfg.add_hier(
            node_id, behavior, n_inputs=len(args), n_outputs=n_outputs, width=self._width
        )
        for port, arg in enumerate(args):
            wire = self._as_wire(arg)
            self._dfg.connect(wire.node_id, wire.port, node_id, port)
        return Wire(node_id)

    # ------------------------------------------------------------------
    def build(self) -> DFG:
        """Finalize and return the DFG (the builder must not be reused)."""
        if self._built:
            raise DFGError("GraphBuilder.build() called twice")
        self._built = True
        return self._dfg
