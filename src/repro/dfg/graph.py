"""Data flow graph (DFG) model.

A DFG is the behavioral input of high-level synthesis (Section 1 of the
paper).  Nodes represent primary inputs/outputs, constants, simple
arithmetic operations, or **hierarchical nodes** that stand for whole
sub-behaviors (convolutions, filters, butterflies, ...).  Edges carry
values between node ports.

Hierarchical port convention
----------------------------
The paper annotates the edges entering/leaving hierarchical nodes with
numbers that tie them to the numbered inputs/outputs of the underlying
DFG (Figure 1(a)).  We realize the same convention positionally: input
port ``i`` of a hierarchical node corresponds to the ``i``-th entry in
the sub-DFG's ordered input list and output port ``j`` to the ``j``-th
entry of its ordered output list.

Signals
-------
A *signal* is one produced value, identified by ``(producer node id,
producer output port)``.  Signals are the "variables" of the paper: they
are what gets bound to registers during synthesis.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..errors import DFGError
from .ops import OP_INFO, Operation

__all__ = ["NodeKind", "Node", "Edge", "Signal", "DFG", "DEFAULT_WIDTH"]

DEFAULT_WIDTH = 16

#: A produced value: (producer node id, producer output port).
Signal = tuple[str, int]


class NodeKind(enum.Enum):
    """Role of a DFG node."""

    INPUT = "input"
    OUTPUT = "output"
    CONST = "const"
    OP = "op"
    HIER = "hier"


@dataclass
class Node:
    """One DFG node.

    Attributes
    ----------
    node_id:
        Unique identifier within the owning DFG.
    kind:
        Role of the node (see :class:`NodeKind`).
    op:
        The arithmetic operation, for ``OP`` nodes only.
    behavior:
        Name of the behavior implemented, for ``HIER`` nodes only.  Any
        DFG registered under this behavior name can implement the node.
    value:
        Constant value, for ``CONST`` nodes only.
    width:
        Bit width of the produced value(s).
    n_inputs / n_outputs:
        Port counts.  Derived from the operation for ``OP`` nodes and
        given explicitly for ``HIER`` nodes.
    """

    node_id: str
    kind: NodeKind
    op: Operation | None = None
    behavior: str | None = None
    value: int | None = None
    width: int = DEFAULT_WIDTH
    n_inputs: int = 0
    n_outputs: int = 1

    @property
    def is_operation(self) -> bool:
        """True for nodes that perform computation (OP or HIER)."""
        return self.kind in (NodeKind.OP, NodeKind.HIER)


@dataclass(frozen=True)
class Edge:
    """A directed value-carrying edge between two node ports."""

    src: str
    src_port: int
    dst: str
    dst_port: int

    @property
    def signal(self) -> Signal:
        """The signal (variable) this edge carries."""
        return (self.src, self.src_port)


class DFG:
    """A single (possibly hierarchical) data flow graph.

    The graph owns its nodes and edges, keeps ordered primary-input and
    primary-output lists (the port numbering used by hierarchical
    nodes), and offers the traversal queries the scheduler and synthesis
    engine need.
    """

    def __init__(self, name: str, behavior: str | None = None):
        self.name = name
        #: Behavior this DFG implements; DFGs with the same behavior are
        #: functionally equivalent and interchangeable (move A).
        self.behavior = behavior or name
        self._nodes: dict[str, Node] = {}
        self._in_edges: dict[str, dict[int, Edge]] = {}
        self._out_edges: dict[str, list[Edge]] = {}
        #: Port-sorted in-edge lists, built on demand per node and
        #: dropped on rewiring.  :meth:`in_edges` is the hottest graph
        #: query in cost evaluation (operand collection, scheduling,
        #: netlist build all walk it per candidate), and re-sorting the
        #: port dict on a graph that never changes mid-search is pure
        #: waste.  Callers treat the list as read-only.
        self._in_sorted: dict[str, list[Edge]] = {}
        #: Number of edges, kept by :meth:`connect` (see :attr:`n_edges`).
        self._n_edges = 0
        #: Ordered primary inputs (node ids) - defines hierarchical port order.
        self.inputs: list[str] = []
        #: Ordered primary outputs (node ids).
        self.outputs: list[str] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _register(self, node: Node) -> Node:
        if node.node_id in self._nodes:
            raise DFGError(f"duplicate node id {node.node_id!r} in DFG {self.name!r}")
        self._nodes[node.node_id] = node
        self._in_edges[node.node_id] = {}
        self._out_edges[node.node_id] = []
        return node

    def add_input(self, node_id: str, width: int = DEFAULT_WIDTH) -> Node:
        """Add a primary input; its position defines its port number."""
        node = self._register(
            Node(node_id, NodeKind.INPUT, width=width, n_inputs=0, n_outputs=1)
        )
        self.inputs.append(node_id)
        return node

    def add_const(self, node_id: str, value: int, width: int = DEFAULT_WIDTH) -> Node:
        """Add a constant-source node."""
        return self._register(
            Node(node_id, NodeKind.CONST, value=value, width=width, n_outputs=1)
        )

    def add_op(
        self, node_id: str, op: Operation, width: int = DEFAULT_WIDTH
    ) -> Node:
        """Add a simple operation node."""
        info = OP_INFO[op]
        return self._register(
            Node(
                node_id,
                NodeKind.OP,
                op=op,
                width=width,
                n_inputs=info.arity,
                n_outputs=1,
            )
        )

    def add_hier(
        self,
        node_id: str,
        behavior: str,
        n_inputs: int,
        n_outputs: int = 1,
        width: int = DEFAULT_WIDTH,
    ) -> Node:
        """Add a hierarchical node implementing *behavior*."""
        if n_inputs <= 0 or n_outputs <= 0:
            raise DFGError("hierarchical nodes need at least one input and output")
        return self._register(
            Node(
                node_id,
                NodeKind.HIER,
                behavior=behavior,
                width=width,
                n_inputs=n_inputs,
                n_outputs=n_outputs,
            )
        )

    def add_output(self, node_id: str, width: int = DEFAULT_WIDTH) -> Node:
        """Add a primary output sink; its position defines its port number."""
        node = self._register(
            Node(node_id, NodeKind.OUTPUT, width=width, n_inputs=1, n_outputs=0)
        )
        self.outputs.append(node_id)
        return node

    def connect(
        self, src: str, src_port: int, dst: str, dst_port: int
    ) -> Edge:
        """Wire output port *src_port* of *src* to input port *dst_port* of *dst*."""
        for node_id in (src, dst):
            if node_id not in self._nodes:
                raise DFGError(f"unknown node {node_id!r} in DFG {self.name!r}")
        src_node, dst_node = self._nodes[src], self._nodes[dst]
        if not 0 <= src_port < src_node.n_outputs:
            raise DFGError(
                f"{src!r} has {src_node.n_outputs} output ports, not port {src_port}"
            )
        if not 0 <= dst_port < dst_node.n_inputs:
            raise DFGError(
                f"{dst!r} has {dst_node.n_inputs} input ports, not port {dst_port}"
            )
        if dst_port in self._in_edges[dst]:
            raise DFGError(f"input port {dst_port} of {dst!r} is already driven")
        edge = Edge(src, src_port, dst, dst_port)
        self._in_edges[dst][dst_port] = edge
        self._out_edges[src].append(edge)
        self._in_sorted.pop(dst, None)
        self._n_edges += 1
        return edge

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node(self, node_id: str) -> Node:
        """Return the node with the given id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise DFGError(f"unknown node {node_id!r} in DFG {self.name!r}") from None

    def has_node(self, node_id: str) -> bool:
        """True when the graph has a node *node_id*."""
        return node_id in self._nodes

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes in insertion order."""
        return iter(self._nodes.values())

    def node_ids(self) -> Iterator[str]:
        """Iterate over all node ids in insertion order."""
        return iter(self._nodes.keys())

    @property
    def n_edges(self) -> int:
        """Number of edges, in O(1).

        With the node count it versions the graph for derived caches
        (:mod:`repro.dfg.canonical`, the scheduler's per-graph data): a
        DFG is append-only, so equal counts mean an unchanged graph.
        """
        return self._n_edges

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges."""
        for ports in self._in_edges.values():
            yield from ports.values()

    def in_edges(self, node_id: str) -> list[Edge]:
        """In-edges of a node, sorted by destination port (read-only)."""
        cached = self._in_sorted.get(node_id)
        if cached is None:
            ports = self._in_edges[node_id]
            cached = [ports[p] for p in sorted(ports)]
            self._in_sorted[node_id] = cached
        return cached

    def out_edges(self, node_id: str) -> list[Edge]:
        """Out-edges of a node (insertion order)."""
        return list(self._out_edges[node_id])

    def predecessors(self, node_id: str) -> list[str]:
        """Distinct predecessor node ids, in port order."""
        seen: list[str] = []
        for edge in self.in_edges(node_id):
            if edge.src not in seen:
                seen.append(edge.src)
        return seen

    def successors(self, node_id: str) -> list[str]:
        """Distinct successor node ids."""
        seen: list[str] = []
        for edge in self._out_edges[node_id]:
            if edge.dst not in seen:
                seen.append(edge.dst)
        return seen

    def operation_nodes(self) -> list[Node]:
        """All computing nodes (simple operations and hierarchical nodes)."""
        return [n for n in self._nodes.values() if n.is_operation]

    def op_nodes(self) -> list[Node]:
        """Simple operation nodes only."""
        return [n for n in self._nodes.values() if n.kind == NodeKind.OP]

    def hier_nodes(self) -> list[Node]:
        """Hierarchical nodes only."""
        return [n for n in self._nodes.values() if n.kind == NodeKind.HIER]

    def signals(self) -> list[Signal]:
        """All signals (produced values) in the graph, deduplicated."""
        seen: dict[Signal, None] = {}
        for edge in self.edges():
            seen.setdefault(edge.signal, None)
        return list(seen)

    def consumers(self, signal: Signal) -> list[Edge]:
        """All edges that consume the given signal."""
        src, src_port = signal
        return [e for e in self._out_edges[src] if e.src_port == src_port]

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        n_ops = len(self.operation_nodes())
        return (
            f"DFG({self.name!r}, behavior={self.behavior!r}, "
            f"{len(self._nodes)} nodes, {n_ops} operations)"
        )

    # ------------------------------------------------------------------
    # Ordering / structure
    # ------------------------------------------------------------------
    def topo_order(self) -> list[str]:
        """Topological order of all node ids.

        Raises :class:`~repro.errors.DFGError` if the graph has a cycle.
        (Loop-carried dependencies in filter benchmarks are modeled by
        exposing the state as extra inputs/outputs, which keeps every
        per-sample DFG acyclic, as in the paper's Figure 1.)
        """
        in_deg = {nid: len(self._in_edges[nid]) for nid in self._nodes}
        ready = [nid for nid in self._nodes if in_deg[nid] == 0]
        order: list[str] = []
        while ready:
            nid = ready.pop(0)
            order.append(nid)
            for edge in self._out_edges[nid]:
                in_deg[edge.dst] -= 1
                if in_deg[edge.dst] == 0:
                    ready.append(edge.dst)
        if len(order) != len(self._nodes):
            raise DFGError(f"DFG {self.name!r} contains a cycle")
        return order

    def copy(self, name: str | None = None) -> "DFG":
        """Deep-copy the graph (nodes are re-created, edges re-wired)."""
        clone = DFG(name or self.name, behavior=self.behavior)
        for node in self._nodes.values():
            clone._register(
                Node(
                    node.node_id,
                    node.kind,
                    op=node.op,
                    behavior=node.behavior,
                    value=node.value,
                    width=node.width,
                    n_inputs=node.n_inputs,
                    n_outputs=node.n_outputs,
                )
            )
        clone.inputs = list(self.inputs)
        clone.outputs = list(self.outputs)
        for edge in self.edges():
            clone._in_edges[edge.dst][edge.dst_port] = edge
            clone._out_edges[edge.src].append(edge)
        clone._n_edges = self._n_edges
        return clone

    def __getstate__(self) -> dict:
        """Pickled state, without the sorted in-edge cache: which nodes
        it holds depends on the queries made, so pickling it would make
        a graph's bytes depend on what was asked of it first."""
        state = self.__dict__.copy()
        del state["_in_sorted"]
        return state

    def __setstate__(self, state: dict) -> None:
        """Restore a pickled graph, counting its edges if it predates
        the edge counter (store files outlive releases).  Graphs pickled
        by earlier releases may carry the sorted in-edge cache and the
        fingerprint memo (``_canonical_memo``, now held outside the
        graph by :mod:`repro.dfg.canonical`); both are dropped.  The
        names are interned, as the default restore does, so a loaded
        graph pickles to the bytes it was loaded from (pickling
        memoizes strings by identity)."""
        state.pop("_canonical_memo", None)
        state.pop("_in_sorted", None)
        self.__dict__.update((sys.intern(k), v) for k, v in state.items())
        self._in_sorted = {}
        if "_n_edges" not in state:
            self._n_edges = sum(len(ports) for ports in self._in_edges.values())
