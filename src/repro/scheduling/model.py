"""Scheduling task model.

The scheduler does not work on raw DFG nodes but on **tasks**: one task
is one activation of one resource instance.  Usually a task executes a
single operation, but

* a *chain task* executes a whole dependency chain of same-type
  operations on a chained cell (``chained_add2``/``chained_add3``,
  Table 1) in one activation, and
* a *hierarchical task* executes a hierarchical node on a complex RTL
  module, with the module's **profile** (Section 2, Example 1) giving
  per-input expected-arrival offsets and per-output latencies.

Profile semantics, following Example 1 of the paper: a task with input
offsets :math:`o_i` whose inputs arrive at :math:`a_i` can start at
:math:`s = \\max_i(a_i - o_i, 0)`; output :math:`j` with latency
:math:`l_j` is available at :math:`s + l_j`.

What the scheduler reads from the graph is derived once and cached: per
DFG in a :class:`GraphWiring`, per task in a :class:`TaskWiring`.
Synthesis clones share :class:`TaskSpec` objects for the instances a
move left alone, so a candidate's schedule re-derives only the wiring
of the tasks its move changed.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from ..dfg.graph import DFG, NodeKind, Signal

__all__ = ["TaskSpec", "ScheduleResult"]


class GraphWiring:
    """What the scheduler reads from one DFG, for one version of it.

    A DFG is append-only, so its node and edge counts version it:
    :meth:`of` re-derives the wiring when either count moved.

    Attributes
    ----------
    sources:
        Signals of the primary inputs and constants, in node order:
        available at cycle 0.
    operations:
        Ids of the nodes a task may cover (operations and hierarchical
        nodes).
    output_drivers:
        Per primary output, the signals driving it (exactly one in a
        well-formed graph).
    """

    __slots__ = ("n_nodes", "n_edges", "sources", "operations",
                 "output_drivers")

    def __init__(self, dfg: DFG):
        self.n_nodes = len(dfg)
        self.n_edges = dfg.n_edges
        self.sources = tuple(
            [
                (node.node_id, 0)
                for node in dfg.nodes()
                if node.kind in (NodeKind.INPUT, NodeKind.CONST)
            ]
        )
        self.operations = frozenset(
            [node.node_id for node in dfg.nodes() if node.is_operation]
        )
        self.output_drivers = tuple(
            [
                tuple([edge.signal for edge in dfg.in_edges(out_id)])
                for out_id in dfg.outputs
            ]
        )

    @classmethod
    def of(cls, dfg: DFG) -> "GraphWiring":
        """The wiring of *dfg* as it stands (cached per DFG object)."""
        wiring = _GRAPH_WIRING.get(dfg)
        if (
            wiring is None
            or wiring.n_nodes != len(dfg)
            or wiring.n_edges != dfg.n_edges
        ):
            wiring = cls(dfg)
            _GRAPH_WIRING[dfg] = wiring
        return wiring


#: DFG → its current :class:`GraphWiring`.  Weakly keyed, so the cache
#: never keeps a graph alive, and not an attribute of the DFG, so it is
#: never pickled with one.
_GRAPH_WIRING: "weakref.WeakKeyDictionary[DFG, GraphWiring]" = (
    weakref.WeakKeyDictionary()
)


class TaskWiring:
    """What the scheduler reads from one task in one :class:`GraphWiring`.

    Attributes
    ----------
    graph:
        The graph wiring this was derived against.
    inputs:
        ``(signal, offset)`` per external input edge, in node order and
        then port order: the task can start once every signal has
        arrived, less its expected-arrival offset.
    producers:
        The operation nodes outside the task that feed those inputs, in
        the same order (primary inputs and constants feed none).
    outputs:
        ``(signal, latency)`` per signal the task produces, in node and
        port order.
    """

    __slots__ = ("graph", "inputs", "producers", "outputs")

    def __init__(self, task: "TaskSpec", dfg: DFG, graph: GraphWiring):
        self.graph = graph
        inside = set(task.nodes)
        offsets = task.input_offsets
        inputs: list[tuple[Signal, int]] = []
        producers: list[str] = []
        outputs: list[tuple[Signal, int]] = []
        for node_id in task.nodes:
            for edge in dfg.in_edges(node_id):
                src = edge.src
                if src in inside:
                    continue
                inputs.append((edge.signal, offsets.get((node_id, edge.dst_port), 0)))
                if dfg.node(src).kind not in (NodeKind.INPUT, NodeKind.CONST):
                    producers.append(src)
        for node_id in task.nodes:
            for port in range(dfg.node(node_id).n_outputs):
                signal = (node_id, port)
                outputs.append((signal, task.latency_of(signal)))
        self.inputs = tuple(inputs)
        self.producers = tuple(producers)
        self.outputs = tuple(outputs)


@dataclass
class TaskSpec:
    """One resource activation covering one or more DFG nodes.

    Attributes
    ----------
    task_id:
        Unique task identifier.
    nodes:
        DFG node ids executed by this activation, in dependency order
        (singleton for plain operations).
    instance:
        Identifier of the resource instance the task runs on; tasks on
        the same instance are serialized.
    duration:
        Number of cycles from start until the task's results are done.
    initiation_interval:
        Cycles until the instance can accept the *next* task; equals
        ``duration`` for ordinary units, 1 for fully pipelined ones.
        ``None`` defaults to ``duration``.
    input_offsets:
        Expected-arrival offset (cycles) per external input ``(node,
        dst_port)``.  Missing entries default to 0.
    output_latency:
        Availability time after task start per produced signal.
        Missing entries default to ``duration``.
    """

    task_id: str
    nodes: tuple[str, ...]
    instance: str
    duration: int
    input_offsets: dict[tuple[str, int], int] = field(default_factory=dict)
    output_latency: dict[Signal, int] = field(default_factory=dict)
    initiation_interval: int | None = None

    @property
    def busy_cycles(self) -> int:
        """Cycles the instance is occupied before the next issue."""
        if self.initiation_interval is not None:
            return self.initiation_interval
        return self.duration

    def offset_of(self, node: str, port: int) -> int:
        """Expected-arrival offset of input *port* of *node* (default 0)."""
        return self.input_offsets.get((node, port), 0)

    def latency_of(self, signal: Signal) -> int:
        """Cycles from task start until *signal* is available (default
        ``duration``)."""
        return self.output_latency.get(signal, self.duration)

    def external_in_edges(self, dfg: DFG):
        """Edges entering the task from outside it."""
        inside = set(self.nodes)
        for node in self.nodes:
            for edge in dfg.in_edges(node):
                if edge.src not in inside:
                    yield edge

    #: The last :class:`TaskWiring` derived for this task (see
    #: :meth:`wiring`).  Unannotated, so not a dataclass field: it
    #: takes no part in construction, comparison or ``repr``.
    _wiring = None

    def wiring(self, dfg: DFG, graph: GraphWiring) -> TaskWiring:
        """This task's wiring into *dfg*, whose current wiring is *graph*.

        Cached on the task and re-derived when *graph* is not the one
        it was derived against: another DFG, or the same one after it
        grew.  A task's fields never change once it is built.
        """
        wiring = self._wiring
        if wiring is None or wiring.graph is not graph:
            wiring = self._wiring = TaskWiring(self, dfg, graph)
        return wiring

    def __getstate__(self) -> dict:
        """Pickled state: the fields, without the cached wiring."""
        state = self.__dict__.copy()
        state.pop("_wiring", None)
        return state


@dataclass
class ScheduleResult:
    """Outcome of scheduling one DFG level.

    ``start``/``finish`` are per *task*; ``avail`` gives each signal's
    availability time; ``length`` is the number of cycles until the last
    primary output is produced (the schedule's makespan);
    ``instance_order`` records the serialization order per resource
    instance — the order the controller sequences and the order power
    estimation interleaves operand streams in.
    """

    start: dict[str, int]
    finish: dict[str, int]
    avail: dict[Signal, int]
    length: int
    instance_order: dict[str, list[str]]
    task_of_node: dict[str, str]
    #: Per-signal lifetime memo, filled lazily by
    #: :meth:`repro.synthesis.solution.Solution.signal_lifetime`.  A
    #: lifetime is a pure function of (DFG, tasks, schedule), and one
    #: ScheduleResult is shared across every candidate whose task set is
    #: unchanged — so the memo rides on the schedule it is valid for.
    lifetime_memo: dict = field(default_factory=dict, compare=False, repr=False)
    #: Per-instance execution order memo (instance id → tuple of node
    #: groups in serialization order), filled lazily during candidate
    #: pricing.  Valid for every solution sharing this schedule: sharing
    #: requires an equal task signature, which pins each task's nodes
    #: and instance, and ``instance_order`` lives on the schedule
    #: itself.
    exec_groups_memo: dict = field(default_factory=dict, compare=False, repr=False)

    def start_of_node(self, node_id: str) -> int:
        """Start cycle of the task that executes *node_id*."""
        return self.start[self.task_of_node[node_id]]

    def finish_of_node(self, node_id: str) -> int:
        """Finish cycle (start + duration) of the task that executes
        *node_id*."""
        return self.finish[self.task_of_node[node_id]]
