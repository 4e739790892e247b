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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dfg.graph import DFG, Signal

__all__ = ["TaskSpec", "ScheduleResult"]


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
