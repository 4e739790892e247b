"""Resource-constrained list scheduler with profile-aware tasks.

The paper derives an execution ordering for operations sharing a
resource and then computes start times as longest paths (Section 4,
"Scheduling of DFGs is a well-studied problem [12]").  We implement the
equivalent classic formulation: **list scheduling** with ALAP-based
priorities.  The ordering it induces per instance *is* the
serialization ordering of the paper; start times equal the longest-path
times under that ordering.

The list scheduler is event-driven: a cycle in which no task can issue
changes nothing, so it jumps from one issue cycle to the next instead
of stepping through the idle cycles in between.

Hierarchical tasks use profile semantics (Example 1): a task may start
*before* all its inputs have arrived if the module expects late inputs
(non-zero input offsets).
"""

from __future__ import annotations

from ..dfg.graph import DFG, NodeKind, Signal
from ..errors import ScheduleError
from .model import ScheduleResult, TaskSpec

__all__ = ["schedule_tasks", "task_dependencies"]


def task_dependencies(dfg: DFG, tasks: list[TaskSpec]) -> dict[str, set[str]]:
    """Map each task id to the set of task ids it depends on for data."""
    producer: dict[str, str] = {}
    for task in tasks:
        for node in task.nodes:
            if node in producer:
                raise ScheduleError(f"node {node!r} covered by two tasks")
            producer[node] = task.task_id

    deps: dict[str, set[str]] = {t.task_id: set() for t in tasks}
    for task in tasks:
        for edge in task.external_in_edges(dfg):
            src_kind = dfg.node(edge.src).kind
            if src_kind in (NodeKind.INPUT, NodeKind.CONST):
                continue
            if edge.src not in producer:
                raise ScheduleError(
                    f"operation {edge.src!r} is not covered by any task"
                )
            deps[task.task_id].add(producer[edge.src])
    return deps


def _check_coverage(dfg: DFG, tasks: list[TaskSpec]) -> None:
    covered = {node for task in tasks for node in task.nodes}
    for node in dfg.operation_nodes():
        if node.node_id not in covered:
            raise ScheduleError(f"operation {node.node_id!r} has no task")
    for node_id in covered:
        if not dfg.node(node_id).is_operation:
            raise ScheduleError(f"task covers non-operation node {node_id!r}")


def _alap_priorities(
    dfg: DFG, tasks: list[TaskSpec], deps: dict[str, set[str]]
) -> dict[str, int]:
    """Longest path from each task to any primary output (criticality).

    Higher value = more critical = scheduled first on contention.
    """
    by_id = {t.task_id: t for t in tasks}

    # Reverse-topological order via depth-first search on the task DAG.
    succs: dict[str, set[str]] = {t.task_id: set() for t in tasks}
    for tid, dep_ids in deps.items():
        for dep in dep_ids:
            succs[dep].add(tid)

    order: list[str] = []
    state: dict[str, int] = {}

    def visit(tid: str) -> None:
        stack = [(tid, iter(succs[tid]))]
        state[tid] = 1
        while stack:
            current, it = stack[-1]
            advanced = False
            for nxt in it:
                if state.get(nxt, 0) == 0:
                    state[nxt] = 1
                    stack.append((nxt, iter(succs[nxt])))
                    advanced = True
                    break
                if state.get(nxt) == 1:
                    raise ScheduleError("cycle in task dependence graph")
            if not advanced:
                state[current] = 2
                order.append(current)
                stack.pop()

    for task in tasks:
        if state.get(task.task_id, 0) == 0:
            visit(task.task_id)

    # order is reverse-topological (all successors of t appear before t).
    criticality: dict[str, int] = {}
    for tid in order:
        task = by_id[tid]
        tail = 0
        for succ_id in succs[tid]:
            tail = max(tail, criticality[succ_id])
        criticality[tid] = task.duration + tail
    return criticality


def schedule_tasks(
    dfg: DFG,
    tasks: list[TaskSpec],
    max_cycles: int | None = None,
) -> ScheduleResult:
    """List-schedule *tasks* over *dfg*; returns start times and makespan.

    At each issue cycle, every instance that is free takes its most
    critical ready task whose operands have arrived (task id breaks
    ties), repeatedly until no more can issue in that cycle.  A task's
    data-ready cycle is fixed once, when its last producer issues, so
    the next issue cycle is the earliest cycle at which some ready task
    has both its data and a free instance; the cycles skipped in
    between are exactly those in which nothing could issue.

    Raises :class:`~repro.errors.ScheduleError` on structural problems
    (uncovered operations, dependence cycles) and when a task would
    issue after cycle *max_cycles* (default: the sum of the task
    durations, plus one cycle per task, plus 64).  Deadline violations
    are *not* an error here: the caller compares ``result.length``
    against its cycle budget, because the iterative-improvement engine
    needs the actual makespan to compute gains of infeasible
    candidates.
    """
    _check_coverage(dfg, tasks)
    deps = task_dependencies(dfg, tasks)
    criticality = _alap_priorities(dfg, tasks, deps)
    by_id = {t.task_id: t for t in tasks}
    producer_task: dict[str, str] = {}
    for task in tasks:
        for node in task.nodes:
            producer_task[node] = task.task_id

    # Signals from inputs/constants are available at time zero.
    avail: dict[Signal, int] = {}
    for node in dfg.nodes():
        if node.kind in (NodeKind.INPUT, NodeKind.CONST):
            avail[(node.node_id, 0)] = 0

    n_deps_left = {tid: len(dep_ids) for tid, dep_ids in deps.items()}
    succs: dict[str, list[str]] = {t.task_id: [] for t in tasks}
    for tid, dep_ids in deps.items():
        for dep in dep_ids:
            succs[dep].append(tid)

    def data_ready(task: TaskSpec) -> int:
        """Earliest start the task's operands allow (all are produced)."""
        earliest = 0
        for edge in task.external_in_edges(dfg):
            at = avail.get(edge.signal)
            if at is None:
                raise ScheduleError(
                    f"task {task.task_id!r} became ready before signal "
                    f"{edge.signal!r} was produced"
                )
            at -= task.offset_of(edge.dst, edge.dst_port)
            if at > earliest:
                earliest = at
        return earliest

    # Ready task id → its data-ready cycle.
    ready = {
        t.task_id: data_ready(t) for t in tasks if n_deps_left[t.task_id] == 0
    }
    instance_free: dict[str, int] = {}
    instance_order: dict[str, list[str]] = {}
    start: dict[str, int] = {}
    finish: dict[str, int] = {}

    horizon = max_cycles
    if horizon is None:
        horizon = sum(t.duration for t in tasks) + len(tasks) + 64

    left = len(tasks)
    t = 0
    while left:
        if t > horizon:
            raise ScheduleError(
                f"scheduler exceeded horizon of {horizon} cycles "
                f"({left} tasks left)"
            )
        while True:
            # Tasks that can issue now, grouped by instance.
            candidates: dict[str, list[str]] = {}
            for tid, at in ready.items():
                if at > t:
                    continue
                instance = by_id[tid].instance
                if instance_free.get(instance, 0) <= t:
                    candidates.setdefault(instance, []).append(tid)
            if not candidates:
                break
            for instance, tids in candidates.items():
                # Most critical first; task id breaks ties deterministically.
                tid = min(tids, key=lambda x: (-criticality[x], x))
                task = by_id[tid]
                start[tid] = t
                finish[tid] = t + task.duration
                # Pipelined units free up after their initiation interval,
                # not after the full latency.
                instance_free[instance] = t + task.busy_cycles
                instance_order.setdefault(instance, []).append(tid)
                for node in task.nodes:
                    for port in range(dfg.node(node).n_outputs):
                        signal = (node, port)
                        avail[signal] = t + task.latency_of(signal)
                del ready[tid]
                left -= 1
                for succ_id in succs[tid]:
                    n_deps_left[succ_id] -= 1
                    if n_deps_left[succ_id] == 0:
                        ready[succ_id] = data_ready(by_id[succ_id])
        # Nothing more issues at t: every ready task waits for its data
        # or its instance, and neither changes until something issues.
        t = min(
            (
                max(at, instance_free.get(by_id[tid].instance, 0))
                for tid, at in ready.items()
            ),
            default=horizon + 1,
        )

    length = 0
    for out_id in dfg.outputs:
        (edge,) = dfg.in_edges(out_id)
        length = max(length, avail[edge.signal])

    return ScheduleResult(
        start=start,
        finish=finish,
        avail=avail,
        length=length,
        instance_order=instance_order,
        task_of_node=producer_task,
    )
