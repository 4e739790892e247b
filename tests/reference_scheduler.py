"""Cycle-stepped list scheduler: the test oracle for ``schedule_tasks``.

This is the scheduler loop as it was before :func:`repro.scheduling.
schedule_tasks` became event-driven.  It advances one cycle at a time
and, at every cycle, re-derives each ready task's data-ready cycle from
its in-edges.  Slow, but obviously a list scheduler; the property tests
require the event-driven scheduler to return exactly what this one
returns.

Its set-up (coverage check, dependencies, ALAP priorities) is the
engine's set-up as it was before the engine read the graph through
cached task wirings, kept here so the oracle shares no set-up code with
the engine: it walks the DFG on every call and caches nothing.
"""

from __future__ import annotations

from repro.dfg.graph import DFG, NodeKind, Signal
from repro.errors import ScheduleError
from repro.scheduling.model import ScheduleResult, TaskSpec


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


def stepped_schedule_tasks(
    dfg: DFG,
    tasks: list[TaskSpec],
    max_cycles: int | None = None,
) -> ScheduleResult:
    """List-schedule *tasks* cycle by cycle (same contract as the engine's)."""
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

    unscheduled = {t.task_id for t in tasks}
    n_deps_left = {tid: len(dep_ids) for tid, dep_ids in deps.items()}
    succs: dict[str, set[str]] = {t.task_id: set() for t in tasks}
    for tid, dep_ids in deps.items():
        for dep in dep_ids:
            succs[dep].add(tid)

    ready = {tid for tid in unscheduled if n_deps_left[tid] == 0}
    instance_free: dict[str, int] = {}
    instance_order: dict[str, list[str]] = {}
    start: dict[str, int] = {}
    finish: dict[str, int] = {}

    def data_start(task: TaskSpec) -> int:
        earliest = 0
        for edge in task.external_in_edges(dfg):
            signal = edge.signal
            if signal not in avail:
                raise ScheduleError(
                    f"task {task.task_id!r} became ready before signal "
                    f"{signal!r} was produced"
                )
            earliest = max(
                earliest, avail[signal] - task.offset_of(edge.dst, edge.dst_port)
            )
        return earliest

    horizon = max_cycles
    if horizon is None:
        horizon = sum(t.duration for t in tasks) + len(tasks) + 64

    t = 0
    while unscheduled:
        if t > horizon:
            raise ScheduleError(
                f"scheduler exceeded horizon of {horizon} cycles "
                f"({len(unscheduled)} tasks left)"
            )
        progressed = True
        while progressed:
            progressed = False
            # Candidates whose data is available now, grouped by instance.
            candidates: dict[str, list[str]] = {}
            for tid in ready:
                task = by_id[tid]
                if instance_free.get(task.instance, 0) > t:
                    continue
                if data_start(task) <= t:
                    candidates.setdefault(task.instance, []).append(tid)
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
                ready.discard(tid)
                unscheduled.discard(tid)
                for succ_id in succs[tid]:
                    n_deps_left[succ_id] -= 1
                    if n_deps_left[succ_id] == 0 and succ_id in unscheduled:
                        ready.add(succ_id)
                progressed = True
        t += 1

    length = 0
    for out_id in dfg.outputs:
        (edge,) = dfg.in_edges(out_id)
        length = max(length, avail[edge.signal])

    task_of_node = dict(producer_task)
    return ScheduleResult(
        start=start,
        finish=finish,
        avail=avail,
        length=length,
        instance_order=instance_order,
        task_of_node=task_of_node,
    )
