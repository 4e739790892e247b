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

Set-up reads the graph through cached wirings
(:class:`~repro.scheduling.model.GraphWiring` per DFG,
:class:`~repro.scheduling.model.TaskWiring` per task): each call checks
coverage against the graph's operation set and builds dependencies,
successors and ALAP priorities from the tasks' producer lists, without
walking the DFG.

Hierarchical tasks use profile semantics (Example 1): a task may start
*before* all its inputs have arrived if the module expects late inputs
(non-zero input offsets).
"""

from __future__ import annotations

from ..dfg.graph import DFG, Signal
from ..errors import ScheduleError
from .model import GraphWiring, ScheduleResult, TaskSpec, TaskWiring

__all__ = ["schedule_tasks", "task_dependencies"]


def task_dependencies(dfg: DFG, tasks: list[TaskSpec]) -> dict[str, set[str]]:
    """Map each task id to the set of task ids it depends on for data."""
    producer: dict[str, str] = {}
    for task in tasks:
        for node in task.nodes:
            if node in producer:
                raise ScheduleError(f"node {node!r} covered by two tasks")
            producer[node] = task.task_id

    graph = GraphWiring.of(dfg)
    deps: dict[str, set[str]] = {t.task_id: set() for t in tasks}
    for task in tasks:
        for src in task.wiring(dfg, graph).producers:
            if src not in producer:
                raise ScheduleError(
                    f"operation {src!r} is not covered by any task"
                )
            deps[task.task_id].add(producer[src])
    return deps


def _coverage_error(dfg: DFG, tasks: list[TaskSpec]) -> ScheduleError:
    """The first coverage fault of a task list that fails the check.

    Faults are reported in a fixed order: an operation without a task,
    then a covered node that is no operation (an unknown node raises
    :class:`~repro.errors.DFGError` here), then a node covered twice.
    """
    covered = {node for task in tasks for node in task.nodes}
    for node in dfg.operation_nodes():
        if node.node_id not in covered:
            return ScheduleError(f"operation {node.node_id!r} has no task")
    for task in tasks:
        for node_id in task.nodes:
            if not dfg.node(node_id).is_operation:
                return ScheduleError(f"task covers non-operation node {node_id!r}")
    # Every operation is covered and nothing else is, so the check
    # failed on a node covered twice.
    seen: set[str] = set()
    for task in tasks:
        for node_id in task.nodes:
            if node_id in seen:
                return ScheduleError(f"node {node_id!r} covered by two tasks")
            seen.add(node_id)
    raise AssertionError("task coverage check failed without a fault")


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
    graph = GraphWiring.of(dfg)
    # Coverage: every operation in exactly one task, nothing else.
    producer_task: dict[str, str] = {}
    n_covered = 0
    for task in tasks:
        tid = task.task_id
        for node in task.nodes:
            producer_task[node] = tid
        n_covered += len(task.nodes)
    covered = producer_task.keys()
    if n_covered != len(covered) or covered != graph.operations:
        raise _coverage_error(dfg, tasks)

    by_id = {t.task_id: t for t in tasks}
    instance_of = {t.task_id: t.instance for t in tasks}
    wiring: dict[str, TaskWiring] = {}
    deps: dict[str, set[str]] = {}
    for task in tasks:
        task_wiring = task.wiring(dfg, graph)
        wiring[task.task_id] = task_wiring
        deps[task.task_id] = {producer_task[src] for src in task_wiring.producers}
    succs: dict[str, list[str]] = {tid: [] for tid in deps}
    for tid, dep_ids in deps.items():
        for dep in dep_ids:
            succs[dep].append(tid)

    # Criticality: the longest path from each task to any primary output,
    # in one reverse-topological pass.  Higher value = more critical =
    # scheduled first on contention.
    criticality: dict[str, int] = {}
    tail = dict.fromkeys(deps, 0)
    n_succs_left = {tid: len(succ_ids) for tid, succ_ids in succs.items()}
    sinks = [tid for tid, n in n_succs_left.items() if not n]
    while sinks:
        tid = sinks.pop()
        crit = by_id[tid].duration + tail[tid]
        criticality[tid] = crit
        for dep in deps[tid]:
            if crit > tail[dep]:
                tail[dep] = crit
            n_succs_left[dep] -= 1
            if not n_succs_left[dep]:
                sinks.append(dep)
    if len(criticality) != len(deps):
        raise ScheduleError("cycle in task dependence graph")

    # Signals from inputs/constants are available at time zero.
    avail: dict[Signal, int] = dict.fromkeys(graph.sources, 0)
    n_deps_left = {tid: len(dep_ids) for tid, dep_ids in deps.items()}

    def data_ready(tid: str) -> int:
        """Earliest start the task's operands allow (all are produced)."""
        earliest = 0
        for signal, offset in wiring[tid].inputs:
            at = avail.get(signal)
            if at is None:
                raise ScheduleError(
                    f"task {tid!r} became ready before signal "
                    f"{signal!r} was produced"
                )
            at -= offset
            if at > earliest:
                earliest = at
        return earliest

    # Ready task id → its data-ready cycle.
    ready = {tid: data_ready(tid) for tid in deps if n_deps_left[tid] == 0}
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
        # Tasks that can issue now, grouped by instance.
        candidates: dict[str, list[str]] = {}
        for tid, at in ready.items():
            if at > t:
                continue
            instance = instance_of[tid]
            if instance_free.get(instance, 0) <= t:
                candidates.setdefault(instance, []).append(tid)
        for instance, tids in candidates.items():
            # Most critical first; task id breaks ties deterministically.
            if len(tids) == 1:
                tid = tids[0]
            else:
                tid = min(tids, key=lambda x: (-criticality[x], x))
            task = by_id[tid]
            start[tid] = t
            finish[tid] = t + task.duration
            # Pipelined units free up after their initiation interval,
            # not after the full latency.
            instance_free[instance] = t + task.busy_cycles
            instance_order.setdefault(instance, []).append(tid)
            for signal, latency in wiring[tid].outputs:
                avail[signal] = t + latency
            del ready[tid]
            left -= 1
            for succ_id in succs[tid]:
                n_deps_left[succ_id] -= 1
                if n_deps_left[succ_id] == 0:
                    ready[succ_id] = data_ready(succ_id)
        # The next issue cycle: the earliest at which some ready task has
        # both its data and a free instance.  It stays t while a task that
        # just became ready, or one whose instance is still free, can
        # issue at t.  Ready times and instance-free times change only
        # when a task issues, so nothing could issue in the cycles
        # skipped.  (Any cycle past the horizon raises the same error.)
        nxt = horizon + 1
        for tid, at in ready.items():
            free = instance_free.get(instance_of[tid], 0)
            if free > at:
                at = free
            if at < nxt:
                nxt = at
        t = max(t, nxt)

    length = 0
    for drivers in graph.output_drivers:
        (signal,) = drivers
        length = max(length, avail[signal])

    return ScheduleResult(
        start=start,
        finish=finish,
        avail=avail,
        length=length,
        instance_order=instance_order,
        task_of_node=producer_task,
    )
