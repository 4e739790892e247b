"""Property tests for the list scheduler over random bindings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dfg import DFG, GraphBuilder, Operation
from repro.errors import ScheduleError
from repro.scheduling import (
    TaskSpec,
    latest_start_times,
    schedule_tasks,
    task_slacks,
)
from tests.reference_scheduler import stepped_schedule_tasks

BINARY_OPS = [Operation.ADD, Operation.SUB, Operation.MULT]


@st.composite
def dfg_with_tasks(draw):
    """A random DAG plus a random binding onto 1..4 instances."""
    n_inputs = draw(st.integers(2, 3))
    n_ops = draw(st.integers(2, 10))
    b = GraphBuilder("g")
    wires = list(b.inputs(*[f"i{k}" for k in range(n_inputs)]))
    op_names = []
    for k in range(n_ops):
        op = draw(st.sampled_from(BINARY_OPS))
        lhs = wires[draw(st.integers(0, len(wires) - 1))]
        rhs = wires[draw(st.integers(0, len(wires) - 1))]
        wires.append(b.op(op, lhs, rhs, name=f"op{k}"))
        op_names.append(f"op{k}")
    b.output("out", wires[-1])
    dfg = b.build()

    n_instances = draw(st.integers(1, 4))
    tasks = []
    for k, name in enumerate(op_names):
        inst = f"I{draw(st.integers(0, n_instances - 1))}"
        duration = draw(st.integers(1, 5))
        tasks.append(TaskSpec(f"t{k}", (name,), inst, duration))
    return dfg, tasks


@given(dfg_with_tasks())
@settings(max_examples=40, deadline=None)
def test_no_instance_overlap(case):
    dfg, tasks = case
    result = schedule_tasks(dfg, tasks)
    for order in result.instance_order.values():
        for earlier, later in zip(order, order[1:]):
            assert result.start[later] >= result.finish[earlier]


@given(dfg_with_tasks())
@settings(max_examples=40, deadline=None)
def test_data_dependencies_respected(case):
    dfg, tasks = case
    by_node = {}
    for task in tasks:
        for node in task.nodes:
            by_node[node] = task
    result = schedule_tasks(dfg, tasks)
    for task in tasks:
        for edge in task.external_in_edges(dfg):
            if edge.src not in by_node:
                continue  # primary input
            assert result.avail[edge.signal] <= result.start[task.task_id]


@given(dfg_with_tasks())
@settings(max_examples=40, deadline=None)
def test_length_covers_outputs(case):
    dfg, tasks = case
    result = schedule_tasks(dfg, tasks)
    for out in dfg.outputs:
        (edge,) = dfg.in_edges(out)
        assert result.avail[edge.signal] <= result.length


@given(dfg_with_tasks(), st.integers(0, 20))
@settings(max_examples=40, deadline=None)
def test_slack_nonnegative_when_deadline_met(case, extra):
    dfg, tasks = case
    result = schedule_tasks(dfg, tasks)
    slacks = task_slacks(dfg, tasks, result, deadline=result.length + extra)
    assert all(s >= 0 for s in slacks.values())


@given(dfg_with_tasks())
@settings(max_examples=40, deadline=None)
def test_latest_start_at_least_actual(case):
    dfg, tasks = case
    result = schedule_tasks(dfg, tasks)
    latest = latest_start_times(dfg, tasks, result, deadline=result.length)
    for task in tasks:
        assert latest[task.task_id] >= result.start[task.task_id]


@st.composite
def profiled_tasks(draw):
    """A random DAG of simple and hierarchical nodes, bound onto shared
    instances: multi-cycle and pipelined (ii = 1) units, two-node chain
    tasks, hierarchical tasks with input offsets and output latencies,
    and latencies longer than the busy time (idle gaps)."""
    n_inputs = draw(st.integers(1, 3))
    n_nodes = draw(st.integers(1, 12))
    b = GraphBuilder("g")
    wires = list(b.inputs(*[f"i{k}" for k in range(n_inputs)]))
    if draw(st.booleans()):
        wires.append(b.const(3))
    nodes = []  # (node id, is hier, n_inputs, n_outputs, operand wires)
    for k in range(n_nodes):
        name = f"n{k}"
        if draw(st.integers(0, 3)) == 0:
            n_in = draw(st.integers(1, 3))
            n_out = draw(st.integers(1, 2))
            args = [wires[draw(st.integers(0, len(wires) - 1))] for _ in range(n_in)]
            head = b.hier("beh", *args, n_outputs=n_out, name=name)
            wires.extend(head[p] for p in range(n_out))
            nodes.append((name, True, n_in, n_out, args))
        else:
            op = draw(st.sampled_from(BINARY_OPS))
            args = [wires[draw(st.integers(0, len(wires) - 1))] for _ in range(2)]
            wires.append(b.op(op, *args, name=name))
            nodes.append((name, False, 2, 1, args))
    b.output("out", wires[-1])
    if draw(st.booleans()):
        b.output("out2", wires[draw(st.integers(n_inputs, len(wires) - 1))])
    dfg = b.build()

    n_units = draw(st.integers(1, 4))
    units = [
        (draw(st.integers(1, 4)), draw(st.booleans())) for _ in range(n_units)
    ]  # (duration, pipelined)
    n_modules = draw(st.integers(1, 3))
    tasks = []
    k = 0
    while k < len(nodes):
        name, is_hier, n_in, n_out, args = nodes[k]
        if is_hier:
            inst = f"M{draw(st.integers(0, n_modules - 1))}"
            duration = draw(st.integers(1, 5))
            offsets = {
                (name, port): draw(st.integers(0, 3)) for port in range(n_in)
            }
            latencies = {
                (name, port): draw(st.integers(0, 6)) for port in range(n_out)
            }
            tasks.append(TaskSpec(f"t{k}", (name,), inst, duration,
                                  input_offsets=offsets,
                                  output_latency=latencies))
            k += 1
            continue
        unit = draw(st.integers(0, n_units - 1))
        duration, pipelined = units[unit]
        group = [name]
        # Chain a simple node with the next one when that one reads it.
        if k + 1 < len(nodes):
            nxt, nxt_hier, _n, _o, nxt_args = nodes[k + 1]
            if not nxt_hier and any(w.node_id == name for w in nxt_args):
                if draw(st.booleans()):
                    group.append(nxt)
        latencies = {(node, 0): duration for node in group}
        if draw(st.integers(0, 4)) == 0:
            latencies[(group[-1], 0)] = duration + draw(st.integers(1, 4))
        tasks.append(TaskSpec(f"t{k}", tuple(group), f"U{unit}", duration,
                              output_latency=latencies,
                              initiation_interval=1 if pipelined else None))
        k += len(group)
    max_cycles = draw(st.one_of(st.none(), st.integers(0, 30)))
    return dfg, tasks, max_cycles


FIELDS = ("start", "finish", "avail", "length", "instance_order", "task_of_node")


@given(profiled_tasks())
@settings(max_examples=300, deadline=None)
def test_event_driven_matches_stepped_reference(case):
    """Same schedule, field for field, or the same ScheduleError."""
    dfg, tasks, max_cycles = case
    try:
        expected = stepped_schedule_tasks(dfg, tasks, max_cycles)
    except ScheduleError as err:
        with pytest.raises(ScheduleError) as got:
            schedule_tasks(dfg, tasks, max_cycles)
        assert str(got.value) == str(err)
        return
    result = schedule_tasks(dfg, tasks, max_cycles)
    for name in FIELDS:
        assert getattr(result, name) == getattr(expected, name), name
