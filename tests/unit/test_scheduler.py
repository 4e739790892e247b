"""Unit tests for the profile-aware list scheduler."""

import copy
import pickle

import pytest

from repro.dfg import DFG, GraphBuilder, Operation
from repro.errors import ScheduleError
from repro.scheduling import TaskSpec, schedule_tasks, task_dependencies

from tests.designs import diamond_dfg as diamond
from tests.reference_scheduler import stepped_schedule_tasks


class TestBasicScheduling:
    def test_parallel_resources(self):
        dfg = diamond()
        tasks = [
            TaskSpec("t1", ("m1",), "M1", 3),
            TaskSpec("t2", ("m2",), "M2", 3),
            TaskSpec("t3", ("a1",), "A", 1),
        ]
        res = schedule_tasks(dfg, tasks)
        assert res.start["t1"] == 0 and res.start["t2"] == 0
        assert res.start["t3"] == 3
        assert res.length == 4

    def test_shared_resource_serializes(self):
        dfg = diamond()
        tasks = [
            TaskSpec("t1", ("m1",), "M", 3),
            TaskSpec("t2", ("m2",), "M", 3),
            TaskSpec("t3", ("a1",), "A", 1),
        ]
        res = schedule_tasks(dfg, tasks)
        starts = sorted([res.start["t1"], res.start["t2"]])
        assert starts == [0, 3]
        assert res.length == 7
        assert res.instance_order["M"] in (["t1", "t2"], ["t2", "t1"])

    def test_no_overlap_on_instance(self):
        dfg = diamond()
        tasks = [
            TaskSpec("t1", ("m1",), "M", 5),
            TaskSpec("t2", ("m2",), "M", 5),
            TaskSpec("t3", ("a1",), "M", 5),
        ]
        res = schedule_tasks(dfg, tasks)
        order = res.instance_order["M"]
        for earlier, later in zip(order, order[1:]):
            assert res.start[later] >= res.finish[earlier]

    def test_critical_branch_prioritized(self):
        """The slow chain should win the shared adder on contention."""
        b = GraphBuilder("t")
        x, y = b.inputs("x", "y")
        slow1 = b.add(x, y, name="slow1")
        slow2 = b.mult(slow1, y, name="slow2")   # long tail
        fast = b.add(x, y, name="fast")          # no tail
        b.output("o1", slow2)
        b.output("o2", fast)
        dfg = b.build()
        tasks = [
            TaskSpec("ts1", ("slow1",), "A", 1),
            TaskSpec("tf", ("fast",), "A", 1),
            TaskSpec("ts2", ("slow2",), "M", 5),
        ]
        res = schedule_tasks(dfg, tasks)
        assert res.start["ts1"] < res.start["tf"]
        # slow1 at 0, slow2 at 1..6, fast fills the gap at cycle 1.
        assert res.length == 6

    def test_instance_free_after_zero_cycles_issues_again(self):
        """Zero-cycle tasks leave their instance free: both multiplies
        and the add that reads them all issue at cycle 0."""
        dfg = diamond()
        tasks = [
            TaskSpec("t1", ("m1",), "Z", 0),
            TaskSpec("t2", ("m2",), "Z", 0),
            TaskSpec("t3", ("a1",), "A", 1),
        ]
        res = schedule_tasks(dfg, tasks)
        assert res.start == {"t1": 0, "t2": 0, "t3": 0}
        assert res.instance_order["Z"] == ["t1", "t2"]
        assert res == stepped_schedule_tasks(dfg, tasks)


class TestProfileSemantics:
    def test_late_input_tolerated(self):
        """A module expecting input 1 late can start before it arrives."""
        b = GraphBuilder("t")
        p, q = b.inputs("p", "q")
        m = b.mult(p, q, name="m")
        h = b.hier("beh", p, m, name="h")
        b.output("o", h)
        dfg = b.build()
        tasks = [
            TaskSpec("tm", ("m",), "M", 3),
            TaskSpec(
                "th", ("h",), "H", 5,
                input_offsets={("h", 1): 3},
                output_latency={("h", 0): 5},
            ),
        ]
        res = schedule_tasks(dfg, tasks)
        assert res.start["th"] == 0
        assert res.length == 5

    def test_example1_arithmetic(self):
        """Example 1: profile {0,0,2,4,(7)} with arrivals (2,5,3,7) starts
        at max(2-0, 5-0, 3-2, 7-4) = 5 and finishes at 12."""
        b = GraphBuilder("t")
        ins = b.inputs("i0", "i1", "i2", "i3")
        h = b.hier("beh", *ins, name="h")
        b.output("o", h)
        dfg = b.build()
        # Feeder tasks emulate the arrival times via PASS-like ops.
        feeders = []
        arrive = {"i0": 2, "i1": 5, "i2": 3, "i3": 7}
        b2 = GraphBuilder("t2")
        ins2 = b2.inputs("i0", "i1", "i2", "i3")
        passed = [b2.neg(w, name=f"p{k}") for k, w in enumerate(ins2)]
        h2 = b2.hier("beh", *passed, name="h")
        b2.output("o", h2)
        dfg2 = b2.build()
        tasks = [
            TaskSpec(f"f{k}", (f"p{k}",), f"P{k}", arrive[f"i{k}"])
            for k in range(4)
        ]
        tasks.append(
            TaskSpec(
                "th", ("h",), "H", 7,
                input_offsets={("h", 0): 0, ("h", 1): 0, ("h", 2): 2, ("h", 3): 4},
                output_latency={("h", 0): 7},
            )
        )
        res = schedule_tasks(dfg2, tasks)
        assert res.start["th"] == 5
        assert res.avail[("h", 0)] == 12


class TestErrors:
    def test_uncovered_operation(self):
        dfg = diamond()
        tasks = [TaskSpec("t1", ("m1",), "M", 3)]
        with pytest.raises(ScheduleError, match="no task"):
            schedule_tasks(dfg, tasks)

    def test_double_coverage(self):
        dfg = diamond()
        tasks = [
            TaskSpec("t1", ("m1",), "M", 3),
            TaskSpec("t2", ("m1", "m2"), "M", 3),
            TaskSpec("t3", ("a1",), "A", 1),
        ]
        with pytest.raises(ScheduleError, match="covered by two"):
            schedule_tasks(dfg, tasks)

    def test_task_on_non_operation(self):
        dfg = diamond()
        tasks = [
            TaskSpec("t1", ("m1",), "M", 3),
            TaskSpec("t2", ("m2",), "M", 3),
            TaskSpec("t3", ("a1", "o"), "A", 1),
        ]
        with pytest.raises(ScheduleError, match="non-operation"):
            schedule_tasks(dfg, tasks)

    def test_max_cycles_exceeded(self):
        """Three 3-cycle tasks serialized on one unit issue at 0, 3, 6."""

        def chain():
            b = GraphBuilder("chain")
            x, y = b.inputs("x", "y")
            n1 = b.mult(x, y, name="n1")
            n2 = b.mult(n1, y, name="n2")
            b.output("o", b.mult(n2, y, name="n3"))
            return b.build()

        tasks = [
            TaskSpec("t1", ("n1",), "M", 3),
            TaskSpec("t2", ("n2",), "M", 3),
            TaskSpec("t3", ("n3",), "M", 3),
        ]
        assert schedule_tasks(chain(), tasks, max_cycles=6).length == 9
        with pytest.raises(
            ScheduleError, match=r"exceeded horizon of 5 cycles \(1 tasks left\)"
        ):
            schedule_tasks(chain(), tasks, max_cycles=5)

    def test_missing_operation_reported_before_double_coverage(self):
        """m1 is covered twice and m2 not at all: the missing one wins."""
        dfg = diamond()
        tasks = [
            TaskSpec("t1", ("m1",), "M", 3),
            TaskSpec("t2", ("m1",), "M", 3),
            TaskSpec("t3", ("a1",), "A", 1),
        ]
        with pytest.raises(ScheduleError, match="'m2' has no task"):
            schedule_tasks(dfg, tasks)

    def test_non_operation_reported_before_double_coverage(self):
        dfg = diamond()
        tasks = [
            TaskSpec("t1", ("m1",), "M", 3),
            TaskSpec("t2", ("m1", "m2"), "M", 3),
            TaskSpec("t3", ("a1", "o"), "A", 1),
        ]
        with pytest.raises(ScheduleError, match="non-operation node 'o'"):
            schedule_tasks(dfg, tasks)

    def test_dependence_cycle_between_multi_node_tasks(self):
        """n1 → n2 → n3 with n1 and n3 in one task: that task both feeds
        and waits for the task holding n2."""
        b = GraphBuilder("loop")
        x, y = b.inputs("x", "y")
        n1 = b.add(x, y, name="n1")
        n2 = b.mult(n1, y, name="n2")
        n3 = b.add(n2, x, name="n3")
        b.output("o", b.sub(n3, n1, name="n4"))
        tasks = [
            TaskSpec("ta", ("n1", "n3"), "A", 1),
            TaskSpec("tb", ("n2", "n4"), "B", 2),
        ]
        with pytest.raises(ScheduleError, match="cycle in task dependence graph"):
            schedule_tasks(b.build(), tasks)


class TestDependencies:
    def test_dependency_map(self):
        dfg = diamond()
        tasks = [
            TaskSpec("t1", ("m1",), "M", 3),
            TaskSpec("t2", ("m2",), "N", 3),
            TaskSpec("t3", ("a1",), "A", 1),
        ]
        deps = task_dependencies(dfg, tasks)
        assert deps["t3"] == {"t1", "t2"}
        assert deps["t1"] == set()


def _fresh(tasks):
    """Equal tasks that have never been scheduled."""
    return [
        TaskSpec(t.task_id, t.nodes, t.instance, t.duration,
                 dict(t.input_offsets), dict(t.output_latency),
                 t.initiation_interval)
        for t in tasks
    ]


def _two_wirings():
    """Two graphs with the same node ids and counts, wired oppositely:
    ``m1 = x * y; a1 = m1 + y`` and ``a1 = x + y; m1 = a1 * y``."""
    graphs = []
    for first, second in (("m1", "a1"), ("a1", "m1")):
        dfg = DFG(f"{first}_first")
        dfg.add_input("x")
        dfg.add_input("y")
        dfg.add_op("m1", Operation.MULT)
        dfg.add_op("a1", Operation.ADD)
        dfg.add_output("o")
        dfg.connect("x", 0, first, 0)
        dfg.connect("y", 0, first, 1)
        dfg.connect(first, 0, second, 0)
        dfg.connect("y", 0, second, 1)
        dfg.connect(second, 0, "o", 0)
        graphs.append(dfg)
    return graphs


class TestCachedWiring:
    """Each task caches what the scheduler reads from the graph; the
    cache must follow the graph it is scheduled on."""

    TASKS = (
        TaskSpec("tm", ("m1",), "M", 3),
        TaskSpec("ta", ("a1",), "A", 1,
                 input_offsets={("a1", 1): 1}, output_latency={("a1", 0): 2}),
    )

    def test_same_tasks_on_differently_wired_graphs(self):
        tasks = _fresh(self.TASKS)
        mult_first, add_first = _two_wirings()
        assert (len(mult_first), mult_first.n_edges) == (
            len(add_first), add_first.n_edges
        )
        for dfg in (mult_first, add_first, mult_first):
            assert schedule_tasks(dfg, tasks) == schedule_tasks(
                dfg, _fresh(self.TASKS)
            )
        assert schedule_tasks(mult_first, tasks).start == {"tm": 0, "ta": 3}
        assert schedule_tasks(add_first, tasks).start == {"ta": 0, "tm": 2}

    def test_graph_that_grew_is_read_again(self):
        dfg = DFG("growing")
        dfg.add_input("x")
        dfg.add_input("y")
        dfg.add_op("m1", Operation.MULT)
        dfg.add_op("a1", Operation.ADD)
        dfg.add_output("o")
        dfg.connect("x", 0, "m1", 0)
        dfg.connect("y", 0, "m1", 1)
        dfg.connect("x", 0, "a1", 0)
        dfg.connect("a1", 0, "o", 0)
        tasks = _fresh(self.TASKS)
        assert schedule_tasks(dfg, tasks).length == 2
        # a1's second operand now comes from m1: a1 waits for it.
        dfg.connect("m1", 0, "a1", 1)
        grown = schedule_tasks(dfg, tasks)
        assert grown == schedule_tasks(dfg, _fresh(self.TASKS))
        assert grown.start["ta"] == 2
        # A new operation without a task is caught, not missed.
        dfg.add_op("n1", Operation.NEG)
        with pytest.raises(ScheduleError, match="'n1' has no task"):
            schedule_tasks(dfg, tasks)

    def test_pickles_without_cached_wiring(self):
        tasks = _fresh(self.TASKS)
        schedule_tasks(_two_wirings()[0], tasks)
        for task, never_scheduled in zip(tasks, _fresh(self.TASKS)):
            blob = pickle.dumps(task)
            assert blob == pickle.dumps(never_scheduled)
            restored = pickle.loads(blob)
            assert restored == task
            assert "_wiring" not in vars(restored)
            assert "_wiring" not in vars(copy.copy(task))

    def test_dependencies_follow_the_graph(self):
        tasks = _fresh(self.TASKS)
        mult_first, add_first = _two_wirings()
        assert task_dependencies(mult_first, tasks) == {"tm": set(), "ta": {"tm"}}
        assert task_dependencies(add_first, tasks) == {"tm": {"ta"}, "ta": set()}
