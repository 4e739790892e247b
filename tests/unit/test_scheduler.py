"""Unit tests for the profile-aware list scheduler."""

import pytest

from repro.dfg import GraphBuilder
from repro.errors import ScheduleError
from repro.scheduling import TaskSpec, schedule_tasks, task_dependencies

from tests.designs import diamond_dfg as diamond


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
