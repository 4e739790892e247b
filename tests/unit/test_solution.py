"""Unit tests for the synthesis solution representation."""

import copyreg
import io
import pickle

import pytest

from repro.dfg import Operation
from repro.errors import SynthesisError
from repro.synthesis import Solution, build_netlist
from repro.synthesis.context import SynthesisEnv
from repro.synthesis.initial import initial_solution
from repro.synthesis.moves import _min_schedule_length

from tests.reference_netlist import eager_build_netlist


@pytest.fixture
def env(flat_design, library):
    return SynthesisEnv(flat_design, library, "power")


@pytest.fixture
def solution(env, flat_design, flat_sim):
    return initial_solution(env, flat_design.top, flat_sim, 10.0, 5.0, 500.0)


class TestConstruction:
    def test_instance_needs_cell_or_module(self, flat_dfg, library):
        sol = Solution(flat_dfg, library, 10.0, 5.0, 500.0)
        with pytest.raises(SynthesisError, match="exactly one"):
            sol.add_instance()

    def test_duplicate_register(self, solution):
        reg = next(iter(solution.reg_signals))
        with pytest.raises(SynthesisError, match="duplicate register"):
            solution.add_register([("x", 0)], reg_id=reg)

    def test_fresh_ids_unique(self, solution):
        ids = {solution.fresh_id("q") for _ in range(10)}
        assert len(ids) == 10


class TestBindingQueries:
    def test_instance_of(self, solution):
        inst = solution.instance_of("m1")
        assert solution.instances[inst].cell.supports(Operation.MULT)

    def test_instance_of_unbound(self, solution):
        with pytest.raises(SynthesisError, match="not bound"):
            solution.instance_of("ghost")

    def test_register_of(self, solution):
        reg = solution.register_of(("m1", 0))
        assert ("m1", 0) in solution.reg_signals[reg]

    def test_registered_signals_exclude_consts(self, flat_design, library, env, flat_sim):
        sol = initial_solution(env, flat_design.top, flat_sim, 10.0, 5.0, 500.0)
        for signal in sol.registered_signals():
            node = flat_design.top.node(signal[0])
            assert node.kind.value != "const"


class TestMutations:
    def test_set_cell_invalidates_schedule(self, solution, library):
        len_before = solution.schedule().length
        m_inst = solution.instance_of("m1")
        solution.set_cell(m_inst, library.cell("mult2"))
        assert solution.schedule().length > len_before

    def test_merge_instances(self, solution):
        a = solution.instance_of("a1")
        s = solution.instance_of("s1")
        # Both are ALU-compatible only if the cell supports both ops; use
        # the add instance with an alu cell first.
        solution.set_cell(a, solution.library.cell("alu1"))
        solution.merge_instances(a, s)
        assert solution.instance_of("s1") == a
        assert s not in solution.instances
        solution.check_invariants()

    def test_merge_with_self_rejected(self, solution):
        a = solution.instance_of("a1")
        with pytest.raises(SynthesisError, match="itself"):
            solution.merge_instances(a, a)

    def test_remove_busy_instance_rejected(self, solution):
        a = solution.instance_of("a1")
        with pytest.raises(SynthesisError, match="still has executions"):
            solution.remove_instance(a)

    def test_split_instance(self, solution):
        a = solution.instance_of("a1")
        s = solution.instance_of("s1")
        solution.set_cell(a, solution.library.cell("alu1"))
        solution.merge_instances(a, s)
        twin = solution.split_instance(a, [("s1",)])
        assert solution.instance_of("s1") == twin
        solution.check_invariants()

    def test_split_requires_both_sides(self, solution):
        a = solution.instance_of("a1")
        with pytest.raises(SynthesisError, match="both"):
            solution.split_instance(a, [("a1",)])

    def test_register_merge_split(self, solution):
        regs = list(solution.reg_signals)
        keep, absorb = regs[0], regs[1]
        moved = list(solution.reg_signals[absorb])
        solution.merge_registers(keep, absorb)
        assert absorb not in solution.reg_signals
        twin = solution.split_register(keep, moved)
        assert solution.reg_signals[twin] == moved
        solution.check_invariants()


class TestInvariants:
    def test_initial_solution_clean(self, solution):
        solution.check_invariants()

    def test_unbound_operation_detected(self, solution):
        inst = solution.instance_of("s1")
        solution.executions[inst] = []
        with pytest.raises(SynthesisError, match="unbound"):
            solution.check_invariants()

    def test_wrong_cell_detected(self, solution, library):
        inst = solution.instance_of("m1")
        solution.instances[inst] = type(solution.instances[inst])(
            inst, cell=library.cell("add1")
        )
        with pytest.raises(SynthesisError, match="cannot run"):
            solution.check_invariants()

    def test_double_register_binding_detected(self, solution):
        regs = list(solution.reg_signals)
        sig = solution.reg_signals[regs[0]][0]
        solution.reg_signals[regs[1]].append(sig)
        with pytest.raises(SynthesisError, match="two registers"):
            solution.check_invariants()


class TestLifetimesAndFeasibility:
    def test_lifetime_ordering(self, solution):
        birth, death = solution.signal_lifetime(("m1", 0))
        assert 0 <= birth <= death

    def test_output_signal_lives_to_end(self, solution):
        sched = solution.schedule()
        _birth, death = solution.signal_lifetime(("a1", 0))
        # Held until the end of the iteration (with the one-cycle floor).
        assert death >= sched.length

    def test_conflicting_register_detected(self, solution):
        # z is held until the adder reads it (cycle 3); x is alive at
        # cycle 0 too, so one register cannot hold both.
        r_z = solution.register_of(("z", 0))
        r_x = solution.register_of(("x", 0))
        solution.merge_registers(r_z, r_x)
        assert r_z in solution.register_conflicts()
        assert not solution.is_feasible()

    def test_feasible_initial(self, solution):
        assert solution.schedule_feasible()
        assert solution.is_feasible()

    def test_deadline_cycles(self, solution):
        assert solution.deadline_cycles == 50


class TestClone:
    def test_clone_independent(self, solution):
        clone = solution.clone()
        inst = clone.instance_of("a1")
        clone.set_cell(inst, clone.library.cell("add2"))
        orig_inst = solution.instance_of("a1")
        assert solution.instances[orig_inst].cell.name == "add1"

    def test_clone_equal_schedule(self, solution):
        clone = solution.clone()
        assert clone.schedule().length == solution.schedule().length


def _legacy_blob(solution, task_index) -> bytes:
    """*solution* pickled as releases before task blocks did: the default
    reduction of its ``__dict__``, with no ``_blocks`` and the given task
    index (those releases never reset the index on ``invalidate``)."""

    class LegacyPickler(pickle.Pickler):
        def reducer_override(self, obj):
            if obj is not solution:
                return NotImplemented
            state = {k: v for k, v in obj.__dict__.items() if k != "_blocks"}
            state["_task_index"] = task_index
            return copyreg.__newobj__, (Solution,), state

    buf = io.BytesIO()
    LegacyPickler(buf, pickle.HIGHEST_PROTOCOL).dump(solution)
    return buf.getvalue()


def _timing(solution) -> tuple:
    return (
        solution.tasks(),
        solution.task_signature(),
        [solution.task(t.task_id) for t in solution.tasks()],
        _min_schedule_length(solution),
        solution.schedule().length,
    )


def _parent_format_blob(solution) -> bytes:
    """*solution* pickled as the release before netlist blocks did: its
    ``__dict__`` without the task caches, and no ``_netlist``."""

    class ParentPickler(pickle.Pickler):
        def reducer_override(self, obj):
            if obj is not solution:
                return NotImplemented
            dropped = ("_tasks", "_task_index", "_blocks", "_netlist")
            state = {k: v for k, v in obj.__dict__.items() if k not in dropped}
            return copyreg.__newobj__, (Solution,), state

    buf = io.BytesIO()
    ParentPickler(buf, pickle.HIGHEST_PROTOCOL).dump(solution)
    return buf.getvalue()


def _assert_reference_netlist(solution) -> None:
    got = build_netlist(solution)
    want = eager_build_netlist(solution)
    assert got.area(solution.library) == want.area(solution.library)
    assert got.components() == want.components()
    assert got.connections() == want.connections()


class TestPickle:
    def test_task_caches_are_not_pickled(self, solution, library):
        solution.tasks()
        build_netlist(solution)
        solution.set_cell(solution.instance_of("m1"), library.cell("mult2"))
        state = solution.__getstate__()
        assert not {"_tasks", "_task_index", "_blocks", "_netlist"} & set(state)
        loaded = pickle.loads(pickle.dumps(solution))
        assert _timing(loaded) == _timing(solution)
        assert loaded._netlist is None

    def test_solution_pickled_before_netlist_blocks(self, solution, library):
        """A store's solution from the release before netlist blocks loads,
        clones, takes a move and builds the reference netlist."""
        build_netlist(solution)
        loaded = pickle.loads(_parent_format_blob(solution))
        assert loaded._netlist is None
        _assert_reference_netlist(loaded)

        clone = loaded.clone()
        a, s = clone.instance_of("a1"), clone.instance_of("s1")
        clone.set_cell(a, library.cell("alu1"))
        clone.merge_instances(a, s)
        regs = list(clone.reg_signals)
        clone.merge_registers(regs[0], regs[1])
        _assert_reference_netlist(clone)
        assert build_netlist(clone).mux_legs() >= 1

    @pytest.mark.parametrize("cached", ["tasks", "none", "stale"])
    def test_solution_pickled_before_task_blocks(self, solution, library, cached):
        """An older store's module solution loads, clones and re-derives
        its timing; neither a missing ``_blocks`` nor a leftover task
        index leaks into the result."""
        index = {t.task_id: t for t in solution.tasks()}
        m1 = solution.instance_of("m1")
        if cached == "none":
            solution.invalidate()
            index = {}
        elif cached == "stale":
            solution.set_cell(m1, library.cell("mult2"))
            stale = index[f"{m1}#0"]
            fresh = solution.clone().task(stale.task_id)
            assert stale.duration != fresh.duration
            assert solution._tasks is None
        loaded = pickle.loads(_legacy_blob(solution, index))
        assert _timing(loaded) == _timing(solution)

        clone = loaded.clone()
        expected = solution.clone()
        for sol in (clone, expected):
            sol.set_cell(sol.instance_of("a1"), library.cell("add2"))
        assert _timing(clone) == _timing(expected)
        assert _timing(loaded.clone()) == _timing(solution)


class TestFingerprint:
    def test_stable_across_calls(self, solution):
        assert solution.fingerprint() is solution.fingerprint()

    def test_clone_has_equal_fingerprint(self, solution):
        assert solution.clone().fingerprint() == solution.fingerprint()

    def test_mutation_changes_fingerprint(self, solution, library):
        before = solution.fingerprint()
        solution.set_cell(solution.instance_of("m1"), library.cell("mult2"))
        assert solution.fingerprint() != before

    def test_register_binding_in_fingerprint(self, solution):
        before = solution.fingerprint()
        regs = list(solution.reg_signals)
        solution.merge_registers(regs[0], regs[1])
        assert solution.fingerprint() != before

    def test_operating_point_in_fingerprint(self, solution):
        clone = solution.clone()
        clone.vdd = 3.3  # fresh clone: fingerprint not yet computed
        assert clone.fingerprint() != solution.fingerprint()

    def test_clone_does_not_inherit_cached_fingerprint(self, solution):
        solution.fingerprint()
        clone = solution.clone()
        clone.clk_ns = solution.clk_ns * 2
        assert clone.fingerprint() != solution.fingerprint()
