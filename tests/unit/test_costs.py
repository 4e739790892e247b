"""Unit tests for the cost function (area + trace-driven power)."""

import math

import pytest

from repro.dfg import GraphBuilder, Operation
from repro.dfg.canonical import graph_signature
from repro.synthesis import EvaluationContext, Solution, area_of
from repro.synthesis.context import SynthesisEnv
from repro.synthesis.costs import schedule_digest
from repro.synthesis.initial import initial_solution
from repro.synthesis.store import digest_content


@pytest.fixture
def env(flat_design, library):
    return SynthesisEnv(flat_design, library, "power")


@pytest.fixture
def solution(env, flat_design, flat_sim):
    return initial_solution(env, flat_design.top, flat_sim, 10.0, 5.0, 500.0)


@pytest.fixture
def ctx(flat_sim):
    return EvaluationContext(flat_sim, (), "power")


class TestEvaluate:
    def test_metrics_positive(self, ctx, solution):
        m = ctx.evaluate(solution)
        assert m.area > 0
        assert m.power > 0
        assert m.energy_per_sample > 0
        assert m.feasible

    def test_area_covers_datapath_plus_controller(self, ctx, solution):
        m = ctx.evaluate(solution)
        datapath = area_of(solution)
        assert m.area > datapath  # controller estimate included
        assert m.area < datapath * 1.5

    def test_power_decreases_with_vdd(self, ctx, solution):
        high = ctx.evaluate(solution).power
        low_sol = solution.clone()
        low_sol.vdd = 3.3
        low_sol.clk_ns = solution.clk_ns * 2.0  # keep cycle counts safe
        low = ctx.evaluate(low_sol).power
        assert low < high

    def test_smaller_cell_smaller_area(self, ctx, solution, library):
        base = ctx.evaluate(solution).area
        clone = solution.clone()
        clone.set_cell(clone.instance_of("m1"), library.cell("mult2"))
        assert ctx.evaluate(clone).area < base

    def test_infeasible_when_deadline_tight(self, ctx, solution):
        tight = solution.clone()
        tight.sampling_ns = 10.0  # one cycle: impossible
        m = ctx.evaluate(tight)
        assert not m.feasible
        assert m.violation > 0


class TestCostCache:
    def test_reevaluation_hits_cache(self, ctx, solution):
        first = ctx.evaluate(solution)
        second = ctx.evaluate(solution.clone())
        assert second is first  # served from the cache, not recomputed
        assert ctx.telemetry.evaluations == 2
        assert ctx.telemetry.cache_hits == 1
        assert ctx.telemetry.cache_misses == 1

    def test_mutated_clone_misses(self, ctx, solution, library):
        ctx.evaluate(solution)
        clone = solution.clone()
        clone.set_cell(clone.instance_of("m1"), library.cell("mult2"))
        ctx.evaluate(clone)
        assert ctx.telemetry.cache_hits == 0
        assert ctx.telemetry.cache_misses == 2

    def test_different_operating_point_misses(self, ctx, solution):
        base = ctx.evaluate(solution)
        clone = solution.clone()
        clone.vdd = 3.3
        clone.clk_ns = solution.clk_ns * 2.0
        other = ctx.evaluate(clone)
        assert other is not base
        assert ctx.telemetry.cache_hits == 0

    def test_zero_cache_size_disables_memoization(self, flat_sim, solution):
        ctx = EvaluationContext(flat_sim, (), "power", cache_size=0)
        first = ctx.evaluate(solution)
        second = ctx.evaluate(solution.clone())
        assert second is not first
        assert ctx.telemetry.cache_misses == 2
        assert second.power == first.power  # still deterministic

    def test_pricing_never_assembles_the_netlist(
        self, ctx, solution, library, monkeypatch
    ):
        """Pricing reads area, fan-ins, connection count, mux legs and
        widths from the netlist blocks: neither ``evaluate`` nor
        ``evaluate_batch`` assembles a component map or connection set."""
        from repro.synthesis.datapath_build import BlockNetlist

        def refuse(self):
            raise AssertionError("netlist assembled while pricing")

        monkeypatch.setattr(BlockNetlist, "_assemble", refuse)
        ctx.evaluate(solution)
        base = ctx.breakdown_of(solution)

        shared = solution.clone()
        a, s = shared.instance_of("a1"), shared.instance_of("s1")
        shared.set_cell(a, library.cell("alu1"))
        shared.merge_instances(a, s)
        regs = solution.clone()
        keep, absorb = list(regs.reg_signals)[:2]
        regs.merge_registers(keep, absorb)
        swapped = solution.clone()
        swapped.set_cell(swapped.instance_of("m1"), library.cell("mult2"))
        batched = [shared, regs]
        ctx.evaluate_batch([(c, base) for c in batched])
        for candidate in batched + [swapped]:
            ctx.evaluate(candidate, base)

        assert ctx.telemetry.cache_misses == 4
        assert shared._netlist.instance_blocks[a].multi  # a shared unit has muxes


class TestObjectiveValue:
    def test_infeasible_cost_is_huge_but_ordered(self, ctx, solution):
        bad1 = solution.clone()
        bad1.sampling_ns = solution.schedule().length * 10.0 - 10.0  # barely miss
        bad2 = solution.clone()
        bad2.sampling_ns = 20.0  # miss badly
        c1 = ctx.cost(bad1)
        c2 = ctx.cost(bad2)
        good = ctx.cost(solution)
        assert good < 1e6 < c1 < c2
        assert not math.isinf(c2)

    def test_objective_selects_metric(self, flat_sim, solution):
        area_ctx = EvaluationContext(flat_sim, (), "area")
        power_ctx = EvaluationContext(flat_sim, (), "power")
        m = area_ctx.evaluate(solution)
        # Costs equal the primary metric up to the tiny tiebreak term.
        assert area_ctx.cost(solution) == pytest.approx(m.area, abs=1e-3 * m.area + 1e-3)
        assert power_ctx.cost(solution) == pytest.approx(m.power, abs=1e-5 * m.area)


class TestSharingEffects:
    def test_register_sharing_shrinks_area(self, ctx, solution):
        base = ctx.evaluate(solution).area
        clone = solution.clone()
        r_m = clone.register_of(("m1", 0))
        r_a = clone.register_of(("a1", 0))
        clone.merge_registers(r_m, r_a)
        m = ctx.evaluate(clone)
        assert m.feasible
        assert m.area < base

    def test_fu_sharing_shrinks_area(self, ctx, solution, library):
        base = ctx.evaluate(solution).area
        clone = solution.clone()
        a = clone.instance_of("a1")
        clone.set_cell(a, library.cell("alu1"))
        clone.merge_instances(a, clone.instance_of("s1"))
        m = ctx.evaluate(clone)
        assert m.feasible
        assert m.area < base


class TestScheduleDigest:
    """The schedule store address is composed from per-block texts; it
    must equal the digest of the full content key, whose task tuple
    ``repr`` writes as ``()`` empty and ``(row,)`` with one row."""

    @staticmethod
    def _adder_chain(library, n_ops: int) -> Solution:
        b = GraphBuilder("chain")
        x, y = b.inputs("x", "y")
        wire = x
        for k in range(n_ops):
            wire = b.add(wire, y, name=f"a{k}")
        b.output("o", wire)
        solution = Solution(b.build(), library, 10.0, 5.0, 500.0)
        cell = library.fastest_cell(Operation.ADD)
        solution.add_instance(cell=cell)  # idle: a block with no rows
        units = [solution.add_instance(cell=cell).inst_id for _ in range(2)]
        for k in range(n_ops):
            solution.bind_execution(units[k % 2], (f"a{k}",))
        return solution

    @pytest.mark.parametrize("n_ops", [0, 1, 2, 3])
    def test_matches_full_content_digest(self, library, n_ops):
        solution = self._adder_chain(library, n_ops)
        rows = solution.task_signature()
        assert len(rows) == n_ops
        content = ("schedule", graph_signature(solution.dfg), rows)
        assert schedule_digest(solution) == digest_content(content)
