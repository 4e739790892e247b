"""End-to-end pipeline tests: design → synthesis → netlist + FSM."""

import pytest

from repro.bench_suite import get_benchmark
from repro.rtl import ComponentKind, emit_controller, emit_netlist
from repro.synthesis import SynthesisConfig, synthesize

QUICK = SynthesisConfig(max_moves=6, max_passes=2, n_clocks=1)


@pytest.fixture(scope="module")
def result():
    design = get_benchmark("test1")
    return synthesize(design, laxity_factor=2.2, objective="area", config=QUICK)


class TestPipeline:
    def test_solution_consistent(self, result):
        result.solution.check_invariants()
        assert result.metrics.feasible

    def test_throughput_met(self, result):
        length = result.solution.schedule().length
        assert length * result.clk_ns <= result.sampling_ns + 1e-6

    def test_netlist_emission(self, result):
        netlist = result.netlist()
        text = emit_netlist(netlist)
        assert text.startswith("module")
        assert text.rstrip().endswith("endmodule")
        # Every non-port component is instantiated in the text.
        for comp in netlist.components():
            if comp.kind != ComponentKind.PORT:
                assert comp.comp_id in text

    def test_controller_emission(self, result):
        fsm = result.controller()
        text = emit_controller(fsm)
        assert f"states {fsm.n_states}" in text
        assert fsm.n_states == max(result.solution.schedule().length, 1)

    def test_every_module_instance_has_behavior_profile(self, result):
        for inst in result.solution.instances.values():
            if not inst.is_module:
                continue
            for group in result.solution.executions[inst.inst_id]:
                (node_id,) = group
                behavior = result.solution.dfg.node(node_id).behavior
                assert inst.module.supports(behavior)


class TestAllBenchmarksSynthesize:
    @pytest.mark.parametrize("name", ["paulin", "lat", "test1"])
    def test_benchmark_synthesizes(self, name):
        design = get_benchmark(name)
        result = synthesize(
            design, laxity_factor=2.5, objective="area", config=QUICK
        )
        assert result.metrics.feasible
        result.solution.check_invariants()


class TestModuleDiscovery:
    def test_every_embedding_is_discovered(self):
        """Hierarchical dct, as ``repro synth`` runs it with the quick
        config: module sharing stops at its budget, so each RTL
        embedding it makes is a discovered ``C-embed`` candidate."""
        from repro.library import default_library
        from repro.reporting.sweep import quick_config
        from repro.synthesis.library_gen import build_complex_library

        design = get_benchmark("dct")
        config = quick_config()
        library = build_complex_library(design, default_library(), config=config)
        result = synthesize(
            design, library, laxity_factor=2.2, objective="power", config=config
        )
        telemetry = result.telemetry
        assert telemetry.moves_discovered["C-embed"] > 0
        assert (
            telemetry.moves_embedded["C-embed"]
            == telemetry.moves_discovered["C-embed"]
        )
