"""Unit tests for module characterization and module merging."""

import pytest

from repro.synthesis import characterize_module, merge_modules
from repro.synthesis.context import SynthesisEnv
from repro.synthesis.initial import initial_solution
from repro.synthesis.modulegen import ModuleInternal


@pytest.fixture
def sub_solution(butterfly_design, library):
    """A synthesized butterfly sub-solution plus its stimulus."""
    import numpy as np

    from repro.power import simulate_subgraph

    sub = butterfly_design.dfg("butterfly")
    rng = np.random.default_rng(0)
    streams = [rng.integers(-1000, 1000, 32) for _ in sub.inputs]
    sim = simulate_subgraph(butterfly_design, sub, streams)
    env = SynthesisEnv(butterfly_design, library, "power")
    sol = initial_solution(env, sub, sim, 10.0, 5.0, 200.0)
    return sol, sim


class TestCharacterize:
    def test_basic_properties(self, sub_solution):
        sol, sim = sub_solution
        module = characterize_module("bf_mod", "butterfly", sol, sim, ())
        assert module.behavior == "butterfly"
        assert module.resynthesizable
        assert isinstance(module.internal, ModuleInternal)
        assert module.cap_internal() > 0

    def test_profile_ports_match_dfg(self, sub_solution):
        sol, sim = sub_solution
        module = characterize_module("bf_mod", "butterfly", sol, sim, ())
        profile = module.profile()
        assert len(profile.input_offsets_ns) == len(sol.dfg.inputs)
        assert len(profile.output_latencies_ns) == len(sol.dfg.outputs)

    def test_profile_reproduces_schedule(self, sub_solution):
        """Quantizing the characterized profile at the characterization
        operating point returns the schedule's cycle counts."""
        sol, sim = sub_solution
        module = characterize_module("bf_mod", "butterfly", sol, sim, ())
        cp = module.profile().at(sol.clk_ns, sol.vdd)
        sched = sol.schedule()
        for port, out_id in enumerate(sol.dfg.outputs):
            (edge,) = sol.dfg.in_edges(out_id)
            assert cp.output_latencies[port] == max(sched.avail[edge.signal], 1)

    def test_netlist_retained(self, sub_solution):
        sol, sim = sub_solution
        module = characterize_module("bf_mod", "butterfly", sol, sim, ())
        assert module.netlist.components()
        assert module.area(sol.library) > 0


class TestMergeModules:
    def test_union_of_behaviors(self, sub_solution, butterfly_design, library):
        sol, sim = sub_solution
        m1 = characterize_module("bf1", "butterfly", sol, sim, ())
        m2 = characterize_module("bf2", "other_beh", sol, sim, ())
        merged = merge_modules(m1, m2)
        assert merged.supports("butterfly")
        assert merged.supports("other_beh")
        assert not merged.resynthesizable
        # A constituent that is itself a merge keeps all its behaviors,
        # each with its own profile: module discovery relies on this and
        # checks nothing after a merge.  The third module is
        # characterized at another clock, so its profile differs.
        env = SynthesisEnv(butterfly_design, library, "power")
        slow = initial_solution(env, sol.dfg, sim, 20.0, 5.0, 400.0)
        m3 = characterize_module("bf3", "third_beh", slow, sim, ())
        assert m3.profile() != m1.profile()
        for triple in (merge_modules(merged, m3), merge_modules(m3, merged)):
            assert sorted(triple.behaviors()) == [
                "butterfly", "other_beh", "third_beh"
            ]
            for source in (m1, m2, m3):
                (behavior,) = source.behaviors()
                assert triple.profile(behavior) == source.profile(behavior)

    def test_profiles_preserved(self, sub_solution):
        sol, sim = sub_solution
        m1 = characterize_module("bf1", "butterfly", sol, sim, ())
        m2 = characterize_module("bf2", "other_beh", sol, sim, ())
        merged = merge_modules(m1, m2)
        assert merged.profile("butterfly").output_latencies_ns == (
            m1.profile("butterfly").output_latencies_ns
        )

    def test_merge_area_bounded(self, sub_solution, library):
        sol, sim = sub_solution
        m1 = characterize_module("bf1", "butterfly", sol, sim, ())
        m2 = characterize_module("bf2", "other_beh", sol, sim, ())
        merged = merge_modules(m1, m2)
        # Identical structure: the overlay should cost (almost) nothing
        # beyond one copy.
        assert merged.area(library) <= m1.area(library) + m2.area(library)
        assert merged.area(library) < 1.2 * max(
            m1.area(library), m2.area(library)
        )

    def test_cap_overhead_applied(self, sub_solution):
        sol, sim = sub_solution
        m1 = characterize_module("bf1", "butterfly", sol, sim, ())
        m2 = characterize_module("bf2", "other_beh", sol, sim, ())
        merged = merge_modules(m1, m2)
        assert merged.cap_internal("butterfly") > m1.cap_internal("butterfly")
