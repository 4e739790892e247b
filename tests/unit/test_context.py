"""Unit tests for the synthesis environment and behavior aliasing."""

import pytest

from repro.rtl import DatapathNetlist, Profile, RTLModule
from repro.synthesis import SynthesisConfig, SynthesisEnv, ensure_behavior
from repro.synthesis.costs import DEFAULT_COST_CACHE_SIZE
from repro.synthesis.store import (
    MODULE_CACHE_SIZE,
    RUN_CACHE_SIZE,
    SCHEDULE_CACHE_SIZE,
)
from repro.trace.recorder import MAX_EVENTS


def make_module(behavior: str) -> RTLModule:
    return RTLModule(
        name=f"mod_{behavior}",
        behavior=behavior,
        profile=Profile((0.0, 0.0), (20.0,)),
        cap_internal=2.0,
        netlist=DatapathNetlist("n"),
    )


class TestEnsureBehavior:
    def test_direct_support(self, library):
        module = make_module("fir")
        assert ensure_behavior(module, "fir", library)

    def test_no_equivalence_fails(self, library):
        module = make_module("fir")
        assert not ensure_behavior(module, "iir", library)

    def test_equivalence_aliases_impl(self, library):
        module = make_module("dot_chain")
        library.equivalences.declare_equivalent("dot_chain", "dot_tree")
        assert ensure_behavior(module, "dot_tree", library)
        assert module.supports("dot_tree")
        assert module.cap_internal("dot_tree") == module.cap_internal("dot_chain")


class TestEnv:
    def test_fresh_module_names_unique(self, flat_design, library):
        env = SynthesisEnv(flat_design, library, "power")
        names = {env.fresh_module_name("beh") for _ in range(5)}
        assert len(names) == 5

    def test_config_defaults(self, flat_design, library):
        env = SynthesisEnv(flat_design, library, "power")
        assert env.config.max_moves == SynthesisConfig().max_moves

    def test_context_objective(self, flat_design, library, flat_sim):
        env = SynthesisEnv(flat_design, library, "area")
        assert env.context(flat_sim).objective == "area"

    def test_context_shared_per_sim(self, flat_design, library, flat_sim):
        """One EvaluationContext per SimTrace, so the cost cache persists
        across the many context() calls within one operating point."""
        env = SynthesisEnv(flat_design, library, "power")
        assert env.context(flat_sim) is env.context(flat_sim)

    def test_caches_declared_and_bounded(self, flat_design, library):
        """Regression: the memo caches used to be bootstrapped lazily via
        getattr and could grow without bound."""
        env = SynthesisEnv(flat_design, library, "power")
        for cache in (env.module_cache, env._resynth_cache):
            for i in range(MODULE_CACHE_SIZE + 10):
                cache.put(("beh", float(i), 5.0), None)
            assert len(cache) == MODULE_CACHE_SIZE
        assert env._resynth_active is False
        assert env._module_counter == 0

    @pytest.mark.parametrize(
        "ns, bound",
        [("schedule", SCHEDULE_CACHE_SIZE), ("metrics", 0), ("point", 0)],
    )
    def test_store_point_tiers_bounded(self, flat_design, library, ns, bound):
        """The schedule memo keeps one entry per priced candidate; a
        corner's metrics and a point's outcome are each looked up once,
        so their point tiers keep nothing."""
        store = SynthesisEnv(flat_design, library, "power").store
        for i in range(bound + 10):
            store.put(ns, i, (ns, i), i)
        assert len(store.point_tier(ns)) == bound
        evicted = store.counters()["evictions"].get(f"point.{ns}", 0)
        assert evicted == (10 if bound else 0)

    def test_store_run_tier_bounded(self, flat_design, library):
        store = SynthesisEnv(flat_design, library, "power").store
        for i in range(RUN_CACHE_SIZE + 10):
            store.put("resynth", i, ("resynth", i), i)
        assert store.counters()["evictions"]["run.resynth"] == 10

    def test_cost_caches_bounded(self, flat_design, library, flat_sim):
        ctx = SynthesisEnv(flat_design, library, "power").context(flat_sim)
        assert ctx._cost_cache.maxsize == DEFAULT_COST_CACHE_SIZE
        assert ctx._breakdowns.maxsize == DEFAULT_COST_CACHE_SIZE

    def test_trace_buffer_bounded(self, flat_design, library):
        config = SynthesisConfig(trace=True, trace_timings=False)
        recorder = SynthesisEnv(flat_design, library, "power", config).trace
        assert recorder.max_events == MAX_EVENTS
        assert recorder.timings is False


class TestResetPointCaches:
    def test_reset_clears_per_point_state(self, flat_design, library, flat_sim):
        env = SynthesisEnv(flat_design, library, "power")
        env.module_cache.put(("beh", 10.0, 5.0), None)
        env._resynth_cache.put(("mod", "n", 2, 10.0, 5.0), None)
        env._resynth_active = True
        env.fresh_module_name("beh")
        env.context(flat_sim)

        env.reset_point_caches()

        assert len(env.module_cache) == 0
        assert len(env._resynth_cache) == 0
        assert env._resynth_active is False
        assert env._contexts == {}
        # Generated names restart, exactly as in a fresh worker env —
        # this is what makes serial and parallel sweeps bit-identical.
        assert env.fresh_module_name("beh") == "beh_v1"

    def test_reset_preserves_cumulative_telemetry(self, flat_design, library):
        env = SynthesisEnv(flat_design, library, "power")
        env.telemetry.evaluations = 7
        env.reset_point_caches()
        assert env.telemetry.evaluations == 7
