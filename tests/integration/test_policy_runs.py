"""Integration tests for non-default search policies.

Runs the real engine end to end on a small benchmark under the biased
built-in policies, pins their results and the ``policy`` run_start
trace field, and checks which policy hooks the driver consults.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench_suite import get_benchmark
from repro.search import DefaultPolicy, SearchPolicy, register_policy
from repro.search.policy import _REGISTRY
from repro.synthesis import SynthesisConfig, synthesize

SAMPLING_NS = 400.0
N_SAMPLES = 8


def _config(**overrides) -> SynthesisConfig:
    base = SynthesisConfig(
        max_passes=2,
        max_moves=6,
        max_ab_targets=4,
        max_share_pairs=8,
        max_split_candidates=4,
        n_clocks=2,
        resynth_passes=1,
        resynth_moves=4,
    )
    return dataclasses.replace(base, **overrides)


#: (area, power, Vdd, clock, evaluations) of each biased policy on
#: paulin under ``_config()``.
PINNED = {
    "deep": (1274.6, 0.41333246972424775, 2.4, 16.538, 918),
    "greedy": (1165.6, 0.3831904355556584, 2.4, 16.538, 1062),
}


class TestPolicyRuns:
    @pytest.mark.parametrize("policy", ["deep", "greedy"])
    def test_biased_policies_produce_feasible_results(self, policy):
        result = synthesize(
            get_benchmark("paulin"),
            sampling_ns=SAMPLING_NS,
            objective="power",
            config=_config(search_policy=policy),
            n_samples=N_SAMPLES,
        )
        assert result.metrics.objective_value(result.objective) > 0
        assert result.solution.schedule().length \
            <= result.solution.deadline_cycles
        assert (result.area, result.power, result.vdd, result.clk_ns,
                result.telemetry.evaluations) \
            == pytest.approx(PINNED[policy], rel=1e-9)

    def test_run_start_carries_nondefault_policy_name(self):
        result = synthesize(
            get_benchmark("paulin"),
            sampling_ns=SAMPLING_NS,
            objective="power",
            config=_config(search_policy="greedy", trace=True,
                           trace_timings=False),
            n_samples=N_SAMPLES,
        )
        run_start = result.trace_events[0]
        assert run_start["k"] == "run_start"
        assert run_start["policy"] == "greedy"

    def test_default_policy_trace_has_no_policy_field(self):
        result = synthesize(
            get_benchmark("paulin"),
            sampling_ns=SAMPLING_NS,
            objective="power",
            config=_config(trace=True, trace_timings=False),
            n_samples=N_SAMPLES,
        )
        assert "policy" not in result.trace_events[0]

    def test_driver_consults_every_hook(self):
        """The driver calls every hook ``SearchPolicy`` declares, and a
        default policy that only watches the calls changes nothing."""
        hooks = tuple(
            name for name, value in vars(SearchPolicy).items()
            if callable(value) and not name.startswith("_")
        )
        assert "stop_step" in hooks
        called: set[str] = set()

        def watch(name):
            def hook(self, *args):
                called.add(name)
                return getattr(DefaultPolicy, name)(self, *args)
            return hook

        register_policy("test-watching")(
            type("WatchingPolicy", (DefaultPolicy,),
                 {name: watch(name) for name in hooks})
        )
        try:
            watched = synthesize(
                get_benchmark("paulin"),
                sampling_ns=SAMPLING_NS,
                objective="power",
                config=_config(search_policy="test-watching"),
                n_samples=N_SAMPLES,
            )
        finally:
            del _REGISTRY["test-watching"]
        default = synthesize(
            get_benchmark("paulin"),
            sampling_ns=SAMPLING_NS,
            objective="power",
            config=_config(),
            n_samples=N_SAMPLES,
        )
        assert called == set(hooks)
        assert (watched.area, watched.power, watched.vdd, watched.clk_ns) \
            == (default.area, default.power, default.vdd, default.clk_ns)
