"""Unit tests for the top-level synthesize()/voltage_scale() API."""

import pytest

from repro.errors import SynthesisError
from tests.designs import sim_for
from repro.synthesis import (
    SynthesisConfig,
    synthesize,
    synthesize_flat,
    voltage_scale,
)


QUICK = SynthesisConfig(max_moves=5, max_passes=2, n_clocks=1)


@pytest.fixture
def results(flat_design):
    area = synthesize(flat_design, laxity_factor=2.0, objective="area", config=QUICK)
    power = synthesize(flat_design, laxity_factor=2.0, objective="power", config=QUICK)
    return area, power


class TestSynthesize:
    def test_constraint_argument_validation(self, flat_design):
        with pytest.raises(SynthesisError, match="exactly one"):
            synthesize(flat_design, objective="area", config=QUICK)
        with pytest.raises(SynthesisError, match="exactly one"):
            synthesize(
                flat_design, sampling_ns=100.0, laxity_factor=2.0, config=QUICK
            )

    def test_results_feasible(self, results):
        for result in results:
            assert result.metrics.feasible
            sched = result.solution.schedule()
            assert sched.length * result.clk_ns <= result.sampling_ns + 1e-6

    def test_objectives_ordered(self, results):
        area_opt, power_opt = results
        assert area_opt.area <= power_opt.area + 1e-9
        assert power_opt.power <= area_opt.power + 1e-9

    def test_area_mode_stays_at_5v(self, results):
        area_opt, _ = results
        assert area_opt.vdd == 5.0

    def test_impossible_throughput_raises(self, flat_design):
        with pytest.raises(SynthesisError, match="unachievable"):
            synthesize(flat_design, sampling_ns=1.0, objective="area", config=QUICK)

    def test_netlist_and_controller_available(self, results):
        area_opt, _ = results
        netlist = area_opt.netlist()
        fsm = area_opt.controller()
        assert netlist.components()
        assert fsm.n_states >= 1

    def test_history_populated(self, results):
        area_opt, _ = results
        assert area_opt.history
        assert all(isinstance(k, tuple) for k in area_opt.history)


class TestSynthesizeFlat:
    def test_hier_design_flattened(self, butterfly_design):
        result = synthesize_flat(
            butterfly_design, laxity_factor=2.0, objective="area", config=QUICK
        )
        assert result.flattened
        assert result.design.top.hier_nodes() == []
        assert result.metrics.feasible

    def test_hier_vs_flat_both_work(self, butterfly_design):
        hier = synthesize(
            butterfly_design, laxity_factor=2.0, objective="area", config=QUICK
        )
        flat = synthesize_flat(
            butterfly_design, laxity_factor=2.0, objective="area", config=QUICK
        )
        assert hier.metrics.feasible and flat.metrics.feasible


class TestVoltageScale:
    def test_scaling_never_increases_power(self, results):
        area_opt, _ = results
        scaled = voltage_scale(area_opt)
        assert scaled.power <= area_opt.power + 1e-9
        assert scaled.vdd <= area_opt.vdd

    def test_scaled_design_still_meets_throughput(self, results):
        area_opt, _ = results
        scaled = voltage_scale(area_opt, continuous=True)
        length = scaled.solution.schedule().length
        assert length * scaled.clk_ns <= scaled.sampling_ns + 1e-6

    def test_continuous_at_least_as_good_as_discrete(self, results):
        area_opt, _ = results
        discrete = voltage_scale(area_opt)
        continuous = voltage_scale(area_opt, continuous=True)
        assert continuous.power <= discrete.power + 1e-9

    def test_architecture_unchanged(self, results):
        area_opt, _ = results
        scaled = voltage_scale(area_opt, continuous=True)
        assert scaled.area == pytest.approx(area_opt.area)
        assert scaled.solution.schedule().length == (
            area_opt.solution.schedule().length
        )

    def test_candidates_deduplicated(self, results):
        """Regression: a continuous candidate landing on a discrete
        library voltage used to be evaluated twice."""
        from repro.synthesis.api import _scale_candidates

        area_opt, _ = results
        candidates = _scale_candidates(area_opt, (3.3, 3.3, 2.4), True)
        assert len(candidates) == len(set(candidates))
        for a, b in [(a, b) for a in candidates for b in candidates if a is not b]:
            assert abs(a - b) >= 1e-9
        assert all(v < area_opt.vdd for v in candidates)

    def test_scaling_time_accounted(self, results):
        """Regression: the time spent scaling used to vanish — the scaled
        result reported only the original synthesis elapsed_s."""
        area_opt, _ = results
        scaled = voltage_scale(area_opt, continuous=True)
        if scaled is not area_opt:  # scaling won: elapsed must grow
            assert scaled.elapsed_s > area_opt.elapsed_s

    def test_no_improvement_returns_original(self, results):
        _, power_opt = results
        scaled = voltage_scale(power_opt, voltages=(power_opt.vdd,))
        assert scaled is power_opt

    def test_telemetry_carried_through(self, results):
        area_opt, _ = results
        scaled = voltage_scale(area_opt, continuous=True)
        assert scaled.telemetry is area_opt.telemetry


class TestTelemetryOnResult:
    def test_counters_populated(self, results):
        area_opt, _ = results
        t = area_opt.telemetry
        assert t.evaluations > 0
        assert t.evaluations == t.cache_hits + t.cache_misses
        assert t.points_explored >= 1
        assert sum(t.moves_tried.values()) > 0
        assert set(t.stage_s) >= {"simulate", "initial", "improve", "sweep"}
        assert all(s >= 0.0 for s in t.stage_s.values())

    def test_committed_subset_of_tried(self, results):
        area_opt, _ = results
        t = area_opt.telemetry
        for family, n in t.moves_committed.items():
            assert n <= t.moves_tried.get(family, 0)


class TestPointOutcomes:
    """An untraced sweep with a persistent store memoizes each
    operating point's outcome under one content key."""

    @staticmethod
    def _env(design, library, tmp_path, objective="power", **knobs):
        from repro.synthesis.context import SynthesisEnv

        fields = {"max_moves": 5, "max_passes": 2, "n_clocks": 1, **knobs}
        config = SynthesisConfig(cache_dir=str(tmp_path), **fields)
        return SynthesisEnv(design, library, objective, config)

    def test_key_names_what_shapes_the_outcome(
        self, flat_design, flat_sim, library, tmp_path
    ):
        from repro.synthesis.api import _point_content

        def key(objective="power", sim=flat_sim, point=(400.0, 5.0, 10.0),
                **knobs):
            env = self._env(flat_design, library, tmp_path, objective,
                            **knobs)
            try:
                return _point_content(env, sim, *point)
            finally:
                env.store.close()

        base = key()
        # Execution knobs leave the key alone.
        assert key(n_workers=2) == base
        others = [
            key(objective="area"),
            key(max_moves=6),
            key(point=(400.0, 3.3, 10.0)),
            key(point=(400.0, 5.0, 12.0)),
            key(point=(500.0, 5.0, 10.0)),
            key(sim=sim_for(flat_design, n=12)),
        ]
        assert len({base, *others}) == 1 + len(others)

    def test_skipped_point_is_stored_and_served(
        self, flat_design, flat_sim, library, tmp_path
    ):
        """A point whose initial schedule is hopeless stores ``None``,
        and a later run counts it skipped without an initial solution."""
        from repro.synthesis import api

        # A 1 ns clock gives a far too short budget at this period.
        sampling_ns, points = 8.0, [(5.0, 1.0)]
        cold = self._env(flat_design, library, tmp_path)
        [outcome] = api._sweep_points(cold, flat_sim, sampling_ns, points)
        cold.store.close()
        assert outcome.solution is None
        assert cold.telemetry.points_skipped == 1

        warm = self._env(flat_design, library, tmp_path)
        [outcome] = api._sweep_points(warm, flat_sim, sampling_ns, points)
        warm.store.close()
        assert (outcome.solution, outcome.metrics, outcome.history) == (
            None, None, []
        )
        assert warm.telemetry.points_skipped == 1
        assert warm.telemetry.store_hits == {"persistent.point": 1}
        assert warm.telemetry.stage_s.get("initial", 0.0) == 0.0
