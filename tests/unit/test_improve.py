"""Unit tests for variable-depth iterative improvement."""

from types import SimpleNamespace

import pytest

from repro.synthesis import EvaluationContext, improve, improve_solution
from repro.synthesis.context import SynthesisConfig, SynthesisEnv
from repro.synthesis.improve import PassRecord, ScoredMove
from repro.synthesis.initial import initial_solution


@pytest.fixture
def setup(flat_design, library, flat_sim):
    config = SynthesisConfig(max_moves=6, max_passes=3)
    env = SynthesisEnv(flat_design, library, "area", config)
    sol = initial_solution(env, flat_design.top, flat_sim, 10.0, 5.0, 500.0)
    return env, sol, flat_sim


class TestImprovement:
    def test_never_worse_than_initial(self, setup):
        env, sol, sim = setup
        ctx = env.context(sim)
        before = ctx.cost(sol)
        improved = improve_solution(env, sol, sim)
        assert ctx.cost(improved) <= before

    def test_area_mode_shares_resources(self, setup):
        env, sol, sim = setup
        improved = improve_solution(env, sol, sim)
        # The fully parallel start has one instance per op and one
        # register per signal; area optimization must consolidate.
        assert (
            len(improved.instances) < len(sol.instances)
            or len(improved.reg_signals) < len(sol.reg_signals)
            or env.context(sim).evaluate(improved).area
            < env.context(sim).evaluate(sol).area
        )

    def test_result_feasible_and_consistent(self, setup):
        env, sol, sim = setup
        improved = improve_solution(env, sol, sim)
        improved.check_invariants()
        assert improved.is_feasible()

    def test_history_recorded(self, setup):
        env, sol, sim = setup
        history: list[PassRecord] = []
        improve_solution(env, sol, sim, history=history)
        assert history
        for record in history:
            assert len(record.moves) == len(record.costs)
            assert 0 <= record.committed_prefix <= len(record.moves)

    def test_committed_prefix_is_best(self, setup):
        env, sol, sim = setup
        history: list[PassRecord] = []
        improve_solution(env, sol, sim, history=history)
        for record in history:
            if record.committed_prefix:
                best = min(record.costs)
                assert record.costs[record.committed_prefix - 1] == best

    def test_negative_gain_moves_allowed_in_pass(self, setup):
        """KL signature: inside a pass, costs may go up before down."""
        env, sol, sim = setup
        history: list[PassRecord] = []
        improve_solution(env, sol, sim, history=history)
        diffs = []
        for record in history:
            prev = None
            for cost in record.costs:
                if prev is not None:
                    diffs.append(cost - prev)
                prev = cost
        # We cannot force a specific trajectory, but the machinery must
        # at least have recorded multi-move passes.
        assert diffs

    def test_pass_and_move_limits_respected(self, flat_design, library, flat_sim):
        config = SynthesisConfig(max_moves=2, max_passes=1)
        env = SynthesisEnv(flat_design, library, "area", config)
        sol = initial_solution(env, flat_design.top, flat_sim, 10.0, 5.0, 500.0)
        history: list[PassRecord] = []
        improve_solution(env, sol, flat_sim, history=history)
        assert len(history) <= 1
        assert all(len(r.moves) <= 2 for r in history)


    def test_every_priced_set_is_pruned(self, setup, monkeypatch):
        """Each family's candidates pass through ``prune_candidates``
        before ``_best`` prices them: every list ``_best`` receives is
        one the pruner returned."""
        env, sol, sim = setup
        pruned, priced = [], []
        prune, best = improve.prune_candidates, improve._best

        def pruner(env, work, cands):
            out = prune(env, work, cands)
            pruned.append(out)
            return out

        def pricer(ctx, candidates, base=None):
            priced.append(candidates)
            return best(ctx, candidates, base=base)

        monkeypatch.setattr(improve, "prune_candidates", pruner)
        monkeypatch.setattr(improve, "_best", pricer)
        improve_solution(env, sol, sim)
        assert priced
        assert all(any(c is p for p in pruned) for c in priced)
        assert env.telemetry.as_dict()["moves_pruned"]


class TestInfeasibleRescue:
    def test_rescue_via_moves(self, flat_design, library, flat_sim):
        """An initial solution slightly over budget is repaired if a
        faster/restructured binding exists."""
        env = SynthesisEnv(flat_design, library, "power", SynthesisConfig())
        # Deadline of 4 cycles: mult1 (3) + add1 (1) = 4 fits, but only
        # just; make it 3 so the initial misses, then widen via clock...
        sol = initial_solution(env, flat_design.top, flat_sim, 10.0, 5.0, 40.0)
        assert sol.is_feasible()  # 4 cycles in 40 ns at 10 ns clock
        tight = initial_solution(env, flat_design.top, flat_sim, 10.0, 5.0, 30.0)
        if not tight.is_feasible():
            improved = improve_solution(env, tight, flat_sim)
            # mult1+add1 cannot beat 4 cycles; rescue legitimately fails,
            # but the engine must not crash and must not claim success.
            assert not improved.is_feasible() or improved.schedule().length <= 3


class TestFamilyOrder:
    """The paper's family order: type A/B, then sharing; splitting only
    when no sharing move has non-negative gain, and the split winner
    takes the sharing slot, losing exact ties to type A/B."""

    _KINDS = {"ab": "A-cell", "share": "C-share-fu", "split": "D-split-fu"}

    @pytest.mark.parametrize(
        "ab, share, split, splits, chosen",
        [
            (3.0, -1.0, -2.0, False, "share"),  # sharing gains
            (3.0, 0.0, -2.0, False, "share"),  # zero gain is non-negative
            (3.0, None, -0.5, True, "split"),  # no sharing move at all
            (3.0, 1.0, 0.5, True, "split"),  # split beats a losing share
            (3.0, 0.5, 1.0, True, "share"),  # ...but not a cheaper one
            (3.0, 1.0, 1.0, True, "share"),  # ...nor an equal one
            (0.5, 1.0, 0.5, True, "ab"),  # a split ties A/B: A/B wins
            (-1.0, -1.0, None, False, "ab"),  # sharing ties A/B: A/B wins
            (None, None, None, True, None),  # nothing to apply
        ],
    )
    def test_one_step(self, setup, monkeypatch, ab, share, split, splits,
                      chosen):
        """One scripted step: each family yields one candidate (or none)
        whose cost is the start cost plus the given offset."""
        env, sol, sim = setup
        start = env.context(sim).cost(sol)
        offsets = {"ab": ab, "share": share, "split": split}
        discovered: list[str] = []

        def generator(family):
            def discover(env, work, sim, locked, view=None):
                discovered.append(family)
                if offsets[family] is None:
                    return []
                return [SimpleNamespace(
                    kind=self._KINDS[family], is_materialized=True,
                    solution=work,
                    touched=frozenset({family}), description=family,
                )]
            return discover

        def best(ctx, candidates, base=None):
            if not candidates:
                return None
            family = candidates[0].description
            return ScoredMove(candidates[0], start + offsets[family])

        for family in offsets:
            monkeypatch.setitem(improve._DISCOVER, family, generator(family))
        monkeypatch.setattr(improve, "_best", best)
        history: list[PassRecord] = []
        improve_solution(env, sol, sim, max_passes=1, max_moves=1,
                         history=history)
        expected = ["ab", "share"] + (["split"] if splits else [])
        assert discovered == expected
        # A pass that applies no move records no history.
        assert [r.moves for r in history] == ([[chosen]] if chosen else [])
