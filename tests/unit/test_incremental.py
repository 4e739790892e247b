"""Unit tests for incremental (delta) cost evaluation.

The contract under test is *bit-identity*: pricing a candidate by delta
against the current solution's per-term breakdown must produce exactly
the Metrics a from-scratch evaluation produces — same floats, not
approximately equal floats.
"""

import math

import pytest

from repro.bench_suite import get_benchmark
from repro.errors import SynthesisError
from repro.library import default_library
from repro.power import simulate_subgraph, speech_traces
from repro.synthesis.caching import HashedKey, LRUCache
from repro.synthesis.context import SynthesisConfig, SynthesisEnv
from repro.synthesis.costs import EvaluationContext
from repro.synthesis.improve import _best, improve_solution
from repro.synthesis.incremental import evaluate_solution
from repro.synthesis.initial import initial_solution
from repro.synthesis.moves import (
    candidate_order_key,
    sharing_candidates,
    splitting_candidates,
    type_a_b_candidates,
)
from tests.designs import sim_for
from tests.unit.test_moves import adder_chain_design


@pytest.fixture
def setup(flat_design, library, flat_sim):
    env = SynthesisEnv(flat_design, library, "power", SynthesisConfig())
    sol = initial_solution(env, flat_design.top, flat_sim, 10.0, 5.0, 500.0)
    return env, sol, flat_sim


@pytest.fixture
def hier_setup(mixed_design, mixed_library, mixed_sim):
    env = SynthesisEnv(mixed_design, mixed_library, "power", SynthesisConfig())
    sol = initial_solution(env, mixed_design.top, mixed_sim, 10.0, 5.0, 2000.0)
    return env, sol, mixed_sim


def _all_candidates(env, sol, sim):
    out = []
    out += type_a_b_candidates(env, sol, sim, frozenset())
    out += sharing_candidates(env, sol, sim, frozenset())
    out += splitting_candidates(env, sol, sim, frozenset())
    return out


def _module_candidates(env, sol, sim):
    """Every candidate of *sol* and of its first RTL embedding, whose
    merged instance runs two behaviors and so offers an ``A-remerge``."""
    out = _all_candidates(env, sol, sim)
    embed = next(c for c in out if c.kind == "C-embed")
    return out + _all_candidates(env, embed.solution, sim)


class TestHashedKey:
    def test_equal_values_equal_keys(self):
        assert HashedKey((1, "a")) == HashedKey((1, "a"))
        assert hash(HashedKey((1, "a"))) == hash(HashedKey((1, "a")))

    def test_different_values_differ(self):
        assert HashedKey((1, "a")) != HashedKey((1, "b"))

    def test_usable_as_dict_key(self):
        d = {HashedKey((1, 2)): "x"}
        assert d[HashedKey((1, 2))] == "x"


class TestLRUPeek:
    def test_peek_does_not_count_or_refresh(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        assert cache.peek("missing") is None
        assert cache.hits == 0 and cache.misses == 0
        # "a" was NOT refreshed by peek, so it is still the LRU entry.
        cache.put("c", 3)
        assert "a" not in cache and "b" in cache


class TestFingerprintMemo:
    def test_key_cached_until_mutation(self, setup):
        _env, sol, _sim = setup
        k1 = sol.fingerprint_key()
        assert sol.fingerprint_key() is k1
        epoch = sol.epoch
        sol.invalidate()
        assert sol.epoch == epoch + 1
        k2 = sol.fingerprint_key()
        assert k2 is not k1
        assert k2 == k1  # structure unchanged, only the memo was dropped

    def test_clone_does_not_share_memo(self, setup):
        _env, sol, _sim = setup
        sol.fingerprint_key()
        clone = sol.clone()
        assert clone.fingerprint_key() == sol.fingerprint_key()


class TestDeltaBitIdentity:
    def test_every_candidate_prices_identically(self, setup):
        env, sol, sim = setup
        ctx = env.context(sim)
        _m, base, _r, _t = evaluate_solution(ctx, sol, None)
        candidates = _all_candidates(env, sol, sim)
        assert candidates
        for cand in candidates:
            delta = evaluate_solution(ctx, cand.solution, base)
            full = evaluate_solution(ctx, cand.solution, None)
            assert delta[0] == full[0], cand.description

    def test_local_moves_reuse_terms(self, setup):
        env, sol, sim = setup
        ctx = env.context(sim)
        _m, base, _r, _t = evaluate_solution(ctx, sol, None)
        candidates = _all_candidates(env, sol, sim)
        assert candidates
        reuse = 0
        for cand in candidates:
            _m, _b, reused, terms = evaluate_solution(ctx, cand.solution, base)
            assert 0 <= reused <= terms
            reuse += reused
        assert reuse > 0  # the delta engine earns its keep on local moves

    def test_cell_swap_reuses_touched_activity(self, setup, library):
        env, sol, sim = setup
        ctx = env.context(sim)
        _m, base, _r, _t = evaluate_solution(ctx, sol, None)
        # A cell swap keeps the instance's operand streams, so even the
        # touched instance's *activity* is reused — only the energy
        # arithmetic is replayed with the new cell.
        cands = [
            c
            for c in type_a_b_candidates(env, sol, sim, frozenset())
            if c.kind == "A-cell"
        ]
        assert cands
        cand = cands[0]
        (inst_id,) = cand.touched
        _m, after, reused, terms = evaluate_solution(ctx, cand.solution, base)
        if after.fu[inst_id][0] == base.fu[inst_id][0]:
            assert after.fu[inst_id][1] == base.fu[inst_id][1]

    def test_sharing_changes_touched_keys(self, setup):
        env, sol, sim = setup
        ctx = env.context(sim)
        _m, base, _r, _t = evaluate_solution(ctx, sol, None)
        # Merging two units interleaves their operand streams: the
        # surviving instance's activity key must change.
        cands = [
            c
            for c in sharing_candidates(env, sol, sim, frozenset())
            if c.kind == "C-share-fu"
        ]
        if not cands:
            pytest.skip("flat design offers no FU sharing here")
        cand = cands[0]
        _m, after, _r, _t = evaluate_solution(ctx, cand.solution, base)
        changed = [
            i for i in cand.touched
            if i in base.fu and i in after.fu
            and after.fu[i][0] != base.fu[i][0]
        ]
        assert changed


class TestIdentityReuse:
    """Unchanged resources carry their base entries over as objects."""

    @pytest.mark.parametrize("fixture", ["setup", "hier_setup"])
    def test_cell_swap_carries_untouched_entries(self, fixture, request):
        env, sol, sim = request.getfixturevalue(fixture)
        ctx = env.context(sim)
        _m, base, _r, _t = evaluate_solution(ctx, sol, None)
        swaps = [
            c
            for c in type_a_b_candidates(env, sol, sim, frozenset())
            if c.kind == "A-cell"
        ]
        assert swaps
        carried = 0
        for cand in swaps:
            (touched,) = cand.touched
            _m, after, _r, _t = evaluate_solution(ctx, cand.solution, base)
            for kind in ("fu", "module"):
                entries = getattr(after, kind)
                base_entries = getattr(base, kind)
                for inst_id, entry in entries.items():
                    if inst_id != touched:
                        assert entry is base_entries[inst_id], inst_id
                        carried += 1
            same_length = (
                cand.solution.schedule().length == sol.schedule().length
            )
            for reg_id, signals in cand.solution.reg_signals.items():
                if len(signals) != 1:
                    continue
                entry, prior = after.reg[reg_id], base.reg[reg_id]
                if same_length:
                    assert entry is prior, reg_id
                else:
                    # Only the idle clocking is replayed: the activity
                    # and write energy are the base's floats.
                    assert entry[1] is prior[1] and entry[4] is prior[4]
                carried += 1
        assert carried

    def test_reordered_instance_is_rekeyed(self):
        """A share can reorder the executions of an instance whose block
        it leaves alone; that entry must not be carried over."""
        design = get_benchmark("paulin")
        traces = speech_traces(design.top, n=24, seed=1)
        sim = simulate_subgraph(
            design, design.top, [traces[n] for n in design.top.inputs]
        )
        env = SynthesisEnv(
            design,
            default_library(),
            "area",
            SynthesisConfig(max_passes=2, max_moves=8),
        )
        sol = initial_solution(env, design.top, sim, 10.0, 5.0, 2000.0)
        sol = improve_solution(env, sol, sim)
        ctx = env.context(sim)
        _m, base, _r, _t = evaluate_solution(ctx, sol, None)
        rekeyed = 0
        for cand in _all_candidates(env, sol, sim):
            delta, after, _r, _t = evaluate_solution(ctx, cand.solution, base)
            order = cand.solution.schedule().instance_order
            for inst_id, entry in after.fu.items():
                prior = base.fu.get(inst_id)
                if prior is None or entry[2] is not prior[2]:
                    continue
                if order[inst_id] == prior[3]:
                    assert entry is prior
                    continue
                # Same block, new serialization order.
                full, full_bd, _r, _t = evaluate_solution(
                    ctx, cand.solution, None
                )
                assert entry is not prior
                assert entry[0] == full_bd.fu[inst_id][0] != prior[0]
                assert entry[1] == full_bd.fu[inst_id][1]
                assert delta == full, cand.description
                rekeyed += 1
        assert rekeyed


class TestFallbackTriggers:
    def test_other_operating_point_discards_base(self, setup):
        env, sol, sim = setup
        ctx = env.context(sim)
        _m, base, _r, _t = evaluate_solution(ctx, sol, None)
        other = sol.clone()
        other.vdd = 3.3
        _m, _b, reused, _t = evaluate_solution(ctx, other, base)
        assert reused == 0  # header mismatch: nothing may be reused

    def test_schedule_length_enters_arithmetic_not_keys(self, setup):
        env, sol, sim = setup
        ctx = env.context(sim)
        m1, base, _r, _t = evaluate_solution(ctx, sol, None)
        slower = sol.clone()
        slower.clk_ns = sol.clk_ns * 2
        slower.invalidate()
        if slower.schedule().length == sol.schedule().length:
            pytest.skip("clock change did not move the schedule length")
        m2, b2, _r, _t = evaluate_solution(ctx, slower, None)
        # Write activities do not depend on the schedule length, so the
        # keys stay equal — the idle-clocking arithmetic is what gets
        # replayed (register energy must move with the length).
        for reg_id in base.reg:
            assert b2.reg[reg_id][0] == base.reg[reg_id][0]
        assert m2.report.register_energy != m1.report.register_energy


#: Every move kind discovery emits.
ALL_KINDS = frozenset({
    "A-cell", "A-module", "A-remerge", "B-resynth",
    "C-share-fu", "C-share-reg", "C-share-module", "C-embed",
    "C-chain", "C-chain3",
    "D-split-fu", "D-split-reg", "D-unchain",
})


class TestEveryKindByDelta:
    def test_every_move_kind_prices_against_the_base(self, setup, hier_setup):
        """``_best`` offers the current breakdown to every candidate,
        whatever its kind, and the delta price equals the from-scratch
        price bit for bit.

        The candidates come from the flat, adder-chain and mixed-module
        solutions and from each solution one move of every kind away,
        which is where splits, chain extensions, unchains and re-merges
        arise.
        """
        design = adder_chain_design()
        chain_sim = sim_for(design)
        chain_env = SynthesisEnv(
            design, default_library(), "power", SynthesisConfig()
        )
        chain_setup = (
            chain_env,
            initial_solution(
                chain_env, design.top, chain_sim, 10.0, 5.0, 400.0
            ),
            chain_sim,
        )
        priced = set()
        for env, sol, sim in (setup, chain_setup, hier_setup):
            first: dict = {}
            for cand in _all_candidates(env, sol, sim):
                first.setdefault(cand.kind, cand)
            for parent in [sol] + [c.solution for c in first.values()]:
                ctx = EvaluationContext(
                    sim, (), env.objective, validate_incremental=True
                )
                ctx.evaluate(parent)
                base = ctx.breakdown_of(parent)
                cands = _all_candidates(env, parent, sim)
                _best(ctx, cands, base=base)
                # Only the parent itself is priced without a base.
                assert ctx.telemetry.full_evals == 1
                for cand in cands:
                    delta = evaluate_solution(ctx, cand.solution, base)[0]
                    full = evaluate_solution(ctx, cand.solution, None)[0]
                    assert delta == full, cand.description
                    priced.add(cand.kind)
        assert priced >= ALL_KINDS, sorted(ALL_KINDS - priced)


class TestEvaluateTelemetry:
    def test_miss_classification(self, setup):
        env, sol, sim = setup
        ctx = env.context(sim)
        tel = ctx.telemetry
        ctx.evaluate(sol)
        assert tel.full_evals == 1 and tel.delta_hits == 0
        base = ctx.breakdown_of(sol)
        assert base is not None
        cands = [
            c
            for c in type_a_b_candidates(env, sol, sim, frozenset())
            if c.kind == "A-cell"
        ]
        assert cands
        ctx.evaluate(cands[0].solution, base=base)
        assert tel.delta_hits == 1
        assert tel.delta_hit_rate == pytest.approx(0.5)

    def test_module_swaps_price_by_delta(self, hier_setup):
        env, sol, sim = hier_setup
        ctx = env.context(sim)
        tel = ctx.telemetry
        ctx.evaluate(sol)
        base = ctx.breakdown_of(sol)
        swaps = [
            c for c in _all_candidates(env, sol, sim) if c.kind == "A-module"
        ]
        assert swaps
        best = _best(ctx, swaps, base=base)
        assert best is not None
        assert tel.full_evals == 1  # only the base solution
        assert tel.delta_hits == tel.cache_misses - 1
        full = evaluate_solution(ctx, best.candidate.solution, None)[0]
        assert ctx.evaluate(best.candidate.solution) == full

    def test_cache_hit_skips_classification(self, setup):
        env, sol, sim = setup
        ctx = env.context(sim)
        tel = ctx.telemetry
        ctx.evaluate(sol)
        ctx.evaluate(sol)
        assert tel.cache_hits == 1
        assert tel.full_evals == 1  # the hit is not re-classified


class TestValidateMode:
    def test_tampered_base_raises(self, setup, flat_sim):
        env, sol, sim = setup
        ctx = EvaluationContext(
            flat_sim, (), "power", validate_incremental=True
        )
        _m, base, _r, _t = evaluate_solution(ctx, sol, None)
        # Corrupt one reusable term's stored float, keeping its key: the
        # delta path now mis-prices, and validation must catch it.
        cands = [
            c
            for c in type_a_b_candidates(env, sol, sim, frozenset())
            if c.kind == "A-cell"
        ]
        assert cands
        (touched,) = cands[0].touched
        victim = next(i for i in base.fu if i != touched)
        # The victim is one identity reuse carries over whole: corrupting
        # it must still be caught.
        _m, after, _r, _t = evaluate_solution(ctx, cands[0].solution, base)
        assert after.fu[victim] is base.fu[victim]
        key, activity, block, order, sig, energy = base.fu[victim]
        base.fu[victim] = (key, activity + 1.0, block, order, sig, energy + 1.0)
        with pytest.raises(SynthesisError, match="diverged"):
            ctx.evaluate(cands[0].solution, base=base)

    def test_clean_base_passes(self, setup, flat_sim):
        env, sol, sim = setup
        ctx = EvaluationContext(
            flat_sim, (), "power", validate_incremental=True
        )
        ctx.evaluate(sol)
        base = ctx.breakdown_of(sol)
        for cand in _all_candidates(env, sol, sim):
            ctx.evaluate(cand.solution, base=base)


class TestTiebreak:
    def test_order_independent_tiebreak(self, setup, flat_sim):
        env, sol, sim = setup
        candidates = _all_candidates(env, sol, sim)

        def winner(cands):
            ctx = EvaluationContext(flat_sim, (), "power")
            best = _best(ctx, cands)
            return best.candidate.description

        assert winner(candidates) == winner(list(reversed(candidates)))


class TestBatchedPricing:
    """``_best``'s batch pre-pass is bit-identical to pricing each
    candidate alone."""

    def _price_all(self, flat_sim, sol, candidates, batch, validate=False):
        """Price *candidates* against *sol*'s breakdown, through
        ``_best`` (whose pre-pass batch-prices sets of two or more) or,
        with ``batch=False``, one at a time through ``ctx.evaluate``,
        which runs no pre-pass, picking the winner by ``_best``'s rule.
        """
        from repro.power import reset_activity_caches

        reset_activity_caches()
        ctx = EvaluationContext(
            flat_sim, (), "power", validate_incremental=validate
        )
        ctx.evaluate(sol)
        base = ctx.breakdown_of(sol)
        if batch:
            scored = _best(ctx, candidates, base=base)
            best = (scored.candidate.description, scored.cost_after)
        else:
            best_key = best = None
            for cand in candidates:
                ctx.telemetry.count_move_tried(cand.kind)
                cost = ctx.cost(cand.solution, base=base)
                key = (cost,) + candidate_order_key(cand)
                if not math.isinf(cost) and (best_key is None or key < best_key):
                    best_key, best = key, (cand.description, cost)
        metrics = [ctx.evaluate(c.solution, base=base) for c in candidates]
        return best, metrics, ctx.telemetry

    def test_batch_off_vs_on_bitwise(self, setup, flat_sim):
        env, sol, sim = setup
        candidates = _all_candidates(env, sol, sim)
        assert len(candidates) > 2
        off_best, off_metrics, _ = self._price_all(
            flat_sim, sol, candidates, batch=False
        )
        on_best, on_metrics, _ = self._price_all(
            flat_sim, sol, candidates, batch=True
        )
        assert off_best == on_best
        for off, on in zip(off_metrics, on_metrics):
            assert (off.area, off.power, off.energy_per_sample) == (
                on.area,
                on.power,
                on.energy_per_sample,
            )

    def test_batch_keeps_accounting_serial(self, setup, flat_sim):
        """evaluate_batch stashes speculative results; the serial pass
        must still report the telemetry of one-at-a-time pricing."""
        env, sol, sim = setup
        candidates = _all_candidates(env, sol, sim)
        _, _, tel_off = self._price_all(flat_sim, sol, candidates, batch=False)
        _, _, tel_on = self._price_all(flat_sim, sol, candidates, batch=True)
        assert tel_off.as_dict() == tel_on.as_dict()

    @pytest.mark.parametrize("n", [1, 2, None], ids=["one", "two", "all"])
    def test_best_batches_sets_of_two_or_more(
        self, setup, flat_sim, monkeypatch, n
    ):
        """``_best`` pre-prices a set of two or more candidates in one
        ``evaluate_batch`` call carrying every candidate against the
        base, and prices a lone candidate without one."""
        env, sol, sim = setup
        candidates = _all_candidates(env, sol, sim)[:n]
        ctx = EvaluationContext(flat_sim, (), "power")
        ctx.evaluate(sol)
        base = ctx.breakdown_of(sol)
        calls = []
        batch = ctx.evaluate_batch

        def spy(work):
            calls.append(work)
            batch(work)

        monkeypatch.setattr(ctx, "evaluate_batch", spy)
        assert _best(ctx, candidates, base=base) is not None
        if len(candidates) == 1:
            assert calls == []
        else:
            [work] = calls
            assert len(work) == len(candidates)
            for (solution, work_base), cand in zip(work, candidates):
                assert solution is cand.solution and work_base is base

    def test_batch_under_validate_mode(self, setup, flat_sim):
        """The validate_incremental cross-check re-prices every batched
        delta from scratch and must find zero divergence."""
        env, sol, sim = setup
        candidates = _all_candidates(env, sol, sim)
        best, _, _ = self._price_all(
            flat_sim, sol, candidates, batch=True, validate=True
        )
        assert best is not None

    def test_cache_reset_mid_sweep_is_bit_identical(self, setup, flat_sim):
        """Dropping the activity memos between sweeps must not change a
        single float: the caches are pure memoization."""
        from repro.power import reset_activity_caches
        from repro.synthesis.incremental import _reset_energy_memos

        env, sol, sim = setup
        candidates = _all_candidates(env, sol, sim)
        _, warm, _ = self._price_all(flat_sim, sol, candidates, batch=True)
        reset_activity_caches()
        _reset_energy_memos()
        _, cold, _ = self._price_all(flat_sim, sol, candidates, batch=True)
        for w, c in zip(warm, cold):
            assert (w.area, w.power, w.energy_per_sample) == (
                c.area,
                c.power,
                c.energy_per_sample,
            )
