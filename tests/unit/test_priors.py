"""Unit tests for trace-mined move priors (repro.search.priors).

Covers the slack-regime classifier, the statistics table and its wire
format, mining from synthetic events and from the checked-in v1/v3
sample traces (the shared reader makes old schemas mine identically),
store persistence with the cross-design aggregate fallback, and the
priors-guided policy's two levers (family order, candidate dropping).
"""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.search.priors import (
    AGGREGATE_FINGERPRINT,
    KindStats,
    PriorsPolicy,
    PriorsTable,
    load_priors,
    mine_events,
    save_priors,
    slack_regime,
)
from repro.synthesis.store import SynthesisStore

DATA = Path(__file__).parent.parent / "data" / "traces"


class TestSlackRegime:
    def test_boundaries(self):
        assert slack_regime(10, 10) == "tight"      # ratio 1.0
        assert slack_regime(23, 20) == "medium"     # exactly 1.15
        assert slack_regime(12, 10) == "medium"     # ratio 1.2
        assert slack_regime(16, 10) == "loose"      # exactly 1.6
        assert slack_regime(40, 10) == "loose"

    def test_zero_schedule_does_not_divide_by_zero(self):
        assert slack_regime(5, 0) == "loose"


class TestPriorsTable:
    def test_record_tracks_commitment_separately(self):
        table = PriorsTable()
        table.record("medium", "A-cell", 2.0, committed=True)
        table.record("medium", "A-cell", -1.0, committed=False)
        entry = table.stats[("medium", "A-cell")]
        assert entry == KindStats(chosen=2, committed=1, gain=1.0,
                                  committed_gain=2.0)
        assert entry.score == pytest.approx(1.0)

    def test_merge_accumulates(self):
        a = PriorsTable(n_runs=1)
        a.record("tight", "A-cell", 1.0, committed=True)
        b = PriorsTable(n_runs=2)
        b.record("tight", "A-cell", 3.0, committed=True)
        b.record("loose", "C-share-fu", 0.5, committed=False)
        a.merge(b)
        assert a.n_runs == 3
        assert a.stats[("tight", "A-cell")].chosen == 2
        assert a.stats[("tight", "A-cell")].committed_gain == 4.0
        assert ("loose", "C-share-fu") in a.stats

    def test_wire_roundtrip(self):
        table = PriorsTable(n_runs=4)
        table.record("medium", "C-share-reg", 1.5, committed=True)
        table.record("tight", "D-split-fu", -0.5, committed=False)
        restored = PriorsTable.from_dict(table.as_dict())
        assert restored.n_runs == 4
        assert restored.stats == table.stats

    def test_from_dict_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            PriorsTable.from_dict({"format": 99, "stats": {}})

    def test_family_score_aggregates_kind_prefixes(self):
        table = PriorsTable()
        table.record("medium", "C-share-fu", 2.0, committed=True)
        table.record("medium", "C-share-reg", 1.0, committed=True)
        table.record("medium", "A-cell", 4.0, committed=True)
        assert table.family_score("medium", "C") == pytest.approx(1.5)
        assert table.family_score("medium", "A") == pytest.approx(4.0)
        assert table.family_score("tight", "C") == 0.0


def _synthetic_trace():
    """Two points (tight and loose), one pass each, partial commits."""
    return [
        {"k": "run_start", "schema": 3, "design": "t", "objective": "power",
         "sampling_ns": 100.0, "flattened": False, "n_points": 2,
         "config": {}},
        {"k": "init", "point": 0, "cycles": 10, "budget": 10},
        {"k": "step", "point": 0, "pass": 0, "step": 0, "kind": "A-cell",
         "gain": 2.0},
        {"k": "step", "point": 0, "pass": 0, "step": 1, "kind": "C-share-fu",
         "gain": -1.0},
        {"k": "pass_end", "point": 0, "pass": 0, "steps": 2, "committed": 1,
         "cost": 1.0},
        {"k": "init", "point": 1, "cycles": 10, "budget": 20},
        {"k": "step", "point": 1, "pass": 0, "step": 0, "kind": "C-share-fu",
         "gain": 3.0},
        {"k": "pass_end", "point": 1, "pass": 0, "steps": 1, "committed": 1,
         "cost": 0.5},
    ]


class TestMining:
    def test_mine_synthetic_events(self):
        table = mine_events(_synthetic_trace())
        assert table.n_runs == 1
        tight_a = table.stats[("tight", "A-cell")]
        assert tight_a.chosen == 1 and tight_a.committed == 1
        assert tight_a.committed_gain == 2.0
        # Step 1 fell outside the committed prefix of 1.
        tight_c = table.stats[("tight", "C-share-fu")]
        assert tight_c.chosen == 1 and tight_c.committed == 0
        assert tight_c.committed_gain == 0.0
        loose_c = table.stats[("loose", "C-share-fu")]
        assert loose_c.committed == 1

    def test_points_without_init_are_skipped(self):
        events = [e for e in _synthetic_trace()
                  if not (e["k"] == "init" and e["point"] == 0)]
        table = mine_events(events)
        assert all(kind != "A-cell" for _, kind in table.stats)

    @pytest.mark.parametrize("sample", ["sample_v1.jsonl", "sample_v3.jsonl"])
    def test_mine_checked_in_samples(self, sample):
        table = mine_events(DATA / sample)
        assert table.n_runs == 1
        assert table.stats, "sample trace mined no statistics"
        assert all(entry.chosen >= entry.committed
                   for entry in table.stats.values())

    def test_v1_and_v3_mine_identically(self):
        assert (mine_events(DATA / "sample_v1.jsonl").stats
                == mine_events(DATA / "sample_v3.jsonl").stats)


class TestPersistence:
    def test_save_and_load_roundtrip(self):
        store = SynthesisStore()
        table = PriorsTable(n_runs=1)
        table.record("medium", "A-cell", 1.0, committed=True)
        save_priors(store, "fp-a", table)
        loaded = load_priors(store, "fp-a")
        assert loaded is not None
        assert loaded.stats == table.stats

    def test_save_merges_into_existing_entry(self):
        store = SynthesisStore()
        first = PriorsTable(n_runs=1)
        first.record("medium", "A-cell", 1.0, committed=True)
        save_priors(store, "fp-a", first)
        second = PriorsTable(n_runs=1)
        second.record("medium", "A-cell", 3.0, committed=True)
        save_priors(store, "fp-a", second)
        loaded = load_priors(store, "fp-a")
        assert loaded.n_runs == 2
        assert loaded.stats[("medium", "A-cell")].chosen == 2
        assert loaded.stats[("medium", "A-cell")].committed_gain == 4.0

    def test_unseen_design_falls_back_to_aggregate(self):
        store = SynthesisStore()
        table = PriorsTable(n_runs=1)
        table.record("loose", "C-share-reg", 2.0, committed=True)
        save_priors(store, "fp-a", table)
        fallback = load_priors(store, "fp-never-seen")
        assert fallback is not None
        assert ("loose", "C-share-reg") in fallback.stats
        assert load_priors(store, "fp-never-seen",
                           aggregate_fallback=False) is None

    def test_aggregate_accumulates_across_designs(self):
        store = SynthesisStore()
        for fp in ("fp-a", "fp-b"):
            table = PriorsTable(n_runs=1)
            table.record("medium", "A-cell", 1.0, committed=True)
            save_priors(store, fp, table)
        aggregate = load_priors(store, AGGREGATE_FINGERPRINT,
                                aggregate_fallback=False)
        assert aggregate.n_runs == 2
        assert aggregate.stats[("medium", "A-cell")].chosen == 2

    def test_corrupt_payload_loads_as_cold(self):
        from repro.search.priors import _priors_content

        store = SynthesisStore()
        store.replace("priors", _priors_content("fp-bad"), {"format": 99})
        assert load_priors(store, "fp-bad",
                           aggregate_fallback=False) is None


def _policy_with(table: PriorsTable, **params) -> PriorsPolicy:
    return PriorsPolicy({"table": table.as_dict(), **params})


class TestPriorsPolicy:
    def test_cold_policy_behaves_like_default(self):
        policy = PriorsPolicy()
        assert policy.table is None
        assert policy.family_order() == ("ab", "share")
        cands = [SimpleNamespace(kind="A-cell")] * 3
        assert policy.rank_candidates("ab", cands, 0, 0) is cands

    def test_seed_solution_sets_regime_and_keeps_start(self):
        table = PriorsTable()
        for _ in range(6):
            table.record("loose", "C-share-fu", 2.0, committed=True)
        policy = _policy_with(table)
        ctx = SimpleNamespace(cost=lambda s: pytest.fail("must not price"))
        for deadline, order in ((10, ("ab", "share")), (20, ("share", "ab"))):
            start = SimpleNamespace(
                deadline_cycles=deadline,
                schedule=lambda: SimpleNamespace(length=10),
            )
            assert policy.seed_solution(ctx, start, 3.0) == (start, 3.0)
            assert policy._regime == slack_regime(deadline, 10)
            assert policy.family_order() == order

    def test_family_order_prefers_mined_winner(self):
        table = PriorsTable()
        for _ in range(6):
            table.record("loose", "C-share-fu", 2.0, committed=True)
            table.record("loose", "A-cell", 0.1, committed=True)
        policy = _policy_with(table)
        policy._regime = "loose"
        assert policy.family_order() == ("share", "ab")
        policy._regime = "tight"  # no data there: default order
        assert policy.family_order() == ("ab", "share")

    def test_drops_reliably_unprofitable_kinds(self):
        table = PriorsTable()
        for _ in range(6):
            table.record("medium", "D-split-fu", -1.0, committed=False)
        table.record("medium", "A-cell", 1.0, committed=True)
        policy = _policy_with(table)
        split = SimpleNamespace(kind="D-split-fu")
        cell = SimpleNamespace(kind="A-cell")
        kept = policy.rank_candidates("share", [split, cell, split], 0, 0)
        assert list(kept) == [cell]

    def test_low_support_kinds_are_not_dropped(self):
        table = PriorsTable()
        for _ in range(3):  # below the default min_support of 5
            table.record("medium", "D-split-fu", -1.0, committed=False)
        policy = _policy_with(table)
        cands = [SimpleNamespace(kind="D-split-fu"),
                 SimpleNamespace(kind="A-cell")]
        assert list(policy.rank_candidates("share", cands, 0, 0)) == cands

    def test_never_empties_a_family(self):
        table = PriorsTable()
        for _ in range(6):
            table.record("medium", "D-split-fu", -1.0, committed=False)
        policy = _policy_with(table)
        cands = [SimpleNamespace(kind="D-split-fu")] * 2
        assert policy.rank_candidates("split", cands, 0, 0) is cands

    def test_min_support_param_is_respected(self):
        table = PriorsTable()
        for _ in range(3):
            table.record("medium", "D-split-fu", -1.0, committed=False)
        table.record("medium", "A-cell", 1.0, committed=True)
        policy = _policy_with(table, min_support=2)
        cands = [SimpleNamespace(kind="D-split-fu"),
                 SimpleNamespace(kind="A-cell")]
        assert [c.kind for c in policy.rank_candidates("share", cands, 0, 0)] \
            == ["A-cell"]
