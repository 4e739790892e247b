"""Unit tests for run telemetry (counters, merging, rendering)."""

import pickle

from repro.reporting import render_stats
from repro.telemetry import Telemetry, move_family


class TestMoveFamily:
    def test_kind_collapses_to_family(self):
        assert move_family("A-replace-cell") == "A"
        assert move_family("C-share-fu") == "C"

    def test_bare_family_unchanged(self):
        assert move_family("B") == "B"


class TestCounters:
    def test_moves_grouped_by_family(self):
        t = Telemetry()
        t.count_move_tried("A-replace-cell")
        t.count_move_tried("A-replace-module")
        t.count_move_tried("D-split-fu", n=3)
        t.count_move_committed("A-replace-cell")
        assert t.moves_tried == {"A": 2, "D": 3}
        assert t.moves_committed == {"A": 1}

    def test_stage_time_accumulates(self):
        t = Telemetry()
        t.add_time("improve", 1.5)
        t.add_time("improve", 0.5)
        t.add_time("simulate", 0.25)
        assert t.stage_s == {"improve": 2.0, "simulate": 0.25}

    def test_hit_rate(self):
        t = Telemetry()
        assert t.cache_hit_rate == 0.0  # no division by zero when idle
        t.evaluations = 4
        t.cache_hits = 1
        assert t.cache_hit_rate == 0.25


class TestMerge:
    def test_merge_sums_everything(self):
        a = Telemetry(evaluations=10, cache_hits=3, cache_misses=7,
                      points_explored=2, points_skipped=1)
        a.count_move_tried("A-x")
        a.add_time("improve", 1.0)
        b = Telemetry(evaluations=5, cache_hits=2, cache_misses=3,
                      points_explored=1)
        b.count_move_tried("A-y", n=4)
        b.count_move_committed("C-share")
        b.add_time("improve", 0.5)
        b.add_time("initial", 0.1)

        assert a.merge(b) is a
        assert a.evaluations == 15
        assert a.cache_hits == 5
        assert a.cache_misses == 10
        assert a.points_explored == 3
        assert a.points_skipped == 1
        assert a.moves_tried == {"A": 5}
        assert a.moves_committed == {"C": 1}
        assert a.stage_s == {"improve": 1.5, "initial": 0.1}

    def test_merge_leaves_other_untouched(self):
        a, b = Telemetry(), Telemetry(evaluations=3)
        a.merge(b)
        assert b.evaluations == 3
        assert a.moves_tried is not b.moves_tried

    def test_picklable(self):
        """Workers of the parallel sweep ship telemetry back via pickle."""
        t = Telemetry(evaluations=2)
        t.count_move_tried("B-resynth")
        clone = pickle.loads(pickle.dumps(t))
        assert clone == t


class TestEmbeddedCounter:
    def test_counted_per_kind_merged_and_exported(self):
        a, b = Telemetry(), Telemetry()
        a.count_move_embedded("C-embed", n=3)
        b.count_move_embedded("C-embed")
        b.count_move_embedded("A-remerge", n=2)
        a.merge(b)
        assert a.moves_embedded == {"C-embed": 4, "A-remerge": 2}
        assert a.as_dict()["moves_embedded"] == {"A-remerge": 2, "C-embed": 4}
        assert "A-remerge: 2 / C-embed: 4" in render_stats(a)

    def test_render_omits_row_without_embeddings(self):
        assert "moves embedded" not in render_stats(Telemetry())


class TestStoreWrites:
    def test_merged_exported_and_rendered(self):
        a = Telemetry(store_writes={"rows": 300, "commits": 2})
        b = Telemetry(store_writes={"rows": 45, "commits": 1})
        a.merge(b)
        assert a.store_writes == {"rows": 345, "commits": 3}
        assert a.as_dict()["store_writes"] == {"commits": 3, "rows": 345}
        assert "345 in 3 commits" in render_stats(a)

    def test_render_omits_row_without_writes(self):
        assert "store persistent writes" not in render_stats(Telemetry())


class TestAsDict:
    def test_plain_data(self):
        t = Telemetry(evaluations=4, cache_hits=1, cache_misses=3)
        t.count_move_tried("C-share-reg")
        t.add_time("sweep", 0.123456789)
        data = t.as_dict()
        assert data["evaluations"] == 4
        assert data["cache_hit_rate"] == 0.25
        assert data["moves_tried"] == {"C": 1}
        assert data["stage_s"]["sweep"] == 0.123457


class TestRenderStats:
    def test_render_contains_counters(self):
        t = Telemetry(evaluations=100, cache_hits=25, cache_misses=75,
                      points_explored=4)
        t.count_move_tried("A-replace-cell", n=10)
        t.count_move_committed("A-replace-cell", n=2)
        t.add_time("improve", 1.5)
        text = render_stats(t)
        assert "evaluations" in text
        assert "25.0%" in text
        assert "10 tried / 2 committed" in text
        assert "time: improve" in text

    def test_render_empty_telemetry(self):
        assert "evaluations" in render_stats(Telemetry())
