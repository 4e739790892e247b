"""Unit tests for the tiered synthesis store (repro.synthesis.store)."""

import gc
import pickle
import sqlite3
import warnings
import weakref

import pytest

from repro.synthesis import store as store_module
from repro.synthesis.store import (
    MISSING,
    STORE_SCHEMA_VERSION,
    SynthesisStore,
    digest_content,
    module_content_signature,
)
from repro.telemetry import Telemetry


class TestPointTier:
    def test_get_probes_point_only(self):
        store = SynthesisStore()
        assert store.get("module", "k") is MISSING
        store.put("module", "k", ("content",), 42)
        assert store.get("module", "k") == 42

    def test_stored_none_is_not_missing(self):
        """The resynthesis memo stores None for infeasible budgets."""
        store = SynthesisStore()
        store.put("resynth", "k", ("c",), None)
        assert store.get("resynth", "k") is None
        assert store.get("other", "k") is MISSING

    def test_reset_point_clears_point_not_run(self):
        store = SynthesisStore()
        store.put("module", "k", ("c",), {"v": 1})
        store.reset_point()
        assert store.get("module", "k") is MISSING
        # The run tier still answers through fetch, with a fresh copy.
        value = store.fetch("module", "k", ("c",))
        assert value == {"v": 1}
        assert store.get("module", "k") == {"v": 1}

    def test_point_sizes_respected(self):
        store = SynthesisStore(point_sizes={"module": 2})
        for i in range(4):
            store.put("module", i, ("c", i), i)
        assert len(store.point_tier("module")) == 2
        counters = store.counters()
        assert counters["evictions"]["point.module"] == 2


class TestRunTier:
    def test_fetch_returns_fresh_copies(self):
        """Mutating a fetched value must not poison later fetches."""
        store = SynthesisStore()
        store.put("module", "k", ("c",), {"behaviors": ["a"]})
        store.reset_point()
        first = store.fetch("module", "k", ("c",))
        first["behaviors"].append("b")
        store.reset_point()
        second = store.fetch("module", "k", ("c",))
        assert second == {"behaviors": ["a"]}

    def test_fetch_decode_callback(self):
        store = SynthesisStore()
        store.put("module", "k", ("c",), 10)
        store.reset_point()
        assert store.fetch("module", "k", ("c",), decode=lambda v: v + 1) == 11
        # The decoded value is what lands in the point tier.
        assert store.get("module", "k") == 11

    def test_content_addressing_ignores_point_key(self):
        """Two different point keys with equal content share one blob."""
        store = SynthesisStore()
        store.put("resynth", "key-one", ("same", "content"), "value")
        store.reset_point()
        assert store.fetch("resynth", "other-key", ("same", "content")) == "value"
        assert store.fetch("resynth", "third", ("different",)) is MISSING

    def test_export_and_absorb(self):
        worker = SynthesisStore()
        worker.put("module", "k", ("c",), [1, 2])
        entries = worker.export_fresh()
        assert [(ns, digest) for ns, digest, _blob in entries] == [
            ("module", digest_content(("c",)))
        ]
        assert worker.export_fresh() == []

        parent = SynthesisStore()
        parent.absorb(entries)
        assert parent.fetch("module", "k2", ("c",)) == [1, 2]

    def test_reset_point_drops_pending_exports(self):
        """The serial sweep must not accumulate stale export lists."""
        store = SynthesisStore()
        store.put("module", "k", ("c",), 1)
        store.reset_point()
        assert store.export_fresh() == []


class TestCounters:
    def test_tick_pattern(self):
        store = SynthesisStore()
        store.get("module", "k")  # point miss
        store.fetch("module", "k", ("c",))  # run miss
        store.put("module", "k", ("c",), 1)
        store.get("module", "k")  # point hit
        store.reset_point()
        store.fetch("module", "k", ("c",))  # run hit
        counters = store.counters()
        assert counters["misses"]["point.module"] == 1
        assert counters["misses"]["run.module"] == 1
        assert counters["hits"]["point.module"] == 1
        assert counters["hits"]["run.module"] == 1

    def test_bind_shares_dicts_with_telemetry(self):
        store = SynthesisStore()
        store.get("module", "k")
        telemetry = Telemetry()
        store.bind(telemetry)
        assert telemetry.store_misses == {"point.module": 1}
        store.get("module", "k2")
        assert telemetry.store_misses == {"point.module": 2}


class TestPersistentTier:
    def test_round_trip_across_stores(self, tmp_path):
        first = SynthesisStore(cache_dir=str(tmp_path))
        first.put("schedule", "k", ("c",), (1, 2, 3))
        first.close()

        second = SynthesisStore(cache_dir=str(tmp_path))
        assert second.fetch("schedule", "fresh-key", ("c",)) == (1, 2, 3)
        counters = second.counters()
        assert counters["hits"]["persistent.schedule"] == 1
        second.close()

    def test_no_cache_dir_means_no_persistence(self):
        store = SynthesisStore()
        assert not store.persistent
        assert store.persistent_stats()["total_entries"] == 0

    def test_schema_version_mismatch_drops_entries(self, tmp_path):
        store = SynthesisStore(cache_dir=str(tmp_path))
        store.put("module", "k", ("c",), 1)
        stats = store.persistent_stats()
        assert stats["total_entries"] == 1
        store.close()

        db = sqlite3.connect(tmp_path / "synthesis_store.sqlite")
        db.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(STORE_SCHEMA_VERSION + 1),),
        )
        db.commit()
        db.close()

        reopened = SynthesisStore(cache_dir=str(tmp_path))
        assert reopened.persistent_stats()["total_entries"] == 0
        assert reopened.fetch("module", "k", ("c",)) is MISSING
        reopened.close()

    def test_concurrent_writers_are_idempotent(self, tmp_path):
        a = SynthesisStore(cache_dir=str(tmp_path))
        b = SynthesisStore(cache_dir=str(tmp_path))
        a.put("module", "k", ("c",), "same")
        b.put("module", "k", ("c",), "same")
        assert a.persistent_stats()["total_entries"] == 1
        a.close()
        b.close()

    def test_stats_and_clear(self, tmp_path):
        store = SynthesisStore(cache_dir=str(tmp_path))
        store.put("module", "k1", ("c1",), 1)
        store.put("schedule", "k2", ("c2",), 2)
        stats = store.persistent_stats()
        assert stats["entries"] == {"module": 1, "schedule": 1}
        assert stats["bytes"] > 0
        assert store.clear_persistent() == 2
        assert store.persistent_stats()["total_entries"] == 0
        store.close()

    def test_unusable_cache_dir_degrades_gracefully(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("file in the way")
        with pytest.raises(Exception):
            target.joinpath("x").mkdir()  # sanity: path is unusable
        with pytest.warns(RuntimeWarning, match="does not open"):
            store = SynthesisStore(cache_dir=str(target / "sub"))
        assert not store.persistent
        assert store.counters()["misses"] == {"fallback.persistent": 1}
        store.put("module", "k", ("c",), 1)  # still works in memory
        assert store.get("module", "k") == 1

    def test_open_retries_a_locked_journal_switch(
        self, tmp_path, locked_journal_switch
    ):
        """A second process opening the same fresh file can make the
        WAL switch fail at once; the store retries it instead of
        dropping to its memory tiers."""
        injected = locked_journal_switch(1)
        store = SynthesisStore(cache_dir=str(tmp_path))
        assert len(injected) == 1
        assert store.persistent
        assert "fallback.persistent" not in store.counters()["misses"]
        store.put("module", "k", ("c",), 7)
        store.close()
        reader = SynthesisStore(cache_dir=str(tmp_path))
        assert reader.fetch("module", "k", ("c",)) == 7
        reader.close()

    def test_open_falls_back_when_the_lock_lasts(
        self, tmp_path, locked_journal_switch
    ):
        injected = locked_journal_switch(100)
        with pytest.warns(RuntimeWarning, match="does not open"):
            store = SynthesisStore(cache_dir=str(tmp_path))
        assert len(injected) == store_module._WRITE_RETRIES
        assert not store.persistent
        assert store.counters()["misses"] == {"fallback.persistent": 1}


def _stored_keys(cache_dir) -> set[tuple[str, str]]:
    """``(ns, key)`` rows committed to a one-shard store, read through
    a connection of their own."""
    db = sqlite3.connect(cache_dir / "synthesis_store.sqlite")
    try:
        return set(db.execute("SELECT ns, key FROM store"))
    finally:
        db.close()


class TestWriteBatching:
    """Writes inside a point wait for its end; lookups see them first."""

    def test_writes_commit_when_the_block_ends(self, tmp_path):
        store = SynthesisStore(cache_dir=str(tmp_path), run_cache_size=0)
        with store.buffered():
            for i in range(3):
                store.put("schedule", f"k{i}", (f"c{i}",), i)
            assert _stored_keys(tmp_path) == set()
            # The run tier holds nothing, so the pending batch answers.
            store.reset_point()
            assert store.fetch("schedule", "k", ("c1",)) == 1
            assert store.fetch("schedule", "k9", ("c9",)) is MISSING
        assert len(_stored_keys(tmp_path)) == 3
        counters = store.counters()
        assert counters["hits"]["persistent.schedule"] == 1
        assert counters["misses"]["persistent.schedule"] == 1
        assert counters["writes"] == {"commits": 1, "rows": 3}
        store.close()

    def test_writes_outside_a_block_commit_at_once(self, tmp_path):
        store = SynthesisStore(cache_dir=str(tmp_path))
        store.put("service", "k", ("c",), {"power": 1.0})
        assert _stored_keys(tmp_path) == {("service", digest_content(("c",)))}
        store.put("service", "k2", ("c2",), {"power": 2.0})
        assert store.counters()["writes"] == {"commits": 2, "rows": 2}
        store.close()

    def test_a_full_batch_is_written_inside_the_block(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(store_module, "_BATCH_ROWS", 3)
        store = SynthesisStore(cache_dir=str(tmp_path))
        with store.buffered():
            for i in range(7):
                store.put("schedule", f"k{i}", (f"c{i}",), i)
            assert len(_stored_keys(tmp_path)) == 6
        assert len(_stored_keys(tmp_path)) == 7
        assert store.counters()["writes"] == {"commits": 3, "rows": 7}
        store.close()

    def test_block_flushes_when_the_point_raises(self, tmp_path):
        store = SynthesisStore(cache_dir=str(tmp_path))
        with pytest.raises(RuntimeError):
            with store.buffered():
                store.put("module", "k", ("c",), 1)
                raise RuntimeError("point failed")
        assert len(_stored_keys(tmp_path)) == 1
        store.close()

    def test_close_and_maintenance_write_the_batch_first(self, tmp_path):
        store = SynthesisStore(cache_dir=str(tmp_path))
        with store.buffered():
            for i in range(4):
                store.put("module", f"k{i}", (f"c{i}",), i)
            assert store.persistent_stats()["total_entries"] == 4
            store.put("module", "k4", ("c4",), 4)
            assert store.prune_persistent(2) == 3
            store.put("module", "k5", ("c5",), 5)
            assert store.clear_persistent() == 3
            store.put("module", "k6", ("c6",), 6)
            store.close()
        assert _stored_keys(tmp_path) == {("module", digest_content(("c6",)))}

    def test_sharded_batch_commits_once_per_shard(self, tmp_path):
        store = SynthesisStore(cache_dir=str(tmp_path), shards=3)
        keys = _corpus_keys(12)
        with store.buffered():
            for i, (fp, content) in enumerate(keys):
                store.put("module", fp, content, i)
        assert store.counters()["writes"] == {"commits": 3, "rows": 12}
        store.close()
        reader = SynthesisStore(cache_dir=str(tmp_path))
        assert [reader.fetch("module", fp, c) for fp, c in keys] == list(
            range(12)
        )
        reader.close()

    def test_rows_already_stored_are_not_counted(self, tmp_path):
        """``INSERT OR IGNORE`` leaves a stored key alone, so a second
        writer of the same entries counts its commit but no rows."""
        first = SynthesisStore(cache_dir=str(tmp_path))
        second = SynthesisStore(cache_dir=str(tmp_path))
        for store in (first, second):
            with store.buffered():
                store.put("schedule", "k", ("c",), 1)
                store.put("schedule", "k2", ("c2",), 2)
        assert first.counters()["writes"] == {"commits": 1, "rows": 2}
        assert second.counters()["writes"] == {"commits": 1, "rows": 0}
        assert second.persistent_stats()["total_entries"] == 2
        first.close()
        second.close()

    def test_writes_are_counted_in_bound_telemetry(self, tmp_path):
        store = SynthesisStore(cache_dir=str(tmp_path))
        store.put("module", "k", ("c",), 1)
        telemetry = Telemetry()
        store.bind(telemetry)
        with store.buffered():
            store.put("module", "k2", ("c2",), 2)
            store.put("module", "k3", ("c3",), 3)
        assert telemetry.store_writes == {"commits": 2, "rows": 3}
        store.close()


class TestContains:
    def test_probes_every_tier(self, tmp_path):
        writer = SynthesisStore(cache_dir=str(tmp_path))
        writer.put("schedule", "k", ("on disk",), 1)
        writer.close()
        store = SynthesisStore(cache_dir=str(tmp_path))
        store.put("schedule", "k2", ("in memory",), 2)
        with store.buffered():
            store.put("schedule", "k3", ("pending",), 3)
            assert store.contains(
                "schedule",
                [("on disk",), ("in memory",), ("pending",), ("absent",)],
            ) == [True, True, True, False]
        assert store.contains("point", [("on disk",)]) == [False]
        store.close()

    @pytest.mark.parametrize("cache_dir", [True, False])
    def test_counts_what_fetching_everything_would(self, tmp_path, cache_dir):
        """Probing, then fetching only what is held, counts the hits
        and misses of fetching every content."""
        def store() -> SynthesisStore:
            return SynthesisStore(
                cache_dir=str(tmp_path / "s") if cache_dir else None
            )

        seeded = store()
        seeded.put("point", "k", ("held",), 1)
        seeded.close()
        contents = [("held",), ("absent",)]

        fetched = store()
        if not cache_dir:
            fetched.put("point", "k", ("held",), 1)
        for content in contents:
            fetched.fetch("point", content, content)
        probed = store()
        if not cache_dir:
            probed.put("point", "k", ("held",), 1)
        for content, held in zip(contents, probed.contains("point", contents)):
            if held:
                probed.fetch("point", content, content)
        assert probed.counters() == fetched.counters()
        assert probed.counters()["misses"]
        fetched.close()
        probed.close()


class TestFailedWrites:
    """A write that fails is dropped, counted and warned once."""

    def test_non_transient_failure_is_counted(self, tmp_path, failing_writes):
        injected = failing_writes(1, "attempt to write a readonly database")
        store = SynthesisStore(cache_dir=str(tmp_path))
        with pytest.warns(RuntimeWarning, match="failed"):
            with store.buffered():
                store.put("module", "k", ("c",), 1)
                store.put("module", "k2", ("c2",), 2)
        assert len(injected) == 1
        assert _stored_keys(tmp_path) == set()
        counters = store.counters()
        assert counters["misses"] == {"failed.persistent": 1}
        assert counters["writes"] == {}
        # The values still answer from memory; later writes go through.
        assert store.get("module", "k") == 1
        store.put("module", "k3", ("c3",), 3)
        assert len(_stored_keys(tmp_path)) == 1
        store.close()

    def test_warns_once_per_store(self, tmp_path, failing_writes):
        failing_writes(3, "attempt to write a readonly database")
        store = SynthesisStore(cache_dir=str(tmp_path))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for i in range(3):
                store.put("module", f"k{i}", (f"c{i}",), i)
        assert len(caught) == 1
        assert store.counters()["misses"]["failed.persistent"] == 3
        store.close()

    def test_single_row_writes_are_counted_too(self, tmp_path, failing_writes):
        """The one write outside the batch, deleting a blob that does
        not load, counts its failure like a batch does."""
        first = SynthesisStore(cache_dir=str(tmp_path))
        first.put("schedule", "k", ("c",), (1, 2, 3))
        first.close()
        _overwrite_blobs(tmp_path, _GARBAGE)

        injected = failing_writes(1, "disk I/O error")
        store = SynthesisStore(cache_dir=str(tmp_path))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert store.fetch("schedule", "k", ("c",)) is MISSING
        messages = sorted(str(w.message) for w in caught)
        assert len(messages) == 2
        assert "does not load" in messages[0] and "failed" in messages[1]
        assert len(injected) == 1 and injected[0].startswith("DELETE")
        counters = store.counters()
        assert counters["misses"] == {
            "corrupt.schedule": 1,
            "failed.persistent": 1,
            "run.schedule": 1,
        }
        assert counters["writes"] == {}
        # The failed delete left the bad row in place.
        assert len(_stored_keys(tmp_path)) == 1
        store.close()

    @pytest.mark.parametrize("error", ["database is locked",
                                       "database is busy"])
    def test_lock_contention_is_retried(self, tmp_path, failing_writes, error):
        injected = failing_writes(2, error)
        store = SynthesisStore(cache_dir=str(tmp_path))
        with store.buffered():
            store.put("module", "k", ("c",), 1)
        assert len(injected) == 2
        assert len(_stored_keys(tmp_path)) == 1
        counters = store.counters()
        assert "failed.persistent" not in counters["misses"]
        assert counters["writes"] == {"commits": 1, "rows": 1}
        store.close()

    def test_lasting_contention_gives_up(self, tmp_path, failing_writes):
        injected = failing_writes(100, "database is locked")
        store = SynthesisStore(cache_dir=str(tmp_path))
        with pytest.warns(RuntimeWarning, match="failed"):
            store.put("module", "k", ("c",), 1)
        assert len(injected) == store_module._WRITE_RETRIES
        assert store.counters()["misses"] == {"failed.persistent": 1}
        store.close()


class TestContentSignatureMemo:
    """The content-signature memo is held beside a module, never in it."""

    @pytest.fixture
    def module(self, mixed_library):
        """A characterized module nothing has asked the signature of."""
        return next(
            m for m in mixed_library.complex_modules_for("butterfly")
            if m.internal is not None
        )

    def test_pickle_bytes_do_not_depend_on_the_memo(
        self, module, mixed_design
    ):
        before = pickle.dumps(module, protocol=pickle.HIGHEST_PROTOCOL)
        sig = module_content_signature(module, mixed_design)
        assert module_content_signature(module, mixed_design) is sig
        assert pickle.dumps(module, protocol=pickle.HIGHEST_PROTOCOL) == before

    def test_memo_does_not_keep_a_module_alive(self, module, mixed_design):
        copy = pickle.loads(pickle.dumps(module))
        module_content_signature(copy, mixed_design)
        assert copy in store_module._CONTENT_SIGS
        ref = weakref.ref(copy)
        del copy
        gc.collect()
        assert ref() is None

    def test_blob_carrying_the_memo_attribute_loads(self, module, mixed_design):
        """Earlier releases memoized the signature as an attribute, so
        stored modules may carry it: it is dropped on load."""
        fresh = pickle.dumps(module, protocol=pickle.HIGHEST_PROTOCOL)
        sig = module_content_signature(module, mixed_design)
        earlier = pickle.loads(fresh)
        earlier._store_content_sig = sig
        blob = pickle.dumps(earlier, protocol=pickle.HIGHEST_PROTOCOL)
        assert blob != fresh
        loaded = pickle.loads(blob)
        assert "_store_content_sig" not in vars(loaded)
        assert pickle.dumps(loaded, protocol=pickle.HIGHEST_PROTOCOL) == fresh
        assert module_content_signature(loaded, mixed_design) == sig


#: A pickle naming a class that does not exist (any more).
_GONE_CLASS = b"\x80\x02crepro.synthesis.solution\nRemovedSolution\n)\x81."
_GARBAGE = b"\x00not a pickle\xff"


def _overwrite_blobs(cache_dir, blob: bytes) -> None:
    db = sqlite3.connect(cache_dir / "synthesis_store.sqlite")
    db.execute("UPDATE store SET value = ?", (blob,))
    db.commit()
    db.close()


def add_legacy_priors_rows(cache_dir) -> None:
    """Write ``priors`` rows as earlier versions of the store kept them.

    Trace-mined move priors were a plain-dict table per iso-invariant
    design fingerprint plus a cross-design aggregate, rewritten in place
    with ``INSERT OR REPLACE``.  Nothing reads the namespace any more.
    """
    db = sqlite3.connect(cache_dir / "synthesis_store.sqlite")
    for fingerprint in ("0123abcd", "__aggregate__"):
        table = {"format": 1, "n_runs": 1,
                 "stats": {"tight|A-cell": [3, 2, 1.5, 1.0]}}
        db.execute(
            "INSERT OR REPLACE INTO store VALUES (?, ?, ?)",
            ("priors", digest_content(("priors", 1, fingerprint)),
             pickle.dumps(table, protocol=pickle.HIGHEST_PROTOCOL)),
        )
    db.commit()
    db.close()


def add_legacy_metrics_rows(cache_dir, n: int = 3) -> None:
    """Write per-candidate ``metrics`` rows as earlier versions of the
    store kept them.

    Each priced candidate of an untraced run had its :class:`Metrics`
    stored under the digest of its pricing signature, prefixed with
    the store signature and suffixed with the level's stream digest.
    Point outcomes replaced them; nothing reads the rows any more.
    """
    from repro.power.estimator import PowerReport
    from repro.synthesis.costs import Metrics

    db = sqlite3.connect(cache_dir / "synthesis_store.sqlite")
    for i in range(n):
        metrics = Metrics(
            100.0 + i, 2.0, 0.5, 12, True,
            PowerReport(1.0, 0.5, 0.25, 0.125, 0.0, 400.0, 5.0),
        )
        db.execute(
            "INSERT OR IGNORE INTO store VALUES (?, ?, ?)",
            ("metrics",
             digest_content(("metrics", "ctx", ("candidate", i), "level")),
             pickle.dumps(metrics, protocol=pickle.HIGHEST_PROTOCOL)),
        )
    db.commit()
    db.close()


class TestLegacyPriorsRows:
    """``priors`` rows left by earlier versions stay inert."""

    def test_store_opens_and_serves_other_namespaces(self, tmp_path):
        first = SynthesisStore(cache_dir=str(tmp_path))
        first.put("schedule", "k", ("c",), (1, 2, 3))
        first.put("module", "m", ("mc",), "module")
        first.close()
        add_legacy_priors_rows(tmp_path)

        store = SynthesisStore(cache_dir=str(tmp_path))
        assert store.persistent
        assert store.fetch("schedule", "k", ("c",)) == (1, 2, 3)
        assert store.fetch("module", "m", ("mc",)) == "module"
        store.put("schedule", "k2", ("c2",), (4,))
        assert store.persistent_stats()["entries"] == {
            "module": 1, "priors": 2, "schedule": 2,
        }
        counters = store.counters()
        assert counters["hits"] == {
            "persistent.module": 1, "persistent.schedule": 1,
        }
        assert set(counters["misses"]) == {"run.module", "run.schedule"}
        store.close()


class TestLegacyMetricsRows:
    """Per-candidate ``metrics`` rows left by earlier versions stay
    inert, and the maintenance calls count and remove them."""

    def test_store_serves_other_namespaces_and_maintains_them(
        self, tmp_path
    ):
        first = SynthesisStore(cache_dir=str(tmp_path))
        first.put("schedule", "k", ("c",), (1, 2, 3))
        first.close()
        add_legacy_metrics_rows(tmp_path, 3)

        store = SynthesisStore(cache_dir=str(tmp_path))
        assert store.fetch("schedule", "k", ("c",)) == (1, 2, 3)
        assert store.fetch("point", "p", ("p",)) is MISSING
        assert store.persistent_stats()["entries"] == {
            "metrics": 3, "schedule": 1,
        }
        assert store.counters()["hits"] == {"persistent.schedule": 1}
        # Oldest first: the schedule row, then the first metrics row.
        assert store.prune_persistent(2) == 2
        assert store.persistent_stats()["entries"] == {"metrics": 2}
        assert store.counters()["evictions"] == {
            "persistent.metrics": 1, "persistent.schedule": 1,
        }
        assert store.clear_persistent() == 2
        store.close()


class TestDamagedStore:
    """A damaged store is a counted miss, never an exception."""

    @pytest.mark.parametrize("blob", [_GARBAGE, _GONE_CLASS],
                             ids=["garbage", "gone-class"])
    def test_fetch_turns_bad_blob_into_counted_miss(self, tmp_path, blob):
        first = SynthesisStore(cache_dir=str(tmp_path))
        first.put("schedule", "k", ("c",), (1, 2, 3))
        first.close()
        _overwrite_blobs(tmp_path, blob)

        store = SynthesisStore(cache_dir=str(tmp_path))
        with pytest.warns(RuntimeWarning, match="does not load"):
            assert store.fetch("schedule", "k", ("c",)) is MISSING
        assert store.counters()["misses"]["corrupt.schedule"] == 1
        # Dropped from both tiers: the recomputed value takes its place.
        assert store.persistent_stats()["total_entries"] == 0
        assert store.fetch("schedule", "k", ("c",)) is MISSING
        store.put("schedule", "k", ("c",), (1, 2, 3))
        store.close()
        fresh = SynthesisStore(cache_dir=str(tmp_path))
        assert fresh.fetch("schedule", "k2", ("c",)) == (1, 2, 3)
        fresh.close()

    def test_warns_once_per_store(self, tmp_path):
        first = SynthesisStore(cache_dir=str(tmp_path))
        for i in range(3):
            first.put("schedule", f"k{i}", (f"c{i}",), i)
        first.close()
        _overwrite_blobs(tmp_path, _GARBAGE)

        store = SynthesisStore(cache_dir=str(tmp_path))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for i in range(3):
                assert store.fetch("schedule", f"k{i}", (f"c{i}",)) is MISSING
        assert len(caught) == 1
        assert store.counters()["misses"]["corrupt.schedule"] == 3
        store.close()

    @pytest.mark.parametrize("ns", ["schedule", "point"])
    def test_dropping_a_bad_blob_is_not_a_write(self, tmp_path, ns):
        """Rows written count inserts only: after a bad blob is dropped
        and its recomputed value stored, the writes equal the entries."""
        first = SynthesisStore(cache_dir=str(tmp_path))
        first.put(ns, "k", ("c",), (1, 2, 3))
        first.close()
        _overwrite_blobs(tmp_path, _GARBAGE)

        store = SynthesisStore(cache_dir=str(tmp_path))
        with pytest.warns(RuntimeWarning, match="does not load"):
            assert store.fetch(ns, "k", ("c",)) is MISSING
        assert _stored_keys(tmp_path) == set()
        assert store.counters()["writes"] == {}
        store.put(ns, "k", ("c",), (1, 2, 3))
        assert store.counters()["writes"] == {"commits": 1, "rows": 1}
        assert store.persistent_stats()["total_entries"] == 1
        store.close()

    def test_truncated_database_falls_back_to_memory(self, tmp_path):
        first = SynthesisStore(cache_dir=str(tmp_path))
        for i in range(50):
            first.put("schedule", f"k{i}", (f"c{i}",), list(range(i)))
        first.close()
        path = tmp_path / "synthesis_store.sqlite"
        path.write_bytes(path.read_bytes()[:100])

        with pytest.warns(RuntimeWarning, match="does not open"):
            store = SynthesisStore(cache_dir=str(tmp_path))
        assert not store.persistent
        assert store.counters()["misses"] == {"fallback.persistent": 1}
        assert store.fetch("schedule", "k1", ("c1",)) is MISSING
        store.put("schedule", "k1", ("c1",), [0])
        assert store.fetch("schedule", "k9", ("c1",)) == [0]
        telemetry = Telemetry()
        store.bind(telemetry)
        assert telemetry.store_misses["fallback.persistent"] == 1


def _corpus_keys(n: int, base_seed: int = 11) -> list[tuple[str, tuple]]:
    """Content keys drawn from a generated-design corpus.

    Fingerprints of seeded random designs are exactly the keyspace the
    store sees under fuzzing/transfer-learning workloads: high-entropy,
    collision-free, unordered.
    """
    from repro.dfg.canonical import design_fingerprint
    from repro.gen import generate_batch

    keys = []
    for gen in generate_batch(base_seed, n):
        fp = design_fingerprint(gen.design, gen.design.top)
        keys.append((fp, ("corpus", fp)))
    assert len({fp for fp, _c in keys}) == n  # sanity: no collisions
    return keys


class TestPersistentEviction:
    def test_prune_keeps_newest_insertions(self, tmp_path):
        store = SynthesisStore(cache_dir=str(tmp_path))
        keys = _corpus_keys(8)
        for i, (fp, content) in enumerate(keys):
            store.put("module", fp, content, i)
        assert store.prune_persistent(3) == 5
        assert store.persistent_stats()["total_entries"] == 3
        store.close()

        # Survivors are exactly the three newest insertions, oldest gone.
        reopened = SynthesisStore(cache_dir=str(tmp_path))
        for i, (fp, content) in enumerate(keys):
            value = reopened.fetch("module", fp, content)
            if i < 5:
                assert value is MISSING
            else:
                assert value == i
        reopened.close()

    def test_prune_orders_by_insertion_not_namespace(self, tmp_path):
        store = SynthesisStore(cache_dir=str(tmp_path))
        keys = _corpus_keys(6)
        # Interleave namespaces so lexicographic ordering would differ
        # from insertion ordering.
        namespaces = ["schedule", "module", "resynth"] * 2
        for i, ((fp, content), ns) in enumerate(zip(keys, namespaces)):
            store.put(ns, fp, content, i)
        assert store.prune_persistent(2) == 4
        stats = store.persistent_stats()
        assert stats["total_entries"] == 2
        # The two newest inserts were resynth (i=5) and module (i=4).
        assert stats["entries"] == {"module": 1, "resynth": 1}
        counters = store.counters()["evictions"]
        assert counters["persistent.schedule"] == 2
        assert counters["persistent.module"] == 1
        assert counters["persistent.resynth"] == 1
        store.close()

    def test_prune_noop_when_under_bound(self, tmp_path):
        store = SynthesisStore(cache_dir=str(tmp_path))
        for fp, content in _corpus_keys(3):
            store.put("module", fp, content, 0)
        assert store.prune_persistent(10) == 0
        assert store.persistent_stats()["total_entries"] == 3
        store.close()

    def test_prune_to_zero_empties_store(self, tmp_path):
        store = SynthesisStore(cache_dir=str(tmp_path))
        for fp, content in _corpus_keys(3):
            store.put("module", fp, content, 0)
        assert store.prune_persistent(0) == 3
        assert store.persistent_stats()["total_entries"] == 0
        store.close()

    def test_prune_rejects_negative_bound(self, tmp_path):
        store = SynthesisStore(cache_dir=str(tmp_path))
        with pytest.raises(ValueError, match="max_entries"):
            store.prune_persistent(-1)
        store.close()

    def test_prune_without_db_is_zero(self):
        assert SynthesisStore().prune_persistent(0) == 0


_WRITER_SCRIPT = """
import sys
from repro.dfg.canonical import design_fingerprint
from repro.gen import generate_batch
from repro.synthesis.store import SynthesisStore

cache_dir, base_seed, tag = sys.argv[1], int(sys.argv[2]), sys.argv[3]
store = SynthesisStore(cache_dir=cache_dir)
# Writers share the same corpus keyspace: every put races with the
# other process on identical (ns, key) pairs carrying identical bytes.
for gen in generate_batch(base_seed, 40):
    fp = design_fingerprint(gen.design, gen.design.top)
    store.put("module", fp, ("corpus", fp), {"fp": fp, "seed": gen.seed})
store.close()
print(f"{tag} done")
"""


class TestConcurrentWriterProcesses:
    def test_two_processes_one_sqlite_tier(self, tmp_path):
        """Two independent writer processes race on one store.

        Content addressing makes the race benign: both write the same
        bytes for the same keys, so the merged tier must hold exactly
        one intact entry per key.
        """
        import subprocess
        import sys as _sys

        procs = [
            subprocess.Popen(
                [_sys.executable, "-c", _WRITER_SCRIPT,
                 str(tmp_path), "29", tag],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for tag in ("w1", "w2")
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert "done" in out

        store = SynthesisStore(cache_dir=str(tmp_path))
        assert store.persistent_stats()["total_entries"] == 40
        for fp, content in _corpus_keys(40, base_seed=29):
            value = store.fetch("module", fp, content)
            assert value == {"fp": fp, "seed": value["seed"]}
        store.close()

class TestSharding:
    """Persistent-tier sharding: layout, auto-detection, pruning."""

    def test_sharded_layout_on_disk(self, tmp_path):
        store = SynthesisStore(cache_dir=str(tmp_path), shards=4)
        assert store.shards == 4
        names = sorted(p.name for p in tmp_path.glob("*.sqlite"))
        assert names == [f"synthesis_store.shard{i:02d}.sqlite"
                         for i in range(4)]
        store.close()

    def test_round_trip_spreads_across_shards(self, tmp_path):
        store = SynthesisStore(cache_dir=str(tmp_path), shards=4)
        keys = _corpus_keys(24)
        for i, (fp, content) in enumerate(keys):
            store.put("module", fp, content, i)
        stats = store.persistent_stats()
        assert stats["shards"] == 4
        assert stats["total_entries"] == 24
        store.close()
        # High-entropy digests must not all land in one shard file.
        import sqlite3

        per_shard = []
        for path in sorted(tmp_path.glob("*.sqlite")):
            db = sqlite3.connect(path)
            per_shard.append(
                db.execute("SELECT COUNT(*) FROM store").fetchone()[0]
            )
            db.close()
        assert sum(per_shard) == 24
        assert sum(1 for n in per_shard if n > 0) >= 2

    def test_auto_detection_of_sharded_layout(self, tmp_path):
        writer = SynthesisStore(cache_dir=str(tmp_path), shards=3)
        keys = _corpus_keys(12)
        for i, (fp, content) in enumerate(keys):
            writer.put("module", fp, content, i)
        writer.close()
        # shards=None (the default) must find the 3-shard layout.
        assert SynthesisStore.detect_shards(str(tmp_path)) == 3
        reader = SynthesisStore(cache_dir=str(tmp_path))
        assert reader.shards == 3
        for i, (fp, content) in enumerate(keys):
            assert reader.fetch("module", fp, content) == i
        reader.close()

    def test_detect_shards_defaults_to_one(self, tmp_path):
        assert SynthesisStore.detect_shards(str(tmp_path)) == 1
        store = SynthesisStore(cache_dir=str(tmp_path))  # legacy layout
        store.put("module", "k", ("c",), 1)
        store.close()
        assert SynthesisStore.detect_shards(str(tmp_path)) == 1

    def test_prune_respects_bound_across_shards(self, tmp_path):
        store = SynthesisStore(cache_dir=str(tmp_path), shards=4)
        keys = _corpus_keys(20)
        for i, (fp, content) in enumerate(keys):
            store.put("module", fp, content, i)
        removed = store.prune_persistent(6)
        kept = store.persistent_stats()["total_entries"]
        assert removed + kept == 20
        assert kept <= 6
        store.close()

    def test_clear_empties_every_shard(self, tmp_path):
        store = SynthesisStore(cache_dir=str(tmp_path), shards=4)
        for fp, content in _corpus_keys(10):
            store.put("module", fp, content, fp)
        assert store.clear_persistent() == 10
        assert store.persistent_stats()["total_entries"] == 0
        store.close()

    def test_shard_count_is_execution_only_for_results(self, tmp_path):
        """The same (key, content) round-trips across shard counts."""
        one = SynthesisStore(cache_dir=str(tmp_path / "s1"), shards=1)
        many = SynthesisStore(cache_dir=str(tmp_path / "s4"), shards=4)
        for fp, content in _corpus_keys(8):
            one.put("module", fp, content, {"fp": fp})
            many.put("module", fp, content, {"fp": fp})
        for fp, content in _corpus_keys(8):
            assert one.fetch("module", fp, content) == \
                many.fetch("module", fp, content)
        one.close()
        many.close()
