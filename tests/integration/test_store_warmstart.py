"""Cold-vs-warm determinism of the persistent synthesis store.

The tentpole contract of the tiered store: synthesis results are
**bit-identical** whether the store starts empty (cold) or pre-populated
by an earlier identical run (warm) — same winner, same generated module
names, same netlist text, same trace.  The cache changes wall-clock
only, never results.
"""

import copyreg
import io
import json
import os
import pickle
import signal
import sqlite3
import subprocess
import sys
import threading
import warnings
import weakref
from pathlib import Path

import pytest

from repro.bench_suite import get_benchmark
from repro.power import speech_traces
from repro.rtl import DatapathNetlist, RTLModule, emit_netlist
from repro.synthesis import Solution, SynthesisConfig, synthesize
from repro.synthesis.store import SynthesisStore

from tests.unit.test_blob_determinism import _EarlierFormPickler
from tests.unit.test_store import (
    _GONE_CLASS,
    _overwrite_blobs,
    add_legacy_metrics_rows,
)

SEED = 11
SAMPLES = 24
LAXITY = 2.2


def _config(cache_dir, n_workers=1, trace=True, **overrides):
    return SynthesisConfig(
        max_moves=6,
        max_passes=2,
        max_ab_targets=4,
        max_share_pairs=8,
        max_split_candidates=4,
        n_clocks=2,
        resynth_passes=1,
        resynth_moves=4,
        n_workers=n_workers,
        cache_dir=str(cache_dir) if cache_dir else None,
        trace=trace,
        trace_timings=False,
        **overrides,
    )


def _run(circuit, cache_dir, n_workers=1, objective="power", trace=True,
         seed=SEED, **overrides):
    design = get_benchmark(circuit)
    traces = speech_traces(design.top, n=SAMPLES, seed=seed)
    return synthesize(
        design,
        laxity_factor=LAXITY,
        objective=objective,
        traces=traces,
        config=_config(cache_dir, n_workers, trace, **overrides),
        n_samples=SAMPLES,
    )


def _identity(result):
    return (
        result.area,
        result.power,
        result.vdd,
        result.clk_ns,
        result.metrics.schedule_length,
        emit_netlist(result.netlist()),
    )


class TestColdVsWarm:
    def test_bit_identical_and_warm_hits(self, tmp_path):
        cold = _run("test1", tmp_path)
        warm = _run("test1", tmp_path)

        assert _identity(warm) == _identity(cold)
        # Identical search trajectory, not just an identical winner:
        # with timings off the traces must match event for event.
        assert warm.trace_events == cold.trace_events
        # The warm run actually used the disk tier.
        persistent_hits = sum(
            n for key, n in warm.telemetry.store_hits.items()
            if key.startswith("persistent.")
        )
        assert persistent_hits > 0

    def test_warm_matches_uncached_run(self, tmp_path):
        uncached = _run("test1", None)
        _run("test1", tmp_path)
        warm = _run("test1", tmp_path)
        assert _identity(warm) == _identity(uncached)
        assert warm.trace_events == uncached.trace_events

    def test_parallel_workers_share_persistent_tier(self, tmp_path):
        serial_cold = _run("test1", None)
        parallel_cold = _run("test1", tmp_path, n_workers=2)
        parallel_warm = _run("test1", tmp_path, n_workers=2)
        assert _identity(parallel_cold) == _identity(serial_cold)
        assert _identity(parallel_warm) == _identity(serial_cold)
        assert parallel_warm.trace_events == serial_cold.trace_events
        # Every sweep worker's writes reached the database before it
        # returned: the warm workers answer their lookups from disk and
        # miss none there.
        hits = parallel_warm.telemetry.store_hits
        for ns in ("module", "resynth", "schedule"):
            assert hits.get(f"persistent.{ns}", 0) > 0, ns
        misses = parallel_warm.telemetry.store_misses
        assert not [k for k in misses if k.startswith("persistent.")]

    def test_parallel_untraced_warm_run_hits_every_point(self, tmp_path):
        """Sweep workers store their points' outcomes, and a warm
        rerun answers every point from them alone."""
        serial_cold = _run("test1", None, trace=False)
        _run("test1", tmp_path, n_workers=2, trace=False)
        warm = _run("test1", tmp_path, n_workers=2, trace=False)
        assert _identity(warm) == _identity(serial_cold)
        telemetry = warm.telemetry
        points = telemetry.points_explored + telemetry.points_skipped
        assert points == (
            serial_cold.telemetry.points_explored
            + serial_cold.telemetry.points_skipped
        )
        assert telemetry.store_hits == {"persistent.point": points}
        assert not [
            k for k in telemetry.store_misses if k.startswith("persistent.")
        ]
        assert telemetry.evaluations == 0

    def test_warm_result_verifies(self, tmp_path):
        _run("test1", tmp_path)
        warm = _run("test1", tmp_path)
        check = warm.verify()
        assert check.ok


class TestExecutionKnobSharing:
    def test_parallel_run_warms_from_serial_run(self, tmp_path):
        """Execution-only knobs leave the store signature alone, so a
        2-worker run reuses what a serial run stored, bit for bit."""
        cold = _run("test1", tmp_path)
        warm = _run("test1", tmp_path, n_workers=2)
        assert _identity(warm) == _identity(cold)
        assert warm.trace_events == cold.trace_events
        # Module and resynthesis entries are keyed by the config
        # signature (schedules are not), so hits there prove it matched.
        hits = warm.telemetry.store_hits
        assert hits.get("persistent.module", 0) > 0
        assert hits.get("persistent.resynth", 0) > 0

    def test_validating_run_warms_from_plain_run(self, tmp_path):
        """A run that cross-checks delta pricing reads the module and
        resynthesis entries a plain run stored, and its search, which
        it re-prices from scratch, is the plain run's event for event."""
        cold = _run("test1", tmp_path)
        warm = _run("test1", tmp_path, validate_incremental=True)
        assert _identity(warm) == _identity(cold)
        assert warm.trace_events == cold.trace_events
        hits = warm.telemetry.store_hits
        assert hits.get("persistent.module", 0) > 0
        assert hits.get("persistent.resynth", 0) > 0


class TestRunTierSharing:
    def test_cross_point_hits_without_cache_dir(self):
        """The in-memory run tier answers across operating points."""
        result = _run("test1", None)
        run_hits = sum(
            n for key, n in result.telemetry.store_hits.items()
            if key.startswith("run.")
        )
        assert run_hits > 0


class _TaskListPickler(pickle.Pickler):
    """Solutions as releases before task blocks pickled them: the whole
    ``__dict__``, with a task list and index and no ``_blocks``."""

    def reducer_override(self, obj):
        if type(obj) is not Solution:
            return NotImplemented
        dropped = ("_blocks", "_netlist")
        state = {k: v for k, v in obj.__dict__.items() if k not in dropped}
        state["_tasks"] = obj.tasks()
        state["_task_index"] = {t.task_id: t for t in obj.tasks()}
        return copyreg.__newobj__, (Solution,), state


class _ParentFormatPickler(pickle.Pickler):
    """The release before netlist blocks: solutions without task caches
    or ``_netlist``, and netlists as their whole ``__dict__``, caches
    included (here with wrong contents)."""

    def reducer_override(self, obj):
        if type(obj) is Solution:
            dropped = ("_tasks", "_task_index", "_blocks", "_netlist")
            state = {k: v for k, v in obj.__dict__.items() if k not in dropped}
            return copyreg.__newobj__, (Solution,), state
        if isinstance(obj, DatapathNetlist):
            state = {
                "name": obj.name,
                "_components": obj._components,
                "_connections": obj._connections,
                # One source too many on every port: trusted, this cache
                # would put a mux on each and change every module's area.
                "_fanin_cache": {
                    port: n + 1 for port, n in obj.fanin_ports().items()
                },
                "_area_cache": {},
                "_sorted_conns": [],
            }
            return copyreg.__newobj__, (DatapathNetlist,), state
        return NotImplemented


def _downgrade_store(cache_dir):
    """Rewrite the stored modules the way releases before task blocks
    pickled solutions, and drop every resynthesis result, so that module
    loads hit and resynthesis misses."""
    return _rewrite_modules(cache_dir, _TaskListPickler)


def _rewrite_modules(cache_dir, pickler):
    """Re-pickle every stored module with *pickler* and drop every
    resynthesis result; returns the number of modules rewritten."""
    (path,) = Path(cache_dir).glob("*.sqlite")
    db = sqlite3.connect(path)
    try:
        rows = db.execute(
            "SELECT key, value FROM store WHERE ns = 'module'"
        ).fetchall()
        for key, blob in rows:
            buf = io.BytesIO()
            pickler(buf, pickle.HIGHEST_PROTOCOL).dump(pickle.loads(blob))
            db.execute(
                "UPDATE store SET value = ? WHERE ns = 'module' AND key = ?",
                (buf.getvalue(), key),
            )
        db.execute("DELETE FROM store WHERE ns = 'resynth'")
        db.commit()
    finally:
        db.close()
    return len(rows)


class _MemoizedSignaturePickler(pickle.Pickler):
    """Modules as the release before point outcomes pickled them: each
    carrying the store's content-signature memo as an attribute."""

    def reducer_override(self, obj):
        if type(obj) is not RTLModule:
            return NotImplemented
        state = dict(vars(obj), _store_content_sig=("syn", obj.name))
        return copyreg.__newobj__, (RTLModule,), state


def _to_parent_format(cache_dir) -> int:
    """Rewrite a store as the release before point outcomes left it:
    modules (stored and resynthesized) carry the signature memo, and
    per-candidate ``metrics`` rows sit beside them.  Returns the number
    of blobs rewritten."""
    (path,) = Path(cache_dir).glob("*.sqlite")
    db = sqlite3.connect(path)
    try:
        rows = db.execute(
            "SELECT ns, key, value FROM store WHERE ns IN ('module', 'resynth')"
        ).fetchall()
        for ns, key, blob in rows:
            buf = io.BytesIO()
            _MemoizedSignaturePickler(buf, pickle.HIGHEST_PROTOCOL).dump(
                pickle.loads(blob)
            )
            db.execute(
                "UPDATE store SET value = ? WHERE ns = ? AND key = ?",
                (buf.getvalue(), ns, key),
            )
        db.commit()
    finally:
        db.close()
    add_legacy_metrics_rows(Path(cache_dir), 3)
    return len(rows)


class TestOlderStoreFormat:
    def test_parent_store_warms_its_sub_results(self, tmp_path):
        """A store written before point outcomes, with per-candidate
        metrics rows and memo-carrying modules, serves its module,
        resynthesis and schedule entries to an untraced run, which
        stores its points beside them; the metrics rows stay inert."""
        cold = _run("test1", tmp_path)  # traced: no point entries
        assert _to_parent_format(tmp_path) > 0

        warm = _run("test1", tmp_path, trace=False)
        assert _identity(warm) == _identity(cold)
        hits = warm.telemetry.store_hits
        for ns in ("module", "resynth", "schedule"):
            assert hits.get(f"persistent.{ns}", 0) > 0, ns
        counters = hits | warm.telemetry.store_misses
        assert not [k for k in counters if k.endswith(".metrics")]
        store = SynthesisStore(cache_dir=str(tmp_path))
        entries = store.persistent_stats()["entries"]
        store.close()
        assert entries["metrics"] == 3
        assert entries["point"] == _points(warm)


    def test_modules_pickled_before_task_blocks(self, tmp_path, monkeypatch):
        """Modules from a store written before solutions carried task
        blocks still serve a warm run, whose resynthesis misses clone
        their solutions, bit-identically to the cold run."""
        cold = _run("test1", tmp_path)
        assert _downgrade_store(tmp_path) > 0

        legacy = weakref.WeakSet()
        cloned = []
        setstate, clone = Solution.__setstate__, Solution.clone

        def tracking_setstate(self, state):
            setstate(self, state)
            if "_tasks" in state:  # only the legacy form carries tasks
                legacy.add(self)

        def tracking_clone(self, *args, **kwargs):
            if self in legacy:
                cloned.append(self)
            return clone(self, *args, **kwargs)

        monkeypatch.setattr(Solution, "__setstate__", tracking_setstate)
        monkeypatch.setattr(Solution, "clone", tracking_clone)
        warm = _run("test1", tmp_path)

        assert _identity(warm) == _identity(cold)
        assert warm.trace_events == cold.trace_events
        assert warm.telemetry.store_hits.get("persistent.module", 0) > 0
        assert warm.telemetry.store_hits.get("persistent.resynth", 0) == 0
        assert cloned

    def test_modules_pickled_before_netlist_blocks(self, tmp_path, monkeypatch):
        """Modules from a store written before netlists were derived from
        blocks (netlists pickled with their caches, solutions without
        ``_netlist``) serve a warm run bit-identically to the cold run.
        The pickled caches are wrong on purpose: loading must drop them."""
        cold = _run("test1", tmp_path)
        assert _rewrite_modules(tmp_path, _ParentFormatPickler) > 0

        legacy = []
        setstate = DatapathNetlist.__setstate__

        def tracking_setstate(self, state):
            setstate(self, state)
            if "_fanin_cache" in state:  # only the parent's form has caches
                legacy.append(
                    (self._fanin_cache, dict(self._area_cache), self._sorted_conns)
                )

        monkeypatch.setattr(DatapathNetlist, "__setstate__", tracking_setstate)
        warm = _run("test1", tmp_path)

        assert _identity(warm) == _identity(cold)
        assert warm.trace_events == cold.trace_events
        assert warm.telemetry.store_hits.get("persistent.module", 0) > 0
        assert legacy
        assert all(caches == (None, {}, None) for caches in legacy)


    def test_modules_pickled_before_fixed_blob_order(self, tmp_path, monkeypatch):
        """Modules stored with their solutions' fingerprints and schedule
        keys (holding another process's ``id(dfg)``), netlist connection
        sets and cell ops frozensets serve a warm run bit-identically to
        the cold run, and load without those keys."""
        cold = _run("test1", tmp_path)
        assert _rewrite_modules(tmp_path, _EarlierFormPickler) > 0

        dropped = []
        setstate = Solution.__setstate__

        def tracking_setstate(self, state):
            setstate(self, state)
            if state.get("_fingerprint") is not None:
                dropped.append(
                    (self._fingerprint, self._fingerprint_key, self._sched_key)
                )

        monkeypatch.setattr(Solution, "__setstate__", tracking_setstate)
        warm = _run("test1", tmp_path)

        assert _identity(warm) == _identity(cold)
        assert warm.trace_events == cold.trace_events
        assert warm.telemetry.store_hits.get("persistent.module", 0) > 0
        assert dropped
        assert all(keys == (None, None, None) for keys in dropped)


def _points(result) -> int:
    telemetry = result.telemetry
    return telemetry.points_explored + telemetry.points_skipped


class TestPointOutcomes:
    """Untraced runs store each operating point's outcome, and a warm
    rerun returns it without searching."""

    def test_untraced_cold_vs_warm_identical(self, tmp_path):
        cold = _run("test1", tmp_path, trace=False)
        warm = _run("test1", tmp_path, trace=False)
        assert _identity(warm) == _identity(cold)
        assert warm.history == cold.history
        assert [
            (c.vdd, c.clk_ns, c.metrics) for c in warm.candidates
        ] == [(c.vdd, c.clk_ns, c.metrics) for c in cold.candidates]
        # Every point came from disk, and nothing was priced.
        assert cold.telemetry.store_misses["persistent.point"] == _points(cold)
        assert warm.telemetry.store_hits == {"persistent.point": _points(cold)}
        assert warm.telemetry.evaluations == 0
        assert warm.telemetry.store_writes == {}
        assert warm.verify().ok

    def test_untraced_warm_matches_traced_run(self, tmp_path):
        """Point outcomes change wall-clock, never the search."""
        traced = _run("test1", None, trace=True)
        _run("test1", tmp_path, trace=False)
        warm = _run("test1", tmp_path, trace=False)
        assert _identity(warm) == _identity(traced)

    def test_warm_solution_refers_to_this_runs_graph_and_library(
        self, tmp_path
    ):
        _run("test1", tmp_path, trace=False)
        warm = _run("test1", tmp_path, trace=False)
        for cand in warm.candidates:
            assert cand.solution.dfg is warm.design.top
            assert cand.solution.library is warm.library

    def test_traced_runs_neither_read_nor_write_points(self, tmp_path):
        """A point hit would drop the point's ``step`` events, so traced
        runs keep away from the namespace."""
        traced_cold = _run("test1", tmp_path / "traced", trace=True)
        store = SynthesisStore(cache_dir=str(tmp_path / "traced"))
        assert "point" not in store.persistent_stats()["entries"]
        store.close()
        _run("test1", tmp_path, trace=False)
        warm = _run("test1", tmp_path, trace=True)
        assert _identity(warm) == _identity(traced_cold)
        assert warm.trace_events == traced_cold.trace_events
        counters = warm.telemetry.store_hits | warm.telemetry.store_misses
        assert not [k for k in counters if k.endswith(".point")]

    def test_validating_runs_search_every_point(self, tmp_path):
        """A run that cross-checks delta pricing must price what it
        would search, so it neither reads nor writes point entries."""
        _run("test1", tmp_path, trace=False)
        validated = _run("test1", tmp_path, trace=False,
                         validate_incremental=True)
        uncached = _run("test1", None, trace=False)
        assert _identity(validated) == _identity(uncached)
        telemetry = validated.telemetry
        assert telemetry.evaluations == uncached.telemetry.evaluations > 0
        counters = telemetry.store_hits | telemetry.store_misses
        assert not [k for k in counters if k.endswith(".point")]

    @pytest.mark.parametrize(
        "change",
        [{"objective": "area"}, {"seed": 12}],
        ids=["objective", "stimulus"],
    )
    def test_a_changed_run_misses_every_point(self, tmp_path, change):
        """Objective and stimulus each change a point's key: a
        run that changes one after a default run on the same store
        misses every top-level point and equals its run without one."""
        uncached = _run("test1", None, trace=False, **change)
        _run("test1", tmp_path, trace=False)
        changed = _run("test1", tmp_path, trace=False, **change)
        assert _identity(changed) == _identity(uncached)
        assert changed.history == uncached.history
        telemetry = changed.telemetry
        assert "persistent.point" not in telemetry.store_hits
        assert telemetry.store_misses["persistent.point"] == _points(changed)

    def test_corrupt_point_blob_is_a_counted_miss(self, tmp_path):
        uncached = _run("test1", None, trace=False)
        cold = _run("test1", tmp_path, trace=False)
        db = sqlite3.connect(tmp_path / "synthesis_store.sqlite")
        db.execute("UPDATE store SET value = ? WHERE ns = 'point'",
                   (b"\x00garbage bytes\xff",))
        db.commit()
        db.close()
        with pytest.warns(RuntimeWarning, match="does not load"):
            rerun = _run("test1", tmp_path, trace=False)
        assert _identity(rerun) == _identity(uncached)
        assert pickle.dumps(rerun.metrics) == pickle.dumps(uncached.metrics)
        assert rerun.history == uncached.history
        telemetry = rerun.telemetry
        assert telemetry.store_misses["corrupt.point"] == _points(cold)
        assert telemetry.evaluations == uncached.telemetry.evaluations
        # Each point's outcome was recomputed and stored again; dropping
        # the bad blobs wrote nothing.
        assert telemetry.store_writes["commits"] == _points(cold)
        # The recomputed outcomes replaced the bad blobs.
        again = _run("test1", tmp_path, trace=False)
        assert again.telemetry.store_hits == {"persistent.point": _points(cold)}


class TestLibraryBuildPoints:
    def test_library_build_reuses_its_points(self, tmp_path):
        """The library build synthesizes each behavior untraced, so a
        second build against the store answers every point from it and
        yields an equal library."""
        from repro.dfg.canonical import library_signature
        from repro.library import default_library
        from repro.synthesis.library_gen import build_complex_library
        from repro.telemetry import Telemetry

        design = get_benchmark("test1")
        built = []
        for _ in range(2):
            telemetry = Telemetry()
            library = build_complex_library(
                design, default_library(),
                config=_config(tmp_path, trace=False),
                n_samples=SAMPLES, telemetry=telemetry,
            )
            built.append((library_signature(library), telemetry))
        (cold_sig, cold), (warm_sig, warm) = built
        assert warm_sig == cold_sig
        points = cold.store_misses["persistent.point"]
        assert points > 0
        assert warm.store_hits == {"persistent.point": points}
        assert not [
            k for k in warm.store_misses if k.startswith("persistent.")
        ]

    def test_parallel_build_is_served_without_workers(
        self, tmp_path, monkeypatch
    ):
        """Points are keyed by the sweep, not by its workers, so a
        parallel build finds every point a serial one stored, answers
        them in process and starts no pool."""
        from repro.library import default_library
        from repro.synthesis import api
        from repro.synthesis.library_gen import build_complex_library
        from repro.telemetry import Telemetry

        def build(n_workers):
            telemetry = Telemetry()
            build_complex_library(
                get_benchmark("test1"), default_library(),
                config=_config(tmp_path, n_workers, trace=False),
                n_samples=SAMPLES, telemetry=telemetry,
            )
            return telemetry

        cold = build(1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a warm sweep started worker processes")

        monkeypatch.setattr(api, "ProcessPoolExecutor", no_pool)
        warm = build(2)
        points = cold.store_misses["persistent.point"]
        assert warm.store_hits == {"persistent.point": points}
        assert warm.evaluations == 0

    def test_parallel_cold_run_writes_the_serial_keys(self, tmp_path):
        """A sweep worker signs its keys with the signature of its copy
        of the library, the parent with that of the library itself;
        lookups leave the signature alone, so the two agree and a cold
        ``n_workers=2`` test1 run, library build included, writes the
        module, resynth and schedule keys a serial run writes."""
        from repro.library import default_library
        from repro.synthesis.library_gen import build_complex_library

        def written_keys(n_workers):
            cache_dir = tmp_path / f"workers{n_workers}"
            config = _config(cache_dir, n_workers, trace=False)
            design = get_benchmark("test1")
            library = build_complex_library(
                design, default_library(), config=config, n_samples=SAMPLES
            )
            synthesize(
                design, library, laxity_factor=LAXITY, objective="power",
                traces=speech_traces(design.top, n=SAMPLES, seed=SEED),
                config=config, n_samples=SAMPLES,
            )
            keys = set()
            for path in sorted(cache_dir.glob("synthesis_store*.sqlite")):
                db = sqlite3.connect(path)
                try:
                    keys |= set(db.execute(
                        "SELECT ns, key FROM store "
                        "WHERE ns IN ('module', 'resynth', 'schedule')"
                    ))
                finally:
                    db.close()
            return keys

        serial = written_keys(1)
        assert {ns for ns, _key in serial} == {"module", "resynth", "schedule"}
        assert written_keys(2) == serial


class TestObjectiveSeparation:
    def test_area_and_power_runs_do_not_collide(self, tmp_path):
        """Warm-starting a power run from an area run's store is safe."""
        baseline = _run("test1", None, objective="area")
        _run("test1", tmp_path, objective="power")
        area_warm = _run("test1", tmp_path, objective="area")
        assert _identity(area_warm) == _identity(baseline)


def _truncate(cache_dir, _blob):
    path = cache_dir / "synthesis_store.sqlite"
    path.write_bytes(path.read_bytes()[:100])


class TestDamagedStore:
    """A damaged store degrades to recomputation: the run finishes with
    exactly the result of an uncached run (untraced, so the metrics
    namespace is in play next to module, resynth and schedule)."""

    @pytest.mark.parametrize(
        "damage, blob, warning",
        [
            (_overwrite_blobs, b"\x00garbage bytes\xff", "does not load"),
            (_overwrite_blobs, _GONE_CLASS, "does not load"),
            (_truncate, None, "does not open"),
        ],
        ids=["garbage-blobs", "gone-class", "truncated-db"],
    )
    def test_damaged_store_matches_uncached_run(
        self, tmp_path, damage, blob, warning
    ):
        uncached = _run("test1", None, trace=False)
        _run("test1", tmp_path, trace=False)
        damage(tmp_path, blob)
        with pytest.warns(RuntimeWarning, match=warning):
            damaged = _run("test1", tmp_path, trace=False)
        assert _identity(damaged) == _identity(uncached)
        misses = damaged.telemetry.store_misses
        if blob is None:
            assert misses["fallback.persistent"] == 1
        else:
            assert {"corrupt.module", "corrupt.schedule"} <= set(misses)


    def test_failed_writes_match_uncached_run(self, tmp_path, failing_writes):
        """A database that refuses every write: the run still finishes
        with the uncached result, counts each dropped batch and warns
        once."""
        uncached = _run("test1", None, trace=False)
        injected = failing_writes(10**6, "attempt to write a readonly database")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            failed = _run("test1", tmp_path, trace=False)
        assert _identity(failed) == _identity(uncached)
        assert injected
        telemetry = failed.telemetry
        assert telemetry.store_misses["failed.persistent"] == len(injected)
        assert telemetry.store_writes == {}
        messages = [str(w.message) for w in caught]
        assert len(messages) == 1 and "failed" in messages[0]
        store = SynthesisStore(cache_dir=str(tmp_path))
        assert store.persistent_stats()["total_entries"] == 0
        store.close()


#: Runs ``repro synth`` with the store's point blocks wrapped: when the
#: first one ends (its batch committed), list the committed keys into
#: the marker file and wait to be killed.
_STOP_AFTER_FIRST_POINT = """
import contextlib, json, sqlite3, sys, time
from repro.cli import main
from repro.synthesis.store import SynthesisStore

marker, cache_dir = sys.argv[1], sys.argv[2]
buffered = SynthesisStore.buffered

@contextlib.contextmanager
def first_point_then_wait(self):
    with buffered(self):
        yield self
    db = sqlite3.connect(f"{cache_dir}/synthesis_store.sqlite")
    keys = db.execute("SELECT ns, key FROM store").fetchall()
    db.close()
    with open(marker, "w") as out:
        json.dump(keys, out)
    print("point ended", flush=True)
    time.sleep(600)

SynthesisStore.buffered = first_point_then_wait
sys.exit(main(["synth", "--benchmark", "test1", "--laxity", "2.2",
               "--cache-dir", cache_dir]))
"""


def _cli_env() -> dict[str, str]:
    env = dict(os.environ)
    root = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), env.get("PYTHONPATH", "")]
    )
    return env


def _metric_lines(args: list[str]) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "synth", "--benchmark", "test1",
         "--laxity", "2.2", *args],
        env=_cli_env(), capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return [
        line for line in proc.stdout.splitlines()
        if line.split(":")[0] in ("objective", "area", "power", "supply",
                                  "clock", "schedule", "sampling")
    ]


class TestKilledRun:
    def test_sigkill_after_first_point_leaves_a_usable_store(self, tmp_path):
        """A run killed once its first point committed: the store opens,
        every blob loads, that point's entries are there, and a rerun
        gives the uncached result."""
        cache_dir = tmp_path / "store"
        marker = tmp_path / "first-point.json"
        proc = subprocess.Popen(
            [sys.executable, "-c", _STOP_AFTER_FIRST_POINT, str(marker),
             str(cache_dir)],
            env=_cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        guard = threading.Timer(600, proc.kill)
        guard.start()
        try:
            line = proc.stdout.readline()
            proc.kill()
            _out, err = proc.communicate(timeout=60)
        finally:
            guard.cancel()
        assert line.strip() == "point ended", err[-2000:]
        assert proc.returncode == -signal.SIGKILL

        committed = {tuple(key) for key in json.loads(marker.read_text())}
        assert committed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store = SynthesisStore(cache_dir=str(cache_dir))
        assert store.persistent
        rows = store._dbs[0].execute(
            "SELECT ns, key, value FROM store"
        ).fetchall()
        store.close()
        assert committed <= {(ns, key) for ns, key, _value in rows}
        for _ns, _key, value in rows:
            pickle.loads(value)

        rerun = _metric_lines(["--cache-dir", str(cache_dir)])
        assert rerun
        assert rerun == _metric_lines([])


@pytest.mark.slow
class TestSecondBenchmark:
    def test_paulin_cold_vs_warm(self, tmp_path):
        cold = _run("paulin", tmp_path)
        warm = _run("paulin", tmp_path)
        assert _identity(warm) == _identity(cold)
        assert warm.trace_events == cold.trace_events
