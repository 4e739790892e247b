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
from repro.rtl import DatapathNetlist, emit_netlist
from repro.synthesis import Solution, SynthesisConfig, synthesize
from repro.synthesis.store import SynthesisStore

from tests.unit.test_blob_determinism import _EarlierFormPickler
from tests.unit.test_store import _GONE_CLASS, _overwrite_blobs

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
         **overrides):
    design = get_benchmark(circuit)
    traces = speech_traces(design.top, n=SAMPLES, seed=SEED)
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
        # Untraced runs share top-level metrics as well.
        _run("test1", tmp_path / "untraced", n_workers=2, trace=False)
        untraced_warm = _run(
            "test1", tmp_path / "untraced", n_workers=2, trace=False
        )
        assert _identity(untraced_warm) == _identity(serial_cold)
        # Every sweep worker's writes reached the database before it
        # returned: the warm workers answer their lookups from disk and
        # miss none there.
        for warm, namespaces in (
            (parallel_warm, ("module", "resynth", "schedule")),
            (untraced_warm, ("metrics", "module", "resynth")),
        ):
            hits = warm.telemetry.store_hits
            for ns in namespaces:
                assert hits.get(f"persistent.{ns}", 0) > 0, ns
            misses = warm.telemetry.store_misses
            assert not [k for k in misses if k.startswith("persistent.")]

    def test_warm_result_verifies(self, tmp_path):
        _run("test1", tmp_path)
        warm = _run("test1", tmp_path)
        check = warm.verify()
        assert check.ok


class TestExecutionKnobSharing:
    @pytest.mark.parametrize("knob", ["batch_activity"])
    def test_knob_off_run_warms_from_default_run(self, tmp_path, knob):
        """Execution knobs leave the store signature alone, so a run with
        the knob off reuses what a default run stored, bit for bit."""
        cold = _run("test1", tmp_path)
        warm = _run("test1", tmp_path, **{knob: False})
        assert _identity(warm) == _identity(cold)
        assert warm.trace_events == cold.trace_events
        # Module and resynthesis entries are keyed by the config
        # signature (schedules are not), so hits there prove it matched.
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


class TestOlderStoreFormat:
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


class TestMetricsSharing:
    """Untraced runs additionally warm-start the pricing layer itself."""

    def test_untraced_cold_vs_warm_identical(self, tmp_path):
        cold = _run("test1", tmp_path, trace=False)
        warm = _run("test1", tmp_path, trace=False)
        assert _identity(warm) == _identity(cold)
        # The warm run answered top-level evaluations from disk.
        assert warm.telemetry.store_hits.get("persistent.metrics", 0) > 0

    def test_untraced_warm_matches_traced_run(self, tmp_path):
        """Metrics sharing changes wall-clock, never the search."""
        traced = _run("test1", None, trace=True)
        _run("test1", tmp_path, trace=False)
        warm = _run("test1", tmp_path, trace=False)
        assert _identity(warm) == _identity(traced)

    def test_traced_top_level_pricing_never_shares(self, tmp_path):
        """Counted evaluations must run under tracing (step events
        snapshot their counter deltas), so a traced warm run computes
        them even when the store could answer."""
        _run("paulin", tmp_path, trace=False)
        warm = _run("paulin", tmp_path, trace=True)
        # paulin is resynthesis-free, so any metrics counter would have
        # to come from the (forbidden) traced top-level context.
        assert warm.telemetry.store_hits.get("persistent.metrics", 0) == 0
        assert warm.telemetry.store_misses.get("run.metrics", 0) == 0


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
