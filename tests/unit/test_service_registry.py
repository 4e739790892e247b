"""Unit tests for the SQLite job registry (lifecycle + concurrency)."""

import json
import sqlite3
import subprocess
import sys

import pytest

from repro.errors import ServiceError
from repro.service import JobRegistry
from repro.service import registry as registry_module

REQUEST = {"gen_seed": 1, "laxity_factor": 2.0}


@pytest.fixture
def registry(tmp_path):
    reg = JobRegistry(tmp_path)
    yield reg
    reg.close()


class TestLifecycle:
    def test_create_and_get_round_trip(self, registry):
        record = registry.create(REQUEST, "fp1")
        fetched = registry.get(record.job_id)
        assert fetched is not None
        assert fetched.state == "queued"
        assert fetched.request == REQUEST
        assert fetched.fingerprint == "fp1"
        assert fetched.clients == 1

    def test_unknown_job_is_none(self, registry):
        assert registry.get("nope") is None

    def test_mark_running_only_from_queued(self, registry):
        record = registry.create(REQUEST, "fp1")
        registry.mark_running(record.job_id)
        assert registry.get(record.job_id).state == "running"
        registry.finish(record.job_id, {"area": 1.0})
        # A late mark_running must not resurrect a finished job.
        registry.mark_running(record.job_id)
        assert registry.get(record.job_id).state == "done"

    def test_finish_attaches_result(self, registry):
        record = registry.create(REQUEST, "fp1")
        registry.finish(record.job_id, {"area": 1.0})
        done = registry.get(record.job_id)
        assert done.state == "done"
        assert done.result == {"area": 1.0}
        assert done.finished_at is not None

    def test_fail_attaches_error(self, registry):
        record = registry.create(REQUEST, "fp1")
        registry.fail(record.job_id, "boom")
        failed = registry.get(record.job_id)
        assert failed.state == "failed"
        assert failed.error == "boom"
        assert failed.result is None

    def test_create_done_for_store_served_jobs(self, registry):
        record = registry.create(
            REQUEST, "fp1", state="done", result={"area": 2.0},
            served_from_store=True,
        )
        fetched = registry.get(record.job_id)
        assert fetched.state == "done"
        assert fetched.served_from_store
        assert fetched.finished_at is not None

    def test_create_rejects_unknown_state(self, registry):
        with pytest.raises(ServiceError, match="unknown job state"):
            registry.create(REQUEST, "fp1", state="pending")

    def test_add_client_counts_coalesced_duplicates(self, registry):
        record = registry.create(REQUEST, "fp1")
        registry.add_client(record.job_id)
        registry.add_client(record.job_id)
        assert registry.get(record.job_id).clients == 3


class TestCoalesceLookup:
    def test_active_for_finds_queued_and_running(self, registry):
        record = registry.create(REQUEST, "fp1")
        assert registry.active_for("fp1").job_id == record.job_id
        registry.mark_running(record.job_id)
        assert registry.active_for("fp1").job_id == record.job_id

    def test_finished_jobs_are_not_active(self, registry):
        record = registry.create(REQUEST, "fp1")
        registry.fail(record.job_id, "boom")
        assert registry.active_for("fp1") is None

    def test_distinct_fingerprints_do_not_coalesce(self, registry):
        registry.create(REQUEST, "fp1")
        assert registry.active_for("fp2") is None

    def test_counts_and_queue_depth(self, registry):
        a = registry.create(REQUEST, "fp1")
        registry.create(REQUEST, "fp2")
        registry.mark_running(a.job_id)
        assert registry.counts() == {
            "queued": 1, "running": 1, "done": 0, "failed": 0,
        }
        assert registry.queue_depth() == 2


class TestRetention:
    def test_prune_drops_oldest_finished_and_artifacts(self, registry):
        ids = []
        for i in range(4):
            record = registry.create(REQUEST, f"fp{i}")
            registry.finish(record.job_id, {"i": i})
            ids.append(record.job_id)
        registry.progress_path(ids[0]).write_text('{"k": "job_start"}\n')
        live = registry.create(REQUEST, "fp-live")
        assert registry.prune(max_finished=2) == 2
        # Oldest two finished jobs gone, newest two and the live job kept.
        assert registry.get(ids[0]) is None
        assert registry.get(ids[1]) is None
        assert registry.get(ids[2]) is not None
        assert registry.get(ids[3]) is not None
        assert registry.get(live.job_id).state == "queued"
        assert not registry.progress_path(ids[0]).exists()

    def test_prune_noop_under_bound(self, registry):
        record = registry.create(REQUEST, "fp1")
        registry.finish(record.job_id, {})
        assert registry.prune(max_finished=5) == 0

    def test_prune_rejects_negative(self, registry):
        with pytest.raises(ServiceError):
            registry.prune(-1)


class TestProgress:
    def test_progress_empty_before_start(self, registry):
        record = registry.create(REQUEST, "fp1")
        assert registry.progress(record.job_id) == []

    def test_progress_parses_events(self, registry):
        record = registry.create(REQUEST, "fp1")
        path = registry.progress_path(record.job_id)
        path.write_text(
            json.dumps({"k": "job_start"}) + "\n"
            + json.dumps({"k": "synthesized", "area": 1.0}) + "\n"
        )
        events = registry.progress(record.job_id)
        assert [e["k"] for e in events] == ["job_start", "synthesized"]

    def test_torn_final_line_is_invisible_not_fatal(self, registry):
        record = registry.create(REQUEST, "fp1")
        registry.progress_path(record.job_id).write_text(
            json.dumps({"k": "job_start"}) + "\n" + '{"k": "synth'
        )
        assert [e["k"] for e in registry.progress(record.job_id)] == \
            ["job_start"]


class TestSchemaVersion:
    def test_version_mismatch_drops_rows(self, tmp_path):
        first = JobRegistry(tmp_path)
        first.create(REQUEST, "fp1")
        with first._lock:
            first._db.execute(
                "UPDATE meta SET value = '0' WHERE key = 'schema_version'"
            )
            first._db.commit()
        first.close()
        reopened = JobRegistry(tmp_path)
        assert reopened.counts()["queued"] == 0
        reopened.close()


_WRITER_SCRIPT = """
import sys
from repro.service import JobRegistry

root, tag, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
registry = JobRegistry(root)
ids = []
for i in range(n):
    record = registry.create({"gen_seed": i}, f"{tag}-fp{i}")
    registry.mark_running(record.job_id)
    registry.finish(record.job_id, {"tag": tag, "i": i})
    ids.append(record.job_id)
# Also hammer the read-modify-write path against the other process.
for job_id in ids:
    registry.add_client(job_id)
registry.close()
print(f"{tag} done")
"""


class TestOpen:
    def test_retries_a_locked_journal_switch(
        self, tmp_path, locked_journal_switch
    ):
        """A second process opening the same fresh registry can make
        the WAL switch fail at once; opening retries it."""
        injected = locked_journal_switch(1)
        registry = JobRegistry(tmp_path)
        assert len(injected) == 1
        record = registry.create(REQUEST, "fp1")
        assert registry.get(record.job_id).state == "queued"
        registry.close()

    def test_raises_when_the_lock_lasts(self, tmp_path, locked_journal_switch):
        injected = locked_journal_switch(100)
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            JobRegistry(tmp_path)
        assert len(injected) == registry_module._WRITE_RETRIES


class TestConcurrentWriterProcesses:
    def test_two_processes_one_registry(self, tmp_path):
        """Two writer processes drive full job lifecycles on one registry.

        Jobs have disjoint ids (uuid) and fingerprints, so the registry
        must end up with every row intact — no lost updates, no locked-
        database failures escaping the retry layer.
        """
        n = 25
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER_SCRIPT,
                 str(tmp_path), tag, str(n)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for tag in ("w1", "w2")
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert "done" in out

        registry = JobRegistry(tmp_path)
        counts = registry.counts()
        assert counts["done"] == 2 * n
        assert counts["queued"] == counts["running"] == counts["failed"] == 0
        registry.close()
