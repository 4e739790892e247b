"""SQLite-backed job registry shared by server, workers and CLI tools.

The registry is the durable side of the job server: one ``jobs`` table
(in its own database file next to the synthesis store's shards, inside
the service cache directory) holding every job's request, lifecycle
timestamps, and — for finished jobs — the result JSON or error string.

Concurrent-writer hardening mirrors (and goes beyond) the store tier's
sweep-worker setup: WAL journaling with a generous busy timeout,
``BEGIN IMMEDIATE`` transactions for read-modify-write updates (the
coalesce counter), and bounded retries on transient ``database is
locked`` failures, of every write and of the set-up on open, so a
server, its workers, and ``repro status`` probes in other processes
can all open and touch one registry safely.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
import uuid
from pathlib import Path
from typing import Any

from ..errors import ServiceError
from .jobs import JOB_STATES, JobRecord

__all__ = ["JobRegistry", "REGISTRY_SCHEMA_VERSION"]

#: Bumped when the jobs-table layout changes incompatibly; a registry
#: recorded under a different version is dropped on open (job rows are
#: operational state, not data of record).
REGISTRY_SCHEMA_VERSION = 1

_DB_NAME = "service_jobs.sqlite"

_WRITE_RETRIES = 5
_WRITE_RETRY_SLEEP_S = 0.02


class JobRegistry:
    """Durable job table with store-grade concurrent-writer hardening."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Per-job artifacts (progress lines, search traces) live here,
        #: one file per job id, so they stream without dragging large
        #: blobs through the jobs table.
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(exist_ok=True)
        self.path = self.root / _DB_NAME
        self._lock = threading.Lock()
        self._db = sqlite3.connect(
            self.path, timeout=30.0, check_same_thread=False
        )
        attempt = 0
        while True:
            try:
                self._init_schema()
                break
            except sqlite3.OperationalError as exc:
                # Two processes opening a fresh registry at once: the
                # journal-mode switch can fail at once with "database is
                # locked" (the busy timeout does not cover it).  Every
                # set-up statement is idempotent, so it simply reruns.
                attempt += 1
                transient = "locked" in str(exc) or "busy" in str(exc)
                if not transient or attempt == _WRITE_RETRIES:
                    self._db.close()
                    raise
                try:
                    self._db.rollback()
                except sqlite3.Error:
                    pass
                time.sleep(_WRITE_RETRY_SLEEP_S * attempt)

    def _init_schema(self) -> None:
        db = self._db
        db.execute("PRAGMA journal_mode=WAL")
        db.execute("PRAGMA synchronous=NORMAL")
        db.execute("PRAGMA busy_timeout=30000")
        db.execute(
            "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
        )
        db.execute(
            "CREATE TABLE IF NOT EXISTS jobs ("
            " job_id TEXT PRIMARY KEY,"
            " fingerprint TEXT NOT NULL,"
            " state TEXT NOT NULL,"
            " request TEXT NOT NULL,"
            " submitted_at REAL NOT NULL,"
            " started_at REAL,"
            " finished_at REAL,"
            " error TEXT,"
            " result TEXT,"
            " served_from_store INTEGER NOT NULL DEFAULT 0,"
            " clients INTEGER NOT NULL DEFAULT 1)"
        )
        db.execute(
            "CREATE INDEX IF NOT EXISTS jobs_fingerprint"
            " ON jobs (fingerprint, state)"
        )
        row = db.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            db.execute(
                "INSERT OR IGNORE INTO meta VALUES ('schema_version', ?)",
                (str(REGISTRY_SCHEMA_VERSION),),
            )
        elif row[0] != str(REGISTRY_SCHEMA_VERSION):
            db.execute("DELETE FROM jobs")
            db.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(REGISTRY_SCHEMA_VERSION),),
            )
        db.commit()

    # ------------------------------------------------------------------
    # Write path (retry-hardened)
    # ------------------------------------------------------------------
    def _write(self, sql: str, params: tuple, immediate: bool = False) -> None:
        """Execute one write, retrying transient writer contention."""
        last: Exception | None = None
        for attempt in range(_WRITE_RETRIES):
            try:
                with self._lock:
                    if immediate:
                        # Take the writer lock up front so the whole
                        # read-modify-write statement is atomic against
                        # other processes.
                        self._db.execute("BEGIN IMMEDIATE")
                    self._db.execute(sql, params)
                    self._db.commit()
                return
            except sqlite3.OperationalError as exc:
                last = exc
                if "locked" not in str(exc) and "busy" not in str(exc):
                    break
                with self._lock:
                    try:
                        self._db.rollback()
                    except sqlite3.Error:
                        pass
                time.sleep(_WRITE_RETRY_SLEEP_S * (attempt + 1))
            except sqlite3.Error as exc:
                last = exc
                break
        raise ServiceError(f"job registry write failed: {last}")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def create(
        self,
        request: dict[str, Any],
        fingerprint: str,
        state: str = "queued",
        result: dict[str, Any] | None = None,
        served_from_store: bool = False,
    ) -> JobRecord:
        """Insert a new job row and return its record (fresh job id)."""
        if state not in JOB_STATES:
            raise ServiceError(f"unknown job state {state!r}")
        now = time.time()
        record = JobRecord(
            job_id=uuid.uuid4().hex[:16],
            fingerprint=fingerprint,
            state=state,
            request=request,
            submitted_at=now,
            finished_at=now if state in ("done", "failed") else None,
            result=result,
            served_from_store=served_from_store,
        )
        self._write(
            "INSERT INTO jobs (job_id, fingerprint, state, request,"
            " submitted_at, started_at, finished_at, error, result,"
            " served_from_store, clients)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                record.job_id, record.fingerprint, record.state,
                json.dumps(record.request, sort_keys=True),
                record.submitted_at, record.started_at, record.finished_at,
                record.error,
                json.dumps(record.result, sort_keys=True)
                if record.result is not None else None,
                int(record.served_from_store), record.clients,
            ),
        )
        return record

    def mark_running(self, job_id: str) -> None:
        """``queued`` → ``running`` (a worker process took the job)."""
        self._write(
            "UPDATE jobs SET state = 'running', started_at = ?"
            " WHERE job_id = ? AND state = 'queued'",
            (time.time(), job_id),
        )

    def finish(self, job_id: str, result: dict[str, Any]) -> None:
        """Attach a result and move the job to ``done``."""
        self._write(
            "UPDATE jobs SET state = 'done', finished_at = ?, result = ?"
            " WHERE job_id = ?",
            (time.time(), json.dumps(result, sort_keys=True), job_id),
        )

    def fail(self, job_id: str, error: str) -> None:
        """Attach an error and move the job to ``failed``."""
        self._write(
            "UPDATE jobs SET state = 'failed', finished_at = ?, error = ?"
            " WHERE job_id = ?",
            (time.time(), error, job_id),
        )

    def add_client(self, job_id: str) -> None:
        """Count one coalesced duplicate submission onto a live job."""
        self._write(
            "UPDATE jobs SET clients = clients + 1 WHERE job_id = ?",
            (job_id,),
            immediate=True,
        )

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _row_to_record(self, row: tuple) -> JobRecord:
        return JobRecord(
            job_id=row[0],
            fingerprint=row[1],
            state=row[2],
            request=json.loads(row[3]),
            submitted_at=row[4],
            started_at=row[5],
            finished_at=row[6],
            error=row[7],
            result=json.loads(row[8]) if row[8] is not None else None,
            served_from_store=bool(row[9]),
            clients=row[10],
        )

    _COLUMNS = (
        "job_id, fingerprint, state, request, submitted_at, started_at,"
        " finished_at, error, result, served_from_store, clients"
    )

    def get(self, job_id: str) -> JobRecord | None:
        """The record of one job, or ``None`` for unknown ids."""
        with self._lock:
            row = self._db.execute(
                f"SELECT {self._COLUMNS} FROM jobs WHERE job_id = ?",
                (job_id,),
            ).fetchone()
        return self._row_to_record(row) if row is not None else None

    def active_for(self, fingerprint: str) -> JobRecord | None:
        """The queued/running job for *fingerprint*, if any (coalescing)."""
        with self._lock:
            row = self._db.execute(
                f"SELECT {self._COLUMNS} FROM jobs"
                " WHERE fingerprint = ? AND state IN ('queued', 'running')"
                " ORDER BY submitted_at LIMIT 1",
                (fingerprint,),
            ).fetchone()
        return self._row_to_record(row) if row is not None else None

    def counts(self) -> dict[str, int]:
        """Jobs per state (absent states are reported as zero)."""
        with self._lock:
            rows = self._db.execute(
                "SELECT state, COUNT(*) FROM jobs GROUP BY state"
            ).fetchall()
        counts = {state: 0 for state in JOB_STATES}
        counts.update(dict(rows))
        return counts

    def queue_depth(self) -> int:
        """Jobs submitted but not yet finished (queued + running)."""
        counts = self.counts()
        return counts["queued"] + counts["running"]

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def prune(self, max_finished: int) -> int:
        """Drop oldest finished jobs beyond *max_finished* (and their
        artifact files); live jobs are never touched."""
        if max_finished < 0:
            raise ServiceError(
                f"max_finished must be >= 0, got {max_finished}"
            )
        with self._lock:
            victims = self._db.execute(
                "SELECT job_id FROM jobs WHERE state IN ('done', 'failed')"
                " ORDER BY finished_at DESC, job_id LIMIT -1 OFFSET ?",
                (max_finished,),
            ).fetchall()
        if not victims:
            return 0
        for (job_id,) in victims:
            self._write("DELETE FROM jobs WHERE job_id = ?", (job_id,))
            for suffix in ("progress.jsonl", "trace.jsonl"):
                artifact = self.jobs_dir / f"{job_id}.{suffix}"
                if artifact.exists():
                    artifact.unlink()
        return len(victims)

    # ------------------------------------------------------------------
    # Per-job artifacts
    # ------------------------------------------------------------------
    def progress_path(self, job_id: str) -> Path:
        """Where the worker appends the job's progress JSONL lines."""
        return self.jobs_dir / f"{job_id}.progress.jsonl"

    def trace_path(self, job_id: str) -> Path:
        """Where the worker writes the job's full search trace."""
        return self.jobs_dir / f"{job_id}.trace.jsonl"

    def progress(self, job_id: str) -> list[dict[str, Any]]:
        """Parsed progress events of one job (empty before it starts)."""
        path = self.progress_path(job_id)
        if not path.exists():
            return []
        events = []
        for line in path.read_text().splitlines():
            line = line.strip()
            if line:
                try:
                    events.append(json.loads(line))
                except json.JSONDecodeError:
                    # A worker may be mid-append; a torn final line is
                    # not an error, it simply isn't visible yet.
                    break
        return events

    def close(self) -> None:
        """Close the registry connection (idempotent)."""
        if self._db is not None:
            self._db.close()
