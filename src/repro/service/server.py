"""The asyncio HTTP/JSON job server (``repro serve``).

One :class:`SynthesisService` owns the three moving parts of the
service: the durable :class:`~repro.service.registry.JobRegistry`, the
shared :class:`~repro.synthesis.store.SynthesisStore` (whose
``service`` namespace holds completed result blobs), and a pool of
worker processes running :func:`~repro.service.worker.run_job`.  The
HTTP layer is deliberately tiny — stdlib asyncio streams, one request
per connection, JSON in and out — so the service adds no dependencies.

Endpoints (full reference with examples: ``docs/SERVICE.md``)::

    GET  /healthz          liveness probe
    GET  /stats            service counters + queue depths + store stats
    POST /jobs             submit a job (JSON JobRequest body)
    GET  /jobs/<id>        job status + progress events
    GET  /jobs/<id>/result full result JSON (done jobs only)
    GET  /jobs/<id>/trace  recorded search trace (JSONL, traced jobs)

Submission resolves the request to its canonical fingerprint first and
then takes the cheapest path that answers it: attach to an in-flight
job with the same fingerprint (request coalescing), answer from the
persistent store (completed earlier, any process), or dispatch to the
worker pool.  Worker slots are gated by a semaphore so a queued job
stays ``queued`` in the registry until a worker actually takes it.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..errors import ReproError, ServiceError
from ..library.library import default_library
from ..reporting.sweep import quick_config
from ..synthesis.context import SynthesisConfig
from ..synthesis.store import MISSING, STORE_SCHEMA_VERSION, SynthesisStore
from .jobs import JobRequest, request_fingerprint, resolve_job_design
from .registry import JobRegistry
from .worker import run_job

__all__ = ["ServiceConfig", "ServiceStats", "SynthesisService"]


@dataclass
class ServiceConfig:
    """Placement and sizing knobs of one server instance."""

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral free port (see ``bound_port``).
    port: int = 8000
    #: Worker processes synthesizing jobs concurrently.
    workers: int = 1
    #: Registry + store directory (the service's durable state).
    cache_dir: str = ".repro-service"
    #: Persistent-tier shard count (``None`` auto-detects the layout).
    store_shards: int | None = None
    #: Run jobs in worker *processes* (the default).  Thread mode exists
    #: for platforms without process pools and for hermetic tests.
    use_processes: bool = True
    #: Reject request bodies larger than this (a design text should be
    #: kilobytes; anything bigger is a client bug or abuse).
    max_request_bytes: int = 16 << 20
    #: When set, prune the registry to this many finished jobs at boot.
    prune_jobs: int | None = None
    #: When set, prune the persistent store to this many entries at boot.
    prune_store: int | None = None


@dataclass
class ServiceStats:
    """Service-level counters (the ``/stats`` endpoint's ``counters``)."""

    jobs_submitted: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    #: Submissions attached to an already queued/running identical job.
    coalesce_hits: int = 0
    #: Submissions answered from the persistent store's ``service``
    #: namespace without touching the worker pool.
    store_hits: int = 0
    #: Jobs actually dispatched to a worker (cold synthesis runs).
    synth_runs: int = 0
    rejected: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-data view for the ``/stats`` payload."""
        return {
            "jobs_submitted": self.jobs_submitted,
            "jobs_completed": self.jobs_completed,
            "jobs_failed": self.jobs_failed,
            "coalesce_hits": self.coalesce_hits,
            "store_hits": self.store_hits,
            "synth_runs": self.synth_runs,
            "rejected": self.rejected,
        }


@dataclass
class _Response:
    """One HTTP response: status, JSON payload or raw body."""

    status: int
    payload: Any = None
    body: bytes | None = None
    content_type: str = "application/json"


_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            413: "Payload Too Large", 500: "Internal Server Error"}


class SynthesisService:
    """Job server state machine + asyncio HTTP front end."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.registry = JobRegistry(self.config.cache_dir)
        self.store = SynthesisStore(
            cache_dir=self.config.cache_dir,
            shards=self.config.store_shards,
        )
        self.stats = ServiceStats()
        #: fingerprint → job id of the queued/running job, for O(1)
        #: coalescing inside this server process.
        self._inflight: dict[str, str] = {}
        self._base_library = default_library()
        #: Fingerprints use the effort-resolved engine config; cache
        #: knobs are execution-only and excluded from its signature.
        self._effort_configs: dict[str, SynthesisConfig] = {
            "quick": quick_config(),
            "full": SynthesisConfig(),
        }
        self._executor: Executor | None = None
        self._slots: asyncio.Semaphore | None = None
        self._server: asyncio.AbstractServer | None = None
        self._tasks: set[asyncio.Task] = set()
        self.bound_port: int | None = None
        if self.config.prune_jobs is not None:
            self.registry.prune(self.config.prune_jobs)
        if self.config.prune_store is not None:
            self.store.prune_persistent(self.config.prune_store)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _make_executor(self) -> Executor:
        workers = max(1, self.config.workers)
        if self.config.use_processes:
            try:
                return ProcessPoolExecutor(max_workers=workers)
            except (OSError, ImportError, ValueError):
                # Platforms without process support degrade to threads —
                # same results, shared GIL.
                pass
        return ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-job"
        )

    async def start(self) -> None:
        """Bind the listening socket and start accepting requests."""
        if self._server is not None:
            raise ServiceError("service already started")
        self._executor = self._make_executor()
        self._slots = asyncio.Semaphore(max(1, self.config.workers))
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.bound_port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self, announce: bool = True) -> None:
        """Start (if needed), print the bound address, serve until stopped."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        if announce:
            print(
                f"repro service listening on "
                f"http://{self.config.host}:{self.bound_port} "
                f"({self.config.workers} worker(s), "
                f"cache {self.config.cache_dir})",
                flush=True,
            )
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting, wait for dispatched jobs, release resources."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self.registry.close()
        self.store.close()

    # ------------------------------------------------------------------
    # HTTP front end
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            response = await self._read_and_route(reader)
        except (ConnectionError, asyncio.IncompleteReadError):
            writer.close()
            return
        except Exception as exc:  # never kill the accept loop
            response = _Response(500, {"error": f"internal error: {exc}"})
        body = (
            response.body
            if response.body is not None
            else json.dumps(response.payload, sort_keys=True).encode()
        )
        reason = _REASONS.get(response.status, "Unknown")
        head = (
            f"HTTP/1.1 {response.status} {reason}\r\n"
            f"Content-Type: {response.content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode()
        try:
            writer.write(head + body)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def _read_and_route(self, reader: asyncio.StreamReader) -> _Response:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            return _Response(400, {"error": "empty request"})
        try:
            method, target, _version = request_line.split()
        except ValueError:
            return _Response(400, {"error": "malformed request line"})
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > self.config.max_request_bytes:
            self.stats.rejected += 1
            return _Response(413, {"error": "request body too large"})
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        return self._route(method, path, body)

    def _route(self, method: str, path: str, body: bytes) -> _Response:
        if path == "/healthz" and method == "GET":
            return _Response(200, {"ok": True, "store_schema":
                                   STORE_SCHEMA_VERSION})
        if path == "/stats" and method == "GET":
            return _Response(200, self._stats_payload())
        if path == "/jobs" and method == "POST":
            try:
                payload = json.loads(body.decode() or "null")
            except (json.JSONDecodeError, UnicodeDecodeError):
                self.stats.rejected += 1
                return _Response(400, {"error": "request body is not JSON"})
            try:
                return self.submit(payload)
            except ReproError as exc:
                self.stats.rejected += 1
                return _Response(400, {"error": str(exc)})
        if path.startswith("/jobs/"):
            if method != "GET":
                return _Response(405, {"error": f"{method} not allowed"})
            parts = path[len("/jobs/"):].split("/")
            job_id = parts[0]
            record = self.registry.get(job_id)
            if record is None:
                return _Response(404, {"error": f"unknown job {job_id!r}"})
            if len(parts) == 1:
                status = record.as_dict()
                status["progress"] = self.registry.progress(job_id)
                return _Response(200, status)
            if parts[1:] == ["result"]:
                if record.state != "done":
                    return _Response(
                        404,
                        {"error": f"job {job_id} is {record.state}, "
                                  "result not available"},
                    )
                return _Response(200, record.as_dict(include_result=True))
            if parts[1:] == ["trace"]:
                trace_path = self.registry.trace_path(job_id)
                if not trace_path.exists():
                    return _Response(
                        404,
                        {"error": f"job {job_id} has no recorded trace "
                                  "(submit with \"trace\": true)"},
                    )
                return _Response(
                    200,
                    body=trace_path.read_bytes(),
                    content_type="application/x-ndjson",
                )
        return _Response(404, {"error": f"no route for {method} {path}"})

    def _stats_payload(self) -> dict[str, Any]:
        counts = self.registry.counts()
        return {
            "counters": self.stats.as_dict(),
            "queue": {
                **counts,
                "depth": counts["queued"] + counts["running"],
                "inflight": len(self._inflight),
            },
            "workers": self.config.workers,
            "store": self.store.persistent_stats(),
        }

    # ------------------------------------------------------------------
    # Submission: coalesce → store → dispatch
    # ------------------------------------------------------------------
    def submit(self, payload: Any) -> _Response:
        """Handle one ``POST /jobs`` body (runs in the event loop)."""
        request = JobRequest.from_dict(payload)
        design = resolve_job_design(request)
        fingerprint = request_fingerprint(
            request, design, self._base_library,
            self._effort_configs[request.effort],
        )
        self.stats.jobs_submitted += 1

        # 1. Coalesce onto this server's in-flight job...
        job_id = self._inflight.get(fingerprint)
        record = self.registry.get(job_id) if job_id is not None else None
        if record is None or record.state not in ("queued", "running"):
            # ...or onto another server instance's live job on the same
            # registry (its owner finishes it; we only report status).
            record = self.registry.active_for(fingerprint)
        if record is not None:
            self.registry.add_client(record.job_id)
            self.stats.coalesce_hits += 1
            return _Response(200, {
                "job_id": record.job_id,
                "state": record.state,
                "coalesced": True,
                "served_from_store": False,
            })

        # 2. Serve a completed identical request from the store.
        cached = self.store.get("service", fingerprint)
        if cached is MISSING:
            content = ("service", STORE_SCHEMA_VERSION, fingerprint)
            cached = self.store.fetch("service", fingerprint, content)
        if cached is not MISSING:
            record = self.registry.create(
                request.to_dict(), fingerprint, state="done",
                result=cached, served_from_store=True,
            )
            self.stats.store_hits += 1
            return _Response(200, {
                "job_id": record.job_id,
                "state": "done",
                "coalesced": False,
                "served_from_store": True,
            })

        # 3. Dispatch a cold job to the worker pool.
        record = self.registry.create(request.to_dict(), fingerprint)
        self._inflight[fingerprint] = record.job_id
        self.stats.synth_runs += 1
        worker_payload = {
            "job_id": record.job_id,
            "request": request.to_dict(),
            "fingerprint": fingerprint,
            "cache_dir": self.config.cache_dir,
            "store_shards": self.store.shards,
            "jobs_dir": str(self.registry.jobs_dir),
        }
        task = asyncio.get_running_loop().create_task(
            self._execute(record.job_id, fingerprint, worker_payload)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return _Response(202, {
            "job_id": record.job_id,
            "state": "queued",
            "coalesced": False,
            "served_from_store": False,
        })

    async def _execute(
        self, job_id: str, fingerprint: str, worker_payload: dict[str, Any]
    ) -> None:
        """Run one dispatched job through the pool and record its end."""
        assert self._slots is not None and self._executor is not None
        async with self._slots:
            self.registry.mark_running(job_id)
            loop = asyncio.get_running_loop()
            try:
                result = await loop.run_in_executor(
                    self._executor, run_job, worker_payload
                )
            except Exception as exc:
                self.registry.fail(job_id, f"{type(exc).__name__}: {exc}")
                self.stats.jobs_failed += 1
            else:
                verification = result.get("verification")
                if verification is not None and not verification.get("ok"):
                    self.registry.fail(
                        job_id,
                        "verification failed: "
                        + (verification.get("counterexample") or "diverged"),
                    )
                    self.stats.jobs_failed += 1
                else:
                    # Outside any operating point, so the write commits
                    # at once: the result is durable before the job is
                    # marked done.
                    self.store.put(
                        "service", fingerprint,
                        ("service", STORE_SCHEMA_VERSION, fingerprint),
                        result,
                    )
                    self.registry.finish(job_id, result)
                    self.stats.jobs_completed += 1
            finally:
                if self._inflight.get(fingerprint) == job_id:
                    del self._inflight[fingerprint]


def run_service(config: ServiceConfig) -> int:
    """Blocking entry point used by ``repro serve``.

    Serves until SIGINT/SIGTERM, then shuts down *gracefully*: stop
    accepting, let dispatched jobs finish, and join the worker pool —
    otherwise a terminated server leaves orphaned pool processes
    behind, holding its inherited stdout/stderr pipes open.
    """
    import signal

    service = SynthesisService(config)

    async def _main() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, ValueError):
                pass  # non-main thread / platforms without signals
        serving = asyncio.ensure_future(service.serve_forever())
        stopping = asyncio.ensure_future(stop.wait())
        try:
            await asyncio.wait(
                {serving, stopping}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            for task in (serving, stopping):
                task.cancel()
            await asyncio.gather(serving, stopping, return_exceptions=True)
            await service.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return 0
