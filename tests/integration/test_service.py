"""Integration tests for the synthesis job service.

Covers the acceptance surface of the service layer: request
coalescing (identical submissions share one job and one synthesis
run), store-served repeats (byte-identical, no worker involved),
concurrent distinct submissions (registry integrity), the HTTP
endpoint contract, per-job worker teardown (memory-boundedness), and
bit-identity of served results against a direct library run.

The harness runs the real asyncio server with *thread* workers
(``use_processes=False``) so tests are hermetic and fast; the process
path is exercised by the CLI smoke tool (``tools/service_smoke.py``).
"""

import asyncio
import json
import threading

import pytest

from repro.errors import ServiceError, SynthesisError
from repro.power.activity import activity_cache_sizes
from repro.service import JobRequest, ServiceClient
from repro.service.server import ServiceConfig, SynthesisService
from repro.service.worker import run_job


def _design_text(extra_adds: int = 0, name: str = "tiny") -> str:
    """A small flat design; *extra_adds* varies the canonical shape."""
    lines = [
        f"design {name}", "top main", "", "dfg main",
        "  input x", "  input y",
        "  op m mult x y", "  op a0 add m y",
    ]
    for i in range(1, extra_adds + 1):
        lines.append(f"  op a{i} add a{i - 1} y")
    lines += [f"  output out a{extra_adds}", "end", ""]
    return "\n".join(lines)


def _request(**overrides) -> dict:
    base = dict(design_text=_design_text(), laxity_factor=2.0, samples=8)
    base.update(overrides)
    return base


class ServiceHarness:
    """A live service on a background event loop + blocking client."""

    def __init__(self, cache_dir, workers: int = 2):
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )
        self._thread.start()
        self.service = self.call(self._boot(cache_dir, workers))
        self.client = ServiceClient(
            f"http://127.0.0.1:{self.service.bound_port}", timeout_s=30.0
        )

    @staticmethod
    async def _boot(cache_dir, workers) -> SynthesisService:
        service = SynthesisService(ServiceConfig(
            port=0, workers=workers, cache_dir=str(cache_dir),
            use_processes=False,
        ))
        await service.start()
        return service

    def call(self, coro, timeout_s: float = 120.0):
        """Run a coroutine on the service loop; return its result."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(
            timeout_s
        )

    def submit_pair_atomically(self, *payloads) -> list[dict]:
        """Submit payloads back-to-back *inside the event loop*.

        Dispatch tasks cannot start between the calls, so a duplicate
        is guaranteed to land while its twin is still queued — the
        deterministic way to exercise coalescing.
        """
        async def _go():
            return [
                self.service.submit(payload).payload for payload in payloads
            ]
        return self.call(_go())

    def drain(self) -> None:
        """Wait until every dispatched job task has finished."""
        async def _go():
            while self.service._tasks:
                await asyncio.gather(
                    *tuple(self.service._tasks), return_exceptions=True
                )
        self.call(_go())

    def shutdown(self) -> None:
        self.call(self.service.close())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=10)
        self.loop.close()


@pytest.fixture
def harness(tmp_path):
    h = ServiceHarness(tmp_path / "svc")
    yield h
    h.shutdown()


class TestCoalescing:
    def test_identical_submissions_share_one_job(self, harness):
        r1, r2, r3 = harness.submit_pair_atomically(
            _request(), _request(), _request()
        )
        assert r1["state"] == "queued" and not r1["coalesced"]
        assert r2["coalesced"] and r2["job_id"] == r1["job_id"]
        assert r3["coalesced"] and r3["job_id"] == r1["job_id"]
        harness.drain()
        final = harness.client.status(r1["job_id"])
        assert final["state"] == "done"
        assert final["clients"] == 3
        # One synthesis run served all three clients.
        counters = harness.client.stats()["counters"]
        assert counters["synth_runs"] == 1
        assert counters["coalesce_hits"] == 2

    def test_different_knobs_do_not_coalesce(self, harness):
        r1, r2 = harness.submit_pair_atomically(
            _request(), _request(objective="area")
        )
        assert not r2["coalesced"]
        assert r2["job_id"] != r1["job_id"]
        harness.drain()

    def test_coalesced_clients_read_identical_bytes(self, harness):
        receipts = harness.submit_pair_atomically(_request(), _request())
        harness.drain()
        bodies = {
            json.dumps(harness.client.result(r["job_id"])["result"],
                       sort_keys=True)
            for r in receipts
        }
        assert len(bodies) == 1


class TestStoreServed:
    def test_repeat_answers_from_store_without_worker(self, harness):
        first = harness.client.submit(_request())
        harness.drain()
        repeat = harness.client.submit(_request())
        assert repeat["served_from_store"]
        assert repeat["state"] == "done"
        assert repeat["job_id"] != first["job_id"]
        counters = harness.client.stats()["counters"]
        assert counters["synth_runs"] == 1
        assert counters["store_hits"] == 1
        cold = harness.client.result(first["job_id"])["result"]
        warm = harness.client.result(repeat["job_id"])["result"]
        assert json.dumps(cold, sort_keys=True) == \
            json.dumps(warm, sort_keys=True)

    def test_store_serving_survives_service_restart(self, tmp_path):
        first = ServiceHarness(tmp_path / "svc")
        try:
            cold = first.client.submit(_request())
            first.drain()
            cold_result = first.client.result(cold["job_id"])["result"]
        finally:
            first.shutdown()
        second = ServiceHarness(tmp_path / "svc")
        try:
            warm = second.client.submit(_request())
            assert warm["served_from_store"]
            warm_result = second.client.result(warm["job_id"])["result"]
            assert json.dumps(cold_result, sort_keys=True) == \
                json.dumps(warm_result, sort_keys=True)
        finally:
            second.shutdown()


class TestConcurrentDistinct:
    def test_distinct_submissions_keep_registry_intact(self, harness):
        receipts = harness.submit_pair_atomically(
            *[_request(design_text=_design_text(extra_adds=i))
              for i in range(4)]
        )
        assert len({r["job_id"] for r in receipts}) == 4
        harness.drain()
        fingerprints = set()
        for receipt in receipts:
            status = harness.client.status(receipt["job_id"])
            assert status["state"] == "done", status["error"]
            assert status["summary"]["area"] > 0
            fingerprints.add(status["fingerprint"])
        assert len(fingerprints) == 4
        counts = harness.client.stats()["queue"]
        assert counts["done"] == 4 and counts["failed"] == 0


class TestHTTPContract:
    def test_healthz(self, harness):
        assert harness.client.health()["ok"] is True

    def test_unknown_job_is_404(self, harness):
        with pytest.raises(ServiceError, match="404"):
            harness.client.status("nope")

    def test_unknown_request_field_is_400(self, harness):
        with pytest.raises(ServiceError, match="400"):
            harness.client.submit(_request(laxity=2.0))

    @pytest.mark.parametrize(
        "name,value",
        [("priors", True), ("priors", False),
         ("policy", None), ("policy", "default"), ("policy", "greedy")],
    )
    def test_removed_field_is_400(self, harness, name, value):
        """A body that still names a removed field (``priors``, or the
        search ``policy``) is rejected like any unknown field, whatever
        its value, and no job is created."""
        before = harness.client.stats()["queue"]
        with pytest.raises(
            ServiceError,
            match=rf"\(400\): unknown job request field\(s\): {name}$",
        ):
            harness.client.submit(_request(**{name: value}))
        assert harness.client.stats()["queue"] == before

    def test_malformed_body_is_400(self, harness):
        with pytest.raises(ServiceError, match="400"):
            harness.client._call("POST", "/jobs", payload="not an object")

    def test_result_of_unfinished_job_is_404(self, harness):
        receipts = harness.submit_pair_atomically(_request())
        try:
            with pytest.raises(ServiceError, match="404"):
                harness.client.result(receipts[0]["job_id"])
        finally:
            harness.drain()

    def test_trace_of_untraced_job_is_404(self, harness):
        receipt = harness.client.submit(_request())
        harness.drain()
        with pytest.raises(ServiceError, match="404"):
            harness.client.trace(receipt["job_id"])

    def test_unroutable_path_is_404(self, harness):
        with pytest.raises(ServiceError, match="404"):
            harness.client._call("GET", "/nope")

    def test_failed_job_reports_error(self, harness):
        # An infeasible constraint: no implementation can meet ~0.01ns.
        receipt = harness.client.submit(
            _request(laxity_factor=None, sampling_ns=0.01)
        )
        harness.drain()
        final = harness.client.status(receipt["job_id"])
        assert final["state"] == "failed"
        assert final["error"]
        counters = harness.client.stats()["counters"]
        assert counters["jobs_failed"] == 1


class TestWorkerTeardown:
    """Satellite fix: long-lived workers must stay memory-bounded."""

    def _payload(self, tmp_path, request: dict) -> dict:
        return {
            "job_id": "t1",
            "request": request,
            "fingerprint": "fp-test",
            "cache_dir": str(tmp_path / "cache"),
            "store_shards": 1,
            "jobs_dir": None,
        }

    def test_repeated_jobs_leave_no_pinned_activity(self, tmp_path):
        for i in range(3):
            result = run_job(self._payload(
                tmp_path, _request(design_text=_design_text(extra_adds=i))
            ))
            assert result["area"] > 0
            assert activity_cache_sizes() == (0, 0), (
                "activity caches must be torn down after every job"
            )

    def test_failed_jobs_also_tear_down(self, tmp_path):
        with pytest.raises(SynthesisError):
            run_job(self._payload(
                tmp_path,
                _request(laxity_factor=None, sampling_ns=0.01),
            ))
        assert activity_cache_sizes() == (0, 0), (
            "the infeasible path must tear caches down too"
        )


class TestBitIdentity:
    def test_served_result_matches_direct_library_run(self, harness, tmp_path):
        """A traced service job is byte-identical to the engine run direct."""
        request = _request(trace=True)
        receipt = harness.client.submit(request)
        harness.drain()
        served = harness.client.result(receipt["job_id"])["result"]
        trace_text = harness.client.trace(receipt["job_id"])

        from repro.dfg import parse_design
        from repro.power import speech_traces
        from repro.reporting.export import result_to_dict
        from repro.rtl import emit_netlist
        from repro.service.worker import job_config
        from repro.synthesis import synthesize
        from repro.trace import write_trace

        # A fresh store configured exactly like the service's (cold, one
        # shard) so even the store-tier telemetry counters must match.
        job = JobRequest.from_dict(request)
        config = job_config(job, {
            "cache_dir": str(tmp_path / "direct-cache"),
            "store_shards": 1,
        })
        design = parse_design(request["design_text"],
                              source="<job request>")
        traces = speech_traces(design.top, n=job.samples, seed=job.seed)
        direct = synthesize(
            design, None, laxity_factor=job.laxity_factor,
            objective="power", traces=traces, config=config,
            n_samples=job.samples,
        )
        def _deterministic(payload: dict) -> dict:
            # Wall-clock riders are the only nondeterminism in a result.
            payload = dict(payload)
            payload.pop("elapsed_s")
            payload["telemetry"] = {
                k: v for k, v in payload["telemetry"].items()
                if k != "stage_s"
            }
            return payload

        direct_dict = result_to_dict(direct)
        served_subset = {k: served[k] for k in direct_dict}
        assert json.dumps(_deterministic(direct_dict), sort_keys=True) == \
            json.dumps(_deterministic(served_subset), sort_keys=True)
        assert emit_netlist(direct.netlist()) == served["netlist"]
        direct_trace = tmp_path / "direct.trace.jsonl"
        write_trace(direct.trace_events, direct_trace)
        assert direct_trace.read_text() == trace_text
