"""The harness workloads: inputs (set-up), one timed pass, and checks.

Every workload runs the flow a user runs with the CLI defaults (quick
effort, power objective, laxity 2.2, 48 speech samples).  ``--seed``
drives only the generated stimulus (and, for ``service-mix``, the
submission order); the circuits are fixed, so runs at different seeds
do the same kind and amount of work.

* ``hier-power`` — the paper's hierarchical column: complex-library
  build plus ``synthesize`` on circuits with ``hier`` nodes.  Library
  characterization and nested move-B resynthesis do most of the work.
* ``flat-power`` — the paper's Flat column: ``synthesize_flat`` on the
  same circuits plus one larger generated design.  No library build and
  no move B; time goes to pricing and discovery on big flat graphs.
* ``warm-rerun`` — the hierarchical flow on two circuits, twice, against
  one fresh store directory: a cold pass that writes the persistent tier
  and a warm pass that reads it.  The only workload touching the persistent tier;
  its ``batch_s`` is the warm pass.
* ``service-mix`` — an in-process job server (one process worker)
  driven by closed-loop client threads that resubmit a set of small
  designs: registry, dispatch, store-served hits and coalescing.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.bench_suite import get_benchmark
from repro.dfg import flatten, write_design
from repro.gen import GenConfig, generate_design
from repro.library import default_library
from repro.power import speech_traces
from repro.reporting import quick_config
from repro.rtl import emit_controller, emit_netlist
from repro.service import ServiceClient
from repro.service.server import ServiceConfig, SynthesisService
from repro.synthesis import api, library_gen

__all__ = ["WORKLOADS", "Check", "Outcome", "PassOutput"]

LAXITY = 2.2
OBJECTIVE = "power"
SAMPLES = 48

#: Five of the six bench-suite circuits with ``hier`` nodes.  The sixth,
#: avenhaus_cascade, is left out for the time budget of a full sweep.
HIER_DESIGNS = ("lat", "dct", "iir", "hier_paulin", "test1")
#: All six, for the ungated ``report extras``.
HIER_SUITE = ("avenhaus_cascade",) + HIER_DESIGNS
FLAT_DESIGNS = ("paulin", "lat", "dct", "test1")
#: The one design of a ``--smoke`` pass (hier-power, flat-power, warm-rerun).
SMOKE_DESIGN = "test1"
WARM_DESIGNS = ("iir", "dct")

#: The flat workload's large design: the first in the generator's seed
#: stream whose flattened graph has this many operations (hierarchical
#: behaviors, so flattening is what makes it big).
LARGE_CONFIG = GenConfig(n_behaviors=(2, 3), ops_per_dfg=(12, 20))
LARGE_OPS = (90, 110)

SERVICE_CONFIG = GenConfig(n_behaviors=(0, 0), ops_per_dfg=(6, 10))
SERVICE_DESIGNS = 12
SERVICE_REPEATS = 10
SERVICE_CLIENTS = 2


@dataclass
class Outcome:
    """One synthesized result of a pass."""

    label: str
    seconds: float
    result: Any


@dataclass
class Check:
    """One output check, made outside the timed region."""

    what: str
    ok: bool


@dataclass
class PassOutput:
    """What one timed pass produced."""

    #: ``time.perf_counter()`` at the start and end of the timed region.
    start: float
    end: float
    #: Final power of each distinct result (``cost_geomean``).
    powers: list[float]
    outcomes: list[Outcome] = field(default_factory=list)
    #: Workload-specific splits (not gated; printed and recorded).
    extras: dict[str, float] = field(default_factory=dict)


def geomean(values: list[float]) -> float:
    """Geometric mean of positive values."""
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (no interpolation across job classes)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def result_digest(result) -> str:
    """Digest of everything a user reads from a result, bit for bit."""
    fields = (
        result.objective, result.flattened, repr(result.area),
        repr(result.power), repr(result.metrics.energy_per_sample),
        repr(result.vdd), repr(result.clk_ns), repr(result.sampling_ns),
        result.metrics.schedule_length,
        emit_netlist(result.netlist()), emit_controller(result.controller()),
    )
    return hashlib.sha256(json.dumps(fields).encode()).hexdigest()


def _verify(outcomes: list[Outcome]) -> list[Check]:
    return [
        Check(f"verify {o.label}", o.result.verify(shrink=False).ok)
        for o in outcomes
    ]


def hier_flow(design, library, traces, config):
    """``repro synth`` on a hierarchical design: library build + synthesis."""
    library = library_gen.build_complex_library(design, library, config=config)
    return api.synthesize(
        design, library, laxity_factor=LAXITY, objective=OBJECTIVE,
        traces=traces, config=config, n_samples=SAMPLES,
    )


def flat_flow(design, library, traces, config):
    """``repro synth --flatten``: the flattened baseline."""
    return api.synthesize_flat(
        design, library, laxity_factor=LAXITY, objective=OBJECTIVE,
        traces=traces, config=config, n_samples=SAMPLES,
    )


@dataclass
class _Input:
    name: str
    design: Any
    traces: Any


def _inputs(designs: list[tuple[str, Any]], seed: int) -> list[_Input]:
    return [
        _Input(name, design, speech_traces(design.top, n=SAMPLES, seed=seed))
        for name, design in designs
    ]


def large_generated_design():
    """The first generated design whose flattened graph is in LARGE_OPS."""
    lo, hi = LARGE_OPS
    for gen_seed in range(10_000):
        design = generate_design(gen_seed, LARGE_CONFIG).design
        if lo <= len(flatten(design).op_nodes()) <= hi:
            return design
    raise RuntimeError("no generated design in the flattened-size band")


def _timed_flow(flow, inputs: list[_Input], prefix: str,
                cache_dir: str | None = None) -> list[Outcome]:
    outcomes = []
    for item in inputs:
        config = quick_config()
        config.cache_dir = cache_dir
        # A fresh cell library per result, as the CLI makes one per run
        # (the library build adds complex modules to it).
        library = default_library()
        t0 = time.perf_counter()
        result = flow(item.design, library, item.traces, config)
        outcomes.append(
            Outcome(f"{prefix}.{item.name}", time.perf_counter() - t0, result)
        )
    return outcomes


# ----------------------------------------------------------------------
# hier-power / flat-power
# ----------------------------------------------------------------------
class BatchWorkload:
    """One flow over a fixed design list; every result is verified."""

    def __init__(self, prefix: str, names: tuple[str, ...], flow,
                 with_generated: bool = False):
        self.prefix = prefix
        self.names = names
        self.flow = flow
        self.with_generated = with_generated

    def setup(self, seed: int, smoke: bool, workdir: Path) -> list[_Input]:
        names = (SMOKE_DESIGN,) if smoke else self.names
        designs = [(name, get_benchmark(name)) for name in names]
        if self.with_generated and not smoke:
            designs.append(("gen", large_generated_design()))
        return _inputs(designs, seed)

    def run(self, inputs: list[_Input]) -> PassOutput:
        t0 = time.perf_counter()
        outcomes = _timed_flow(self.flow, inputs, self.prefix)
        t1 = time.perf_counter()
        return PassOutput(t0, t1, [o.result.power for o in outcomes], outcomes)

    def check(self, inputs, output: PassOutput) -> list[Check]:
        return _verify(output.outcomes)

    def close(self, inputs) -> None:
        pass


# ----------------------------------------------------------------------
# warm-rerun
# ----------------------------------------------------------------------
@dataclass
class _WarmState:
    inputs: list[_Input]
    cache_dir: Path


class WarmRerun:
    """The hierarchical flow, cold then warm, against one fresh store."""

    def setup(self, seed: int, smoke: bool, workdir: Path) -> _WarmState:
        names = (SMOKE_DESIGN,) if smoke else WARM_DESIGNS
        cache_dir = workdir / "store"
        shutil.rmtree(cache_dir, ignore_errors=True)
        return _WarmState(
            _inputs([(n, get_benchmark(n)) for n in names], seed), cache_dir
        )

    def run(self, state: _WarmState) -> PassOutput:
        t0 = time.perf_counter()
        cold = _timed_flow(hier_flow, state.inputs, "cold", str(state.cache_dir))
        t1 = time.perf_counter()
        warm = _timed_flow(hier_flow, state.inputs, "warm", str(state.cache_dir))
        t2 = time.perf_counter()
        return PassOutput(
            start=t1,
            end=t2,
            powers=[o.result.power for o in warm],
            outcomes=cold + warm,
            extras={"phase.cold_pass_s": t1 - t0, "phase.warm_pass_s": t2 - t1},
        )

    def check(self, state: _WarmState, output: PassOutput) -> list[Check]:
        n = len(state.inputs)
        cold, warm = output.outcomes[:n], output.outcomes[n:]
        checks = _verify(output.outcomes)
        checks += [
            Check(f"{w.label} equals {c.label}",
                  result_digest(c.result) == result_digest(w.result))
            for c, w in zip(cold, warm)
        ]
        return checks

    def close(self, state: _WarmState) -> None:
        shutil.rmtree(state.cache_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------
@dataclass
class _Submission:
    design: int
    job_id: str = ""
    #: How the server answered: "cold", "store" or "coalesced".
    route: str = ""
    seconds: float = 0.0
    state: str = ""


@dataclass
class _ServiceState:
    service: SynthesisService
    loop: asyncio.AbstractEventLoop
    thread: threading.Thread
    client: ServiceClient
    requests: list[dict]
    order: list[int]
    submissions: list[_Submission] = field(default_factory=list)


def _service_request(text: str, seed: int) -> dict:
    return {"design_text": text, "laxity_factor": LAXITY,
            "objective": OBJECTIVE, "samples": SAMPLES, "seed": seed,
            "verify": True}


class ServiceMix:
    """Closed-loop clients resubmitting small designs to a job server."""

    def setup(self, seed: int, smoke: bool, workdir: Path) -> _ServiceState:
        n_designs, repeats = (2, 3) if smoke else (SERVICE_DESIGNS,
                                                   SERVICE_REPEATS)
        texts = [
            write_design(generate_design(i, SERVICE_CONFIG).design) + "\n"
            for i in range(n_designs)
        ]
        order = [i for i in range(n_designs) for _ in range(repeats)]
        random.Random(f"service-mix:{seed}").shuffle(order)
        state_dir = workdir / "service"
        shutil.rmtree(state_dir, ignore_errors=True)

        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()

        async def boot() -> SynthesisService:
            service = SynthesisService(ServiceConfig(
                port=0, workers=1, cache_dir=str(state_dir),
            ))
            await service.start()
            return service

        service = asyncio.run_coroutine_threadsafe(boot(), loop).result(60)
        client = ServiceClient(f"http://127.0.0.1:{service.bound_port}")
        state = _ServiceState(
            service, loop, thread, client,
            [_service_request(text, seed) for text in texts], order,
        )
        # Warm the worker pool with a job outside the mix, so the timed
        # pass never pays for forking the worker.
        warmup = _service_request(
            "design warmup\ntop main\n\ndfg main\n  input x\n  input y\n"
            "  op m mult x y\n  output out m\nend\n", seed,
        )
        receipt = client.submit(warmup)
        client.wait(receipt["job_id"], timeout_s=120)
        return state

    def run(self, state: _ServiceState) -> PassOutput:
        before = state.service.stats.as_dict()
        submissions = [_Submission(design) for design in state.order]
        cursor = iter(submissions)
        lock = threading.Lock()

        def client_loop() -> None:
            client = ServiceClient(state.client.base_url)
            while True:
                with lock:
                    sub = next(cursor, None)
                if sub is None:
                    return
                t0 = time.perf_counter()
                try:
                    receipt = client.submit(state.requests[sub.design])
                    final = receipt["state"]
                    if final not in ("done", "failed"):
                        # The client's default poll interval, as
                        # ``repro submit --wait`` uses it.
                        final = client.wait(
                            receipt["job_id"], timeout_s=120
                        )["state"]
                except Exception as exc:  # a failed check, not a crash
                    sub.state = f"{type(exc).__name__}: {exc}"
                    continue
                sub.seconds = time.perf_counter() - t0
                sub.job_id = receipt["job_id"]
                sub.state = final
                sub.route = (
                    "coalesced" if receipt["coalesced"]
                    else "store" if receipt["served_from_store"]
                    else "cold"
                )

        t0 = time.perf_counter()
        threads = [threading.Thread(target=client_loop)
                   for _ in range(SERVICE_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=170)
        t1 = time.perf_counter()
        state.submissions = submissions

        after = state.service.stats.as_dict()
        counters = {k: after[k] - before[k] for k in after}
        cold = [s.seconds for s in submissions if s.route == "cold"]
        hits = [s.seconds for s in submissions if s.route in ("store", "coalesced")]
        waits, runs = [], []
        for s in submissions:
            if s.route != "cold":
                continue
            record = state.service.registry.get(s.job_id)
            if record is not None and record.started_at and record.finished_at:
                waits.append(record.started_at - record.submitted_at)
                runs.append(record.finished_at - record.started_at)
        extras = {
            "service.cold_job_p50_s": statistics.median(cold) if cold else 0.0,
            "service.hit_job_p50_s": statistics.median(hits) if hits else 0.0,
            "service.hit_job_p90_s": _quantile(hits, 0.9) if hits else 0.0,
            "service.jobs_per_s": len(submissions) / (t1 - t0),
            "service.queue_wait_p50_s": statistics.median(waits) if waits else 0.0,
            "service.run_p50_s": statistics.median(runs) if runs else 0.0,
            "service.store_hits": counters["store_hits"],
            "service.coalesce_hits": counters["coalesce_hits"],
            "service.synth_runs": counters["synth_runs"],
        }
        powers = []
        for design in range(len(state.requests)):
            first = next((s for s in submissions
                          if s.design == design and s.state == "done"), None)
            if first is not None:
                powers.append(state.client.result(first.job_id)["result"]["power"])
        return PassOutput(t0, t1, powers, extras=extras)

    def check(self, state: _ServiceState, output: PassOutput) -> list[Check]:
        checks: list[Check] = []
        bodies: dict[int, str] = {}
        for i, sub in enumerate(state.submissions):
            if sub.state != "done":
                checks.append(Check(
                    f"submission {i} done (got {sub.state or 'no answer'})",
                    False,
                ))
                continue
            result = state.client.result(sub.job_id)["result"]
            body = json.dumps(result, sort_keys=True)
            if sub.design not in bodies:
                bodies[sub.design] = body
                checks.append(Check(
                    f"design {sub.design} verified",
                    bool(result.get("verification", {}).get("ok")),
                ))
            checks.append(Check(f"submission {i} body identical",
                                body == bodies[sub.design]))
        checks.append(Check(
            "one synthesis run per distinct design",
            output.extras["service.synth_runs"] == len(state.requests),
        ))
        return checks

    def close(self, state: _ServiceState) -> None:
        asyncio.run_coroutine_threadsafe(
            state.service.close(), state.loop
        ).result(120)
        state.loop.call_soon_threadsafe(state.loop.stop)
        state.thread.join(timeout=30)
        state.loop.close()
        shutil.rmtree(state.service.config.cache_dir, ignore_errors=True)


WORKLOADS = {
    "hier-power": BatchWorkload("hier", HIER_DESIGNS, hier_flow),
    "flat-power": BatchWorkload("flat", FLAT_DESIGNS, flat_flow,
                                with_generated=True),
    "warm-rerun": WarmRerun(),
    "service-mix": ServiceMix(),
}
