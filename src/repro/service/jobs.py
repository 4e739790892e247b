"""Job schema of the synthesis service: requests, records, fingerprints.

A job request carries exactly one design source — inline ``design_text``
(the textual ``.dfg`` format), a built-in ``benchmark`` name, or a
``gen_seed`` drawn from the seeded generator (:mod:`repro.gen`) — plus
the same result-shaping knobs the ``repro synth`` CLI exposes
(objective, laxity/sampling constraint, stimulus family, effort).

:func:`request_fingerprint` is the service's unit of identity: the
iso-invariant canonical fingerprint of the resolved design
(:func:`repro.dfg.canonical.design_fingerprint`) combined with the
library/config signatures and every result-shaping request field.  Two
requests with equal fingerprints produce byte-identical results, so the
server can coalesce them into one running job and serve repeats from
the persistent store tier.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..dfg.canonical import config_signature, design_fingerprint, library_signature
from ..errors import ServiceError
from ..synthesis.store import STORE_SCHEMA_VERSION, digest_content

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dfg.hierarchy import Design
    from ..library.library import ModuleLibrary
    from ..synthesis.context import SynthesisConfig

__all__ = [
    "JOB_STATES",
    "JobRecord",
    "JobRequest",
    "request_fingerprint",
    "resolve_job_design",
]

#: Job lifecycle: ``queued`` (registry row exists, not yet dispatched or
#: waiting for a worker slot) → ``running`` (a worker process owns it) →
#: ``done`` (result attached) | ``failed`` (error attached).  Jobs
#: answered from the persistent store are created directly in ``done``.
JOB_STATES = ("queued", "running", "done", "failed")

_TRACE_FAMILIES = ("speech", "white", "image")
_OBJECTIVES = ("power", "area")
_EFFORTS = ("quick", "full")


@dataclass
class JobRequest:
    """One synthesis job as submitted over the wire (plain data)."""

    #: Exactly one of the three design sources must be set.
    design_text: str | None = None
    benchmark: str | None = None
    gen_seed: int | None = None
    objective: str = "power"
    #: Exactly one of the two throughput constraints must be set.
    laxity_factor: float | None = None
    sampling_ns: float | None = None
    traces: str = "speech"
    samples: int = 48
    seed: int = 0
    effort: str = "quick"
    flatten: bool = False
    #: Differentially verify the winning RTL; the verdict rides on the
    #: result as ``verification.ok`` (a failing check fails the job).
    verify: bool = False
    #: Record the search trace; the server keeps it per job and serves
    #: it at ``GET /jobs/<id>/trace``.
    trace: bool = False

    def validate(self) -> None:
        """Reject structurally invalid requests before any work starts."""
        sources = [
            s for s in (self.design_text, self.benchmark, self.gen_seed)
            if s is not None
        ]
        if len(sources) != 1:
            raise ServiceError(
                "give exactly one of design_text / benchmark / gen_seed"
            )
        if (self.laxity_factor is None) == (self.sampling_ns is None):
            raise ServiceError(
                "give exactly one of laxity_factor / sampling_ns"
            )
        if self.objective not in _OBJECTIVES:
            raise ServiceError(f"unknown objective {self.objective!r}")
        if self.traces not in _TRACE_FAMILIES:
            raise ServiceError(f"unknown traces family {self.traces!r}")
        if self.effort not in _EFFORTS:
            raise ServiceError(f"unknown effort {self.effort!r}")
        if self.samples < 1:
            raise ServiceError(f"samples must be >= 1, got {self.samples}")

    def to_dict(self) -> dict[str, Any]:
        """Wire form (JSON object body of ``POST /jobs``)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "JobRequest":
        """Parse a wire payload; unknown keys are rejected, not dropped.

        Silently ignoring a typoed key (``laxity`` for ``laxity_factor``)
        would synthesize something other than what the client asked for.
        """
        if not isinstance(payload, dict):
            raise ServiceError("job request body must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ServiceError(
                f"unknown job request field(s): {', '.join(unknown)}"
            )
        request = cls(**payload)
        request.validate()
        return request


def resolve_job_design(request: JobRequest) -> "Design":
    """Materialize the request's design source as a validated Design."""
    from ..dfg import parse_design, validate_design

    if request.design_text is not None:
        design = parse_design(request.design_text, source="<job request>")
    elif request.benchmark is not None:
        from ..bench_suite import benchmark_names, get_benchmark

        if request.benchmark not in benchmark_names():
            raise ServiceError(f"unknown benchmark {request.benchmark!r}")
        design = get_benchmark(request.benchmark)
    else:
        assert request.gen_seed is not None
        from ..gen import GenConfig, generate_design

        design = generate_design(request.gen_seed, GenConfig()).design
    validate_design(design)
    return design


def request_fingerprint(
    request: JobRequest,
    design: "Design",
    library: "ModuleLibrary",
    config: "SynthesisConfig",
) -> str:
    """Canonical identity of a request: what, under which knobs.

    Covers the resolved design's content (so ``design_text`` and a
    ``gen_seed`` emitting the same text coalesce), the base library and
    search-shaping config signatures, and every request field that
    shapes result bytes.  Execution-only server knobs (worker counts,
    shard counts) are deliberately absent — they never change results.
    """
    return digest_content(
        (
            "job",
            STORE_SCHEMA_VERSION,
            design_fingerprint(design, design.top),
            library_signature(library),
            config_signature(config),
            request.objective,
            request.laxity_factor,
            request.sampling_ns,
            request.traces,
            request.samples,
            request.seed,
            request.effort,
            request.flatten,
            request.verify,
            request.trace,
        )
    )


@dataclass
class JobRecord:
    """One registry row: a job's lifecycle and (once done) its result."""

    job_id: str
    fingerprint: str
    state: str
    request: dict[str, Any]
    submitted_at: float
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    result: dict[str, Any] | None = None
    #: Result answered from the persistent store, no worker involved.
    served_from_store: bool = False
    #: Clients attached to this job (1 + coalesced duplicates).
    clients: int = 1

    def as_dict(self, include_result: bool = False) -> dict[str, Any]:
        """Status-endpoint view; the full result rides only on demand."""
        payload: dict[str, Any] = {
            "job_id": self.job_id,
            "fingerprint": self.fingerprint,
            "state": self.state,
            "request": self.request,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "served_from_store": self.served_from_store,
            "clients": self.clients,
        }
        if include_result:
            payload["result"] = self.result
        elif self.result is not None:
            # A light summary so polling clients can print headline
            # numbers without shipping netlists on every poll.
            payload["summary"] = {
                key: self.result.get(key)
                for key in ("area", "power", "vdd", "clk_ns", "elapsed_s")
            }
        return payload
