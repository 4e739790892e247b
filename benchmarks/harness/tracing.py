"""Outside-in layer tracing for the benchmark harness.

The harness never edits the program to time it.  :class:`Tracer`
replaces public functions of ``repro`` with timing wrappers, patched
where the *caller* looks the name up (``repro.synthesis.incremental.
build_netlist`` rather than ``repro.synthesis.datapath_build.
build_netlist``, since ``incremental`` imported the name at load time),
and restores the originals on :meth:`Tracer.uninstall`.

Each wrapped call records one span — ``(span name, id, parent id,
start ns, end ns)`` — into a per-thread in-memory buffer, so spans of
the service's event-loop and client threads nest correctly without a
lock on the hot path.  A span's self time is its duration minus the
durations of its direct children.  Some boundaries also count work
(candidates discovered, activity requests, store hits), measured where
the work happens.

Spans inside service process-pool workers are not captured: the pool
is forked before tracing is installed.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import threading
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.synthesis.store import MISSING

__all__ = ["BOUNDARIES", "SPAN_NAMES", "Boundary", "SpanSummary", "Tracer",
           "boundary_id", "wrapper_cost_ns"]

#: ``(args, kwargs, result) -> {counter: increment}``
Counter = Callable[[tuple, dict, Any], dict]


@dataclass(frozen=True)
class Boundary:
    """One wrapped name: the span it records and where it is patched."""

    span: str
    #: Module whose namespace the caller resolves the name in.
    module: str
    #: ``name``, ``Class.method`` or ``dict_name[key]``.
    attr: str
    count: Counter | None = None


def _count_discovered(args, kwargs, result) -> dict:
    return {"discovered": len(result)}


def _count_prune(args, kwargs, result) -> dict:
    return {"offered": len(args[2]), "kept": len(result)}


def _count_requests(args, kwargs, result) -> dict:
    return {"requests": len(args[0])}


def _count_store_hit(args, kwargs, result) -> dict:
    return {"lookups": 1, "hits": int(result is not MISSING)}


def _boundaries() -> tuple[Boundary, ...]:
    B = Boundary
    rows: list[Boundary] = [
        B("synthesis.library_gen", "repro.synthesis.library_gen",
          "build_complex_library"),
        B("synthesis.improve", "repro.synthesis.api", "improve_solution"),
        # Nested move-B resynthesis runs the improvement loop one level down.
        B("synthesis.improve", "repro.synthesis.improve", "improve_solution"),
        B("synthesis.improve.resynth", "repro.synthesis.improve",
          "resynthesize_module"),
        B("synthesis.moves.prune", "repro.synthesis.improve",
          "prune_candidates", _count_prune),
        B("synthesis.costs", "repro.synthesis.costs",
          "EvaluationContext.evaluate_batch"),
        B("synthesis.costs", "repro.synthesis.costs", "EvaluationContext.cost"),
        B("synthesis.costs.schedule_of", "repro.synthesis.costs",
          "EvaluationContext.schedule_of"),
        B("scheduling", "repro.synthesis.solution", "schedule_tasks"),
        B("service.submit", "repro.service.server", "SynthesisService.submit"),
    ]
    rows += [
        B("synthesis.moves.discover", "repro.synthesis.improve",
          f"_DISCOVER[{family}]", _count_discovered)
        for family in ("ab", "share", "split")
    ]
    rows += [
        B("synthesis.relational", "repro.synthesis.relational",
          f"RelationalView.{method}")
        for method in ("__init__", "cell_replacements", "fu_sharing",
                       "register_sharing", "fu_splits", "register_splits")
    ]
    # Batched pricing (costs) and single evaluations (incremental's own
    # evaluate_solution) each resolve the planning pair in their module.
    for module in ("repro.synthesis.costs", "repro.synthesis.incremental"):
        rows += [
            B("synthesis.incremental.plan", module, "plan_evaluation"),
            B("synthesis.incremental.finish", module, "finish_evaluation"),
            B("power.activity", module, "batch_activities", _count_requests),
        ]
    rows += [
        B("synthesis.datapath_build", module, "build_netlist")
        for module in ("repro.synthesis.incremental",
                       "repro.synthesis.modulegen")
    ]
    rows += [
        B("power.simulate", module, "simulate_subgraph")
        for module in ("repro.synthesis.api", "repro.synthesis.context")
    ]
    rows += [
        B("synthesis.initial", module, "initial_solution")
        for module in ("repro.synthesis.api", "repro.synthesis.improve",
                       "repro.synthesis.initial")
    ]
    # ``load``/``replace`` serve only priors and portfolio incumbents,
    # which no workload runs.
    rows += [
        B("synthesis.store", "repro.synthesis.store", f"SynthesisStore.{m}",
          _count_store_hit if m in ("get", "fetch") else None)
        for m in ("get", "fetch", "put", "contains")
    ]
    rows += [
        B("service.registry", "repro.service.registry", f"JobRegistry.{m}")
        for m in ("create", "mark_running", "finish", "add_client", "get",
                  "active_for", "progress")
    ]
    return tuple(rows)


#: Every wrapped boundary, in install order.
BOUNDARIES = _boundaries()

#: Span names, in a fixed order.
SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(b.span for b in BOUNDARIES))


def boundary_id(b: Boundary) -> str:
    """``module:attr`` — how one patched name is reported."""
    return f"{b.module}:{b.attr}"


def _resolve(module_name: str, attr: str) -> tuple[Any, str | None, Any]:
    """``(owner, attribute or None, key or None)`` for one target.

    Raises ``AttributeError``/``KeyError`` when the target no longer
    exists, so an upstream rename fails loudly instead of tracing
    nothing.
    """
    owner: Any = importlib.import_module(module_name)
    if "[" in attr:
        name, key = attr[:-1].split("[")
        table = getattr(owner, name)
        table[key]  # noqa: B018 - existence check
        return table, None, key
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    getattr(owner, last)
    return owner, last, None


class _Buffer:
    """Spans and counters recorded by one thread."""

    __slots__ = ("thread", "spans", "stack", "next_id", "counts")

    def __init__(self, thread: int):
        self.thread = thread
        #: Flat ``boundary index, id, parent, start_ns, end_ns`` records.
        self.spans = array("q")
        self.stack: list[int] = []
        self.next_id = 0
        self.counts: dict[tuple[int, str], int] = {}


class Tracer:
    """Installs the boundary wrappers and keeps their spans in memory."""

    def __init__(self):
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[Any, str | None, Any, Any]] = []

    # ------------------------------------------------------------------
    def _new_buffer(self) -> _Buffer:
        with self._lock:
            buf = _Buffer(len(self._buffers))
            self._buffers.append(buf)
        self._local.buf = buf
        return buf

    def _wrap(self, fn: Callable, code: int, count: Counter | None) -> Callable:
        local = self._local
        new_buffer = self._new_buffer
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                buf = local.buf
            except AttributeError:
                buf = new_buffer()
            stack = buf.stack
            parent = stack[-1] if stack else -1
            sid = buf.next_id
            buf.next_id = sid + 1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                buf.spans.extend((code, sid, parent, start, end))
            if count is not None:
                counts = buf.counts
                for key, n in count(args, kwargs, result).items():
                    counts[code, key] = counts.get((code, key), 0) + n
            return result

        return traced

    def install(self) -> None:
        """Patch every boundary (all-or-nothing)."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        try:
            for code, b in enumerate(BOUNDARIES):
                owner, attr, key = _resolve(b.module, b.attr)
                if key is not None:
                    original = owner[key]
                    owner[key] = self._wrap(original, code, b.count)
                else:
                    original = getattr(owner, attr)
                    setattr(owner, attr, self._wrap(original, code, b.count))
                self._restore.append((owner, attr, key, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every patched name (reverse order)."""
        while self._restore:
            owner, attr, key, original = self._restore.pop()
            if key is not None:
                owner[key] = original
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def summary(self) -> "SpanSummary":
        """Per-span-name calls, self and inclusive time, plus counters."""
        return SpanSummary.build(self._buffers)

    def write_spans(self, path: Path) -> int:
        """Write every span as gzipped TSV; returns the span count."""
        n = 0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("thread\tid\tparent\tspan\tstart_ns\tend_ns\n")
            for buf in self._buffers:
                s = buf.spans
                for i in range(0, len(s), 5):
                    fh.write(f"{buf.thread}\t{s[i + 1]}\t{s[i + 2]}\t"
                             f"{BOUNDARIES[s[i]].span}\t{s[i + 3]}\t"
                             f"{s[i + 4]}\n")
                    n += 1
        return n


@dataclass
class SpanSummary:
    """Aggregates of one traced pass, keyed by span name."""

    calls: dict[str, int]
    self_s: dict[str, float]
    incl_s: dict[str, float]
    counts: dict[str, dict[str, int]]
    #: Calls per patched name (``module:attr``).
    boundary_calls: dict[str, int]
    #: Inclusive time of outermost resynthesis spans that do not run
    #: inside a library build (move B of the main search).
    resynth_outer_incl_s: float
    #: Time inside any span: the sum of all self times.
    covered_s: float
    spans: int
    #: Spans of boundaries that also count work (dearer wrappers).
    counted_spans: int

    @classmethod
    def build(cls, buffers: list[_Buffer]) -> "SpanSummary":
        names = [b.span for b in BOUNDARIES]
        calls = [0] * len(BOUNDARIES)
        self_ns = [0] * len(BOUNDARIES)
        incl_ns = [0] * len(BOUNDARIES)
        counts: dict[str, dict[str, int]] = {}
        stop = {i for i, name in enumerate(names)
                if name in ("synthesis.library_gen", "synthesis.improve.resynth")}
        resynth = {i for i, name in enumerate(names)
                   if name == "synthesis.improve.resynth"}
        resynth_outer_ns = 0
        for buf in buffers:
            s = buf.spans
            n = buf.next_id
            code_of = [0] * n
            parent_of = [-1] * n
            dur_of = [0] * n
            child_ns = [0] * n
            for i in range(0, len(s), 5):
                code, sid, parent, start, end = s[i:i + 5]
                code_of[sid] = code
                parent_of[sid] = parent
                dur_of[sid] = end - start
                if parent >= 0:
                    child_ns[parent] += end - start
            for i in range(0, len(s), 5):
                code, sid = s[i], s[i + 1]
                calls[code] += 1
                incl_ns[code] += dur_of[sid]
                self_ns[code] += dur_of[sid] - child_ns[sid]
                if code in resynth:
                    p = parent_of[sid]
                    while p >= 0 and code_of[p] not in stop:
                        p = parent_of[p]
                    if p < 0:
                        resynth_outer_ns += dur_of[sid]
            for (code, key), value in buf.counts.items():
                per = counts.setdefault(names[code], {})
                per[key] = per.get(key, 0) + value

        def by_span(values: list[int]) -> dict[str, int]:
            out = dict.fromkeys(SPAN_NAMES, 0)
            for name, v in zip(names, values):
                out[name] += v
            return out

        return cls(
            calls=by_span(calls),
            self_s={k: v / 1e9 for k, v in by_span(self_ns).items()},
            incl_s={k: v / 1e9 for k, v in by_span(incl_ns).items()},
            counts=counts,
            boundary_calls={
                boundary_id(b): c for b, c in zip(BOUNDARIES, calls)
            },
            resynth_outer_incl_s=resynth_outer_ns / 1e9,
            covered_s=sum(self_ns) / 1e9,
            spans=sum(calls),
            counted_spans=sum(
                c for b, c in zip(BOUNDARIES, calls) if b.count is not None
            ),
        )


def wrapper_cost_ns(calls: int = 20_000, reps: int = 5) -> tuple[float, float]:
    """Per-span wrapper cost in ns: ``(plain, with a work counter)``.

    The minimum over repetitions of (wrapped − bare) call time: short
    loops find quiet moments even on a noisy host, where the difference
    of two whole traced and untraced passes does not.  A lower bound: a
    trivial one-argument function in a hot loop has no cache pressure,
    keyword forwarding or span-list growth.
    """
    def bare(*args):
        return args

    tracer = Tracer()
    plain = tracer._wrap(bare, 0, None)
    counted = tracer._wrap(bare, 0, _count_requests)
    best = {}
    for fn in (bare, plain, counted):
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            for _ in range(calls):
                fn(())
            elapsed = (time.perf_counter_ns() - t0) / calls
            best[fn] = min(best.get(fn, elapsed), elapsed)
    return best[plain] - best[bare], best[counted] - best[bare]
