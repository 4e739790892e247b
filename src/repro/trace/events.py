"""The trace event schema: span kinds, fields and versioning.

A trace is a JSON-Lines stream; every line is one event (a span or a
point annotation) emitted by the synthesis engine.  Events form a tree
through their coordinate fields rather than through nesting:

* ``point`` — index of the (Vdd, clock) operating point in sweep order;
* ``pass``  — improvement-pass index within the point (0-based);
* ``step``  — move index within the pass (0-based).

Field order within an event is fixed by the emitter, so a trace
serializes deterministically: the same seed and configuration produce a
byte-identical file whether the sweep ran serially or on a worker pool
(timing fields, which are inherently nondeterministic, are only present
when ``SynthesisConfig.trace_timings`` is enabled).

The authoritative field list per kind lives in :data:`span_kinds`; it
is what ``docs/TRACING.md`` documents and what the schema test pins.
"""

from __future__ import annotations

__all__ = ["SCHEMA_VERSION", "span_kinds"]

#: Bump when an event kind gains/loses/renames a field.  Consumers
#: (report, replay) check it and refuse traces from a different major.
#: Version 2 added the optional ``store`` field (tiered synthesis-store
#: counters) to ``run_end``.  Version 3 added ``discovered`` to
#: ``step``: pre-pruning candidate-generation counts keyed by full move
#: kind (``"A-cell"``, ``"C-share-fu"``, ...), which depend on the
#: candidate multiset only, not on its emission order.
#:
#: Traces written by older builds may also carry what this build no
#: longer writes: an optional ``policy`` field on ``run_start`` (the
#: search policy of a non-default run) and ``eval`` events (one per
#: cost evaluation, opt-in).  Both only ever appeared on request, so
#: dropping them needs no bump; consumers ignore them.
SCHEMA_VERSION = 3

#: kind → (one-line description, tuple of field names in emission order).
#: Fields marked with a trailing ``?`` are optional: timing fields appear
#: only when ``trace_timings`` is on, ``provenance`` only when the CLI
#: (or a caller) attached run metadata for replay.
_SPAN_KINDS: dict[str, tuple[str, tuple[str, ...]]] = {
    "run_start": (
        "one synthesis run begins (after Vdd/clock pruning)",
        ("schema", "design", "objective", "sampling_ns", "flattened",
         "n_points", "config", "provenance?"),
    ),
    "point_start": (
        "one (Vdd, clock) operating point begins",
        ("point", "vdd", "clk_ns"),
    ),
    "init": (
        "initial solution constructed for the point",
        ("point", "cycles", "budget"),
    ),
    "pass_start": (
        "one variable-depth improvement pass begins",
        ("point", "pass", "cost"),
    ),
    "step": (
        "one move chosen and applied inside a pass (Figure 4's inner "
        "loop); gain components attribute the cost delta; discovered "
        "counts generated candidates by kind before pruning, tried "
        "counts priced candidates by family after pruning",
        ("point", "pass", "step", "kind", "move", "cost", "gain",
         "d_power", "d_area", "d_cycles", "discovered", "tried", "eval",
         "dur_ns?"),
    ),
    "pass_end": (
        "pass finished; the best prefix of its move sequence committed",
        ("point", "pass", "steps", "committed", "cost", "dur_ns?"),
    ),
    "verify": (
        "differential RTL check of a committed prefix (verify_moves)",
        ("point", "pass", "ok", "dur_ns?"),
    ),
    "point_end": (
        "operating point finished (status: explored | skipped)",
        ("point", "status", "feasible?", "cost?", "area?", "power?",
         "cycles?", "dur_ns?"),
    ),
    "run_end": (
        "run finished; winner identifies the best feasible point "
        "(store: per-tier synthesis-store hit/miss/eviction counters, "
        "present only with trace_timings — totals vary with worker "
        "counts, like wall-clock)",
        ("winner", "events_dropped", "stage_s?", "store?"),
    ),
    "voltage_scale": (
        "post-synthesis supply scaling applied to the winner",
        ("vdd", "clk_ns", "power"),
    ),
}


def span_kinds() -> dict[str, tuple[str, tuple[str, ...]]]:
    """Schema as data: kind → (description, ordered field names).

    Returns a copy so callers cannot mutate the schema.
    """
    return dict(_SPAN_KINDS)
