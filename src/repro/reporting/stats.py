"""Rendering of synthesis-run telemetry (the CLI's ``--stats`` view).

The engine counts what it did — evaluations, cost-cache hits, moves
tried and committed per family (A/B/C/D), operating points explored,
and per-stage wall time — in a :class:`~repro.telemetry.Telemetry`
attached to every :class:`~repro.synthesis.api.SynthesisResult`.  This
module turns one into the same plain-text table style the experiment
harness uses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..telemetry import Telemetry
from .tables import render_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..synthesis.improve import PassRecord

__all__ = ["render_stats"]

_FAMILY_LABELS = {
    "A": "A (module selection)",
    "B": "B (resynthesis)",
    "C": "C (sharing/embedding)",
    "D": "D (splitting)",
}


def _history_rows(
    history: "dict[tuple[float, float], list[PassRecord]]",
) -> list[tuple[str, object]]:
    """Per-pass rows from the sweep's improvement-pass records.

    Each explored operating point contributes one row per pass showing
    how deep the variable-depth sequence went, how much of it committed,
    and the cost the committed prefix reached.
    """
    rows: list[tuple[str, object]] = []
    for (vdd, clk_ns), records in sorted(history.items()):
        for idx, record in enumerate(records):
            if record.committed_prefix:
                cost = record.costs[record.committed_prefix - 1]
                value = (
                    f"{len(record.moves)} moves, "
                    f"{record.committed_prefix} committed, cost {cost:.4g}"
                )
            else:
                value = f"{len(record.moves)} moves, none committed"
            rows.append((f"pass {vdd:.2f}V/{clk_ns:.1f}ns #{idx}", value))
    return rows


def render_stats(
    telemetry: Telemetry,
    title: str = "Synthesis statistics",
    history: "dict[tuple[float, float], list[PassRecord]] | None" = None,
) -> str:
    """Render telemetry counters as a plain-text table.

    *history* (``SynthesisResult.history``) appends one row per
    improvement pass of every explored operating point — the
    variable-depth search's per-pass depth, committed prefix and
    committed move kinds.
    """
    rows: list[tuple[str, object]] = [
        ("evaluations", telemetry.evaluations),
        ("cost-cache hits", telemetry.cache_hits),
        ("cost-cache misses", telemetry.cache_misses),
        ("cost-cache hit rate", f"{telemetry.cache_hit_rate:.1%}"),
        (
            "cache misses priced",
            f"{telemetry.delta_hits} delta / "
            f"{telemetry.delta_fallbacks} fallback / "
            f"{telemetry.full_evals} full",
        ),
        ("delta-hit rate", f"{telemetry.delta_hit_rate:.1%}"),
        ("points explored", telemetry.points_explored),
        ("points skipped", telemetry.points_skipped),
    ]
    for family in sorted(set(telemetry.moves_tried) | set(telemetry.moves_committed)):
        label = _FAMILY_LABELS.get(family, family)
        rows.append(
            (
                f"moves {label}",
                f"{telemetry.moves_tried.get(family, 0)} tried / "
                f"{telemetry.moves_committed.get(family, 0)} committed",
            )
        )
    if telemetry.moves_discovered:
        discovered = " / ".join(
            f"{kind}: {n}" for kind, n in sorted(telemetry.moves_discovered.items())
        )
        rows.append(("moves discovered", discovered))
    if telemetry.moves_materialized:
        materialized = " / ".join(
            f"{kind}: {n}"
            for kind, n in sorted(telemetry.moves_materialized.items())
        )
        rows.append(("moves materialized", materialized))
    if telemetry.moves_embedded:
        embedded = " / ".join(
            f"{kind}: {n}" for kind, n in sorted(telemetry.moves_embedded.items())
        )
        rows.append(("moves embedded", embedded))
    if telemetry.moves_pruned:
        pruned = " / ".join(
            f"{family}: {n}" for family, n in sorted(telemetry.moves_pruned.items())
        )
        rows.append(("moves pruned before pricing", pruned))
    if telemetry.verify_checks:
        rows.append(
            (
                "RTL verifications",
                f"{telemetry.verify_checks} checks / "
                f"{telemetry.verify_failures} failures",
            )
        )
    store_keys = sorted(
        set(telemetry.store_hits)
        | set(telemetry.store_misses)
        | set(telemetry.store_evictions)
    )
    for key in store_keys:
        hits = telemetry.store_hits.get(key, 0)
        misses = telemetry.store_misses.get(key, 0)
        evictions = telemetry.store_evictions.get(key, 0)
        value = f"{hits} hits / {misses} misses"
        if evictions:
            value += f" / {evictions} evicted"
        rows.append((f"store {key}", value))
    if telemetry.store_writes:
        rows.append((
            "store persistent writes",
            f"{telemetry.store_writes.get('rows', 0)} in "
            f"{telemetry.store_writes.get('commits', 0)} commits",
        ))
    if history:
        rows.extend(_history_rows(history))
    for stage, seconds in sorted(telemetry.stage_s.items()):
        rows.append((f"time: {stage}", f"{seconds:.3f} s"))
    return render_table(("counter", "value"), rows, title=title)
