"""Gain-attribution and profiling reports over a recorded trace.

:func:`render_report` answers the question telemetry counters cannot:
*which moves earned their keep*.  For every committed pass it lists the
move sequence with per-move gain (split into power/area/schedule
components), marks the committed prefix, and shows where negative-gain
moves were later repaid — the defining behaviour of the paper's
variable-depth (Kernighan–Lin) scheme.  A per-family rollup then
attributes the total committed gain to move types A/B/C/D.

:func:`render_profile` renders the wall-clock side of the same trace:
per-stage seconds, the slowest passes, and synthesis-store counters
(requires a trace recorded with ``trace_timings=True``).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from ..reporting.tables import render_table
from ..telemetry import move_family
from .reader import check_schema

__all__ = ["render_profile", "render_report", "run_overview"]

_FAMILY_LABELS = {
    "A": "A (module selection)",
    "B": "B (resynthesis)",
    "C": "C (sharing/embedding)",
    "D": "D (splitting)",
}


def _index(events: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Group a flat event list by kind and by operating point."""
    by_kind: dict[str, list[dict]] = {}
    for event in events:
        by_kind.setdefault(event["k"], []).append(event)
    starts = by_kind.get("run_start", [])
    if not starts:
        raise ValueError("not a synthesis trace: no run_start event")
    run_start = starts[0]
    # Older schemas (v1/v2) differ from the current one only by absent
    # optional fields, which every consumer below defaults — so any
    # version the shared reader accepts renders here.
    check_schema(run_start.get("schema"))
    return {
        "run_start": run_start,
        "run_end": by_kind.get("run_end", [None])[-1],
        "by_kind": by_kind,
    }


def run_overview(events: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Machine-readable run summary: header fields, winner, counts."""
    idx = _index(events)
    run_start, run_end = idx["run_start"], idx["run_end"]
    by_kind = idx["by_kind"]
    return {
        "design": run_start["design"],
        "objective": run_start["objective"],
        "sampling_ns": run_start["sampling_ns"],
        "flattened": run_start["flattened"],
        "n_points": run_start["n_points"],
        "winner": run_end["winner"] if run_end else None,
        "n_events": len(events),
        "n_steps": len(by_kind.get("step", [])),
        "n_passes": len(by_kind.get("pass_end", [])),
    }


def _point_events(
    by_kind: dict[str, list[dict]], kind: str, point: int
) -> list[dict]:
    return [e for e in by_kind.get(kind, []) if e.get("point") == point]


def _fmt_gain(value: float) -> str:
    return f"{value:+.6g}"


def _pass_tables(
    by_kind: dict[str, list[dict]], point: int, digits: int = 4
) -> list[str]:
    """One move-sequence table per pass of *point*."""
    sections: list[str] = []
    steps = _point_events(by_kind, "step", point)
    for pass_end in _point_events(by_kind, "pass_end", point):
        p = pass_end["pass"]
        committed = pass_end["committed"]
        pass_steps = sorted(
            (e for e in steps if e["pass"] == p), key=lambda e: e["step"]
        )
        if not pass_steps:
            continue
        rows = []
        cum = 0.0
        for e in pass_steps:
            cum += e["gain"]
            in_prefix = e["step"] < committed
            rows.append((
                e["step"],
                e["kind"],
                e["move"][:44],
                _fmt_gain(e["gain"]),
                _fmt_gain(cum),
                _fmt_gain(e["d_power"]),
                _fmt_gain(e["d_area"]),
                "yes" if in_prefix else "",
            ))
        negative_committed = [
            e for e in pass_steps
            if e["step"] < committed and e["gain"] < 0
        ]
        title = (
            f"point {point} pass {p}: {len(pass_steps)} moves, "
            f"committed prefix {committed}"
        )
        table = render_table(
            ("step", "kind", "move", "gain", "cum gain", "d_power",
             "d_area", "committed"),
            rows,
            title=title,
            digits=digits,
        )
        if negative_committed:
            paid = sum(e["gain"] for e in negative_committed)
            prefix_gain = sum(
                e["gain"] for e in pass_steps if e["step"] < committed
            )
            table += (
                f"\nnegative-gain moves in the committed prefix: "
                f"{len(negative_committed)} (cost {_fmt_gain(paid)}), "
                f"repaid by the prefix's net gain {_fmt_gain(prefix_gain)}"
            )
        sections.append(table)
    return sections


def _family_rollup(
    by_kind: dict[str, list[dict]], point: int
) -> str | None:
    """Gain attribution by move family for one operating point."""
    steps = _point_events(by_kind, "step", point)
    committed_by_pass = {
        e["pass"]: e["committed"]
        for e in _point_events(by_kind, "pass_end", point)
    }
    discovered: dict[str, int] = {}
    tried: dict[str, int] = {}
    chosen: dict[str, int] = {}
    committed: dict[str, int] = {}
    gain: dict[str, float] = {}
    negative: dict[str, int] = {}
    for e in steps:
        family = move_family(e["kind"])
        # Schema v3 counts generated candidates by full kind before
        # pruning; absent in older traces, hence the default.
        for kind, n in e.get("discovered", {}).items():
            fam = move_family(kind)
            discovered[fam] = discovered.get(fam, 0) + n
        for fam, n in e.get("tried", {}).items():
            tried[fam] = tried.get(fam, 0) + n
        chosen[family] = chosen.get(family, 0) + 1
        if e["step"] < committed_by_pass.get(e["pass"], 0):
            committed[family] = committed.get(family, 0) + 1
            gain[family] = gain.get(family, 0.0) + e["gain"]
            if e["gain"] < 0:
                negative[family] = negative.get(family, 0) + 1
    if not steps:
        return None
    rows = []
    for family in sorted(set(discovered) | set(tried) | set(chosen)):
        rows.append((
            _FAMILY_LABELS.get(family, family),
            discovered.get(family, 0),
            tried.get(family, 0),
            chosen.get(family, 0),
            committed.get(family, 0),
            negative.get(family, 0),
            _fmt_gain(gain.get(family, 0.0)),
        ))
    return render_table(
        ("move family", "discovered", "tried", "chosen", "committed",
         "neg-gain", "committed gain"),
        rows,
        title=f"gain attribution by move family (point {point})",
    )


def _cache_line(by_kind: dict[str, list[dict]], point: int) -> str | None:
    steps = _point_events(by_kind, "step", point)
    n = sum(e["eval"]["n"] for e in steps)
    hits = sum(e["eval"]["hits"] for e in steps)
    misses = sum(e["eval"]["misses"] for e in steps)
    # Older traces predate the incremental engine; default the new
    # counters to zero so their reports still render.
    delta = sum(e["eval"].get("delta", 0) for e in steps)
    pruned = sum(e["eval"].get("pruned", 0) for e in steps)
    if n == 0:
        return None
    line = (
        f"cost evaluations while pricing: {n} "
        f"({hits} cache hits / {misses} rebuilds, "
        f"{hits / n:.1%} hit rate)"
    )
    if delta and misses:
        line += (
            f"; of the rebuilds, {delta} delta-priced / "
            f"{misses - delta} from scratch "
            f"({delta / misses:.1%} delta-hit rate)"
        )
    if pruned:
        line += f"; {pruned} candidates pruned before pricing"
    return line


def render_report(
    events: Sequence[dict[str, Any]], all_points: bool = False
) -> str:
    """Render the per-pass gain-attribution report for a trace.

    By default only the winning operating point is detailed (that is the
    search that produced the returned architecture); ``all_points``
    also walks the losing points.
    """
    idx = _index(events)
    run_start, run_end = idx["run_start"], idx["run_end"]
    by_kind = idx["by_kind"]

    out: list[str] = []
    head = (
        f"trace: {run_start['design']} — objective {run_start['objective']}, "
        f"sampling {run_start['sampling_ns']:.1f} ns, "
        f"{run_start['n_points']} operating points"
        f"{' (flattened)' if run_start.get('flattened') else ''}"
    )
    out.append(head)

    if run_end is None:
        out.append("run did not finish: no run_end event (partial trace)")
        points = sorted({
            e["point"] for e in by_kind.get("point_start", [])
        })
    else:
        winner = run_end["winner"]
        out.append(
            f"winner: point {winner['point']} "
            f"(Vdd {winner['vdd']:.2f} V, clock {winner['clk_ns']:.2f} ns) — "
            f"cost {winner['cost']:.6g}, area {winner['area']:.1f}, "
            f"power {winner['power']:.4f}"
        )
        if run_end.get("events_dropped"):
            out.append(
                f"warning: {run_end['events_dropped']} events dropped "
                f"(event bound reached)"
            )
        points = (
            sorted({e["point"] for e in by_kind.get("point_start", [])})
            if all_points
            else [winner["point"]]
        )

    for point in points:
        start = next(
            (e for e in by_kind.get("point_start", [])
             if e["point"] == point),
            None,
        )
        if start is not None:
            out.append("")
            out.append(
                f"--- point {point}: Vdd {start['vdd']:.2f} V, "
                f"clock {start['clk_ns']:.2f} ns "
                + "-" * 24
            )
        for section in _pass_tables(by_kind, point):
            out.append("")
            out.append(section)
        rollup = _family_rollup(by_kind, point)
        if rollup is not None:
            out.append("")
            out.append(rollup)
        cache = _cache_line(by_kind, point)
        if cache is not None:
            out.append(cache)
    return "\n".join(out)


def render_profile(events: Sequence[dict[str, Any]]) -> str:
    """Render the wall-clock trajectory of a trace (needs timings)."""
    idx = _index(events)
    run_start, run_end = idx["run_start"], idx["run_end"]
    by_kind = idx["by_kind"]

    timed_passes = [e for e in by_kind.get("pass_end", []) if "dur_ns" in e]
    timed_points = [e for e in by_kind.get("point_end", []) if "dur_ns" in e]
    stage_s = (run_end or {}).get("stage_s")
    if not timed_passes and not timed_points and not stage_s:
        return (
            "trace has no timing spans (recorded with trace_timings=False); "
            "re-run with timings enabled to profile"
        )

    out: list[str] = [
        f"profile: {run_start['design']} — {run_start['objective']}, "
        f"{run_start['n_points']} operating points"
    ]
    if stage_s:
        rows = [(stage, f"{seconds:.3f}") for stage, seconds in stage_s.items()]
        out.append("")
        out.append(render_table(("stage", "seconds"), rows,
                                title="wall-clock by stage"))
    store = (run_end or {}).get("store")
    if store:
        keys = sorted(
            set(store.get("hits", {}))
            | set(store.get("misses", {}))
            | set(store.get("evictions", {}))
        )
        rows = [
            (
                key,
                store.get("hits", {}).get(key, 0),
                store.get("misses", {}).get(key, 0),
                store.get("evictions", {}).get(key, 0),
            )
            for key in keys
        ]
        if rows:
            out.append("")
            out.append(render_table(
                ("tier.namespace", "hits", "misses", "evictions"), rows,
                title="synthesis store",
            ))
    if timed_points:
        rows = [
            (
                e["point"],
                e["status"],
                f"{e['dur_ns'] / 1e9:.3f}",
                len([
                    p for p in by_kind.get("pass_end", [])
                    if p.get("point") == e["point"]
                ]),
            )
            for e in timed_points
        ]
        out.append("")
        out.append(render_table(
            ("point", "status", "seconds", "passes"), rows,
            title="operating points",
        ))
    if timed_passes:
        slowest = sorted(
            timed_passes, key=lambda e: -e["dur_ns"]
        )[:5]
        rows = [
            (e["point"], e["pass"], e["steps"], e["committed"],
             f"{e['dur_ns'] / 1e9:.3f}")
            for e in slowest
        ]
        out.append("")
        out.append(render_table(
            ("point", "pass", "steps", "committed", "seconds"), rows,
            title="slowest improvement passes",
        ))
    return "\n".join(out)
