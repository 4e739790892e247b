"""List the fields in which two JSONL search traces differ, by event kind.

Pairs the events of OLD and NEW position by position and prints, for
each event kind, every field path whose value differs and in how many
events; a path is the event kind followed by the keys leading to the
value (``step.eval.delta``).  Exits 1 when the traces hold a different
number of events, or when a differing path is not named by ``--allow``;
otherwise 0.  OLD and NEW may be two trace files or two directories,
whose ``*.jsonl`` files are then compared by name::

    python tools/trace_field_diff.py old/traces \\
        tests/integration/goldens/traces --allow step.eval.delta

A field present on one side only counts as differing.  Lists are
compared whole.  An allowed path also allows every path below it:
``--allow run_start.config`` covers ``run_start.config.prune``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Stand-in for a field absent from one side of a pair.
_ABSENT = object()


def load_events(path: Path) -> list[dict]:
    """The events of one trace file, one JSON object per line."""
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def differing_paths(old: object, new: object, prefix: str) -> list[str]:
    """Dotted paths below *prefix* at which *old* and *new* differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        paths: list[str] = []
        for key in list(old) + [k for k in new if k not in old]:
            paths.extend(
                differing_paths(
                    old.get(key, _ABSENT), new.get(key, _ABSENT),
                    f"{prefix}.{key}",
                )
            )
        return paths
    if old is _ABSENT or new is _ABSENT or old != new:
        return [prefix]
    return []


def diff_traces(
    old: list[dict], new: list[dict]
) -> dict[str, dict[str, int]]:
    """Event kind → {differing path → number of events it differs in}.

    Events are paired by position; a pair whose kinds differ is counted
    under the old event's kind, at path ``<kind>.k``.
    """
    found: dict[str, dict[str, int]] = {}
    for old_ev, new_ev in zip(old, new):
        kind = old_ev.get("k", "?")
        for path in differing_paths(old_ev, new_ev, kind):
            per_kind = found.setdefault(kind, {})
            per_kind[path] = per_kind.get(path, 0) + 1
    return found


def is_allowed(path: str, allowed: set[str]) -> bool:
    """Whether *path* is, or lies below, one of the *allowed* paths."""
    return any(path == a or path.startswith(a + ".") for a in allowed)


def compare(old_path: Path, new_path: Path, allowed: set[str]) -> bool:
    """Print the differences of one trace pair; True when they pass."""
    old, new = load_events(old_path), load_events(new_path)
    ok = True
    print(f"{new_path.name}: {len(old)} -> {len(new)} events")
    if len(old) != len(new):
        print("  event counts differ")
        ok = False
    kinds: dict[str, int] = {}
    for event in old:
        kind = event.get("k", "?")
        kinds[kind] = kinds.get(kind, 0) + 1
    for kind, paths in sorted(diff_traces(old, new).items()):
        print(f"  {kind} ({kinds[kind]} events):")
        for path, count in sorted(paths.items()):
            passed = is_allowed(path, allowed)
            tag = "allowed" if passed else "NOT ALLOWED"
            print(f"    {path}: {count} differ ({tag})")
            ok = ok and passed
    return ok


def main(argv: list[str] | None = None) -> int:
    """Compare OLD with NEW; 1 on a count mismatch or unallowed field."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument(
        "--allow", action="append", default=[], metavar="FIELD",
        help="a field path allowed to differ, with every path below it "
             "(repeatable)",
    )
    args = parser.parse_args(argv)
    allowed = set(args.allow)

    if args.old.is_dir() and args.new.is_dir():
        old_files = {p.name: p for p in args.old.glob("*.jsonl")}
        new_files = {p.name: p for p in args.new.glob("*.jsonl")}
        ok = bool(old_files) and old_files.keys() == new_files.keys()
        for name in sorted(old_files.keys() ^ new_files.keys()):
            print(f"{name}: on one side only")
        for name in sorted(old_files.keys() & new_files.keys()):
            ok = compare(old_files[name], new_files[name], allowed) and ok
    else:
        ok = compare(args.old, args.new, allowed)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
