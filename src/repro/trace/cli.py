"""The ``repro-trace`` command-line tool.

Subcommands
-----------
``report``  — per-pass gain attribution: the move sequence of every
              committed pass, which move families earned their keep,
              and where negative-gain prefixes paid off;
``replay``  — re-execute the recorded committed move sequence and check
              that it reproduces the final cost bit-identically, then
              run the differential RTL oracle on the replayed result;
``profile`` — wall-clock trajectory: per-stage seconds, slowest passes,
              synthesis-store counters (needs trace timings).

Examples::

    python -m repro synth --benchmark paulin --laxity 2.2 \\
        --objective power --trace paulin.jsonl
    repro-trace report paulin.jsonl
    repro-trace replay paulin.jsonl
    repro-trace profile paulin.jsonl
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..errors import ReproError
from .reader import read_events

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro-trace`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="inspect, profile and replay synthesis search traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="per-pass gain attribution by move type"
    )
    report.add_argument("trace", type=Path, help="JSONL trace file")
    report.add_argument(
        "--all-points", action="store_true",
        help="detail every operating point, not just the winner",
    )

    replay = sub.add_parser(
        "replay",
        help="re-execute the recorded move sequence and verify the result",
    )
    replay.add_argument("trace", type=Path, help="JSONL trace file")
    replay.add_argument(
        "--no-verify", action="store_true",
        help="skip the differential RTL oracle (cost check only)",
    )

    profile = sub.add_parser(
        "profile", help="wall-clock breakdown from span timings"
    )
    profile.add_argument("trace", type=Path, help="JSONL trace file")
    return parser


def _cmd_report(args: argparse.Namespace) -> int:
    from .report import render_report

    events = read_events(args.trace)
    print(render_report(events, all_points=args.all_points))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .replay import replay_trace

    events = read_events(args.trace)
    result = replay_trace(events, verify=not args.no_verify)
    print(result.describe())
    return 0 if result.ok else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from .report import render_profile

    events = read_events(args.trace)
    print(render_profile(events))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "replay":
            return _cmd_replay(args)
        if args.command == "profile":
            return _cmd_profile(args)
    except (ReproError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
