"""Race a parent revision against this checkout on one harness workload.

Exports PARENT (a git revision, default ``HEAD``) with ``git archive``
into a temporary directory, then runs ``benchmarks/harness/bench.py run``
for one workload at each given seed on both sides, alternating: the
parent runs first on even seeds and the change (this checkout, working
tree included) first on odd ones, so a drift in machine load falls on
both sides alike.  Each side writes its run records to its own
``--out`` directory, and ``bench.py compare`` prints the verdicts at
the end::

    python tools/bench_pairs.py --workload flat-power --seeds 0-9
    python tools/bench_pairs.py --workload hier-power --seeds 0,3,10 \\
        --parent HEAD~1 --out race-runs --trace

``--dry-run`` prints the plan (one command per line) and runs nothing.
The exit status is ``bench.py compare``'s: 1 when a metric reads
WORSE, else 0.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path("benchmarks") / "harness" / "bench.py"
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """``"0-3,7"`` → ``[0, 1, 2, 3, 7]``; ranges are inclusive."""
    seeds: list[int] = []
    for part in text.split(","):
        low, dash, high = part.partition("-")
        if dash:
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_order(seeds: list[int]) -> list[tuple[int, str]]:
    """``(seed, side)`` in run order: the parent first on even seeds."""
    order: list[tuple[int, str]] = []
    for seed in seeds:
        sides = SIDES if seed % 2 == 0 else SIDES[::-1]
        order.extend((seed, side) for side in sides)
    return order


def plan(
    workload: str,
    seeds: list[int],
    trees: dict[str, Path],
    out: Path,
    trace: bool = False,
) -> list[tuple[str, Path, list[str]]]:
    """Every command, as ``(side, working directory, argv)``, in order.

    The last one is the change's ``bench.py compare``, labelled
    ``compare``.
    """
    steps: list[tuple[str, Path, list[str]]] = []
    for seed, side in run_order(seeds):
        argv = [sys.executable, str(BENCH), "run", "--workload", workload,
                "--seed", str(seed), "--out", str(out / side)]
        if trace:
            argv += ["--trace", "1"]
        steps.append((side, trees[side], argv))
    steps.append(("compare", ROOT, [sys.executable, str(BENCH), "compare",
                                    str(out / "parent"), str(out / "change")]))
    return steps


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"),
                        help="seeds and inclusive ranges, e.g. 0-9 or 0,3,10")
    parser.add_argument("--parent", default="HEAD",
                        help="git revision to race against (default: HEAD)")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for both sides' run records "
                             "(default: a new temporary directory)")
    parser.add_argument("--trace", action="store_true",
                        help="trace the timed passes (per-layer metrics)")
    parser.add_argument("--dry-run", action="store_true",
                        help="print the plan and run nothing")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        parent_tree = Path(scratch) / "parent"
        out = (args.out or Path(scratch) / "runs").resolve()
        steps = plan(args.workload, args.seeds,
                     {"parent": parent_tree, "change": ROOT}, out, args.trace)
        if args.dry_run:
            print(f"git archive {args.parent} -> {parent_tree}")
            for _side, cwd, command in steps:
                print(f"(cd {cwd} && {' '.join(command)})")
            return 0
        parent_tree.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.parent],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive,
                       check=True)
        for side, cwd, command in steps[:-1]:
            print(f"== {side}: {' '.join(command[2:])}", flush=True)
            subprocess.run(command, cwd=cwd, check=True)
        _side, cwd, command = steps[-1]
        return subprocess.run(command, cwd=cwd).returncode


if __name__ == "__main__":
    sys.exit(main())
