"""Compare the persistent-store blobs of two ``--cache-dir`` directories.

Two cold runs of the same synthesis must store byte-identical results
whatever the interpreter's hash seed.  This lists, per namespace, the
``(ns, key)`` entries whose blobs differ or exist on one side only, and
exits non-zero when any of them is a ``point``, ``module``,
``resynth`` or ``schedule`` entry::

    PYTHONHASHSEED=1 python -m repro synth --benchmark dct --laxity 2.2 \\
        --objective power --cache-dir run1
    PYTHONHASHSEED=2 python -m repro synth --benchmark dct --laxity 2.2 \\
        --objective power --cache-dir run2
    python tools/compare_store_blobs.py run1 run2

Differences in other namespaces (``service``, the corner sweep's
``metrics``) are printed but do not fail the check.
"""

from __future__ import annotations

import argparse
import sqlite3
import sys
from pathlib import Path

#: Namespaces whose blobs must be byte-identical (and present).
REQUIRED = ("point", "module", "resynth", "schedule")


def read_blobs(cache_dir: Path) -> dict[tuple[str, str], bytes]:
    """Every ``(ns, key) → blob`` row of the store files in *cache_dir*."""
    blobs: dict[tuple[str, str], bytes] = {}
    paths = sorted(cache_dir.glob("synthesis_store*.sqlite"))
    if not paths:
        raise SystemExit(f"no synthesis store in {cache_dir}")
    for path in paths:
        db = sqlite3.connect(path)
        try:
            for ns, key, value in db.execute("SELECT ns, key, value FROM store"):
                blobs[(ns, key)] = bytes(value)
        finally:
            db.close()
    return blobs


def differing(
    left: dict[tuple[str, str], bytes], right: dict[tuple[str, str], bytes]
) -> dict[str, int]:
    """Namespace → number of entries that differ or are one-sided."""
    counts: dict[str, int] = {}
    for entry in left.keys() | right.keys():
        if left.get(entry) != right.get(entry):
            counts[entry[0]] = counts.get(entry[0], 0) + 1
    return counts


def main(argv: list[str] | None = None) -> int:
    """Print per-namespace differences; 1 if a required namespace differs."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("left", type=Path)
    parser.add_argument("right", type=Path)
    args = parser.parse_args(argv)

    left, right = read_blobs(args.left), read_blobs(args.right)
    entries = left.keys() | right.keys()
    counts = differing(left, right)
    status = 0
    for ns in sorted({entry[0] for entry in entries} | set(REQUIRED)):
        total = sum(1 for entry in entries if entry[0] == ns)
        bad = counts.get(ns, 0)
        required = ns in REQUIRED
        print(f"{ns:10} {total:6} entries, {bad:6} differ"
              + (" (required identical)" if required else ""))
        # An empty required namespace proves nothing: fail it too.
        if required and (bad or not total):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
