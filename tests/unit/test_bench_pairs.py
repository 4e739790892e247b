"""Unit tests for ``tools/bench_pairs.py``: the alternating-pairs plan."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tools"))

from bench_pairs import main, parse_seeds, plan, run_order  # noqa: E402

TREES = {"parent": Path("/p"), "change": Path("/c")}


class TestSeeds:
    def test_ranges_are_inclusive(self):
        assert parse_seeds("0-3,7") == [0, 1, 2, 3, 7]
        assert parse_seeds("10") == [10]


class TestOrder:
    def test_parent_first_on_even_seeds(self):
        assert run_order([0, 1, 2, 7]) == [
            (0, "parent"), (0, "change"),
            (1, "change"), (1, "parent"),
            (2, "parent"), (2, "change"),
            (7, "change"), (7, "parent"),
        ]

    def test_plan_runs_each_side_in_its_tree_into_its_own_dir(self):
        steps = plan("flat-power", [0, 1], TREES, Path("/out"))
        runs, (label, cwd, compare) = steps[:-1], steps[-1]
        assert [(side, argv[argv.index("--seed") + 1]) for side, _, argv in runs] == [
            ("parent", "0"), ("change", "0"), ("change", "1"), ("parent", "1"),
        ]
        for side, tree, argv in runs:
            assert tree == TREES[side]
            assert argv[1:5] == [str(Path("benchmarks/harness/bench.py")), "run",
                                 "--workload", "flat-power"]
            assert argv[argv.index("--out") + 1] == str(Path("/out") / side)
            assert "--trace" not in argv
        assert label == "compare"
        assert compare[2:] == ["compare", str(Path("/out/parent")),
                               str(Path("/out/change"))]

    def test_trace_flag_reaches_every_run(self):
        steps = plan("hier-power", [3], TREES, Path("/out"), trace=True)
        assert all(argv[-2:] == ["--trace", "1"] for _, _, argv in steps[:-1])


class TestDryRun:
    def test_prints_the_plan_and_runs_nothing(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a dry run started a process")

        monkeypatch.setattr(subprocess, "run", refuse)
        assert main(["--workload", "flat-power", "--seeds", "0-1",
                     "--dry-run"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("git archive HEAD -> ")
        assert len(lines) == 1 + 4 + 1
        assert "--seed 0 --out" in lines[1] and lines[1].rstrip(")").endswith("parent")
        assert lines[-1].endswith(")") and " compare " in lines[-1]


@pytest.mark.parametrize("bad", ["", "a-b", "3-"])
def test_malformed_seeds_are_rejected(bad):
    with pytest.raises(ValueError):
        parse_seeds(bad)
