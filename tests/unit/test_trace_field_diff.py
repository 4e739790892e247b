"""Unit tests for ``tools/trace_field_diff.py``."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tools"))

from trace_field_diff import diff_traces, main  # noqa: E402

STEP = {
    "k": "step", "point": 0, "kind": "A-cell", "cost": 1.5,
    "eval": {"n": 20, "hits": 0, "delta": 12, "pruned": 0},
}
RUN_START = {"k": "run_start", "design": "paulin", "config": {"prune": True}}


def _write(path: Path, events: list[dict]) -> Path:
    path.write_text("".join(json.dumps(e) + "\n" for e in events))
    return path


def _with(event: dict, **changes) -> dict:
    changed = json.loads(json.dumps(event))
    for dotted, value in changes.items():
        *parents, leaf = dotted.split("__")
        target = changed
        for key in parents:
            target = target[key]
        target[leaf] = value
    return changed


class TestDiffTraces:
    def test_equal_traces_have_no_differences(self):
        assert diff_traces([RUN_START, STEP], [RUN_START, STEP]) == {}

    def test_nested_paths_are_counted_per_kind(self):
        old = [RUN_START, STEP, STEP]
        new = [
            _with(RUN_START, config__prune=False),
            _with(STEP, eval__delta=20),
            _with(STEP, eval__delta=19, cost=1.25),
        ]
        assert diff_traces(old, new) == {
            "run_start": {"run_start.config.prune": 1},
            "step": {"step.eval.delta": 2, "step.cost": 1},
        }

    def test_a_field_on_one_side_only_differs(self):
        new = dict(STEP, dur_ns=5)
        assert diff_traces([STEP], [new]) == {"step": {"step.dur_ns": 1}}
        assert diff_traces([new], [STEP]) == {"step": {"step.dur_ns": 1}}

    def test_a_changed_kind_is_reported_under_the_old_kind(self):
        assert diff_traces([STEP], [dict(STEP, k="eval")]) == {
            "step": {"step.k": 1}
        }


class TestMain:
    def test_allowed_field_passes(self, tmp_path, capsys):
        old = _write(tmp_path / "old.jsonl", [RUN_START, STEP])
        new = _write(
            tmp_path / "new.jsonl", [RUN_START, _with(STEP, eval__delta=20)]
        )
        assert main([str(old), str(new), "--allow", "step.eval.delta"]) == 0
        out = capsys.readouterr().out
        assert "step.eval.delta: 1 differ (allowed)" in out

    def test_allowed_field_covers_its_subfields(self, tmp_path, capsys):
        old = _write(tmp_path / "old.jsonl", [RUN_START, STEP])
        new = _write(
            tmp_path / "new.jsonl",
            [_with(RUN_START, config__prune=False), STEP],
        )
        assert main([str(old), str(new), "--allow", "run_start.config"]) == 0
        assert "run_start.config.prune: 1 differ (allowed)" in \
            capsys.readouterr().out
        # A sibling that merely shares the prefix text is not covered.
        assert main([str(old), str(new), "--allow", "run_start.conf"]) == 1

    def test_field_not_allowed_fails(self, tmp_path, capsys):
        old = _write(tmp_path / "old.jsonl", [STEP])
        new = _write(tmp_path / "new.jsonl", [_with(STEP, cost=2.0)])
        assert main([str(old), str(new), "--allow", "step.eval.delta"]) == 1
        assert "step.cost: 1 differ (NOT ALLOWED)" in capsys.readouterr().out

    def test_different_event_count_fails(self, tmp_path, capsys):
        old = _write(tmp_path / "old.jsonl", [RUN_START, STEP])
        new = _write(tmp_path / "new.jsonl", [RUN_START])
        assert main([str(old), str(new)]) == 1
        assert "event counts differ" in capsys.readouterr().out

    @pytest.mark.parametrize("one_sided", [False, True])
    def test_directories_pair_files_by_name(self, tmp_path, one_sided):
        for side in ("old", "new"):
            (tmp_path / side).mkdir()
            _write(tmp_path / side / "a.jsonl", [RUN_START, STEP])
        if one_sided:
            _write(tmp_path / "new" / "b.jsonl", [STEP])
        status = main([str(tmp_path / "old"), str(tmp_path / "new")])
        assert status == (1 if one_sided else 0)

    def test_goldens_equal_themselves(self):
        goldens = ROOT / "tests" / "integration" / "goldens" / "traces"
        assert main([str(goldens), str(goldens)]) == 0
