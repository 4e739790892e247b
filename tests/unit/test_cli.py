"""Unit tests for the command-line interface."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.dfg import write_design
from tests.designs import make_butterfly_design
from tests.unit.test_store import add_legacy_metrics_rows, add_legacy_priors_rows

DESIGN_TEXT = """
design tiny
top main

dfg main
  input x
  input y
  op m mult x y
  op a add m y
  output out a
end
"""


@pytest.fixture
def design_file(tmp_path):
    path = tmp_path / "tiny.dfg"
    path.write_text(DESIGN_TEXT)
    return path


#: Prepended to a subprocess's code: every ``import scipy`` fails.
BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("import of " + name + " is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
"""


def _run_python(code: str) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=300,
    )


class TestImportCost:
    def test_cli_import_leaves_scipy_and_networkx_unloaded(self):
        """Only ``hierarchize`` needs networkx, and nothing in the
        package imports scipy, so starting the CLI (and every flat run
        or client command after it) must not pay for importing either."""
        proc = _run_python(
            "import sys, repro.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} "
            "& {'scipy', 'networkx'}))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_hierarchical_synthesis_runs_without_scipy(self):
        """RTL embedding solves its assignments in-tree: a hierarchical
        dct run, which embeds modules, completes with scipy blocked."""
        proc = _run_python(
            BLOCK_SCIPY
            + "from repro.cli import main\n"
            "sys.exit(main(['synth', '--benchmark', 'dct', "
            "'--laxity', '2.2', '--stats']))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert re.search(r"moves embedded +C-embed: [1-9]", proc.stdout)
        assert re.search(r"^power: ", proc.stdout, re.MULTILINE)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_synth_needs_constraint(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["synth", "--benchmark", "paulin"])

    @pytest.mark.parametrize(
        "command,flag",
        [("synth", flag) for flag in (
            "--portfolio=3", "--score-workers=2", "--no-batch-activity",
            "--no-incremental", "--no-relational", "--saturate", "--priors",
            "--policy=greedy", "--no-prune", "--no-persistent-cache",
        )] + [("submit", "--policy=greedy")],
    )
    def test_removed_flags_are_rejected(self, command, flag, capsys):
        """Search extras, search policies and bit-identity knobs are gone
        from ``synth`` and ``submit``."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                [command, "--benchmark", "paulin", "--laxity", "2.2", flag]
            )
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        assert flag.split("=")[0] not in capsys.readouterr().out


class TestInfo:
    def test_prints_statistics(self, design_file, capsys):
        assert main(["info", str(design_file)]) == 0
        out = capsys.readouterr().out
        assert "design 'tiny'" in out
        assert "2 operations" in out

    def test_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.dfg"
        bad.write_text("dfg x\n weird\nend\n")
        assert main(["info", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["info", str(tmp_path / "nope.dfg")]) == 1


class TestSynth:
    def test_synthesize_file(self, design_file, capsys, tmp_path):
        netlist = tmp_path / "out.v"
        fsm = tmp_path / "out.fsm"
        code = main(
            [
                "synth",
                str(design_file),
                "--laxity", "2.0",
                "--objective", "area",
                "--netlist", str(netlist),
                "--fsm", str(fsm),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "area:" in out and "power:" in out
        assert netlist.read_text().startswith("module")
        assert "states" in fsm.read_text()

    def test_synthesize_benchmark_flat(self, capsys):
        code = main(
            [
                "synth",
                "--benchmark", "paulin",
                "--laxity", "2.2",
                "--objective", "area",
                "--flatten",
                "--samples", "24",
            ]
        )
        assert code == 0
        assert "(flattened)" in capsys.readouterr().out

    def test_voltage_scale_flag(self, design_file, capsys):
        code = main(
            [
                "synth",
                str(design_file),
                "--laxity", "3.0",
                "--objective", "area",
                "--voltage-scale",
                "--samples", "24",
            ]
        )
        assert code == 0

    def test_impossible_constraint_reports_error(self, design_file, capsys):
        code = main(
            [
                "synth",
                str(design_file),
                "--sampling-ns", "1",
                "--objective", "area",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_corners_flag_prints_sweep(self, design_file, capsys):
        code = main(
            [
                "synth",
                str(design_file),
                "--laxity", "2.0",
                "--objective", "area",
                "--corners",
                "--samples", "16",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for name in ("slow", "typ", "fast"):
            assert name in out
        assert "pareto" in out

    def test_corners_with_cache_dir(self, design_file, capsys, tmp_path):
        args = [
            "synth",
            str(design_file),
            "--laxity", "2.0",
            "--objective", "area",
            "--corners",
            "--samples", "16",
            "--cache-dir", str(tmp_path / "store"),
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert main(args) == 0  # second run answers from the store
        warm = capsys.readouterr().out
        assert cold[cold.index("corner"):] == warm[warm.index("corner"):]

    def test_stats_flag_prints_telemetry(self, design_file, capsys):
        code = main(
            [
                "synth",
                str(design_file),
                "--laxity", "2.0",
                "--objective", "area",
                "--stats",
                "--samples", "16",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Synthesis statistics" in out
        assert "evaluations" in out
        assert "cost-cache hit rate" in out

    def test_stats_store_lines_cover_the_library_build(self, tmp_path,
                                                       capsys):
        """The store lines count the whole process: on an empty cache
        directory, the rows a hierarchical run reports writing are the
        entries the directory holds afterwards, library build included."""
        path = tmp_path / "bf.dfg"
        path.write_text(write_design(make_butterfly_design()))
        cache = tmp_path / "store"
        assert main(["synth", str(path), "--laxity", "2.2",
                     "--samples", "16", "--cache-dir", str(cache),
                     "--stats"]) == 0
        out = capsys.readouterr().out
        written = re.search(
            r"store persistent writes\s+(\d+) in (\d+) commits", out
        )
        assert written is not None, out
        assert main(["cache", "stats", "--cache-dir", str(cache)]) == 0
        entries = re.search(r"^entries: (\d+)$", capsys.readouterr().out,
                            re.MULTILINE)
        assert int(written.group(1)) == int(entries.group(1))

    def test_workers_flag(self, design_file, capsys):
        code = main(
            [
                "synth",
                str(design_file),
                "--laxity", "2.0",
                "--objective", "area",
                "--workers", "2",
                "--samples", "16",
            ]
        )
        assert code == 0
        assert "area:" in capsys.readouterr().out

    def test_trace_family_choices(self, design_file):
        for family in ("white", "image"):
            code = main(
                [
                    "synth",
                    str(design_file),
                    "--laxity", "2.0",
                    "--objective", "area",
                    "--traces", family,
                    "--samples", "16",
                ]
            )
            assert code == 0


class TestGen:
    def test_stdout_single_design_parses(self, capsys):
        from repro.dfg import parse_design, validate_design

        assert main(["gen", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        validate_design(parse_design(out))

    def test_stdout_is_deterministic(self, capsys):
        main(["gen", "--seed", "7", "--count", "3"])
        first = capsys.readouterr().out
        main(["gen", "--seed", "7", "--count", "3"])
        assert capsys.readouterr().out == first

    def test_corpus_directory(self, tmp_path, capsys):
        from repro.gen import load_manifest

        out_dir = tmp_path / "corpus"
        code = main(
            ["gen", "--seed", "3", "--count", "4", "--out-dir", str(out_dir)]
        )
        assert code == 0
        assert "wrote 4 designs" in capsys.readouterr().out
        manifest = load_manifest(out_dir)
        assert len(manifest["entries"]) == 4
        for entry in manifest["entries"]:
            assert (out_dir / entry["file"]).exists()

    def test_config_knobs_change_output(self, capsys):
        main(["gen", "--seed", "7"])
        base = capsys.readouterr().out
        main(["gen", "--seed", "7", "--hierarchy-depth", "1",
              "--max-ops", "3"])
        assert capsys.readouterr().out != base

    def test_flat_knob(self, capsys):
        from repro.dfg import parse_design

        main(["gen", "--seed", "5", "--hierarchy-depth", "1"])
        design = parse_design(capsys.readouterr().out)
        assert design.depth() == 1


class TestCachePrune:
    def test_prune_reports_counts(self, tmp_path, capsys):
        from repro.synthesis.store import SynthesisStore

        store = SynthesisStore(cache_dir=str(tmp_path))
        for i in range(5):
            store.put("module", f"k{i}", ("c", i), i)
        store.close()

        code = main(["cache", "prune", "--cache-dir", str(tmp_path),
                     "--max-entries", "2"])
        assert code == 0
        assert "pruned 3 entries" in capsys.readouterr().out

        store = SynthesisStore(cache_dir=str(tmp_path))
        assert store.persistent_stats()["total_entries"] == 2
        store.close()

    def test_prune_missing_store_fails(self, tmp_path, capsys):
        target = tmp_path / "not-a-dir"
        target.write_text("file in the way")
        with pytest.warns(RuntimeWarning, match="does not open"):
            code = main(["cache", "prune", "--cache-dir", str(target / "sub"),
                         "--max-entries", "2"])
        assert code == 1
        assert "no usable store" in capsys.readouterr().err


class TestCacheLegacyPriorsRows:
    """``priors`` rows of earlier versions are counted and removed like
    any other row."""

    @pytest.fixture
    def cache_dir(self, tmp_path):
        from repro.synthesis.store import SynthesisStore

        SynthesisStore(cache_dir=str(tmp_path)).close()
        add_legacy_priors_rows(tmp_path)
        store = SynthesisStore(cache_dir=str(tmp_path))
        store.put("schedule", "k", ("c",), (1, 2, 3))
        store.close()
        return tmp_path

    def test_stats_counts_them(self, cache_dir, capsys):
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries: 3" in out
        assert "  priors: 2" in out and "  schedule: 1" in out

    def test_prune_removes_them_oldest_first(self, cache_dir, capsys):
        assert main(["cache", "prune", "--cache-dir", str(cache_dir),
                     "--max-entries", "1"]) == 0
        assert "pruned 2 entries" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out and "priors" not in out

    def test_clear_removes_them(self, cache_dir, capsys):
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "cleared 3 entries" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        assert "entries: 0" in capsys.readouterr().out


class TestCacheLegacyMetricsRows:
    """Per-candidate ``metrics`` rows of earlier versions are counted
    and removed like any other row."""

    @pytest.fixture
    def cache_dir(self, tmp_path):
        from repro.synthesis.store import SynthesisStore

        store = SynthesisStore(cache_dir=str(tmp_path))
        store.put("point", "k", ("c",), None)
        store.close()
        add_legacy_metrics_rows(tmp_path, 4)
        return tmp_path

    def test_stats_counts_them(self, cache_dir, capsys):
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries: 5" in out
        assert "  metrics: 4" in out and "  point: 1" in out

    def test_prune_removes_them_oldest_first(self, cache_dir, capsys):
        assert main(["cache", "prune", "--cache-dir", str(cache_dir),
                     "--max-entries", "3"]) == 0
        assert "pruned 2 entries" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "  metrics: 3" in out and "point" not in out

    def test_clear_removes_them(self, cache_dir, capsys):
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "cleared 5 entries" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        assert "entries: 0" in capsys.readouterr().out


class TestSourceContext:
    def test_parse_errors_name_the_file(self, tmp_path, capsys):
        path = tmp_path / "broken.dfg"
        path.write_text("dfg a\n weird x\nend\ntop a\n")
        code = main(["info", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "broken.dfg:2" in err


class TestServiceParsers:
    """Argument surface of the serve/submit/status subcommands."""

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8000
        assert args.workers == 1
        assert str(args.cache_dir) == ".repro-service"
        assert args.store_shards is None
        assert not args.threads

    def test_serve_overrides(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "4",
             "--cache-dir", "svc", "--store-shards", "8", "--threads",
             "--prune-jobs", "100", "--prune-store", "5000"]
        )
        assert args.port == 0 and args.workers == 4
        assert args.store_shards == 8 and args.threads
        assert args.prune_jobs == 100 and args.prune_store == 5000

    def test_submit_needs_exactly_one_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "--laxity", "2.0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["submit", "--benchmark", "lat", "--gen-seed", "3",
                 "--laxity", "2.0"]
            )

    def test_submit_needs_exactly_one_constraint(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "--benchmark", "lat"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["submit", "--benchmark", "lat", "--laxity", "2.0",
                 "--sampling-ns", "400"]
            )

    def test_submit_full_surface(self):
        args = build_parser().parse_args(
            ["submit", "--url", "http://h:1", "--gen-seed", "5",
             "--laxity", "2.0", "--objective", "area", "--traces", "white",
             "--samples", "16", "--seed", "3", "--effort", "full",
             "--flatten", "--verify", "--trace", "--wait",
             "--timeout", "30"]
        )
        assert args.gen_seed == 5 and args.objective == "area"
        assert args.trace is True and args.wait and args.timeout == 30.0

    @pytest.mark.parametrize("flag", ["--portfolio=3", "--priors"])
    def test_removed_submit_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["submit", "--benchmark", "lat", "--laxity", "2.0", flag]
            )
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "--help"])
        assert flag.split("=")[0] not in capsys.readouterr().out

    def test_status_job_id_is_optional(self):
        args = build_parser().parse_args(["status"])
        assert args.job_id is None
        args = build_parser().parse_args(
            ["status", "abc123", "--result", "r.json",
             "--trace", "t.jsonl"]
        )
        assert args.job_id == "abc123"
        assert str(args.result) == "r.json"

    def test_submit_unreachable_server_fails_cleanly(self, capsys):
        code = main(["submit", "--url", "http://127.0.0.1:9",
                     "--benchmark", "lat", "--laxity", "2.0"])
        assert code == 1
        assert "cannot reach service" in capsys.readouterr().err

    def test_status_unreachable_server_fails_cleanly(self, capsys):
        code = main(["status", "--url", "http://127.0.0.1:9"])
        assert code == 1
        assert "cannot reach service" in capsys.readouterr().err
