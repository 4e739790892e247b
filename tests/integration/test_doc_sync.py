"""Documentation/code synchronization checks.

Docs rot in three ways this module guards against:

1. a CLI invocation shown in README/docs stops parsing (flag renamed or
   removed) — every ``python -m repro``/``repro-trace`` command found in
   a fenced code block is run through the real argument parsers;
2. the README's examples table and ``examples/`` drift apart;
3. a relative markdown link breaks — the same check
   ``tools/check_markdown_links.py`` runs in CI.

The slow tier additionally *executes* every example script end to end.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tools"))

from check_markdown_links import broken_links, markdown_files  # noqa: E402

DOC_FILES = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]


def _fenced_blocks(text: str) -> list[str]:
    return re.findall(r"```(?:\w+)?\n(.*?)```", text, flags=re.DOTALL)


def _command_lines() -> list[tuple[str, str]]:
    """(source file, command) for every repro invocation in the docs."""
    commands: list[tuple[str, str]] = []
    for doc in DOC_FILES:
        for block in _fenced_blocks(doc.read_text()):
            # Join backslash continuations, drop trailing comments.
            joined = re.sub(r"\\\n\s*", " ", block)
            for line in joined.splitlines():
                line = line.split(" #", 1)[0].strip()
                if line.startswith("#") or not line:
                    continue
                if re.match(r"python -m repro(\.trace)?\b|repro-trace\b", line):
                    commands.append((doc.name, line))
    return commands


def test_docs_show_at_least_the_core_invocations():
    lines = [cmd for _doc, cmd in _command_lines()]
    assert any("synth" in line and "--trace" in line for line in lines)
    assert any(line.startswith(("repro-trace", "python -m repro.trace"))
               for line in lines)


@pytest.mark.parametrize(
    "doc,command", _command_lines(), ids=lambda v: str(v)[:60]
)
def test_documented_cli_invocations_parse(doc, command):
    from repro.cli import build_parser as repro_parser
    from repro.trace.cli import build_parser as trace_parser

    argv = shlex.split(command)
    if argv[:3] == ["python", "-m", "repro.trace"]:
        parser, args = trace_parser(), argv[3:]
    elif argv[0] == "repro-trace":
        parser, args = trace_parser(), argv[1:]
    elif argv[:3] == ["python", "-m", "repro"]:
        parser, args = repro_parser(), argv[3:]
    else:
        pytest.fail(f"unrecognized command shape in {doc}: {command}")
    try:
        parser.parse_args(args)
    except SystemExit as exc:  # argparse reports errors via sys.exit
        pytest.fail(
            f"{doc} documents an invocation the CLI rejects "
            f"(exit {exc.code}): {command}"
        )


def test_readme_examples_table_matches_examples_dir():
    readme = (ROOT / "README.md").read_text()
    documented = set(re.findall(r"`([a-z0-9_]+\.py)`", readme))
    on_disk = {p.name for p in (ROOT / "examples").glob("*.py")}
    assert on_disk <= documented, (
        f"examples not mentioned in README: {sorted(on_disk - documented)}"
    )
    # Every script the README names must exist somewhere in the repo
    # (examples/, benchmarks/, or the root).
    phantoms = [
        name for name in sorted(documented)
        if not any((ROOT / d / name).exists()
                   for d in ("examples", "benchmarks", "."))
    ]
    assert not phantoms, f"README references nonexistent scripts: {phantoms}"


def test_markdown_links_resolve():
    assert markdown_files(ROOT), "link checker found no markdown files"
    problems = broken_links(ROOT)
    assert not problems, "broken markdown links:\n  " + "\n  ".join(problems)


@pytest.mark.slow
@pytest.mark.parametrize(
    "script",
    sorted(p.name for p in (ROOT / "examples").glob("*.py")),
)
def test_examples_run_end_to_end(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=1800,
    )
    assert proc.returncode == 0, (
        f"{script} failed:\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"
    )


# ----------------------------------------------------------------------
# Service docs (docs/SERVICE.md) ↔ service CLI surface
# ----------------------------------------------------------------------

SERVICE_DOC = ROOT / "docs" / "SERVICE.md"


def _subcommand_option_strings(name: str) -> list[str]:
    """Every option string of one repro subcommand (--help excluded)."""
    import argparse

    from repro.cli import build_parser

    parser = build_parser()
    subparsers = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    options = []
    for action in subparsers.choices[name]._actions:
        options.extend(
            opt for opt in action.option_strings
            if opt not in ("-h", "--help")
        )
    return options


@pytest.mark.parametrize("subcommand", ["serve", "submit", "status"])
def test_service_doc_covers_every_cli_flag(subcommand):
    """docs/SERVICE.md must document the full serve/submit/status surface.

    A flag added to the parser without a mention in the operator guide
    fails here; :func:`test_flag_tables_name_only_live_flags` catches a
    doc still describing a removed flag.
    """
    text = SERVICE_DOC.read_text()
    missing = [
        opt for opt in _subcommand_option_strings(subcommand)
        if f"`{opt}" not in text
    ]
    assert not missing, (
        f"docs/SERVICE.md does not document repro {subcommand} "
        f"flag(s): {missing}"
    )


def _flag_table_flags(doc: Path) -> list[str]:
    """Every backticked ``--flag`` opening a first-column cell of a
    table whose header names that column ``flag``."""
    flags: list[str] = []
    in_table = False
    for line in doc.read_text().splitlines():
        if not line.startswith("|"):
            in_table = False
            continue
        # Cells split on unescaped pipes (``stats\|clear`` is one cell).
        first = re.split(r"(?<!\\)\|", line)[1].strip()
        if first == "flag":
            in_table = True
        elif in_table:
            flags.extend(re.findall(r"`(--[\w-]+)", first))
    return flags


@pytest.mark.parametrize(
    "doc,subcommands",
    [(ROOT / "README.md", ("synth", "tables")),
     (SERVICE_DOC, ("serve", "submit", "status"))],
    ids=["README.md", "SERVICE.md"],
)
def test_flag_tables_name_only_live_flags(doc, subcommands):
    """A flag table row must name an option the parser still has."""
    live = {
        opt for name in subcommands
        for opt in _subcommand_option_strings(name)
    }
    documented = _flag_table_flags(doc)
    assert documented, f"{doc.name} shows no flag table"
    stale = sorted(set(documented) - live)
    assert not stale, (
        f"{doc.name} documents flag(s) no {'/'.join(subcommands)} "
        f"option has: {stale}"
    )


def test_service_doc_json_examples_are_valid_json():
    """Every ```json block in the service guide must parse."""
    import json

    blocks = re.findall(
        r"```json\n(.*?)```", SERVICE_DOC.read_text(), flags=re.DOTALL
    )
    assert blocks, "docs/SERVICE.md shows no JSON examples"
    for block in blocks:
        try:
            json.loads(block)
        except json.JSONDecodeError as exc:
            pytest.fail(
                f"invalid JSON example in docs/SERVICE.md: {exc}\n{block}"
            )


def test_service_doc_names_every_endpoint():
    """The route table in the guide matches the server's router."""
    text = SERVICE_DOC.read_text()
    for endpoint in ("/healthz", "/stats", "/jobs",
                     "/jobs/<id>", "/jobs/<id>/result", "/jobs/<id>/trace"):
        assert endpoint in text, (
            f"docs/SERVICE.md does not document endpoint {endpoint}"
        )


@pytest.mark.slow
def test_documented_serve_submit_status_flow_runs(tmp_path):
    """Execute the guide's serve → submit → status flow for real."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--cache-dir", str(tmp_path / "svc")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        ready = server.stdout.readline()
        match = re.search(r"http://\S+", ready)
        assert match, f"no listening line from repro serve: {ready!r}"
        url = match.group(0)

        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "repro", *args],
                capture_output=True, text=True, env=env, timeout=300,
            )

        submit = run("submit", "--url", url, "--gen-seed", "5",
                     "--laxity", "2.0", "--samples", "16",
                     "--wait", "--timeout", "240")
        assert submit.returncode == 0, submit.stderr
        job_id = submit.stdout.split()[1].rstrip(":")

        status = run("status", "--url", url, job_id,
                     "--result", str(tmp_path / "result.json"))
        assert status.returncode == 0, status.stderr
        assert "done" in status.stdout
        assert (tmp_path / "result.json").exists()

        overview = run("status", "--url", url)
        assert overview.returncode == 0, overview.stderr
        assert "synth_runs: 1" in overview.stdout
    finally:
        server.terminate()
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
