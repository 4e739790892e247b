"""Docstring-presence (pydocstyle D1) enforcement for the engine.

CI runs ``ruff check`` with the ``D1`` rules selected in pyproject.toml;
this test enforces the same contract with the stdlib ``ast`` module so
it also holds in environments without ruff.  Scope: the DFG model, the
synthesis engine, the RTL model, the scheduler, the design generator
and fuzzer, the job service, the trace package and the telemetry
module — the subsystems this documentation effort covers.

Mirrors ruff's defaults: modules, public classes and public functions /
methods need docstrings; ``_private`` names, ``__init__``/dunders
(D105/D107 are ignored in pyproject.toml) and trivial overloads do not.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The packages whose docstring coverage is under contract.
SCOPE = [
    SRC / "dfg",
    SRC / "gen",
    SRC / "rtl",
    SRC / "scheduling",
    SRC / "service",
    SRC / "synthesis",
    SRC / "trace",
    SRC / "telemetry.py",
]


def _scoped_files() -> list[Path]:
    files: list[Path] = []
    for entry in SCOPE:
        if entry.is_dir():
            files.extend(sorted(entry.rglob("*.py")))
        else:
            files.append(entry)
    assert files, "docstring-coverage scope resolved to no files"
    return files


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _missing_in(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    missing: list[str] = []
    if ast.get_docstring(tree) is None:
        missing.append(f"{path.name}: module docstring")

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_public(child.name):
                    if ast.get_docstring(child) is None:
                        missing.append(f"{path.name}: class {prefix}{child.name}")
                    visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Dunder methods (D105/D107) are exempt, like the ruff
                # config; private helpers are out of scope (D1 only
                # covers public objects).
                if not _is_public(child.name):
                    continue
                if ast.get_docstring(child) is None:
                    missing.append(f"{path.name}: def {prefix}{child.name}")

    visit(tree, "")
    return missing


def test_engine_public_api_is_documented():
    missing: list[str] = []
    for path in _scoped_files():
        missing.extend(_missing_in(path))
    assert not missing, (
        "public objects without docstrings (pydocstyle D1):\n  "
        + "\n  ".join(missing)
    )
