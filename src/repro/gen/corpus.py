"""Corpus materialization: generated designs on disk plus a manifest.

A *corpus* is a directory of textual designs plus ``manifest.json``
describing how each was produced (seed + generator config) and what it
contains (canonical fingerprint, size metrics, stimulus spec).  The
manifest is the hand-off format for the synthesis-service load tests:
fingerprints identify each design as the synthesis store does, and
seeds make every entry regenerable without shipping bytes.

Layout::

    corpus/
      manifest.json
      gen_s123.dfg
      gen_s456.dfg
      ...
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from ..dfg.canonical import design_fingerprint
from .generator import GenConfig, GeneratedDesign, generate_batch

__all__ = [
    "CorpusEntry",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "build_corpus",
    "load_manifest",
    "write_corpus",
]

MANIFEST_NAME = "manifest.json"

#: Bumped when the manifest layout changes incompatibly.
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class CorpusEntry:
    """Manifest record of one generated design."""

    seed: int
    name: str
    #: Design file name, relative to the corpus directory.
    file: str
    #: Iso-invariant fingerprint of the top level, resolved through the
    #: design (:func:`repro.dfg.canonical.design_fingerprint`) — the key
    #: the synthesis store addresses by.
    fingerprint: str
    #: Simple operations in the fully expanded top level.
    n_ops: int
    #: Hierarchy depth (1 = flat).
    depth: int
    n_dfgs: int
    n_behaviors: int
    #: Stimulus family and length paired with the design.
    stimulus: str
    n_samples: int


def corpus_entry(gen: GeneratedDesign, file: str) -> CorpusEntry:
    """Summarize one generated design as a manifest entry."""
    design = gen.design
    return CorpusEntry(
        seed=gen.seed,
        name=design.name,
        file=file,
        fingerprint=design_fingerprint(design, design.top),
        n_ops=design.total_operations(),
        depth=design.depth(),
        n_dfgs=len(design.dfg_names()),
        n_behaviors=len(design.behaviors()),
        stimulus=gen.config.stimulus,
        n_samples=gen.config.n_samples,
    )


def build_corpus(
    base_seed: int, count: int, config: GenConfig | None = None
) -> list[GeneratedDesign]:
    """Generate a corpus in memory (see :func:`generate_batch`)."""
    return generate_batch(base_seed, count, config)


def write_corpus(
    out_dir: Path | str, generated: list[GeneratedDesign]
) -> Path:
    """Write design files and ``manifest.json``; returns the manifest path.

    Every entry regenerates bit-identically from its recorded seed and
    the manifest's config, so a corpus can be shipped as the manifest
    alone.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries: list[CorpusEntry] = []
    config = generated[0].config if generated else GenConfig()
    for gen in generated:
        file = f"{gen.design.name}.dfg"
        (out / file).write_text(gen.text)
        entries.append(corpus_entry(gen, file))
    manifest = {
        "version": MANIFEST_VERSION,
        "config": dict(_config_items(config)),
        "entries": [asdict(entry) for entry in entries],
    }
    path = out / MANIFEST_NAME
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _config_items(config: GenConfig) -> list[tuple[str, object]]:
    """JSON-friendly ``(field, value)`` pairs of a generator config."""
    items: list[tuple[str, object]] = []
    for name, value in config.content():
        if isinstance(value, tuple):
            value = [list(v) if isinstance(v, tuple) else v for v in value]
        items.append((name, value))
    return items


def load_manifest(corpus_dir: Path | str) -> dict:
    """Read and structurally check a corpus manifest."""
    path = Path(corpus_dir) / MANIFEST_NAME
    manifest = json.loads(path.read_text())
    if manifest.get("version") != MANIFEST_VERSION:
        raise ValueError(
            f"unsupported corpus manifest version {manifest.get('version')!r} "
            f"in {path}"
        )
    return manifest
