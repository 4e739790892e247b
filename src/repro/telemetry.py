"""Run telemetry: counters and wall-time for the synthesis engine.

One :class:`Telemetry` instance travels with a synthesis run (owned by
the :class:`~repro.synthesis.context.SynthesisEnv`) and records what the
engine actually did: how many candidate solutions were priced, how often
the memoized cost cache answered instead of a full netlist-rebuild +
power-estimation pass, which move families (A/B/C/D) were tried and
committed, and where the wall-clock went stage by stage.

Telemetry objects are plain data — picklable and **mergeable** — so the
parallel operating-point sweep can collect one per worker process and
fold them into the run-level totals.  They are surfaced on
:class:`~repro.synthesis.api.SynthesisResult`, in the JSON export, and
behind the CLI's ``--stats`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["Telemetry", "move_family"]


def move_family(kind: str) -> str:
    """Collapse a candidate kind (``"C-share-fu"``) to its family (``"C"``)."""
    return kind.split("-", 1)[0]


@dataclass
class Telemetry:
    """Counters and timings for one synthesis run (or one sweep point)."""

    #: Total ``EvaluationContext.evaluate()`` calls (hits + misses).
    evaluations: int = 0
    #: Evaluations answered from the fingerprint-keyed cost cache.
    cache_hits: int = 0
    #: Full evaluations (netlist rebuild + power estimation).
    cache_misses: int = 0
    #: Cache misses priced incrementally: at least one stream-derived
    #: energy term was reused from the base solution's breakdown.
    delta_hits: int = 0
    #: Cache misses where a base breakdown was offered but no term
    #: matched (schedule/structure changed too much) — automatic
    #: fall-back to a from-scratch evaluation.
    delta_fallbacks: int = 0
    #: Cache misses priced entirely from scratch (no base breakdown).
    full_evals: int = 0
    #: Candidates discarded before pricing, keyed by family (dominance
    #: and feasibility pruning in :mod:`repro.synthesis.moves`).
    moves_pruned: dict[str, int] = field(default_factory=dict)
    #: Candidates discovered per generation round, keyed by full *kind*
    #: (``"A-cell"``, ``"C-share-fu"``, ...) rather than collapsed
    #: family: the per-family cap apportionment in
    #: :func:`~repro.synthesis.moves.sharing_candidates` is only
    #: observable at kind granularity.  Counted before pruning; the
    #: counts depend on the candidate multiset only, not on the order
    #: discovery emitted it in.
    moves_discovered: dict[str, int] = field(default_factory=dict)
    #: Discovered candidates whose :class:`~repro.synthesis.moves.
    #: Candidate` actually materialized a mutated ``Solution`` clone,
    #: keyed by kind.  Module, chain and move-B candidates materialize
    #: eagerly; the relational engine defers cloning until pricing, so
    #: the gap between the two counters is the number of clones lazy
    #: materialization avoided.
    moves_materialized: dict[str, int] = field(default_factory=dict)
    #: ``merge_modules`` calls (RTL embeddings) made by discovery, keyed
    #: by the kind of candidate they were made for (``"C-embed"``,
    #: ``"A-remerge"``).  Module sharing stops at its budget, so every
    #: ``C-embed`` embedding becomes a discovered candidate.
    moves_embedded: dict[str, int] = field(default_factory=dict)
    #: Operating points explored / skipped as structurally hopeless.
    points_explored: int = 0
    points_skipped: int = 0
    #: Candidate moves priced, keyed by family ("A", "B", "C", "D").
    moves_tried: dict[str, int] = field(default_factory=dict)
    #: Moves in committed KL prefixes, keyed by family.
    moves_committed: dict[str, int] = field(default_factory=dict)
    #: Differential RTL checks run / failed (``verify_moves`` and the
    #: ``--verify`` CLI flag; see :mod:`repro.verify`).
    verify_checks: int = 0
    verify_failures: int = 0
    #: Wall seconds per stage ("simulate", "initial", "improve", ...).
    stage_s: dict[str, float] = field(default_factory=dict)
    #: Tiered synthesis-store counters, keyed ``"{tier}.{namespace}"``
    #: (e.g. ``"point.resynth"``, ``"run.module"``,
    #: ``"persistent.schedule"``); written by the bound
    #: :class:`~repro.synthesis.store.SynthesisStore`.
    store_hits: dict[str, int] = field(default_factory=dict)
    store_misses: dict[str, int] = field(default_factory=dict)
    store_evictions: dict[str, int] = field(default_factory=dict)
    #: Persistent-tier traffic of the bound store: ``"rows"`` written
    #: and ``"commits"`` made.
    store_writes: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def count_move_tried(self, kind: str, n: int = 1) -> None:
        """Record ``n`` candidates of ``kind`` generated (by family)."""
        family = move_family(kind)
        self.moves_tried[family] = self.moves_tried.get(family, 0) + n

    def count_move_committed(self, kind: str, n: int = 1) -> None:
        """Record ``n`` moves of ``kind`` surviving a committed prefix."""
        family = move_family(kind)
        self.moves_committed[family] = self.moves_committed.get(family, 0) + n

    def count_move_pruned(self, kind: str, n: int = 1) -> None:
        """Record ``n`` candidates of ``kind`` discarded before pricing."""
        family = move_family(kind)
        self.moves_pruned[family] = self.moves_pruned.get(family, 0) + n

    def count_move_discovered(self, kind: str, n: int = 1) -> None:
        """Record ``n`` candidates of ``kind`` discovered (pre-pruning)."""
        self.moves_discovered[kind] = self.moves_discovered.get(kind, 0) + n

    def count_move_materialized(self, kind: str, n: int = 1) -> None:
        """Record ``n`` candidate solutions actually cloned/built."""
        self.moves_materialized[kind] = self.moves_materialized.get(kind, 0) + n

    def count_move_embedded(self, kind: str, n: int = 1) -> None:
        """Record ``n`` RTL embeddings made while discovering ``kind``."""
        self.moves_embedded[kind] = self.moves_embedded.get(kind, 0) + n

    def add_time(self, stage: str, seconds: float) -> None:
        """Accumulate wall-clock seconds against a named stage."""
        self.stage_s[stage] = self.stage_s.get(stage, 0.0) + seconds

    # ------------------------------------------------------------------
    @property
    def cache_hit_rate(self) -> float:
        """Fraction of evaluations served by the cost cache (0 when idle)."""
        if self.evaluations == 0:
            return 0.0
        return self.cache_hits / self.evaluations

    @property
    def delta_hit_rate(self) -> float:
        """Fraction of cache misses priced incrementally (0 when idle)."""
        if self.cache_misses == 0:
            return 0.0
        return self.delta_hits / self.cache_misses

    def merge(self, other: "Telemetry") -> "Telemetry":
        """Fold *other*'s counts into this instance (returns self)."""
        self.evaluations += other.evaluations
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.delta_hits += other.delta_hits
        self.delta_fallbacks += other.delta_fallbacks
        self.full_evals += other.full_evals
        self.points_explored += other.points_explored
        self.points_skipped += other.points_skipped
        for family, n in other.moves_tried.items():
            self.moves_tried[family] = self.moves_tried.get(family, 0) + n
        for family, n in other.moves_committed.items():
            self.moves_committed[family] = self.moves_committed.get(family, 0) + n
        for family, n in other.moves_pruned.items():
            self.moves_pruned[family] = self.moves_pruned.get(family, 0) + n
        for kind, n in other.moves_discovered.items():
            self.moves_discovered[kind] = self.moves_discovered.get(kind, 0) + n
        for kind, n in other.moves_materialized.items():
            self.moves_materialized[kind] = (
                self.moves_materialized.get(kind, 0) + n
            )
        for kind, n in other.moves_embedded.items():
            self.moves_embedded[kind] = self.moves_embedded.get(kind, 0) + n
        self.verify_checks += other.verify_checks
        self.verify_failures += other.verify_failures
        for stage, s in other.stage_s.items():
            self.add_time(stage, s)
        return self.merge_store(other)

    def merge_store(self, other: "Telemetry") -> "Telemetry":
        """Fold only *other*'s store counters into this instance.

        The CLI's ``--stats`` adds the library build's store traffic to
        the run's this way: its nested runs' evaluations stay out.
        """
        for mine, theirs in (
            (self.store_hits, other.store_hits),
            (self.store_misses, other.store_misses),
            (self.store_evictions, other.store_evictions),
            (self.store_writes, other.store_writes),
        ):
            for key, n in theirs.items():
                mine[key] = mine.get(key, 0) + n
        return self

    def as_dict(self) -> dict[str, Any]:
        """Plain-data view (JSON export and the CLI ``--stats`` output)."""
        return {
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "delta_hits": self.delta_hits,
            "delta_fallbacks": self.delta_fallbacks,
            "full_evals": self.full_evals,
            "delta_hit_rate": self.delta_hit_rate,
            "points_explored": self.points_explored,
            "points_skipped": self.points_skipped,
            "moves_tried": dict(sorted(self.moves_tried.items())),
            "moves_committed": dict(sorted(self.moves_committed.items())),
            "moves_pruned": dict(sorted(self.moves_pruned.items())),
            "moves_discovered": dict(sorted(self.moves_discovered.items())),
            "moves_materialized": dict(sorted(self.moves_materialized.items())),
            "moves_embedded": dict(sorted(self.moves_embedded.items())),
            "verify": {
                "checks": self.verify_checks,
                "failures": self.verify_failures,
            },
            "stage_s": {k: round(v, 6) for k, v in sorted(self.stage_s.items())},
            "store_hits": dict(sorted(self.store_hits.items())),
            "store_misses": dict(sorted(self.store_misses.items())),
            "store_evictions": dict(sorted(self.store_evictions.items())),
            "store_writes": dict(sorted(self.store_writes.items())),
        }
