"""Shared synthesis environment and tuning knobs.

One :class:`SynthesisEnv` is created per top-level ``synthesize()``
call and threaded through initial-solution construction, move
generation and the iterative-improvement driver.  It owns the things
that are fixed for the run (design, library, objective, configuration)
and caches the complex modules synthesized for behaviors the library
cannot supply.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..dfg.canonical import EXECUTION_ONLY
from ..dfg.graph import DFG
from ..dfg.hierarchy import Design
from ..errors import LibraryError
from ..library.library import ModuleLibrary
from ..power.activity import reset_activity_caches
from .incremental import _reset_energy_memos
from ..power.simulate import SimTrace, simulate_subgraph
from ..rtl.module import RTLModule
from ..telemetry import Telemetry
from ..trace.recorder import TraceRecorder
from .caching import LRUCache
from .costs import EvaluationContext, Objective
from .store import SynthesisStore, context_signature, module_content_signature

__all__ = ["SynthesisConfig", "SynthesisEnv", "ensure_behavior"]


def _execution_only(default):
    """A :class:`SynthesisConfig` field that changes how a run executes
    (parallelism, persistence, tracing, debug cross-checks) but never
    what it finds.

    This metadata is the one declaration of that split:
    :func:`~repro.dfg.canonical.config_signature` leaves these fields
    out of every store key, and a trace's ``run_start.config`` leaves
    them out of the recorded search config, so runs that differ only in
    them share store entries and record the same search config.
    """
    return field(default=default, metadata={EXECUTION_ONLY: True})


@dataclass
class SynthesisConfig:
    """Knobs of the iterative-improvement engine.

    Fields made with :func:`_execution_only` change how a run executes,
    never what it finds; the others shape the search and key the
    synthesis store.

    Defaults are tuned so a 30-operation behavior synthesizes in a few
    seconds; raise the limits for deeper exploration.
    """

    #: Moves per variable-depth pass (Figure 4's MAX_MOVES).
    max_moves: int = 10
    #: Maximum improvement passes per (Vdd, clock) point.
    max_passes: int = 6
    #: Instances targeted per type-A/B move-selection round ("module
    #: group formation", Figure 5).
    max_ab_targets: int = 6
    #: Candidate pairs examined per resource-sharing round.
    max_share_pairs: int = 16
    #: Candidate instances examined per resource-splitting round.
    max_split_candidates: int = 8
    #: Improvement passes used when move B resynthesizes a sub-module.
    resynth_passes: int = 1
    #: Moves per pass during move-B resynthesis.
    resynth_moves: int = 6
    #: Gains below this threshold count as zero.
    epsilon: float = 1e-9
    #: Clock-period candidates kept per supply voltage after pruning.
    n_clocks: int = 2
    #: Enable move B (descend and resynthesize complex modules).
    enable_resynthesis: bool = True
    #: Enable RTL embedding when sharing complex modules of different types.
    enable_embedding: bool = True
    #: Worker processes for the outer (Vdd, clock) operating-point sweep.
    #: 1 = serial; >1 fans the independent points out over a process
    #: pool (results are bit-identical to the serial path).
    n_workers: int = _execution_only(1)
    #: Differentially verify every committed KL pass prefix: execute the
    #: committed solution's RTL cycle by cycle and cross-check it against
    #: the (already memoized) DFG simulation.  A divergence raises
    #: :class:`~repro.errors.VerificationError` with a shrunk
    #: counterexample.  Off by default — it roughly doubles the cost of a
    #: committed pass; see ``docs/VERIFICATION.md``.
    verify_moves: bool = False
    #: Debug mode: recompute every delta-priced and batch-priced
    #: candidate from scratch as well and raise
    #: :class:`~repro.errors.SynthesisError` on any bitwise mismatch.
    #: Roughly doubles pricing cost.
    validate_incremental: bool = _execution_only(False)
    #: Record the search as structured trace events (run → point → pass
    #: → move, with gain attribution); surfaced on
    #: ``SynthesisResult.trace_events`` and the CLI's ``--trace`` flag.
    #: See ``docs/TRACING.md``.
    trace: bool = _execution_only(False)
    #: Include ``perf_counter_ns`` span timings in the trace.  Disable
    #: for byte-identical traces across runs and worker counts.
    trace_timings: bool = _execution_only(True)
    #: Run metadata embedded in the trace's ``run_start`` event (the CLI
    #: records benchmark/traces/seed here so ``repro-trace replay`` can
    #: reconstruct the run without the original process).
    trace_meta: dict | None = _execution_only(None)
    #: Directory of the persistent (cross-run) synthesis-store tier;
    #: ``None`` keeps the store purely in-memory.  See
    #: :mod:`repro.synthesis.store` and the CLI's ``--cache-dir``.
    cache_dir: str | None = _execution_only(None)
    #: Shard count of the persistent store tier (``None`` auto-detects
    #: the on-disk layout, which is 1 for fresh directories).  Sharding
    #: splits the SQLite tier across several database files by digest
    #: prefix so many concurrent writers — the job server's worker
    #: fleet — do not serialize on one writer lock.
    store_shards: int | None = _execution_only(None)


class SynthesisEnv:
    """Run-wide state shared by all synthesis stages."""

    def __init__(
        self,
        design: Design,
        library: ModuleLibrary,
        objective: Objective,
        config: SynthesisConfig | None = None,
    ):
        self.design = design
        self.library = library
        self.objective = objective
        self.config = config or SynthesisConfig()
        self.telemetry = Telemetry()
        #: Structured search trace (None when tracing is off).  Workers
        #: of the parallel sweep each own a fresh recorder; the parent
        #: merges their buffers in point order.
        self.trace: TraceRecorder | None = (
            TraceRecorder(timings=self.config.trace_timings)
            if self.config.trace
            else None
        )
        #: The tiered synthesis store (point / run / persistent); every
        #: memoized module, resynthesis result and schedule routes
        #: through it.  See :mod:`repro.synthesis.store`.
        self.store = SynthesisStore.from_config(self.config)
        self.store.bind(self.telemetry)
        #: Invalidation signature shared by every content key this env
        #: writes: schema version + library + search-shaping config.
        self.store_signature = context_signature(library, self.config)
        #: Modules synthesized on demand, keyed by (behavior, clk, vdd).
        #: This *is* the store's point tier for the "module" namespace —
        #: the attribute is kept for its legacy name.
        self.module_cache: LRUCache[tuple[str, float, float], RTLModule] = (
            self.store.point_tier("module")
        )
        #: Move-B resynthesis memo (the store's "resynth" point tier),
        #: keyed by canonical module content — not by generated module
        #: names, which are only unique within one operating point.
        #: Point tiers are dropped between points; see
        #: :meth:`reset_point_caches`.
        self._resynth_cache: LRUCache = self.store.point_tier("resynth")
        #: Re-entrancy guard: move B never descends more than one level.
        self._resynth_active = False
        #: Fresh-name counter for generated module types.
        self._module_counter = 0
        #: Per-point registry of generated module names (name → module
        #: object): detects collisions between store-loaded and locally
        #: minted modules so a name always denotes one module per point.
        self._loaded_names: dict[str, RTLModule] = {}
        #: One shared EvaluationContext per SimTrace object, so the cost
        #: cache persists across the many context() calls of one point.
        #: The context holds the sim strongly, keeping id() keys valid.
        self._contexts: dict[int, EvaluationContext] = {}

    def fresh_module_name(self, behavior: str) -> str:
        """Mint a unique name for a newly synthesized complex module."""
        self._module_counter += 1
        return f"{behavior}_v{self._module_counter}"

    def register_module(self, module: RTLModule) -> RTLModule:
        """Record a freshly characterized module's generated name.

        Keeps the per-point name registry complete, so a later
        store-loaded module carrying the same stored name is detected
        and renamed instead of aliasing two distinct modules (module
        names feed solution fingerprints and candidate descriptions).
        """
        self._loaded_names.setdefault(module.name, module)
        return module

    def adopt_loaded_module(self, module: RTLModule | None) -> RTLModule | None:
        """Integrate a module unpickled from the run/persistent tier.

        Two obligations keep warm runs bit-identical to cold ones:

        1. The name counter is bumped past every ``_v{k}`` suffix in the
           loaded module tree.  In an identical rerun, loaded names are
           exactly the names the cold run minted, and the counter then
           tracks the cold run's sequence, so any later genuine miss
           mints the same next name cold and warm — and never collides
           with a loaded name.
        2. Every module in the tree is checked against the per-point
           name registry.  A loaded module whose name is already bound
           to an *equal-content* module (e.g. a standalone load of a
           module that also arrived nested inside an earlier load — one
           object cold, two unpickled copies warm) keeps its name: all
           pricing reads values, never object identity.  A name bound
           to *different* content (possible only when mixing cache
           entries from non-identical runs) is renamed via
           :meth:`fresh_module_name` so a name always denotes one
           module per point.
        """
        if module is None:
            return None
        highest = 0
        seen: set[int] = set()
        stack = [module]
        tree: list[RTLModule] = []
        while stack:
            mod = stack.pop()
            if id(mod) in seen:
                continue
            seen.add(id(mod))
            tree.append(mod)
            match = re.search(r"_v(\d+)$", mod.name)
            if match:
                highest = max(highest, int(match.group(1)))
            solution = getattr(getattr(mod, "internal", None), "solution", None)
            if solution is not None:
                for inst in solution.instances.values():
                    if inst.module is not None:
                        stack.append(inst.module)
        if highest > self._module_counter:
            self._module_counter = highest
        for mod in tree:
            existing = self._loaded_names.get(mod.name)
            if existing is None:
                self._loaded_names[mod.name] = mod
            elif existing is not mod and (
                module_content_signature(existing, self.design)
                != module_content_signature(mod, self.design)
            ):
                fresh = self.fresh_module_name(mod.behavior)
                mod.name = fresh
                mod.netlist.name = fresh
                self._loaded_names[fresh] = mod
        return module

    def reset_point_caches(self) -> None:
        """Drop per-operating-point state between (Vdd, clock) points.

        Generated module names restart from ``_v1`` at every point, so a
        point-tier entry surviving from another point could be hit while
        describing a module characterized at a different (clk, vdd).
        Resetting the counter too makes the names (and thus results) of
        the serial sweep bit-identical to the parallel sweep, which runs
        every point in a fresh worker.  The store's run and persistent
        tiers survive — they are content-addressed, not name-addressed —
        as does telemetry, which is cumulative by design.
        """
        self.store.reset_point()
        self._resynth_active = False
        self._module_counter = 0
        self._loaded_names.clear()
        self._contexts.clear()
        # Activity memos are keyed by stream-array identity; dropping
        # them costs only a (batched) recompute at the next point while
        # guaranteeing a long-lived process never pins streams of
        # finished points.  Matches the parallel sweep, whose workers
        # start each point with empty process-local caches.
        reset_activity_caches()
        _reset_energy_memos()

    def context(self, sim: SimTrace) -> EvaluationContext:
        """Evaluation context (with shared cost cache) for *sim* at path ``()``."""
        ctx = self._contexts.get(id(sim))
        if ctx is None:
            ctx = EvaluationContext(
                sim,
                (),
                self.objective,
                telemetry=self.telemetry,
                validate_incremental=self.config.validate_incremental,
                store=self.store,
            )
            # Bounded: evict the oldest context (and its strong sim ref;
            # live id() keys stay valid because live contexts pin their
            # sim objects).
            while len(self._contexts) >= 64:
                self._contexts.pop(next(iter(self._contexts)))
            self._contexts[id(sim)] = ctx
        return ctx

    def sub_sim(self, dfg: DFG, input_streams: list[np.ndarray]) -> SimTrace:
        """Simulate a sub-behavior fed by its parent's streams."""
        return simulate_subgraph(self.design, dfg, input_streams)


def ensure_behavior(module: RTLModule, behavior: str, library: ModuleLibrary) -> bool:
    """Make *module* usable for *behavior*, via equivalence if needed.

    Returns True if the module supports the behavior directly or
    through a declared equivalence (in which case the implementation is
    aliased under the requested name); False otherwise.
    """
    if module.supports(behavior):
        return True
    for candidate in library.equivalences.equivalence_class(behavior):
        if module.supports(candidate):
            impl = module.impl(candidate)
            module.add_behavior(behavior, impl.profile, impl.cap_internal)
            return True
    return False
