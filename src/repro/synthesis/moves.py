"""Move generation: the four optimization move types of the paper.

* **Type A** — replace a simple functional unit's cell, or a complex
  module instance's RTL module, by a library alternative better suited
  to the environment (including functionally equivalent anisomorphic
  DFG variants reached through the equivalence registry).
* **Type B** — resynthesize a complex module under constraints relaxed
  to the slack its environment provides (coarse-grain knowledge driving
  fine-grain optimization).
* **Type C** — resource sharing: merge two functional-unit instances,
  two registers, or two complex-module instances (same type, or
  different types via **RTL embedding**).  Also *chain formation*: fuse
  a feeder/consumer pair of additions onto a chained adder cell.
* **Type D** — resource splitting: the inverses of type C, which create
  new optimization opportunities and cut switched capacitance by
  un-interleaving streams.

Every generator returns *candidates* that the iterative-improvement
driver prices with the cost function, each by delta against the current
solution (see :mod:`repro.synthesis.incremental`).
The solution-bounded families (cell swaps, FU and register sharing and
splitting) are discovered by the relational engine
(:mod:`repro.synthesis.relational`) as lazy *descriptors*: an edit
recipe plus a precomputed structural fingerprint, with the
``Solution.clone()`` deferred until the candidate is actually priced.
The library- and DFG-bounded families below carry an eagerly mutated
clone.
Generators respect the KL *locked* set so a pass cannot ping-pong on
the same resources.  :func:`prune_candidates` discards provably
dominated or structurally hopeless candidates before any of them are
priced (and, for lazy candidates, before any of them are cloned).
"""

from __future__ import annotations

from typing import Callable

from ..dfg.graph import NodeKind, Signal
from ..dfg.ops import Operation
from ..errors import SynthesisError
from ..library.cells import LibraryCell
from ..power.simulate import SimTrace
from .caching import HashedKey
from .context import SynthesisEnv, ensure_behavior
from .modulegen import merge_modules
from .solution import Solution

__all__ = [
    "Candidate",
    "register_lifetimes",
    "type_a_b_candidates",
    "sharing_candidates",
    "splitting_candidates",
    "prune_candidates",
    "normalize_registers",
]


class Candidate:
    """One tentative move: a mutated clone (or a recipe for one) plus
    bookkeeping.

    Two construction modes:

    * **eager** — ``solution=`` carries the already-mutated clone (the
      module, chain and move-B helpers' idiom);
    * **lazy** — ``build=`` is a zero-argument callable producing the
      clone on first access to :attr:`solution`, and ``fingerprint=``
      is the precomputed :class:`~repro.synthesis.caching.HashedKey`
      of the solution that *would* be built.  The relational discovery
      engine emits these so :func:`prune_candidates` can discard
      duplicates, dominated swaps and hopeless structures without a
      single ``Solution.clone()``.

    The precomputed fingerprint must equal the built solution's
    ``fingerprint_key()`` exactly — pruning and cost-cache decisions
    key on it, and the equality is asserted by the test suite against a
    key derived from scratch.  Building a lazy candidate therefore installs
    the precomputed key into the clone
    (:meth:`~repro.synthesis.solution.Solution.adopt_fingerprint`)
    instead of deriving it again.

    ``touched`` names the instances and registers the move changes; the
    KL pass locks them once the move is applied.  Pricing needs nothing
    else from a candidate: every one, local or not, is priced against
    the current solution's breakdown, and the evaluator decides term by
    term what carries over.
    """

    __slots__ = (
        "kind", "description", "touched", "replacement_cell",
        "_solution", "_build", "_fingerprint", "_on_materialize",
    )

    def __init__(
        self,
        kind: str,
        description: str,
        solution: Solution | None = None,
        touched: frozenset[str] = frozenset(),
        *,
        build: Callable[[], Solution] | None = None,
        fingerprint: HashedKey | None = None,
        replacement_cell: LibraryCell | None = None,
        on_materialize: Callable[[str], None] | None = None,
    ):
        if (solution is None) == (build is None):
            raise SynthesisError(
                "candidate needs exactly one of solution= (eager) or "
                "build= (lazy)"
            )
        self.kind = kind
        self.description = description
        self.touched = touched
        #: For ``A-cell`` swaps: the cell the instance would switch to.
        #: Lets pruning rule 2 compare timing/area/cap without
        #: materializing the clone.
        self.replacement_cell = replacement_cell
        self._solution = solution
        self._build = build
        self._fingerprint = fingerprint
        self._on_materialize = on_materialize

    @property
    def solution(self) -> Solution:
        """The mutated solution (built on first access for lazy candidates)."""
        if self._solution is None:
            assert self._build is not None
            self._solution = self._build()
            self._build = None
            if self._fingerprint is not None:
                self._solution.adopt_fingerprint(self._fingerprint)
            if self._on_materialize is not None:
                self._on_materialize(self.kind)
        return self._solution

    @property
    def is_materialized(self) -> bool:
        """True once the mutated solution exists (always, when eager)."""
        return self._solution is not None

    def fingerprint_key(self) -> HashedKey:
        """Structural fingerprint — precomputed for lazy candidates."""
        if self._fingerprint is not None:
            return self._fingerprint
        return self.solution.fingerprint_key()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "built" if self.is_materialized else "lazy"
        return f"Candidate({self.kind!r}, {self.description!r}, {state})"


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

def normalize_registers(solution: Solution) -> None:
    """Re-align register bindings with the set of registered signals.

    Chain formation/dissolution changes which signals need registers;
    this drops bindings of now-internal signals (deleting registers that
    become empty) and gives fresh dedicated registers to newly exposed
    signals.
    """
    needed = set(solution.registered_signals())
    bound: set[Signal] = set()
    for reg_id in list(solution.reg_signals):
        kept = [s for s in solution.reg_signals[reg_id] if s in needed]
        if kept:
            solution.reg_signals[reg_id] = kept
            bound.update(kept)
        else:
            del solution.reg_signals[reg_id]
    for signal in needed - bound:
        solution.add_register([signal])
    solution.invalidate()


def register_lifetimes(
    solution: Solution, regs: list[str]
) -> dict[str, list[tuple[int, int]]]:
    """Interval index: register id → sorted half-open signal lifetimes.

    The basis of register-sharing discovery: the relational engine
    tests register pairs for overlap over these intervals (and the
    per-pair test reference checks disjointness over the same
    intervals).  Intervals are half-open
    ``[birth, death)`` cycles — two overlap iff
    ``b1 < d2 and b2 < d1``.
    """
    return {
        r: sorted(solution.signal_lifetime(s) for s in solution.reg_signals[r])
        for r in regs
    }


def _instance_weight(env: SynthesisEnv, solution: Solution, inst_id: str) -> float:
    """Rough objective contribution used for module-group formation."""
    inst = solution.instances[inst_id]
    n_exec = max(len(solution.executions[inst_id]), 1)
    if inst.is_module:
        assert inst.module is not None
        if env.objective == "power":
            return inst.module.cap_internal() * n_exec
        return inst.module.area(env.library)
    assert inst.cell is not None
    if env.objective == "power":
        return inst.cell.cap * n_exec
    return inst.cell.area


def candidate_order_key(candidate: Candidate) -> tuple:
    """Deterministic candidate ordering: (kind, sorted touched ids, text).

    This is the tie-break used both by :func:`repro.synthesis.improve.
    _best` (between equal-cost candidates) and by the pruning rules
    below (to pick a canonical survivor among equivalent candidates),
    so pruning can never change which move wins a pricing round.
    """
    return (candidate.kind, tuple(sorted(candidate.touched)), candidate.description)


def _min_schedule_length(solution: Solution) -> int:
    """A cheap lower bound on the schedule length, without scheduling.

    Tasks bound to one instance serialize: any order starts successive
    tasks at least one initiation interval apart, so ``(n - 1) ·
    min(ii) + min(duration)`` cycles elapse on that instance no matter
    how the scheduler arranges them.  Each :class:`~repro.synthesis.
    solution.TaskBlock` caches its instance's term, and a candidate
    shares the blocks of every instance its move left alone, so only
    the changed instances are counted again.
    """
    return max((block.min_length for block in solution.task_blocks()), default=0)


def prune_candidates(
    env: SynthesisEnv, solution: Solution, candidates: list[Candidate]
) -> list[Candidate]:
    """Discard candidates that provably cannot win the pricing round.

    Three rules, each outcome-preserving given the deterministic
    tie-break of :func:`candidate_order_key`:

    1. **Duplicate structures** — candidates with equal solution
       fingerprints evaluate to the same cost, so only the one with the
       smallest order key (the one :func:`~repro.synthesis.improve.
       _best` would pick anyway) is kept.
    2. **Dominated cell swaps** — among ``A-cell`` swaps of the same
       instance, a replacement cell with identical timing (delay cycles
       and initiation interval at this operating point) yields an
       identical schedule and netlist structure, so a candidate whose
       cell also has no larger area and no larger switched capacitance
       can only be at most as expensive under either objective; the
       loser is dropped.  Ties (equal area *and* cap) resolve by order
       key, so exactly the serial winner survives.
    3. **Structurally hopeless** — a lower bound on the schedule length
       already beyond twice the deadline means the candidate prices as
       deeply infeasible and can never be chosen over the current
       (finite-cost) solution; mirror of the operating-point skip in
       :mod:`repro.synthesis.api`.

    Pruned candidates are counted per family in telemetry
    (``moves_pruned``); the surviving list preserves generation order.

    Rules 1 and 2 work on :meth:`Candidate.fingerprint_key` and
    :attr:`Candidate.replacement_cell`, so lazy (relational-engine)
    candidates they drop are never cloned.  Rule 3 reads the task
    blocks of the candidates left, which materializes them, and a clone
    shares every block its move did not touch; pricing materializes
    every survivor anyway.
    """
    if len(candidates) < 2:
        return candidates
    clk_ns, vdd = solution.clk_ns, solution.vdd
    drop: set[int] = set()

    # Order keys are pure per candidate and compared repeatedly by
    # rules 1 and 2 — compute each at most once.
    _order_keys: list[tuple | None] = [None] * len(candidates)

    def order_key(idx: int) -> tuple:
        key = _order_keys[idx]
        if key is None:
            key = candidate_order_key(candidates[idx])
            _order_keys[idx] = key
        return key

    # Rule 1: duplicate fingerprints.
    best_by_fp: dict = {}
    for idx, cand in enumerate(candidates):
        fp = cand.fingerprint_key()
        prior = best_by_fp.get(fp)
        if prior is None:
            best_by_fp[fp] = idx
        elif order_key(idx) < order_key(prior):
            drop.add(prior)
            best_by_fp[fp] = idx
        else:
            drop.add(idx)

    # Rule 2: dominated A-cell swaps on the same instance.  Timing and
    # size are resolved once per candidate; the pairwise scan then
    # compares plain tuples.
    swap_groups: dict[frozenset[str], list[int]] = {}
    for idx, cand in enumerate(candidates):
        if cand.kind == "A-cell" and idx not in drop:
            swap_groups.setdefault(cand.touched, []).append(idx)
    for indices in swap_groups.values():
        cells = []
        for i in indices:
            cell = candidates[i].replacement_cell
            if cell is None:
                (inst_id,) = candidates[i].touched
                cell = candidates[i].solution.instances[inst_id].cell
            assert cell is not None
            cells.append(
                (
                    cell.delay_cycles(clk_ns, vdd),
                    cell.initiation_interval(clk_ns, vdd),
                    cell.area,
                    cell.cap,
                )
            )
        for pos_i, i in enumerate(indices):
            delay_i, ii_i, area_i, cap_i = cells[pos_i]
            for pos_j, j in enumerate(indices):
                if j == i:
                    continue
                delay_j, ii_j, area_j, cap_j = cells[pos_j]
                if (
                    delay_j == delay_i
                    and ii_j == ii_i
                    and area_j <= area_i
                    and cap_j <= cap_i
                    and order_key(j) < order_key(i)
                ):
                    drop.add(i)
                    break

    # Rule 3: schedule length provably hopeless.  Every move preserves
    # the operating point, so the base solution's deadline applies to
    # all candidates.
    deadline = 2 * solution.deadline_cycles
    for idx, cand in enumerate(candidates):
        if idx not in drop and _min_schedule_length(cand.solution) > deadline:
            drop.add(idx)

    if not drop:
        return candidates
    for idx in drop:
        env.telemetry.count_move_pruned(candidates[idx].kind)
    return [c for idx, c in enumerate(candidates) if idx not in drop]


def _bound_behaviors(solution: Solution, inst_id: str) -> list[str]:
    behaviors = []
    for group in solution.executions[inst_id]:
        (node_id,) = group
        behavior = solution.dfg.node(node_id).behavior
        assert behavior is not None
        behaviors.append(behavior)
    return behaviors


def _view_of(
    env: SynthesisEnv, solution: Solution, locked: frozenset[str], view
):
    """*view*, or a fresh relational view of *solution* when it is None."""
    if view is not None:
        return view
    from .relational import RelationalView  # lazy: relational imports moves

    return RelationalView(env, solution, locked)


# ----------------------------------------------------------------------
# Type A and B
# ----------------------------------------------------------------------

def type_a_b_candidates(
    env: SynthesisEnv,
    solution: Solution,
    sim: SimTrace,
    locked: frozenset[str],
    view=None,
) -> list[Candidate]:
    """Module-selection moves (Figure 5): replacement and resynthesis.

    The ``A-cell`` family comes from *view* — a
    :class:`~repro.synthesis.relational.RelationalView` of *solution*,
    built here when the caller passes none — as one batched capability
    join.  Module replacement/re-embedding and move B stay on the
    Python helpers below (their candidate counts are bounded by the
    library, not by the solution size).
    """
    config = env.config

    # Module group formation: target the heaviest unlocked instances.
    targets = [
        inst_id
        for inst_id in solution.instances
        if inst_id not in locked and solution.executions[inst_id]
    ]
    targets.sort(key=lambda i: -_instance_weight(env, solution, i))
    targets = targets[: config.max_ab_targets]

    candidates: list[Candidate] = []
    simple_targets: list[str] = []
    resynth_budget = 2 if config.enable_resynthesis else 0
    for inst_id in targets:
        inst = solution.instances[inst_id]
        if inst.is_module:
            candidates.extend(_module_replacements(env, solution, inst_id))
            remerge = _merged_module_rebuild(env, solution, inst_id)
            if remerge is not None:
                candidates.append(remerge)
            if resynth_budget > 0:
                resynth = _resynthesis_candidate(env, solution, sim, inst_id)
                if resynth is not None:
                    candidates.append(resynth)
                    resynth_budget -= 1
        else:
            simple_targets.append(inst_id)
    if simple_targets:
        view = _view_of(env, solution, locked, view)
        candidates.extend(view.cell_replacements(simple_targets))
    return candidates


def _module_replacements(
    env: SynthesisEnv, solution: Solution, inst_id: str
) -> list[Candidate]:
    inst = solution.instances[inst_id]
    assert inst.module is not None
    behaviors = _bound_behaviors(solution, inst_id)
    seen: set[str] = set()
    out: list[Candidate] = []
    for behavior in behaviors:
        for module in env.library.complex_modules_for(behavior):
            if module.name in seen or module.name == inst.module.name:
                continue
            seen.add(module.name)
            if not all(ensure_behavior(module, b, env.library) for b in behaviors):
                continue
            if not _ports_match(solution, inst_id, module):
                continue
            clone = solution.clone()
            clone.set_module(inst_id, module)
            out.append(
                Candidate(
                    kind="A-module",
                    description=f"{inst_id}: {inst.module.name} -> {module.name}",
                    solution=clone,
                    touched=frozenset({inst_id}),
                )
            )
    return out


def _ports_match(solution: Solution, inst_id: str, module) -> bool:
    for group in solution.executions[inst_id]:
        (node_id,) = group
        node = solution.dfg.node(node_id)
        profile = module.profile(node.behavior)
        if len(profile.input_offsets_ns) != node.n_inputs:
            return False
        if len(profile.output_latencies_ns) != node.n_outputs:
            return False
    return True


def _merged_module_rebuild(
    env: SynthesisEnv, solution: Solution, inst_id: str
) -> Candidate | None:
    """Type-A variant for multi-behavior instances: re-embed from the
    best library module per behavior.

    Once two modules are merged, no single library element supports the
    union of behaviors, so plain replacement can never fix a merge that
    locked in a poorly matched constituent.  This move rebuilds the
    overlay from the objective-best library module of each bound
    behavior (uniform constituents overlay far better).
    """
    inst = solution.instances[inst_id]
    assert inst.module is not None
    behaviors = list(dict.fromkeys(_bound_behaviors(solution, inst_id)))
    if len(behaviors) < 2:
        return None

    def score(module) -> float:
        if env.objective == "power":
            return min(module.cap_internal(b) for b in behaviors if module.supports(b))
        return module.area(env.library)

    picks = []
    for behavior in behaviors:
        candidates = [
            m
            for m in env.library.complex_modules_for(behavior)
            if ensure_behavior(m, behavior, env.library)
        ]
        if not candidates:
            return None
        picks.append(min(candidates, key=score))

    merged = picks[0]
    for module in picks[1:]:
        merged = merge_modules(merged, module)
        env.telemetry.count_move_embedded("A-remerge")
    if merged.name == inst.module.name:
        return None
    if not _ports_match(solution, inst_id, merged):
        return None
    clone = solution.clone()
    clone.set_module(inst_id, merged)
    return Candidate(
        kind="A-remerge",
        description=f"{inst_id}: re-embed from library corners ({merged.name})",
        solution=clone,
        touched=frozenset({inst_id}),
    )


def _resynthesis_candidate(
    env: SynthesisEnv,
    solution: Solution,
    sim: SimTrace,
    inst_id: str,
) -> Candidate | None:
    """Move B: descend into a complex module and resynthesize it under
    the relaxed constraints its environment allows."""
    from ..scheduling.slack import environment_of
    from .improve import resynthesize_module  # lazy: improve imports moves

    inst = solution.instances[inst_id]
    assert inst.module is not None
    execs = solution.executions[inst_id]
    if len(execs) != 1:
        return None  # merged/shared modules are not resynthesized
    (node_id,) = execs[0]
    node = solution.dfg.node(node_id)
    assert node.behavior is not None
    if not (inst.module.resynthesizable or env.design.has_behavior(node.behavior)):
        return None

    sched = solution.schedule()
    if sched.length > solution.deadline_cycles:
        return None
    task = solution.task(f"{inst_id}#0")
    constraint = environment_of(
        solution.dfg, task, solution.tasks(), sched, solution.deadline_cycles
    )
    budget_cycles = min(constraint.output_deadlines) - max(
        list(constraint.input_arrivals) + [0]
    )
    if budget_cycles < 1:
        return None

    module = resynthesize_module(
        env, solution, sim, node_id, node.behavior, inst.module, budget_cycles
    )
    if module is None:
        return None
    clone = solution.clone()
    clone.set_module(inst_id, module)
    return Candidate(
        kind="B-resynth",
        description=(
            f"{inst_id}: resynthesize {inst.module.name} under "
            f"{budget_cycles}-cycle budget"
        ),
        solution=clone,
        touched=frozenset({inst_id}),
    )


# ----------------------------------------------------------------------
# Type C: resource sharing
# ----------------------------------------------------------------------

def sharing_candidates(
    env: SynthesisEnv,
    solution: Solution,
    sim: SimTrace,
    locked: frozenset[str],
    view=None,
) -> list[Candidate]:
    """Merging moves: FU pairs, register pairs, module pairs, chains.

    The candidate budget is apportioned *per family* — FU pairs up to
    ``max_share_pairs``, register pairs up to ``max_share_pairs // 2``,
    module pairs up to ``max(1, max_share_pairs // 2)``, chain
    formation with its own small internal caps — rather than one global
    truncation over the concatenated list, which used to let a full FU/
    register harvest silently starve module sharing and chain formation
    out of the round entirely.  Per-family discovery counts land in
    ``telemetry.moves_discovered`` (kind-keyed), making the
    apportionment observable.

    The FU and register families come from *view* (a :class:`~repro.
    synthesis.relational.RelationalView` of *solution*, built here when
    the caller passes none) as top-k joins emitting lazy candidates;
    module sharing and chain formation are library-/DFG-bounded and
    stay on the Python helpers below.
    """
    view = _view_of(env, solution, locked, view)
    out = view.fu_sharing() + view.register_sharing()
    out.extend(
        _module_sharing(
            env, solution, locked, max(1, env.config.max_share_pairs // 2)
        )
    )
    out.extend(_chain_formation(env, solution, locked))
    return out


def _module_sharing(
    env: SynthesisEnv, solution: Solution, locked: frozenset[str], budget: int
) -> list[Candidate]:
    """Module pairs in instance order, stopping at *budget* candidates.

    A pair whose first module already supports every behavior bound to
    the second shares that module (``C-share-module``); any other pair
    is RTL-embedded (``C-embed``).  The loop returns as soon as it holds
    *budget* candidates, so no pair past the cut is cloned or embedded.
    ``merge_modules`` supports every behavior of both constituents, so
    an embedding always yields a candidate.
    """
    modules = [
        inst_id
        for inst_id, inst in solution.instances.items()
        if inst.is_module and inst_id not in locked and solution.executions[inst_id]
    ]
    out: list[Candidate] = []
    for i, a in enumerate(modules):
        for b in modules[i + 1 :]:
            mod_a = solution.instances[a].module
            mod_b = solution.instances[b].module
            assert mod_a is not None and mod_b is not None
            if all(mod_a.supports(x) for x in _bound_behaviors(solution, b)):
                clone = solution.clone()
                clone.merge_instances(a, b)
                out.append(
                    Candidate(
                        kind="C-share-module",
                        description=f"share module: {b} -> {a} ({mod_a.name})",
                        solution=clone,
                        touched=frozenset({a, b}),
                    )
                )
            elif env.config.enable_embedding:
                merged = merge_modules(mod_a, mod_b)
                env.telemetry.count_move_embedded("C-embed")
                clone = solution.clone()
                clone.set_module(a, merged)
                clone.merge_instances(a, b)
                out.append(
                    Candidate(
                        kind="C-embed",
                        description=(
                            f"RTL-embed: {mod_b.name} into {mod_a.name} on {a}"
                        ),
                        solution=clone,
                        touched=frozenset({a, b}),
                    )
                )
            else:
                continue
            if len(out) >= budget:
                return out
    return out


def _chain_formation(
    env: SynthesisEnv, solution: Solution, locked: frozenset[str]
) -> list[Candidate]:
    """Fuse add→add dependencies onto chained adder cells.

    Candidate: nodes ``a -> b`` where both are additions on separate
    unlocked instances, each currently a singleton execution, and *a*'s
    value is consumed only by *b* (so it can become chain-internal).
    """
    dfg = solution.dfg
    chained2 = [c for c in env.library.cells() if c.chain_length == 2
                and c.supports(Operation.ADD)]
    chained3 = [c for c in env.library.cells() if c.chain_length == 3
                and c.supports(Operation.ADD)]
    if not chained2 and not chained3:
        return []

    out: list[Candidate] = []
    for node in dfg.op_nodes():
        if node.op != Operation.ADD:
            continue
        consumers = dfg.out_edges(node.node_id)
        if len(consumers) != 1:
            continue
        nxt = dfg.node(consumers[0].dst)
        if nxt.kind != NodeKind.OP or nxt.op != Operation.ADD:
            continue
        inst_a = solution.instance_of(node.node_id)
        inst_b = solution.instance_of(nxt.node_id)
        if inst_a == inst_b or inst_a in locked or inst_b in locked:
            continue
        if solution.instances[inst_a].is_module or solution.instances[inst_b].is_module:
            continue
        execs_a = solution.executions[inst_a]
        execs_b = solution.executions[inst_b]
        if execs_a != [(node.node_id,)] or execs_b != [(nxt.node_id,)]:
            continue
        for cell in chained2[:1]:
            clone = solution.clone()
            clone.executions[inst_a] = []
            clone.executions[inst_b] = []
            clone.remove_instance(inst_b)
            clone.set_cell(inst_a, cell)
            clone.bind_execution(inst_a, (node.node_id, nxt.node_id))
            normalize_registers(clone)
            out.append(
                Candidate(
                    kind="C-chain",
                    description=(
                        f"chain {node.node_id}+{nxt.node_id} on {cell.name}"
                    ),
                    solution=clone,
                    touched=frozenset({inst_a, inst_b}),
                )
            )
        if len(out) >= 4:
            break

    # Extend an existing 2-chain to a 3-chain.
    for inst_id, inst in solution.instances.items():
        if inst.is_module or inst_id in locked or inst.cell is None:
            continue
        if inst.cell.chain_length != 2 or not chained3:
            continue
        for group in solution.executions[inst_id]:
            if len(group) != 2:
                continue
            last = group[-1]
            consumers = dfg.out_edges(last)
            if len(consumers) != 1:
                continue
            nxt = dfg.node(consumers[0].dst)
            if nxt.kind != NodeKind.OP or nxt.op != Operation.ADD:
                continue
            inst_c = solution.instance_of(nxt.node_id)
            if inst_c == inst_id or inst_c in locked:
                continue
            if solution.executions[inst_c] != [(nxt.node_id,)]:
                continue
            clone = solution.clone()
            clone.executions[inst_id] = [
                g for g in clone.executions[inst_id] if g != group
            ]
            clone.executions[inst_c] = []
            clone.remove_instance(inst_c)
            clone.set_cell(inst_id, chained3[0])
            clone.bind_execution(inst_id, tuple(group) + (nxt.node_id,))
            normalize_registers(clone)
            out.append(
                Candidate(
                    kind="C-chain3",
                    description=f"extend chain with {nxt.node_id}",
                    solution=clone,
                    touched=frozenset({inst_id, inst_c}),
                )
            )
            break
    return out


# ----------------------------------------------------------------------
# Type D: resource splitting
# ----------------------------------------------------------------------

def splitting_candidates(
    env: SynthesisEnv,
    solution: Solution,
    sim: SimTrace,
    locked: frozenset[str],
    view=None,
) -> list[Candidate]:
    """Splitting moves: un-share instances, registers and chains.

    The FU-split and register-split families come from *view* (built
    here when the caller passes none) as lazy candidates, one ordered
    scan each; chain dissolution stays on the Python helper below.
    """
    view = _view_of(env, solution, locked, view)
    out = view.fu_splits() + view.register_splits()

    # Chain dissolution: break a chained execution into singletons.
    for inst_id, inst in solution.instances.items():
        if inst.is_module or inst_id in locked or inst.cell is None:
            continue
        if inst.cell.chain_length <= 1:
            continue
        groups = solution.executions[inst_id]
        if not groups:
            continue
        clone = solution.clone()
        fastest = env.library.fastest_cell(Operation.ADD)
        new_ids = []
        clone.executions[inst_id] = []
        clone.remove_instance(inst_id)
        for group in groups:
            for node_id in group:
                inst_new = clone.add_instance(cell=fastest)
                clone.bind_execution(inst_new.inst_id, (node_id,))
                new_ids.append(inst_new.inst_id)
        normalize_registers(clone)
        out.append(
            Candidate(
                kind="D-unchain",
                description=f"dissolve chain on {inst_id}",
                solution=clone,
                touched=frozenset([inst_id] + new_ids),
            )
        )
        break

    return out
