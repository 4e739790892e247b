"""Set-at-a-time candidate discovery over one solution's projection.

Discovering candidates with nested per-pair Python loops costs O(n²)
for FU sharing, with a library rescan per pair, plus an eager
``Solution.clone()`` of every candidate before
:func:`~repro.synthesis.moves.prune_candidates` sees it.  This module
does the *discovery* step with relational algebra instead: each KL
step projects the current :class:`~repro.synthesis.solution.Solution`
into flat per-view lists (unlocked instances with their capability
masks, registers with their lifetime intervals) and regenerates each
candidate family with one join or filter over them, emitting **lazy**
:class:`~repro.synthesis.moves.Candidate` descriptors whose clones are
built only if the candidate survives pruning and reaches pricing.

The joins run in-process, over lists built lazily per view: a round
that never reaches register sharing never computes lifetimes.  Every
family is capped, and the two pair families read their pairs in rank
order, so each stops as soon as its cap is full:

* ``C-share-fu`` is a top-k join.  It walks pairs by saved area
  descending, one area level at a time, and stops at
  ``max_share_pairs`` pairs that have a merge target.  The min-area
  library fallback target is memoized per (required-op mask, chain).
* ``C-share-reg`` walks register pairs in left-edge order and stops at
  its cap; no pair past the cut is tested for overlap.
* ``A-cell`` is a capability join against the library, and the two
  split families are filters.

Discovery contract
------------------
For every family this module serves (``A-cell``, ``C-share-fu``,
``C-share-reg``, ``D-split-fu``, ``D-split-reg``) the emitted candidate
*multiset* — ``(kind, touched, description)`` triples and therefore
solution fingerprints — is fixed by the documented sort and cap of
each family: each method states its ranking (with binding or library
positions as the stable tie-break) and its cap.  Both pruning and
:func:`~repro.synthesis.improve._best` are order-independent given the
deterministic :func:`~repro.synthesis.moves.candidate_order_key`
tie-break, so equal multisets imply byte-identical search
trajectories; candidates are still emitted in rank order, which keeps
the cost cache's insertion order, and so its evictions, fixed.  The
test suite holds the engine to a per-pair reference implementation
(``tests/reference_discovery.py``) family by family and end to end
against the golden traces.  The remaining families (module
replacement/sharing/embedding, move B, chain formation/dissolution)
are bounded by the library or the DFG rather than the solution size
and stay on the Python helpers in :mod:`repro.synthesis.moves`.

Every lazy candidate carries a *precomputed* fingerprint, derived by
editing the base solution's cached fingerprint tuple instead of
building the clone; the test suite asserts descriptor fingerprints
equal materialized ones for every family.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice
from typing import Callable, Iterable, Iterator

from ..dfg.ops import Operation
from ..errors import SynthesisError
from ..library.cells import LibraryCell
from .caching import HashedKey
from .context import SynthesisEnv
from .moves import Candidate, register_lifetimes
from .solution import Solution

__all__ = ["RelationalView", "OP_BIT", "op_mask"]

#: Stable bit assignment for operation capability masks: a cell (or an
#: instance's required-op set) becomes one integer, and "cell supports
#: every required op" becomes ``required & ~capable == 0`` — one
#: integer test per (instance, cell) pair in the joins.
OP_BIT: dict[Operation, int] = {op: 1 << i for i, op in enumerate(Operation)}


def op_mask(ops: Iterable[Operation]) -> int:
    """Fold a set of operations into its capability bitmask."""
    mask = 0
    for op in ops:
        mask |= OP_BIT[op]
    return mask


def _self_disjoint(intervals: list[tuple[int, int]]) -> bool:
    """True if a register's own sorted half-open intervals are disjoint."""
    return all(
        b2 >= d1 for (_b1, d1), (b2, _d2) in zip(intervals, intervals[1:])
    )


class RelationalView:
    """Relational projection of one solution for one discovery round.

    Built once per KL step (the solution must not mutate while the view
    is alive — guarded by the solution's mutation epoch) and queried
    once per candidate family.
    """

    def __init__(
        self, env: SynthesisEnv, solution: Solution, locked: frozenset[str]
    ):
        self._env = env
        self._solution = solution
        self._locked = locked
        self._epoch = solution.epoch
        self._on_materialize = env.telemetry.count_move_materialized
        base_fp = solution.fingerprint()
        self._fp_head = base_fp[:5]
        self._inst_entries: tuple = base_fp[5]
        self._reg_entries: tuple = base_fp[6]
        self._inst_pos = {e[0]: i for i, e in enumerate(self._inst_entries)}
        self._reg_pos = {e[0]: i for i, e in enumerate(self._reg_entries)}
        cells = env.library.cells()
        #: ``(cell, opmask, chain)`` per library cell, in library order.
        self._caps = [(c, op_mask(c.ops), c.chain_length) for c in cells]
        #: Merge targets by name: the library's cells, plus each bound
        #: cell the library does not list (see :meth:`_unit`).
        self._by_name = {c.name: c for c in cells}
        self._unit_rows: list[tuple] | None = None

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _check_epoch(self) -> None:
        if self._solution.epoch != self._epoch:
            raise SynthesisError(
                "relational candidate materialized after its base solution "
                "mutated; discovery views are single-step"
            )

    def _fingerprint(
        self, insts: tuple | None = None, regs: tuple | None = None
    ) -> HashedKey:
        """Fingerprint of the base solution with one component replaced."""
        return HashedKey(
            self._fp_head
            + (
                insts if insts is not None else self._inst_entries,
                regs if regs is not None else self._reg_entries,
            )
        )

    def _instance_requirements(self, inst_id: str) -> tuple[int, int]:
        """(required-op mask, required chain length) of an instance."""
        solution = self._solution
        mask = 0
        chain = 1
        for group in solution.executions[inst_id]:
            if len(group) > chain:
                chain = len(group)
            for node_id in group:
                op = solution.dfg.node(node_id).op
                if op is not None:
                    mask |= OP_BIT[op]
        return mask, chain

    def _units(self) -> list[tuple]:
        """Unlocked simple instances with executions, in binding order.

        One row per instance: ``(id, cell, area, cellmask, cellchain,
        opmask, chain)``.  ``area``, ``cellmask`` and ``cellchain``
        describe the bound cell, ``opmask`` and ``chain`` what the
        instance's executions require.  ``cell`` is the bound cell as a
        merge target: the library's cell of that name, or the bound
        cell itself when the library lists none.
        """
        if self._unit_rows is None:
            solution = self._solution
            self._unit_rows = [
                self._unit(inst_id)
                for inst_id, inst in solution.instances.items()
                if not inst.is_module
                and inst_id not in self._locked
                and solution.executions[inst_id]
            ]
        return self._unit_rows

    def _unit(self, inst_id: str) -> tuple:
        cell = self._solution.instances[inst_id].cell
        assert cell is not None
        mask, chain = self._instance_requirements(inst_id)
        return (
            inst_id,
            self._by_name.setdefault(cell.name, cell),
            cell.area,
            op_mask(cell.ops),
            cell.chain_length,
            mask,
            chain,
        )

    # ------------------------------------------------------------------
    # Move A: cell replacement
    # ------------------------------------------------------------------
    def cell_replacements(self, targets: list[str]) -> list[Candidate]:
        """``A-cell`` swaps for all *targets* via one capability join.

        Instead of a ``library.cells()`` rescan per target, one pass
        pairs each target with every other library cell that supports
        its required ops at its chain length, in (target, library
        position) order.  When *targets* covers every unlocked simple
        instance — the common case, ``max_ab_targets`` rarely bites —
        the targets are read in binding order, else in the given order.
        """
        rows = self._units()
        if len(targets) != len(rows):
            rows = [self._unit(inst_id) for inst_id in targets]

        base = self._solution
        out: list[Candidate] = []
        for inst_id, old, _area, _cmask, _cchain, mask, chain in rows:
            for cell, cell_mask, cell_chain in self._caps:
                if (
                    cell.name == old.name
                    or mask & ~cell_mask
                    or cell_chain < chain
                ):
                    continue
                entries = list(self._inst_entries)
                idx = self._inst_pos[inst_id]
                e = entries[idx]
                entries[idx] = (e[0], cell.name, False, e[3])
                out.append(
                    Candidate(
                        kind="A-cell",
                        description=f"{inst_id}: {old.name} -> {cell.name}",
                        touched=frozenset({inst_id}),
                        build=self._build_cell_swap(base, inst_id, cell),
                        fingerprint=self._fingerprint(insts=tuple(entries)),
                        replacement_cell=cell,
                        on_materialize=self._on_materialize,
                    )
                )
        return out

    def _build_cell_swap(
        self, base: Solution, inst_id: str, cell: LibraryCell
    ) -> Callable[[], Solution]:
        def build() -> Solution:
            self._check_epoch()
            clone = base.clone()
            clone.set_cell(inst_id, cell)
            return clone

        return build

    # ------------------------------------------------------------------
    # Move C: sharing
    # ------------------------------------------------------------------
    def fu_sharing(self) -> list[Candidate]:
        """``C-share-fu``: the ``max_share_pairs`` best mergeable FU pairs.

        Pairs rank by saved area (the smaller bound cell's area)
        descending, then by binding positions ``(a, b)``; only the first
        ``max_share_pairs`` pairs with a merge target are read (see
        :meth:`_mergeable_pairs`).
        """
        cap = max(self._env.config.max_share_pairs, 0)
        base = self._solution
        out: list[Candidate] = []
        for a, b, target in islice(self._mergeable_pairs(), cap):
            entries = list(self._inst_entries)
            ia, ib = self._inst_pos[a], self._inst_pos[b]
            ea, eb = entries[ia], entries[ib]
            entries[ia] = (a, target.name, False, ea[3] + eb[3])
            del entries[ib]
            out.append(
                Candidate(
                    kind="C-share-fu",
                    description=f"share: {b} -> {a} ({target.name})",
                    touched=frozenset({a, b}),
                    build=self._build_fu_share(base, a, b, target),
                    fingerprint=self._fingerprint(insts=tuple(entries)),
                    on_materialize=self._on_materialize,
                )
            )
        return out

    def _mergeable_pairs(self) -> Iterator[tuple[str, str, LibraryCell]]:
        """Mergeable unit pairs ``(a, b, target)`` in rank order.

        A pair saves area ``L`` when both bound cells have area ``L`` or
        more and one has exactly ``L``.  So the walk takes the area
        levels highest first, and at each level pairs the units at or
        above it in binding order, where a unit above the level pairs
        only with units at it.  The target keeps a's cell if it fits the
        union of requirements, else b's, else it is the min-area fitting
        library cell, first by library position on area ties (as
        ``min()`` picks), memoized per (required-op mask, chain).  A
        pair that no cell fits is skipped.
        """
        units = self._units()
        by_area: dict[float, list[int]] = {}
        for i, unit in enumerate(units):
            by_area.setdefault(unit[2], []).append(i)
        fallback: dict[tuple[int, int], LibraryCell | None] = {}
        wide: list[int] = []
        for level in sorted(by_area, reverse=True):
            exact = by_area[level]
            wide = sorted(wide + exact)
            for i in wide:
                a, a_cell, a_area, a_cmask, a_cchain, a_mask, a_chain = units[i]
                partners = wide if a_area == level else exact
                for j in partners[bisect_right(partners, i) :]:
                    b, b_cell, _b_area, b_cmask, b_cchain, b_mask, b_chain = units[j]
                    need = a_mask | b_mask
                    chain = max(a_chain, b_chain)
                    if not need & ~a_cmask and a_cchain >= chain:
                        yield a, b, a_cell
                    elif not need & ~b_cmask and b_cchain >= chain:
                        yield a, b, b_cell
                    else:
                        key = (need, chain)
                        if key not in fallback:
                            fallback[key] = min(
                                (
                                    cell
                                    for cell, mask, cell_chain in self._caps
                                    if not need & ~mask and cell_chain >= chain
                                ),
                                key=lambda cell: cell.area,
                                default=None,
                            )
                        target = fallback[key]
                        if target is not None:
                            yield a, b, target

    def _build_fu_share(
        self, base: Solution, a: str, b: str, target: LibraryCell
    ) -> Callable[[], Solution]:
        def build() -> Solution:
            self._check_epoch()
            clone = base.clone()
            cell_a = clone.instances[a].cell
            assert cell_a is not None
            if cell_a.name != target.name:
                clone.set_cell(a, target)
            clone.merge_instances(a, b)
            return clone

        return build

    def register_sharing(self) -> list[Candidate]:
        """``C-share-reg``: disjoint register pairs in left-edge order.

        All pairs, not a 4-wide window: registers rank by their last
        death (left-edge order), and pairs are read in ``(a, b)`` rank
        order up to the ``max_share_pairs // 2`` cap.  A pair is
        disjoint when each register's own intervals already are and no
        interval of one overlaps one of the other: half-open
        ``[b1, d1)`` and ``[b2, d2)`` overlap iff ``b1 < d2 and
        b2 < d1``.
        """
        cap = max(self._env.config.max_share_pairs // 2, 0)
        base = self._solution
        out: list[Candidate] = []
        for a, b in islice(self._disjoint_register_pairs(), cap):
            regs = list(self._reg_entries)
            ra, rb = self._reg_pos[a], self._reg_pos[b]
            regs[ra] = (a, regs[ra][1] + regs[rb][1])
            del regs[rb]
            out.append(
                Candidate(
                    kind="C-share-reg",
                    description=f"share registers: {b} -> {a}",
                    touched=frozenset({a, b}),
                    build=self._build_reg_share(base, a, b),
                    fingerprint=self._fingerprint(regs=tuple(regs)),
                    on_materialize=self._on_materialize,
                )
            )
        return out

    def _disjoint_register_pairs(self) -> Iterator[tuple[str, str]]:
        solution = self._solution
        regs = [r for r in solution.reg_signals if r not in self._locked]
        lifetimes = register_lifetimes(solution, regs)
        regs.sort(key=lambda r: lifetimes[r][-1][1])
        ranked = [(r, lifetimes[r]) for r in regs if _self_disjoint(lifetimes[r])]
        for i, (a, life_a) in enumerate(ranked):
            for b, life_b in ranked[i + 1 :]:
                if not any(
                    b1 < d2 and b2 < d1
                    for b1, d1 in life_a
                    for b2, d2 in life_b
                ):
                    yield a, b

    def _build_reg_share(
        self, base: Solution, a: str, b: str
    ) -> Callable[[], Solution]:
        def build() -> Solution:
            self._check_epoch()
            # Register moves leave tasks and schedule untouched, so the
            # clone carries the parent's timing caches (no rescheduling
            # when the candidate is priced).
            clone = base.clone(carry_timing=True)
            clone.merge_registers(a, b)
            return clone

        return build

    # ------------------------------------------------------------------
    # Move D: splitting
    # ------------------------------------------------------------------
    def fu_splits(self) -> list[Candidate]:
        """``D-split-fu``: busiest shared instances, halved.

        Unlocked instances, modules included, with two or more
        executions, ranked by executions descending with binding order
        as the stable tie-break; the first ``max_split_candidates`` are
        split.  The twin's id is precomputed with
        :meth:`Solution.peek_fresh_id` so the descriptor fingerprint
        matches the clone that would be built.
        """
        cap = max(self._env.config.max_split_candidates, 0)
        base = self._solution
        shared = [
            inst_id
            for inst_id in base.instances
            if inst_id not in self._locked and len(base.executions[inst_id]) >= 2
        ]
        shared.sort(key=lambda inst_id: -len(base.executions[inst_id]))

        twin = base.peek_fresh_id("u")
        out: list[Candidate] = []
        for inst_id in shared[:cap]:
            execs = base.executions[inst_id]
            half = max(1, len(execs) // 2)
            kept, moved = tuple(execs[:half]), tuple(execs[half:])
            entries = list(self._inst_entries)
            idx = self._inst_pos[inst_id]
            e = entries[idx]
            entries[idx] = (inst_id, e[1], e[2], kept)
            entries.append((twin, e[1], e[2], moved))
            out.append(
                Candidate(
                    kind="D-split-fu",
                    description=(
                        f"split {inst_id} ({len(execs)} execs) -> {twin}"
                    ),
                    touched=frozenset({inst_id, twin}),
                    build=self._build_fu_split(base, inst_id, moved),
                    fingerprint=self._fingerprint(insts=tuple(entries)),
                    on_materialize=self._on_materialize,
                )
            )
        return out

    def _build_fu_split(
        self, base: Solution, inst_id: str, moved: tuple
    ) -> Callable[[], Solution]:
        def build() -> Solution:
            self._check_epoch()
            clone = base.clone()
            clone.split_instance(inst_id, list(moved))
            return clone

        return build

    def register_splits(self) -> list[Candidate]:
        """``D-split-reg``: shared registers, halved (binding order)."""
        cap = max(self._env.config.max_split_candidates // 2, 0)
        base = self._solution
        shared = [
            reg_id
            for reg_id, signals in base.reg_signals.items()
            if reg_id not in self._locked and len(signals) >= 2
        ]

        twin = base.peek_fresh_id("r")
        out: list[Candidate] = []
        for reg_id in shared[:cap]:
            signals = base.reg_signals[reg_id]
            half = len(signals) // 2
            kept, moved = tuple(signals[:half]), tuple(signals[half:])
            regs = list(self._reg_entries)
            idx = self._reg_pos[reg_id]
            regs[idx] = (reg_id, kept)
            regs.append((twin, moved))
            out.append(
                Candidate(
                    kind="D-split-reg",
                    description=f"split register {reg_id} -> {twin}",
                    touched=frozenset({reg_id, twin}),
                    build=self._build_reg_split(base, reg_id, moved),
                    fingerprint=self._fingerprint(regs=tuple(regs)),
                    on_materialize=self._on_materialize,
                )
            )
        return out

    def _build_reg_split(
        self, base: Solution, reg_id: str, moved: tuple
    ) -> Callable[[], Solution]:
        def build() -> Solution:
            self._check_epoch()
            clone = base.clone(carry_timing=True)
            clone.split_register(reg_id, list(moved))
            return clone

        return build
