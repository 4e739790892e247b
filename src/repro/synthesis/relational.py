"""Set-at-a-time candidate discovery over an in-memory relational view.

Discovering candidates with nested per-pair Python loops costs O(n²)
for FU sharing, with a library rescan per pair, plus an eager
``Solution.clone()`` of every candidate before
:func:`~repro.synthesis.moves.prune_candidates` sees it.  This module
does the *discovery* step with relational algebra instead: each KL
step projects the current :class:`~repro.synthesis.solution.Solution`
into in-memory SQL tables (instances, capability masks, register
lifetimes) and regenerates whole candidate families with one batched
join each, emitting **lazy** :class:`~repro.synthesis.moves.Candidate`
descriptors whose clones are built only if the candidate survives
pruning and reaches pricing.

Backend choice — SQLite (stdlib ``sqlite3``) over indexed numpy
structured arrays: the joins here are small but *irregular* (a
capability anti-join with a correlated min-area subquery, an interval
anti-join with an existential negation), which SQL expresses directly
and evaluates with its own index machinery, whereas numpy would need
hand-rolled broadcasting for each shape.  Connections are ``:memory:``
and thread-local; a view rebuilds only the tables a query family
actually touches.

Discovery contract
------------------
For every family this module serves (``A-cell``, ``C-share-fu``,
``C-share-reg``, ``D-split-fu``, ``D-split-reg``) the emitted candidate
*multiset* — ``(kind, touched, description)`` triples and therefore
solution fingerprints — is fixed by the documented sort and cap of
each family: each ``ORDER BY`` states the ranking (with stable-sort
tie-breaks via original positions) and each ``LIMIT`` the cap.  Both
pruning and :func:`~repro.synthesis.improve._best` are
order-independent given the deterministic
:func:`~repro.synthesis.moves.candidate_order_key` tie-break, so equal
multisets imply byte-identical search trajectories.  The test suite
holds the engine to a per-pair reference implementation
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

import sqlite3
import threading
from typing import Callable, Iterable

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
#: every required op" becomes ``(required & ~capable) = 0`` — a single
#: arithmetic predicate SQLite evaluates inside the join.
OP_BIT: dict[Operation, int] = {op: 1 << i for i, op in enumerate(Operation)}


def op_mask(ops: Iterable[Operation]) -> int:
    """Fold a set of operations into its capability bitmask."""
    mask = 0
    for op in ops:
        mask |= OP_BIT[op]
    return mask


_LOCAL = threading.local()


#: The fixed schema, created once per connection.  Tables are cleared
#: with ``DELETE FROM`` between views, never dropped: a ``DROP TABLE``
#: is a schema change that invalidates every statement in the
#: connection's prepared-statement cache, forcing a re-parse and
#: re-plan of each join on each KL step — measurable fixed cost on
#: small designs where discovery is otherwise microseconds.
_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS cells (pos INTEGER PRIMARY KEY, "
    "name TEXT, area REAL, opmask INTEGER, chain INTEGER)",
    "CREATE TABLE IF NOT EXISTS inst (pos INTEGER PRIMARY KEY, id TEXT, "
    "cellpos INTEGER, cellname TEXT, area REAL, cellmask INTEGER, "
    "cellchain INTEGER, opmask INTEGER, chain INTEGER)",
    "CREATE TABLE IF NOT EXISTS reg (pos INTEGER PRIMARY KEY, id TEXT, "
    "ok INTEGER)",
    "CREATE TABLE IF NOT EXISTS life (reg INTEGER, birth INTEGER, "
    "death INTEGER)",
    # Materialized cross-overlap pairs: the register-sharing anti-join
    # probes this primary key instead of re-evaluating a correlated
    # interval join per register pair.
    "CREATE TABLE IF NOT EXISTS ovl (ra INTEGER, rb INTEGER, "
    "PRIMARY KEY (ra, rb)) WITHOUT ROWID",
    "CREATE TABLE IF NOT EXISTS tgt (pos INTEGER PRIMARY KEY, id TEXT, "
    "cellname TEXT, opmask INTEGER, chain INTEGER)",
    "CREATE TABLE IF NOT EXISTS allinst (pos INTEGER PRIMARY KEY, "
    "id TEXT, n_execs INTEGER)",
    "CREATE TABLE IF NOT EXISTS allreg (pos INTEGER PRIMARY KEY, "
    "id TEXT, n_signals INTEGER)",
)


def _connection() -> sqlite3.Connection:
    """The thread's reusable ``:memory:`` connection.

    One connection per thread amortizes connection setup and statement
    compilation across the many short-lived views of a KL search; table
    contents are keyed by view identity (see :meth:`RelationalView.
    _state`) so a nested view — move-B resynthesis runs a whole nested
    KL search mid-step — safely clobbers and later rebuilds the outer
    view's tables.
    """
    conn = getattr(_LOCAL, "conn", None)
    if conn is None:
        conn = sqlite3.connect(":memory:")
        # The view tables are tiny (tens of rows); a transient automatic
        # index costs more to build per query than the nested-loop scan
        # it replaces, and steering the planner to PK order lets the
        # pair queries satisfy ``ORDER BY pos`` without a sort pass.
        conn.execute("PRAGMA automatic_index = OFF")
        for statement in _SCHEMA:
            conn.execute(statement)
        _LOCAL.conn = conn
    return conn


class RelationalView:
    """Relational projection of one solution for one discovery round.

    Built once per KL step (the solution must not mutate while the view
    is alive — guarded by the solution's mutation epoch) and queried
    once per candidate family.  Tables are populated lazily: a round
    that never reaches register sharing never pays for lifetimes.
    """

    def __init__(
        self, env: SynthesisEnv, solution: Solution, locked: frozenset[str]
    ):
        self._env = env
        self._solution = solution
        self._locked = locked
        self._epoch = solution.epoch
        self._conn = _connection()
        self._on_materialize = env.telemetry.count_move_materialized
        base_fp = solution.fingerprint()
        self._fp_head = base_fp[:5]
        self._inst_entries: tuple = base_fp[5]
        self._reg_entries: tuple = base_fp[6]
        self._inst_pos = {e[0]: i for i, e in enumerate(self._inst_entries)}
        self._reg_pos = {e[0]: i for i, e in enumerate(self._reg_entries)}
        #: Everything the table contents are a pure function of: the
        #: solution fingerprint (DFG identity, clocks, bindings,
        #: executions, register contents), the locked set, and the
        #: library's cell objects.  Two views with equal keys project
        #: identical tables, so they share them (see :meth:`_state`).
        self._key = (
            self._fp_head,
            self._inst_entries,
            self._reg_entries,
            locked,
            tuple(map(id, env.library.cells())),
        )
        #: Merge-target decode list; filled by :meth:`_ensure_simple`.
        self._cell_lookup: list[LibraryCell] = []
        #: Row count of the ``inst`` table; filled by
        #: :meth:`_ensure_simple`, compared against target-list sizes.
        self._n_simple = -1

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _state(self) -> dict:
        """The connection's table cache, scoped to this view's identity.

        Keyed by :attr:`_key` rather than the view object: consecutive
        views over an unchanged solution — KL steps whose best move was
        rejected, or repeated discovery in benchmarks — find every
        table (and the Python-side decode state stashed alongside)
        already populated and skip the rebuild entirely.  A view with a
        different key resets the cache, which also covers the nested
        move-B resynthesis view clobbering the outer step's tables.
        """
        state = getattr(_LOCAL, "view_state", None)
        if state is None or state["key"] != self._key:
            state = {"key": self._key, "built": set()}
            _LOCAL.view_state = state
        return state

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

    def _ensure_cells(self) -> list[LibraryCell]:
        """``cells(pos, name, area, opmask, chain)`` in library order.

        The library is immutable for the lifetime of a synthesis run,
        so the table survives across views on the same connection
        independently of the per-solution cache: it reloads only when a
        view binds a *different* library (nested resynthesis shares the
        env, so in practice once per thread).
        """
        cells = self._env.library.cells()
        key = tuple(map(id, cells))
        if getattr(_LOCAL, "cells_from", None) == key:
            return cells
        cur = self._conn
        cur.execute("DELETE FROM cells")
        cur.executemany(
            "INSERT INTO cells VALUES (?, ?, ?, ?, ?)",
            [
                (pos, c.name, c.area, op_mask(c.ops), c.chain_length)
                for pos, c in enumerate(cells)
            ],
        )
        _LOCAL.cells_from = key
        return cells

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

    def _ensure_simple(self) -> None:
        """``inst``: unlocked simple instances with executions.

        ``pos`` is the instance's rank in binding insertion order;
        capability data
        of both the requirement side (``opmask``/``chain``) and the
        currently bound cell (``cellmask``/``cellchain``) is
        denormalized in so the pair join never leaves the table.
        """
        state = self._state()
        if "inst" in state["built"]:
            self._cell_lookup = state["cell_lookup"]
            self._n_simple = state["n_simple"]
            return
        # Decode table for merge targets: library cells by position,
        # extended with any bound cell the library does not list (a
        # merge may keep such a cell; positions past the library never
        # enter the SQL ``cells`` table, so the min-area fallback
        # subquery still scans exactly the library).
        lookup = list(self._ensure_cells())
        cell_pos = {c.name: i for i, c in enumerate(lookup)}
        solution = self._solution
        rows = []
        pos = 0
        for inst_id, inst in solution.instances.items():
            if (
                inst.is_module
                or inst_id in self._locked
                or not solution.executions[inst_id]
            ):
                continue
            assert inst.cell is not None
            cellpos = cell_pos.get(inst.cell.name)
            if cellpos is None:
                cellpos = len(lookup)
                cell_pos[inst.cell.name] = cellpos
                lookup.append(inst.cell)
            mask, chain = self._instance_requirements(inst_id)
            rows.append(
                (
                    pos,
                    inst_id,
                    cellpos,
                    inst.cell.name,
                    inst.cell.area,
                    op_mask(inst.cell.ops),
                    inst.cell.chain_length,
                    mask,
                    chain,
                )
            )
            pos += 1
        self._cell_lookup = state["cell_lookup"] = lookup
        self._n_simple = state["n_simple"] = len(rows)
        cur = self._conn
        cur.execute("DELETE FROM inst")
        cur.executemany(
            "INSERT INTO inst VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)", rows
        )
        state["built"].add("inst")

    def _ensure_registers(self) -> None:
        """``reg``/``life``: unlocked registers and lifetime intervals.

        ``reg.pos`` ranks registers in left-edge order (earliest end
        of life first); ``reg.ok`` precomputes whether the register's
        *own* intervals are already pairwise disjoint (a merged-interval
        disjointness check degenerates to cross-register overlap
        exactly when both sides are self-consistent).  ``life`` holds one row
        per (register, interval); ``ovl`` materializes the overlapping
        register pairs once — half-open semantics, ``[b1, d1)`` and
        ``[b2, d2)`` overlap iff ``b1 < d2 and b2 < d1`` — so the
        sharing query probes a primary key per pair instead of
        re-running a correlated interval join.
        """
        state = self._state()
        if "reg" in state["built"]:
            return
        solution = self._solution
        regs = [r for r in solution.reg_signals if r not in self._locked]
        lifetimes = register_lifetimes(solution, regs)
        regs.sort(key=lambda r: lifetimes[r][-1][1])
        reg_rows = []
        life_rows = []
        for pos, reg_id in enumerate(regs):
            intervals = lifetimes[reg_id]
            ok = all(
                b2 >= d1
                for (_b1, d1), (b2, _d2) in zip(intervals, intervals[1:])
            )
            reg_rows.append((pos, reg_id, 1 if ok else 0))
            for birth, death in intervals:
                life_rows.append((pos, birth, death))
        cur = self._conn
        cur.execute("DELETE FROM reg")
        cur.execute("DELETE FROM life")
        cur.execute("DELETE FROM ovl")
        cur.executemany("INSERT INTO reg VALUES (?, ?, ?)", reg_rows)
        cur.executemany("INSERT INTO life VALUES (?, ?, ?)", life_rows)
        cur.execute(
            "INSERT OR IGNORE INTO ovl SELECT la.reg, lb.reg "
            "FROM life la JOIN life lb ON lb.reg > la.reg "
            "AND la.birth < lb.death AND lb.birth < la.death"
        )
        state["built"].add("reg")

    # ------------------------------------------------------------------
    # Move A: cell replacement
    # ------------------------------------------------------------------
    def cell_replacements(self, targets: list[str]) -> list[Candidate]:
        """``A-cell`` swaps for all *targets* via one capability join.

        Instead of a ``library.cells()`` rescan per target, a single
        join against ``cells`` yields every (target, fitting cell) pair
        at once.  When *targets* covers every unlocked
        simple instance — the common case, ``max_ab_targets`` rarely
        bites — the join runs straight off the ``inst`` table; a capped
        subset stages into ``tgt`` first.  Emission order differs
        between the two shapes, which is immaterial: pruning and
        ``_best`` are order-independent, only the multiset counts.
        """
        self._ensure_simple()
        cells = self._env.library.cells()
        solution = self._solution
        cur = self._conn
        if len(targets) == self._n_simple:
            pairs = cur.execute(
                "SELECT t.id, t.cellname, c.pos FROM inst t JOIN cells c "
                "ON c.name <> t.cellname "
                "AND (t.opmask & ~c.opmask) = 0 "
                "AND c.chain >= t.chain "
                "ORDER BY t.pos, c.pos"
            ).fetchall()
        else:
            cur.execute("DELETE FROM tgt")
            rows = []
            for pos, inst_id in enumerate(targets):
                inst = solution.instances[inst_id]
                assert inst.cell is not None
                mask, chain = self._instance_requirements(inst_id)
                rows.append((pos, inst_id, inst.cell.name, mask, chain))
            cur.executemany("INSERT INTO tgt VALUES (?, ?, ?, ?, ?)", rows)
            pairs = cur.execute(
                "SELECT t.id, t.cellname, c.pos FROM tgt t JOIN cells c "
                "ON c.name <> t.cellname "
                "AND (t.opmask & ~c.opmask) = 0 "
                "AND c.chain >= t.chain "
                "ORDER BY t.pos, c.pos"
            ).fetchall()

        base = solution
        out: list[Candidate] = []
        for inst_id, old_name, cell_idx in pairs:
            cell = cells[cell_idx]
            entries = list(self._inst_entries)
            idx = self._inst_pos[inst_id]
            e = entries[idx]
            entries[idx] = (e[0], cell.name, False, e[3])
            out.append(
                Candidate(
                    kind="A-cell",
                    description=f"{inst_id}: {old_name} -> {cell.name}",
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
        """``C-share-fu``: all mergeable FU pairs via one self-join.

        The pair join resolves the merge target inline — keep a's cell
        if it fits the union of requirements, else b's, else the
        min-area fitting library cell (first by library position on
        area ties, matching ``min()``) — and ranks pairs by saved area
        descending with enumeration order as the stable tie-break.
        """
        self._ensure_simple()
        cells = self._cell_lookup
        cap = self._env.config.max_share_pairs
        pairs = self._conn.execute(
            "SELECT ida, idb, target FROM ("
            " SELECT a.pos AS pa, b.pos AS pb, a.id AS ida, b.id AS idb,"
            "  MIN(a.area, b.area) AS saved,"
            "  CASE"
            "   WHEN ((a.opmask | b.opmask) & ~a.cellmask) = 0"
            "    AND a.cellchain >= MAX(a.chain, b.chain) THEN a.cellpos"
            "   WHEN ((a.opmask | b.opmask) & ~b.cellmask) = 0"
            "    AND b.cellchain >= MAX(a.chain, b.chain) THEN b.cellpos"
            "   ELSE ("
            "    SELECT c.pos FROM cells c"
            "    WHERE ((a.opmask | b.opmask) & ~c.opmask) = 0"
            "     AND c.chain >= MAX(a.chain, b.chain)"
            "    ORDER BY c.area, c.pos LIMIT 1)"
            "  END AS target"
            " FROM inst a JOIN inst b ON b.pos > a.pos"
            ") WHERE target IS NOT NULL "
            "ORDER BY saved DESC, pa, pb LIMIT ?",
            (cap,),
        ).fetchall()

        base = self._solution
        out: list[Candidate] = []
        for a, b, cell_idx in pairs:
            target = cells[cell_idx]
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
        """``C-share-reg``: disjoint register pairs via an anti-join.

        All pairs, not a 4-wide window: the overlap test is an
        anti-join against the materialized ``ovl`` pair table (built
        once per solution in :meth:`_ensure_registers`), with the
        first-``cap``-pairs-in-rank-order truncation expressed as
        ``LIMIT``.
        """
        self._ensure_registers()
        cap = self._env.config.max_share_pairs // 2
        pairs = self._conn.execute(
            "SELECT a.id, b.id FROM reg a JOIN reg b ON b.pos > a.pos "
            "WHERE a.ok = 1 AND b.ok = 1 AND NOT EXISTS ("
            " SELECT 1 FROM ovl o WHERE o.ra = a.pos AND o.rb = b.pos) "
            "ORDER BY a.pos, b.pos LIMIT ?",
            (cap,),
        ).fetchall()

        base = self._solution
        out: list[Candidate] = []
        for a, b in pairs:
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

        One ordered scan (executions descending, binding order as the
        stable tie-break) takes the first ``cap`` instances; the twin's
        id is precomputed with :meth:`Solution.peek_fresh_id` so the
        descriptor fingerprint matches the clone that would be built.
        """
        self._ensure_allinst()
        cap = self._env.config.max_split_candidates
        rows = self._conn.execute(
            "SELECT id FROM allinst WHERE n_execs >= 2 "
            "ORDER BY n_execs DESC, pos LIMIT ?",
            (cap,),
        ).fetchall()

        base = self._solution
        twin = base.peek_fresh_id("u")
        out: list[Candidate] = []
        for (inst_id,) in rows:
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
        self._ensure_allinst()
        cap = self._env.config.max_split_candidates // 2
        rows = self._conn.execute(
            "SELECT id FROM allreg WHERE n_signals >= 2 "
            "ORDER BY pos LIMIT ?",
            (cap,),
        ).fetchall()

        base = self._solution
        twin = base.peek_fresh_id("r")
        out: list[Candidate] = []
        for (reg_id,) in rows:
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

    def _ensure_allinst(self) -> None:
        """``allinst``/``allreg``: every unlocked sharable resource.

        Unlike ``inst``, module instances are included — the split
        family un-shares merged modules too.  ``pos`` preserves binding
        insertion order for the stable sorts.
        """
        state = self._state()
        if "allinst" in state["built"]:
            return
        solution = self._solution
        inst_rows = [
            (pos, inst_id, len(solution.executions[inst_id]))
            for pos, inst_id in enumerate(solution.instances)
            if inst_id not in self._locked
        ]
        reg_rows = [
            (pos, reg_id, len(signals))
            for pos, (reg_id, signals) in enumerate(solution.reg_signals.items())
            if reg_id not in self._locked
        ]
        cur = self._conn
        cur.execute("DELETE FROM allinst")
        cur.execute("DELETE FROM allreg")
        cur.executemany("INSERT INTO allinst VALUES (?, ?, ?)", inst_rows)
        cur.executemany("INSERT INTO allreg VALUES (?, ?, ?)", reg_rows)
        state["built"].add("allinst")
