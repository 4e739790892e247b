"""RTL solution representation for one DFG level.

A :class:`Solution` captures everything the iterative-improvement engine
mutates:

* **instances** — functional-unit instances (a library cell each) and
  complex-module instances (an :class:`~repro.rtl.module.RTLModule`
  each);
* **executions** — which DFG nodes run on which instance, and in what
  grouping: each execution is a tuple of nodes, usually a singleton, but
  a dependency chain for chained cells (``chained_add2`` runs a chain of
  two additions in one activation);
* **register binding** — which signals share which register.

Scheduling is derived (and cached): executions become
:class:`~repro.scheduling.model.TaskSpec` tasks and go through the list
scheduler.  Tasks are derived per instance, in :class:`TaskBlock` s that
clones share, so a move re-derives only the instances it changed; the
datapath netlist is derived the same way, per register and per instance
(:mod:`repro.synthesis.datapath_build`).  All
mutation goes through the ``rebind_*``/``merge_*``/``split_*`` methods
so caches are invalidated consistently; moves clone the solution first,
mutate the clone and compare costs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from ..dfg.graph import DFG, NodeKind, Signal
from ..errors import SynthesisError
from ..library.cells import LibraryCell
from ..library.library import ModuleLibrary
from ..rtl.module import RTLModule
from ..scheduling.model import ScheduleResult, TaskSpec
from ..scheduling.scheduler import schedule_tasks
from .caching import HashedKey

__all__ = ["Instance", "Solution", "TaskBlock"]


@dataclass
class Instance:
    """One datapath resource instance: a simple cell or a complex module."""

    inst_id: str
    cell: LibraryCell | None = None
    module: RTLModule | None = None

    def __post_init__(self) -> None:
        if (self.cell is None) == (self.module is None):
            raise SynthesisError(
                f"instance {self.inst_id!r} must have exactly one of cell/module"
            )

    @property
    def is_module(self) -> bool:
        """True when this instance is a complex module, not a leaf cell."""
        return self.module is not None

    @property
    def type_name(self) -> str:
        """Library name of the bound cell or module."""
        return self.module.name if self.module is not None else self.cell.name


class TaskBlock:
    """The scheduler tasks of one instance at one operating point.

    A block is keyed by the :class:`Instance` object, a copy of that
    instance's execution list and ``(clk_ns, vdd)``: its tasks are a
    pure function of those (and the DFG, which a solution never
    swaps).  Clones share their parent's blocks, and
    :meth:`Solution.task_blocks` re-derives only the blocks whose key
    no longer matches.  Moves replace an :class:`Instance` rather than
    edit it, so a cell swap, a share or a split misses on one or two
    blocks, and a clone whose operating point is reassigned after
    :meth:`Solution.clone` misses on all of them.  A block's key and
    tasks never change once built; only its caches fill in.
    """

    __slots__ = ("instance", "executions", "clk_ns", "vdd", "tasks",
                 "_rows", "_key", "_text", "_min_length")

    def __init__(
        self,
        instance: Instance,
        executions: list[tuple[str, ...]],
        clk_ns: float,
        vdd: float,
        tasks: list[TaskSpec],
    ):
        self.instance = instance
        self.executions = executions
        self.clk_ns = clk_ns
        self.vdd = vdd
        self.tasks = tasks
        self._rows: tuple | None = None
        self._key: HashedKey | None = None
        self._text: str | None = None
        self._min_length: int | None = None

    def fits(
        self,
        instance: Instance,
        executions: list[tuple[str, ...]],
        clk_ns: float,
        vdd: float,
    ) -> bool:
        """True when this block is the derivation of the given key."""
        return (
            self.instance is instance
            and self.clk_ns == clk_ns
            and self.vdd == vdd
            and self.executions == executions
        )

    def signature_rows(self) -> tuple:
        """This block's rows of :meth:`Solution.task_signature` (cached)."""
        if self._rows is None:
            self._rows = tuple(
                [
                    (
                        t.task_id,
                        t.nodes,
                        t.instance,
                        t.duration,
                        t.initiation_interval,
                        tuple(sorted(t.input_offsets.items())),
                        tuple(sorted(t.output_latency.items())),
                    )
                    for t in self.tasks
                ]
            )
        return self._rows

    def signature_key(self) -> HashedKey:
        """:meth:`signature_rows` with their hash precomputed (cached):
        this block's part of :meth:`Solution.schedule_key`."""
        if self._key is None:
            self._key = HashedKey(self.signature_rows())
        return self._key

    def signature_text(self) -> str:
        """The ``repr`` of each of :meth:`signature_rows`, joined by
        ``", "`` (cached): this block's part of the schedule store
        address (:func:`repro.synthesis.costs.schedule_digest`)."""
        if self._text is None:
            self._text = ", ".join([repr(row) for row in self.signature_rows()])
        return self._text

    @property
    def min_length(self) -> int:
        """``(n - 1) · min(ii) + min(duration)`` over the block's *n*
        tasks, 0 for an idle instance (cached): this instance's term of
        the pruning bound in :func:`repro.synthesis.moves.
        _min_schedule_length`."""
        if self._min_length is None:
            bound = 0
            if self.tasks:
                min_ii = min(t.initiation_interval or t.duration for t in self.tasks)
                min_duration = min(t.duration for t in self.tasks)
                bound = (len(self.tasks) - 1) * min_ii + min_duration
            self._min_length = bound
        return self._min_length


class Solution:
    """A bound (and schedulable) RTL architecture for one DFG."""

    def __init__(
        self,
        dfg: DFG,
        library: ModuleLibrary,
        clk_ns: float,
        vdd: float,
        sampling_ns: float,
    ):
        self.dfg = dfg
        self.library = library
        self.clk_ns = clk_ns
        self.vdd = vdd
        self.sampling_ns = sampling_ns
        self.instances: dict[str, Instance] = {}
        #: instance id → list of executions (each a tuple of node ids).
        self.executions: dict[str, list[tuple[str, ...]]] = {}
        #: register id → signals stored there.
        self.reg_signals: dict[str, list[Signal]] = {}
        self._counter = 0
        self._schedule: ScheduleResult | None = None
        self._tasks: list[TaskSpec] | None = None
        self._task_index: dict[str, TaskSpec] | None = None
        #: instance id → the last :class:`TaskBlock` derived for it.
        #: Possibly stale (it survives :meth:`invalidate` and is shared
        #: with clones); :meth:`task_blocks` checks each block's key
        #: before reusing it and replaces, never edits, the dict.
        self._blocks: dict[str, TaskBlock] = {}
        #: The last :class:`~repro.synthesis.datapath_build.BlockNetlist`
        #: built for this solution, or for the solution it was cloned
        #: from: the netlist blocks the next build starts from.  Same
        #: lifecycle as ``_blocks``: shared with clones, each block
        #: checked against its key before reuse, and replaced, never
        #: edited, by :func:`~repro.synthesis.datapath_build.
        #: build_netlist`.
        self._netlist = None
        self._sched_key: HashedKey | None = None
        self._reg_of: dict[Signal, str] | None = None
        self._fingerprint: tuple | None = None
        self._fingerprint_key: HashedKey | None = None
        #: Mutation epoch: bumped by :meth:`invalidate` on every
        #: structural edit, so derived caches can tell at a glance
        #: whether a solution changed since they last saw it.
        self._epoch = 0

    # ------------------------------------------------------------------
    # Identity helpers
    # ------------------------------------------------------------------
    def fresh_id(self, prefix: str) -> str:
        """Mint an identifier unused by any instance or register."""
        while True:
            self._counter += 1
            candidate = f"{prefix}{self._counter}"
            if candidate not in self.instances and candidate not in self.reg_signals:
                return candidate

    def peek_fresh_id(self, prefix: str) -> str:
        """The id :meth:`fresh_id` *would* mint, without mutating state.

        A clone of this solution starts from the same ``_counter``, so
        the first ``fresh_id(prefix)`` called on the clone returns
        exactly this value — which lets the relational engine
        precompute the fingerprint of a split candidate (the twin's id
        appears in it) before deciding whether to build the clone.
        """
        counter = self._counter
        while True:
            counter += 1
            candidate = f"{prefix}{counter}"
            if candidate not in self.instances and candidate not in self.reg_signals:
                return candidate

    @property
    def deadline_cycles(self) -> int:
        """Cycle budget implied by the sampling period at this clock."""
        return int(math.floor(self.sampling_ns / self.clk_ns + 1e-9))

    # ------------------------------------------------------------------
    # Construction / mutation
    # ------------------------------------------------------------------
    def add_instance(
        self,
        cell: LibraryCell | None = None,
        module: RTLModule | None = None,
        inst_id: str | None = None,
    ) -> Instance:
        """Bind a new datapath instance of ``cell`` or ``module``."""
        inst_id = inst_id or self.fresh_id("u")
        if inst_id in self.instances:
            raise SynthesisError(f"duplicate instance id {inst_id!r}")
        inst = Instance(inst_id, cell=cell, module=module)
        self.instances[inst_id] = inst
        self.executions[inst_id] = []
        return inst

    def bind_execution(self, inst_id: str, nodes: tuple[str, ...]) -> None:
        """Append one execution (node group) to an instance."""
        if inst_id not in self.instances:
            raise SynthesisError(f"unknown instance {inst_id!r}")
        self.executions[inst_id].append(tuple(nodes))
        self.invalidate()

    def remove_instance(self, inst_id: str) -> None:
        """Delete an instance; it must have no remaining executions."""
        if self.executions.get(inst_id):
            raise SynthesisError(
                f"cannot remove instance {inst_id!r}: it still has executions"
            )
        del self.instances[inst_id]
        del self.executions[inst_id]
        self.invalidate()

    def add_register(self, signals: list[Signal], reg_id: str | None = None) -> str:
        """Allocate a register holding the given signals; returns its id."""
        reg_id = reg_id or self.fresh_id("r")
        if reg_id in self.reg_signals:
            raise SynthesisError(f"duplicate register id {reg_id!r}")
        self.reg_signals[reg_id] = list(signals)
        self._invalidate_binding()
        return reg_id

    def set_cell(self, inst_id: str, cell: LibraryCell) -> None:
        """Replace the library cell of a simple instance (move A)."""
        inst = self.instance(inst_id)
        if inst.is_module:
            raise SynthesisError(f"instance {inst_id!r} is a module instance")
        self.instances[inst_id] = Instance(inst_id, cell=cell)
        self.invalidate()

    def set_module(self, inst_id: str, module: RTLModule) -> None:
        """Replace the RTL module of a complex instance (moves A and B)."""
        inst = self.instance(inst_id)
        if not inst.is_module:
            raise SynthesisError(f"instance {inst_id!r} is a simple instance")
        self.instances[inst_id] = Instance(inst_id, module=module)
        self.invalidate()

    def merge_instances(self, keep: str, absorb: str) -> None:
        """Move every execution of *absorb* onto *keep* and delete it."""
        if keep == absorb:
            raise SynthesisError("cannot merge an instance with itself")
        self.executions[keep].extend(self.executions[absorb])
        self.executions[absorb] = []
        self.remove_instance(absorb)

    def split_instance(self, inst_id: str, moved: list[tuple[str, ...]]) -> str:
        """Move the listed executions onto a fresh twin instance (move D)."""
        inst = self.instance(inst_id)
        remaining = [e for e in self.executions[inst_id] if e not in moved]
        if len(remaining) + len(moved) != len(self.executions[inst_id]):
            raise SynthesisError("split: executions not currently on the instance")
        if not moved or not remaining:
            raise SynthesisError("split must leave work on both instances")
        twin = self.add_instance(cell=inst.cell, module=inst.module)
        self.executions[inst_id] = remaining
        self.executions[twin.inst_id] = list(moved)
        self.invalidate()
        return twin.inst_id

    def merge_registers(self, keep: str, absorb: str) -> None:
        """Bind *absorb*'s signals into *keep* and delete *absorb*."""
        if keep == absorb:
            raise SynthesisError("cannot merge a register with itself")
        self.reg_signals[keep].extend(self.reg_signals[absorb])
        del self.reg_signals[absorb]
        self._invalidate_binding()

    def split_register(self, reg_id: str, moved: list[Signal]) -> str:
        """Move the listed signals to a fresh register (move D)."""
        current = self.reg_signals[reg_id]
        remaining = [s for s in current if s not in moved]
        if not moved or not remaining:
            raise SynthesisError("register split must leave signals on both sides")
        twin = self.add_register(list(moved))
        self.reg_signals[reg_id] = remaining
        self._invalidate_binding()
        return twin

    def _invalidate_binding(self) -> None:
        """Drop caches a register-binding edit invalidates; keep timing.

        Tasks and the schedule are functions of the DFG, the instances,
        the executions and the operating point only — the register
        binding never enters them — so register moves keep those caches
        and drop just the fingerprint and the signal→register map.
        """
        self._reg_of = None
        self._fingerprint = None
        self._fingerprint_key = None
        self._epoch += 1

    #: Derived caches left out of the pickled state.
    _UNPICKLED = (
        "_tasks", "_task_index", "_blocks", "_netlist",
        "_fingerprint", "_fingerprint_key", "_sched_key",
    )

    def __getstate__(self) -> dict:
        """Pickled state, without the task, netlist-block and key caches.

        Blocks may describe instances and registers the solution no
        longer has (they survive :meth:`invalidate`), and the task list
        and index are cheap to re-derive, so none of them is stored.
        The fingerprint and the schedule key embed ``id(self.dfg)``,
        which means nothing in another process, and a
        :class:`~repro.synthesis.caching.HashedKey` holds a hash that
        follows ``PYTHONHASHSEED``; storing them would make blobs differ
        between processes.
        """
        state = self.__dict__.copy()
        for name in self._UNPICKLED:
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        """Restore a pickled solution with empty task and block caches.

        Persistent stores outlive releases: a solution pickled before
        task blocks existed carries a task list but no blocks, and
        possibly a task index an older :meth:`invalidate` left stale;
        one pickled before netlist blocks existed has no netlist
        blocks.  Dropping all of them keeps :meth:`task_blocks` from
        taking a present task list to mean its blocks match it.  Older
        blobs also carry the writer's fingerprint and schedule key,
        whose ``id(dfg)`` is stale here; both are re-derived.  The names
        are interned, as the default restore does, so a loaded solution
        pickles to the bytes it was loaded from (pickling memoizes
        strings by identity).
        """
        self.__dict__.update((sys.intern(k), v) for k, v in state.items())
        self._tasks = None
        self._task_index = None
        self._blocks = {}
        self._netlist = None
        self._fingerprint = None
        self._fingerprint_key = None
        self._sched_key = None

    def invalidate(self) -> None:
        """Drop cached schedule/tasks/fingerprint after any mutation."""
        self._schedule = None
        self._tasks = None
        self._task_index = None
        self._sched_key = None
        self._reg_of = None
        self._fingerprint = None
        self._fingerprint_key = None
        self._epoch += 1

    @property
    def epoch(self) -> int:
        """Mutation counter (see :meth:`invalidate`)."""
        return self._epoch

    def fingerprint(self) -> tuple:
        """Structural identity of this solution (cost-cache key).

        Captures everything :meth:`EvaluationContext.evaluate
        <repro.synthesis.costs.EvaluationContext.evaluate>` depends on:
        the DFG, the operating point, every instance with its bound
        executions (in insertion order — task creation and hence the
        scheduler see that order), and the register binding.  Module
        instances are identified by module name; generated names are
        unique per synthesis point, so equal fingerprints imply equal
        evaluation results.  Cached until :meth:`invalidate`.
        """
        if self._fingerprint is None:
            execs = self.executions
            # List comprehensions (not genexprs) inside tuple(): this
            # runs once per candidate per pricing round and the
            # genexpr frame overhead is measurable at that rate.
            self._fingerprint = (
                self.dfg.name,
                id(self.dfg),
                self.clk_ns,
                self.vdd,
                self.sampling_ns,
                tuple(
                    [
                        (
                            inst_id,
                            inst.type_name,
                            inst.is_module,
                            tuple(execs[inst_id]),
                        )
                        for inst_id, inst in self.instances.items()
                    ]
                ),
                tuple(
                    [
                        (reg_id, tuple(signals))
                        for reg_id, signals in self.reg_signals.items()
                    ]
                ),
            )
        return self._fingerprint

    def fingerprint_key(self) -> HashedKey:
        """The fingerprint wrapped with its hash precomputed.

        Cache layers key thousands of lookups by the same fingerprint
        within one mutation epoch; wrapping it in a
        :class:`~repro.synthesis.caching.HashedKey` means the nested
        tuple is hashed once per epoch instead of once per lookup.
        """
        if self._fingerprint_key is None:
            self._fingerprint_key = HashedKey(self.fingerprint())
        return self._fingerprint_key

    def adopt_fingerprint(self, key: HashedKey) -> None:
        """Install a fingerprint key derived for this exact structure.

        Only sound when the caller proved that :meth:`fingerprint_key`
        would return a key equal to *key*: a lazy
        :class:`~repro.synthesis.moves.Candidate` installs its
        descriptor's precomputed key into the clone it builds.  The
        counterpart of :meth:`adopt_schedule`; like a derived key, an
        adopted one is dropped by the next mutation.
        """
        self._fingerprint = key.value
        self._fingerprint_key = key

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def instance(self, inst_id: str) -> Instance:
        """Look up an instance by id (SynthesisError if unknown)."""
        try:
            return self.instances[inst_id]
        except KeyError:
            raise SynthesisError(f"unknown instance {inst_id!r}") from None

    def instance_of(self, node_id: str) -> str:
        """The instance a node executes on."""
        for inst_id, execs in self.executions.items():
            for group in execs:
                if node_id in group:
                    return inst_id
        raise SynthesisError(f"node {node_id!r} is not bound to any instance")

    def register_of(self, signal: Signal) -> str:
        """Return the register a signal is bound to (error if none).

        Backed by a lazily built reverse map (dropped by
        :meth:`invalidate`): netlist construction and conflict checking
        look up thousands of signals per evaluation, and a linear scan
        over the register binding for each was the hottest single
        function in candidate pricing.
        """
        reg_id = self.registered_map().get(signal)
        if reg_id is None:
            raise SynthesisError(
                f"signal {signal!r} is not bound to any register"
            )
        return reg_id

    def registered_map(self) -> dict[Signal, str]:
        """The signal → register reverse map (built lazily, see above).

        For a structurally valid solution its key set equals
        :meth:`registered_signals` (``check_invariants`` enforces that
        bindings cover exactly the registered signals), so hot paths use
        it for membership tests without re-deriving the signal list.
        """
        if self._reg_of is None:
            reg_of: dict[Signal, str] = {}
            for reg_id, signals in self.reg_signals.items():
                for s in signals:
                    if s not in reg_of:
                        reg_of[s] = reg_id
            self._reg_of = reg_of
        return self._reg_of

    def chain_internal_signals(self) -> set[Signal]:
        """Signals that live entirely inside a chained execution.

        Those values travel combinationally between chained adders and
        are never registered.
        """
        internal: set[Signal] = set()
        for execs in self.executions.values():
            for group in execs:
                for node in group[:-1]:
                    internal.add((node, 0))
        return internal

    def registered_signals(self) -> list[Signal]:
        """Signals that must be held in registers.

        Everything produced by a primary input or an operation, except
        constants and chain-internal values.
        """
        internal = self.chain_internal_signals()
        signals: list[Signal] = []
        for node in self.dfg.nodes():
            if node.kind == NodeKind.CONST or node.kind == NodeKind.OUTPUT:
                continue
            for port in range(node.n_outputs):
                signal = (node.node_id, port)
                if signal not in internal:
                    signals.append(signal)
        return signals

    # ------------------------------------------------------------------
    # Tasks and schedule
    # ------------------------------------------------------------------
    def task_blocks(self) -> list[TaskBlock]:
        """Per-instance task blocks, in instance order (cached).

        Each block is reused from the last derivation (this solution's
        or, through :meth:`clone`, its parent's) when its key still
        matches, and derived afresh otherwise.
        """
        if self._tasks is None:
            prior = self._blocks
            blocks: dict[str, TaskBlock] = {}
            tasks: list[TaskSpec] = []
            clk_ns, vdd = self.clk_ns, self.vdd
            for inst_id, execs in self.executions.items():
                inst = self.instances[inst_id]
                block = prior.get(inst_id)
                if block is None or not block.fits(inst, execs, clk_ns, vdd):
                    block = self._derive_block(inst_id, inst, execs)
                blocks[inst_id] = block
                tasks.extend(block.tasks)
            self._blocks = blocks
            self._tasks = tasks
        return list(self._blocks.values())

    def _derive_block(
        self, inst_id: str, inst: Instance, execs: list[tuple[str, ...]]
    ) -> TaskBlock:
        """Derive the tasks of one instance from scratch."""
        clk_ns, vdd = self.clk_ns, self.vdd
        tasks: list[TaskSpec] = []
        if inst.is_module:
            assert inst.module is not None
            for k, group in enumerate(execs):
                (node_id,) = group
                node = self.dfg.node(node_id)
                assert node.behavior is not None
                cprof = inst.module.profile(node.behavior).at(clk_ns, vdd)
                offsets = {
                    (node_id, port): off
                    for port, off in enumerate(cprof.input_offsets)
                }
                latencies = {
                    (node_id, port): lat
                    for port, lat in enumerate(cprof.output_latencies)
                }
                tasks.append(
                    TaskSpec(
                        f"{inst_id}#{k}",
                        (node_id,),
                        inst_id,
                        duration=cprof.busy_cycles,
                        input_offsets=offsets,
                        output_latency=latencies,
                    )
                )
        elif execs:
            assert inst.cell is not None
            # One timing lookup per instance: every task on a cell has
            # the cell's delay and initiation interval at this point.
            duration = inst.cell.delay_cycles(clk_ns, vdd)
            ii = inst.cell.initiation_interval(clk_ns, vdd)
            for k, group in enumerate(execs):
                tasks.append(
                    TaskSpec(
                        f"{inst_id}#{k}",
                        tuple(group),
                        inst_id,
                        duration=duration,
                        output_latency={(node, 0): duration for node in group},
                        initiation_interval=ii,
                    )
                )
        return TaskBlock(inst, list(execs), clk_ns, vdd, tasks)

    def tasks(self) -> list[TaskSpec]:
        """Derive scheduler tasks from the current binding (cached).

        The concatenation of the :meth:`task_blocks`' tasks: instances
        in insertion order, each instance's executions in binding order.
        """
        if self._tasks is None:
            self.task_blocks()
        return self._tasks

    def task(self, task_id: str) -> TaskSpec:
        """Look up a task by id (tasks are derived lazily)."""
        if self._task_index is None:
            self._task_index = {t.task_id: t for t in self.tasks()}
        return self._task_index[task_id]

    def schedule(self) -> ScheduleResult:
        """Schedule the current binding (cached)."""
        if self._schedule is None:
            self._schedule = schedule_tasks(self.dfg, self.tasks())
        return self._schedule

    def task_signature(self) -> tuple:
        """Hashable digest of everything the scheduler reads from tasks.

        Two solutions of the same DFG with equal signatures schedule
        identically: list scheduling is a deterministic function of the
        DFG and the task list, and the signature captures every
        :class:`~repro.scheduling.model.TaskSpec` field in task order.
        Register-binding moves (and cell swaps that keep the timing)
        have the same signature as the solution they were derived from,
        which is what lets the evaluation context share one schedule
        across them.  Not cached: the memo key (:meth:`schedule_key`)
        and the store address (:func:`repro.synthesis.costs.
        schedule_digest`) are composed from the blocks' cached parts.
        """
        rows: list[tuple] = []
        for block in self.task_blocks():
            rows.extend(block.signature_rows())
        return tuple(rows)

    def schedule_key(self) -> HashedKey:
        """Memoized schedule-sharing key: graph identity + task blocks.

        ``id(dfg)`` followed by the :meth:`TaskBlock.signature_key` of
        every block with tasks, in instance order.  Each of those blocks
        is a maximal run of one instance's rows in
        :meth:`task_signature`, so two keys are equal exactly when the
        graphs and the task signatures are.  Blocks a move left alone
        bring their hashed keys along through clones, so a key costs
        only the blocks the move re-derived; binding moves carry the
        whole key through clones like the signature itself.
        """
        if self._sched_key is None:
            keys = [b.signature_key() for b in self.task_blocks() if b.tasks]
            self._sched_key = HashedKey((id(self.dfg), *keys))
        return self._sched_key

    def adopt_schedule(self, sched: ScheduleResult) -> None:
        """Install a schedule computed for an identical task set.

        Only sound when the caller proved (via :meth:`task_signature`)
        that scheduling this solution would reproduce *sched* exactly —
        see :meth:`EvaluationContext.schedule_of
        <repro.synthesis.costs.EvaluationContext.schedule_of>`.
        """
        self._schedule = sched

    # ------------------------------------------------------------------
    # Register lifetimes / feasibility
    # ------------------------------------------------------------------
    def signal_lifetime(self, signal: Signal) -> tuple[int, int]:
        """Half-open [birth, death) interval of a registered signal.

        Memoized on the schedule object: the lifetime is fully
        determined by (DFG, tasks, schedule), and candidates sharing a
        schedule (register moves, equal-timing swaps) ask for the same
        signals over and over during conflict checking.
        """
        sched = self.schedule()
        cached = sched.lifetime_memo.get(signal)
        if cached is not None:
            return cached
        birth = sched.avail.get(signal, 0)
        death = birth
        src, src_port = signal
        for edge in self.dfg.out_edges(src):
            if edge.src_port != src_port:
                continue
            consumer = self.dfg.node(edge.dst)
            if consumer.kind == NodeKind.OUTPUT:
                death = max(death, sched.length)
                continue
            task_id = sched.task_of_node[edge.dst]
            task = self.task(task_id)
            read_at = sched.start[task_id] + task.offset_of(edge.dst, edge.dst_port)
            death = max(death, read_at)
        # A captured value occupies its register for at least one cycle
        # (written at the clock edge entering `birth`, readable during it).
        lifetime = (birth, max(death, birth + 1))
        sched.lifetime_memo[signal] = lifetime
        return lifetime

    def register_conflicts(self) -> list[str]:
        """Registers whose bound signals have overlapping lifetimes."""
        conflicts: list[str] = []
        for reg_id, signals in self.reg_signals.items():
            if len(signals) < 2:
                continue
            intervals = sorted(self.signal_lifetime(s) for s in signals)
            for (b1, d1), (b2, _d2) in zip(intervals, intervals[1:]):
                # A value may be replaced in the cycle it was last read.
                if b2 < d1:
                    conflicts.append(reg_id)
                    break
        return conflicts

    def schedule_feasible(self) -> bool:
        """True when the schedule fits within the cycle budget."""
        return self.schedule().length <= self.deadline_cycles

    def is_feasible(self) -> bool:
        """Throughput met and no register holds two live values at once."""
        return self.schedule_feasible() and not self.register_conflicts()

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify structural consistency (used by tests and after moves)."""
        bound: set[str] = set()
        for inst_id, execs in self.executions.items():
            inst = self.instance(inst_id)
            for group in execs:
                for node_id in group:
                    if node_id in bound:
                        raise SynthesisError(f"node {node_id!r} bound twice")
                    bound.add(node_id)
                    node = self.dfg.node(node_id)
                    if inst.is_module:
                        if node.kind != NodeKind.HIER:
                            raise SynthesisError(
                                f"simple node {node_id!r} on module instance"
                            )
                        assert inst.module is not None
                        if not inst.module.supports(node.behavior or ""):
                            raise SynthesisError(
                                f"module {inst.module.name!r} cannot run behavior "
                                f"{node.behavior!r}"
                            )
                    else:
                        assert inst.cell is not None
                        if node.kind != NodeKind.OP:
                            raise SynthesisError(
                                f"hier node {node_id!r} on simple instance"
                            )
                        assert node.op is not None
                        if not inst.cell.supports(node.op):
                            raise SynthesisError(
                                f"cell {inst.cell.name!r} cannot run {node.op}"
                            )
                if len(group) > 1:
                    if inst.is_module or inst.cell is None:
                        raise SynthesisError("chained execution on module instance")
                    if len(group) > inst.cell.chain_length:
                        raise SynthesisError(
                            f"chain of {len(group)} on cell with chain length "
                            f"{inst.cell.chain_length}"
                        )
        for node in self.dfg.operation_nodes():
            if node.node_id not in bound:
                raise SynthesisError(f"operation {node.node_id!r} unbound")

        registered = set(self.registered_signals())
        seen: set[Signal] = set()
        for reg_id, signals in self.reg_signals.items():
            if not signals:
                raise SynthesisError(f"register {reg_id!r} holds no signal")
            for signal in signals:
                if signal in seen:
                    raise SynthesisError(f"signal {signal!r} bound to two registers")
                seen.add(signal)
        if seen != registered:
            missing = registered - seen
            extra = seen - registered
            raise SynthesisError(
                f"register binding mismatch: missing={sorted(missing)}, "
                f"extra={sorted(extra)}"
            )

    # ------------------------------------------------------------------
    def clone(self, carry_timing: bool = False) -> "Solution":
        """Cheap structural copy (instances/modules are shared, bindings copied).

        The clone shares this solution's task and netlist blocks: its
        first :meth:`task_blocks` (or
        :func:`~repro.synthesis.datapath_build.build_netlist`) call
        reuses every block whose key still matches and re-derives the
        rest, so the established idiom of
        cloning and then assigning a new operating point directly stays
        correct.  ``carry_timing=True`` additionally shares the cached
        task list, schedule key and schedule.  Only sound when the
        caller will touch nothing but the register binding (whose
        mutators preserve those caches — see
        :meth:`_invalidate_binding`).
        """
        other = Solution(
            self.dfg, self.library, self.clk_ns, self.vdd, self.sampling_ns
        )
        other.instances = dict(self.instances)
        other.executions = {k: list(v) for k, v in self.executions.items()}
        other.reg_signals = {k: list(v) for k, v in self.reg_signals.items()}
        other._counter = self._counter
        other._blocks = self._blocks
        other._netlist = self._netlist
        if carry_timing:
            other._tasks = self._tasks
            other._task_index = self._task_index
            other._sched_key = self._sched_key
            other._schedule = self._schedule
        return other

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        n_fu = sum(1 for i in self.instances.values() if not i.is_module)
        n_mod = len(self.instances) - n_fu
        return (
            f"Solution({self.dfg.name!r}, {n_fu} FU instances, {n_mod} module "
            f"instances, {len(self.reg_signals)} registers, clk={self.clk_ns}ns, "
            f"vdd={self.vdd}V)"
        )
