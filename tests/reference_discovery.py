"""Per-pair discovery loops: the test reference for the relational engine.

These are the move generators' solution-bounded families as they were
before :mod:`repro.synthesis.relational` discovered them with batched
joins: plain Python loops over instances and registers that clone every
candidate eagerly.  :class:`ReferenceView` wraps them behind
:class:`~repro.synthesis.relational.RelationalView`'s five query
methods, so a test passes it to a generator as ``view=`` or patches it
over ``repro.synthesis.improve.RelationalView`` for an end-to-end run.
For every family the two views must emit the same candidate multiset
(``(kind, touched, description)`` triples, hence equal fingerprints),
which is what keeps search trajectories and traces byte-identical.
"""

from __future__ import annotations

from repro.dfg.ops import Operation
from repro.library.cells import LibraryCell
from repro.synthesis.context import SynthesisEnv
from repro.synthesis.moves import Candidate, register_lifetimes
from repro.synthesis.solution import Solution


def _ops_of_instance(solution: Solution, inst_id: str) -> set[Operation]:
    ops: set[Operation] = set()
    for group in solution.executions[inst_id]:
        for node_id in group:
            node = solution.dfg.node(node_id)
            if node.op is not None:
                ops.add(node.op)
    return ops


def _max_chain(solution: Solution, inst_id: str) -> int:
    execs = solution.executions[inst_id]
    return max((len(g) for g in execs), default=1)


def _cell_fits(cell: LibraryCell, ops: set[Operation], chain: int) -> bool:
    return all(cell.supports(op) for op in ops) and cell.chain_length >= chain


def _unlocked_simple(solution: Solution, locked: frozenset[str]) -> list[str]:
    return [
        inst_id
        for inst_id, inst in solution.instances.items()
        if not inst.is_module
        and inst_id not in locked
        and solution.executions[inst_id]
    ]


class ReferenceView:
    """Eager per-pair discovery over one solution, one KL step.

    Same constructor and query methods as
    :class:`~repro.synthesis.relational.RelationalView`; every candidate
    it returns already carries its mutated clone.
    """

    def __init__(
        self, env: SynthesisEnv, solution: Solution, locked: frozenset[str]
    ):
        self._env = env
        self._solution = solution
        self._locked = locked

    def cell_replacements(self, targets: list[str]) -> list[Candidate]:
        """``A-cell``: every other library cell that fits each target."""
        out: list[Candidate] = []
        for inst_id in targets:
            out.extend(self._cell_replacements(inst_id))
        return out

    def _cell_replacements(self, inst_id: str) -> list[Candidate]:
        solution = self._solution
        inst = solution.instances[inst_id]
        assert inst.cell is not None
        ops = _ops_of_instance(solution, inst_id)
        chain = _max_chain(solution, inst_id)
        out: list[Candidate] = []
        for cell in self._env.library.cells():
            if cell.name == inst.cell.name:
                continue
            if not _cell_fits(cell, ops, chain):
                continue
            clone = solution.clone()
            clone.set_cell(inst_id, cell)
            out.append(
                Candidate(
                    kind="A-cell",
                    description=f"{inst_id}: {inst.cell.name} -> {cell.name}",
                    solution=clone,
                    touched=frozenset({inst_id}),
                    replacement_cell=cell,
                )
            )
        return out

    def fu_sharing(self) -> list[Candidate]:
        """``C-share-fu``: mergeable FU pairs, largest saved area first."""
        env, solution = self._env, self._solution
        simple = _unlocked_simple(solution, self._locked)
        pairs: list[tuple[float, str, str, LibraryCell]] = []
        for i, a in enumerate(simple):
            for b in simple[i + 1 :]:
                ops = _ops_of_instance(solution, a) | _ops_of_instance(solution, b)
                chain = max(_max_chain(solution, a), _max_chain(solution, b))
                cell_a = solution.instances[a].cell
                cell_b = solution.instances[b].cell
                assert cell_a is not None and cell_b is not None
                target: LibraryCell | None = None
                if _cell_fits(cell_a, ops, chain):
                    target = cell_a
                elif _cell_fits(cell_b, ops, chain):
                    target = cell_b
                else:
                    fits = [
                        c for c in env.library.cells() if _cell_fits(c, ops, chain)
                    ]
                    if fits:
                        target = min(fits, key=lambda c: c.area)
                if target is None:
                    continue
                saved = min(cell_a.area, cell_b.area)
                pairs.append((saved, a, b, target))
        pairs.sort(key=lambda p: -p[0])

        out: list[Candidate] = []
        for _saved, a, b, target in pairs[: env.config.max_share_pairs]:
            clone = solution.clone()
            if clone.instances[a].cell.name != target.name:  # type: ignore[union-attr]
                clone.set_cell(a, target)
            clone.merge_instances(a, b)
            out.append(
                Candidate(
                    kind="C-share-fu",
                    description=f"share: {b} -> {a} ({target.name})",
                    solution=clone,
                    touched=frozenset({a, b}),
                )
            )
        return out

    def register_sharing(self) -> list[Candidate]:
        """``C-share-reg``: disjoint register pairs in left-edge order."""
        solution = self._solution
        regs = [r for r in solution.reg_signals if r not in self._locked]
        lifetimes = register_lifetimes(solution, regs)

        def disjoint(a: str, b: str) -> bool:
            merged = sorted(lifetimes[a] + lifetimes[b])
            return all(
                b2 >= d1 for (_b1, d1), (b2, _d2) in zip(merged, merged[1:])
            )

        # Early-dying registers pair first; every pair is enumerated in
        # that order up to the family cap.
        regs.sort(key=lambda r: lifetimes[r][-1][1])
        cap = self._env.config.max_share_pairs // 2
        out: list[Candidate] = []
        for i, a in enumerate(regs):
            for b in regs[i + 1 :]:
                if len(out) >= cap:
                    return out
                if not disjoint(a, b):
                    continue
                # Register moves leave tasks and schedule untouched.
                clone = solution.clone(carry_timing=True)
                clone.merge_registers(a, b)
                out.append(
                    Candidate(
                        kind="C-share-reg",
                        description=f"share registers: {b} -> {a}",
                        solution=clone,
                        touched=frozenset({a, b}),
                    )
                )
        return out

    def fu_splits(self) -> list[Candidate]:
        """``D-split-fu``: the busiest shared instances, halved."""
        solution = self._solution
        shared = [
            inst_id
            for inst_id in solution.instances
            if inst_id not in self._locked and len(solution.executions[inst_id]) >= 2
        ]
        shared.sort(key=lambda i: -len(solution.executions[i]))
        out: list[Candidate] = []
        for inst_id in shared[: self._env.config.max_split_candidates]:
            execs = solution.executions[inst_id]
            half = max(1, len(execs) // 2)
            moved = execs[half:]
            clone = solution.clone()
            twin = clone.split_instance(inst_id, list(moved))
            out.append(
                Candidate(
                    kind="D-split-fu",
                    description=f"split {inst_id} ({len(execs)} execs) -> {twin}",
                    solution=clone,
                    touched=frozenset({inst_id, twin}),
                )
            )
        return out

    def register_splits(self) -> list[Candidate]:
        """``D-split-reg``: shared registers in binding order, halved."""
        solution = self._solution
        shared_regs = [
            reg_id
            for reg_id, signals in solution.reg_signals.items()
            if reg_id not in self._locked and len(signals) >= 2
        ]
        out: list[Candidate] = []
        for reg_id in shared_regs[: self._env.config.max_split_candidates // 2]:
            signals = solution.reg_signals[reg_id]
            moved = signals[len(signals) // 2 :]
            clone = solution.clone(carry_timing=True)
            twin = clone.split_register(reg_id, list(moved))
            out.append(
                Candidate(
                    kind="D-split-reg",
                    description=f"split register {reg_id} -> {twin}",
                    solution=clone,
                    touched=frozenset({reg_id, twin}),
                )
            )
        return out
