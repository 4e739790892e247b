"""Hierarchical designs: collections of DFGs with a designated top level.

The paper's input is "a hierarchical DFG (arbitrarily deep hierarchies
are allowed)".  A :class:`Design` bundles

* a set of named DFGs,
* a *behavior index* that groups functionally equivalent DFG variants
  under one behavior name (the "user-supplied knowledge regarding the
  functional equivalence of different DFGs" that move A exploits), and
* the name of the top-level DFG.

Hierarchical nodes refer to behaviors, never to concrete DFGs: which
variant implements which node is a synthesis decision.
"""

from __future__ import annotations

from typing import Iterator

from ..errors import DFGError
from .graph import DFG, Node, NodeKind

__all__ = ["Design"]


class Design:
    """A hierarchical behavioral description."""

    def __init__(self, name: str, top: str | None = None):
        self.name = name
        self._dfgs: dict[str, DFG] = {}
        self._by_behavior: dict[str, list[str]] = {}
        self._top: str | None = top

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_dfg(self, dfg: DFG, top: bool = False) -> DFG:
        """Register a DFG; optionally mark it as the top level."""
        if dfg.name in self._dfgs:
            raise DFGError(f"duplicate DFG name {dfg.name!r} in design {self.name!r}")
        self._dfgs[dfg.name] = dfg
        self._by_behavior.setdefault(dfg.behavior, []).append(dfg.name)
        if top:
            self._top = dfg.name
        return dfg

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def top(self) -> DFG:
        """The top-level DFG."""
        if self._top is None:
            raise DFGError(f"design {self.name!r} has no top-level DFG")
        return self._dfgs[self._top]

    @property
    def top_name(self) -> str:
        """Name of the top-level DFG."""
        if self._top is None:
            raise DFGError(f"design {self.name!r} has no top-level DFG")
        return self._top

    def set_top(self, name: str) -> None:
        """Make the registered DFG *name* the top level."""
        if name not in self._dfgs:
            raise DFGError(f"unknown DFG {name!r}")
        self._top = name

    def dfg(self, name: str) -> DFG:
        """Look up a DFG by name."""
        try:
            return self._dfgs[name]
        except KeyError:
            raise DFGError(f"unknown DFG {name!r} in design {self.name!r}") from None

    def dfgs(self) -> Iterator[DFG]:
        """Iterate over every registered DFG, in registration order."""
        return iter(self._dfgs.values())

    def dfg_names(self) -> list[str]:
        """Names of every registered DFG, in registration order."""
        return list(self._dfgs)

    def has_behavior(self, behavior: str) -> bool:
        """True when some registered DFG implements *behavior*."""
        return behavior in self._by_behavior

    def variants(self, behavior: str) -> list[DFG]:
        """All functionally equivalent DFG variants of *behavior*.

        Move A picks among these the variant best suited to the
        hierarchical node's environment.
        """
        names = self._by_behavior.get(behavior)
        if not names:
            raise DFGError(
                f"no DFG implements behavior {behavior!r} in design {self.name!r}"
            )
        return [self._dfgs[n] for n in names]

    def default_variant(self, behavior: str) -> DFG:
        """The first registered variant of *behavior* (the designer's default)."""
        return self.variants(behavior)[0]

    def behaviors(self) -> list[str]:
        """Every behavior some registered DFG implements."""
        return list(self._by_behavior)

    # ------------------------------------------------------------------
    # Structure checks / metrics
    # ------------------------------------------------------------------
    def check_hierarchy(self) -> None:
        """Verify that every hierarchical node resolves to a known behavior
        with matching port counts, and that the hierarchy is non-recursive.
        """
        for dfg in self._dfgs.values():
            for node in dfg.hier_nodes():
                assert node.behavior is not None
                variants = self.variants(node.behavior)
                for variant in variants:
                    if len(variant.inputs) != node.n_inputs:
                        raise DFGError(
                            f"hier node {node.node_id!r} in {dfg.name!r} has "
                            f"{node.n_inputs} inputs but variant {variant.name!r} "
                            f"has {len(variant.inputs)}"
                        )
                    if len(variant.outputs) != node.n_outputs:
                        raise DFGError(
                            f"hier node {node.node_id!r} in {dfg.name!r} has "
                            f"{node.n_outputs} outputs but variant {variant.name!r} "
                            f"has {len(variant.outputs)}"
                        )
        self._check_acyclic_hierarchy()

    def _check_acyclic_hierarchy(self) -> None:
        """Detect recursive behaviors (a behavior containing itself)."""

        def behaviors_used(dfg: DFG) -> set[str]:
            return {n.behavior for n in dfg.hier_nodes() if n.behavior}

        visiting: set[str] = set()
        done: set[str] = set()

        def visit(behavior: str) -> None:
            if behavior in done:
                return
            if behavior in visiting:
                raise DFGError(f"recursive hierarchy through behavior {behavior!r}")
            visiting.add(behavior)
            for name in self._by_behavior.get(behavior, []):
                for used in behaviors_used(self._dfgs[name]):
                    visit(used)
            visiting.discard(behavior)
            done.add(behavior)

        for behavior in self._by_behavior:
            visit(behavior)

    def depth(self) -> int:
        """Depth of the hierarchy (1 = flat top level)."""

        cache: dict[str, int] = {}

        def dfg_depth(dfg: DFG) -> int:
            if dfg.name in cache:
                return cache[dfg.name]
            sub = 0
            for node in dfg.hier_nodes():
                assert node.behavior is not None
                sub = max(
                    sub,
                    max(dfg_depth(v) for v in self.variants(node.behavior)),
                )
            cache[dfg.name] = 1 + sub
            return cache[dfg.name]

        return dfg_depth(self.top)

    def total_operations(self) -> int:
        """Number of simple operations in the fully expanded (flattened)
        top level, expanding each hierarchical node with its default
        variant.  A size metric used in reports.
        """

        cache: dict[str, int] = {}

        def count(dfg: DFG) -> int:
            if dfg.name in cache:
                return cache[dfg.name]
            total = len(dfg.op_nodes())
            for node in dfg.hier_nodes():
                assert node.behavior is not None
                total += count(self.default_variant(node.behavior))
            cache[dfg.name] = total
            return total

        return count(self.top)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Design({self.name!r}, {len(self._dfgs)} DFGs, "
            f"top={self._top!r})"
        )
