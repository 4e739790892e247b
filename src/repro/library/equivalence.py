"""Functional-equivalence knowledge for behaviors.

Move A may swap the DFG implementing a hierarchical node for a
*functionally equivalent but structurally different* (anisomorphic) DFG
— "knowledge provided by the user regarding the functional equivalence
of different DFGs" (Section 3).  Two mechanisms carry this knowledge:

1. DFG variants registered under the same behavior name in a
   :class:`~repro.dfg.hierarchy.Design` are equivalent by construction.
2. This registry lets a user additionally declare that two *behavior
   names* are interchangeable (e.g. ``dot3_chain`` ≡ ``dot3_tree``),
   grouping them into one equivalence class.
"""

from __future__ import annotations

__all__ = ["EquivalenceRegistry"]


class EquivalenceRegistry:
    """Union-find over behavior names.

    Only :meth:`declare_equivalent` registers behaviors.  Lookups of a
    behavior never declared answer its singleton class and leave the
    registry as it was, so the library signature, which digests the
    registered classes, does not depend on which behaviors were asked
    about before it was taken.
    """

    def __init__(self) -> None:
        self._parent: dict[str, str] = {}

    def _find(self, behavior: str) -> str:
        parent = self._parent
        root = behavior
        while parent.get(root, root) != root:
            root = parent[root]
        # Path compression (a no-op for an unregistered behavior).
        while parent.get(behavior, behavior) != root:
            parent[behavior], behavior = root, parent[behavior]
        return root

    def declare_equivalent(self, behavior_a: str, behavior_b: str) -> None:
        """Record that two behaviors are functionally interchangeable."""
        self._parent.setdefault(behavior_a, behavior_a)
        self._parent.setdefault(behavior_b, behavior_b)
        root_a, root_b = self._find(behavior_a), self._find(behavior_b)
        if root_a != root_b:
            self._parent[root_b] = root_a

    def are_equivalent(self, behavior_a: str, behavior_b: str) -> bool:
        """True if the behaviors are in the same equivalence class."""
        if behavior_a == behavior_b:
            return True
        return self._find(behavior_a) == self._find(behavior_b)

    def equivalence_class(self, behavior: str) -> set[str]:
        """All behaviors known to be equivalent to *behavior*, itself
        included."""
        root = self._find(behavior)
        return {behavior} | {b for b in self._parent if self._find(b) == root}

    def known_behaviors(self) -> set[str]:
        """The behaviors named in some declared equivalence."""
        return set(self._parent)
