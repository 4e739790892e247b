"""Complex RTL modules.

An RTL module implements one or more *behaviors* (after RTL embedding,
"multiple hierarchical nodes can map to the same RTL module", and the
merged module supports several anisomorphic DFGs).  Each supported
behavior carries:

* a :class:`~repro.rtl.profile.Profile` — the module's timing contract
  for that behavior, and
* an effective internal switched capacitance ``cap_internal`` — total
  capacitance the module switches per execution, normalized so that the
  energy of one execution is ``cap_internal * (IDLE_FRACTION + a) *
  Vdd²`` where *a* is the activity of the module's *input* streams.
  Characterization (in :mod:`repro.synthesis.characterize_module`)
  measures internal activities under a reference stimulus and folds
  them into this single coefficient; at use time, sharing the module
  among several hierarchical nodes raises the input activity (stream
  interleaving) and therefore the estimated energy — the same
  first-order effect the paper's trace-driven estimator captures.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import LibraryError
from ..library.cells import IDLE_FRACTION
from ..library.voltage import energy_scale
from .components import DatapathNetlist
from .profile import Profile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..library.library import ModuleLibrary

__all__ = ["BehaviorImpl", "RTLModule"]


@dataclass(frozen=True)
class BehaviorImpl:
    """How one behavior runs on a module: timing plus energy coefficient."""

    profile: Profile
    cap_internal: float


class RTLModule:
    """A complex RTL module (library element or synthesis product).

    Parameters
    ----------
    name:
        Module type name (instances reference this).
    behavior:
        Primary behavior implemented.
    profile / cap_internal:
        Timing and energy characterization for the primary behavior.
    netlist:
        Structural content (functional units, registers, wires); used
        for area evaluation and RTL embedding.
    resynthesizable:
        Whether move B may descend into this module.  Library modules
        "whose internal descriptions are not available or cannot be
        altered are not resynthesized" (Section 1).
    internal:
        Opaque handle to the synthesis-side record (sub-solution) that
        produced the module; present iff resynthesizable.
    """

    def __init__(
        self,
        name: str,
        behavior: str,
        profile: Profile,
        cap_internal: float,
        netlist: DatapathNetlist,
        resynthesizable: bool = False,
        internal: object | None = None,
    ):
        self.name = name
        self.behavior = behavior
        self.netlist = netlist
        self.resynthesizable = resynthesizable
        self.internal = internal
        self._impls: dict[str, BehaviorImpl] = {
            behavior: BehaviorImpl(profile, cap_internal)
        }

    # ------------------------------------------------------------------
    def add_behavior(self, behavior: str, profile: Profile, cap_internal: float) -> None:
        """Register an additional behavior (result of RTL embedding)."""
        self._impls[behavior] = BehaviorImpl(profile, cap_internal)

    def supports(self, behavior: str) -> bool:
        """True when the module implements *behavior*."""
        return behavior in self._impls

    def behaviors(self) -> list[str]:
        """Implemented behaviors, the primary one first."""
        return list(self._impls)

    def impl(self, behavior: str) -> BehaviorImpl:
        """Timing and energy of one behavior (LibraryError if unsupported)."""
        try:
            return self._impls[behavior]
        except KeyError:
            raise LibraryError(
                f"module {self.name!r} does not implement behavior {behavior!r}"
            ) from None

    def profile(self, behavior: str | None = None) -> Profile:
        """Timing profile of *behavior* (default: the primary behavior)."""
        return self.impl(behavior or self.behavior).profile

    def cap_internal(self, behavior: str | None = None) -> float:
        """Switched-capacitance coefficient of *behavior* (default: primary)."""
        return self.impl(behavior or self.behavior).cap_internal

    # ------------------------------------------------------------------
    def area(self, library: "ModuleLibrary") -> float:
        """Module area from its structural netlist."""
        return self.netlist.area(library)

    def energy_per_exec(
        self, vdd: float, input_activity: float, behavior: str | None = None
    ) -> float:
        """Energy of one execution of *behavior* at the given activity."""
        activity = min(max(input_activity, 0.0), 1.0)
        cap = self.cap_internal(behavior)
        return cap * (IDLE_FRACTION + activity) * energy_scale(vdd) * 25.0

    def __setstate__(self, state: dict) -> None:
        """Restore a pickled module.

        Blobs stored by earlier releases may carry the synthesis store's
        content-signature memo (``_store_content_sig``), which is now
        held outside the module; it is dropped, so a loaded module
        pickles again to the bytes of one that never carried it.  The
        names are interned, as the default restore does, since pickling
        memoizes strings by identity.
        """
        state.pop("_store_content_sig", None)
        self.__dict__.update((sys.intern(k), v) for k, v in state.items())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RTLModule({self.name!r}, behaviors={self.behaviors()}, "
            f"{len(self.netlist.components())} components)"
        )
