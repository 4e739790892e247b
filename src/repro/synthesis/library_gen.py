"""Populating the complex-module library from a design's behaviors.

The paper's library contains pre-characterized complex RTL modules
(Figure 2: C1..C5) that hierarchical synthesis draws on via move A.
This module builds such a library automatically: every behavior of a
design is synthesized standalone under a couple of (objective, laxity)
corners and the results are characterized and registered.  This is the
"offline" library-preparation step; the synthesis-time comparisons of
Tables 3/4 do not include it, just as the paper's CPU times do not
include building its module library.
"""

from __future__ import annotations

from ..dfg.hierarchy import Design
from ..library.library import ModuleLibrary, default_library
from ..telemetry import Telemetry
from .api import synthesize
from .context import SynthesisConfig
from .costs import Objective
from .modulegen import characterize_module

__all__ = ["build_complex_library"]


def build_complex_library(
    design: Design,
    library: ModuleLibrary | None = None,
    objectives: tuple[Objective, ...] = ("area", "power"),
    laxity_factors: tuple[float, ...] = (1.2, 2.4),
    config: SynthesisConfig | None = None,
    n_samples: int = 48,
    telemetry: Telemetry | None = None,
) -> ModuleLibrary:
    """Synthesize and register complex modules for every sub-behavior.

    Each DFG *variant* of each non-top behavior is synthesized once per
    (objective, laxity factor) corner; the corners give the library the
    spread the paper's Figure 2 shows (fast/parallel modules next to
    compact shared ones and low-power slow ones).  *telemetry*, when
    given, receives the store counters of every nested run
    (:meth:`~repro.telemetry.Telemetry.merge_store`).
    """
    library = library if library is not None else default_library()
    config = config or SynthesisConfig()
    top_behavior = design.top.behavior

    for behavior in design.behaviors():
        if behavior == top_behavior:
            continue
        for variant in design.variants(behavior):
            wrapper = Design(f"lib_{variant.name}")
            for dfg in design.dfgs():
                if dfg.name != design.top_name:
                    wrapper.add_dfg(dfg)
            wrapper.set_top(variant.name)
            for laxity in laxity_factors:
                for objective in objectives:
                    result = synthesize(
                        wrapper,
                        library,
                        laxity_factor=laxity,
                        objective=objective,
                        config=config,
                        n_samples=n_samples,
                    )
                    if telemetry is not None:
                        telemetry.merge_store(result.telemetry)
                    module = characterize_module(
                        f"{variant.name}_{objective}_lf{laxity:g}",
                        behavior,
                        result.solution,
                        result.sim,
                        (),
                    )
                    library.add_complex_module(module)
    return library
