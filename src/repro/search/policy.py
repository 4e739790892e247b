"""The search-policy interface and the built-in policy family.

The variable-depth improvement driver (:func:`repro.synthesis.improve.
improve_solution`) runs the paper's fixed family order every step —
type-A/B, then sharing, splitting only when no sharing move has
non-negative gain — and consults a :class:`SearchPolicy` at three
seams:

* **budgets** — the pass and step budget of each operating point;
* **within-step ranking** — reordering or truncating a family's
  candidate list before pricing;
* **early termination** — cutting a pass short before a step's chosen
  move is applied.

:class:`DefaultPolicy` implements every hook as the identity, which
makes the driver reproduce the paper's scheme **byte-identically**
(same traces, same telemetry) — the seam is covered by golden trace
tests.  ``deep`` and ``greedy`` bias the search; each won a measured
race against the default (``docs/SEARCH.md``).

Policies are resolved by name through :func:`make_policy` (the
``SynthesisConfig.search_policy`` knob); third parties register their
own with :func:`register_policy`.  Policy modules must not import
:mod:`repro.synthesis` at module level — the synthesis package imports
this one while initializing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..synthesis.improve import ScoredMove
    from ..synthesis.moves import Candidate

__all__ = [
    "DefaultPolicy",
    "SearchPolicy",
    "available_policies",
    "make_policy",
    "register_policy",
]

#: name → policy class; populated by :func:`register_policy`.
_REGISTRY: dict[str, type] = {}


def register_policy(name: str):
    """Class decorator registering a :class:`SearchPolicy` under *name*."""

    def deco(cls: type) -> type:
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return deco


def available_policies() -> tuple[str, ...]:
    """Sorted names of every registered search policy."""
    return tuple(sorted(_REGISTRY))


def make_policy(name: str) -> "SearchPolicy":
    """Instantiate the policy registered under *name*.

    Unknown names raise ``ValueError`` listing the registry.
    """
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ValueError(
            f"unknown search policy {name!r}; available: "
            f"{', '.join(available_policies())}"
        )
    return cls()


class SearchPolicy:
    """Base search policy: every hook defaults to the paper's scheme.

    One instance is created per :class:`~repro.synthesis.context.
    SynthesisEnv`; the driver calls the hooks below at fixed seams.  The
    default implementations are exact no-ops, so subclasses override
    only the decisions they want to bias.
    """

    #: Registry name (set by :func:`register_policy`).
    name = "base"

    def budgets(self, max_passes: int, max_moves: int) -> tuple[int, int]:
        """Final (passes, moves-per-pass) budget for one point."""
        return max_passes, max_moves

    def rank_candidates(
        self,
        family: str,
        candidates: "Sequence[Candidate]",
        pass_idx: int,
        step_idx: int,
    ) -> "Sequence[Candidate]":
        """Reorder/truncate one family's candidates before pricing.

        *family* is one of ``"ab"``, ``"share"`` and ``"split"``.  Order
        only matters for *which* candidates survive truncation — the
        pricer resolves ties by the deterministic candidate order key,
        not list position.
        """
        return candidates

    def stop_step(
        self, chosen: "ScoredMove", work_cost: float, step_idx: int
    ) -> bool:
        """Cut the pass short *before* applying the chosen move."""
        return False


@register_policy("default")
class DefaultPolicy(SearchPolicy):
    """The paper's fixed scheme — byte-identical to the pre-policy driver."""


@register_policy("deep")
class DeepPolicy(SearchPolicy):
    """Narrow-but-deep: halve each family's candidate list, double passes.

    Spends the evaluation budget on longer move sequences instead of
    wide per-step scans — the profile that pays off when improvements
    hide behind multi-move plateaus.
    """

    def budgets(self, max_passes: int, max_moves: int) -> tuple[int, int]:
        """Double the pass budget; step budget unchanged."""
        return 2 * max_passes, max_moves

    def rank_candidates(self, family, candidates, pass_idx, step_idx):
        """Truncate long candidate lists to their first half (min 4)."""
        if len(candidates) <= 4:
            return candidates
        return candidates[: max(4, len(candidates) // 2)]


@register_policy("greedy")
class GreedyPolicy(SearchPolicy):
    """Pure hill climbing: never apply a negative-gain move.

    Stops each pass at the first non-improving chosen move, so every
    applied prefix commits; passes are doubled since each one is much
    shorter.  The cheapest policy per pass — and the one the classic KL
    argument says gets stuck first.
    """

    def budgets(self, max_passes: int, max_moves: int) -> tuple[int, int]:
        """Double the pass budget; each greedy pass is short."""
        return 2 * max_passes, max_moves

    def stop_step(self, chosen, work_cost, step_idx) -> bool:
        """Stop the pass when the best move no longer improves."""
        return chosen.cost_after >= work_cost
