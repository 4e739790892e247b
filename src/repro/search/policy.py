"""The search-policy interface and the built-in policy family.

A :class:`SearchPolicy` owns every discretionary decision of the
variable-depth improvement driver (:func:`repro.synthesis.improve.
improve_solution`):

* **candidate-family ordering** — which move families (type-A/B,
  sharing, splitting) are discovered each step, and in what order
  (order also breaks exact cost ties: the earlier family wins);
* **within-step ranking** — reordering or truncating a family's
  candidate list before pricing;
* **seeding** — inspecting (or replacing) each operating point's
  starting solution before the first pass;
* **early termination** — cutting a pass short before a step's chosen
  move is applied.

:class:`DefaultPolicy` implements every hook as the identity, which
makes the driver reproduce the paper's fixed scheme **byte-identically**
(same traces, same telemetry) — the refactor seam is covered by golden
trace tests.  The biased policies below trade that fidelity for
different exploration profiles.

Policies are resolved by name through :func:`make_policy` (the
``SynthesisConfig.search_policy`` knob); third parties register their
own with :func:`register_policy`.  Policy modules must not import
:mod:`repro.synthesis` at module level — the synthesis package imports
this one while initializing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..synthesis.context import SynthesisEnv
    from ..synthesis.costs import EvaluationContext
    from ..synthesis.improve import ScoredMove
    from ..synthesis.moves import Candidate
    from ..synthesis.solution import Solution

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


def make_policy(
    name: str, params: dict[str, Any] | None = None
) -> "SearchPolicy":
    """Instantiate the policy registered under *name*.

    *params* is the policy's keyword configuration
    (``SynthesisConfig.policy_params``); unknown names raise
    ``ValueError`` listing the registry.
    """
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ValueError(
            f"unknown search policy {name!r}; available: "
            f"{', '.join(available_policies())}"
        )
    return cls(params)


class SearchPolicy:
    """Base search policy: every hook defaults to the paper's scheme.

    One instance is created per :class:`~repro.synthesis.context.
    SynthesisEnv` and bound to it (:meth:`bind`); the driver calls the
    hooks below at fixed seams.  The default implementations are exact
    no-ops — a driver running them is byte-identical to the
    pre-policy monolith — so subclasses override only the decisions
    they want to bias.
    """

    #: Registry name (set by :func:`register_policy`).
    name = "base"

    def __init__(self, params: dict[str, Any] | None = None):
        self.params: dict[str, Any] = dict(params or {})
        self.env: "SynthesisEnv | None" = None

    def bind(self, env: "SynthesisEnv") -> "SearchPolicy":
        """Attach the run environment; returns self for chaining."""
        self.env = env
        return self

    # -- budgets and family plan --------------------------------------
    def budgets(self, max_passes: int, max_moves: int) -> tuple[int, int]:
        """Final (passes, moves-per-pass) budget for one point."""
        return max_passes, max_moves

    def family_order(self) -> tuple[str, ...]:
        """Move families discovered each step, in tie-break order.

        Members of ``("ab", "share", "split")``.  When ``"split"`` is
        absent, splitting is discovered lazily via :meth:`try_split`
        (the paper's fallback rule).
        """
        return ("ab", "share")

    # -- seeding --------------------------------------------------------
    def seed_solution(
        self, ctx: "EvaluationContext", solution: "Solution", cost: float
    ) -> tuple["Solution", float]:
        """Optionally replace the point's starting solution.

        Called once per operating point with the priced starting
        solution; returns the ``(solution, cost)`` pair the first pass
        starts from.  The default passes the input through untouched.
        """
        return solution, cost

    # -- within-step decisions ----------------------------------------
    def rank_candidates(
        self,
        family: str,
        candidates: "Sequence[Candidate]",
        pass_idx: int,
        step_idx: int,
    ) -> "Sequence[Candidate]":
        """Reorder/truncate one family's candidates before pricing.

        Order only matters for *which* candidates survive truncation —
        the pricer resolves ties by the deterministic candidate order
        key, not list position.
        """
        return candidates

    def try_split(
        self, best_share: "ScoredMove | None", work_cost: float
    ) -> bool:
        """Whether to fall back to splitting candidates this step.

        Only consulted when ``"split"`` is not in :meth:`family_order`.
        The default is the paper's rule: split when no sharing move
        exists or the best one has negative gain.
        """
        return best_share is None or (work_cost - best_share.cost_after) < 0

    # -- early termination --------------------------------------------
    def stop_step(
        self, chosen: "ScoredMove", work_cost: float, step_idx: int
    ) -> bool:
        """Cut the pass short *before* applying the chosen move."""
        return False


@register_policy("default")
class DefaultPolicy(SearchPolicy):
    """The paper's fixed scheme — byte-identical to the pre-policy driver."""


@register_policy("share-first")
class ShareFirstPolicy(SearchPolicy):
    """Prefer resource sharing: it wins exact cost ties over type A/B.

    Useful late in a power run, where sharing consolidates modules the
    type-A/B moves keep re-churning.
    """

    def family_order(self) -> tuple[str, ...]:
        """Discover sharing before the type A/B moves."""
        return ("share", "ab")


@register_policy("split-eager")
class SplitEagerPolicy(SearchPolicy):
    """Always discover splitting, as a first-class family each step.

    The paper only prices splits when sharing fails; pricing them
    unconditionally lets a split win any step it is genuinely cheapest,
    at extra evaluation cost.
    """

    def family_order(self) -> tuple[str, ...]:
        """Price splitting unconditionally, after A/B and sharing."""
        return ("ab", "share", "split")


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
