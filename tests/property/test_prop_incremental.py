"""Property test: delta-priced cost == full cost for EVERY candidate.

Reuses the move fuzzer's random-design generator (``benchmarks/
fuzz_moves.py``) so the incremental evaluator faces the same design
distribution the differential RTL oracle is hammered with: random
hierarchies, both objectives, every move family.  For each round seed
the test prices every generated candidate twice — once by delta against
the current solution's breakdown, once from scratch — and requires the
two :class:`~repro.synthesis.costs.Metrics` to be *equal*, not close.

Also checks the pruning lower bound (`_min_schedule_length` must never
exceed the real schedule length) and that pruning never changes the
winner `_best` picks.

Hierarchical rounds add a generated complex-module library, so module
swaps (``A-module``, ``A-remerge``) are priced by delta too.

Both kinds of round also compare breakdowns, not only metrics: every
delta-priced candidate's breakdown must list the same resources in the
same order as its from-scratch breakdown, with equal keys, activities
and energies (addends, for modules), and some entries must have been
carried over from the base by identity.
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from fuzz_moves import random_design  # noqa: E402

from repro.library import default_library  # noqa: E402
from repro.power import simulate_subgraph, white_traces  # noqa: E402
from repro.synthesis.context import SynthesisConfig, SynthesisEnv  # noqa: E402
from repro.synthesis.improve import _best  # noqa: E402
from repro.synthesis.incremental import evaluate_solution  # noqa: E402
from repro.synthesis.initial import initial_solution  # noqa: E402
from repro.synthesis.library_gen import build_complex_library  # noqa: E402
from repro.synthesis.moves import (  # noqa: E402
    _min_schedule_length,
    prune_candidates,
    sharing_candidates,
    splitting_candidates,
    type_a_b_candidates,
)

ROUND_SEEDS = (0, 1, 2, 5)

#: Round seeds whose designs call two behaviors from the top (0, 6, 12)
#: or one behavior four times (3).
HIER_ROUND_SEEDS = (0, 3, 6, 12)


def _all_candidates(env, solution, sim):
    candidates = []
    candidates += type_a_b_candidates(env, solution, sim, frozenset())
    candidates += sharing_candidates(env, solution, sim, frozenset())
    candidates += splitting_candidates(env, solution, sim, frozenset())
    return candidates


def _round(seed, complex_library=False):
    """Deterministic (env, solution, sim, candidates) for one round seed.

    With *complex_library*, the design's behaviors are synthesized into
    a complex-module library first, so module instances have library
    alternatives.
    """
    rng = random.Random(seed)
    design = random_design(rng)
    library = default_library()
    if complex_library:
        library = build_complex_library(
            design,
            library,
            laxity_factors=(1.5,),
            config=SynthesisConfig(max_moves=4, max_passes=1, n_clocks=1),
            n_samples=12,
        )
    top = design.top
    traces = white_traces(top, n=12, seed=seed)
    sim = simulate_subgraph(design, top, [traces[n] for n in top.inputs])
    config = SynthesisConfig(max_share_pairs=8, max_split_candidates=4)
    objective = rng.choice(("area", "power"))
    env = SynthesisEnv(design, library, objective, config)
    solution = initial_solution(env, top, sim, 10.0, 5.0, 2000.0)
    # Price the solution before discovery, as the KL loop does, so the
    # candidates' clones start from its netlist blocks.
    evaluate_solution(env.context(sim), solution, None)
    return env, solution, sim, _all_candidates(env, solution, sim)


def _same_terms(delta, full, base, where) -> int:
    """Require *delta* to equal *full* entry by entry; count carried.

    Entries compare on the resource order, the key, the activity, the
    netlist block and the energy (the last field: addends for modules).
    Returns how many of *delta*'s entries are *base*'s entry objects.
    """
    carried = 0
    for kind in ("fu", "module", "reg"):
        got, want = getattr(delta, kind), getattr(full, kind)
        assert list(got) == list(want), f"{where}: {kind} order"
        prior = getattr(base, kind)
        for res_id, entry in got.items():
            ref = want[res_id]
            assert entry[0] == ref[0], f"{where}: {res_id} key"
            assert entry[1] == ref[1], f"{where}: {res_id} activity"
            assert entry[2] is ref[2], f"{where}: {res_id} block"
            assert entry[-1] == ref[-1], f"{where}: {res_id} energy"
            carried += entry is prior.get(res_id)
    return carried


@pytest.mark.parametrize("seed", ROUND_SEEDS)
def test_delta_equals_full_for_every_candidate(seed):
    env, solution, sim, candidates = _round(seed)
    ctx = env.context(sim)
    _m, base, _r, _t = evaluate_solution(ctx, solution, None)
    assert candidates, "fuzz round generated no candidates"
    carried = 0
    for cand in candidates:
        delta, delta_bd, reused, terms = evaluate_solution(
            ctx, cand.solution, base
        )
        full, full_bd, _r2, _t2 = evaluate_solution(ctx, cand.solution, None)
        where = f"seed {seed}: {cand.description}"
        assert delta == full, where
        if cand.footprint is None:
            # Global moves are never delta-priced by the engine; pricing
            # them against a base here must still be exact (it was).
            continue
        assert 0 <= reused <= terms
        carried += _same_terms(delta_bd, full_bd, base, where)
    assert carried, f"seed {seed}: no entry carried over by identity"


_MODULE_SWAPS = ("A-module", "A-remerge")


@pytest.mark.parametrize("seed", HIER_ROUND_SEEDS)
def test_module_swaps_delta_equals_full(seed):
    """Every module swap prices by delta exactly as from scratch.

    Swaps are taken on the round's solution and, when it has one, on
    the solution after its first RTL embedding, whose merged instance
    runs two behaviors (the only place ``A-remerge`` arises).  Every
    other footprinted candidate of those solutions is compared term by
    term as well.
    """
    env, solution, sim, candidates = _round(seed, complex_library=True)
    ctx = env.context(sim)
    bases = [(solution, candidates)]
    embeds = [c for c in candidates if c.kind == "C-embed"]
    if embeds:
        merged = embeds[0].solution
        evaluate_solution(ctx, merged, None)
        bases.append((merged, _all_candidates(env, merged, sim)))
    priced = set()
    carried = 0
    for parent, cands in bases:
        _m, base, _r, _t = evaluate_solution(ctx, parent, None)
        for cand in cands:
            if cand.footprint is None:
                continue
            delta, delta_bd, reused, terms = evaluate_solution(
                ctx, cand.solution, base
            )
            full, full_bd, _r2, _t2 = evaluate_solution(
                ctx, cand.solution, None
            )
            where = f"seed {seed}: {cand.description}"
            assert delta == full, where
            carried += _same_terms(delta_bd, full_bd, base, where)
            if cand.kind not in _MODULE_SWAPS:
                continue
            assert 0 < reused <= terms, where
            priced.add(cand.kind)
    assert "A-module" in priced
    if embeds:
        assert "A-remerge" in priced
    assert carried, f"seed {seed}: no entry carried over by identity"


@pytest.mark.parametrize("seed", ROUND_SEEDS)
def test_schedule_lower_bound_is_sound(seed):
    _env, solution, _sim, candidates = _round(seed)
    for sol in [solution] + [c.solution for c in candidates]:
        assert _min_schedule_length(sol) <= sol.schedule().length


@pytest.mark.parametrize("seed", ROUND_SEEDS)
def test_pruning_preserves_the_winner(seed):
    env, solution, sim, candidates = _round(seed)
    if len(candidates) < 2:
        pytest.skip("nothing to prune")
    survivors = prune_candidates(env, solution, list(candidates))
    assert len(survivors) <= len(candidates)

    def winner(cands):
        ctx = env.context(sim)
        best = _best(ctx, cands)
        return None if best is None else (
            best.candidate.description, best.cost_after
        )

    assert winner(candidates) == winner(survivors)
