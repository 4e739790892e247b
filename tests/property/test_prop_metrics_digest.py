"""Property: the composed metrics store address equals the full key's.

:func:`~repro.synthesis.costs.metrics_digest` joins the ``repr`` of a
candidate's metrics content key from text cached on task blocks and
modules, which clones share.  This walks random move sequences on the
move fuzzer's random hierarchical designs (``benchmarks/fuzz_moves.py``;
module instances, module sharing, RTL embedding and move-B
resynthesis), discovering through the relational engine and through
the per-pair reference loops (``tests/reference_discovery.py``), prices
every candidate through
a context that shares metrics with a persistent store, and requires of
each one that:

* the composed digest equals :func:`~repro.synthesis.store.
  digest_content` of the full content tuple;
* the context's own (memoized) address is that digest, and the store
  holds the priced metrics under it.

A scripted walk on the mixed-module design adds library module swaps
and the re-merge of an embedded module.
"""

import random
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from fuzz_moves import random_design  # noqa: E402

from repro.library import default_library  # noqa: E402
from repro.power import simulate_subgraph, white_traces  # noqa: E402
from repro.synthesis.context import SynthesisConfig, SynthesisEnv  # noqa: E402
from repro.synthesis.costs import EvaluationContext, metrics_digest  # noqa: E402
from repro.synthesis.initial import initial_solution  # noqa: E402
from repro.synthesis.moves import (  # noqa: E402
    sharing_candidates,
    splitting_candidates,
    type_a_b_candidates,
)
from repro.synthesis.relational import RelationalView  # noqa: E402
from repro.synthesis.store import (  # noqa: E402
    digest_content,
    sim_level_digest,
    solution_pricing_signature,
)
from tests.designs import make_mixed_module_design, sim_for  # noqa: E402
from tests.reference_discovery import ReferenceView  # noqa: E402

DISCOVER = (type_a_b_candidates, sharing_candidates, splitting_candidates)


def full_content(env, solution, sim) -> tuple:
    """The metrics content key as the tuple it is the ``repr`` of."""
    return (
        "metrics",
        env.store_signature,
        solution_pricing_signature(solution, env.design),
        sim_level_digest(sim, ()),
    )


def price_and_check(env, candidates, sim) -> int:
    """Price *candidates* as the improvement loop does and check each
    one's address; returns how many were checked."""
    # A fresh context per step: discovery may add behaviors to a module
    # in place, and the context memoizes addresses by fingerprint.
    ctx = EvaluationContext(
        sim,
        (),
        "power",
        store=env.store,
        design=env.design,
        store_prefix=env.store_signature,
        share_metrics=True,
    )
    assert ctx._share_metrics
    ctx.evaluate_batch([(c.solution, None) for c in candidates])
    for cand in candidates:
        solution = cand.solution
        ctx.evaluate(solution)
        content = full_content(env, solution, sim)
        want = digest_content(content)
        assert metrics_digest(
            solution, env.design, env.store_signature, sim_level_digest(sim, ())
        ) == want, cand.description
        assert ctx._metrics_content(solution) == want, cand.description
        assert env.store.contains("metrics", [content]) == [True], \
            cand.description
    ctx.discard_batched()
    return len(candidates)


def walk(env, solution, sim, steps, rng, relational: bool) -> int:
    checked = 0
    for _step in range(steps):
        view = (RelationalView if relational else ReferenceView)(
            env, solution, frozenset()
        )
        candidates = []
        for discover in DISCOVER:
            candidates += discover(env, solution, sim, frozenset(), view=view)
        if not candidates:
            break
        checked += price_and_check(env, candidates, sim)
        solution = candidates[rng.randrange(len(candidates))].solution
    return checked


@given(
    seed=st.integers(0, 1 << 16),
    relational=st.booleans(),
    steps=st.integers(1, 3),
)
@settings(max_examples=15, deadline=None)
def test_composed_digest_matches_full_content(seed, relational, steps):
    rng = random.Random(seed)
    design = random_design(rng)
    top = design.top
    traces = white_traces(top, n=8, seed=seed)
    sim = simulate_subgraph(design, top, [traces[n] for n in top.inputs])
    with tempfile.TemporaryDirectory() as cache_dir:
        config = SynthesisConfig(
            max_share_pairs=8, max_split_candidates=4, cache_dir=cache_dir
        )
        env = SynthesisEnv(design, default_library(), "power", config)
        solution = initial_solution(env, top, sim, 10.0, 5.0, 2000.0)
        assert walk(env, solution, sim, steps, rng, relational) > 0
        env.store.close()


def test_module_swaps_and_remerge(mixed_library, tmp_path):
    """Library module swaps (``A-module``) and the re-merge of an
    embedded instance (``A-remerge``) keep the address exact."""
    design = make_mixed_module_design()
    sim = sim_for(design, n=16)
    config = SynthesisConfig(cache_dir=str(tmp_path))
    env = SynthesisEnv(design, mixed_library, "power", config)
    solution = initial_solution(env, design.top, sim, 10.0, 5.0, 2000.0)
    kinds: set[str] = set()
    for relational in (False, True):
        view = (RelationalView if relational else ReferenceView)(
            env, solution, frozenset()
        )
        candidates = []
        for discover in DISCOVER:
            candidates += discover(env, solution, sim, frozenset(), view=view)
        price_and_check(env, candidates, sim)
        kinds.update(c.kind for c in candidates)
        embed = next(c for c in candidates if c.kind == "C-embed")
        followers = []
        for discover in DISCOVER:
            followers += discover(env, embed.solution, sim, frozenset())
        price_and_check(env, followers, sim)
        kinds.update(c.kind for c in followers)
    assert {"A-module", "A-remerge", "C-embed", "C-share-module"} <= kinds
    env.store.close()
