"""Property: netlist blocks shared through clones never go stale.

:func:`~repro.synthesis.build_netlist` reuses the per-register and
per-instance netlist blocks a clone inherits from its parent.  This
walks random move sequences on the move fuzzer's random designs
(``benchmarks/fuzz_moves.py``), materializes every candidate of the
relational engine (lazy clones) and of the per-pair reference loops
(``tests/reference_discovery.py``, eager clones), and requires each
one's netlist to equal the eager
reference builder's (``tests/reference_netlist.py``): the component map
with its insertion order, the connection set, the fan-in map, the
connection count, the mux legs and the area, bit for bit.  Every
candidate is also built with ``skip_input_registers=True`` and then
without again, so blocks derived in one mode are offered to the other.
A scripted walk makes sure register merges and splits and chain
formation and dissolution (which rewrite ``reg_signals`` directly) are
among the moves checked.
"""

import pickle
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from fuzz_moves import random_design  # noqa: E402

from repro.library import default_library  # noqa: E402
from repro.power import simulate_subgraph, white_traces  # noqa: E402
from repro.rtl import DatapathNetlist  # noqa: E402
from repro.synthesis import build_netlist  # noqa: E402
from repro.synthesis.context import SynthesisConfig, SynthesisEnv  # noqa: E402
from repro.synthesis.initial import initial_solution  # noqa: E402
from repro.synthesis.moves import (  # noqa: E402
    sharing_candidates,
    splitting_candidates,
    type_a_b_candidates,
)
from repro.synthesis.relational import RelationalView  # noqa: E402
from tests.reference_discovery import ReferenceView  # noqa: E402
from tests.reference_netlist import eager_build_netlist  # noqa: E402

DISCOVER = (type_a_b_candidates, sharing_candidates, splitting_candidates)


def assert_netlist_matches(got: DatapathNetlist, want: DatapathNetlist, library):
    # Aggregates first, while the block netlist has not assembled its
    # component map and connection set.
    assert got.area(library) == want.area(library)
    assert got.n_connections() == want.n_connections()
    assert got.mux_legs() == want.mux_legs()
    assert got.multi_source_ports() == want.multi_source_ports()
    assert list(got._components.items()) == list(want._components.items())
    assert got._connections == want._connections
    assert got.fanin_ports() == want.fanin_ports()


def assert_matches_reference(solution) -> None:
    library = solution.library
    for skip in (False, True, False):
        assert_netlist_matches(
            build_netlist(solution, skip_input_registers=skip),
            eager_build_netlist(solution, skip_input_registers=skip),
            library,
        )


def _setup(seed: int, mixed_widths: bool = False):
    rng = random.Random(seed)
    design = random_design(rng)
    top = design.top
    if mixed_widths:
        # Registers and units take the widest value they hold or run.
        for node in top.nodes():
            node.width = rng.choice((8, 16, 24, 32))
    traces = white_traces(top, n=8, seed=seed)
    sim = simulate_subgraph(design, top, [traces[n] for n in top.inputs])
    config = SynthesisConfig(max_share_pairs=8, max_split_candidates=4)
    env = SynthesisEnv(design, default_library(), "power", config)
    return env, sim, initial_solution(env, top, sim, 10.0, 5.0, 2000.0)


def _candidates(env, solution, sim, relational: bool) -> list:
    view = (RelationalView if relational else ReferenceView)(
        env, solution, frozenset()
    )
    candidates = []
    for discover in DISCOVER:
        candidates += discover(env, solution, sim, frozenset(), view=view)
    return candidates


@given(
    seed=st.integers(0, 1 << 16),
    mixed_widths=st.booleans(),
    walk=st.lists(
        st.tuples(st.booleans(), st.integers(0, 1 << 16)), min_size=1, max_size=3
    ),
)
@settings(max_examples=12, deadline=None)
def test_candidate_netlists_match_reference(seed, mixed_widths, walk):
    env, sim, solution = _setup(seed, mixed_widths)
    assert_matches_reference(solution)
    for relational, pick in walk:
        candidates = _candidates(env, solution, sim, relational)
        if not candidates:
            break
        for cand in candidates:
            assert_matches_reference(cand.solution)
        solution = candidates[pick % len(candidates)].solution
    # Re-deriving the candidates' blocks left the parent's untouched.
    assert_matches_reference(solution)


#: Moves applied in turn by the scripted walk: register sharing and
#: splitting, chain formation, extension and dissolution, unit sharing
#: and splitting.
SCRIPT = ("C-share-reg", "D-split-reg", "C-chain", "C-chain3", "D-unchain",
          "C-share-fu", "D-split-fu", "A-cell")


@pytest.mark.parametrize("relational", [False, True])
def test_scripted_walk_covers_binding_rewrites(relational):
    env, sim, solution = _setup(0)
    assert_matches_reference(solution)
    for kind in SCRIPT:
        candidates = _candidates(env, solution, sim, relational)
        for cand in candidates:
            assert_matches_reference(cand.solution)
        chosen = [c for c in candidates if c.kind == kind]
        assert chosen, f"no {kind} candidate on the scripted walk"
        solution = chosen[0].solution


def test_rebinding_that_keeps_the_register_count():
    """Swap which register holds which signal, leaving the register
    count and every instance unchanged: only the binding itself tells
    the last build's blocks from the new ones."""
    env, sim, solution = _setup(3, mixed_widths=True)
    assert_matches_reference(solution)
    regs = list(solution.reg_signals)
    for keep, absorb in zip(regs, regs[1:]):
        moved = solution.clone()
        (first, *_rest) = moved.reg_signals[keep]
        moved.merge_registers(keep, absorb)
        moved.split_register(keep, [first])
        assert len(moved.reg_signals) == len(solution.reg_signals)
        assert_matches_reference(moved)
        # normalize_registers' idiom: rewrite the binding in place.
        direct = solution.clone()
        direct.reg_signals[keep], direct.reg_signals[absorb] = (
            direct.reg_signals[absorb],
            direct.reg_signals[keep],
        )
        direct.invalidate()
        assert_matches_reference(direct)


def test_built_netlists_pickle_as_eager_netlists():
    """Module netlists reach the persistent store inside RTLModule."""
    env, sim, solution = _setup(0)
    (cand,) = [
        c for c in _candidates(env, solution, sim, False) if c.kind == "C-chain"
    ][:1]
    for skip in (False, True):
        netlist = build_netlist(cand.solution, skip_input_registers=skip)
        loaded = pickle.loads(pickle.dumps(netlist))
        assert type(loaded) is DatapathNetlist
        assert_netlist_matches(
            loaded,
            eager_build_netlist(cand.solution, skip_input_registers=skip),
            cand.solution.library,
        )
