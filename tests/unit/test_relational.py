"""Unit tests for the relational discovery engine and lazy candidates.

The contract under test (see :mod:`repro.synthesis.relational`): for
every family the engine serves, the emitted candidate *multiset*
equals the per-pair reference loops' output
(``tests/reference_discovery.py``), each lazy descriptor's
precomputed fingerprint equals the fingerprint of the solution its
``build`` recipe produces, and no clone is built until the candidate's
``solution`` is first accessed.
"""

import pytest

from repro.bench_suite import get_benchmark
from repro.errors import SynthesisError
from repro.library import default_library
from repro.power import simulate_subgraph, speech_traces
from repro.synthesis.context import SynthesisConfig, SynthesisEnv
from repro.synthesis.initial import initial_solution
from repro.synthesis.moves import (
    Candidate,
    candidate_order_key,
    register_lifetimes,
    sharing_candidates,
    splitting_candidates,
    type_a_b_candidates,
)
from repro.synthesis.relational import OP_BIT, RelationalView, op_mask
from tests.reference_discovery import ReferenceView

NONE_LOCKED = frozenset()


def _env_for(circuit: str, config: SynthesisConfig | None = None):
    design = get_benchmark(circuit)
    traces = speech_traces(design.top, n=32, seed=1)
    sim = simulate_subgraph(
        design, design.top, [traces[n] for n in design.top.inputs]
    )
    env = SynthesisEnv(design, default_library(), "power", config or SynthesisConfig())
    solution = initial_solution(env, design.top, sim, 10.0, 5.0, 2000.0)
    return env, solution, sim


def _families(env, solution, sim, view):
    return (
        list(type_a_b_candidates(env, solution, sim, NONE_LOCKED, view=view))
        + sharing_candidates(env, solution, sim, NONE_LOCKED, view=view)
        + splitting_candidates(env, solution, sim, NONE_LOCKED, view=view)
    )


class TestOpMask:
    def test_bits_are_distinct(self):
        assert len(set(OP_BIT.values())) == len(OP_BIT)

    def test_mask_folds_bits(self):
        ops = list(OP_BIT)[:3]
        mask = op_mask(ops)
        for op in ops:
            assert mask & OP_BIT[op]

    def test_subset_predicate(self):
        ops = list(OP_BIT)
        small = op_mask(ops[:2])
        big = op_mask(ops[:4])
        assert small & ~big == 0  # subset fits
        assert big & ~small != 0  # superset does not


class TestEquivalence:
    """The engine and the reference loops discover the same multiset."""

    @pytest.mark.parametrize("circuit", ["paulin", "test1"])
    def test_same_multiset(self, circuit):
        env, solution, sim = _env_for(circuit)
        view = RelationalView(env, solution, NONE_LOCKED)
        relational = _families(env, solution, sim, view)
        expected = _families(
            env, solution, sim, ReferenceView(env, solution, NONE_LOCKED)
        )
        assert sorted(candidate_order_key(c) for c in relational) == sorted(
            candidate_order_key(c) for c in expected
        )

    def test_descriptor_fingerprint_matches_materialized(self):
        env, solution, sim = _env_for("paulin")
        view = RelationalView(env, solution, NONE_LOCKED)
        lazy = [c for c in _families(env, solution, sim, view) if not c.is_materialized]
        assert lazy, "expected lazy descriptors from the relational engine"
        seen_kinds = set()
        for cand in lazy:
            seen_kinds.add(cand.kind)
            # A clone never carries a fingerprint, so its key is derived
            # from scratch (the built solution adopts the descriptor's).
            derived = cand.solution.clone().fingerprint_key()
            assert cand.fingerprint_key() == derived, (
                f"{cand.kind}: descriptor fingerprint diverges from the "
                "materialized clone"
            )
        assert {"A-cell", "C-share-fu", "C-share-reg"} <= seen_kinds

    def test_locked_resources_respected(self):
        env, solution, sim = _env_for("paulin")
        locked = frozenset(list(solution.instances)[:2] + list(solution.reg_signals)[:2])
        view = RelationalView(env, solution, locked)
        relational = (
            list(type_a_b_candidates(env, solution, sim, locked, view=view))
            + sharing_candidates(env, solution, sim, locked, view=view)
            + splitting_candidates(env, solution, sim, locked, view=view)
        )
        reference = ReferenceView(env, solution, locked)
        expected = (
            list(type_a_b_candidates(env, solution, sim, locked, view=reference))
            + sharing_candidates(env, solution, sim, locked, view=reference)
            + splitting_candidates(env, solution, sim, locked, view=reference)
        )
        assert sorted(candidate_order_key(c) for c in relational) == sorted(
            candidate_order_key(c) for c in expected
        )
        for cand in relational:
            assert not (cand.touched & locked)


class TestPerFamily:
    """Each query method matches its reference loop on its own."""

    FAMILIES = (
        "fu_sharing", "register_sharing", "fu_splits", "register_splits",
    )

    @pytest.mark.parametrize("method", FAMILIES + ("cell_replacements",))
    def test_family_matches_reference(self, method):
        config = SynthesisConfig(max_share_pairs=6, max_split_candidates=4)
        env, solution, sim = _env_for("paulin", config)
        # Share two unit pairs and two register pairs first, so the
        # split families have shared resources to offer.
        for _ in range(2):
            view = RelationalView(env, solution, NONE_LOCKED)
            solution = view.fu_sharing()[0].solution
            view = RelationalView(env, solution, NONE_LOCKED)
            solution = view.register_sharing()[0].solution
        # Lock two unshared instances and registers so the family's
        # lock filter is exercised too.
        locked = frozenset(
            [i for i, e in solution.executions.items() if len(e) == 1][:2]
            + [r for r, s in solution.reg_signals.items() if len(s) == 1][:2]
        )
        args = ()
        if method == "cell_replacements":
            args = ([i for i in solution.instances if i not in locked],)
        got = getattr(RelationalView(env, solution, locked), method)(*args)
        want = getattr(ReferenceView(env, solution, locked), method)(*args)
        assert got, f"{method}: expected candidates on paulin"
        assert sorted(candidate_order_key(c) for c in got) == sorted(
            candidate_order_key(c) for c in want
        )


class TestDefaultView:
    def test_generators_default_to_the_engine(self):
        """With no view given, discovery runs on the relational engine:
        its families come back as lazy, not yet cloned, candidates."""
        env, solution, sim = _env_for("paulin")
        candidates = _families(env, solution, sim, None)
        lazy = {c.kind for c in candidates if not c.is_materialized}
        assert {"A-cell", "C-share-fu", "C-share-reg"} <= lazy
        assert sorted(candidate_order_key(c) for c in candidates) == sorted(
            candidate_order_key(c)
            for c in _families(
                env, solution, sim, RelationalView(env, solution, NONE_LOCKED)
            )
        )

    def test_config_has_no_engine_switch(self):
        with pytest.raises(TypeError):
            SynthesisConfig(relational=False)


class TestLazyCandidate:
    def test_needs_exactly_one_construction_mode(self):
        with pytest.raises(SynthesisError):
            Candidate(kind="A-cell", description="neither")
        env, solution, _sim = _env_for("paulin")
        with pytest.raises(SynthesisError):
            Candidate(
                kind="A-cell",
                description="both",
                solution=solution,
                build=lambda: solution,
            )

    def test_materializes_once_and_counts(self):
        fired: list[str] = []
        env, solution, _sim = _env_for("paulin")
        cand = Candidate(
            kind="A-cell",
            description="lazy",
            build=solution.clone,
            fingerprint=solution.fingerprint_key(),
            on_materialize=fired.append,
        )
        assert not cand.is_materialized
        first = cand.solution
        second = cand.solution
        assert first is second
        assert cand.is_materialized
        assert fired == ["A-cell"]

    def test_fingerprint_does_not_materialize(self):
        env, solution, _sim = _env_for("paulin")
        cand = Candidate(
            kind="A-cell",
            description="lazy",
            build=solution.clone,
            fingerprint=solution.fingerprint_key(),
        )
        cand.fingerprint_key()
        assert not cand.is_materialized

    def test_built_solution_adopts_descriptor_key(self):
        env, solution, sim = _env_for("paulin")
        view = RelationalView(env, solution, NONE_LOCKED)
        cands = view.fu_sharing()
        assert cands
        cand = cands[0]
        key = cand.fingerprint_key()
        built = cand.solution
        assert built.fingerprint_key() is key
        assert built.fingerprint() is key.value
        # A mutation drops the adopted key; the next one is derived.
        built.merge_registers(*list(built.reg_signals)[:2])
        rederived = built.fingerprint_key()
        assert rederived is not key
        assert rederived == built.clone().fingerprint_key()
        assert rederived != key

    def test_epoch_guard_rejects_stale_materialization(self):
        env, solution, sim = _env_for("paulin")
        view = RelationalView(env, solution, NONE_LOCKED)
        cands = view.fu_sharing()
        assert cands
        stale = cands[0]
        solution.invalidate()  # bumps the mutation epoch
        with pytest.raises(SynthesisError):
            stale.solution


class TestRegisterSharingWindow:
    """Full-pair discovery, not the old fixed 4-successor window."""

    def test_pairs_beyond_window(self):
        config = SynthesisConfig(max_share_pairs=10_000)
        env, solution, sim = _env_for("paulin", config)
        got = RelationalView(env, solution, NONE_LOCKED).register_sharing()
        want = ReferenceView(env, solution, NONE_LOCKED).register_sharing()
        assert got, "paulin should offer disjoint register pairs"
        assert sorted(candidate_order_key(c) for c in got) == sorted(
            candidate_order_key(c) for c in want
        )
        regs = list(solution.reg_signals)
        lifetimes = register_lifetimes(solution, regs)
        regs.sort(key=lambda r: lifetimes[r][-1][1])
        rank = {r: i for i, r in enumerate(regs)}
        spans = [
            abs(rank[a] - rank[b]) for a, b in (tuple(c.touched) for c in got)
        ]
        assert any(span > 4 for span in spans), (
            "expected at least one shareable pair farther than the old "
            "4-successor window in left-edge order"
        )

    def test_legacy_engine_matches_on_distant_pairs(self):
        env, solution, sim = _env_for("paulin")
        view = RelationalView(env, solution, NONE_LOCKED)
        rel = {c.description for c in view.register_sharing()}
        leg = {
            c.description
            for c in ReferenceView(env, solution, NONE_LOCKED).register_sharing()
        }
        assert rel == leg


class TestFamilyApportionment:
    """Per-family caps keep late families from being starved."""

    def test_tiny_budget_still_reaches_registers(self):
        config = SynthesisConfig(max_share_pairs=2)
        env, solution, sim = _env_for("paulin", config)
        for view in (
            RelationalView(env, solution, NONE_LOCKED),
            ReferenceView(env, solution, NONE_LOCKED),
        ):
            cands = sharing_candidates(env, solution, sim, NONE_LOCKED, view=view)
            kinds = {c.kind for c in cands}
            n_fu = sum(1 for c in cands if c.kind == "C-share-fu")
            assert n_fu <= 2
            assert "C-share-reg" in kinds, (
                "register sharing starved by the FU-pair budget"
            )

    def test_caps_match_across_engines(self):
        config = SynthesisConfig(max_share_pairs=3, max_split_candidates=3)
        env, solution, sim = _env_for("paulin", config)
        view = RelationalView(env, solution, NONE_LOCKED)
        rel = sharing_candidates(
            env, solution, sim, NONE_LOCKED, view=view
        ) + splitting_candidates(env, solution, sim, NONE_LOCKED, view=view)
        reference = ReferenceView(env, solution, NONE_LOCKED)
        leg = sharing_candidates(
            env, solution, sim, NONE_LOCKED, view=reference
        ) + splitting_candidates(env, solution, sim, NONE_LOCKED, view=reference)
        assert sorted(candidate_order_key(c) for c in rel) == sorted(
            candidate_order_key(c) for c in leg
        )
