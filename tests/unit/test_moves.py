"""Unit tests for move generation (types A, B, C, D)."""

import pytest

from repro.dfg import GraphBuilder, Design, Operation
from repro.power import simulate_subgraph, speech_traces
from repro.synthesis import EvaluationContext
from repro.synthesis.context import SynthesisConfig, SynthesisEnv
from repro.synthesis.initial import initial_solution
from repro.synthesis.modulegen import merge_modules
from repro.synthesis.moves import (
    _bound_behaviors,
    _module_sharing,
    normalize_registers,
    sharing_candidates,
    splitting_candidates,
    type_a_b_candidates,
)

NONE_LOCKED = frozenset()


def adder_chain_design() -> Design:
    """Four additions where two form a perfect chain (chaining bait)."""
    b = GraphBuilder("chain_top")
    w, x, y, z = b.inputs("w", "x", "y", "z")
    a1 = b.add(w, x, name="a1")
    a2 = b.add(a1, y, name="a2")      # a1 feeds only a2: chainable
    a3 = b.add(y, z, name="a3")
    a4 = b.add(a3, a2, name="a4")
    b.output("o", a4)
    design = Design("chain_design")
    design.add_dfg(b.build(), top=True)
    return design


@pytest.fixture
def chain_env():
    design = adder_chain_design()
    from repro.library import default_library

    library = default_library()
    traces = speech_traces(design.top, n=32, seed=1)
    sim = simulate_subgraph(design, design.top, [traces[n] for n in design.top.inputs])
    env = SynthesisEnv(design, library, "area", SynthesisConfig())
    sol = initial_solution(env, design.top, sim, 10.0, 5.0, 400.0)
    return env, sol, sim


class TestTypeA:
    def test_cell_replacements_offered(self, chain_env):
        env, sol, sim = chain_env
        cands = type_a_b_candidates(env, sol, sim, NONE_LOCKED)
        cell_moves = [c for c in cands if c.kind == "A-cell"]
        assert cell_moves
        for cand in cell_moves:
            cand.solution.check_invariants()

    def test_locked_instances_skipped(self, chain_env):
        env, sol, sim = chain_env
        locked = frozenset(sol.instances)
        assert type_a_b_candidates(env, sol, sim, locked) == []

    def test_replacement_changes_exactly_one_instance(self, chain_env):
        env, sol, sim = chain_env
        cands = type_a_b_candidates(env, sol, sim, NONE_LOCKED)
        for cand in cands:
            if cand.kind != "A-cell":
                continue
            (inst_id,) = cand.touched
            assert (
                cand.solution.instances[inst_id].cell.name
                != sol.instances[inst_id].cell.name
            )


class TestSharing:
    def test_fu_share_candidates_valid(self, chain_env):
        env, sol, sim = chain_env
        cands = sharing_candidates(env, sol, sim, NONE_LOCKED)
        fu_moves = [c for c in cands if c.kind == "C-share-fu"]
        assert fu_moves
        for cand in fu_moves:
            cand.solution.check_invariants()
            assert len(cand.solution.instances) == len(sol.instances) - 1

    def test_register_share_candidates_valid(self, chain_env):
        env, sol, sim = chain_env
        cands = sharing_candidates(env, sol, sim, NONE_LOCKED)
        reg_moves = [c for c in cands if c.kind == "C-share-reg"]
        for cand in reg_moves:
            cand.solution.check_invariants()
            assert not cand.solution.register_conflicts()

    def test_chain_formation(self, chain_env):
        env, sol, sim = chain_env
        cands = sharing_candidates(env, sol, sim, NONE_LOCKED)
        chains = [c for c in cands if c.kind == "C-chain"]
        assert chains
        for cand in chains:
            cand.solution.check_invariants()
            chained = [
                inst for inst in cand.solution.instances.values()
                if inst.cell is not None and inst.cell.chain_length == 2
            ]
            assert chained
        # In the a1+a2 chain, the internal a1 signal lost its register.
        a1_chain = next(c for c in chains if "a1+a2" in c.description)
        assert ("a1", 0) not in [
            s
            for signals in a1_chain.solution.reg_signals.values()
            for s in signals
        ]

    def test_locked_respected(self, chain_env):
        env, sol, sim = chain_env
        locked = frozenset(sol.instances) | frozenset(sol.reg_signals)
        assert sharing_candidates(env, sol, sim, locked) == []


class TestSplitting:
    def test_split_after_share(self, chain_env):
        env, sol, sim = chain_env
        shared = sharing_candidates(env, sol, sim, NONE_LOCKED)
        fu_move = next(c for c in shared if c.kind == "C-share-fu")
        merged = fu_move.solution
        cands = splitting_candidates(env, merged, sim, NONE_LOCKED)
        splits = [c for c in cands if c.kind == "D-split-fu"]
        assert splits
        for cand in splits:
            cand.solution.check_invariants()

    def test_unchain_restores_registers(self, chain_env):
        env, sol, sim = chain_env
        chains = [
            c for c in sharing_candidates(env, sol, sim, NONE_LOCKED)
            if c.kind == "C-chain"
        ]
        chained_sol = chains[0].solution
        dissolved = [
            c for c in splitting_candidates(env, chained_sol, sim, NONE_LOCKED)
            if c.kind == "D-unchain"
        ]
        assert dissolved
        back = dissolved[0].solution
        back.check_invariants()
        assert ("a1", 0) in [
            s for signals in back.reg_signals.values() for s in signals
        ]

    def test_no_splits_on_parallel_solution(self, chain_env):
        env, sol, sim = chain_env
        cands = splitting_candidates(env, sol, sim, NONE_LOCKED)
        assert [c for c in cands if c.kind == "D-split-fu"] == []


class TestModuleMoves:
    def test_module_share_same_behavior(self, butterfly_design, library, butterfly_sim):
        env = SynthesisEnv(butterfly_design, library, "area", SynthesisConfig())
        sol = initial_solution(
            env, butterfly_design.top, butterfly_sim, 10.0, 5.0, 1000.0
        )
        cands = sharing_candidates(env, sol, butterfly_sim, NONE_LOCKED)
        module_moves = [c for c in cands if c.kind == "C-share-module"]
        assert module_moves
        merged = module_moves[0].solution
        merged.check_invariants()
        module_insts = [i for i in merged.instances.values() if i.is_module]
        assert len(module_insts) == 1
        assert len(merged.executions[module_insts[0].inst_id]) == 2

    def test_resynthesis_candidate_generated(
        self, butterfly_design, library, butterfly_sim
    ):
        env = SynthesisEnv(butterfly_design, library, "power", SynthesisConfig())
        sol = initial_solution(
            env, butterfly_design.top, butterfly_sim, 10.0, 5.0, 1000.0
        )
        cands = type_a_b_candidates(env, sol, butterfly_sim, NONE_LOCKED)
        resynth = [c for c in cands if c.kind == "B-resynth"]
        assert resynth
        for cand in resynth:
            cand.solution.check_invariants()
            assert cand.solution.is_feasible()


def _unbounded_module_sharing(env, solution, locked):
    """Reference: every unlocked module pair, in instance order.

    The enumeration ``_module_sharing`` made before it took a budget:
    it clones (and, for pairs of different behaviors, RTL-embeds) every
    pair, and the caller kept a prefix.
    """
    modules = [
        inst_id
        for inst_id, inst in solution.instances.items()
        if inst.is_module and inst_id not in locked and solution.executions[inst_id]
    ]
    out = []
    for i, a in enumerate(modules):
        for b in modules[i + 1:]:
            mod_a = solution.instances[a].module
            mod_b = solution.instances[b].module
            behaviors_a = _bound_behaviors(solution, a)
            behaviors_b = _bound_behaviors(solution, b)
            if all(mod_a.supports(x) for x in behaviors_b):
                clone = solution.clone()
                clone.merge_instances(a, b)
                out.append(("C-share-module",
                            f"share module: {b} -> {a} ({mod_a.name})",
                            frozenset({a, b}), clone.fingerprint_key()))
            elif env.config.enable_embedding:
                merged = merge_modules(mod_a, mod_b)
                assert all(merged.supports(x) for x in behaviors_a + behaviors_b)
                clone = solution.clone()
                clone.set_module(a, merged)
                clone.merge_instances(a, b)
                out.append(("C-embed",
                            f"RTL-embed: {mod_b.name} into {mod_a.name} on {a}",
                            frozenset({a, b}), clone.fingerprint_key()))
    return out


class TestModuleSharingBudget:
    @pytest.mark.parametrize("budget", [1, 2, 3, 4])
    def test_first_n_of_unbounded_enumeration(
        self, mixed_design, mixed_library, mixed_sim, budget
    ):
        env = SynthesisEnv(mixed_design, mixed_library, "power", SynthesisConfig())
        sol = initial_solution(env, mixed_design.top, mixed_sim, 10.0, 5.0, 2000.0)
        reference = _unbounded_module_sharing(env, sol, NONE_LOCKED)
        # One pair shares a module, two need an embedding.
        assert [kind for kind, *_ in reference] == [
            "C-share-module", "C-embed", "C-embed"
        ]
        got = _module_sharing(env, sol, NONE_LOCKED, budget)
        assert [
            (c.kind, c.description, c.touched, c.fingerprint_key()) for c in got
        ] == reference[:budget]
        embedded = env.telemetry.moves_embedded.get("C-embed", 0)
        assert embedded == sum(c.kind == "C-embed" for c in got) <= budget

    def test_sharing_candidates_apply_the_family_budget(
        self, mixed_design, mixed_library, mixed_sim
    ):
        config = SynthesisConfig(max_share_pairs=2)  # budget max(1, 2 // 2)
        env = SynthesisEnv(mixed_design, mixed_library, "power", config)
        sol = initial_solution(env, mixed_design.top, mixed_sim, 10.0, 5.0, 2000.0)
        cands = sharing_candidates(env, sol, mixed_sim, NONE_LOCKED)
        module_kinds = [
            c.kind for c in cands if c.kind in ("C-share-module", "C-embed")
        ]
        assert module_kinds == ["C-share-module"]
        assert env.telemetry.moves_embedded == {}


class TestNormalizeRegisters:
    def test_idempotent(self, chain_env):
        _env, sol, _sim = chain_env
        before = {k: list(v) for k, v in sol.reg_signals.items()}
        normalize_registers(sol)
        assert sol.reg_signals == before
