"""Unit tests for the search-policy layer (repro.search.policy).

The default policy must be an exact no-op at every hook (the golden
trace suite proves the byte-level consequence; these tests pin the
hook-level contract), the registry must resolve and reject names
predictably, the seam must offer only the hooks the kept policies use,
and the built-in biased policies must implement exactly the bias their
docstring claims.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.search import (
    DefaultPolicy,
    SearchPolicy,
    available_policies,
    make_policy,
    register_policy,
)
from repro.search.policy import _REGISTRY
from repro.synthesis import SynthesisConfig


class TestRegistry:
    def test_builtin_policies_registered(self):
        assert available_policies() == ("deep", "default", "greedy")

    def test_make_policy_resolves_name(self):
        assert isinstance(make_policy("default"), DefaultPolicy)
        assert make_policy("deep").name == "deep"

    def test_make_policy_unknown_name_lists_registry(self):
        with pytest.raises(ValueError, match="default"):
            make_policy("no-such-policy")

    @pytest.mark.parametrize("name", ["share-first", "split-eager", "priors"])
    def test_deleted_policies_are_unknown(self, name):
        with pytest.raises(ValueError, match="deep, default, greedy"):
            make_policy(name)

    def test_register_policy_decorator(self):
        @register_policy("test-custom")
        class Custom(SearchPolicy):
            pass

        try:
            assert "test-custom" in available_policies()
            assert Custom.name == "test-custom"
            assert isinstance(make_policy("test-custom"), Custom)
        finally:
            del _REGISTRY["test-custom"]


class TestSeam:
    def test_hooks_are_budgets_ranking_and_termination(self):
        hooks = {
            name for name, value in vars(SearchPolicy).items()
            if callable(value) and not name.startswith("_")
        }
        assert hooks == {"budgets", "rank_candidates", "stop_step"}

    def test_config_has_no_policy_parameters(self):
        """Policies are chosen by name only: the parameter field is gone."""
        with pytest.raises(TypeError, match="policy_params"):
            SynthesisConfig(policy_params={"min_support": 3})


class TestDefaultPolicyIsIdentity:
    def test_budgets_passthrough(self):
        assert DefaultPolicy().budgets(8, 24) == (8, 24)

    @pytest.mark.parametrize("family", ["ab", "share", "split"])
    def test_rank_candidates_returns_input_unchanged(self, family):
        cands = [SimpleNamespace(kind="A-cell"), SimpleNamespace(kind="C-chain")]
        assert DefaultPolicy().rank_candidates(family, cands, 0, 0) is cands

    def test_never_terminates_early(self):
        policy = DefaultPolicy()
        assert not policy.stop_step(SimpleNamespace(cost_after=99.0), 1.0, 0)


class TestBiasedPolicies:
    def test_deep_doubles_passes_and_truncates_candidates(self):
        policy = make_policy("deep")
        assert policy.budgets(4, 10) == (8, 10)
        short = [SimpleNamespace(kind="A-cell")] * 4
        assert policy.rank_candidates("ab", short, 0, 0) is short
        long = [SimpleNamespace(kind="A-cell")] * 10
        assert len(policy.rank_candidates("ab", long, 0, 0)) == 5

    def test_greedy_stops_on_first_nonimproving_move(self):
        policy = make_policy("greedy")
        assert policy.budgets(4, 10) == (8, 10)
        assert policy.stop_step(SimpleNamespace(cost_after=10.0), 10.0, 0)
        assert policy.stop_step(SimpleNamespace(cost_after=10.1), 10.0, 0)
        assert not policy.stop_step(SimpleNamespace(cost_after=9.9), 10.0, 0)

