"""Pluggable search policies.

The variable-depth improvement driver (:mod:`repro.synthesis.improve`)
runs the paper's fixed family order and delegates three decisions — the
pass/step budget, how to rank and truncate candidates within a step,
and when to cut a pass short — to a
:class:`~repro.search.policy.SearchPolicy`.  The default policy
reproduces the paper's scheme **byte-identically** (same traces, same
telemetry); ``deep`` and ``greedy`` explore differently.

:mod:`repro.search.policy` holds the policy interface, the built-in
policies and the registry that resolves
``SynthesisConfig.search_policy``.  See ``docs/SEARCH.md``.
"""

from .policy import (
    DefaultPolicy,
    SearchPolicy,
    available_policies,
    make_policy,
    register_policy,
)

__all__ = [
    "DefaultPolicy",
    "SearchPolicy",
    "available_policies",
    "make_policy",
    "register_policy",
]
