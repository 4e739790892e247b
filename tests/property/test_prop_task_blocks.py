"""Property: task blocks shared through clones never go stale.

:meth:`~repro.synthesis.solution.Solution.tasks` reuses the per-instance
:class:`~repro.synthesis.solution.TaskBlock` s a clone inherits from its
parent, and with them the tasks' cached scheduler wiring and the
blocks' cached schedule-key parts and signature texts.  This walks
random move sequences on the move fuzzer's random designs
(``benchmarks/fuzz_moves.py``), materializes every candidate of the
relational engine and of the per-pair reference loops
(``tests/reference_discovery.py``), and requires of each one:

* its tasks, task signature and schedule-length bound equal a
  derivation from scratch;
* the engine's schedule of its shared tasks equals the stepped
  reference scheduler's schedule of fresh tasks, field for field;
* its schedule store digest equals the digest of the full content key;
* its schedule key equals another candidate's exactly when their graph
  identity and task signature are equal.

The walk ends with a clone whose operating point is reassigned after
cloning, the idiom of ``voltage_scale`` and the corner sweep.
"""

import random
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from fuzz_moves import random_design  # noqa: E402

from repro.dfg.canonical import graph_signature  # noqa: E402
from repro.library import default_library  # noqa: E402
from repro.library.voltage import SUPPLY_VOLTAGES  # noqa: E402
from repro.power import simulate_subgraph, white_traces  # noqa: E402
from repro.scheduling import TaskSpec, schedule_tasks  # noqa: E402
from repro.synthesis.caching import HashedKey  # noqa: E402
from repro.synthesis.context import SynthesisConfig, SynthesisEnv  # noqa: E402
from repro.synthesis.costs import schedule_digest  # noqa: E402
from repro.synthesis.initial import initial_solution  # noqa: E402
from repro.synthesis.moves import (  # noqa: E402
    _min_schedule_length,
    sharing_candidates,
    splitting_candidates,
    type_a_b_candidates,
)
from repro.synthesis.relational import RelationalView  # noqa: E402
from repro.synthesis.store import digest_content  # noqa: E402
from tests.reference_discovery import ReferenceView  # noqa: E402
from tests.reference_scheduler import stepped_schedule_tasks  # noqa: E402

DISCOVER = (type_a_b_candidates, sharing_candidates, splitting_candidates)


def fresh_tasks(solution) -> list[TaskSpec]:
    """Every task of *solution*, derived without any cache."""
    clk_ns, vdd = solution.clk_ns, solution.vdd
    tasks = []
    for inst_id, execs in solution.executions.items():
        inst = solution.instances[inst_id]
        for k, group in enumerate(execs):
            task_id = f"{inst_id}#{k}"
            if inst.is_module:
                (node_id,) = group
                behavior = solution.dfg.node(node_id).behavior
                prof = inst.module.profile(behavior).at(clk_ns, vdd)
                tasks.append(TaskSpec(
                    task_id, (node_id,), inst_id, duration=prof.busy_cycles,
                    input_offsets={
                        (node_id, p): off
                        for p, off in enumerate(prof.input_offsets)
                    },
                    output_latency={
                        (node_id, p): lat
                        for p, lat in enumerate(prof.output_latencies)
                    },
                ))
            else:
                duration = inst.cell.delay_cycles(clk_ns, vdd)
                tasks.append(TaskSpec(
                    task_id, tuple(group), inst_id, duration=duration,
                    output_latency={(node, 0): duration for node in group},
                    initiation_interval=inst.cell.initiation_interval(
                        clk_ns, vdd
                    ),
                ))
    return tasks


def fresh_signature(tasks) -> tuple:
    return tuple(
        (
            t.task_id, t.nodes, t.instance, t.duration, t.initiation_interval,
            tuple(sorted(t.input_offsets.items())),
            tuple(sorted(t.output_latency.items())),
        )
        for t in tasks
    )


def fresh_bound(tasks) -> int:
    per_instance: dict[str, list[TaskSpec]] = {}
    for t in tasks:
        per_instance.setdefault(t.instance, []).append(t)
    return max(
        (
            (len(ts) - 1) * min(t.initiation_interval or t.duration for t in ts)
            + min(t.duration for t in ts)
            for ts in per_instance.values()
        ),
        default=0,
    )


SCHEDULE_FIELDS = (
    "start", "finish", "avail", "length", "instance_order", "task_of_node"
)


class KeyCensus:
    """Schedule keys seen so far, each against its full key: the two
    must map one to one."""

    def __init__(self):
        self.full_of: dict[HashedKey, HashedKey] = {}
        self.key_of: dict[HashedKey, HashedKey] = {}

    def add(self, solution) -> None:
        key = solution.schedule_key()
        full = HashedKey((id(solution.dfg), solution.task_signature()))
        assert self.full_of.setdefault(key, full) == full
        assert self.key_of.setdefault(full, key) == key


def assert_fresh(solution, census: KeyCensus) -> None:
    expected = fresh_tasks(solution)
    assert solution.tasks() == expected
    assert solution.task_signature() == fresh_signature(expected)
    assert _min_schedule_length(solution) == fresh_bound(expected)

    got = schedule_tasks(solution.dfg, solution.tasks())
    want = stepped_schedule_tasks(solution.dfg, expected)
    for name in SCHEDULE_FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    assert schedule_digest(solution) == digest_content(
        ("schedule", graph_signature(solution.dfg), solution.task_signature())
    )
    census.add(solution)


@given(
    seed=st.integers(0, 1 << 16),
    walk=st.lists(
        st.tuples(st.booleans(), st.integers(0, 1 << 16)), min_size=1, max_size=3
    ),
    vdd=st.sampled_from(SUPPLY_VOLTAGES[1:]),
    clk_ns=st.sampled_from((3.0, 7.0, 20.0)),
)
@settings(max_examples=12, deadline=None)
def test_candidate_tasks_match_fresh_derivation(seed, walk, vdd, clk_ns):
    rng = random.Random(seed)
    design = random_design(rng)
    top = design.top
    traces = white_traces(top, n=8, seed=seed)
    sim = simulate_subgraph(design, top, [traces[n] for n in top.inputs])
    config = SynthesisConfig(max_share_pairs=8, max_split_candidates=4)
    env = SynthesisEnv(design, default_library(), "power", config)
    solution = initial_solution(env, top, sim, 10.0, 5.0, 2000.0)
    census = KeyCensus()
    assert_fresh(solution, census)
    for relational, pick in walk:
        view = (RelationalView if relational else ReferenceView)(
            env, solution, frozenset()
        )
        candidates = []
        for discover in DISCOVER:
            candidates += discover(env, solution, sim, frozenset(), view=view)
        if not candidates:
            break
        for cand in candidates:
            assert_fresh(cand.solution, census)
        solution = candidates[pick % len(candidates)].solution

    # Clone, then reassign the supply, the clock or both directly.
    for point in ({"vdd": vdd}, {"clk_ns": clk_ns}, {"vdd": vdd, "clk_ns": clk_ns}):
        scaled = solution.clone()
        for name, value in point.items():
            setattr(scaled, name, value)
        assert_fresh(scaled, census)
    # Re-deriving the clones' blocks left the parent's untouched.
    assert_fresh(solution, census)
