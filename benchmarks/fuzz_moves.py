"""Move fuzzer: random hierarchical designs, moves A-D, differential oracle.

Generates random hierarchical designs (a couple of random sub-behaviors
plus a top level mixing simple operations with hierarchical calls),
builds an initial architecture, and then hammers it with randomly chosen
candidates from the real move generators — type A/B replacements,
sharing/embedding (move C) and splitting (move D), discovered as the
improvement loop discovers them, through one relational view of the
current solution per step.  Every applied
candidate's RTL is executed by the cycle-accurate interpreter and
cross-checked against the behavioral simulation via
:func:`repro.verify.verify_solution`.

Any counterexample is a synthesis bug: it is printed (shrunk, with the
divergent output, cycle and round seed) and the script exits non-zero.
Runs until the time budget is exhausted::

    PYTHONPATH=src python benchmarks/fuzz_moves.py --budget 60 --seed 7

Each round is a pure function of its own seed, so a failure report's
``seed N`` replays in isolation::

    PYTHONPATH=src python benchmarks/fuzz_moves.py --replay N

The nightly CI job runs this with a 300 s budget (see
``.github/workflows/nightly.yml``).
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from repro.dfg import Design, GraphBuilder, Operation, validate_design
from repro.library import default_library
from repro.power import simulate_subgraph, white_traces
from repro.synthesis.context import SynthesisConfig, SynthesisEnv
from repro.synthesis.initial import initial_solution
from repro.synthesis.moves import (
    sharing_candidates,
    splitting_candidates,
    type_a_b_candidates,
)
from repro.synthesis.relational import RelationalView
from repro.verify import verify_solution

BINARY_OPS = (Operation.ADD, Operation.SUB, Operation.MULT)


def _random_body(
    b: GraphBuilder,
    rng: random.Random,
    inputs: list,
    n_ops: int,
    max_outputs: int,
    hier_calls: list[tuple[str, int, int]] | None = None,
) -> int:
    """Grow a random expression body; every node ends up reaching an output.

    Each input seeds at least one operation, and dangling results are
    folded together with adders until at most *max_outputs* sinks remain,
    which become the primary outputs.  Returns the output count.
    """
    wires = list(inputs)
    used: set = set()
    sinks: list = []
    n_ops = max(n_ops, len(inputs))
    for k in range(n_ops):
        if hier_calls is not None and rng.random() < 0.4:
            name, n_inputs, n_outputs = rng.choice(hier_calls)
            operands = [rng.choice(wires) for _ in range(n_inputs)]
            if k < len(inputs):
                operands[0] = inputs[k]
            call = b.hier(name, *operands, n_outputs=n_outputs)
            results = [call[p] for p in range(n_outputs)]
        else:
            lhs = inputs[k] if k < len(inputs) else rng.choice(wires)
            rhs = rng.choice(wires)
            operands = [lhs, rhs]
            results = [b.op(rng.choice(BINARY_OPS), lhs, rhs)]
        used.update(operands)
        wires.extend(results)
        sinks.extend(results)
    sinks = [w for w in sinks if w not in used]
    while len(sinks) > max_outputs:
        lhs, rhs = sinks.pop(rng.randrange(len(sinks))), sinks.pop()
        sinks.append(b.add(lhs, rhs))
    for o_idx, wire in enumerate(sinks):
        b.output(f"o{o_idx}", wire)
    return len(sinks)


def random_design(rng: random.Random) -> Design:
    """A random hierarchical design: sub-behaviors called from the top."""
    design = Design(f"fuzz_{rng.randrange(1 << 30)}")

    behaviors: list[tuple[str, int, int]] = []  # (name, n_inputs, n_outputs)
    for b_idx in range(rng.randint(1, 2)):
        name = f"beh{b_idx}"
        n_inputs = rng.randint(2, 3)
        b = GraphBuilder(f"{name}_impl", behavior=name)
        inputs = b.inputs(*[f"i{k}" for k in range(n_inputs)])
        n_outputs = _random_body(
            b, rng, inputs, rng.randint(2, 5), rng.randint(1, 2)
        )
        design.add_dfg(b.build())
        behaviors.append((name, n_inputs, n_outputs))

    top = GraphBuilder("top")
    inputs = top.inputs(*[f"x{k}" for k in range(rng.randint(2, 4))])
    _random_body(
        top, rng, inputs, rng.randint(3, 7), rng.randint(1, 2), behaviors
    )
    design.add_dfg(top.build(), top=True)
    validate_design(design)
    return design


def fuzz_one(
    round_seed: int, n_samples: int, steps: int
) -> tuple[int, int, list[str]]:
    """One fuzz round: fresh design, random move walk under the oracle.

    The whole round is a pure function of *round_seed* (reported with
    any failure), so one round replays in isolation via ``--replay``.
    Returns ``(checks, failures, reports)``.
    """
    rng = random.Random(round_seed)
    design = random_design(rng)
    library = default_library()
    top = design.top
    traces = white_traces(top, n=n_samples, seed=rng.randrange(1 << 30))
    sim = simulate_subgraph(design, top, [traces[n] for n in top.inputs])
    config = SynthesisConfig(max_share_pairs=8, max_split_candidates=4)
    objective = rng.choice(("area", "power"))
    env = SynthesisEnv(design, library, objective, config)
    # Generous budget: the fuzzer cares about equivalence, not feasibility.
    solution = initial_solution(env, top, sim, 10.0, 5.0, 2000.0)

    checks, failures, reports = 0, 0, []
    result = verify_solution(design, solution, sim=sim)
    checks += 1
    if not result.ok:
        failures += 1
        reports.append(
            f"[seed {round_seed} {design.name} {objective}] initial "
            f"solution: {result.counterexample.describe()}"
        )
        return checks, failures, reports

    for _step in range(steps):
        view = RelationalView(env, solution, frozenset())
        candidates = []
        for discover in (type_a_b_candidates, sharing_candidates,
                         splitting_candidates):
            candidates.extend(discover(env, solution, sim, frozenset(), view=view))
        if not candidates:
            break
        chosen = rng.choice(candidates)
        solution = chosen.solution
        if solution.register_conflicts():
            # A conflicted binding is priced as infeasible (infinite
            # cost) and can never be committed by the engine; its RTL
            # genuinely miscomputes, so the oracle would "fail" it for
            # the right reason.  Walk on without checking equivalence.
            continue
        result = verify_solution(design, solution, sim=sim)
        checks += 1
        if not result.ok:
            failures += 1
            reports.append(
                f"[seed {round_seed} {design.name} {objective}] after "
                f"{chosen.description}: {result.counterexample.describe()}"
            )
            break
    return checks, failures, reports


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", type=float, default=30.0,
                        help="wall-clock budget in seconds (default: 30)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base RNG seed (default: 0)")
    parser.add_argument("--samples", type=int, default=12,
                        help="trace samples per design (default: 12)")
    parser.add_argument("--steps", type=int, default=6,
                        help="random moves applied per design (default: 6)")
    parser.add_argument("--replay", type=int, default=None, metavar="SEED",
                        help="replay exactly one round with this round "
                             "seed (as printed in a failure report)")
    args = parser.parse_args(argv)

    if args.replay is not None:
        checks, failures, reports = fuzz_one(
            args.replay, args.samples, args.steps
        )
        print(f"replayed round seed {args.replay}: {checks} checks, "
              f"{failures} failures")
        for report in reports:
            print(f"FAIL {report}", file=sys.stderr)
        return 1 if failures else 0

    seeder = random.Random(args.seed)
    deadline = time.monotonic() + args.budget
    rounds = total_checks = total_failures = 0
    failures_seen: list[str] = []
    while time.monotonic() < deadline:
        round_seed = seeder.randrange(1 << 30)
        checks, failures, reports = fuzz_one(
            round_seed, args.samples, args.steps
        )
        rounds += 1
        total_checks += checks
        total_failures += failures
        failures_seen.extend(reports)

    print(f"fuzzed {rounds} random designs, {total_checks} differential "
          f"checks, {total_failures} failures")
    for report in failures_seen:
        print(f"FAIL {report}", file=sys.stderr)
    return 1 if total_failures else 0


if __name__ == "__main__":
    sys.exit(main())
