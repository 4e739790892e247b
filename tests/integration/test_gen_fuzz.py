"""Generative differential-fuzzing gates (see repro.gen.fuzz).

Two tiers:

* **smoke slice** (PR-gating, unmarked): a few fixed seeds through the
  full differential round — end-to-end synthesis, RTL verification,
  validate-mode bit-identity, one cold/warm persistent-store
  cross-check.
* **fuzz gate** (``-m fuzz``, nightly): 200 seeded designs through the
  same oracle, fanned out over worker processes.  Any failure report
  carries its seed, which replays in isolation via::

      PYTHONPATH=src python benchmarks/fuzz_designs.py --replay SEED
"""

import dataclasses
import os
import random
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import SynthesisError
from repro.gen import GenConfig, fuzz
from repro.gen.fuzz import check_seed

#: Smaller shapes for the PR-gating slice: same code paths (hierarchy,
#: variants, constants, store), a fraction of the synthesis cost.
SMOKE_CONFIG = dataclasses.replace(
    GenConfig(),
    ops_per_dfg=(2, 4),
    n_behaviors=(1, 1),
    variants_per_behavior=(1, 2),
    n_samples=8,
)

#: Fixed base seed of the 200-design gate (a new seed every night comes
#: from the nightly workflow passing ``--seed $GITHUB_RUN_ID`` to the
#: benchmarks driver instead).
GATE_BASE_SEED = 1998


def _gate_round(task: tuple[int, bool]) -> tuple[int, list[str]]:
    seed, store_check = task
    outcome = check_seed(seed, SMOKE_CONFIG, store_check=store_check)
    return seed, outcome.failures


class TestSmokeSlice:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fixed_seed_differential_round(self, seed):
        # Seed 0 additionally runs the cold/warm persistent-store
        # cross-check (the most expensive oracle, once is enough here).
        outcome = check_seed(seed, SMOKE_CONFIG, store_check=(seed == 0))
        assert outcome.checks >= 2
        assert outcome.ok, "\n".join(
            f"[seed {seed}] {f} — replay: PYTHONPATH=src python "
            f"benchmarks/fuzz_designs.py --replay {seed}"
            for f in outcome.failures
        )


class TestValidateModeOracle:
    """The round's second run prices in validate mode; a divergence it
    raises or returns is a round failure, not a pass or a crash."""

    @staticmethod
    def _round(monkeypatch, tamper):
        real = fuzz._synthesize

        def synthesize(*args, validate_incremental=False, **kwargs):
            result = real(*args, **kwargs)
            return tamper(result) if validate_incremental else result

        monkeypatch.setattr(fuzz, "_synthesize", synthesize)
        return check_seed(1, SMOKE_CONFIG)

    def test_raised_divergence_is_a_round_failure(self, monkeypatch):
        def raises(_result):
            raise SynthesisError("incremental evaluation diverged")

        outcome = self._round(monkeypatch, raises)
        assert outcome.checks == 2
        assert outcome.failures == [
            "validate-mode run raised: incremental evaluation diverged"
        ]

    def test_returned_divergence_is_a_round_failure(self, monkeypatch):
        outcome = self._round(
            monkeypatch,
            lambda result: dataclasses.replace(
                result, clk_ns=result.clk_ns * 2
            ),
        )
        assert outcome.checks == 2
        [failure] = outcome.failures
        assert failure.startswith(
            "validate-mode run diverged from the base run"
        )


@pytest.mark.fuzz
class TestFuzzGate:
    def test_200_generated_designs(self):
        seeder = random.Random(GATE_BASE_SEED)
        tasks = [
            (seeder.randrange(1 << 30), k % 16 == 0) for k in range(200)
        ]
        workers = min(8, os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_gate_round, tasks, chunksize=4))
        failures = [
            f"[seed {seed}] {failure}"
            for seed, fails in results
            for failure in fails
        ]
        assert not failures, (
            f"{len(failures)} differential failures "
            "(replay: benchmarks/fuzz_designs.py --replay SEED):\n"
            + "\n".join(failures)
        )
