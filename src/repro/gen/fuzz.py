"""Generative differential fuzzing: one seed, one end-to-end round.

:func:`check_seed` is the oracle shared by the CI smoke/gate tests
(``tests/integration/test_gen_fuzz.py``) and the standalone driver
(``benchmarks/fuzz_designs.py``).  A round is a **pure function of its
seed** (plus the generator config), so any failure replays exactly::

    PYTHONPATH=src python benchmarks/fuzz_designs.py --replay SEED

One round:

1. generate the design + paired stimulus from the seed;
2. synthesize end-to-end (complex-module library build included) under
   a seed-derived objective;
3. differentially verify the winning RTL against the behavioral
   simulation (:meth:`SynthesisResult.verify`);
4. re-synthesize in validate mode, which re-prices every batch-priced
   and delta-priced candidate from scratch and raises on any bitwise
   difference, and demand a **bit-identical** outcome (metrics and
   structural solution signature);
5. optionally run cold-then-warm against one persistent synthesis
   store and demand cold = warm = uncached, all bit-identical.

Failures are shrunk (:func:`repro.gen.shrink.shrink_design`) under a
predicate that re-runs the *whole* failing check, so the reduced design
is a genuine reproducer, not just a smaller design.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass, field

from ..dfg.hierarchy import Design
from ..errors import SynthesisError
from ..library import default_library
from ..power.traces import TraceSet, image_traces, speech_traces, white_traces
from ..reporting import quick_config
from ..synthesis import synthesize
from ..synthesis.api import SynthesisResult
from ..synthesis.library_gen import build_complex_library
from ..synthesis.store import solution_signature
from .generator import GenConfig, generate_design
from .shrink import shrink_design

__all__ = ["FuzzOutcome", "check_design", "check_seed", "shrink_failing_seed"]

_STIMULUS = {
    "white": white_traces,
    "speech": speech_traces,
    "image": image_traces,
}

#: Default laxity factor: loose enough that generated designs are
#: routinely feasible, tight enough that scheduling/binding is exercised.
DEFAULT_LAXITY = 2.0


@dataclass
class FuzzOutcome:
    """Result of one differential round."""

    seed: int
    design_name: str
    objective: str
    #: Differential checks executed (verify + cross-checks).
    checks: int = 0
    #: Human-readable failure reports; empty = round passed.
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the round passed every check."""
        return not self.failures


def _objective_for(seed: int) -> str:
    return random.Random(f"repro.gen.fuzz:{seed}").choice(("area", "power"))


def _metrics_key(result: SynthesisResult) -> tuple:
    """Everything a bit-identity cross-check compares, floats exact."""
    m = result.metrics
    return (
        result.vdd,
        result.clk_ns,
        result.sampling_ns,
        m.area,
        m.energy_per_sample,
        m.power,
        m.schedule_length,
        m.feasible,
    )


def _synthesize(
    design: Design,
    traces: TraceSet,
    objective: str,
    laxity: float,
    n_samples: int,
    *,
    validate_incremental: bool = False,
    cache_dir: str | None = None,
) -> SynthesisResult:
    config = quick_config()
    config.validate_incremental = validate_incremental
    config.cache_dir = cache_dir
    library = default_library()
    if any(dfg.hier_nodes() for dfg in design.dfgs()):
        library = build_complex_library(design, library, config=config)
    return synthesize(
        design,
        library,
        laxity_factor=laxity,
        objective=objective,
        traces=traces,
        config=config,
        n_samples=n_samples,
    )


def check_design(
    design: Design,
    traces: TraceSet,
    objective: str,
    *,
    seed: int = -1,
    laxity: float = DEFAULT_LAXITY,
    n_samples: int = 16,
    store_check: bool = False,
) -> FuzzOutcome:
    """Run the full differential round on an explicit design.

    Split out from :func:`check_seed` so the shrinker can re-run the
    identical check on reduced designs.
    """
    outcome = FuzzOutcome(seed=seed, design_name=design.name,
                          objective=objective)

    base = _synthesize(design, traces, objective, laxity, n_samples)
    outcome.checks += 1
    verdict = base.verify()
    if not verdict.ok:
        assert verdict.counterexample is not None
        outcome.failures.append(
            f"differential verification: {verdict.counterexample.describe()}"
        )
        return outcome  # later cross-checks would re-hit the same bug

    outcome.checks += 1
    try:
        validated = _synthesize(
            design, traces, objective, laxity, n_samples,
            validate_incremental=True,
        )
    except SynthesisError as exc:
        outcome.failures.append(f"validate-mode run raised: {exc}")
    else:
        if _metrics_key(base) != _metrics_key(validated):
            outcome.failures.append(
                "validate-mode run diverged from the base run: "
                f"base={_metrics_key(base)} "
                f"validated={_metrics_key(validated)}"
            )
        elif solution_signature(base.solution, design) != solution_signature(
            validated.solution, design
        ):
            outcome.failures.append(
                "validate-mode run chose a structurally different solution"
            )

    if store_check:
        with tempfile.TemporaryDirectory(prefix="repro-fuzz-store-") as tmp:
            cold = _synthesize(
                design, traces, objective, laxity, n_samples, cache_dir=tmp
            )
            warm = _synthesize(
                design, traces, objective, laxity, n_samples, cache_dir=tmp
            )
        outcome.checks += 2
        for label, run in (("cold", cold), ("warm", warm)):
            if _metrics_key(run) != _metrics_key(base):
                outcome.failures.append(
                    f"{label}-store run diverged from uncached: "
                    f"{label}={_metrics_key(run)} uncached={_metrics_key(base)}"
                )
            elif solution_signature(run.solution, design) != (
                solution_signature(base.solution, design)
            ):
                outcome.failures.append(
                    f"{label}-store run chose a structurally different solution"
                )
    return outcome


def check_seed(
    seed: int,
    config: GenConfig | None = None,
    *,
    laxity: float = DEFAULT_LAXITY,
    store_check: bool = False,
) -> FuzzOutcome:
    """One differential round, a pure function of ``(seed, config)``."""
    config = config or GenConfig()
    gen = generate_design(seed, config)
    return check_design(
        gen.design,
        gen.traces,
        _objective_for(seed),
        seed=seed,
        laxity=laxity,
        n_samples=config.n_samples,
        store_check=store_check,
    )


def shrink_failing_seed(
    seed: int,
    config: GenConfig | None = None,
    *,
    laxity: float = DEFAULT_LAXITY,
    store_check: bool = False,
    max_checks: int = 40,
) -> Design:
    """Minimize the design behind a failing seed.

    The predicate re-runs the complete differential round on each
    candidate with freshly derived stimulus (trace arrays are keyed to
    the *original* top level's inputs, which reductions may drop), so
    every kept reduction still exhibits a genuine failure.
    """
    config = config or GenConfig()
    gen = generate_design(seed, config)
    objective = _objective_for(seed)
    stimulus = _STIMULUS[config.stimulus]
    trace_seed = seed & 0x7FFFFFFF

    def still_failing(candidate: Design) -> bool:
        traces = stimulus(
            candidate.top, n=config.n_samples, seed=trace_seed
        )
        outcome = check_design(
            candidate,
            traces,
            objective,
            seed=seed,
            laxity=laxity,
            n_samples=config.n_samples,
            store_check=store_check,
        )
        return not outcome.ok

    return shrink_design(gen.design, still_failing, max_checks=max_checks)
