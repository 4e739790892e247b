"""Priors-transfer gate: mined priors must cut evaluations on a clone.

A priors-guided search warm-started from statistics mined on one design
must converge in fewer pricing evaluations than the same search cold on
a *structurally similar* design — here an identifier-renamed clone,
which the iso-invariant fingerprints from ``repro.dfg.canonical`` map
to the same priors entry.  Final metrics are recorded so quality
regressions are visible alongside the evaluation savings.

Writes ``results/priors_transfer.txt``.  Run with::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_priors_transfer.py
"""

from __future__ import annotations

import dataclasses
import time

from repro.dfg import parse_design
from repro.dfg.canonical import design_fingerprint
from repro.gen import GenConfig, generate_design
from repro.search.priors import mine_events, save_priors
from repro.synthesis import SynthesisConfig, synthesize
from repro.synthesis.store import SynthesisStore

from conftest import save_result

_PRIORS_SEED = 7
_PRIORS_SAMPLING_NS = 600.0
_PRIORS_SAMPLES = 12


def _config(**overrides) -> SynthesisConfig:
    base = SynthesisConfig(
        max_passes=2,
        max_moves=6,
        max_ab_targets=4,
        max_share_pairs=8,
        max_split_candidates=4,
        n_clocks=2,
        resynth_passes=1,
        resynth_moves=4,
    )
    return dataclasses.replace(base, **overrides)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _rename_clone(text: str) -> str:
    """Systematically rename every identifier in a design text.

    The clone is graph-isomorphic to the original but shares no names
    with it — the strongest "structurally similar, textually distinct"
    design we can construct, and exactly the case the iso-invariant
    priors fingerprint must see through.
    """
    renamed = []
    for line in text.splitlines():
        tokens = line.split()
        if not tokens:
            renamed.append(line)
            continue
        head = tokens[0]

        def _rn(token: str) -> str:
            return token if _is_number(token) else "q" + token

        if head in ("design", "top"):
            tokens = [head] + [_rn(t) for t in tokens[1:]]
        elif head == "dfg":
            new = [head, _rn(tokens[1])]
            rest = tokens[2:]
            i = 0
            while i < len(rest):
                if rest[i] == "behavior":
                    new += ["behavior", _rn(rest[i + 1])]
                    i += 2
                else:
                    new.append(rest[i])
                    i += 1
            tokens = new
        elif head in ("input", "const"):
            tokens = [head, "q" + tokens[1]] + tokens[2:]
        elif head == "op":
            tokens = [head, "q" + tokens[1], tokens[2]]
            tokens += [_rn(t) for t in line.split()[3:]]
        elif head in ("hier", "output"):
            tokens = [head] + [_rn(t) for t in tokens[1:]]
        renamed.append(" ".join(tokens))
    return "\n".join(renamed) + "\n"


def _priors_transfer():
    gen = generate_design(_PRIORS_SEED, GenConfig())
    clone = parse_design(_rename_clone(gen.text), source="<renamed clone>")
    fp_original = design_fingerprint(gen.design, gen.design.top)
    fp_clone = design_fingerprint(clone, clone.top)
    assert fp_original == fp_clone, (
        "the renamed clone must hash to the original's iso-invariant "
        "fingerprint — priors transfer depends on it"
    )

    cold_config = _config(search_policy="priors", trace=True,
                          trace_timings=False)
    started = time.perf_counter()
    cold = synthesize(
        gen.design, sampling_ns=_PRIORS_SAMPLING_NS, objective="power",
        config=cold_config, n_samples=_PRIORS_SAMPLES,
    )
    cold_s = time.perf_counter() - started

    store = SynthesisStore()
    table = mine_events(cold.trace_events)
    save_priors(store, fp_original, table)

    started = time.perf_counter()
    warm = synthesize(
        clone, sampling_ns=_PRIORS_SAMPLING_NS, objective="power",
        config=_config(search_policy="priors"), n_samples=_PRIORS_SAMPLES,
        store=store,
    )
    warm_s = time.perf_counter() - started

    return {
        "gen_seed": _PRIORS_SEED,
        "mined_stats": len(table.stats),
        "cold_evaluations": cold.telemetry.evaluations,
        "warm_evaluations": warm.telemetry.evaluations,
        "cold_cost": cold.metrics.objective_value("power"),
        "warm_cost": warm.metrics.objective_value("power"),
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
    }


def test_priors_transfer():
    transfer = _priors_transfer()
    save_result("priors_transfer", "\n".join([
        "Priors transfer (gen design -> identifier-renamed clone)",
        "--------------------------------------------------------",
        f"seed {transfer['gen_seed']}, sampling "
        f"{_PRIORS_SAMPLING_NS:g} ns, {_PRIORS_SAMPLES} samples, "
        f"{transfer['mined_stats']} mined (regime, kind) entries",
        f"cold evaluations: {transfer['cold_evaluations']}   "
        f"(cost {transfer['cold_cost']:.4f}, {transfer['cold_s']:.2f} s)",
        f"warm evaluations: {transfer['warm_evaluations']}   "
        f"(cost {transfer['warm_cost']:.4f}, {transfer['warm_s']:.2f} s)",
        f"saved: {transfer['cold_evaluations'] - transfer['warm_evaluations']}"
        " pricing evaluations",
    ]))
    assert transfer["warm_evaluations"] < transfer["cold_evaluations"], (
        "priors-warm search must converge in fewer pricing evaluations "
        f"than cold: warm {transfer['warm_evaluations']} >= cold "
        f"{transfer['cold_evaluations']}"
    )
