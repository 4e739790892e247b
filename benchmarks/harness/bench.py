"""Benchmark harness: end-to-end and per-layer metrics for four workloads.

Commands (from the repository root)::

    python3 benchmarks/harness/bench.py run --workload hier-power --seed 0
    python3 benchmarks/harness/bench.py run --workload flat-power --seed 0 --trace 1
    python3 benchmarks/harness/bench.py compare PARENT_DIR CHANGE_DIR
    python3 benchmarks/harness/bench.py report extras

``run`` times set-up in three fresh interpreters, then runs the workload
in a fourth (set-up, the fourth set-up sample, plus one timed pass),
checks every output outside the timed region and prints each metric as
``name value unit``.  With ``--trace 1`` the pass is traced and the run
prints the per-layer metrics instead.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``;
the full record goes to ``--out`` (default ``.bench_out/`` in the
repository root).

Every interpreter is pinned to one CPU and samples the host's speed
while it works (``hostspeed.py``); reported times are rescaled to a
nominal host speed, so a shared machine's slow phases do not read as
slow code.  Wall-clock times are printed beside them and recorded.

``BENCHMARK.json`` in the repository root names the workloads and the
metrics with their units, directions and bounds.  The program under test
is imported from ``src/``; without it the harness exits with code 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HARNESS = Path(__file__).resolve().parent
ROOT = HARNESS.parents[1]
SRC = ROOT / "src"
#: Set-up-only interpreters per run; the pass interpreter adds a sample.
SETUP_REPS = 3
CHILD_TIMEOUT_S = 170
#: End-to-end metrics that repeat exactly at a given seed.  Their
#: ``BENCHMARK.json`` bound covers only the spread across seeds, so
#: ``compare`` calls any seed-matched worsening WORSE.
EXACT_METRICS = frozenset({"cost_geomean"})


def load_spec() -> dict:
    """The benchmark definition (``BENCHMARK.json``)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing ({SRC / 'repro'})",
              file=sys.stderr)
        raise SystemExit(2)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# Child processes: one set-up, or set-up plus one timed pass
# ----------------------------------------------------------------------
def _telemetry_totals(outcomes) -> dict:
    totals = {"evaluations": 0, "cache_hits": 0, "cache_misses": 0,
              "delta_hits": 0, "store_hits": {}, "store_misses": {}}
    for o in outcomes:
        tel = o.result.telemetry
        for key in ("evaluations", "cache_hits", "cache_misses", "delta_hits"):
            totals[key] += getattr(tel, key)
        for key in ("store_hits", "store_misses"):
            for tier, n in getattr(tel, key).items():
                totals[key][tier] = totals[key].get(tier, 0) + n
    return totals


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.  Pool workers (service-mix) have been
    # joined by now, so RUSAGE_CHILDREN holds the largest of them.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def child_main(argv: list[str]) -> int:
    """``_child setup|pass WORKLOAD --seed N [--smoke] [--traced]``."""
    parser = argparse.ArgumentParser(prog="bench.py _child")
    parser.add_argument("kind", choices=("setup", "pass"))
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(SRC), str(HARNESS)]
    from hostspeed import SpeedProbe, pin_to_one_cpu

    pin_to_one_cpu()
    with SpeedProbe() as probe:
        record = _child_body(args, probe)
    print(json.dumps(record))
    return 0


def _child_body(args: argparse.Namespace, probe) -> dict:
    """Set-up, and for a ``pass`` child the timed pass; times are scaled."""
    t0 = time.perf_counter()
    import repro.cli  # noqa: F401 - the user-facing import, timed

    t_import = time.perf_counter()
    from workloads import WORKLOADS, geomean

    workload = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    state = workload.setup(args.seed, args.smoke, args.workdir)
    t_setup = time.perf_counter()
    setup = {"import_s": probe.scaled(t0, t_import),
             "setup_s": probe.scaled(t0, t_setup), "setup_wall_s": t_setup - t0}
    if args.kind == "setup":
        workload.close(state)
        return setup

    tracer = None
    if args.traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        t0 = time.perf_counter()
        try:
            output = workload.run(state)
        finally:
            run_s = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        checks = workload.check(state, output)
    finally:
        workload.close(state)
    batch_wall_s = output.end - output.start
    batch_s = probe.scaled(output.start, output.end)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "traced": args.traced,
        **setup,
        "batch_s": batch_s,
        "batch_wall_s": batch_wall_s,
        # Scaled over wall-clock time of the timed pass: applied to the
        # other times of the pass.
        "host_factor": batch_s / batch_wall_s,
        "ref_unit_ms": probe.median_unit_s() * 1e3,
        # Everything the tracer saw; more than batch_s on warm-rerun.
        "run_s": run_s,
        "cost_geomean": geomean(output.powers) if output.powers else 0.0,
        "extras": output.extras,
        "designs": {
            o.label: {"synth_s": o.seconds, "power": o.result.power,
                      "evaluations": o.result.telemetry.evaluations}
            for o in output.outcomes
        },
        "telemetry": _telemetry_totals(output.outcomes),
        "attempted": len(checks),
        "failures": [c.what for c in checks if not c.ok],
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        from tracing import wrapper_cost_ns

        summary = tracer.summary()
        record["spans"] = dataclasses.asdict(summary)
        record["wrapper_cost_ns"] = wrapper_cost_ns()
        if args.spans is not None:
            tracer.write_spans(args.spans)
            record["spans_file"] = str(args.spans)
    return record


def _run_child(argv: list[str]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Its own process group, so that the child's children (the service's
    # pool worker) are stopped with it on every way out of here:
    # timeout, SIGTERM, or a worker the child failed to shut down.
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "_child", *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"error: child {' '.join(argv[:2])} exited "
                         f"{proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def e2e_metrics(setups: list[float], untraced: dict) -> dict:
    """End-to-end metrics: median set-up and the untraced pass."""
    return {
        "setup_s": _median(setups),
        "batch_s": untraced["batch_s"],
        "cost_geomean": untraced["cost_geomean"],
        "peak_rss_mb": untraced["peak_rss_mb"],
    }


def _tier_ratio(tel: dict, tier: str) -> float:
    hits = sum(n for k, n in tel["store_hits"].items() if k.startswith(tier))
    misses = sum(n for k, n in tel["store_misses"].items() if k.startswith(tier))
    return _ratio(hits, hits + misses)


def tracing_cost_s(traced: dict) -> float:
    """Seconds the wrappers added to a traced pass: a lower bound.

    Span count times a per-span cost calibrated on a trivial function in
    a hot loop; cache pressure, argument forwarding and span-list growth
    of a real pass are left out.
    """
    sp = traced["spans"]
    plain_ns, counted_ns = traced["wrapper_cost_ns"]
    counted = sp["counted_spans"]
    return ((sp["spans"] - counted) * plain_ns + counted * counted_ns) / 1e9


def layer_metrics(traced: dict, import_s: float, units: dict[str, str]) -> dict:
    """Per-layer metrics of one traced pass record.

    Times (unit ``s``) and rates (``1/s``) are rescaled to the nominal
    host speed with the pass's own factor, as ``batch_s`` is.
    """
    sp = traced["spans"]
    calls, self_s, incl_s = sp["calls"], sp["self_s"], sp["incl_s"]
    counts = sp["counts"]
    tel = traced["telemetry"]
    prune = counts.get("synthesis.moves.prune", {})
    store = counts.get("synthesis.store", {})
    values = {
        "cli.import_s": import_s,
        "synthesis.library_gen.calls": calls["synthesis.library_gen"],
        "synthesis.library_gen.self_s": self_s["synthesis.library_gen"],
        "synthesis.library_gen.incl_s": incl_s["synthesis.library_gen"],
        "synthesis.improve.self_s": (self_s["synthesis.improve"]
                                     + self_s["synthesis.improve.resynth"]),
        "synthesis.improve.resynth_calls": calls["synthesis.improve.resynth"],
        "synthesis.improve.resynth_incl_s": sp["resynth_outer_incl_s"],
        "synthesis.moves.discover_self_s": self_s["synthesis.moves.discover"],
        "synthesis.moves.discovered":
            counts.get("synthesis.moves.discover", {}).get("discovered", 0),
        "synthesis.moves.prune_self_s": self_s["synthesis.moves.prune"],
        "synthesis.moves.prune_kept_ratio":
            _ratio(prune.get("kept", 0), prune.get("offered", 0)),
        "synthesis.relational.self_s": self_s["synthesis.relational"],
        "synthesis.costs.self_s": (self_s["synthesis.costs"]
                                   + self_s["synthesis.costs.schedule_of"]),
        "synthesis.costs.evaluations": tel["evaluations"],
        "synthesis.costs.cache_hit_ratio":
            _ratio(tel["cache_hits"], tel["evaluations"]),
        "synthesis.costs.delta_hit_ratio":
            _ratio(tel["delta_hits"], tel["cache_misses"]),
        "synthesis.incremental.plan_self_s": self_s["synthesis.incremental.plan"],
        "synthesis.incremental.finish_self_s":
            self_s["synthesis.incremental.finish"],
        "synthesis.datapath_build.calls": calls["synthesis.datapath_build"],
        "synthesis.datapath_build.self_s": self_s["synthesis.datapath_build"],
        "scheduling.calls": calls["scheduling"],
        "scheduling.self_s": self_s["scheduling"],
        "scheduling.memo_ratio": (
            1.0 - _ratio(calls["scheduling"],
                         calls["synthesis.costs.schedule_of"])
            if calls["synthesis.costs.schedule_of"] else 0.0
        ),
        "power.activity.calls": calls["power.activity"],
        "power.activity.requests":
            counts.get("power.activity", {}).get("requests", 0),
        "power.activity.self_s": self_s["power.activity"],
        "power.simulate.self_s": self_s["power.simulate"],
        "synthesis.initial.self_s": self_s["synthesis.initial"],
        "synthesis.store.calls": calls["synthesis.store"],
        "synthesis.store.self_s": self_s["synthesis.store"],
        "synthesis.store.hit_ratio":
            _ratio(store.get("hits", 0), store.get("lookups", 0)),
        "synthesis.store.persistent_hit_ratio": _tier_ratio(tel, "persistent."),
        "synthesis.store.run_hit_ratio": _tier_ratio(tel, "run."),
        "service.submit_self_s": self_s["service.submit"],
        "service.registry_self_s": self_s["service.registry"],
        # Lower-bound estimate: added time over the untraced time of the
        # same traced region.
        "trace.overhead": _ratio(tracing_cost_s(traced),
                                 traced["run_s"] - tracing_cost_s(traced)),
        "trace.coverage": _ratio(sp["covered_s"], traced["run_s"]),
        "trace.spans": sp["spans"],
    }
    values.update(traced["extras"])
    for label, design in traced["designs"].items():
        values[f"design.{label}.synth_s"] = design["synth_s"]
        values[f"design.{label}.evaluations"] = design["evaluations"]
    factor = traced["host_factor"]
    for name, value in values.items():
        if units.get(name) == "s":
            values[name] = value * factor
        elif units.get(name) == "1/s":
            values[name] = value / factor
    # Scaled in the set-up interpreters already.
    values["cli.import_s"] = import_s
    return values


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------
def _exit_on_sigterm(signum, frame) -> None:
    # Unwinds through _run_child, which stops the running child's group.
    raise SystemExit(128 + signum)


def cmd_run(args: argparse.Namespace) -> int:
    _require_program()
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    out = (args.out or ROOT / ".bench_out").resolve()
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}{'-trace' if args.trace else ''}"
    workdir = out / "work" / f"{stem}-{os.getpid()}"
    common = [args.workload, "--seed", str(args.seed),
              "--workdir", str(workdir)] + (["--smoke"] if args.smoke else [])

    try:
        children = [_run_child(["setup", *common])
                    for _ in range(1 if args.smoke else SETUP_REPS)]
        if args.trace:
            spans = out / f"{stem}-{os.getpid()}.spans.tsv.gz"
            timed = _run_child(["pass", *common, "--traced",
                                "--spans", str(spans)])
        else:
            timed = _run_child(["pass", *common])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # The pass interpreter's own set-up is one more sample.
    setups = [c["setup_s"] for c in children + [timed]]
    setup_walls = [c["setup_wall_s"] for c in children + [timed]]
    import_s = [c["import_s"] for c in children + [timed]]

    failures = timed["failures"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    # End-to-end metrics come from untraced runs only.
    metrics = layers = None
    if args.trace:
        layers = layer_metrics(timed, _median(import_s), units)
        reported = {m["name"]: layers.get(m["name"], 0.0)
                    for m in spec["per_layer"]}
        shown = layers
    else:
        metrics = e2e_metrics(setups, timed)
        reported = {m["name"]: metrics[m["name"]] for m in spec["end_to_end"]}
        # Wall-clock times, for reading only: they move with the host.
        shown = {**metrics, "setup_wall_s": _median(setup_walls),
                 "batch_wall_s": timed["batch_wall_s"], **timed["extras"]}
    for name, value in shown.items():
        print(f"{name} {value:.6g} {units.get(name, '')}".rstrip())
    for what in failures:
        print(f"FAILED CHECK: {what}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": bool(args.trace),
        "smoke": args.smoke, "metrics": metrics, "layers": layers,
        "setup_s_samples": setups, "setup_wall_s_samples": setup_walls,
        "import_s_samples": import_s,
        "attempted": timed["attempted"], "failures": failures, "pass": timed,
    }
    n = 0
    while (out / f"{stem}-{n}.json").exists():
        n += 1
    (out / f"{stem}-{n}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": not failures,
        "attempted": timed["attempted"],
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in reported.items()
        },
    }))
    return 0


# ----------------------------------------------------------------------
# compare: parent vs change, run by run
# ----------------------------------------------------------------------
def _load_runs(directory: Path) -> dict[tuple[str, bool], list[dict]]:
    runs: dict[tuple[str, bool], list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if "metrics" in record and not record.get("smoke"):
            runs.setdefault((record["workload"], record["trace"]), []).append(record)
    return runs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare_metric(parent: list[tuple[int, float]], change: list[tuple[int, float]],
                   better: str, bound: float | None, exact: bool = False) -> dict:
    """Compare one metric's runs of two sides (pairs matched by seed).

    An ``exact`` metric repeats bit for bit at a seed, so any pair in
    which the change is worse makes it WORSE, whatever the bound.
    """
    sign = 1.0 if better == "lower" else -1.0
    pv = [v for _, v in parent]
    cv = [v for _, v in change]
    p1, pm, p3 = _quartiles(pv)
    c1, cm, c3 = _quartiles(cv)
    by_seed = {}
    for seed, v in parent:
        by_seed.setdefault(seed, []).append(v)
    wins = losses = pairs = 0
    for seed, v in change:
        if by_seed.get(seed):
            p = by_seed[seed].pop(0)
            pairs += 1
            wins += sign * (p - v) > 0
            losses += sign * (v - p) > 0
    worsening = sign * (cm - pm) / abs(pm) if pm else 0.0
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(sign * (p - c) > 0 for p in pv for c in cv)
    if bound is None:
        verdict = "-"
    elif exact:
        verdict = ("unresolved" if not pairs else "WORSE" if losses
                   else "gain" if wins else "same")
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif worsening > bound:
        verdict = "WORSE"
    elif pairs and wins >= 0.9 * pairs and abs(cm - pm) > (p3 - p1):
        verdict = "gain"
    else:
        verdict = "same"
    return {"parent": (pm, p1, p3), "change": (cm, c1, c3),
            "won": _ratio(wins, pairs), "pairs": pairs,
            "worsening": worsening, "spread": spread, "verdict": verdict}


def cmd_compare(args: argparse.Namespace) -> int:
    spec = load_spec()
    parent, change = _load_runs(args.parent), _load_runs(args.change)
    groups = [("end_to_end", False, "metrics"), ("per_layer", True, "layers")]
    worse = 0
    for group, traced, field in groups:
        for workload in [w["name"] for w in spec["workloads"]]:
            p_runs = parent.get((workload, traced), [])
            c_runs = change.get((workload, traced), [])
            if not p_runs or not c_runs:
                continue
            print(f"\n{workload} ({group}; {len(p_runs)} parent, "
                  f"{len(c_runs)} change runs)")
            print(f"  {'metric':40s} {'parent median [q1, q3]':>32s} "
                  f"{'change median [q1, q3]':>32s} {'won':>5s}  verdict")
            for m in spec[group]:
                name = m["name"]
                pv = [(r["seed"], r[field].get(name, 0.0)) for r in p_runs]
                cv = [(r["seed"], r[field].get(name, 0.0)) for r in c_runs]
                row = compare_metric(pv, cv, m["better"], m.get("bound"),
                                     exact=name in EXACT_METRICS)
                worse += row["verdict"] == "WORSE"
                fmt = "{:.4g} [{:.4g}, {:.4g}]"
                print(f"  {name:40s} {fmt.format(*row['parent']):>32s} "
                      f"{fmt.format(*row['change']):>32s} "
                      f"{row['won']:5.2f}  {row['verdict']}")
    return 1 if worse else 0


# ----------------------------------------------------------------------
# report extras: search extras against the default at equal wall-clock
# ----------------------------------------------------------------------
def cmd_report_extras(args: argparse.Namespace) -> int:
    _require_program()
    sys.path[:0] = [str(SRC), str(HARNESS)]
    from repro.bench_suite import get_benchmark
    from repro.library import default_library
    from repro.power import speech_traces
    from repro.reporting import quick_config
    from repro.search import portfolio_synthesize
    from repro.synthesis import SynthesisConfig, library_gen
    from repro.synthesis.saturate import saturate_design
    from workloads import HIER_SUITE, LAXITY, OBJECTIVE, SAMPLES, hier_flow

    def portfolio_flow(design, library, traces, config):
        library = library_gen.build_complex_library(design, library, config=config)
        return portfolio_synthesize(
            design, library, laxity_factor=LAXITY, objective=OBJECTIVE,
            traces=traces, config=config, n_samples=SAMPLES, n_members=3,
        ).result

    def saturate_flow(design, library, traces, config):
        saturate_design(design)
        return hier_flow(design, library, traces, config)

    variants = [
        ("default", hier_flow, quick_config),
        ("default-full", hier_flow, SynthesisConfig),
        ("portfolio3", portfolio_flow, quick_config),
        ("saturate", saturate_flow, quick_config),
    ]
    lines = [
        f"Search extras against the default flow on the circuits with hier nodes "
        f"(power, laxity {LAXITY}, seed {args.seed}).",
        "'vs ref' compares an extra with the best default-policy run (quick or "
        "full effort) that took no longer: equal wall-clock.",
        "",
        f"{'design':17s} {'variant':13s} {'power':>10s} {'wall_s':>8s}  vs ref",
    ]
    for name in HIER_SUITE:
        runs = {}
        for label, flow, make_config in variants:
            design = get_benchmark(name)
            traces = speech_traces(design.top, n=SAMPLES, seed=args.seed)
            t0 = time.perf_counter()
            result = flow(design, default_library(), traces, make_config())
            runs[label] = (result.power, time.perf_counter() - t0)
        for label, (power, wall) in runs.items():
            note = ""
            if label in ("portfolio3", "saturate"):
                ref = min((runs[d] for d in ("default", "default-full")
                           if runs[d][1] <= wall), default=runs["default"])
                note = f"{100 * (power / ref[0] - 1):+.2f}%"
            lines.append(f"{name:17s} {label:13s} {power:10.5f} {wall:8.2f}  "
                         f"{note}".rstrip())
    text = "\n".join(lines)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bench.py", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one workload and print its metrics")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, default=0)
    # The BENCHMARK.json command is called with ``--seconds run_seconds``.
    # Every pass lasts longer than that, so a run always measures one pass.
    run.add_argument("--seconds", type=float, default=None,
                     help="accepted and ignored: a run measures one pass")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1),
                     help="trace the timed pass; print per-layer metrics")
    run.add_argument("--out", type=Path, default=None,
                     help="directory for run records and spans "
                          "(default: .bench_out/ in the repository root)")
    run.add_argument("--smoke", action="store_true",
                     help="one design / six jobs, one set-up (for tests)")
    compare = sub.add_parser("compare", help="compare two directories of runs")
    compare.add_argument("parent", type=Path)
    compare.add_argument("change", type=Path)
    report = sub.add_parser("report", help="ungated reports")
    report.add_argument("report", choices=("extras",))
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--out", type=Path, default=None,
                        help="also write the table to this file")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["_child"]:
        return child_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "compare":
        return cmd_compare(args)
    return cmd_report_extras(args)


if __name__ == "__main__":
    sys.exit(main())
