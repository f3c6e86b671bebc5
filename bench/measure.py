"""Measure one workload end to end with tracing off, or per layer, traced.

End to end (``--trace 0``): run the experiment once serially as the byte
reference, then for ``--seconds`` alternate a timed set-up with a pooled
``harness.run_experiment`` at a fixed worker count, and report medians
over the repeats.

Traced (``--trace 1``): run the experiment once pooled as the byte
reference (and warm-up), then repeat, for ``--seconds``, a pooled run and
two serial runs, one plain and one with spans around every public function
named in ``spans.layer_boundaries``.  Per-layer times are
medians over the traced runs; counts must repeat exactly across them.  A
count pass and a 1-step engine probe, both untraced, add the useful share
of proposals and the fixed cost per engine call.

The machine's speed drifts by tens of percent over minutes, which no
median within one run removes.  So each run also times a fixed
calibration loop, in short samples between the timed calls, and reports
every time at the reference speed: measured time x
REFERENCE_CALIBRATION_S / median calibration sample (rates the other way
round).  The results file keeps the measured values.

Every run checks the program's output; see ``workloads.failed_trials``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import multiprocessing
import os
import platform
import resource
import subprocess
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import annealbench
from annealbench import dynamics as dy
from annealbench import graph_core as gc
from annealbench import harness as hz

import spans
from workloads import (
    ROOT,
    WORKLOADS,
    Workload,
    bundled_seed,
    chain_engine,
    exact_alpha,
    failed_trials,
    write_config,
)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = Path(__file__).resolve().parent / "out"

WORKERS = min(2, len(os.sched_getaffinity(0)))
MIN_REPS = 3
SETUP_SECONDS = 0.25  # set-up repeated for at least this long per experiment
# Proposals per schedule in the count pass: four of the engine's 2**15
# draw chunks, so the prefix follows the full trial's trajectory.
COUNT_PREFIX = 4 * 32768
TIMED_REPEATS = 3
PROBE_CALLS = 200
CALIBRATION_SAMPLES = 5  # per gap between timed calls
REFERENCE_CALIBRATION_S = 0.0125  # calibration_s at the reference speed
SCALE_POWER = {"s": 1, "ms": 1, "us": 1, "1/s": -1}  # by unit

# Reported (printed and written) but not in BENCHMARK.json: failed_frac is
# 0 when the program is correct and reaches the driver as failed/attempted;
# segment time is exactly 0 on bip_greedy, which runs no schedule.
EXTRA_UNITS = {"failed_frac": "ratio", "schedules.segment_s": "s"}


def calibration_s() -> float:
    """Time of a fixed pure-Python loop.  It never calls annealbench, so a
    change to the program cannot move it; only the machine's speed does."""
    t0 = perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(50_000):
        table[i & 4095] = i
        total += table.get((i * 7) & 4095, 0)
    return perf_counter() - t0


def calibrate(samples: list[float]) -> None:
    samples.extend(calibration_s() for _ in range(CALIBRATION_SAMPLES))


def at_reference_speed(metrics: dict, units: dict[str, str], scale: float) -> dict:
    """Times multiplied by ``scale``, rates divided by it, the rest unchanged."""
    power = {k: SCALE_POWER.get(units.get(k), 0) for k in metrics}
    return {k: v * scale ** power[k] if power[k] else v for k, v in metrics.items()}


def cpu_seconds() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024.0


@dataclass
class Run:
    wall: float
    cpu: float
    rows: list[dict]
    data: bytes  # run.csv


def run_experiment(cfg: hz.ExperimentConfig, workers: int) -> Run:
    cpu0 = cpu_seconds()
    t0 = perf_counter()
    manifest = hz.run_experiment(cfg, workers=workers)
    wall = perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    return Run(wall, cpu, manifest.rows, (Path(cfg.out_dir) / "run.csv").read_bytes())


@dataclass
class Checks:
    trials: int
    alpha: int
    attempted: int = 0
    failed: int = 0
    counts_ok: bool = True  # counts repeat across traced runs and are exact

    def add(self, data: bytes, reference: bytes, also_failed: set = frozenset()) -> None:
        bad = failed_trials(data, reference, self.trials, self.alpha) | set(also_failed)
        self.attempted += self.trials
        self.failed += len(bad)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.counts_ok


@dataclass
class Measurement:
    metrics: dict  # as measured
    checks: Checks
    calibration: list[float]
    details: dict


def time_setup(cfg: hz.ExperimentConfig, seconds: float) -> list[float]:
    """Times of build_instance + neighbor_lists, repeated for ``seconds``
    (at least once)."""
    times: list[float] = []
    start = perf_counter()
    while not times or perf_counter() - start < seconds:
        t0 = perf_counter()
        hz.build_instance(cfg).graph.neighbor_lists
        times.append(perf_counter() - t0)
    return times


def end_to_end(wl: Workload, cfg: hz.ExperimentConfig, seconds: float) -> Measurement:
    checks = Checks(cfg.total_trials, exact_alpha(wl, hz.build_instance(cfg)))
    reference = run_experiment(cfg, 1).data
    checks.add(reference, reference)
    # Set-ups, experiments and calibration samples alternate, so all sample
    # the same stretch of a machine whose speed drifts.
    calibration, setups, walls, cpus, trial_rates, proposal_rates = [], [], [], [], [], []
    start = perf_counter()
    while len(walls) < MIN_REPS or perf_counter() - start < seconds:
        calibrate(calibration)
        setups += time_setup(cfg, SETUP_SECONDS)
        calibrate(calibration)
        run = run_experiment(cfg, WORKERS)
        checks.add(run.data, reference)
        proposals = sum(int(r["steps"]) for r in run.rows)
        walls.append(run.wall)
        cpus.append(run.cpu)
        trial_rates.append(len(run.rows) / run.wall)
        proposal_rates.append(proposals / run.wall)
    metrics = {
        "wall_s": median(walls),
        "setup_s": median(setups),
        "cpu_s": median(cpus),
        "trials_per_s": median(trial_rates),
        "proposals_per_s": median(proposal_rates),
        "peak_rss_mb": peak_rss_mib(),
    }
    samples = {"wall_s": walls, "setup_s": setups, "cpu_s": cpus}
    return Measurement(metrics, checks, calibration, {"repeats": len(walls), "samples": samples})


# ---------------------------------------------------------------------------
# Traced run


def checked_engines(tracer: spans.Tracer, failures: set) -> list:
    """Engine replacements that check each trial's final set is independent.

    They sit outside the traced engine call; the check gets its own span,
    so it counts neither as engine nor as harness time.
    """

    def chain(engine):
        sig = inspect.signature(engine)

        def run(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            graph = next(iter(bound.arguments.values()))
            rec = bound.arguments.get("recorder") or dy.RecorderConfig()
            bound.arguments["recorder"] = replace(rec, keep_final_state=True)
            record = engine(*bound.args, **bound.kwargs)
            with tracer.span(spans.CHECK):
                final = record.final_state
                if len(final) != record.final_size or not gc.is_independent(graph, final):
                    failures.add(tracer.trial)
            return record

        return run

    def greedy(engine):
        def run(g, *args, **kwargs):
            chosen, record = engine(g, *args, **kwargs)
            with tracer.span(spans.CHECK):
                if len(chosen) != record.final_size or not gc.is_independent(g, chosen):
                    failures.add(tracer.trial)
            return chosen, record

        return run

    return [
        (dy, "run_ump", chain(dy.run_ump)),
        (dy, "run_ct_ump", chain(dy.run_ct_ump)),
        (dy, "run_randomized_greedy", greedy(dy.run_randomized_greedy)),
    ]


def layer_metrics(tracer: spans.Tracer, run: Run, plain_wall: float, pooled_wall: float, edges: int) -> dict:
    """Per-layer metrics of one traced serial ``run``; ``plain_wall`` and
    ``pooled_wall`` are the untraced serial and pooled runs of the same
    repeat."""
    own = tracer.self_times()

    def durations(names) -> list[float]:
        return [s.duration for s in tracer.spans if s.name in names]

    def self_total(names) -> float:
        return sum(o for s, o in zip(tracer.spans, own) if s.name in names)

    generators = {s.name for s in tracer.spans if s.name.startswith("instance_gen.")}
    engine = durations(spans.ENGINES)
    check_s = sum(durations([spans.CHECK]))
    build_s = sum(durations(["graph_core.build_graph"]))
    setup_s = sum(
        s.duration
        for s in tracer.spans
        if s.parent is None and s.name in ("harness.build_instance", "graph_core.neighbor_lists")
    )
    return {
        "dynamics.proposals_per_s": sum(int(r["steps"]) for r in run.rows) / sum(engine),
        "dynamics.engine_s": self_total(spans.ENGINES),
        "dynamics.trial_ms_p50": 1e3 * float(np.quantile(engine, 0.5)),
        "dynamics.trial_ms_tail": 1e3 * float(np.quantile(engine, 0.9)),
        "rng.stream_open_us": 1e6 * median(durations(["rng.stream"])),
        "rng.streams_opened": len(durations(["rng.stream"])),
        "instance_gen.generate_s": self_total(generators),
        "graph_core.build_graph_s": build_s,
        "graph_core.build_edges_per_s": edges / build_s,
        "graph_core.neighbor_lists_s": sum(durations(["graph_core.neighbor_lists"])),
        "graph_core.alpha_s": median(durations(spans.ALPHA_ORACLES)),
        "schedules.segment_calls": len(durations(["schedules.segment"])),
        "schedules.segment_s": self_total(["schedules.segment"]),
        "harness.row_overhead_ms": 1e3 * median(
            o for s, o in zip(tracer.spans, own) if s.name == "harness.run_one_trial"
        ),
        # Both walls are untraced: serial seconds after set-up over the
        # worker-seconds the pooled run spent after set-up.
        "harness.pool_efficiency": (plain_wall - setup_s) / ((pooled_wall - setup_s) * WORKERS),
        "bench.trace_overhead_s": run.wall - check_s - plain_wall,
    }


def count_pass(cfg: hz.ExperimentConfig, bundle: hz.InstanceBundle) -> dict[str, dict]:
    """Exact events per schedule over the first proposals of its first trial.

    Every state change moves the set size by exactly one, so with a
    snapshot after every step the events are the size changes between
    consecutive snapshots.  The same prefix is then timed without per-step
    snapshots to give events per second.
    """
    steps = min(COUNT_PREFIX, cfg.steps or cfg.events)
    rec = hz._recorder_for(cfg, bundle)
    out = {}
    for s, spec in enumerate(cfg.schedules):
        engine = chain_engine(cfg, bundle, spec, steps)
        seed = hz.trial_seed(cfg.seed, s * cfg.trials)
        sizes = [snap[1] for snap in engine(seed, replace(rec, snapshot_every=1)).snapshots]
        moves = [abs(b - a) for a, b in zip([0] + sizes, sizes)]
        times = []
        for _ in range(TIMED_REPEATS):
            t0 = perf_counter()
            engine(seed, rec)
            times.append(perf_counter() - t0)
        out[spec] = {
            "events": sum(moves),
            "proposals": len(sizes),
            "seconds": median(times),
            "exact": len(sizes) == steps and max(moves) <= 1,
        }
    return out


def fixed_cost_us(cfg: hz.ExperimentConfig, bundle: hz.InstanceBundle) -> float:
    """Median time of a 1-step call of the workload's engine.

    Greedy has no step budget; its probe is a call on a 1-vertex graph.
    """
    seed = hz.trial_seed(cfg.seed, 0)
    if cfg.algorithm == "greedy":
        tiny = gc.build_graph(1, [])
        call = lambda: dy.run_randomized_greedy(tiny, seed)  # noqa: E731
    else:
        engine = chain_engine(cfg, bundle, cfg.schedules[0], 1)
        rec = hz._recorder_for(cfg, bundle)
        call = lambda: engine(seed, rec)  # noqa: E731
    times = []
    for _ in range(PROBE_CALLS):
        t0 = perf_counter()
        call()
        times.append(perf_counter() - t0)
    return 1e6 * median(times)


COUNT_METRICS = ("rng.streams_opened", "schedules.segment_calls")


def traced(wl: Workload, cfg: hz.ExperimentConfig, seconds: float, spans_path: Path) -> Measurement:
    bundle = hz.build_instance(cfg)
    edges = bundle.graph.num_edges
    checks = Checks(cfg.total_trials, exact_alpha(wl, bundle))
    reference = run_experiment(cfg, WORKERS).data
    checks.add(reference, reference)
    reps: list[dict] = []
    calibration: list[float] = []
    start = perf_counter()
    while not reps or perf_counter() - start < seconds:
        calibrate(calibration)
        pooled = run_experiment(cfg, WORKERS)
        checks.add(pooled.data, reference)
        calibrate(calibration)
        plain = run_experiment(cfg, 1)
        checks.add(plain.data, reference)
        calibrate(calibration)
        tracer = spans.Tracer()
        failures: set = set()
        boundaries = [(o, a, tracer.replacement(o, a, n)) for o, a, n in spans.layer_boundaries()]
        with spans.patched(boundaries), spans.patched(checked_engines(tracer, failures)):
            run = run_experiment(cfg, 1)
            exact_alpha(wl, bundle)
        checks.add(run.data, reference, failures)
        reps.append(layer_metrics(tracer, run, plain.wall, pooled.wall, edges))
    tracer.write(spans_path)

    checks.counts_ok = all(r[k] == reps[0][k] for r in reps for k in COUNT_METRICS)
    metrics = {k: (reps[0][k] if k in COUNT_METRICS else median(r[k] for r in reps)) for k in reps[0]}
    if cfg.algorithm == "greedy":
        # Each scanned vertex either joins the set (one event) or not.
        useful = sum(int(r["max_size"]) for r in run.rows) / sum(int(r["steps"]) for r in run.rows)
        per_schedule = {}
        events_per_s = useful * metrics["dynamics.proposals_per_s"]
    else:
        per_schedule = count_pass(cfg, bundle)
        events = sum(c["events"] for c in per_schedule.values())
        useful = events / sum(c["proposals"] for c in per_schedule.values())
        events_per_s = events / sum(c["seconds"] for c in per_schedule.values())
        checks.counts_ok &= all(c["exact"] for c in per_schedule.values())
    metrics.update(
        {
            "dynamics.useful_frac": useful,
            "dynamics.events_per_s": events_per_s,
            "dynamics.fixed_cost_us": fixed_cost_us(cfg, bundle),
            "instance_gen.edges": edges,
        }
    )
    details = {
        "repeats": len(reps),
        "useful_by_schedule": {k: c["events"] / c["proposals"] for k, c in per_schedule.items()},
        "span_summary": tracer.summary(),
    }
    return Measurement(metrics, checks, calibration, details)


# ---------------------------------------------------------------------------
# Command line


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "annealbench": annealbench.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workers": WORKERS,
        "start_method": multiprocessing.get_start_method(),
    }


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The benchmark's command line: BENCHMARK.json's command followed by
    ``--workload NAME --seed N --seconds S --trace 0|1``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=None,
        help="workload seed (default: the bundled config's seed)",
    )
    parser.add_argument(
        "--seconds", type=float, default=BENCH["run_seconds"],
        help="how long to measure (default: run_seconds in BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)

    # The harness lets this variable override the worker count it is given.
    os.environ.pop("ANNEALBENCH_WORKERS", None)
    wl = WORKLOADS[args.workload]
    seed = bundled_seed(wl) if args.seed is None else args.seed
    tag = f"{wl.name}-seed{seed}-trace{args.trace}"
    cfg = hz.load_config(write_config(wl, seed, OUT / tag))
    if args.trace:
        run = traced(wl, cfg, args.seconds, OUT / f"{tag}-spans.json")
        listed = BENCH["per_layer"]
    else:
        run = end_to_end(wl, cfg, args.seconds)
        listed = BENCH["end_to_end"]
    for child in multiprocessing.active_children():
        child.join()

    checks = run.checks
    units = {m["name"]: m["unit"] for m in listed} | EXTRA_UNITS
    measured = run.metrics | {"failed_frac": checks.failed / checks.attempted}
    scale = REFERENCE_CALIBRATION_S / median(run.calibration)
    metrics = at_reference_speed(measured, units, scale)
    report = {
        "workload": wl.name,
        "seed": seed,
        "trace": args.trace,
        "environment": environment(),
        "sizes": {
            "trials": cfg.total_trials,
            "steps": cfg.steps,
            "events": cfg.events,
            "schedules": cfg.schedules,
        },
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
        "scale": scale,
        "measured": measured,
        "calibration_s": run.calibration,
        **run.details,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")

    env = report["environment"]
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    print(
        f"{wl.name} seed={seed} trials={cfg.total_trials} steps={cfg.steps} "
        f"events={cfg.events} repeats={run.details['repeats']} scale={scale:.4f}"
    )
    print(f"  {'metric':32s} {'at reference speed':>18s} {'as measured':>12s}")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:32s} {metrics[name]:18.6g} {measured[name]:12.6g} {unit}")
    for spec, share in run.details.get("useful_by_schedule", {}).items():
        print(f"  useful share {spec:32s} {share:.5f}")
    result = {
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed
        },
    }
    print(json.dumps(result))
    return 0
