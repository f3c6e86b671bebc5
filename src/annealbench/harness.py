"""Configuration-driven batch experiments.

An experiment is described by one INI-style text file (diff-able and
hashable); running it generates the instance, fans trials out over a
worker pool, and writes:

* ``run.csv``      the per-trial table with the fixed column order
                   trial_id, seed, steps, max_size, step_of_max, alpha,
                   ratio, root_added, deload_final;
* ``stats.csv``    per-trial extras (schedule, side counts, probes,
                   hitting steps, chain discrepancies);
* ``manifest.txt`` config hash, tool version, per-trial seeds, wall clock,
                   output files, the alpha with where it came from, and
                   the engine of a chain run (``jump`` or ``step``).

Determinism contract: everything flows from the master seed through
counter-based per-trial streams, so the CSV bytes are identical for any
worker count and any multiprocessing start method.  Pool workers receive
the config and the built instance once, through the pool initializer.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import math
import multiprocessing as mp
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from . import dynamics as dy
from . import graph_core as gc
from . import instance_gen as ig
from . import oracles as oc
from . import rng as rngmod
from .errors import ConfigError, IncompleteRun, InvalidFugacity, IoError
from .schedules import parse_schedule

RUN_CSV_COLUMNS = (
    "trial_id",
    "seed",
    "steps",
    "max_size",
    "step_of_max",
    "alpha",
    "ratio",
    "root_added",
    "deload_final",
)

STATS_CSV_COLUMNS = (
    "trial_id",
    "schedule",
    "final_size",
    "final_left",
    "final_right",
    "right_touched",
    "probe_count",
    "hits",
    "discrepancy",
    "residual",
)

_ALGORITHMS = ("ump", "ct", "greedy", "degree-greedy", "chain")


def _horizon(text: str) -> str:
    if text != "burn":
        float(text)
    return text


# [run] key -> type; a key left unset keeps the ExperimentConfig default.
# The order is part of config_hash.
_RUN_TYPES = {
    "algorithm": str, "steps": int, "events": int, "horizon": _horizon, "trials": int,
    "seed": int, "thresholds": ig.int_list, "early_stop_size": int, "snapshot_every": int,
    "watch_root": ig.parse_bool, "probe_step": int, "track_touched": ig.parse_bool,
    "alpha": int,
}
_RUN_FIELDS = {"alpha": "alpha_override"}  # [run] keys named otherwise in ExperimentConfig


@dataclass
class ExperimentConfig:
    name: str
    family: str
    instance: dict[str, str]
    schedules: list[str]
    algorithm: str = "ump"
    steps: int | None = None
    events: int | None = None
    horizon: str | None = None  # float literal or "burn"
    trials: int = 1
    seed: int = 0
    out_dir: str = "out"
    thresholds: tuple[int, ...] = ()
    early_stop_size: int | None = None
    snapshot_every: int | None = None
    watch_root: bool = False
    probe_step: int | None = None
    track_touched: bool = False
    alpha_override: int | None = None
    acceptance: list[tuple[str, str]] = field(default_factory=list)

    def validate_run(self) -> None:
        """The checks of the run and its schedules, which need no instance
        family; ``annealbench run``, whose config has none, runs only these."""
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.alpha_override is not None and self.alpha_override < 1:
            raise ConfigError("alpha must be >= 1")
        if self.algorithm not in _ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm == "ump" and (self.steps or 0) < 1:
            raise ConfigError("ump runs need steps >= 1")
        if self.algorithm == "ct" and not (self.events or self.horizon):
            raise ConfigError("ct runs need events or horizon")
        if self.events is not None and self.events < 1:
            raise ConfigError("events must be >= 1")
        if self.horizon not in (None, "burn") and not 0.0 < float(self.horizon) < math.inf:
            raise ConfigError("horizon must be a finite number > 0, or burn")
        if self.algorithm in ("ump", "ct") and not self.schedules:
            raise ConfigError("no schedules configured")
        for spec in self.schedules:
            try:
                parse_schedule(spec)
            except InvalidFugacity as exc:
                raise ConfigError(f"[schedules] {exc}") from exc

    def validate(self) -> None:
        self.validate_run()
        family = ig.family(self.family)
        family.parse(self.instance)
        if self.algorithm == "chain" and family.chain is None:
            raise ConfigError(f"family {self.family} has no chain abstraction")
        for name, spec in self.acceptance:
            _parse_check(name, spec)

    @property
    def schedule_count(self) -> int:
        if self.algorithm in ("greedy", "degree-greedy", "chain"):
            return 1
        return len(self.schedules)

    @property
    def total_trials(self) -> int:
        return self.trials * self.schedule_count


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}") from exc
    return loads_config(text)


def loads_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(text)
    try:
        exp = parser["experiment"]
        inst = dict(parser["instance"])
        run = dict(parser["run"]) if parser.has_section("run") else {}
    except KeyError as exc:
        raise ConfigError(f"missing config section: {exc}") from exc
    family = inst.pop("family", None)
    if family is None:
        raise ConfigError("[instance] must set family")
    specs = parser["schedules"].get("specs", "") if parser.has_section("schedules") else ""
    run = ig.parse_params({k: (t, None) for k, t in _RUN_TYPES.items()}, run, "[run]")
    run = {_RUN_FIELDS.get(k, k): v for k, v in run.items() if v is not None}
    cfg = ExperimentConfig(
        name=exp.get("name", "experiment"),
        family=family,
        instance=inst,
        schedules=[s.strip() for s in specs.split(",") if s.strip()],
        out_dir=exp.get("out_dir", "out"),
        acceptance=sorted(parser["acceptance"].items()) if parser.has_section("acceptance") else [],
        **run,
    )
    cfg.validate()
    return cfg


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the semantic fields only: formatting and comments drop out."""
    parts = [
        ("experiment.name", cfg.name),
        ("instance.family", cfg.family),
        *[(f"instance.{k}", str(v)) for k, v in sorted(cfg.instance.items())],
        *[(f"schedules.{i}", s) for i, s in enumerate(cfg.schedules)],
        *[(f"run.{k}", str(getattr(cfg, _RUN_FIELDS.get(k, k)))) for k in _RUN_TYPES],
        *[(f"acceptance.{k}", v) for k, v in cfg.acceptance],
    ]
    return hashlib.sha256("".join(f"{k}={v}\n" for k, v in parts).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Instance preparation


@dataclass
class InstanceBundle:
    graph: gc.Graph | None
    alpha: int | None
    alpha_method: str | None = None  # a family table source, or "override"
    watch: tuple[int, ...] = ()
    probe_vertices: tuple[int, ...] = ()
    track_clouds: bool = False
    ct_template: dict | None = None  # clique size and horizon-or-events of an implicit blowup
    chain_params: tuple[int, float] | None = None  # (n, p) for chain runs


def build_instance(cfg: ExperimentConfig) -> InstanceBundle:
    """Build the configured instance through the family table."""
    family = ig.family(cfg.family)
    params = family.parse(cfg.instance)
    if cfg.algorithm == "chain":
        return InstanceBundle(graph=None, alpha=None, chain_params=family.chain(params))
    inst = family.build(params, cfg.seed)
    if cfg.alpha_override is not None:
        alpha, method = cfg.alpha_override, "override"
    else:
        alpha, method = inst.alpha(), family.alpha_method
    template = None
    if inst.blowup is not None:
        horizon = None
        if cfg.horizon == "burn":
            horizon = oc.burn_in_time(inst.blowup)
        elif cfg.horizon:
            horizon = float(cfg.horizon)
        events = cfg.events if horizon is None else None
        template = {"ell": inst.blowup.ell, "events": events, "horizon": horizon}
    elif cfg.algorithm == "ct":
        raise ConfigError("ct runs need an implicit clique-blowup instance")
    return InstanceBundle(
        graph=inst.graph,
        alpha=alpha,
        alpha_method=method,
        watch=inst.watch if cfg.watch_root else (),
        probe_vertices=inst.probe,
        track_clouds=family.track_clouds,
        ct_template=template,
    )


# ---------------------------------------------------------------------------
# Trial execution


def trial_seed(master: int, trial_id: int) -> int:
    return rngmod.stream_id(master, rngmod.DOMAIN_TRIAL, trial_id)


def _recorder_for(cfg: ExperimentConfig, bundle: InstanceBundle) -> dy.RecorderConfig:
    return dy.RecorderConfig(
        thresholds=cfg.thresholds,
        snapshot_every=cfg.snapshot_every,
        watch=bundle.watch,
        probe_step=cfg.probe_step,
        probe_vertices=bundle.probe_vertices if cfg.probe_step else (),
        early_stop_size=cfg.early_stop_size,
        track_touched=cfg.track_touched,
        track_clouds=bundle.track_clouds,
    )


def run_one_trial(
    cfg: ExperimentConfig, bundle: InstanceBundle, trial_id: int
) -> dict:
    """Execute one trial and flatten it into a CSV row dict.

    Columns the algorithm does not measure are left out; the CSV writer
    writes them empty.
    """
    seed = trial_seed(cfg.seed, trial_id)
    row: dict[str, object] = {"trial_id": trial_id, "seed": seed}
    if cfg.algorithm == "chain":
        n, prob = bundle.chain_params
        res = dy.run_greedy_chain(n, prob, seed)
        row.update(
            steps=2 * n,
            max_size=res.total,
            step_of_max=2 * n,
            final_size=res.total,
            final_left=res.left,
            final_right=res.right,
            discrepancy=res.discrepancy,
            residual=f"{res.residual:.6f}",
        )
    elif cfg.algorithm == "greedy":
        _, rec = dy.run_randomized_greedy(bundle.graph, seed)
        row.update(_record_fields(rec))
    elif cfg.algorithm == "degree-greedy":
        size = len(dy.run_degree_greedy(bundle.graph))
        row.update(steps=bundle.graph.n, max_size=size, step_of_max=size, final_size=size)
    else:
        spec = cfg.schedules[trial_id // cfg.trials if cfg.schedule_count > 1 else 0]
        sched, recorder = parse_schedule(spec), _recorder_for(cfg, bundle)
        if cfg.algorithm == "ct":
            tpl = bundle.ct_template
            ct_cfg = dy.WeightedCTConfig.blowup_implicit(
                bundle.graph, tpl["ell"], horizon=tpl["horizon"], events=tpl["events"]
            )
            rec = dy.run_ct_ump(bundle.graph, ct_cfg, sched, seed, recorder=recorder)
        else:
            rec = dy.run_ump(bundle.graph, sched, cfg.steps, seed, recorder=recorder)
        row.update(schedule=spec, **_record_fields(rec))

    alpha = bundle.alpha
    row["alpha"] = alpha if alpha is not None else ""
    row["ratio"] = f"{row['max_size'] / alpha:.6f}" if alpha else ""
    return row


def _engine(cfg: ExperimentConfig, bundle: InstanceBundle) -> str | None:
    """The engine of a chain run (``ump`` or ``ct``; see ``dynamics.engine``)."""
    if cfg.algorithm in ("ump", "ct"):
        return dy.engine(_recorder_for(cfg, bundle))
    return None


def _record_fields(rec: dy.TrialRecord) -> dict:
    hits = ";".join(f"{k}:{v}" for k, v in sorted(rec.hitting_steps.items()))
    return dict(
        steps=rec.steps,
        max_size=rec.max_size,
        step_of_max=rec.step_of_max,
        final_size=rec.final_size,
        final_left=rec.final_left if rec.final_left >= 0 else "",
        final_right=rec.final_right if rec.final_right >= 0 else "",
        right_touched=rec.right_touched if rec.right_touched is not None else "",
        probe_count=rec.probe_count if rec.probe_count is not None else "",
        hits=hits,
        root_added=int(rec.root_added),
        deload_final=rec.deload_final if rec.deload_final is not None else "",
    )


# (cfg, bundle) of a pool worker process, set once by the pool initializer.
_worker_args: tuple = ()


def _init_worker(cfg: ExperimentConfig, bundle: InstanceBundle) -> None:
    global _worker_args
    _worker_args = (cfg, bundle)


def _pool_trial(trial_id: int) -> dict:
    return run_one_trial(*_worker_args, trial_id)


def worker_count(default: int | None = None) -> int:
    env = os.environ.get("ANNEALBENCH_WORKERS")
    if env:
        return max(1, int(env))
    if default:
        return default
    return max(1, os.cpu_count() or 1)


@dataclass
class ExperimentManifest:
    config_hash: str
    version: str
    master_seed: int
    alpha: int | None
    alpha_method: str | None
    engine: str | None  # "jump" or "step" for chain runs (ump, ct)
    trial_seeds: list[int]
    wall_clock: float
    files: list[str]
    rows: list[dict]


def run_experiment(
    cfg: ExperimentConfig, workers: int | None = None
) -> ExperimentManifest:
    """Generate the instance, run all trials, persist CSVs and manifest."""
    cfg.validate()
    started = time.time()
    bundle = build_instance(cfg)
    if bundle.graph is not None:
        bundle.graph.neighbor_lists  # build once, handed to every worker

    ids = list(range(cfg.total_trials))
    nworkers = worker_count(workers)
    if nworkers > 1 and len(ids) > 1:
        with mp.Pool(min(nworkers, len(ids)), _init_worker, (cfg, bundle)) as pool:
            rows = pool.map(_pool_trial, ids, chunksize=1)
    else:
        rows = [run_one_trial(cfg, bundle, i) for i in ids]

    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output dir {out}: {exc}") from exc

    run_path = out / "run.csv"
    stats_path = out / "stats.csv"
    _write_csv(run_path, RUN_CSV_COLUMNS, rows)
    _write_csv(stats_path, STATS_CSV_COLUMNS, rows)

    manifest = ExperimentManifest(
        config_hash=config_hash(cfg),
        version=__version__,
        master_seed=cfg.seed,
        alpha=bundle.alpha,
        alpha_method=bundle.alpha_method,
        engine=_engine(cfg, bundle),
        trial_seeds=[trial_seed(cfg.seed, i) for i in ids],
        wall_clock=time.time() - started,
        files=[str(run_path), str(stats_path)],
        rows=rows,
    )
    _write_manifest(out / "manifest.txt", manifest)
    return manifest


def _write_csv(path: Path, columns: tuple[str, ...], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(col, "") for col in columns])


def _write_manifest(path: Path, manifest: ExperimentManifest) -> None:
    lines = [
        f"config_hash = {manifest.config_hash}",
        f"version = {manifest.version}",
        f"master_seed = {manifest.master_seed}",
        f"wall_clock_s = {manifest.wall_clock:.3f}",
        f"files = {','.join(manifest.files)}",
    ]
    if manifest.alpha is not None:
        lines += [f"alpha = {manifest.alpha}", f"alpha_method = {manifest.alpha_method}"]
    if manifest.engine is not None:
        lines.append(f"engine = {manifest.engine}")
    lines += ["trial_seeds:", *[f"  {i} {s}" for i, s in enumerate(manifest.trial_seeds)]]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Verdicts


@dataclass
class VerdictRow:
    check: str
    kind: str
    observed: float
    target: float
    passed: bool


@dataclass
class VerdictReport:
    rows: list[VerdictRow]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_text(self) -> str:
        out = []
        for r in self.rows:
            status = "PASS" if r.passed else "FAIL"
            out.append(
                f"[{status}] {r.check}: {r.kind} observed={r.observed:.6g} "
                f"target={r.target:.6g}"
            )
        return "\n".join(out) + "\n"

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(("check", "kind", "observed", "target", "passed"))
        for r in self.rows:
            writer.writerow(
                (r.check, r.kind, repr(r.observed), repr(r.target), int(r.passed))
            )
        return buf.getvalue()


def parse_verdict_csv(text: str) -> VerdictReport:
    reader = csv.DictReader(io.StringIO(text))
    rows = [
        VerdictRow(
            check=rec["check"],
            kind=rec["kind"],
            observed=float(rec["observed"]),
            target=float(rec["target"]),
            passed=bool(int(rec["passed"])),
        )
        for rec in reader
    ]
    return VerdictReport(rows)


def _frac(col: str, test):
    """Fraction of the rows whose recorded ``col`` passes ``test(value, *args)``."""
    return lambda rows, *args: sum(
        1 for r in rows if r.get(col, "") != "" and test(float(r[col]), *args)
    ) / len(rows)


def _mean(col: str):
    """Mean of the recorded values of ``col``; None when none is recorded."""

    def mean(rows: list[dict]) -> float | None:
        values = [float(r[col]) for r in rows if r.get(col, "") != ""]
        return sum(values) / len(values) if values else None

    return mean


# Acceptance checks, one per config line ``NAME = KIND ARGS...``; the last
# argument is the target.  kind -> (argument count, observed statistic of the
# rows and the other arguments, True if it passes iff observed <= target, False
# for >=).  So ``frac_max_le X F`` asks that the share of trials with
# max_size <= X be >= F, and ``frac_discrepancy_gt_le X F`` that the share
# with |L-R| > X be <= F.
_CHECKS = {
    "frac_max_le": (2, _frac("max_size", lambda v, x: v <= x), False),
    "frac_max_ge": (2, _frac("max_size", lambda v, x: v >= x), False),
    "frac_root_added_le": (1, _frac("root_added", lambda v: v == 1), True),
    "frac_probe_ge": (2, _frac("probe_count", lambda v, x: v >= x), False),
    "frac_discrepancy_gt_le": (2, _frac("discrepancy", lambda v, x: v > x), True),
    "mean_ratio_le": (1, _mean("ratio"), True),
    "mean_max_le": (1, _mean("max_size"), True),
}


def _parse_check(name: str, spec: str) -> tuple[str, list[float]]:
    kind, *args = spec.split() or [""]
    if kind not in _CHECKS:
        raise ConfigError(f"check {name}: unknown acceptance check kind {kind!r}")
    try:
        values = [float(x) for x in args]
    except ValueError:
        raise ConfigError(f"check {name}: non-numeric argument in {spec!r}") from None
    if len(values) != _CHECKS[kind][0]:
        raise ConfigError(f"check {name}: {kind} takes {_CHECKS[kind][0]} arguments")
    return kind, values


def verdict(cfg: ExperimentConfig, rows: list[dict]) -> VerdictReport:
    """Evaluate the [acceptance] checks of a config (see ``_CHECKS``) against trial rows."""
    if not rows:
        raise IncompleteRun("no trial rows to judge")
    out: list[VerdictRow] = []
    for name, spec in cfg.acceptance:
        kind, (*args, target) = _parse_check(name, spec)
        _, observe, upper = _CHECKS[kind]
        obs = observe(rows, *args)
        if obs is None:
            raise IncompleteRun(f"check {name}: no values recorded")
        out.append(VerdictRow(name, kind, obs, target, obs <= target if upper else obs >= target))
    return VerdictReport(out)


def read_csv(path: str | Path) -> list[dict]:
    """Rows of a ``run.csv`` or ``stats.csv`` file, as dicts of strings."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def merge_run_and_stats(run_rows: list[dict], stats_rows: list[dict]) -> list[dict]:
    by_id = {r["trial_id"]: dict(r) for r in run_rows}
    for s in stats_rows:
        by_id.setdefault(s["trial_id"], {}).update(s)
    return [by_id[k] for k in sorted(by_id, key=int)]
