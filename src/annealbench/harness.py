"""Configuration-driven batch experiments.

An experiment is one INI-style text file.  Each value of it is parsed once, when the
config is made, and ``config_hash`` hashes what was parsed.  Its ``[run] algorithm``
is a row of ``_ALGORITHMS``: the trial function and the keys it reads, so setting any
other key is a ConfigError.  Running it generates the instance, and ``run_trials``
fans the trials out over a worker pool and writes each row as it arrives.  ``landing``
is the package's one writer, also of the CLI's verdicts, reports and graph files: each
file goes to a temp file beside it, which replaces it whole, so a run cut short leaves
an earlier run's files as they were.  A target that is a directory or lies in a
missing one fails when its landing is entered, and every landing of a run, the
manifest's first, is entered before the first trial.  A run writes:

* ``run.csv``      the per-trial table with the fixed column order
                   trial_id, seed, steps, max_size, step_of_max, alpha,
                   ratio, root_added, deload_final;
* ``stats.csv``    per-trial extras (schedule, side counts, probes,
                   hitting steps, chain discrepancies);
* ``traj.csv``     when ``snapshot_every`` is set: the snapshots of every
                   chain trial, as trial_id, t, size, left, right;
* ``manifest.txt`` config hash, tool version, per-trial seeds, wall clock,
                   output files, the alpha with where it came from, and
                   the engine of a chain run (``jump`` or ``step``).

Every ``InstanceBundle`` comes from ``bundle_for``, for a family member
(``build_instance``) and a graph file (``annealbench run``) alike, so both get
the same checks.  With the config's ``parsed_schedules`` it holds all that a
trial reads, built once per run: the recorder, the schedules and a blowup's ct
config with its rate classes; a trial only indexes them and calls an engine.
``verdict`` and ``report_text`` (``annealbench report``) take every figure from
``statistic``: a fraction with its Wilson interval or a mean with its normal one.

Determinism contract: everything flows from the master seed through
counter-based per-trial streams, so the CSV bytes are identical for any
worker count, pool chunk size and multiprocessing start method.  Pool workers
receive the config and the built bundle once, through the pool initializer.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import errno
import hashlib
import io
import math
import multiprocessing as mp
import os
import time
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from . import dynamics as dy
from . import graph_core as gc
from . import instance_gen as ig
from . import oracles as oc
from . import rng as rngmod
from .errors import ConfigError, IncompleteRun, InvalidFugacity, IoError
from .schedules import FugacitySchedule, parse_schedule

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

TRAJ_CSV_COLUMNS = ("trial_id", "t", "size", "left", "right")

def _horizon(text: str) -> str | float:
    return text if text == "burn" else float(text)


# [run] key -> type; a key left unset keeps the ExperimentConfig default.
# The order is part of config_hash.
_RUN_TYPES = {
    "algorithm": str, "steps": gc.parse_int, "events": gc.parse_int, "horizon": _horizon,
    "trials": gc.parse_int, "seed": gc.parse_int, "thresholds": ig.int_list,
    "early_stop_size": gc.parse_int, "snapshot_every": gc.parse_int, "watch_root": ig.parse_bool,
    "probe_step": gc.parse_int, "track_touched": ig.parse_bool, "alpha": gc.parse_int,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment, checked when made: a config that exists is valid.  ``family``
    is None for ``annealbench run``, whose graph file has no family to check."""

    name: str
    family: str | None
    instance: dict[str, str]
    schedules: tuple[str, ...] = ()
    algorithm: str = "ump"
    steps: int | None = None
    events: int | None = None
    horizon: float | str | None = None  # a float or "burn"
    trials: int = 1
    seed: int = 0
    out_dir: str = "out"
    thresholds: tuple[int, ...] = ()
    early_stop_size: int | None = None
    snapshot_every: int | None = None
    watch_root: bool = False
    probe_step: int | None = None
    track_touched: bool = False
    alpha: int | None = None  # overrides the family's alpha
    acceptance: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.algorithm not in _ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        _, reads, need, _ = _ALGORITHMS[self.algorithm]
        default = {f.name: f.default for f in fields(self)}
        unread = [k for k in (*_RUN_TYPES, "schedules") if getattr(self, k) != default[k]
                  and k not in ("algorithm", "trials", "seed", *reads)]
        if unread:
            raise ConfigError(f"algorithm {self.algorithm} does not read {', '.join(unread)}")
        if need and sum(getattr(self, k) is not None for k in need) != 1:
            raise ConfigError(f"{self.algorithm} runs need exactly one key of {list(need)}")
        if "schedules" in reads and not self.schedules:
            raise ConfigError("no schedules configured")
        if min(self.thresholds, default=1) < 1:
            raise ConfigError(f"thresholds must be >= 1, got {self.thresholds}")
        for key in ("trials", "alpha", "steps", "events", "snapshot_every", "probe_step",
                    "early_stop_size"):
            if getattr(self, key) is not None and getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        if self.horizon not in (None, "burn") and not 0.0 < self.horizon < math.inf:
            raise ConfigError("horizon must be a finite number > 0, or burn")
        self.parsed_schedules, self.params  # parse, and so check, every spec and value
        if self.algorithm == "chain" and self.family and ig.family(self.family).chain is None:
            raise ConfigError(f"family {self.family} has no chain abstraction")
        for name, spec in self.acceptance:
            _parse_check(name, spec)

    @cached_property
    def parsed_schedules(self) -> tuple[FugacitySchedule, ...]:
        """The [schedules] specs, parsed once: a ``seq:`` file is read here only."""
        try:
            return tuple(parse_schedule(spec) for spec in self.schedules)
        except InvalidFugacity as exc:
            raise ConfigError(f"[schedules] {exc}") from exc

    @cached_property
    def params(self) -> dict:
        """The [instance] values, typed once by the family; {} for a graph file."""
        return ig.family(self.family).parse(self.instance) if self.family else {}

    @property
    def total_trials(self) -> int:
        """One block of ``trials`` per schedule; an algorithm without schedules runs one."""
        return self.trials * max(1, len(self.schedules))


def load_config(path: str | Path, out_dir: str | None = None) -> ExperimentConfig:
    """The config in file ``path``; ``out_dir``, if given, replaces its own."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    return loads_config(text, out_dir)


def loads_config(text: str, out_dir: str | None = None) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        parser.read_string(text, source="config")
        sec = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.Error as exc:  # on one line, which names the config line at fault
        raise ConfigError(" ".join(str(exc).replace("\\n'", "'").split())) from None
    for name in ("experiment", "instance"):
        if name not in sec:
            raise ConfigError(f"missing config section: [{name}]")
    unknown = sorted(set(sec) - {"experiment", "instance", "schedules", "run", "acceptance"})
    if unknown:
        raise ConfigError(f"unknown config section [{unknown[0]}]")
    family = sec["instance"].pop("family", None)
    if family is None:
        raise ConfigError("[instance] must set family")
    for name, keys in (("experiment", ("name", "out_dir")), ("schedules", ("specs",))):
        ig.parse_params(dict.fromkeys(keys, (str, None)), sec.get(name, {}), f"[{name}]")
    run = ig.parse_params({k: (t, None) for k, t in _RUN_TYPES.items()}, sec.get("run", {}),
                          "[run]")
    return ExperimentConfig(
        name=sec["experiment"].get("name", "experiment"),
        family=family,
        instance=sec["instance"],
        schedules=tuple(s.strip() for s in sec.get("schedules", {}).get("specs", "").split(",")
                        if s.strip()),
        out_dir=out_dir or sec["experiment"].get("out_dir", "out"),
        acceptance=tuple(sorted(sec.get("acceptance", {}).items())),
        **{k: v for k, v in run.items() if v is not None},
    )


def config_hash(cfg: ExperimentConfig) -> str:
    """sha256 of the config as parsed: ``instance.family`` and the ``repr`` of each typed
    ``cfg.params`` value, each parsed schedule (a ``seq:`` file's values with it) and
    each typed ``[run]`` value.  Formatting drops out, and so do ``experiment.name`` and
    ``[acceptance]``, which set no byte of ``run.csv``, ``stats.csv`` or ``traj.csv``."""
    parts = [
        ("instance.family", cfg.family),
        *[(f"instance.{k}", repr(v)) for k, v in sorted(cfg.params.items())],
        *[(f"schedules.{i}", repr(s)) for i, s in enumerate(cfg.parsed_schedules)],
        *[(f"run.{k}", repr(getattr(cfg, k))) for k in _RUN_TYPES],
    ]
    return hashlib.sha256("".join(f"{k}={v}\n" for k, v in parts).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Instance preparation


@dataclass
class InstanceBundle:
    """Everything the trials of a run read, built once by ``bundle_for``."""

    graph: gc.Graph | None
    alpha: int | None
    alpha_method: str | None = None  # a family table source, or "override"
    recorder: dy.RecorderConfig | None = None
    ct: dy.WeightedCTConfig | None = None  # the ct run of an implicit blowup
    ct_template: dict | None = None  # {"ell": clique size}; only the benchmark reads it
    chain_params: tuple[int, float] | None = None  # (n, p) for chain runs


def build_instance(cfg: ExperimentConfig) -> InstanceBundle:
    """Build the configured instance through the family table."""
    family = ig.family(cfg.family)
    if cfg.algorithm == "chain":
        return InstanceBundle(None, None, chain_params=family.chain_params(cfg.params))
    return bundle_for(cfg, family.make(cfg.params, cfg.seed), family)


def bundle_for(
    cfg: ExperimentConfig, inst: ig.Instance, family: ig.Family | None
) -> InstanceBundle:
    """The bundle of a built instance, checked against the run's keys.  ``family``
    is None for a graph file (``annealbench run``): its alpha is then unknown
    unless configured."""
    for key, has, what in (("probe_step", inst.probe, "probe vertices"),
                           ("watch_root", inst.watch, "watch vertices"),
                           ("track_touched", inst.graph.side is not None, "side labels")):
        if getattr(cfg, key) and not has:
            raise ConfigError(f"{key}: family {cfg.family} has no {what}")
    watch = inst.watch if cfg.watch_root else ()
    for v in watch:
        if not 0 <= v < inst.graph.n:
            raise ConfigError(f"watch vertex {v} is not in the {inst.graph.n}-vertex graph")
    if inst.graph.n == 0 and cfg.algorithm in ("ump", "ct"):
        raise ConfigError(f"{cfg.algorithm} runs a chain, which needs a graph with a vertex")
    if (inst.blowup is None) == (cfg.algorithm == "ct"):
        raise ConfigError("ct runs need an implicit clique-blowup instance" if inst.blowup is None
                          else "an implicit clique-blowup runs only ct: ump, greedy and "
                          "degree-greedy need mode = explicit")
    if cfg.alpha:
        alpha, method = cfg.alpha, "override"
    else:
        alpha, method = (inst.alpha(), family.alpha_method) if family else (None, None)
    recorder = dy.RecorderConfig(
        thresholds=cfg.thresholds, snapshot_every=cfg.snapshot_every, watch=watch,
        probe_step=cfg.probe_step, probe_vertices=inst.probe if cfg.probe_step else (),
        early_stop_size=cfg.early_stop_size, track_touched=cfg.track_touched,
        track_clouds=bool(family and family.track_clouds),
    )
    ct = template = None
    if inst.blowup is not None:
        burn = cfg.horizon == "burn"
        if burn and inst.blowup.p <= 0:
            raise ConfigError("horizon = burn needs p > 0: the burn-in time is 1 / (8 k p n)")
        horizon = oc.burn_in_time(inst.blowup) if burn else cfg.horizon
        if horizon == math.inf:  # a subnormal p
            raise ConfigError(
                f"horizon = burn: the burn-in time 1 / (8 k p n) overflows at p = {inst.blowup.p}"
            )
        ct = dy.WeightedCTConfig.blowup_implicit(inst.graph, inst.blowup.ell, horizon, cfg.events)
        template = {"ell": inst.blowup.ell}
    return InstanceBundle(inst.graph, alpha, method, recorder=recorder, ct=ct, ct_template=template)


# ---------------------------------------------------------------------------
# Trial execution


def trial_seed(master: int, trial_id: int) -> int:
    return rngmod.stream_id(master, rngmod.DOMAIN_TRIAL, trial_id)


def _recorder_for(cfg: ExperimentConfig, bundle: InstanceBundle) -> dy.RecorderConfig:
    return bundle.recorder  # kept for the benchmark, which reads the recorder through it


def run_one_trial(
    cfg: ExperimentConfig, bundle: InstanceBundle, trial_id: int
) -> dict:
    """Execute one trial and flatten it into a CSV row dict.

    Columns the algorithm does not measure are left out; the CSV writer
    writes them empty.
    """
    seed = trial_seed(cfg.seed, trial_id)
    trial = _ALGORITHMS[cfg.algorithm][0]
    row = {"trial_id": trial_id, "seed": seed, **trial(cfg, bundle, trial_id, seed)}
    alpha = bundle.alpha
    row["alpha"] = alpha if alpha is not None else ""
    row["ratio"] = f"{row['max_size'] / alpha:.6f}" if alpha else ""
    return row


# Trial functions (cfg, bundle, trial_id, seed) -> the row's measured fields.  They
# look the engines up in ``dynamics`` at call time, so wrappers installed on that
# module (the benchmark's tracing) see each call.


def _chain_trial(cfg, bundle, trial_id: int, seed: int) -> dict:
    """A Metropolis run (``ump``) or its continuous-time form (``ct``)."""
    block = trial_id // cfg.trials
    sched, recorder = cfg.parsed_schedules[block], bundle.recorder
    if bundle.ct is not None:
        rec = dy.run_ct_ump(bundle.graph, bundle.ct, sched, seed, recorder=recorder)
    else:
        rec = dy.run_ump(bundle.graph, sched, cfg.steps, seed, recorder=recorder)
    return dict(schedule=cfg.schedules[block], snapshots=rec.snapshots, **_record_fields(rec))


def _greedy_trial(cfg, bundle, trial_id: int, seed: int) -> dict:
    return _record_fields(dy.run_randomized_greedy(bundle.graph, seed)[1])


def _degree_greedy_trial(cfg, bundle, trial_id: int, seed: int) -> dict:
    size = len(dy.run_degree_greedy(bundle.graph))
    return dict(steps=bundle.graph.n, max_size=size, step_of_max=size, final_size=size)


def _greedy_chain_trial(cfg, bundle, trial_id: int, seed: int) -> dict:
    n, prob = bundle.chain_params
    res = dy.run_greedy_chain(n, prob, seed)
    return dict(steps=2 * n, max_size=res.total, step_of_max=2 * n, final_size=res.total,
                final_left=res.left, final_right=res.right, discrepancy=res.discrepancy,
                residual=f"{res.residual:.6f}")


# [run] algorithm -> (trial function, the keys it reads besides algorithm, trials
# and seed, the keys of which exactly one must be set, True if its trials read
# ``graph.neighbor_lists``).  ``schedules`` stands for the [schedules] specs.
_CHAIN_KEYS = ("schedules", "thresholds", "early_stop_size", "snapshot_every", "watch_root",
               "probe_step", "track_touched", "alpha")  # read by both chain engines
_ALGORITHMS = {
    "ump": (_chain_trial, ("steps", *_CHAIN_KEYS), ("steps",), True),
    "ct": (_chain_trial, ("events", "horizon", *_CHAIN_KEYS), ("events", "horizon"), True),
    "greedy": (_greedy_trial, ("alpha",), (), False),
    "degree-greedy": (_degree_greedy_trial, ("alpha",), (), True),
    "chain": (_greedy_chain_trial, (), (), False),
}


def _record_fields(rec: dy.TrialRecord) -> dict:
    """The row cells of a record: a field the trial did not measure (None) is empty."""
    row = {k: "" if getattr(rec, k) is None else getattr(rec, k)
           for k in ("steps", "max_size", "step_of_max", "final_size", "final_left",
                     "final_right", "right_touched", "probe_count", "deload_final")}
    row["hits"] = ";".join(f"{k}:{v}" for k, v in sorted(rec.hitting_steps.items()))
    row["root_added"] = int(rec.root_added)
    return row


# (cfg, bundle) of a pool worker process, set once by the pool initializer.
_worker_args: tuple = ()


def _init_worker(cfg: ExperimentConfig, bundle: InstanceBundle) -> None:
    global _worker_args
    _worker_args = (cfg, bundle)


def _pool_trial(trial_id: int) -> dict:
    return run_one_trial(*_worker_args, trial_id)


def worker_count(default: int | None = None) -> int:
    """Pool size: ``default`` (the parsed ``--workers``, an int >= 1) if given, else all cores."""
    if default is None:
        return max(1, os.cpu_count() or 1)
    if type(default) is not int or default < 1:
        raise ConfigError(f"--workers must be an integer >= 1, got {default!r}")
    return default


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
    nworkers = worker_count(workers)
    started = time.time()
    bundle = build_instance(cfg)
    trial, _, _, neighbor_lists = _ALGORITHMS[cfg.algorithm]
    if neighbor_lists:
        bundle.graph.neighbor_lists  # its trials read it: build once, hand to every worker

    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output dir {out}: {exc}") from exc
    tables = {out / "run.csv": RUN_CSV_COLUMNS, out / "stats.csv": STATS_CSV_COLUMNS}
    if cfg.snapshot_every:
        tables[out / "traj.csv"] = TRAJ_CSV_COLUMNS
    # Entered first, so a bad manifest target fails before any trial; its temp file
    # is still empty when the pool forks.
    with landing(out / "manifest.txt") as fh:
        rows = run_trials(cfg, bundle, tables, nworkers)
        manifest = ExperimentManifest(
            config_hash=config_hash(cfg),
            version=__version__,
            master_seed=cfg.seed,
            alpha=bundle.alpha,
            alpha_method=bundle.alpha_method,
            engine=dy.engine(bundle.recorder) if trial is _chain_trial else None,
            trial_seeds=[trial_seed(cfg.seed, i) for i in range(cfg.total_trials)],
            wall_clock=time.time() - started,
            files=[str(f) for f in tables],
            rows=rows,
        )
        fh.write(_manifest_text(manifest))
    return manifest


def run_trials(cfg: ExperimentConfig, bundle: InstanceBundle, tables: dict[Path, tuple],
               workers: int = 1) -> list[dict]:
    """Run every trial, serially or on a pool of ``workers``, and return the rows in
    trial-id order.  Each row is written as it arrives to every table (path ->
    columns; the ``TRAJ_CSV_COLUMNS`` table gets one line per snapshot)."""
    ids, rows = range(cfg.total_trials), []
    pooled = workers > 1 and len(ids) > 1
    # The pool forks before any table is open, so no worker holds a written buffer.
    with (mp.Pool(min(workers, len(ids)), _init_worker, (cfg, bundle)) if pooled
          else contextlib.nullcontext()) as pool, contextlib.ExitStack() as stack:
        writers = [(csv.writer(stack.enter_context(landing(p))), c) for p, c in tables.items()]
        for writer, columns in writers:
            writer.writerow(columns)
        for row in (pool.imap(_pool_trial, ids, -(-len(ids) // (8 * workers))) if pooled
                    else (run_one_trial(cfg, bundle, i) for i in ids)):
            rows.append(row)
            for writer, columns in writers:
                if columns == TRAJ_CSV_COLUMNS:
                    writer.writerows((row["trial_id"], *s) for s in row.get("snapshots", ()))
                else:
                    writer.writerow([row.get(col, "") for col in columns])
    return rows


@contextlib.contextmanager
def landing(path: str | Path):
    """A file open on a temp file beside ``path``, which lands on it whole after the
    block; if the block raises, the temp file goes and ``path`` keeps what it held.
    The one writer of the package.  A target that is a directory or lies in a missing
    one fails on entry, before the block runs; an open or replace that fails raises
    IoError naming ``path``."""
    tmp = f"{path}.tmp"
    try:
        if Path(path).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        fh = open(tmp, "w", newline="")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc.strerror}") from exc
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise IoError(f"cannot write {path}: {exc.strerror}") from exc
    finally:
        Path(tmp).unlink(missing_ok=True)


def _manifest_text(manifest: ExperimentManifest) -> str:
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
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Verdicts


@dataclass
class VerdictRow:
    check: str
    kind: str
    observed: float
    target: float
    passed: bool
    interval: tuple[float, float]  # the 95% interval of observed


@dataclass
class VerdictReport:
    rows: list[VerdictRow]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_text(self) -> str:
        return "".join(
            f"[{'PASS' if r.passed else 'FAIL'}] {r.check}: {r.kind} observed={r.observed:.6g} "
            f"(95% CI {r.interval[0]:.6g}..{r.interval[1]:.6g}) target={r.target:.6g}\n"
            for r in self.rows
        )

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(("check", "kind", "observed", "target", "passed", "ci_low", "ci_high"))
        writer.writerows((r.check, r.kind, repr(r.observed), repr(r.target), int(r.passed),
                          *map(repr, r.interval)) for r in self.rows)
        return buf.getvalue()


# Acceptance checks, one per config line ``NAME = KIND ARGS...``; the last
# argument is the target.  kind -> (argument count, column, test of a recorded
# value and the other arguments, or None for the mean of the column, True if
# it passes iff observed <= target, False for >=).  So ``frac_max_le X F``
# asks that the share of trials with max_size <= X be >= F, and
# ``frac_discrepancy_gt_le X F`` that the share with |L-R| > X be <= F.
_CHECKS = {
    "frac_max_le": (2, "max_size", lambda v, x: v <= x, False),
    "frac_max_ge": (2, "max_size", lambda v, x: v >= x, False),
    "frac_root_added_le": (1, "root_added", lambda v: v == 1, True),
    "frac_probe_ge": (2, "probe_count", lambda v, x: v >= x, False),
    "frac_discrepancy_gt_le": (2, "discrepancy", lambda v, x: v > x, True),
    "mean_ratio_le": (1, "ratio", None, True),
    "mean_max_le": (1, "max_size", None, True),
}


@dataclass(frozen=True)
class Statistic:
    """One check's observation of the trial rows with its 95% interval: the
    fraction ``successes / total`` (Wilson) or the mean of ``values`` (normal)."""

    observed: float
    interval: tuple[float, float]
    successes: int = 0
    total: int = 0
    values: tuple[float, ...] = ()


def statistic(name: str, kind: str, rows: list[dict], args: list[float]) -> Statistic:
    """Check ``name`` of kind ``kind`` with the arguments ``args`` before its target.
    A row that lacks the column counts in a fraction's total (an early stop before
    ``probe_step`` leaves ``probe_count`` empty); :class:`IncompleteRun` if none has it."""
    _, col, test, _ = _CHECKS[kind]
    values = [_cell(r, col, float) for r in rows if r.get(col, "") != ""]
    if not values:
        raise IncompleteRun(f"check {name}: no trial row records {col} (report: pass --stats?)")
    if test is None:
        mean = sum(values) / len(values)
        return Statistic(mean, oc.normal_mean_interval(values), values=tuple(values))
    successes, total = sum(1 for v in values if test(v, *args)), len(rows)
    return Statistic(successes / total, oc.wilson_interval(successes, total), successes, total)


def _cell(row: dict, col: str, kind) -> float:
    """The ``col`` cell of a trial row as a finite float or an int (``kind``)."""
    try:
        value = kind(row[col])
        if math.isfinite(value):
            return value
    except (TypeError, ValueError):  # a short csv row reads None
        pass
    what = "an integer" if kind is gc.parse_int else "a finite number"
    raise ConfigError(f"trial_id {row.get('trial_id')}: {col} {row[col]!r} is not {what}")


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
    out: list[VerdictRow] = []
    for name, spec in cfg.acceptance:
        kind, (*args, target) = _parse_check(name, spec)
        stat = statistic(name, kind, rows, args)
        passed = stat.observed <= target if _CHECKS[kind][3] else stat.observed >= target
        out.append(VerdictRow(name, kind, stat.observed, target, passed, stat.interval))
    return VerdictReport(out)


def report_text(rows: list[dict], alpha: int | None, thresholds: list[float]) -> str:
    """The ``annealbench report`` summary of trial rows: the mean, std and quartiles
    of max_size, the mean ratio to ``alpha`` (by default the rows' alpha column,
    which every row must agree on), and for each threshold x the share of trials
    with max_size > x."""
    mean = statistic("max_size mean", "mean_max_le", rows, [])
    sizes, (lo, hi) = np.array(mean.values), mean.interval
    ordered = np.sort(sizes)
    lines = [
        f"trials = {len(sizes)}",
        f"max_size mean = {mean.observed:.4f} (95% CI {lo:.4f}..{hi:.4f})",
        f"max_size std = {sizes.std(ddof=1) if len(sizes) > 1 else 0.0:.4f}",
        *(f"quantile {q:g} = {ordered[max(0, math.ceil(q * len(sizes)) - 1)]:g}"
          for q in (0.0, 0.25, 0.5, 0.75, 1.0)),
    ]
    if alpha is None and any(r.get("alpha") for r in rows):
        alphas = [_cell(r, "alpha", gc.parse_int) for r in rows]
        for r, a in zip(rows, alphas):
            if a != alphas[0]:
                raise ConfigError(f"trial_id {r.get('trial_id')}: alpha {a} differs from "
                                  f"trial_id {rows[0].get('trial_id')}'s alpha {alphas[0]}")
        alpha = alphas[0]
    if alpha is not None and alpha > 0:
        lines.append(f"ratio mean = {(sizes / alpha).mean():.6f}")
    for x in thresholds:  # max_size > x fails the check frac_max_le x
        le = statistic(f"max_size > {x:g}", "frac_max_le", rows, [x])
        fails, total = le.total - le.successes, le.total
        lo, hi = oc.wilson_interval(fails, total)
        lines.append(f"frac(max_size > {x:g}) = {fails / total:.4f} (95% CI {lo:.4f}..{hi:.4f})")
    return "\n".join(lines) + "\n"


def read_trials(run: str | Path, stats: str | Path | None = None) -> list[dict]:
    """The rows of a ``run.csv`` in file order, each merged with its row of a
    ``stats.csv`` if given.  A trial_id twice in a file, or in only one file,
    is a ConfigError."""
    rows = _rows_by_id(run)
    if stats:
        extra = _rows_by_id(stats)
        for k in {**rows, **extra}:  # each id once, in run.csv order first
            if (k in rows) != (k in extra):
                raise ConfigError(f"trial_id {k} is in {run if k in rows else stats} only")
            rows[k].update(extra[k])
    return list(rows.values())


def _rows_by_id(path: str | Path) -> dict[str, dict]:
    rows: dict[str, dict] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if "trial_id" not in (reader.fieldnames or ()):
            raise ConfigError(f"{path} has no trial_id column")
        for row in reader:
            if rows.setdefault(row["trial_id"], row) is not row:
                raise ConfigError(f"trial_id {row['trial_id']} is twice in {path}")
    return rows
