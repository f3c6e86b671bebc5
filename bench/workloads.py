"""Benchmark workloads: bundled experiment configs resized for steady timing.

Each workload takes one config from ``src/annealbench/configs/`` with its
instance, schedules and recorder unchanged, overrides only the ``[run]``
sizes below, sets the seed from the command line, and drops the
``[acceptance]`` section: gates are never judged at benchmark scale.
README.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

import configparser
import csv
import io
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from annealbench import dynamics as dy
from annealbench import graph_core as gc
from annealbench import harness as hz
from annealbench.schedules import parse_schedule

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "src" / "annealbench" / "configs"


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    oracle: str  # exact alpha oracle in graph_core for the output check
    run: dict[str, str] = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ct_sweep",
            "blowup_hardness.cfg",
            # The implicit chain's state is an independent set of the
            # bipartite base, so Koenig on the base bounds max_size.
            oracle="alpha_bipartite",
            run={"events": "1000000", "trials": "2"},
        ),
        Workload(
            "tree_mixed",
            "tree_hardness.cfg",
            oracle="alpha_tree",
            run={"trials": "4"},
        ),
        Workload("bip_greedy", "bipartite_greedy.cfg", oracle="alpha_bipartite"),
    )
}


def bundled_seed(wl: Workload) -> int:
    return hz.load_config(CONFIG_DIR / wl.config).seed


def write_config(
    wl: Workload,
    seed: int,
    out_dir: Path,
    overrides: dict[str, dict[str, str]] | None = None,
) -> Path:
    """Write the generated config for ``wl`` into ``out_dir``; return its path.

    ``overrides`` maps section -> key -> value on top of the workload's own
    ``[run]`` sizes; the bench's tests use it to shrink instances.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not parser.read(CONFIG_DIR / wl.config):
        raise FileNotFoundError(CONFIG_DIR / wl.config)
    parser.remove_section("acceptance")
    parser["experiment"]["out_dir"] = str(out_dir)
    sections = {"run": dict(wl.run)}
    for section, values in (overrides or {}).items():
        sections.setdefault(section, {}).update(values)
    for section, values in sections.items():
        for key, value in values.items():
            parser[section][key] = value
    parser["run"]["seed"] = str(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "bench.cfg"
    with open(path, "w") as fh:
        parser.write(fh)
    return path


def exact_alpha(wl: Workload, bundle: hz.InstanceBundle) -> int:
    return getattr(gc, wl.oracle)(bundle.graph).alpha


def failed_trials(
    data: bytes, reference: bytes, trials: int, alpha: int
) -> set[int]:
    """Trial ids of ``run.csv`` bytes ``data`` that fail an output check.

    A trial fails if its id is missing or repeated, if its ``max_size`` or
    ``alpha`` exceeds the exact ``alpha``, or if its line differs from the
    line for the same id in ``reference`` (the serial run's ``run.csv``).
    """
    everything = set(range(trials))
    lines = data.decode().splitlines()
    ref_lines = reference.decode().splitlines()
    if not lines or lines[0] != ",".join(hz.RUN_CSV_COLUMNS) or lines[0] != ref_lines[0]:
        return everything
    ref_by_id = {line.split(",", 1)[0]: line for line in ref_lines[1:]}
    seen: Counter[int] = Counter()
    failed: set[int] = set()
    for line, row in zip(lines[1:], csv.DictReader(io.StringIO("\n".join(lines)))):
        tid = int(row["trial_id"])
        seen[tid] += 1
        if (
            int(row["max_size"]) > alpha
            or int(row["alpha"]) > alpha
            or ref_by_id.get(row["trial_id"]) != line
        ):
            failed.add(tid)
    if set(seen) - everything:
        return everything
    failed |= {t for t in everything if seen[t] != 1}
    if not failed and data != reference:
        return everything
    return failed


def chain_engine(cfg: hz.ExperimentConfig, bundle: hz.InstanceBundle, spec: str, steps: int):
    """The workload's chain engine for one schedule, cut to ``steps``
    proposals, as ``call(seed, recorder) -> TrialRecord``."""
    sched = parse_schedule(spec)
    g = bundle.graph
    if cfg.algorithm == "ct":
        ct_cfg = dy.WeightedCTConfig.blowup_implicit(
            g, bundle.ct_template["ell"], events=steps
        )
        return lambda seed, rec: dy.run_ct_ump(g, ct_cfg, sched, seed, recorder=rec)
    if cfg.algorithm == "ump":
        return lambda seed, rec: dy.run_ump(g, sched, steps, seed, recorder=rec)
    raise ValueError(f"no chain engine for algorithm {cfg.algorithm!r}")
