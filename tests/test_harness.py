from __future__ import annotations

import builtins
import csv
import io
import math
import re
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from annealbench import dynamics as dy
from annealbench import harness as hz
from annealbench import instance_gen as ig
from annealbench import oracles as oc
from annealbench.errors import ConfigError, IncompleteRun
from annealbench.schedules import parse_schedule
from reference import read_csv

TINY_CFG = """
[experiment]
name = tiny
out_dir = {out}

[instance]
family = star-tree
k = 3

[schedules]
specs = fixed:2, greedy

[run]
algorithm = ump
steps = 400
trials = 3
seed = 99
watch_root = true
thresholds = 2,3

[acceptance]
root_often = frac_root_added_le 1.0
reach2 = frac_max_ge 2 0.9
"""


CT_INSTANCE = "family = clique-blowup\nn = 5\nk = 2\np = 0.2\nell = 3"
LABELED = "family = base-bipartite\nn = 4\nk = 2\np = 0.4"  # has side labels


# ct on an implicit blowup (which has no root to watch).
CT_CFG = (
    TINY_CFG.replace("family = star-tree\nk = 3", CT_INSTANCE)
    .replace("algorithm = ump\nsteps = 400", "algorithm = ct\nevents = 500")
    .replace("watch_root = true\n", "")
    .replace("{out}", "{out}/ct")
)


def _cfg(tmp_path, text=TINY_CFG):
    return hz.loads_config(text.format(out=tmp_path / "out"))


# The lines of TINY_CFG that only its chain run reads; a greedy run rejects them.
CHAIN_ONLY = ("[schedules]\nspecs = fixed:2, greedy\n", "steps = 400\n", "watch_root = true\n",
              "thresholds = 2,3\n")


def _drop(text: str, lines) -> str:
    for line in lines:
        text = text.replace(line, "")
    return text


def test_load_config_fields(tmp_path):
    cfg = _cfg(tmp_path)
    assert cfg.name == "tiny"
    assert cfg.family == "star-tree"
    assert cfg.schedules == ("fixed:2", "greedy")
    assert cfg.trials == 3
    assert cfg.total_trials == 6
    assert cfg.thresholds == (2, 3)
    assert len(cfg.acceptance) == 2


def test_config_requires_sections():
    with pytest.raises(ConfigError):
        hz.loads_config("[experiment]\nname = x\n")


def test_a_percent_sign_in_a_config_value_is_read_literally(tmp_path):
    assert _cfg(tmp_path, TINY_CFG.replace("name = tiny", "name = 50%")).name == "50%"


def test_config_validates_algorithm(tmp_path):
    bad = TINY_CFG.replace("algorithm = ump", "algorithm = quantum")
    with pytest.raises(ConfigError):
        _cfg(tmp_path, bad)


def test_a_config_is_frozen_and_checked_when_made(tmp_path):
    cfg = _cfg(tmp_path)
    with pytest.raises(FrozenInstanceError):
        cfg.schedules = ("fixed:3",)
    with pytest.raises(FrozenInstanceError):
        cfg.out_dir = str(tmp_path / "elsewhere")
    with pytest.raises(ConfigError, match="trials must be >= 1"):
        replace(cfg, trials=0)
    with pytest.raises(ConfigError, match=r"\[schedules\] schedule spec 'fixed:0.5'"):
        replace(cfg, schedules=("fixed:0.5",))
    assert replace(cfg, schedules=("fixed:3",)).parsed_schedules == (parse_schedule("fixed:3"),)
    # A graph file (annealbench run) has no family: only the family checks are skipped.
    assert hz.ExperimentConfig("run", None, {}, algorithm="greedy").total_trials == 1
    with pytest.raises(ConfigError, match="algorithm greedy does not read schedules"):
        hz.ExperimentConfig("run", None, {}, ("fixed:2",), algorithm="greedy")


SEQ_CFG = TINY_CFG.replace("specs = fixed:2, greedy", "specs = seq:{seq}, greedy")
HORIZON_CFG = CT_CFG.replace("events = 500", "horizon = 1000")

# (config, its line, the line rewritten, True if the hash must stay).  The hash
# covers what was parsed, so a value written another way keeps it, and so do
# the name and [acceptance], which set no byte of run.csv, stats.csv or traj.csv.
HASH_CASES = [
    (TINY_CFG, "steps = 400", "steps =   400   # comment", True),
    (TINY_CFG, "steps = 400", "steps = 0400", True),
    (TINY_CFG, "k = 3", "k = 03", True),
    (TINY_CFG, "fixed:2,", "fixed:2.0,", True),
    (HORIZON_CFG, "horizon = 1000", "horizon = 1e3", True),
    (TINY_CFG, "name = tiny", "name = other", True),
    (TINY_CFG, "reach2 =", "reach3 = frac_max_ge 3 0.5\nreach2 =", True),
    (SEQ_CFG, "seq:{seq}", "seq:{seq_reformatted}", True),
    (TINY_CFG, "steps = 400", "steps = 401", False),
    (TINY_CFG, "seed = 99", "seed = 100", False),
    (TINY_CFG, "fixed:2,", "fixed:3,", False),
    (SEQ_CFG, "seq:{seq}", "seq:{seq_changed}", False),
]


def test_config_hash_ignores_formatting(tmp_path):
    files = {"seq": "1.5\n3\n8\n", "seq_reformatted": "1.50\n3.0\n\n8e0\n",
             "seq_changed": "1.5\n3\n9\n"}
    for name, values in files.items():
        (tmp_path / name).write_text(values)
    paths = {name: tmp_path / name for name in files}
    for text, old, new, same in HASH_CASES:
        assert old in text
        a = hz.loads_config(text.format(out=tmp_path, **paths))
        b = hz.loads_config(text.replace(old, new).format(out=tmp_path, **paths))
        assert (hz.config_hash(a) == hz.config_hash(b)) is same, (old, new)


def test_run_experiment_writes_expected_files(tmp_path):
    cfg = _cfg(tmp_path)
    manifest = hz.run_experiment(cfg, workers=1)
    out = Path(cfg.out_dir)
    run_csv = (out / "run.csv").read_text()
    header = run_csv.splitlines()[0]
    assert header == ",".join(hz.RUN_CSV_COLUMNS)
    assert len(run_csv.splitlines()) == 1 + cfg.total_trials
    assert (out / "stats.csv").exists()
    assert (out / "manifest.txt").exists()
    assert manifest.config_hash == hz.config_hash(cfg)
    assert len(manifest.trial_seeds) == cfg.total_trials


def test_run_experiment_deterministic_across_workers(tmp_path):
    cfg1 = replace(_cfg(tmp_path), out_dir=str(tmp_path / "w1"))
    cfg2 = replace(_cfg(tmp_path), out_dir=str(tmp_path / "w2"))
    hz.run_experiment(cfg1, workers=1)
    hz.run_experiment(cfg2, workers=2)
    assert (Path(cfg1.out_dir) / "run.csv").read_bytes() == (
        Path(cfg2.out_dir) / "run.csv"
    ).read_bytes()
    assert (Path(cfg1.out_dir) / "stats.csv").read_bytes() == (
        Path(cfg2.out_dir) / "stats.csv"
    ).read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_an_interrupted_run_leaves_the_old_outputs_whole(tmp_path, monkeypatch, workers):
    """A trial that raises (the third of six) leaves a complete earlier run in the
    same directory as it was, and no temp file: every table lands whole or not at all."""
    import multiprocessing

    if workers > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("the pool's workers see the raising engine only when forked")
    cfg = _cfg(tmp_path, TINY_CFG.replace("seed = 99", "seed = 99\nsnapshot_every = 37"))
    hz.run_experiment(cfg, workers=1)
    out = Path(cfg.out_dir)
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    assert sorted(before) == ["manifest.txt", "run.csv", "stats.csv", "traj.csv"]
    third, run_ump = hz.trial_seed(cfg.seed, 2), dy.run_ump

    def raising(graph, sched, steps, seed, **kwargs):
        if seed == third:
            raise RuntimeError("trial 2 stops")
        return run_ump(graph, sched, steps, seed, **kwargs)

    monkeypatch.setattr(dy, "run_ump", raising)
    with pytest.raises(RuntimeError, match="trial 2 stops"):
        hz.run_experiment(cfg, workers=workers)
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before


def test_snapshots_are_written_to_traj_csv(tmp_path):
    plain = replace(_cfg(tmp_path), out_dir=str(tmp_path / "plain"))
    hz.run_experiment(plain, workers=1)
    assert not (tmp_path / "plain" / "traj.csv").exists()
    text = TINY_CFG.replace("seed = 99", "seed = 99\nsnapshot_every = 37")
    outs = {}
    for workers in (1, 2):
        cfg = replace(_cfg(tmp_path, text), out_dir=str(tmp_path / f"w{workers}"))
        manifest = hz.run_experiment(cfg, workers=workers)
        out = Path(cfg.out_dir)
        assert manifest.files[-1] == str(out / "traj.csv")
        assert f"files = {','.join(manifest.files)}" in (out / "manifest.txt").read_text()
        for name in ("run.csv", "stats.csv"):  # snapshots change no other byte
            assert (out / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
        outs[workers] = (out / "traj.csv").read_bytes()
    assert outs[1] == outs[2]

    bundle = hz.build_instance(cfg)
    want = []
    for trial_id in range(cfg.total_trials):
        spec = cfg.schedules[trial_id // cfg.trials]
        rec = dy.run_ump(
            bundle.graph, parse_schedule(spec), cfg.steps, hz.trial_seed(cfg.seed, trial_id),
            recorder=hz._recorder_for(cfg, bundle),
        )
        assert len(rec.snapshots) == cfg.steps // 37
        want += [(trial_id, *snap) for snap in rec.snapshots]
    rows = read_csv(tmp_path / "w1" / "traj.csv")
    assert list(rows[0]) == list(hz.TRAJ_CSV_COLUMNS)
    assert [tuple(int(x) for x in r.values()) for r in rows] == want


def test_trial_rows_have_alpha_and_ratio(tmp_path):
    cfg = _cfg(tmp_path)
    manifest = hz.run_experiment(cfg, workers=1)
    for row in manifest.rows:
        assert row["alpha"] == 4  # star tree k=3
        assert 0.0 <= float(row["ratio"]) <= 1.0


def test_verdict_kinds(tmp_path):
    cfg = _cfg(tmp_path)
    rows = [
        {
            "trial_id": i,
            "max_size": 3 + (i % 2),
            "root_added": 0,
            "probe_count": 2,
            "discrepancy": 10 * i,
            "ratio": "0.5",
        }
        for i in range(4)
    ]
    cfg = replace(cfg, acceptance=(
        ("a", "frac_max_le 3 0.5"),
        ("b", "frac_max_ge 4 0.5"),
        ("c", "frac_root_added_le 0.0"),
        ("d", "frac_probe_ge 2 1.0"),
        ("e", "frac_discrepancy_gt_le 15 0.5"),
        ("f", "mean_ratio_le 0.6"),
        ("g", "mean_max_le 3.6"),
    ))
    report = hz.verdict(cfg, rows)
    assert [r.passed for r in report.rows] == [True] * 7
    cfg = replace(cfg, acceptance=(("too_strict", "frac_max_le 2 0.9"),))
    assert not hz.verdict(cfg, rows).all_passed


def parse_verdict_csv(text: str) -> hz.VerdictReport:
    """Read back the text of ``VerdictReport.to_csv_text``."""
    return hz.VerdictReport(
        [
            hz.VerdictRow(
                check=rec["check"],
                kind=rec["kind"],
                observed=float(rec["observed"]),
                target=float(rec["target"]),
                passed=bool(int(rec["passed"])),
                interval=(float(rec["ci_low"]), float(rec["ci_high"])),
            )
            for rec in csv.DictReader(io.StringIO(text))
        ]
    )


def test_verdict_round_trips_through_csv(tmp_path):
    cfg = _cfg(tmp_path)
    manifest = hz.run_experiment(cfg, workers=1)
    report = hz.verdict(cfg, manifest.rows)
    parsed = parse_verdict_csv(report.to_csv_text())
    assert parsed == report
    for row in parsed.rows:
        lo, hi = row.interval
        assert 0.0 <= lo <= row.observed <= hi <= 1.0
        assert f"observed={row.observed:.6g} (95% CI {lo:.6g}..{hi:.6g}) target" in report.to_text()


def test_statistic_counts_and_intervals():
    rows = [{"max_size": str(s), "probe_count": ""} for s in (1, 2, 3, 4)]
    le = hz.statistic("le", "frac_max_le", rows, [2.5])
    assert (le.successes, le.total, le.observed) == (2, 4, 0.5)
    assert le.interval == oc.wilson_interval(2, 4)
    mean = hz.statistic("mean", "mean_max_le", rows, [])
    assert (mean.values, mean.observed) == ((1.0, 2.0, 3.0, 4.0), 2.5)
    assert mean.interval == oc.normal_mean_interval([1.0, 2.0, 3.0, 4.0])
    # A row without the column (an early stop before probe_step) still counts.
    rows[0]["probe_count"] = "3"
    probe = hz.statistic("probe", "frac_probe_ge", rows, [3])
    assert (probe.successes, probe.total) == (1, 4)
    with pytest.raises(IncompleteRun, match="check d: no trial row records discrepancy"):
        hz.statistic("d", "frac_discrepancy_gt_le", rows, [0])
    with pytest.raises(IncompleteRun, match="check r: no trial row records ratio"):
        hz.statistic("r", "mean_ratio_le", rows, [])


# -- report text ----------------------------------------------------------------


def _report_lines(rows: list[dict], alpha: int | None = None) -> dict[str, str]:
    text = hz.report_text(rows, alpha, [])
    return dict(line.split(" = ", 1) for line in text.splitlines())


def test_report_of_one_row_has_std_zero_and_its_ratio():
    lines = _report_lines([{"max_size": "5", "alpha": "10"}])  # alpha from the row
    assert lines["max_size std"] == "0.0000"
    assert lines["ratio mean"] == "0.500000"
    assert _report_lines([{"max_size": "5", "alpha": "10"}], alpha=20)["ratio mean"] == "0.250000"


def test_report_of_constant_rows_has_std_zero():
    lines = _report_lines([{"max_size": "3"}] * 8)
    assert lines["max_size std"] == "0.0000"
    assert lines["max_size mean"] == "3.0000 (95% CI 3.0000..3.0000)"
    assert oc.normal_mean_interval([3.0] * 8) == (3.0, 3.0)
    assert "ratio mean" not in lines


def test_report_quantiles_match_sort_oracle():
    vals = np.random.default_rng(3).integers(0, 100, 57)
    lines = _report_lines([{"max_size": str(v)} for v in vals])
    ordered = np.sort(vals.astype(float))
    for q in (0.0, 0.25, 0.5, 0.75, 1.0):
        idx = min(56, max(0, math.ceil(q * 57) - 1))
        assert lines[f"quantile {q:g}"] == f"{ordered[idx]:g}"


def test_report_of_no_rows_raises():
    with pytest.raises(IncompleteRun, match="no trial row records max_size"):
        hz.report_text([], None, [])


def test_verdict_requires_rows(tmp_path):
    cfg = _cfg(tmp_path)
    with pytest.raises(IncompleteRun):
        hz.verdict(cfg, [])


def test_verdict_unknown_kind(tmp_path):
    cfg = _cfg(tmp_path)
    with pytest.raises(ConfigError, match="unknown acceptance check kind"):
        replace(cfg, acceptance=(("x", "frac_flux_capacitor 1 2"),))


def test_read_and_merge_csvs(tmp_path):
    cfg = _cfg(tmp_path)
    hz.run_experiment(cfg, workers=1)
    out = Path(cfg.out_dir)
    run_rows = read_csv(out / "run.csv")
    merged = hz.read_trials(out / "run.csv", out / "stats.csv")
    assert len(merged) == cfg.total_trials
    assert "schedule" in merged[0] and "max_size" in merged[0]
    assert [r["trial_id"] for r in merged] == [r["trial_id"] for r in run_rows]
    assert hz.read_trials(out / "run.csv") == run_rows


def test_chain_experiment_rows(tmp_path):
    text = """
[experiment]
name = chain
out_dir = {out}

[instance]
family = balanced-bipartite
n = 50
d = 4

[run]
algorithm = chain
trials = 5
seed = 7

[acceptance]
balanced = frac_discrepancy_gt_le 33.8 0.5
"""
    cfg = _cfg(tmp_path, text)
    manifest = hz.run_experiment(cfg, workers=1)
    assert len(manifest.rows) == 5
    for row in manifest.rows:
        assert row["steps"] == 100
        assert row["discrepancy"] != ""
    report = hz.verdict(cfg, manifest.rows)
    assert len(report.rows) == 1


def test_bundled_configs_parse():
    import importlib.resources as res

    cfg_dir = res.files("annealbench") / "configs"
    names = sorted(p.name for p in cfg_dir.iterdir() if p.name.endswith(".cfg"))
    assert len(names) >= 8
    for name in names:
        cfg = hz.loads_config((cfg_dir / name).read_text())
        assert cfg.total_trials >= 1


# -- strict [run] parsing ------------------------------------------------------


@pytest.mark.parametrize(
    "old,new,match",
    [
        ("trials = 3", "trials = 0", "trials"),
        ("thresholds = 2,3", "thresholds = 4.7", "thresholds"),
        ("steps = 400", "steps = 400\nsteps_per_trial = 9", "steps_per_trial"),
        ("seed = 99", "seed = 99\nalpha = 0", "alpha"),
        ("reach2 = frac_max_ge 2 0.9", "reach2 = frac_max_ge 2", "reach2"),
        ("reach2 = frac_max_ge 2 0.9", "reach2 = frac_max_ge 2 0.9 7", "reach2"),
        ("reach2 = frac_max_ge 2 0.9", "reach2 = frac_flux_capacitor 1 2", "frac_flux_capacitor"),
        # a negative mark once made the run loop forever
        ("seed = 99", "seed = 99\nprobe_step = -3", "probe_step"),
        ("seed = 99", "seed = 99\nsnapshot_every = -5", "snapshot_every"),
        ("seed = 99", "seed = 99\nearly_stop_size = -1", "early_stop_size"),
        ("seed = 99", "seed = 99\nearly_stop_size = 0", "early_stop_size"),
        ("thresholds = 2,3", "thresholds = 0,-2", "thresholds"),
        ("thresholds = 2,3", "thresholds = 2,0", "thresholds"),
        # a section or key the config does not read was once dropped without a word
        ("[acceptance]", "[acceptence]", r"unknown config section \[acceptence\]"),
        ("[run]", "[Run]", r"unknown config section \[Run\]"),
        ("out_dir = ", "out_dri = ", r"\[experiment\]: unknown keys \['out_dri'\]"),
        ("specs = fixed:2, greedy", "specs = fixed:2, greedy\nspec = fixed:3",
         r"\[schedules\]: unknown keys \['spec'\]"),
    ],
)
def test_run_and_acceptance_sections_are_parsed_strictly(tmp_path, old, new, match):
    with pytest.raises(ConfigError, match=match):
        _cfg(tmp_path, TINY_CFG.replace(old, new))


@pytest.mark.parametrize(
    "spec",
    [
        "geometric:1:2", "fixed:abc", "geometric:a:2:3",
        "geometric:1:2:10:0.5", "geometric:1:2:10:nan", "geometric:1:nan:10",
    ],
)
def test_malformed_schedule_spec_is_a_config_error(tmp_path, spec):
    with pytest.raises(ConfigError, match=r"\[schedules\].*" + spec):
        _cfg(tmp_path, TINY_CFG.replace("specs = fixed:2, greedy", f"specs = fixed:2, {spec}"))


@pytest.mark.parametrize(
    "run,match",
    [
        ("horizon = -1", "horizon"),
        ("horizon = nan", "horizon"),
        ("events = -5", "events"),
        ("horizon = burn", "horizon = burn needs p > 0"),  # burn-in time 1 / (8 k p n)
    ],
)
def test_ct_horizon_and_events_are_checked(tmp_path, run, match):
    # p = 0 is a valid blowup, but one with no burn-in window.
    text = CT_CFG.replace("p = 0.2", "p = 0.0").replace("events = 500", run)
    with pytest.raises(ConfigError, match=match):
        hz.build_instance(_cfg(tmp_path, text))


def test_large_seed_is_kept_exactly(tmp_path):
    cfg = _cfg(tmp_path, TINY_CFG.replace("seed = 99", "seed = 12345678901234567891"))
    assert cfg.seed == 12345678901234567891


# -- alpha provenance ---------------------------------------------------------


@pytest.mark.parametrize(
    "instance,extra,alpha,method",
    [
        ("family = star-tree\nk = 3", "", 4, "closed_form"),
        ("family = star-tree\nk = 3", "alpha = 7", 7, "override"),
        ("family = balanced-bipartite\nn = 30\nd = 3", "", None, "bipartite_matching"),
        ("family = clique-blowup\nn = 5\nk = 2\np = 0.1\nell = 3\nmode = explicit", "", 10,
         "lower_bound"),
    ],
)
def test_manifest_records_alpha_and_its_source(tmp_path, instance, extra, alpha, method):
    text = TINY_CFG.replace("family = star-tree\nk = 3", instance).replace(
        "watch_root = true", extra
    )
    cfg = replace(_cfg(tmp_path, text), acceptance=())
    manifest = hz.run_experiment(cfg, workers=1)
    lines = (Path(cfg.out_dir) / "manifest.txt").read_text().splitlines()
    assert f"alpha = {manifest.alpha}" in lines
    assert f"alpha_method = {method}" in lines
    assert manifest.alpha_method == method
    if alpha is not None:
        assert manifest.alpha == alpha
    header = (Path(cfg.out_dir) / "run.csv").read_text().splitlines()[0]
    assert header == ",".join(hz.RUN_CSV_COLUMNS)


# -- worker count ---------------------------------------------------------------


def test_worker_count_sources():
    import os

    assert hz.worker_count() == max(1, os.cpu_count() or 1)
    assert hz.worker_count(3) == 3


def test_worker_count_reads_no_environment_variable(monkeypatch):
    monkeypatch.setenv("ANNEALBENCH_WORKERS", "3")
    assert hz.worker_count(1) == 1


@pytest.mark.parametrize("value", [0, -3, 2.5, True])
def test_worker_count_rejects_a_bad_argument(value):
    message = f"--workers must be an integer >= 1, got {value!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        hz.worker_count(value)


# -- pool start methods -------------------------------------------------------

SPAWN_SCRIPT = """
import multiprocessing, sys
from annealbench import harness as hz
multiprocessing.set_start_method("spawn")
for text in sys.argv[1:]:
    hz.run_experiment(hz.loads_config(text), workers=2)
"""

# Greedy on 600 vertices: each worker builds the graph's neighbor_arrays
# itself, and the scan crosses its 256-position block edges. Its 40 trials go
# to a pool of 2 in tasks of 3.
GREEDY_CFG = (
    _drop(TINY_CFG, CHAIN_ONLY)
    .replace("family = star-tree\nk = 3", "family = balanced-bipartite\nn = 300\nd = 4")
    .replace("algorithm = ump\ntrials = 3", "algorithm = greedy\ntrials = 40")
    .replace("{out}", "{out}/greedy")
)


def test_pool_under_spawn_matches_serial(tmp_path):
    import os
    import subprocess
    import sys

    texts = []
    for text in (TINY_CFG, GREEDY_CFG, CT_CFG):
        serial = hz.loads_config(text.format(out=tmp_path / "serial"))
        hz.run_experiment(serial, workers=1)
        texts.append(text.format(out=tmp_path / "spawn"))
    assert "algorithm = greedy" in texts[1] and "algorithm = ct" in texts[2]
    hz.run_experiment(hz.loads_config(GREEDY_CFG.format(out=tmp_path / "pooled")), workers=2)
    env = dict(os.environ)
    src = str(Path(hz.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", SPAWN_SCRIPT, *texts],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    for name in ("run.csv", "stats.csv", "greedy/run.csv", "greedy/stats.csv", "ct/run.csv",
                 "ct/stats.csv"):
        assert (tmp_path / "spawn" / name).read_bytes() == (
            tmp_path / "serial" / name
        ).read_bytes()
    for name in ("greedy/run.csv", "greedy/stats.csv"):
        assert (tmp_path / "pooled" / name).read_bytes() == (
            tmp_path / "serial" / name
        ).read_bytes()


@pytest.mark.parametrize(
    "text,names",
    [(TINY_CFG.replace("seed = 99", "seed = 99\nsnapshot_every = 37"),
      ("run.csv", "stats.csv", "traj.csv")),
     (GREEDY_CFG, ("run.csv", "stats.csv"))],
    ids=["chain", "greedy"],
)
def test_pool_chunk_size_moves_no_byte(tmp_path, monkeypatch, text, names):
    """Tasks of 1, of 5 and of every trial at once give the serial run's bytes."""
    import multiprocessing.pool

    serial = hz.loads_config(text.format(out=tmp_path / "serial"))
    hz.run_experiment(serial, workers=1)
    pool_imap = multiprocessing.pool.Pool.imap
    for size in (1, 5, None):
        used = []

        def forced_imap(self, func, ids, chunksize=1, size=size):
            used.append(size or len(ids))
            return pool_imap(self, func, ids, size or len(ids))

        monkeypatch.setattr(multiprocessing.pool.Pool, "imap", forced_imap)
        cfg = hz.loads_config(text.format(out=tmp_path / f"chunk{size}"))
        hz.run_experiment(cfg, workers=2)
        assert used == [size or cfg.total_trials]
        for name in names:
            got = (Path(cfg.out_dir) / name).read_bytes()
            assert got == (Path(serial.out_dir) / name).read_bytes(), (size, name)


@pytest.mark.parametrize(
    "algorithm,built", [("ump", True), ("degree-greedy", True), ("greedy", False)]
)
def test_neighbor_lists_are_built_only_for_trials_that_read_them(
    tmp_path, monkeypatch, algorithm, built
):
    """``run_experiment`` builds ``neighbor_lists`` before the trials, to be
    handed to every worker, only where the trials read them: randomized
    greedy reads ``neighbor_arrays``, and a star tree's alpha is a closed
    form."""
    bundles = []
    build = hz.build_instance
    monkeypatch.setattr(hz, "build_instance", lambda cfg: bundles.append(build(cfg)) or bundles[0])
    text = TINY_CFG if algorithm == "ump" else _drop(TINY_CFG, CHAIN_ONLY)
    cfg = _cfg(tmp_path, text.replace("algorithm = ump", f"algorithm = {algorithm}"))
    hz.run_experiment(cfg, workers=1)
    assert ("neighbor_lists" in vars(bundles[0].graph)) == built


# -- engine in the manifest -------------------------------------------------------


@pytest.mark.parametrize(
    "instance,run,engine",
    [
        ("family = star-tree\nk = 3", "", "jump"),
        (LABELED, "algorithm = ump\nsteps = 40\ntrack_touched = true", "step"),
        (CT_INSTANCE, "algorithm = ct\nevents = 500", "jump"),
        (CT_INSTANCE, "algorithm = ct\nevents = 500\ntrack_touched = true", "step"),
        ("family = star-tree\nk = 3", "algorithm = greedy", None),
    ],
)
def test_manifest_records_the_engine(tmp_path, instance, run, engine):
    text = TINY_CFG.replace("family = star-tree\nk = 3", instance)
    if run:
        # Only the star tree has a root to watch; greedy reads no chain key.
        text = text.replace("algorithm = ump\nsteps = 400", run)
        text = _drop(text, CHAIN_ONLY if engine is None else ["watch_root = true\n"])
    cfg = replace(_cfg(tmp_path, text), acceptance=())
    manifest = hz.run_experiment(cfg, workers=1)
    assert manifest.engine == engine
    lines = (Path(cfg.out_dir) / "manifest.txt").read_text().splitlines()
    assert [line for line in lines if line.startswith("engine")] == (
        [f"engine = {engine}"] if engine else []
    )
    header = (Path(cfg.out_dir) / "run.csv").read_text().splitlines()[0]
    assert header == ",".join(hz.RUN_CSV_COLUMNS)


# -- trials build nothing ---------------------------------------------------------


def test_a_seq_schedule_is_read_once_per_run(tmp_path, monkeypatch):
    seq = tmp_path / "lam.txt"
    seq.write_text("1.5\n3\n8\n" * 40)
    text = TINY_CFG.replace("specs = fixed:2, greedy", f"specs = seq:{seq}, fixed:2")
    kept = replace(_cfg(tmp_path, text), out_dir=str(tmp_path / "kept"))
    hz.run_experiment(kept, workers=1)
    build = hz.build_instance

    def build_then_delete(cfg):
        bundle = build(cfg)
        seq.unlink(missing_ok=True)
        return bundle

    monkeypatch.setattr(hz, "build_instance", build_then_delete)
    for workers in (1, 2):
        seq.write_text("1.5\n3\n8\n" * 40)
        cfg = replace(_cfg(tmp_path, text), out_dir=str(tmp_path / f"w{workers}"))
        hz.run_experiment(cfg, workers=workers)
        assert not seq.exists()
        for name in ("run.csv", "stats.csv"):
            assert (tmp_path / f"w{workers}" / name).read_bytes() == (
                tmp_path / "kept" / name
            ).read_bytes()


def test_a_seq_file_is_opened_once_per_run_and_its_values_enter_the_hash(tmp_path, monkeypatch):
    seq = tmp_path / "lam.txt"
    seq.write_text("1.5\n3\n8\n")
    text = TINY_CFG.replace("specs = fixed:2, greedy", f"specs = seq:{seq}, fixed:2")
    reads = []
    real_open = builtins.open

    def counted(file, *args, **kwargs):
        if str(file) == str(seq):
            reads.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted)
    manifest = hz.run_experiment(_cfg(tmp_path, text), workers=1)
    assert len(reads) == 1  # loading (which checks), building and hashing: one read
    seq.write_text("1.5\n3\n9\n")
    assert hz.config_hash(_cfg(tmp_path, text)) != manifest.config_hash
    seq.write_text("1.5\n3\n8\n")
    assert hz.config_hash(_cfg(tmp_path, text)) == manifest.config_hash


def test_a_bundled_config_parses_its_instance_once(tmp_path, monkeypatch):
    """Loading parses and checks the [instance] values; the build and the hash read
    ``cfg.params``."""
    calls = []
    parse = ig.Family.parse

    def counted(self, raw):
        calls.append(self.name)
        return parse(self, raw)

    monkeypatch.setattr(ig.Family, "parse", counted)
    cfg = hz.load_config(Path(hz.__file__).parent / "configs" / "multicopy_greedy.cfg",
                         out_dir=str(tmp_path))
    manifest = hz.run_experiment(cfg, workers=1)
    assert len(manifest.rows) == cfg.trials
    assert calls == ["multicopy"]


def test_a_ct_run_builds_its_rate_table_once(tmp_path, monkeypatch):
    made = []
    blowup_implicit = dy.WeightedCTConfig.blowup_implicit

    def counted(*args, **kwargs):
        made.append(blowup_implicit(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(dy.WeightedCTConfig, "blowup_implicit", staticmethod(counted))
    text = CT_CFG.replace("trials = 3", "trials = 2")
    cfg = _cfg(tmp_path, text)
    assert cfg.total_trials == 4  # 2 schedules x 2 trials
    manifest = hz.run_experiment(cfg, workers=1)
    assert len(manifest.rows) == 4
    assert len(made) == 1 and "classes" in vars(made[0])


def test_no_trial_function_builds_a_schedule_recorder_or_rate_table():
    """Trial functions only index the bundle: ``bundle_for`` builds what they read."""
    import ast

    banned = {"parse_schedule", "RecorderConfig", "WeightedCTConfig", "blowup_implicit",
              "_recorder_for"}
    trials = {row[0].__name__ for row in hz._ALGORITHMS.values()}
    tree = ast.parse(Path(hz.__file__).read_text())
    defs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name in trials]
    assert {d.name for d in defs} == trials
    for fn in defs:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                assert name not in banned, f"{fn.name} calls {name}"
