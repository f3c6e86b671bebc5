from __future__ import annotations

from pathlib import Path

import pytest

from annealbench import harness as hz
from annealbench.errors import ConfigError, IncompleteRun

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


def _cfg(tmp_path, text=TINY_CFG):
    return hz.loads_config(text.format(out=tmp_path / "out"))


def test_load_config_fields(tmp_path):
    cfg = _cfg(tmp_path)
    assert cfg.name == "tiny"
    assert cfg.family == "star-tree"
    assert cfg.schedules == ["fixed:2", "greedy"]
    assert cfg.trials == 3
    assert cfg.total_trials == 6
    assert cfg.thresholds == (2, 3)
    assert len(cfg.acceptance) == 2


def test_config_requires_sections():
    with pytest.raises(ConfigError):
        hz.loads_config("[experiment]\nname = x\n")


def test_config_validates_algorithm(tmp_path):
    bad = TINY_CFG.replace("algorithm = ump", "algorithm = quantum")
    with pytest.raises(ConfigError):
        _cfg(tmp_path, bad)


def test_config_hash_ignores_formatting(tmp_path):
    a = _cfg(tmp_path)
    spaced = TINY_CFG.replace("steps = 400", "steps =   400   # comment")
    b = _cfg(tmp_path, spaced)
    assert hz.config_hash(a) == hz.config_hash(b)
    changed = _cfg(tmp_path, TINY_CFG.replace("steps = 400", "steps = 401"))
    assert hz.config_hash(a) != hz.config_hash(changed)


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
    cfg1 = _cfg(tmp_path)
    cfg1.out_dir = str(tmp_path / "w1")
    cfg2 = _cfg(tmp_path)
    cfg2.out_dir = str(tmp_path / "w2")
    hz.run_experiment(cfg1, workers=1)
    hz.run_experiment(cfg2, workers=2)
    assert (Path(cfg1.out_dir) / "run.csv").read_bytes() == (
        Path(cfg2.out_dir) / "run.csv"
    ).read_bytes()
    assert (Path(cfg1.out_dir) / "stats.csv").read_bytes() == (
        Path(cfg2.out_dir) / "stats.csv"
    ).read_bytes()


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
    cfg.acceptance = [
        ("a", "frac_max_le 3 0.5"),
        ("b", "frac_max_ge 4 0.5"),
        ("c", "frac_root_added_le 0.0"),
        ("d", "frac_probe_ge 2 1.0"),
        ("e", "frac_discrepancy_gt_le 15 0.5"),
        ("f", "mean_ratio_le 0.6"),
        ("g", "mean_max_le 3.6"),
    ]
    report = hz.verdict(cfg, rows)
    assert [r.passed for r in report.rows] == [True] * 7
    cfg.acceptance = [("too_strict", "frac_max_le 2 0.9")]
    assert not hz.verdict(cfg, rows).all_passed


def test_verdict_round_trips_through_csv(tmp_path):
    cfg = _cfg(tmp_path)
    manifest = hz.run_experiment(cfg, workers=1)
    report = hz.verdict(cfg, manifest.rows)
    parsed = hz.parse_verdict_csv(report.to_csv_text())
    assert parsed == report


def test_verdict_requires_rows(tmp_path):
    cfg = _cfg(tmp_path)
    with pytest.raises(IncompleteRun):
        hz.verdict(cfg, [])


def test_verdict_unknown_kind(tmp_path):
    cfg = _cfg(tmp_path)
    cfg.acceptance = [("x", "frac_flux_capacitor 1 2")]
    with pytest.raises(ConfigError):
        hz.verdict(cfg, [{"max_size": 1}])


def test_read_and_merge_csvs(tmp_path):
    cfg = _cfg(tmp_path)
    hz.run_experiment(cfg, workers=1)
    out = Path(cfg.out_dir)
    run_rows = hz.read_csv(out / "run.csv")
    stats_rows = hz.read_csv(out / "stats.csv")
    merged = hz.merge_run_and_stats(run_rows, stats_rows)
    assert len(merged) == cfg.total_trials
    assert "schedule" in merged[0] and "max_size" in merged[0]


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
    ],
)
def test_run_and_acceptance_sections_are_parsed_strictly(tmp_path, old, new, match):
    with pytest.raises(ConfigError, match=match):
        _cfg(tmp_path, TINY_CFG.replace(old, new))


@pytest.mark.parametrize("spec", ["geometric:1:2", "fixed:abc", "geometric:a:2:3"])
def test_malformed_schedule_spec_is_a_config_error(tmp_path, spec):
    with pytest.raises(ConfigError, match=r"\[schedules\].*" + spec):
        _cfg(tmp_path, TINY_CFG.replace("specs = fixed:2, greedy", f"specs = fixed:2, {spec}"))


@pytest.mark.parametrize(
    "run,match",
    [
        ("horizon = -1", "horizon"),
        ("horizon = nan", "horizon"),
        ("events = -5", "events"),
    ],
)
def test_ct_horizon_and_events_are_checked(tmp_path, run, match):
    text = TINY_CFG.replace("family = star-tree\nk = 3", CT_INSTANCE).replace(
        "algorithm = ump\nsteps = 400", f"algorithm = ct\n{run}"
    )
    with pytest.raises(ConfigError, match=match):
        _cfg(tmp_path, text)


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
        ("family = clique-blowup\nn = 5\nk = 2\np = 0.1\nell = 3", "", 10, "lower_bound"),
    ],
)
def test_manifest_records_alpha_and_its_source(tmp_path, instance, extra, alpha, method):
    text = TINY_CFG.replace("family = star-tree\nk = 3", instance).replace(
        "watch_root = true", extra
    )
    cfg = _cfg(tmp_path, text)
    cfg.acceptance = []
    manifest = hz.run_experiment(cfg, workers=1)
    lines = (Path(cfg.out_dir) / "manifest.txt").read_text().splitlines()
    assert f"alpha = {manifest.alpha}" in lines
    assert f"alpha_method = {method}" in lines
    assert manifest.alpha_method == method
    if alpha is not None:
        assert manifest.alpha == alpha
    header = (Path(cfg.out_dir) / "run.csv").read_text().splitlines()[0]
    assert header == ",".join(hz.RUN_CSV_COLUMNS)


# -- pool start methods -------------------------------------------------------

SPAWN_SCRIPT = """
import multiprocessing, sys
from annealbench import harness as hz
multiprocessing.set_start_method("spawn")
cfg = hz.loads_config(sys.argv[1])
hz.run_experiment(cfg, workers=2)
"""


def test_pool_under_spawn_matches_serial(tmp_path):
    import os
    import subprocess
    import sys

    serial = _cfg(tmp_path)
    serial.out_dir = str(tmp_path / "serial")
    hz.run_experiment(serial, workers=1)
    text = TINY_CFG.format(out=tmp_path / "spawn")
    env = {k: v for k, v in os.environ.items() if k != "ANNEALBENCH_WORKERS"}
    src = str(Path(hz.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", SPAWN_SCRIPT, text],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    for name in ("run.csv", "stats.csv"):
        assert (tmp_path / "spawn" / name).read_bytes() == (
            tmp_path / "serial" / name
        ).read_bytes()


# -- engine in the manifest -------------------------------------------------------


@pytest.mark.parametrize(
    "instance,run,engine",
    [
        ("family = star-tree\nk = 3", "", "jump"),
        ("family = star-tree\nk = 3", "algorithm = ump\nsteps = 40\ntrack_touched = true", "step"),
        (CT_INSTANCE, "algorithm = ct\nevents = 500", "jump"),
        (CT_INSTANCE, "algorithm = ct\nevents = 500\ntrack_touched = true", "step"),
        ("family = star-tree\nk = 3", "algorithm = greedy", None),
    ],
)
def test_manifest_records_the_engine(tmp_path, instance, run, engine):
    text = TINY_CFG.replace("family = star-tree\nk = 3", instance)
    if run:
        text = text.replace("algorithm = ump\nsteps = 400", run)
    cfg = _cfg(tmp_path, text)
    cfg.acceptance = []
    manifest = hz.run_experiment(cfg, workers=1)
    assert manifest.engine == engine
    lines = (Path(cfg.out_dir) / "manifest.txt").read_text().splitlines()
    assert [line for line in lines if line.startswith("engine")] == (
        [f"engine = {engine}"] if engine else []
    )
    header = (Path(cfg.out_dir) / "run.csv").read_text().splitlines()[0]
    assert header == ",".join(hz.RUN_CSV_COLUMNS)
