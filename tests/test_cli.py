from __future__ import annotations

from pathlib import Path

import pytest

from annealbench import harness as hz
from annealbench.cli import main


def test_gen_alpha_run_report_pipeline(tmp_path, capsys):
    graph = str(tmp_path / "tree.graph")
    assert main(["gen", "--family", "star-tree", "--param", "k=5", "--out", graph]) == 0
    assert Path(graph).exists()
    meta = Path(graph + ".meta").read_text()
    assert "family = star-tree" in meta and "alpha = 6" in meta

    assert main(["alpha", "--graph", graph, "--method", "tree", "--witness"]) == 0
    out = capsys.readouterr().out
    assert "alpha = 6" in out

    run_csv = str(tmp_path / "run.csv")
    assert (
        main(
            [
                "run",
                "--graph", graph,
                "--schedule", "fixed:2",
                "--steps", "2000",
                "--trials", "3",
                "--seed", "5",
                "--alpha", "6",
                "--out", run_csv,
            ]
        )
        == 0
    )
    rows = hz.read_csv(run_csv)
    assert len(rows) == 3
    assert all(r["alpha"] == "6" for r in rows)

    assert main(["report", "--run", run_csv, "--thresholds", "3"]) == 0
    out = capsys.readouterr().out
    assert "trials = 3" in out
    assert "ratio mean" in out


def test_gen_rejects_unknown_family(tmp_path):
    with pytest.raises(SystemExit):
        main(["gen", "--family", "nope", "--out", str(tmp_path / "x")])


def test_alpha_auto_method(tmp_path, capsys):
    graph = str(tmp_path / "b.graph")
    main(
        [
            "gen",
            "--family", "base-bipartite",
            "--param", "n=4", "--param", "k=2", "--param", "p=0.5",
            "--seed", "3",
            "--out", graph,
        ]
    )
    capsys.readouterr()
    assert main(["alpha", "--graph", graph]) == 0
    assert "bipartite_matching" in capsys.readouterr().out


def test_experiment_command_exit_codes(tmp_path, capsys):
    passing = tmp_path / "pass.cfg"
    passing.write_text(
        f"""
[experiment]
name = t
out_dir = {tmp_path / "out_pass"}

[instance]
family = star-tree
k = 3

[schedules]
specs = greedy

[run]
algorithm = ump
steps = 300
trials = 4
seed = 1

[acceptance]
reach3 = frac_max_ge 3 0.9
"""
    )
    assert main(["experiment", "--config", str(passing), "--workers", "1"]) == 0
    assert (tmp_path / "out_pass" / "verdict.csv").exists()
    capsys.readouterr()

    failing = tmp_path / "fail.cfg"
    failing.write_text(
        passing.read_text()
        .replace("reach3 = frac_max_ge 3 0.9", "reach9 = frac_max_ge 9 0.9")
        .replace("out_pass", "out_fail")
    )
    assert main(["experiment", "--config", str(failing), "--workers", "1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_run_greedy_algorithm(tmp_path):
    graph = str(tmp_path / "anchor.graph")
    main(["gen", "--family", "anchor", "--param", "n=10", "--out", graph])
    out_csv = str(tmp_path / "greedy.csv")
    assert (
        main(
            [
                "run",
                "--graph", graph,
                "--algorithm", "degree-greedy",
                "--trials", "1",
                "--out", out_csv,
            ]
        )
        == 0
    )
    rows = hz.read_csv(out_csv)
    assert rows[0]["max_size"] == "2"


@pytest.mark.parametrize("flag", ["--trials", "--alpha", "--thresholds"])
def test_run_rejects_values_below_one(tmp_path, capsys, flag):
    graph = str(tmp_path / "anchor.graph")
    main(["gen", "--family", "anchor", "--param", "n=4", "--out", graph])
    capsys.readouterr()
    out_csv = tmp_path / "run.csv"
    code = main(["run", "--graph", graph, flag, "0", "--out", str(out_csv)])
    assert code != 0
    assert f"{flag[2:]} must be >= 1" in capsys.readouterr().err
    assert not out_csv.exists()


def test_run_rejects_a_malformed_graph_file(tmp_path, capsys):
    graph = tmp_path / "bad.graph"
    graph.write_text("p is 3 1\ne 0 1\nl 0 Q\n")
    out_csv = tmp_path / "run.csv"
    code = main(["run", "--graph", str(graph), "--steps", "10", "--out", str(out_csv)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 3: side 'Q' is not L or R" in err
    assert "Traceback" not in err
    assert not out_csv.exists()


@pytest.mark.parametrize("thresholds", ["abc", "3,x", "2,,1e", "nan", "3,inf"])
def test_report_rejects_malformed_thresholds(tmp_path, capsys, thresholds):
    graph = str(tmp_path / "anchor.graph")
    main(["gen", "--family", "anchor", "--param", "n=4", "--out", graph])
    run_csv = str(tmp_path / "run.csv")
    main(["run", "--graph", graph, "--algorithm", "greedy", "--trials", "2", "--out", run_csv])
    capsys.readouterr()
    code = main(["report", "--run", run_csv, "--thresholds", thresholds])
    assert code == 2
    err = capsys.readouterr().err
    assert f"--thresholds must be finite numbers, got {thresholds!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_experiment_rejects_a_worker_count_below_one(tmp_path, capsys, monkeypatch, workers):
    monkeypatch.delenv("ANNEALBENCH_WORKERS", raising=False)
    cfg = tmp_path / "t.cfg"
    cfg.write_text(f"""
[experiment]
name = t
out_dir = {tmp_path / "out"}

[instance]
family = star-tree
k = 3

[run]
algorithm = greedy
trials = 2
""")
    code = main(["experiment", "--config", str(cfg), "--workers", workers])
    assert code == 2
    assert f"--workers must be an integer >= 1, got {int(workers)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
