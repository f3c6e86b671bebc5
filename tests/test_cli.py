from __future__ import annotations

import builtins
import io
import sys
from pathlib import Path

import pytest

from annealbench import dynamics as dy
from annealbench import harness as hz
from annealbench import instance_gen as ig
from annealbench.cli import main
from reference import read_csv, write_csv


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
    rows = read_csv(run_csv)
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
    rows = read_csv(out_csv)
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


REPORT_RUN_CSV = """trial_id,seed,steps,max_size,step_of_max,alpha,ratio,root_added,deload_final
0,100,50,3,10,8,0.375000,0,
1,101,50,5,11,8,0.625000,1,
2,102,50,4,12,8,0.500000,0,
3,103,50,4,13,8,0.500000,1,
4,104,50,6,14,8,0.750000,0,
5,105,50,2,15,8,0.250000,1,
6,106,50,5,16,8,0.625000,0,
"""

REPORT_STATS_CSV = """trial_id,schedule,final_size,final_left,final_right,right_touched,probe_count,hits,discrepancy,residual
0,fixed:2,3,,,,0,,0,
1,fixed:2,5,,,,1,,3,
2,fixed:2,4,,,,2,,6,
3,fixed:2,4,,,,3,,9,
4,fixed:2,6,,,,4,,12,
5,fixed:2,2,,,,5,,15,
6,fixed:2,5,,,,6,,18,
"""

REPORT_TEXT = """trials = 7
max_size mean = 4.1429 (95% CI 3.1463..5.1394)
max_size std = 1.3452
quantile 0 = 2
quantile 0.25 = 3
quantile 0.5 = 4
quantile 0.75 = 5
quantile 1 = 6
ratio mean = 0.517857
frac(max_size > 3) = 0.7143 (95% CI 0.3589..0.9178)
frac(max_size > 4.5) = 0.4286 (95% CI 0.1582..0.7495)
frac(max_size > 10) = 0.0000 (95% CI 0.0000..0.3543)
frac(max_size > 0) = 1.0000 (95% CI 0.6457..1.0000)
"""


def test_report_text_is_pinned(tmp_path, capsys):
    run_csv, stats_csv, out = tmp_path / "run.csv", tmp_path / "stats.csv", tmp_path / "report.txt"
    run_csv.write_text(REPORT_RUN_CSV)
    stats_csv.write_text(REPORT_STATS_CSV)
    args = ["report", "--run", str(run_csv), "--stats", str(stats_csv)]
    code = main([*args, "--thresholds", "3,4.5,10,0", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == REPORT_TEXT
    assert out.read_text() == REPORT_TEXT


def test_report_rejects_a_check_over_an_unrecorded_column(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"""
[experiment]
name = t
out_dir = {tmp_path / "out"}

[instance]
family = balanced-bipartite
n = 200
d = 4

[run]
algorithm = chain
trials = 3

[acceptance]
balanced = frac_discrepancy_gt_le 0 0.0
""")
    assert main(["experiment", "--config", str(cfg), "--workers", "1"]) == 1
    assert "[FAIL] balanced: frac_discrepancy_gt_le observed=1 " in capsys.readouterr().out
    run_csv, stats_csv = str(tmp_path / "out" / "run.csv"), str(tmp_path / "out" / "stats.csv")
    # discrepancy is a stats.csv column: without --stats no row records it.
    assert main(["report", "--run", run_csv, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "[PASS]" not in captured.out
    assert "error: check balanced: no trial row records discrepancy" in captured.err
    assert "--stats" in captured.err and "Traceback" not in captured.err
    assert main(["report", "--run", run_csv, "--stats", stats_csv, "--config", str(cfg)]) == 1
    assert "[FAIL] balanced: frac_discrepancy_gt_le observed=1 " in capsys.readouterr().out


# stats.csv rows of trials 0-3 against a 2-trial run.csv; the first run.csv twice.
SHORT_RUN_CSV = "".join(REPORT_RUN_CSV.splitlines(keepends=True)[:3])
LONG_STATS_CSV = "".join(REPORT_STATS_CSV.splitlines(keepends=True)[:5])


@pytest.mark.parametrize(
    "run,stats,flags,message",
    [
        (SHORT_RUN_CSV, LONG_STATS_CSV, [], "trial_id 2 is in {stats} only"),
        (SHORT_RUN_CSV, LONG_STATS_CSV, ["--alpha", "10"], "trial_id 2 is in {stats} only"),
        (REPORT_RUN_CSV, LONG_STATS_CSV, [], "trial_id 4 is in {run} only"),
        (SHORT_RUN_CSV + SHORT_RUN_CSV.splitlines()[2] + "\n", None, [],
         "trial_id 1 is twice in {run}"),
        (REPORT_RUN_CSV, REPORT_STATS_CSV + REPORT_STATS_CSV.splitlines()[1] + "\n", [],
         "trial_id 0 is twice in {stats}"),
        ("max_size\n3\n5\n", None, [], "{run} has no trial_id column"),
        ("max_size\n3\n", None, [], "{run} has no trial_id column"),
        (REPORT_RUN_CSV, "final_size\n3\n", [], "{stats} has no trial_id column"),
    ],
    ids=["stats-only", "stats-only-alpha", "run-only", "run-twice", "stats-twice",
         "run-no-id-two-rows", "run-no-id-one-row", "stats-no-id"],
)
def test_report_rejects_trial_ids_that_do_not_pair_up(tmp_path, capsys, run, stats, flags,
                                                       message):
    paths = {"run": tmp_path / "run.csv", "stats": tmp_path / "stats.csv"}
    paths["run"].write_text(run)
    argv = ["report", "--run", str(paths["run"]), *flags, "--out", str(tmp_path / "r.txt")]
    if stats is not None:
        paths["stats"].write_text(stats)
        argv += ["--stats", str(paths["stats"])]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.format(**paths)}\n" and captured.out == ""
    assert not (tmp_path / "r.txt").exists()


def test_experiment_out_dir_opens_a_seq_file_once(tmp_path, capsys, monkeypatch):
    seq = tmp_path / "lam.txt"
    seq.write_text("1.5\n3\n8\n")
    cfg = tmp_path / "seq.cfg"
    cfg.write_text(GOOD_CFG.format(out=tmp_path / "own").replace(
        "[run]\nalgorithm = greedy", UMP_RUN.replace("fixed:2", f"seq:{seq}")))
    reads, real_open = [], builtins.open

    def counted(file, *args, **kwargs):
        if str(file) == str(seq):
            reads.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted)
    argv = ["experiment", "--config", str(cfg), "--workers", "1"]
    assert main([*argv, "--out-dir", str(tmp_path / "given")]) == 0
    assert len(reads) == 1
    assert (tmp_path / "given" / "run.csv").exists() and not (tmp_path / "own").exists()
    assert main(argv) == 0 and len(reads) == 2  # once more for the run without --out-dir
    assert (tmp_path / "own" / "run.csv").read_bytes() == (
        tmp_path / "given" / "run.csv").read_bytes()


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


@pytest.mark.parametrize("alpha", ["0", "-3"])
def test_report_rejects_an_alpha_below_one(tmp_path, capsys, alpha):
    run_csv, out = tmp_path / "run.csv", tmp_path / "report.txt"
    run_csv.write_text(REPORT_RUN_CSV)
    code = main(["report", "--run", str(run_csv), "--alpha", alpha, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"--alpha must be >= 1, got {alpha}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["config", "out"], ids=["missing-config", "out-is-a-dir"])
def test_report_checks_its_config_and_target_before_it_prints(tmp_path, capsys, bad):
    """A missing --config or an --out that is a directory fails before the summary is
    printed, and nothing is written."""
    run_csv, out = tmp_path / "run.csv", tmp_path / "x.txt"
    run_csv.write_text(REPORT_RUN_CSV)
    if bad == "out":
        out.mkdir()
    argv = ["report", "--run", str(run_csv), "--out", str(out)]
    if bad == "config":
        argv += ["--config", str(tmp_path / "nope.cfg")]
    made = sorted(tmp_path.rglob("*"))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert (out.is_dir() if bad == "out" else not out.exists())
    assert sorted(tmp_path.rglob("*")) == made


def test_gen_rejects_a_param_given_twice(tmp_path, capsys):
    graph = tmp_path / "tree.graph"
    code = main(["gen", "--family", "star-tree", "--param", "k=3", "--param", "k=4",
                 "--out", str(graph)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--param k is given twice" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_run_completes_an_uncapped_ladder(tmp_path, capsys):
    graph, out_csv = str(tmp_path / "star.graph"), str(tmp_path / "run.csv")
    main(["gen", "--family", "star-tree", "--param", "k=5", "--out", graph])
    code = main(["run", "--graph", graph, "--steps", "3000", "--schedule", "geometric:1:2:1",
                 "--out", out_csv])
    assert code == 0
    assert read_csv(out_csv)[0]["steps"] == "3000"


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_experiment_rejects_a_worker_count_below_one(tmp_path, capsys, workers):
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


GOOD_CFG = """[experiment]
name = t
out_dir = {out}

[instance]
family = star-tree
k = 3

[run]
algorithm = greedy
trials = 2
"""


STAR_RUN = "family = star-tree\nk = 3\n\n[run]\nalgorithm = greedy"
UMP_RUN = "[schedules]\nspecs = fixed:2\n\n[run]\nalgorithm = ump\nsteps = 20"
IMPLICIT = "family = clique-blowup\nn = 5\nk = 2\np = 0.2\nell = 3"
RUNS_ONLY_CT = ("an implicit clique-blowup runs only ct: "
                "ump, greedy and degree-greedy need mode = explicit")


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("k = 3\n", "k = 3\nk = 4\n", "[line 8]"),  # a duplicate key
        ("k = 3\n", "k = 3\nk4\n", "[line 8]: 'k4'"),  # a line with no =
        ("[experiment]", "name = t\n[experiment]", "line: 1 'name = t'"),  # before a section
        ("family = star-tree\n", "", "[instance] must set family"),
        ("algorithm = greedy", "algorithm = ump\nsteps = 10", "no schedules configured"),
        ("[run]\nalgorithm = greedy",
         "[schedules]\nspecs = fixed:2\n\n[run]\nalgorithm = ct\nevents = 10",
         "ct runs need an implicit clique-blowup instance"),
        (STAR_RUN,
         IMPLICIT + "\n\n[schedules]\nspecs = fixed:2\n\n[run]\nalgorithm = ump\nsteps = 10",
         RUNS_ONLY_CT),
        ("family = star-tree\nk = 3", IMPLICIT, RUNS_ONLY_CT),
        (STAR_RUN, IMPLICIT + "\n\n[run]\nalgorithm = degree-greedy", RUNS_ONLY_CT),
    ],
    ids=["duplicate-key", "no-equals", "before-section", "no-family", "no-schedules",
         "ct-on-a-star-tree", "ump-on-an-implicit-blowup", "greedy-on-an-implicit-blowup",
         "degree-greedy-on-an-implicit-blowup"],
)
def test_a_malformed_config_file_exits_2_without_a_traceback(tmp_path, capsys, old, new, message):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(GOOD_CFG.format(out=tmp_path / "out").replace(old, new, 1))
    assert main(["experiment", "--config", str(cfg), "--workers", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "p,horizon,what",
    [("0.2", "1e300", "2^62 or more"), ("1e-300", "burn", "2^62 or more"),
     ("5e-324", "burn", "burn-in time 1 / (8 k p n) overflows")],  # burn-in time 1e299, inf
    ids=["huge-horizon", "burn-at-tiny-p", "burn-at-subnormal-p"],
)
def test_a_horizon_past_the_poisson_range_exits_2(tmp_path, capsys, p, horizon, what):
    """A mean event count of 2**62 or more, or an infinite burn-in time, is
    refused before any trial runs."""
    cfg = tmp_path / "t.cfg"
    cfg.write_text(f"""[experiment]
name = t
out_dir = {tmp_path / "out"}

[instance]
family = clique-blowup
n = 5
k = 2
p = {p}
ell = 3

[schedules]
specs = fixed:2

[run]
algorithm = ct
horizon = {horizon}
trials = 2
""")
    assert main(["experiment", "--config", str(cfg), "--workers", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: horizon ") and what in err and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "col,value,what",
    [("alpha", "x", "an integer"), ("max_size", "abc", "a finite number"),
     ("max_size", "nan", "a finite number"), ("max_size", "inf", "a finite number")],
)
def test_report_rejects_a_cell_that_is_not_a_number(tmp_path, capsys, col, value, what):
    row = {"trial_id": "3", "seed": "1", "steps": "5", "max_size": "4", "alpha": "4"}
    run_csv = tmp_path / "run.csv"
    # the bad cell is in the first row
    write_csv(run_csv, hz.RUN_CSV_COLUMNS, [{**row, "trial_id": "7", col: value}, row])
    code = main(["report", "--run", str(run_csv), "--out", str(tmp_path / "report.txt")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: trial_id 7: {col} {value!r} is not {what}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "report.txt").exists()


@pytest.mark.parametrize(
    "second,message",
    [("x", "alpha 'x' is not an integer"), ("", "alpha '' is not an integer"),
     ("5", "alpha 5 differs from trial_id 3's alpha 4")],
    ids=["not-a-number", "empty", "differs"],
)
def test_report_checks_the_alpha_of_every_row(tmp_path, capsys, second, message):
    row = {"trial_id": "3", "seed": "1", "steps": "5", "max_size": "4", "alpha": "4"}
    run_csv = tmp_path / "run.csv"
    write_csv(run_csv, hz.RUN_CSV_COLUMNS, [row, {**row, "trial_id": "7", "alpha": second}])
    code = main(["report", "--run", str(run_csv), "--out", str(tmp_path / "report.txt")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: trial_id 7: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "report.txt").exists()


def test_run_rejects_a_watch_vertex_outside_the_graph(tmp_path, capsys):
    graph = str(tmp_path / "star.graph")
    main(["gen", "--family", "star-tree", "--param", "k=3", "--out", graph])  # 7 vertices
    capsys.readouterr()
    out_csv = tmp_path / "run.csv"
    code = main(["run", "--graph", graph, "--watch", "0,99", "--out", str(out_csv)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: watch vertex 99 is not in the 7-vertex graph" in err
    assert "Traceback" not in err
    assert not out_csv.exists()


def test_a_chain_on_a_graph_with_no_vertices_exits_2(tmp_path, capsys):
    graph = tmp_path / "empty.graph"
    graph.write_text("p is 0 0\n")
    out_csv = tmp_path / "e.csv"
    assert main(["run", "--graph", str(graph), "--out", str(out_csv)]) == 2
    err = capsys.readouterr().err
    assert err == "error: ump runs a chain, which needs a graph with a vertex\n"
    assert not out_csv.exists()
    assert main(["run", "--graph", str(graph), "--algorithm", "greedy", "--out", str(out_csv)]) == 0
    assert read_csv(out_csv)[0]["max_size"] == "0"


def test_a_ladder_cap_below_its_start_exits_2(tmp_path, capsys):
    cfg = tmp_path / "t.cfg"
    text = GOOD_CFG.format(out=tmp_path / "out").replace("algorithm = greedy", "algorithm = ump")
    cfg.write_text(text + "steps = 100\n\n[schedules]\nspecs = geometric:4:2:10:2\n")
    assert main(["experiment", "--config", str(cfg), "--workers", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "geometric:4:2:10:2" in err and "cap 2.0 lies below its start 4.0" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "anchor", "--param", "n=4", "--out", "{tmp}/missing/g.graph"],
        ["alpha", "--graph", "{tmp}/missing.graph"],
        ["run", "--graph", "{tmp}/missing.graph", "--out", "{tmp}/run.csv"],
        ["report", "--run", "{tmp}/missing.csv", "--out", "{tmp}/report.txt"],
        ["experiment", "--config", "{tmp}/missing.cfg"],
    ],
    ids=["gen", "alpha", "run", "report", "experiment"],
)
def test_an_os_error_exits_2_without_a_traceback(tmp_path, capsys, argv):
    code = main([a.format(tmp=tmp_path) for a in argv])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file or directory" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_the_cli_reads_no_oracle_and_no_private_harness_name():
    """The CLI is a shell over the harness: statistics and instance checks live there,
    and so do the trial loop and the table writer (no ``hz.run_one_trial``, no ``csv``)."""
    import ast

    import annealbench.cli

    tree = ast.parse(Path(annealbench.cli.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or "", *(a.name for a in node.names)]
            assert not any(n.split(".")[-1] in ("oracles", "csv") for n in names), ast.dump(node)
        elif isinstance(node, ast.Import):
            assert not any(a.name.split(".")[-1] in ("oracles", "csv") for a in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            assert not (node.value.id == "hz" and (node.attr.startswith("_")
                                                   or node.attr == "run_one_trial")), node.attr


def test_only_harness_landing_writes_a_file():
    """Every output file lands whole through ``harness.landing``: nothing else in the
    package opens a file with a w, a or x mode or calls write_text or write_bytes."""
    import ast

    import annealbench

    found = []
    for path in sorted(Path(annealbench.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # node -> the innermost def it sits in (ast.walk goes outside in)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            modes = [a.value for a in (*node.args, *(k.value for k in node.keywords))
                     if isinstance(a, ast.Constant) and isinstance(a.value, str)
                     and set(a.value) <= set("rwaxbt+")]
            if (name in ("write_text", "write_bytes")
                    or name == "open" and any(set(m) & set("wax") for m in modes)):
                if (path.name, owner.get(node)) != ("harness.py", "landing"):
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


@pytest.mark.parametrize(
    "command,target",
    [("experiment", "file/out"), ("run", "nodir/x.csv"), ("run", "dir"),
     ("experiment", "out/run.csv"), ("experiment", "out/manifest.txt")],
    ids=["experiment", "run", "run-onto-a-dir",
         "experiment-run.csv-is-a-dir", "experiment-manifest.txt-is-a-dir"],
)
def test_a_bad_output_location_fails_before_any_trial(tmp_path, capsys, monkeypatch, command,
                                                      target):
    """An out dir under a regular file, a --out in a missing dir, or an output file
    that is a directory exits 2 naming that path, with no engine call made and
    nothing written."""
    graph, cfg, out = tmp_path / "star.graph", tmp_path / "t.cfg", tmp_path / target
    main(["gen", "--family", "star-tree", "--param", "k=3", "--out", str(graph)])
    (tmp_path / "file").write_text("")
    if target in ("dir", "out/run.csv", "out/manifest.txt"):
        out.mkdir(parents=True)
    out_dir = out if target == "file/out" else out.parent
    cfg.write_text(GOOD_CFG.format(out=out_dir).replace("[run]\nalgorithm = greedy", UMP_RUN))
    argv = {"experiment": ["experiment", "--config", str(cfg), "--workers", "1"],
            "run": ["run", "--graph", str(graph), "--trials", "3", "--out", str(out)]}[command]
    made = sorted(tmp_path.rglob("*"))
    calls, run_ump = [], dy.run_ump
    monkeypatch.setattr(dy, "run_ump", lambda *a, **k: calls.append(a) or run_ump(*a, **k))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert str(out) in err and f"{out}.tmp" not in err
    assert calls == [] and sorted(tmp_path.rglob("*")) == made


def test_an_interrupted_run_leaves_its_old_out_file_whole(tmp_path, monkeypatch):
    graph, out = tmp_path / "star.graph", tmp_path / "run.csv"
    main(["gen", "--family", "star-tree", "--param", "k=3", "--out", str(graph)])
    argv = ["run", "--graph", str(graph), "--trials", "4", "--out", str(out)]
    assert main(argv) == 0
    before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    third, run_ump = hz.trial_seed(0, 2), dy.run_ump

    def raising(graph, sched, steps, seed, **kwargs):
        if seed == third:
            raise RuntimeError("trial 2 stops")
        return run_ump(graph, sched, steps, seed, **kwargs)

    monkeypatch.setattr(dy, "run_ump", raising)
    with pytest.raises(RuntimeError, match="trial 2 stops"):
        main(argv)
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before


@pytest.mark.parametrize("command", ["experiment", "report", "gen"])
def test_a_failed_write_leaves_the_earlier_files_whole(tmp_path, monkeypatch, command):
    """A second write of other bytes that fails partway leaves the verdict pair, the
    report or the graph file and its sidecar as the first write left them, and no
    temp file."""
    cfg, out, run_csv = tmp_path / "t.cfg", tmp_path / "out", tmp_path / "run.csv"
    cfg.write_text(GOOD_CFG.format(out=out) + "\n[acceptance]\nreach = frac_max_ge 3 0.5\n")
    run_csv.write_text(REPORT_RUN_CSV)
    argv, kept = {
        "experiment": (["experiment", "--config", str(cfg), "--workers", "1"],
                       [out / "verdict.csv", out / "verdict.txt"]),
        "report": (["report", "--run", str(run_csv), "--out", str(tmp_path / "report.txt")],
                   [tmp_path / "report.txt"]),
        "gen": (["gen", "--family", "star-tree", "--param", "k=3", "--out", str(tmp_path / "g")],
                [tmp_path / "g", tmp_path / "g.meta"]),
    }[command]
    assert main(argv) == 0
    before = [f.read_bytes() for f in kept]

    def fail(*args):
        raise RuntimeError("stops")

    if command == "experiment":  # verdict.csv is written before to_text is called
        cfg.write_text(cfg.read_text().replace("0.5", "0.25"))
        monkeypatch.setattr(hz.VerdictReport, "to_text", fail)
    elif command == "report":  # a text the file cannot encode: the write itself fails
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        monkeypatch.setattr(hz, "report_text", lambda *a: "trials = 7\n\udcff\n")
    else:  # the graph file is written before sidecar_text is called
        argv[4] = "k=4"
        monkeypatch.setattr(ig, "sidecar_text", fail)
    with pytest.raises((RuntimeError, UnicodeEncodeError)):
        main(argv)
    assert [f.read_bytes() for f in kept] == before
    assert list(tmp_path.rglob("*.tmp")) == []


def test_gen_writes_its_graph_and_meta_together(tmp_path, capsys):
    graph = tmp_path / "g"
    (tmp_path / "g.meta").mkdir()
    made = sorted(tmp_path.rglob("*"))
    assert main(["gen", "--family", "star-tree", "--param", "k=3", "--out", str(graph)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{graph}.meta: Is a directory" in err
    assert sorted(tmp_path.rglob("*")) == made


# Each site that reads an integer from text, as (argv builder, expected message);
# the value is one that Python's int takes but the one integer grammar does not.
def _grammar_sites(tmp_path, value):
    graph = tmp_path / "star.graph"
    main(["gen", "--family", "star-tree", "--param", "k=3", "--out", str(graph)])
    cfg = tmp_path / "t.cfg"

    def experiment(old, new):
        cfg.write_text(GOOD_CFG.format(out=tmp_path / "out").replace(old, new, 1))
        return ["experiment", "--config", str(cfg), "--workers", "1"]

    v = repr(value)
    return {
        "instance-k": (lambda: experiment("k = 3", f"k = {value}"),
                       f"family star-tree: k = {v} is not a valid int"),
        "run-trials": (lambda: experiment("trials = 2", f"trials = {value}"),
                       f"[run]: trials = {v} is not a valid int"),
        "run-thresholds": (lambda: experiment("trials = 2", f"trials = 2\nthresholds = 2,{value}"),
                           f"[run]: thresholds = '2,{value}' is not a valid int_list"),
        "geometric-block": (
            lambda: experiment("[run]\nalgorithm = greedy",
                               UMP_RUN.replace("fixed:2", f"geometric:1:2:{value}")),
            f"schedule spec 'geometric:1:2:{value}': {v} is not an integer"),
        "run-seed": (lambda: ["run", "--graph", str(graph), "--seed", value,
                              "--out", str(tmp_path / "out" / "run.csv")],
                     f"--seed = {v} is not a valid int"),
        "gen-param": (lambda: ["gen", "--family", "star-tree", "--param", f"k={value}",
                               "--out", str(tmp_path / "out" / "g")],
                      f"family star-tree: k = {v} is not a valid int"),
    }


@pytest.mark.parametrize("value", ["+3", "1_000", "٣"], ids=["plus", "underscore", "arabic"])
def test_an_integer_is_ascii_digits_everywhere(tmp_path, capsys, value):
    """``+3``, ``1_000`` and an Arabic-Indic 3 all pass Python's ``int``; each site
    that reads an integer rejects them with one line and exit 2, and writes nothing."""
    for site, (argv, message) in _grammar_sites(tmp_path, value).items():
        capsys.readouterr()
        assert main(argv()) == 2, site
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1, (site, err)
        assert not (tmp_path / "out").exists(), site


def test_no_cli_flag_reads_an_integer_with_pythons_int(tmp_path, monkeypatch):
    """Every integer flag parses through the one integer grammar, not ``type=int``."""
    import argparse

    types, add_argument = {}, argparse.ArgumentParser.add_argument

    def recording(self, *names, **kwargs):
        types[f"{self.prog} {names[0]}"] = kwargs.get("type")
        return add_argument(self, *names, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", recording)
    assert main(["alpha", "--graph", str(tmp_path / "missing")]) == 2
    assert [k for k, t in types.items() if t is int] == []
    flags = ("gen --seed", "run --steps", "run --trials", "run --seed", "run --alpha",
             "run --thresholds", "run --early-stop", "run --watch", "experiment --workers",
             "report --alpha")
    assert all(types[f"annealbench {flag}"] is not None for flag in flags)
