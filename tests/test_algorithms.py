"""One test across the algorithm table, ``harness._ALGORITHMS``.

Each ``[run]`` key an algorithm reads changes at least one output byte when
it is set on a tiny instance that has what the key needs.  Each key it does
not read, each ``[schedules]`` spec of an algorithm without schedules, and
each ``annealbench run`` flag it does not read is an error that names the
key, exits 2 and writes nothing.
"""

from __future__ import annotations

import pytest

from annealbench import harness as hz
from annealbench.cli import main
from reference import read_csv

STAR = "family = star-tree\nk = 3"  # watch and probe vertices, no side labels
LABELED = "family = base-bipartite\nn = 4\nk = 2\np = 0.4"
BLOWUP = "family = clique-blowup\nn = 5\nk = 2\np = 0.2\nell = 3"
BALANCED = "family = balanced-bipartite\nn = 20\nd = 3"

# The keys both chain engines read besides their length; ``schedules`` stands
# for the [schedules] specs.
CHAIN = (
    "schedules", "thresholds", "early_stop_size", "snapshot_every", "watch_root",
    "probe_step", "track_touched", "alpha",
)
# algorithm -> (the keys it reads besides algorithm, trials and seed, the
# instance of its base run, the [run] keys of its base run)
ALGORITHMS = {
    "ump": (("steps", *CHAIN), STAR, {"steps": "200", "schedules": "fixed:2"}),
    "ct": (("events", "horizon", *CHAIN), BLOWUP, {"events": "300", "schedules": "fixed:2"}),
    "greedy": (("alpha",), BALANCED, {}),
    "degree-greedy": (("alpha",), STAR, {}),
    "chain": ((), BALANCED, {}),
}
# key -> a value off both its default and the base runs' value
VALUES = {
    "steps": "300", "events": "400", "horizon": "0.5", "trials": "2", "seed": "5",
    "thresholds": "1", "early_stop_size": "1", "snapshot_every": "7", "watch_root": "true",
    "probe_step": "5", "track_touched": "true", "alpha": "100", "schedules": "fixed:3",
}
# Keys whose needs the base instance lacks: the instance to set them on.
INSTANCE_FOR = {("ump", "track_touched"): LABELED}
# No family that runs ct has watch or probe vertices (see the family-level errors).
NO_INSTANCE = {("ct", "watch_root"), ("ct", "probe_step")}
ONE_OF = ("events", "horizon")  # a ct run sets exactly one

READ = [
    (alg, key)
    for alg, (reads, _, _) in ALGORITHMS.items()
    for key in ("trials", "seed", *reads)
    if (alg, key) not in NO_INSTANCE
]
UNREAD = [
    (alg, key)
    for alg, (reads, _, _) in ALGORITHMS.items()
    for key in VALUES
    if key not in ("trials", "seed", *reads)
]


def _write(tmp_path, algorithm: str, instance: str, run: dict) -> str:
    run = {"seed": "3", **run}
    specs = run.pop("schedules", None)
    lines = "".join(f"{k} = {v}\n" for k, v in run.items())
    text = (
        f"[experiment]\nname = t\nout_dir = {tmp_path / 'out'}\n\n[instance]\n{instance}\n\n"
        + (f"[schedules]\nspecs = {specs}\n\n" if specs else "")
        + f"[run]\nalgorithm = {algorithm}\n{lines}"
    )
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "t.cfg"
    path.write_text(text)
    return str(path)


def _outputs(tmp_path, algorithm: str, instance: str, run: dict) -> dict[str, bytes]:
    assert main(["experiment", "--config", _write(tmp_path, algorithm, instance, run),
                 "--workers", "1"]) == 0
    return {p.name: p.read_bytes() for p in (tmp_path / "out").glob("*.csv")}


def _rejected(tmp_path, capsys, argv: list[str], *names: str) -> None:
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in names) and "Traceback" not in err, err


def test_cases_cover_the_table():
    assert set(ALGORITHMS) == set(hz._ALGORITHMS)


@pytest.mark.parametrize("algorithm,key", READ)
def test_a_key_the_algorithm_reads_changes_its_output(tmp_path, capsys, algorithm, key):
    _, instance, run = ALGORITHMS[algorithm]
    instance = INSTANCE_FOR.get((algorithm, key), instance)
    changed = {k: v for k, v in run.items() if not (key in ONE_OF and k in ONE_OF)}
    changed[key] = VALUES[key]
    base = _outputs(tmp_path / "base", algorithm, instance, run)
    assert _outputs(tmp_path / "set", algorithm, instance, changed) != base


@pytest.mark.parametrize("algorithm,key", UNREAD)
def test_a_key_the_algorithm_does_not_read_is_an_error(tmp_path, capsys, algorithm, key):
    _, instance, run = ALGORITHMS[algorithm]
    cfg = _write(tmp_path, algorithm, instance, {**run, key: VALUES[key]})
    argv = ["experiment", "--config", cfg, "--workers", "1"]
    _rejected(tmp_path, capsys, argv, f"algorithm {algorithm} does not read {key}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.cfg"]


@pytest.mark.parametrize(
    "algorithm,instance,run,names",
    [
        # greedy ran 2 trials with empty hits
        ("greedy", STAR, {"steps": "100", "thresholds": "2", "early_stop_size": "3",
                          "schedules": "fixed:2, fixed:3"},
         ["greedy", "steps", "thresholds", "early_stop_size", "schedules"]),
        # ct ran 11 and 15 events: the horizon won
        ("ct", BLOWUP, {"events": "7", "horizon": "0.5", "schedules": "fixed:1"},
         ["ct", "events", "horizon"]),
        # chain wrote empty alpha and ratio
        ("chain", BALANCED, {"alpha": "100"}, ["chain", "alpha"]),
        # A family-level key with nothing to act on: anchor wrote probe_count = 0.
        ("ump", "family = anchor\nn = 20", {"steps": "50", "schedules": "fixed:2",
                                            "probe_step": "11"}, ["probe_step", "anchor"]),
        ("ump", "family = anchor\nn = 20", {"steps": "50", "schedules": "fixed:2",
                                            "watch_root": "true"}, ["watch_root", "anchor"]),
        ("ump", STAR, {"steps": "50", "schedules": "fixed:2", "track_touched": "true"},
         ["track_touched", "star-tree"]),
        ("ct", BLOWUP, {"events": "50", "schedules": "fixed:2", "watch_root": "true"},
         ["watch_root", "clique-blowup"]),
        ("ct", BLOWUP, {"events": "50", "schedules": "fixed:2", "probe_step": "5"},
         ["probe_step", "clique-blowup"]),
    ],
    ids=["greedy-chain-keys", "ct-events-and-horizon", "chain-alpha", "anchor-probe_step",
         "anchor-watch_root", "star-tree-track_touched", "ct-watch_root", "ct-probe_step"],
)
def test_a_config_with_a_key_that_does_nothing_is_an_error(
    tmp_path, capsys, algorithm, instance, run, names
):
    cfg = _write(tmp_path, algorithm, instance, run)
    _rejected(tmp_path, capsys, ["experiment", "--config", cfg, "--workers", "1"], *names)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.cfg"]


# annealbench run flag -> (value, the [run] key it sets)
RUN_FLAGS = {
    "--schedule": ("fixed:2", "schedules"),
    "--steps": ("10", "steps"),
    "--thresholds": ("1", "thresholds"),
    "--early-stop": ("1", "early_stop_size"),
    "--watch": ("0", "watch_root"),
}


@pytest.fixture
def star_graph(tmp_path):
    graph = str(tmp_path / "star.graph")
    assert main(["gen", "--family", "star-tree", "--param", "k=3", "--out", graph]) == 0
    return graph


@pytest.mark.parametrize("algorithm", ["greedy", "degree-greedy"])
@pytest.mark.parametrize("flag", sorted(RUN_FLAGS))
def test_a_run_flag_the_algorithm_does_not_read_is_an_error(
    tmp_path, capsys, star_graph, algorithm, flag
):
    value, key = RUN_FLAGS[flag]
    out = tmp_path / "run.csv"
    argv = ["run", "--graph", star_graph, "--algorithm", algorithm, flag, value, "--out", str(out)]
    _rejected(tmp_path, capsys, argv, f"algorithm {algorithm} does not read {key}")
    assert not out.exists()


def test_run_keeps_the_ump_defaults(tmp_path, capsys, star_graph):
    plain, explicit = tmp_path / "plain.csv", tmp_path / "explicit.csv"
    assert main(["run", "--graph", star_graph, "--out", str(plain)]) == 0
    flags = ["--schedule", "fixed:1", "--steps", "1000"]
    assert main(["run", "--graph", star_graph, *flags, "--out", str(explicit)]) == 0
    assert plain.read_bytes() == explicit.read_bytes()
    assert read_csv(plain)[0]["steps"] == "1000"
    zero = tmp_path / "zero.csv"
    _rejected(tmp_path, capsys, ["run", "--graph", star_graph, "--steps", "0", "--out", str(zero)],
              "steps must be >= 1")
    assert not zero.exists()
