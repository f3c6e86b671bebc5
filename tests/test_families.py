"""One test across the family table: every family, small parameters.

``annealbench gen`` and ``harness.build_instance`` build through the same
table, so where both produce a graph the graphs are equal; the table's
alpha matches an exact oracle (or bounds it from below); a missing or
unknown parameter is a ConfigError naming the key, and a value out of a
generator's range a ConfigError naming the family.
"""

from __future__ import annotations

import pytest

from annealbench import graph_core as gc
from annealbench import harness as hz
from annealbench import instance_gen as ig
from annealbench.cli import main
from annealbench.errors import ConfigError

SEED = 17

# family -> (small parameters, exact oracle run on the explicit graph)
CASES = {
    "star-tree": ({"k": "4"}, gc.alpha_tree),
    "hard-tree": ({"k": "2", "copies": "3"}, gc.alpha_tree),
    "anchor": ({"n": "4"}, gc.alpha_bruteforce),
    "multicopy": ({"n": "3", "eps": "0.5"}, gc.alpha_bruteforce),
    "base-bipartite": ({"n": "4", "k": "2", "p": "0.4"}, gc.alpha_bipartite),
    "balanced-bipartite": ({"n": "20", "d": "3"}, gc.alpha_bipartite),
    "clique-blowup": (
        {"n": "3", "k": "2", "p": "0.5", "ell": "2", "mode": "explicit"},
        gc.alpha_bruteforce,
    ),
    "bipartite-blowup": (
        {"base_n": "3", "base_k": "1", "base_p": "0.5", "cloud_size": "2", "copies": "2"},
        gc.alpha_bipartite,
    ),
}
# Extra members that exercise non-default parameters.
VARIANTS = [
    ("hard-tree", {"k": "2", "copies": "3", "apex": "false"}, gc.alpha_tree),
    ("clique-blowup", {"n": "3", "k": "2", "p": "0.5", "ell": "2"}, gc.alpha_bruteforce),
]
MEMBERS = [(name, params, oracle) for name, (params, oracle) in CASES.items()] + VARIANTS
# Values that parse but that the family's generator rejects.
BLOWUP = {"base_n": "3", "base_k": "1", "base_p": "0.5"}
OUT_OF_RANGE = [
    ("star-tree", {"k": "0"}),
    ("hard-tree", {"k": "2", "copies": "0"}),
    ("anchor", {"n": "1"}),
    ("multicopy", {"n": "0", "eps": "0.5"}),
    ("multicopy", {"n": "-4", "eps": "0.5"}),
    ("base-bipartite", {"n": "3", "k": "2", "p": "1.5"}),
    ("base-bipartite", {"n": "3", "k": "2", "p": "-0.1"}),
    ("base-bipartite", {"n": "0", "k": "2", "p": "0.5"}),
    ("base-bipartite", {"n": "3", "k": "0", "p": "0.5"}),
    ("balanced-bipartite", {"n": "10", "d": "20"}),
    ("balanced-bipartite", {"n": "10", "d": "-1"}),
    ("clique-blowup", {"n": "3", "k": "2", "p": "1.5", "ell": "2"}),
    ("bipartite-blowup", {**BLOWUP, "cloud_size": "-1", "copies": "2"}),
    ("bipartite-blowup", {**BLOWUP, "cloud_size": "2", "copies": "0"}),
    ("multicopy", {"n": "3", "eps": "inf"}),
    ("multicopy", {"n": "3", "eps": "nan"}),
    ("multicopy", {"n": "3", "eps": "1000"}),
]


def test_cases_cover_the_table():
    assert set(CASES) == set(ig.FAMILIES)


def _config_text(name: str, params: dict, tmp_path) -> str:
    lines = "\n".join(f"{k} = {v}" for k, v in params.items())
    # An implicit clique blowup runs only ct.
    implicit = name == "clique-blowup" and params.get("mode", "implicit") == "implicit"
    run = "algorithm = ct\nevents = 10" if implicit else "steps = 10"
    return (
        f"[experiment]\nname = t\nout_dir = {tmp_path / 'out'}\n\n"
        f"[instance]\nfamily = {name}\n{lines}\n\n"
        f"[schedules]\nspecs = fixed:2\n\n[run]\n{run}\nseed = {SEED}\n"
    )


def _config(name: str, params: dict, tmp_path) -> hz.ExperimentConfig:
    return hz.loads_config(_config_text(name, params, tmp_path))


def _gen_argv(name: str, params: dict, path) -> list[str]:
    argv = ["gen", "--family", name, "--seed", str(SEED), "--out", str(path)]
    for key, value in params.items():
        argv += ["--param", f"{key}={value}"]
    return argv


@pytest.mark.parametrize("name,params,oracle", MEMBERS)
def test_gen_and_experiment_build_the_same_graph(name, params, oracle, tmp_path):
    path = tmp_path / "g.graph"
    assert main(_gen_argv(name, params, path)) == 0
    bundle = hz.build_instance(_config(name, params, tmp_path))
    graph = bundle.graph
    if bundle.ct_template is not None:
        # An implicit blowup runs on its base graph; gen writes the blowup.
        fam = ig.family(name)
        graph = fam.build(fam.parse({**params, "mode": "explicit"}), SEED).graph
        assert graph.n > bundle.graph.n
    assert path.read_text() == gc.graph_to_text(graph)
    meta = (tmp_path / "g.graph.meta").read_text()
    method = ig.family(name).alpha_method
    assert (f"alpha = {bundle.alpha}\n" in meta) == (method == ig.CLOSED_FORM)
    assert bundle.alpha_method == method


@pytest.mark.parametrize("name,params,oracle", MEMBERS)
def test_table_alpha_against_exact_oracle(name, params, oracle):
    fam = ig.family(name)
    inst = fam.build(fam.parse(params), SEED)
    graph = inst.graph
    if inst.blowup is not None:
        graph = ig.gen_clique_blowup(inst.blowup, base=inst.graph)
    exact = oracle(graph).alpha
    if fam.alpha_method == ig.LOWER_BOUND:
        assert inst.alpha() <= exact
    else:
        assert inst.alpha() == exact


@pytest.mark.parametrize("name", sorted(CASES))
def test_missing_and_unknown_keys_raise(name, tmp_path):
    params, _ = CASES[name]
    fam = ig.family(name)
    required = [k for k, spec in fam.schema.items() if not isinstance(spec, tuple)]
    for key in required:
        missing = {k: v for k, v in params.items() if k != key}
        with pytest.raises(ConfigError, match=key):
            fam.parse(missing)
        with pytest.raises(ConfigError, match=key):
            _config(name, missing, tmp_path)
    with pytest.raises(ConfigError, match="bogus"):
        fam.parse({**params, "bogus": "1"})
    with pytest.raises(ConfigError, match="bogus"):
        _config(name, {**params, "bogus": "1"}, tmp_path)


@pytest.mark.parametrize("name,params", OUT_OF_RANGE)
def test_out_of_range_values_name_the_family(name, params, tmp_path, capsys):
    assert main(_gen_argv(name, params, tmp_path / "g.graph")) == 2
    cfg = tmp_path / "t.cfg"
    cfg.write_text(_config_text(name, params, tmp_path))
    assert main(["experiment", "--config", str(cfg), "--workers", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count(f"error: family {name}: ") == 2 and "Traceback" not in err
    if name == "multicopy":
        assert err.count(f"eps={float(params['eps'])}") == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.cfg"]


def test_values_are_parsed_strictly():
    with pytest.raises(ConfigError, match="k = '4.7'"):
        ig.family("star-tree").parse({"k": "4.7"})
    with pytest.raises(ConfigError, match="apex"):
        ig.family("hard-tree").parse({"k": "2", "copies": "3", "apex": "maybe"})
    with pytest.raises(ConfigError, match="mode"):
        ig.family("clique-blowup").parse(
            {"n": "3", "k": "2", "p": "0.5", "ell": "2", "mode": "explicitly"}
        )
    with pytest.raises(ConfigError, match="nope"):
        ig.family("nope")


def test_chain_needs_a_family_with_a_chain():
    with pytest.raises(ConfigError, match="chain"):
        hz.loads_config(
            "[experiment]\nname = t\n\n[instance]\nfamily = star-tree\nk = 3\n\n"
            "[run]\nalgorithm = chain\n"
        )


@pytest.mark.parametrize("n,d", [("10", "20"), ("0", "0")])
def test_chain_out_of_range_values_name_the_family(n, d, tmp_path, capsys):
    cfg = tmp_path / "t.cfg"
    text = _config_text("balanced-bipartite", {"n": n, "d": d}, tmp_path)
    text = text.replace("[schedules]\nspecs = fixed:2\n\n", "").replace("steps = 10\n", "")
    cfg.write_text(text.replace("[run]\n", "[run]\nalgorithm = chain\n"))
    assert main(["experiment", "--config", str(cfg), "--workers", "1"]) == 2
    err = capsys.readouterr().err
    assert f"error: family balanced-bipartite: want 0 <= d < n, got d={float(d)}, n={n}" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.cfg"]
