"""Pinned trajectory bytes of every bundled config and of two inline ones.

Each config in ``src/annealbench/configs/`` runs at ``trials = 2`` and at
most 2e5 steps or events, serially; the sha256 of its ``run.csv`` and
``stats.csv`` and its ``config_hash`` must equal the values below.  The
inline configs pin outputs that no bundled config covers.  A
change to the engine that claims to keep every byte of a run is held to
this; a change that moves bytes on purpose must say so and re-pin them.
The CSR arrays, side labels and group ids of every bundled config's
instance are pinned too, since a run reads only part of its graph.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from annealbench import harness as hz
from annealbench import instance_gen as ig

CONFIGS = Path(hz.__file__).parent / "configs"
MAX_STEPS = 200_000

# config -> (run.csv sha256, stats.csv sha256, config_hash), all of the resized config
PINNED = {
    "anchor_separation": (
        "4a5639497c9b327f93fb70f540465bde05901f7c27ed1cd2e827df282dc2f05f",
        "67a3351c0258ae777f2bbe856c6084c419f7b4547634f268160025c446f17923",
        "e86565e2bb8c87e25e0f2c5f8fd470086249e8105a9bc9e377987d34a9efbd2d",
    ),
    "bipartite_chain": (
        "0d571334bde5cdc7c2d2136606cdb776e1ef0be5692df0c5534c8940e5551682",
        "9449ecdbd7933172326b7899eff5d09c688add0f85de07bb48e4f5c53c171e9c",
        "27d15057f4fe4f96e6d6e231c54c3399048786d776814a3bdc2c8193ca3ba211",
    ),
    "bipartite_greedy": (
        "b5218d33531b428287eda524a2e26b7b7e42b1445e1405343948afc882a8be6f",
        "d565831c46b68112e5ca04c2eeac110b2fc07218eb28a6f9575330af5a10664c",
        "8063bd6462dab9b86829a912116af0dc55eeeb3f0377a09c9455134eb588fcd5",
    ),
    "blowup_hardness": (
        "22ed00df2a16737c45ec414886104f5acefa6224d27bc540fbca2c4a7def0f00",
        "d12610e1ce7e4eb6c044b03194dcaccfe463aee29db3f22f4a5cd0a744ae7e1a",
        "89c11cf2a7c300c32474181551689e63042b7b924af759a49ae0fec4e434234c",
    ),
    "multicopy_greedy": (
        "2549c7775b7e908d9a116d97b40eb5547c0699b3a3043146fb5f14a8d5321dee",
        "896998f8ed2708e9c7bb5da530edacdd4febea624510c4dc77a2775c56c4004d",
        "7bf5335240bf5bd356fae80233fec1f131fefecda333e98e947c30d9286f2e8a",
    ),
    "multicopy_mp": (
        "e4605f2560293e106c6363acc271f2321031e5efeac4faf8f65e9d27ebe048bb",
        "f05deee3a0dfae7d81c2338217f0a01c277412d0c3c39b7bb34321ac983051c8",
        "b1090cc005907cce2553fa49246d3bb51ad42526085bf803da4587a518cf7db6",
    ),
    "tree_approx": (
        "f43c88180b2fc73a984e8111e53b614490afb8508f31c08096e011cede1ba2a4",
        "a82c8cf1d98e7c75893e6bda17f38d612d17cfe9059a7c10642be2d043417342",
        "7eb2913e98dbfbad785ee5e8d5b98100bfce5537a9fe1b47f9b159677a4ab45c",
    ),
    "tree_hardness": (
        "61847c0ecbfc6f2c9435ed105a2e3ff05eff43c5f7420d26aa4fcd4d7f08a501",
        "e8fc4fd7cea688b37860b0800f05605f1caa7504b115d88feb5e76e1c57dc4b3",
        "94ac2fe39dfc647e5c9dbb192e376aab367e0b6f5bf67312db8d6d7fd997c64b",
    ),
}


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_bundled_config_bytes_are_pinned(name, tmp_path):
    cfg = hz.load_config(CONFIGS / f"{name}.cfg")
    cfg = replace(
        cfg,
        trials=2,
        steps=min(cfg.steps, MAX_STEPS) if cfg.steps else cfg.steps,
        events=min(cfg.events, MAX_STEPS) if cfg.events else cfg.events,
        out_dir=str(tmp_path),
    )
    manifest = hz.run_experiment(cfg, workers=1)
    got = (_sha(tmp_path / "run.csv"), _sha(tmp_path / "stats.csv"), manifest.config_hash)
    assert got == PINNED[name]


# Inline configs whose outputs no bundled config pins: the cloud tally
# (``deload_final``) of a bipartite blowup, and the side tallies of the
# continuous-time chain in ``stats.csv`` and ``traj.csv``.
INLINE = {
    "cloud_deload": """
[experiment]
name = cloud_deload
[instance]
family = bipartite-blowup
base_n = 6
base_k = 2
base_p = 0.3
cloud_size = 4
copies = 3
[schedules]
specs = fixed:2, fixed:16, geometric:1:2:2000
[run]
algorithm = ump
steps = 20000
trials = 2
seed = 31
thresholds = 20,40
""",
    "ct_sides_traj": """
[experiment]
name = ct_sides_traj
[instance]
family = clique-blowup
n = 20
k = 3
p = 0.1
ell = 8
[schedules]
specs = fixed:1, fixed:16, adaptive:plateau
[run]
algorithm = ct
events = 50000
trials = 2
seed = 47
snapshot_every = 500
thresholds = 30
""",
}

# config -> (run.csv, stats.csv, traj.csv or None) sha256 and config_hash
PINNED_INLINE = {
    "cloud_deload": (
        "1cb782c081a633a057d7b148b3476489e431d506750af6b1c1c89db182de39bd",
        "009edd263557adfbd1e588cc1fd202f65826d7add5b28051b128c60628c9b711",
        None,
        "cb357a3daead4d83d2b91fb2cb5913fbc2d3f754c10a97e6dcf1a1dcb68ad1b1",
    ),
    "ct_sides_traj": (
        "bad33768e1968a77736ac8e59a8f0df4bb8ecd44a262a7c9ad833215fcc3ce01",
        "97942df87687c00c273521d0ddf039108611d5be796843b86a7090e0c050c4f7",
        "8539f1be9677aa56582379d558c7e8344875c7983edf98faba5b498e3493d4fd",
        "ca78b55861f4fece5ba58ea6e7a088e9a05633d220288d3ec9c79f8dba147f8c",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_INLINE))
def test_inline_config_bytes_are_pinned(name, tmp_path):
    cfg = replace(hz.loads_config(INLINE[name]), out_dir=str(tmp_path))
    manifest = hz.run_experiment(cfg, workers=1)
    traj = tmp_path / "traj.csv"
    got = (
        _sha(tmp_path / "run.csv"),
        _sha(tmp_path / "stats.csv"),
        _sha(traj) if traj.exists() else None,
        manifest.config_hash,
    )
    assert got == PINNED_INLINE[name]


# config -> sha256 of (adj_offsets, adj_targets, side, group) of the config's
# instance at its bundled parameters; None for an array the graph lacks.  An
# implicit clique-blowup's instance is its bipartite base.
PINNED_GRAPHS = {
    "anchor_separation": (
        "fbec2e47106fdde53aedc2e62cf01238e6df9640c2e625c758385218316b1645",
        "983ed54f4e4150736a30dc88a14647b984d1c96df91a81b1af466ba3b5df61b4",
        None,
        None,
    ),
    "bipartite_chain": (
        "f85bcf8e732059c29a534527112961e25dfb30910c2d0855e9fff621d7721f57",
        "735c9afa7e7dff939fa56d8cc2cc4c32ea72081f11f30f915a3b6b2afca5eaf8",
        "c627eaef7259d8f92b6205b8315400ac3b4e1d86d92ee6f0810f68956d7b8f23",
        None,
    ),
    "bipartite_greedy": (
        "f60389f5b640860fefbdb6e76d60c40f24f3af1a7e24f9c02197e92ac07645b3",
        "ef559ce84958e058b54c74d8d98fd0aa03e27d2786cd33ef0af6e66a6f6ce093",
        "28131bf63a9977db628eaf1085154dd6e99b46464d92a4aff2a708240568db3f",
        None,
    ),
    "blowup_hardness": (
        "960dd631c8d9d482a2b85dfd77d44d12430d34508eac0291b43c8e9cda81c1d6",
        "3c8f1e15fa965908558b4c7e04ab38294582aa0f9771db114612193634c76a9b",
        "e081a7d3138db457545449891e975550362601556c5e8dfd2fe113bf619987a2",
        None,
    ),
    "multicopy_greedy": (
        "66fccd425509e41bc8664d7434568e4a4365865b65a05858acb738321609e785",
        "43e450ac02b9a2e6211f89af5b17a4758c3d8469af8d5e16bad75fe71d83510f",
        None,
        "117baeae1d939e07e3546b5ce0d32d620c0dee01be9b2d333c60a68db52a1af4",
    ),
    "multicopy_mp": (
        "66fccd425509e41bc8664d7434568e4a4365865b65a05858acb738321609e785",
        "43e450ac02b9a2e6211f89af5b17a4758c3d8469af8d5e16bad75fe71d83510f",
        None,
        "117baeae1d939e07e3546b5ce0d32d620c0dee01be9b2d333c60a68db52a1af4",
    ),
    "tree_approx": (
        "f0dfe8b4d485678a0e1a55b0be2241cf23f5b772af013527417f7914872877a4",
        "4861afaf1e43fdfcc3f9f7144964439805324f529fbb3240529d429116db9ac3",
        None,
        "578175272f9256a5c284c2eded8d4f992982e2a92557bf746eba3025da47d898",
    ),
    "tree_hardness": (
        "318f02fd8aa568740d46c9cf858d611f1ec9c1567a7a2d564248f4bc57c227f0",
        "cba66b8349a021370c291d29b7776949a4f86bf07f94ca19b1359c7f2c07f7dd",
        None,
        None,
    ),
}


def _array_sha(arr) -> str | None:
    return None if arr is None else hashlib.sha256(arr.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_bundled_instance_graph_arrays_are_pinned(name):
    """The run pins see only what the trials read; these pin the whole graph."""
    cfg = hz.load_config(CONFIGS / f"{name}.cfg")
    g = ig.family(cfg.family).make(cfg.params, cfg.seed).graph
    assert (g.adj_offsets.dtype, g.adj_targets.dtype) == (np.int64, np.int64)
    got = tuple(_array_sha(a) for a in (g.adj_offsets, g.adj_targets, g.side, g.group))
    assert got == PINNED_GRAPHS[name]
