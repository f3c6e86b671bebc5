from __future__ import annotations

import gc as collector
import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealbench import graph_core as gc
from annealbench.errors import CapExceeded, InvalidEdge, NotAForest, NotBipartite
from annealbench.instance_gen import gen_base_bipartite
from reference import (
    IndependentSetState,
    build_graph_reference,
    graph_from_text_reference,
    kuhn_matching_size,
)


def path_graph(n):
    return gc.build_graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return gc.build_graph(n, itertools.combinations(range(n), 2))


def cycle_graph(n):
    edges = [(i, (i + 1) % n) for i in range(n)]
    return gc.build_graph(n, edges)


def exhaustive_alpha(g):
    """Independent oracle: enumerate all subsets."""
    best = 0
    for mask in range(1 << g.n):
        s = [v for v in range(g.n) if mask >> v & 1]
        if gc.is_independent(g, s):
            best = max(best, len(s))
    return best


# -- construction -----------------------------------------------------------


def test_build_path_degree_sequence():
    g = path_graph(3)
    assert np.diff(g.adj_offsets).tolist() == [1, 2, 1]
    assert g.num_edges == 2


def test_build_dedupes_reversed_duplicates():
    g = gc.build_graph(2, [(0, 1), (1, 0)])
    assert g.num_edges == 1


def test_build_empty_graph():
    g = gc.build_graph(5, [])
    assert g.num_edges == 0
    assert g.adj_offsets.tolist() == [0] * 6


def test_build_rejects_self_loop():
    with pytest.raises(InvalidEdge):
        gc.build_graph(3, [(1, 1)])


def test_build_rejects_out_of_range():
    with pytest.raises(InvalidEdge):
        gc.build_graph(3, [(0, 3)])


def test_build_rejects_same_side_edge_for_bipartite_kind():
    with pytest.raises(NotBipartite):
        gc.build_graph(
            2, [(0, 1)], labels={0: gc.SIDE_L, 1: gc.SIDE_L}, bipartite=True
        )


def test_construction_is_deterministic():
    edges = [(3, 1), (0, 2), (2, 3), (1, 0)]
    a = gc.build_graph(4, edges)
    b = gc.build_graph(4, list(reversed(edges)))
    assert np.array_equal(a.adj_offsets, b.adj_offsets)
    assert np.array_equal(a.adj_targets, b.adj_targets)


def _same_layout(g, ref):
    for got, want in ((g.adj_offsets, ref.adj_offsets), (g.adj_targets, ref.adj_targets)):
        assert got.dtype == want.dtype == np.int64
        assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**36 - 1), st.integers(1, 40), st.integers(0, 120))
def test_build_matches_set_reference(seed, n, m):
    """Random edge lists with duplicates in both orientations and isolated
    vertices give the reference's offsets and targets byte for byte, as a
    list, a generator and an array."""
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, m)
    v = rng.integers(0, n, m)
    keep = u != v
    pairs = np.stack([u[keep], v[keep]], axis=1)
    pairs = np.concatenate([pairs, pairs[: len(pairs) // 3, ::-1]])  # reversed duplicates
    edges = [tuple(e) for e in pairs.tolist()]
    ref = build_graph_reference(n, edges)
    for given_edges in (edges, (e for e in edges), pairs, pairs.astype(np.int32)):
        _same_layout(gc.build_graph(n, given_edges), ref)


def test_build_empty_and_isolated_match_reference():
    for n, edges in ((0, []), (4, []), (6, [(5, 2)]), (5, np.empty((0, 2), np.int64))):
        _same_layout(gc.build_graph(n, edges), build_graph_reference(n, edges))
    ref = build_graph_reference(6, itertools.combinations(range(6), 2))
    _same_layout(gc.build_graph(6, itertools.combinations(range(6), 2)), ref)


LR = {0: gc.SIDE_L, 1: gc.SIDE_R, 2: gc.SIDE_R, 3: gc.SIDE_L}


@pytest.mark.parametrize(
    "n, edges, kwargs, error, message",
    [
        (3, [(0, 1), (2, 2), (1, 1)], {}, InvalidEdge, "self-loop at vertex 2"),
        (3, np.array([[0, 1], [-1, 2]]), {}, InvalidEdge, r"edge \(-1,2\) outside \[0,3\)"),
        (3, [(0, 1), (1, 3), (4, 0)], {}, InvalidEdge, r"edge \(1,3\) outside \[0,3\)"),
        (3, [(0, 1, 2)], {}, InvalidEdge, "must be pairs"),
        (-1, [], {}, InvalidEdge, "negative vertex count"),
        (4, [(0, 1), (3, 0), (2, 1)], {"labels": LR, "bipartite": True}, NotBipartite,
         r"same-side edge \(0,3\)"),
        (4, [(0, 1)], {"bipartite": True}, NotBipartite, "requires side labels"),
        (4, [(0, 1)], {"labels": np.zeros(3, np.int8)}, InvalidEdge, "wrong length"),
        (4, [(0, 1)], {"groups": np.zeros(5, np.int64)}, InvalidEdge, "wrong length"),
        (4, [(0, 1)], {"labels": {4: gc.SIDE_L}}, InvalidEdge, "vertex 4 outside"),
        (4, [(0, 1)], {"groups": {-1: 0}}, InvalidEdge, "vertex -1 outside"),
        (3, np.array([[0.9, 1.2], [1.0, 2.0]]), {}, InvalidEdge,
         r"edge \(0.9,1.2\) is not a pair of integers"),
        (3, [(0, 1), (float("nan"), 2)], {}, InvalidEdge, r"edge \(nan,2.0\) is not a pair"),
        (3, np.array([[0, 1], [1, np.inf]]), {}, InvalidEdge, r"edge \(1.0,inf\) is not a pair"),
        (3, [("0", "1")], {}, InvalidEdge, "edges must be integers"),
        (4, [(0, 1)], {"labels": {0: 7}}, InvalidEdge,
         "side label 7 of vertex 0 is not SIDE_L, SIDE_R or SIDE_NONE"),
        (4, [(0, 1)], {"labels": np.array([0, 300, 1, 0])}, InvalidEdge,
         "side label 300 of vertex 1 is not"),
        (4, [(0, 1)], {"groups": {2: 1.5}}, InvalidEdge, "group id 1.5 of vertex 2 is not an integer"),
        (4, [(0, 1)], {"groups": np.array([0, 1, 2.5, 3])}, InvalidEdge,
         "group id 2.5 of vertex 2 is not an integer"),
        # Mixed bad edges: the first in input order is named, whatever its kind.
        (3, [(0, 1), (0, 5), (2, 2)], {}, InvalidEdge, r"edge \(0,5\) outside \[0,3\)"),
        (3, [(0, 1), (2, 2), (0, 5)], {}, InvalidEdge, "self-loop at vertex 2"),
        (3, np.array([[0, 5], [0.5, 1]]), {}, InvalidEdge, r"edge \(0,5\) outside"),
        (3, np.array([[0.5, 1], [0, 5]]), {}, InvalidEdge, r"edge \(0.5,1.0\) is not a pair"),
        (4, [(0, 3), (1, 7)], {"labels": LR, "bipartite": True}, InvalidEdge,
         r"edge \(1,7\) outside \[0,4\)"),
    ],
    ids=["self-loop", "negative", "too-large", "triple", "negative-n", "same-side", "no-labels",
         "short-labels", "long-groups", "label-key", "group-key", "fraction", "nan", "inf",
         "strings", "label-value", "label-wraps", "group-fraction", "group-array-fraction",
         "range-then-loop", "loop-then-range", "range-then-fraction", "fraction-then-range",
         "same-side-after-range"],
)
def test_build_rejects_bad_input(n, edges, kwargs, error, message):
    with pytest.raises(error, match=message):
        gc.build_graph(n, edges, **kwargs)


def test_graph_arrays_are_readonly():
    g = path_graph(3)
    with pytest.raises(ValueError):
        g.adj_targets[0] = 2


def test_neighbor_arrays_are_readonly_views_of_the_neighbor_lists():
    rng = np.random.default_rng(4)
    pairs = rng.integers(0, 40, size=(90, 2))
    built = gc.build_graph(40, pairs[pairs[:, 0] != pairs[:, 1]])
    # A Graph made directly from writable arrays still hands out read-only views.
    plain = build_graph_reference(7, [(0, 1), (1, 2), (4, 6)])
    assert plain.adj_targets.flags.writeable
    for g in (built, plain, gc.build_graph(0, []), complete_graph(5)):
        assert len(g.neighbor_arrays) == g.n
        for v, nbrs in enumerate(g.neighbor_arrays):
            assert np.array_equal(nbrs, g.adj_targets[g.adj_offsets[v] : g.adj_offsets[v + 1]])
            assert nbrs.tolist() == g.neighbor_lists[v]
            assert not nbrs.flags.writeable
            with pytest.raises(ValueError):
                nbrs[:] = 0
    assert built.neighbor_arrays is built.neighbor_arrays  # built once


def test_neighbor_lists_share_one_int_object_per_vertex():
    bip = gen_base_bipartite(50, 10, 0.2, seed=3)
    rng = np.random.default_rng(5)
    pairs = rng.integers(0, 600, size=(3000, 2))
    plain = build_graph_reference(600, pairs[pairs[:, 0] != pairs[:, 1]])
    for g in (bip, gc.graph_from_text(gc.graph_to_text(bip)), plain):
        entries = [w for nbrs in g.neighbor_lists for w in nbrs]
        assert max(entries) > 256  # past CPython's cache of small ints
        assert all(type(w) is int for w in entries)
        assert len({id(w) for w in entries}) == len(set(entries))


@pytest.mark.parametrize("enabled", [True, False])
def test_neighbor_lists_pause_the_collector_and_restore_it(enabled):
    """No collection starts while the 3,000 lists are built (without the
    pause, four would), and the collector is left enabled or disabled as it
    was found."""
    rng = np.random.default_rng(6)
    pairs = rng.integers(0, 3000, size=(6000, 2))
    g = gc.build_graph(3000, pairs[pairs[:, 0] != pairs[:, 1]])
    inside = []

    def seen(phase, info):  # a collection that starts under a neighbor_lists frame
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name != "neighbor_lists":
            frame = frame.f_back
        if phase == "start" and frame is not None:
            inside.append(info["generation"])

    (collector.enable if enabled else collector.disable)()
    try:
        collector.collect()  # zero the counts, so that no collection is due at entry
        collector.callbacks.append(seen)
        try:
            assert len(g.neighbor_lists) == 3000
        finally:
            collector.callbacks.remove(seen)
        assert inside == []
        assert collector.isenabled() is enabled
    finally:
        collector.enable()


# -- is_independent ---------------------------------------------------------


def test_is_independent_path_endpoints():
    g = path_graph(3)
    assert gc.is_independent(g, {0, 2})
    assert not gc.is_independent(g, {0, 1})


def test_is_independent_clique_pairs():
    g = complete_graph(5)
    for pair in itertools.combinations(range(5), 2):
        assert not gc.is_independent(g, pair)


@pytest.mark.parametrize("bad", [-1, 3])
def test_is_independent_names_a_vertex_outside_the_graph(bad):
    g = path_graph(3)  # -1 used to read vertex 2's neighbours; 3 raised IndexError
    with pytest.raises(InvalidEdge, match=rf"vertex {bad} outside \[0,3\)"):
        gc.is_independent(g, [0, bad])


# -- alpha oracles ----------------------------------------------------------


def test_alpha_bruteforce_basics():
    assert gc.alpha_bruteforce(gc.build_graph(5, [])).alpha == 5
    assert gc.alpha_bruteforce(complete_graph(5)).alpha == 1
    assert gc.alpha_bruteforce(path_graph(3)).alpha == exhaustive_alpha(path_graph(3))
    assert gc.alpha_bruteforce(path_graph(3)).alpha == 2


def test_alpha_bruteforce_cap():
    with pytest.raises(CapExceeded):
        gc.alpha_bruteforce(gc.build_graph(40, []))


def test_alpha_bruteforce_witness_is_lexicographically_smallest():
    # C_4: two maximum sets {0,2} and {1,3}; lexicographic pick is {0,2}.
    cert = gc.alpha_bruteforce(cycle_graph(4))
    assert cert.alpha == 2
    assert cert.witness == frozenset({0, 2})
    # C_5 has five maximum sets; smallest is {0,2}.
    cert5 = gc.alpha_bruteforce(cycle_graph(5))
    assert cert5.alpha == 2
    assert cert5.witness == frozenset({0, 2})


def test_alpha_bipartite_complete_bipartite():
    # K_{3,3}: alpha is one full side.
    edges = [(i, 3 + j) for i in range(3) for j in range(3)]
    labels = {v: gc.SIDE_L if v < 3 else gc.SIDE_R for v in range(6)}
    g = gc.build_graph(6, edges, labels=labels, bipartite=True)
    cert = gc.alpha_bipartite(g)
    assert cert.alpha == 3
    assert cert.verify(g)


def test_alpha_bipartite_c4():
    labels = {0: gc.SIDE_L, 2: gc.SIDE_L, 1: gc.SIDE_R, 3: gc.SIDE_R}
    g = gc.build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], labels=labels)
    cert = gc.alpha_bipartite(g)
    assert cert.alpha == 2
    assert cert.verify(g)


def test_alpha_bipartite_long_augmenting_path(monkeypatch):
    """A path of 20,000 vertices numbered so that the greedy start gives
    every left vertex its wrong neighbour; the first phase then needs one
    augmenting path through all 10,000 left vertices."""
    import sys

    m = 10_000
    right = lambda j: 2 * m - 1 - j  # noqa: E731  (right vertex j, numbered downwards)
    edges = [(i, right(i)) for i in range(m)] + [(i, right(i + 1)) for i in range(m - 1)]
    labels = np.array([gc.SIDE_L] * m + [gc.SIDE_R] * m, dtype=np.int8)
    g = gc.build_graph(2 * m, edges, labels=labels, bipartite=True)
    limit = sys.getrecursionlimit()
    monkeypatch.setattr(sys, "setrecursionlimit", lambda n: pytest.fail("limit changed"))
    cert = gc.alpha_bipartite(g)
    assert cert.alpha == m
    assert cert.verify(g)
    assert sys.getrecursionlimit() == limit


def _check_maximum_matching(n, left, right, edges):
    labels = {v: gc.SIDE_L for v in left} | {v: gc.SIDE_R for v in right}
    g = gc.build_graph(n, edges, labels=labels, bipartite=True)
    size = kuhn_matching_size(g.neighbor_lists, left)
    for side in (left, right):
        match = gc._max_matching(g.neighbor_lists, side)
        matched = [u for u in side if match[u] != -1]
        assert len(matched) == size
        for u in matched:
            assert match[match[u]] == u and match[u] in g.neighbor_lists[u]
        assert sum(m != -1 for m in match) == 2 * size
    cert = gc.alpha_bipartite(g)
    assert cert.alpha == n - size and cert.verify(g)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**36 - 1),
    st.integers(0, 14),
    st.integers(0, 14),
    st.sampled_from([0.0, 0.1, 0.3, 0.6, 0.9, 1.0]),
)
def test_max_matching_matches_the_kuhn_reference(seed, nl, nr, density):
    """Unbalanced or empty sides, isolated vertices, complete graphs; the
    sides interleave in vertex order, so the greedy start varies.  The
    matching is searched from each side in turn."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(nl + nr)
    left, right = sorted(order[:nl].tolist()), sorted(order[nl:].tolist())
    edges = [(u, w) for u in left for w in right if rng.random() < density]
    _check_maximum_matching(nl + nr, left, right, edges)


def test_max_matching_repairs_a_greedy_start_that_is_not_maximum():
    # The path 3 - 0 - 2 - 1: the greedy start gives 0 its first neighbour,
    # 2, which leaves 1 with no free neighbour; one phase augments 1-2-0-3.
    _check_maximum_matching(4, [0, 1], [2, 3], [(0, 2), (0, 3), (1, 2)])


def test_alpha_bipartite_of_the_bundled_greedy_instance_is_pinned():
    """balanced-bipartite n=5000 d=16 at the seed of bipartite_greedy.cfg."""
    from annealbench import instance_gen as ig

    g = ig.family("balanced-bipartite").make({"n": "5000", "d": "16"}, 20260814).graph
    cert = gc.alpha_bipartite(g)
    assert cert.alpha == 5006
    assert cert.verify(g)


def test_alpha_bipartite_searching_from_the_right_side_is_pinned():
    """The same family at seed 271828, where L is the larger side, so the
    matching is searched from R."""
    from annealbench import instance_gen as ig

    g = ig.family("balanced-bipartite").make({"n": "5000", "d": "16"}, 271828).graph
    assert np.count_nonzero(g.side == gc.SIDE_L) > g.n / 2
    cert = gc.alpha_bipartite(g)
    assert cert.alpha == 5064
    assert cert.verify(g)


def test_alpha_bipartite_requires_labels():
    with pytest.raises(NotBipartite):
        gc.alpha_bipartite(path_graph(3))
    partly = gc.build_graph(3, [(0, 1)], labels={0: gc.SIDE_L, 1: gc.SIDE_R})
    with pytest.raises(NotBipartite, match="unlabeled vertices present"):
        gc.alpha_bipartite(partly)


def test_alpha_bipartite_rejects_same_side_edge():
    g = gc.build_graph(2, [(0, 1)], labels={0: gc.SIDE_L, 1: gc.SIDE_L})
    with pytest.raises(NotBipartite):
        gc.alpha_bipartite(g)


def test_alpha_tree_small_cases():
    single = gc.build_graph(1, [])
    assert gc.alpha_tree(single).alpha == 1
    p4 = path_graph(4)
    assert gc.alpha_tree(p4).alpha == 2
    assert gc.alpha_tree(p4).verify(p4)


def test_alpha_tree_rejects_cycle():
    with pytest.raises(NotAForest):
        gc.alpha_tree(cycle_graph(4))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**36 - 1), st.integers(2, 9))
def test_oracles_agree_on_random_graphs(seed, n):
    rng = np.random.default_rng(seed)
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if rng.random() < 0.4
    ]
    g = gc.build_graph(n, edges)
    cert = gc.alpha_bruteforce(g)
    assert cert.alpha == exhaustive_alpha(g)
    assert cert.verify(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**36 - 1), st.integers(1, 6), st.integers(1, 6))
def test_bipartite_oracle_matches_bruteforce(seed, nl, nr):
    rng = np.random.default_rng(seed)
    n = nl + nr
    labels = {v: gc.SIDE_L if v < nl else gc.SIDE_R for v in range(n)}
    edges = [
        (u, nl + w) for u in range(nl) for w in range(nr) if rng.random() < 0.5
    ]
    g = gc.build_graph(n, edges, labels=labels, bipartite=True)
    cert = gc.alpha_bipartite(g)
    assert cert.alpha == gc.alpha_bruteforce(g).alpha
    assert cert.verify(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**36 - 1), st.integers(1, 12))
def test_tree_oracle_matches_bruteforce(seed, n):
    rng = np.random.default_rng(seed)
    # random forest: each vertex v>0 attaches to a previous vertex or stays a root
    edges = []
    for v in range(1, n):
        if rng.random() < 0.8:
            edges.append((int(rng.integers(0, v)), v))
    g = gc.build_graph(n, edges)
    cert = gc.alpha_tree(g)
    assert cert.alpha == gc.alpha_bruteforce(g).alpha
    assert cert.verify(g)


# -- file format -------------------------------------------------------------


def test_graph_text_round_trip():
    labels = {0: gc.SIDE_L, 1: gc.SIDE_R, 2: gc.SIDE_R}
    groups = {0: 7}
    g = gc.build_graph(3, [(0, 1), (0, 2)], labels=labels, groups=groups)
    text = gc.graph_to_text(g)
    h = gc.graph_from_text(text)
    assert gc.graph_to_text(h) == text
    assert np.array_equal(g.adj_offsets, h.adj_offsets)
    assert np.array_equal(g.adj_targets, h.adj_targets)
    assert np.array_equal(g.side, h.side)
    assert np.array_equal(g.group, h.group)


def test_graph_file_round_trip(tmp_path):
    g = path_graph(4)
    path = tmp_path / "path4.txt"
    path.write_text(gc.graph_to_text(g))
    h = gc.read_graph_file(str(path))
    assert h.num_edges == 3


def test_graph_from_text_checks_edge_count():
    with pytest.raises(InvalidEdge):
        gc.graph_from_text("p is 2 5\ne 0 1\n")


@pytest.mark.parametrize("text", ["", "c no problem line\n\n"], ids=["empty", "comments-only"])
def test_graph_from_text_needs_a_problem_line(text):
    for parse in (gc.graph_from_text, graph_from_text_reference):
        with pytest.raises(InvalidEdge, match="^missing problem line$"):
            parse(text)


def test_graph_from_text_skips_comments_and_blank_lines():
    g = gc.graph_from_text("c a comment\n\n  \np is 3 1\nc\ne 2 0\nl 0 L\ng 1 -4\n")
    assert g.edge_array().tolist() == [[0, 2]]
    assert g.side.tolist() == [gc.SIDE_L, gc.SIDE_NONE, gc.SIDE_NONE]
    assert g.group.tolist() == [gc.NO_GROUP, -4, gc.NO_GROUP]


P = "p is 3 1\n"


@pytest.mark.parametrize(
    "text, line",
    [
        (P + "e 0 1\nl 0 Q\n", 3),
        (P + "e 0 1 2\n", 2),
        (P + "e 0\n", 2),
        (P + "e 0 1\ng 0\n", 3),
        (P + "e 0 1\nl 5 L\n", 3),
        (P + "e 0 1\ng 3 1\n", 3),
        (P + "e 0 x\n", 2),
        (P + "e 0 3\n", 2),
        (P + "e -1 2\n", 2),
        (P + "e 1 1\n", 2),
        (P + "e +1 2\n", 2),
        (P + "cheese\ne 0 1\n", 2),
        (P + P + "e 0 1\n", 2),
        (P + "e 0 1\nx 1 2\n", 3),
        ("p is x 1\n", 1),
        ("p is 3\n", 1),
        ("p it 3 1\n", 1),
        ("p is -3 0\n", 1),
        ("e 0 1\n" + P, 1),
        (P + "e 0 1\ne 0 3\nl 0 Q\n", 3),
        (P + "e 0 1\ne 2 2\ncheese\n", 3),
        (P + "e 0 99999999999999999999\n", 2),
        (P + "e 0 9223372036854775808\n", 2),
        (P + "e 1 -0\ne 2 3\n", 3),
        (P + "e 0 1\nl 0 L\nl 1 R\nl 0 R\n", 5),
        (P + "e 0 1\ng 0 1\ng 0 2\n", 4),
        (P + "e 0 1\ng 1 7\nl 1 L\ng 1 7\n", 5),
    ],
    ids=["bad-side", "e-three-args", "e-one-arg", "g-one-arg", "l-out-of-range",
         "g-out-of-range", "e-not-int", "e-out-of-range", "e-negative", "e-self-loop",
         "e-plus-sign", "cheese", "second-p", "unknown-tag", "p-not-int", "p-short",
         "p-not-is", "p-negative", "edge-before-p", "bad-e-before-bad-l",
         "bad-e-before-cheese", "e-past-int64", "e-at-int64", "e-after-a-signed-zero",
         "second-l", "second-g", "same-g-twice"],
)
def test_graph_from_text_names_the_bad_line(text, line):
    """The edge lines are checked in bulk; a failed check names the first bad
    line of any tag, with the message of the line-by-line reference."""
    with pytest.raises(InvalidEdge, match=f"^line {line}: ") as got:
        gc.graph_from_text(text)
    with pytest.raises(InvalidEdge) as want:
        graph_from_text_reference(text)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("family, params", [
    ("balanced-bipartite", {"n": "400", "d": "6"}),
    ("multicopy", {"n": "16", "eps": "0.25"}),
    ("bipartite-blowup",
     {"base_n": "6", "base_k": "2", "base_p": "0.5", "cloud_size": "3", "copies": "2"}),
])
def test_graph_from_text_gives_the_arrays_of_the_reference(family, params):
    """Labels, groups, both orientations of an edge, repeated edges, padded
    and signed zero tokens: every array equals the line-by-line parse."""
    from annealbench import instance_gen as ig

    text = gc.graph_to_text(ig.family(family).make(params, 7).graph)
    head, *rest = text.splitlines()
    edges = [ln for ln in rest if ln.startswith("e ")]
    flipped = ["e {2} {1}".format(*ln.split()) for ln in edges[::3]]
    u, v = edges[0].split()[1:]
    padded = f"  e\t{'-0' if u == '0' else '00' + u} 0{v} "  # the first edge again
    texts = [
        text,
        "\n".join(["c x", head, *rest, *flipped, *edges[:5], ""]),
        text.replace(edges[0] + "\n", padded + "\n", 1),
    ]
    for t in texts:
        g, h = gc.graph_from_text(t), graph_from_text_reference(t)
        for name in ("adj_offsets", "adj_targets", "side", "group"):
            a, b = getattr(g, name), getattr(h, name)
            assert (a is None and b is None) or np.array_equal(a, b), name


def test_state_tracks_invariants():
    g = path_graph(3)
    st_ = IndependentSetState(3)
    st_.occupied[0] = 1
    st_.occupied[2] = 1
    st_.size = 2
    st_.max_size_seen = 2
    st_.check(g)
    st_.occupied[1] = 1
    st_.size = 3
    st_.max_size_seen = 3
    with pytest.raises(AssertionError):
        st_.check(g)
