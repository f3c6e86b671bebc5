from __future__ import annotations

import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealbench import graph_core as gc
from annealbench.errors import CapExceeded, InvalidEdge, NotAForest, NotBipartite
from reference import IndependentSetState


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
    assert [g.degree(v) for v in range(3)] == [1, 2, 1]
    assert g.num_edges == 2


def test_build_dedupes_reversed_duplicates():
    g = gc.build_graph(2, [(0, 1), (1, 0)])
    assert g.num_edges == 1


def test_build_empty_graph():
    g = gc.build_graph(5, [])
    assert g.num_edges == 0
    assert all(g.degree(v) == 0 for v in range(5))


def test_build_rejects_self_loop():
    with pytest.raises(InvalidEdge):
        gc.build_graph(3, [(1, 1)])


def test_build_rejects_out_of_range():
    with pytest.raises(InvalidEdge):
        gc.build_graph(3, [(0, 3)])


def test_build_rejects_same_side_edge_for_bipartite_kind():
    with pytest.raises(NotBipartite):
        gc.build_graph(
            2, [(0, 1)], labels={0: gc.SIDE_L, 1: gc.SIDE_L}, kind="base-bipartite"
        )


def test_construction_is_deterministic():
    edges = [(3, 1), (0, 2), (2, 3), (1, 0)]
    a = gc.build_graph(4, edges)
    b = gc.build_graph(4, list(reversed(edges)))
    assert np.array_equal(a.adj_offsets, b.adj_offsets)
    assert np.array_equal(a.adj_targets, b.adj_targets)


def test_graph_arrays_are_readonly():
    g = path_graph(3)
    with pytest.raises(ValueError):
        g.adj_targets[0] = 2


# -- is_independent ---------------------------------------------------------


def test_is_independent_path_endpoints():
    g = path_graph(3)
    assert gc.is_independent(g, {0, 2})
    assert not gc.is_independent(g, {0, 1})


def test_is_independent_clique_pairs():
    g = complete_graph(5)
    for pair in itertools.combinations(range(5), 2):
        assert not gc.is_independent(g, pair)


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
    g = gc.build_graph(6, edges, labels=labels, kind="base-bipartite")
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
    """A path of 20,000 vertices numbered so that the first matching phase
    takes every left vertex's wrong neighbour; the second phase then needs
    one augmenting path through all 10,000 left vertices."""
    import sys

    m = 10_000
    right = lambda j: 2 * m - 1 - j  # noqa: E731  (right vertex j, numbered downwards)
    edges = [(i, right(i)) for i in range(m)] + [(i, right(i + 1)) for i in range(m - 1)]
    labels = np.array([gc.SIDE_L] * m + [gc.SIDE_R] * m, dtype=np.int8)
    g = gc.build_graph(2 * m, edges, labels=labels, kind="base-bipartite")
    limit = sys.getrecursionlimit()
    monkeypatch.setattr(sys, "setrecursionlimit", lambda n: pytest.fail("limit changed"))
    cert = gc.alpha_bipartite(g)
    assert cert.alpha == m
    assert cert.verify(g)
    assert sys.getrecursionlimit() == limit


def test_alpha_bipartite_requires_labels():
    with pytest.raises(NotBipartite):
        gc.alpha_bipartite(path_graph(3))


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
    g = gc.build_graph(n, edges, labels=labels, kind="base-bipartite")
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


def test_graph_file_io_via_buffers():
    g = path_graph(4)
    buf = io.StringIO()
    gc.write_graph_file(g, buf)
    buf.seek(0)
    h = gc.read_graph_file(buf)
    assert h.num_edges == 3


def test_graph_from_text_checks_edge_count():
    with pytest.raises(InvalidEdge):
        gc.graph_from_text("p is 2 5\ne 0 1\n")


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
