from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealbench import graph_core as gc
from annealbench import instance_gen as ig
from annealbench.errors import InvalidDenseParams


def _table_alpha(name, seed=0, **params):
    """Alpha of a family member as the family table gives it."""
    fam = ig.family(name)
    return fam.build(fam.parse(params), seed).alpha()


# -- base bipartite ----------------------------------------------------------


def test_base_bipartite_p1_complete():
    g = ig.gen_base_bipartite(4, 2, 1.0, seed=1)
    assert g.n == 12
    assert g.num_edges == 32


def test_base_bipartite_p0_edgeless():
    g = ig.gen_base_bipartite(4, 2, 0.0, seed=1)
    assert g.num_edges == 0
    assert np.sum(g.side == gc.SIDE_L) == 4
    assert np.sum(g.side == gc.SIDE_R) == 8


@pytest.mark.parametrize("p", [1e-19, 1e-20, 1e-300, 5e-324])
def test_a_tiny_edge_probability_gives_no_index_out_of_range(p):
    """A gap past 2**63 must not wrap to a negative index in the int64
    cast. Over 1e6 pairs, P(any edge) <= 1e-13."""
    idx = ig._bernoulli_indices(10**6, p, np.random.default_rng(3))
    assert idx.size == 0
    assert ig.gen_base_bipartite(5, 2, p).num_edges == 0
    assert ig.gen_random_balanced_bipartite(50, p * 50).num_edges == 0


def test_base_bipartite_edge_count_concentrates():
    # E[edges] = p * n * kn = 1500, sigma = sqrt(1500 * 0.95) ~ 37.8
    g = ig.gen_base_bipartite(100, 3, 0.05, seed=7)
    sigma = math.sqrt(100 * 300 * 0.05 * 0.95)
    assert abs(g.num_edges - 1500) <= 4 * sigma


def test_base_bipartite_deterministic():
    a = ig.gen_base_bipartite(20, 2, 0.3, seed=5)
    b = ig.gen_base_bipartite(20, 2, 0.3, seed=5)
    assert gc.graph_to_text(a) == gc.graph_to_text(b)
    c = ig.gen_base_bipartite(20, 2, 0.3, seed=6)
    assert gc.graph_to_text(a) != gc.graph_to_text(c)


# -- clique blowup -----------------------------------------------------------


def test_clique_blowup_vertex_count():
    params = ig.BlowupParams(n=10, k=2, ell=5, p=0.3, seed=3)
    g = ig.gen_clique_blowup(params)
    assert g.n == 10 * 5 + 2 * 10


def test_clique_blowup_degenerate_isolated():
    params = ig.BlowupParams(n=3, k=1, ell=1, p=0.0, seed=0)
    g = ig.gen_clique_blowup(params)
    assert g.n == 6
    assert g.num_edges == 0
    assert gc.alpha_bruteforce(g).alpha == 6


def test_clique_blowup_alpha_at_least_right_side():
    params = ig.BlowupParams(n=4, k=2, ell=3, p=0.5, seed=11)
    g = ig.gen_clique_blowup(params)
    assert g.n == 20
    cert = gc.alpha_bruteforce(g)
    assert cert.alpha >= params.k * params.n == 8
    # the right side is an independent set
    right = [v for v in range(g.n) if g.side[v] == gc.SIDE_R]
    assert gc.is_independent(g, right)


def test_clique_blowup_group_ids_mark_cliques():
    params = ig.BlowupParams(n=3, k=1, ell=4, p=0.5, seed=2)
    g = ig.gen_clique_blowup(params)
    for u in range(3):
        members = [v for v in range(g.n) if g.group[v] == u]
        assert members == list(range(u * 4, (u + 1) * 4))
        # each clique member pair is adjacent
        assert not gc.is_independent(g, members[:2])


# -- relations ---------------------------------------------------------------


def test_relations_all_satisfied():
    assert ig.validate_relations(ig.BlowupParams(n=2000, k=8, ell=8320, p=0.052)) == ()


def test_relations_ell_violated():
    assert ig.validate_relations(ig.BlowupParams(n=100, k=8, ell=10, p=0.02)) == (
        "p=0.02 below 50 ln(k)/n = 1.03972",
        "ell=10 below 10*k*p*n = 160",
    )


def test_relations_p_upper_violated():
    assert ig.validate_relations(ig.BlowupParams(n=10, k=2, ell=100, p=0.2)) == (
        "p=0.2 below 50 ln(k)/n = 3.46574",
        "p=0.2 above 0.1",
    )


# -- dense parameterization --------------------------------------------------


def test_derive_dense_small():
    deriv = ig.derive_dense_params(ig.DenseParams(m=4096, eps=0.25, delta=0.2))
    assert (deriv.params.n, deriv.params.k, deriv.params.ell) == (8, 8, 512)
    assert deriv.params.p == pytest.approx(4096**-0.2)
    assert deriv.params.p > 0.1  # flagged at this m
    assert any("0.1" in w for w in deriv.warnings)


def test_derive_dense_large():
    deriv = ig.derive_dense_params(ig.DenseParams(m=10**6, eps=0.25, delta=0.2))
    assert deriv.params.n == 31
    assert deriv.params.k == 31
    assert deriv.params.ell == 31622
    assert deriv.params.p == pytest.approx(10**-1.2)


def test_derive_dense_rejects_bad_eps():
    with pytest.raises(InvalidDenseParams):
        ig.DenseParams(m=4096, eps=0.4, delta=0.2)
    with pytest.raises(InvalidDenseParams):
        ig.DenseParams(m=4096, eps=0.25, delta=0.01)


# -- bipartite blowup --------------------------------------------------------


def _labeled_path(n):
    labels = {v: gc.SIDE_L if v % 2 == 0 else gc.SIDE_R for v in range(n)}
    return gc.build_graph(n, [(i, i + 1) for i in range(n - 1)], labels=labels,
                          bipartite=True)


def test_bipartite_blowup_single_edge():
    base = _labeled_path(2)
    g = ig.gen_bipartite_blowup(base, cloud_size=2, copies=1)
    assert g.n == 4
    assert g.num_edges == 4  # K_{2,2}
    assert gc.alpha_bipartite(g).alpha == 2  # alpha(edge)=1 times K*M


def test_bipartite_blowup_path3():
    base = _labeled_path(3)
    g = ig.gen_bipartite_blowup(base, cloud_size=3, copies=2)
    assert g.n == 18
    assert sorted(set(g.group.tolist())) == list(range(6))
    cert = gc.alpha_bipartite(g)
    assert cert.alpha == 2 * 3 * 2  # alpha(P3)=2 by brute force below
    assert gc.alpha_bruteforce(base).alpha == 2


def test_bipartite_blowup_cloud_structure():
    base = _labeled_path(3)
    g = ig.gen_bipartite_blowup(base, cloud_size=4, copies=3)
    assert sorted(set(g.group.tolist())) == list(range(base.n * 3))
    for c in range(base.n * 3):
        members = list(range(c * 4, (c + 1) * 4))
        assert gc.is_independent(g, members)
        assert all(g.group[v] == c for v in members)


# -- trees -------------------------------------------------------------------


def test_star_tree_shape_and_alpha():
    g = ig.gen_star_tree(3)
    assert g.n == 7
    assert g.num_edges == 6
    assert g.degree(0) == 3
    assert gc.alpha_tree(g).alpha == 4


def test_star_tree_k1_is_path():
    g = ig.gen_star_tree(1)
    assert gc.alpha_tree(g).alpha == 2


def test_star_tree_unique_optimum_contains_root():
    g = ig.gen_star_tree(5)
    cert = gc.alpha_bruteforce(g)
    assert cert.alpha == 6
    assert 0 in cert.witness
    leaves = set(range(6, 11))
    assert cert.witness == frozenset({0}) | leaves


def test_hard_tree_counts():
    g = ig.gen_hard_tree(3, 2)
    assert g.n == 15
    assert gc.alpha_tree(g).alpha == 8
    forest = ig.gen_hard_tree(3, 2, apex=False)
    assert forest.n == 14
    assert gc.alpha_tree(forest).alpha == 8


def test_hard_tree_small():
    g = ig.gen_hard_tree(1, 1)
    assert gc.alpha_tree(g).alpha == gc.alpha_bruteforce(g).alpha


def test_hard_tree_disjoint_union_size():
    k = 4
    forest = ig.gen_hard_tree(k, copies=k, apex=False)
    assert forest.n == k * (2 * k + 1)


# -- balanced bipartite ------------------------------------------------------


def test_balanced_bipartite_d0():
    g = ig.gen_random_balanced_bipartite(4, 0.0, seed=9)
    assert g.num_edges == 0
    assert g.n == 8


def test_balanced_bipartite_side_concentration():
    n = 10_000
    g = ig.gen_random_balanced_bipartite(n, 0.0, seed=13)
    sigma = math.sqrt(2 * n * 0.25)
    assert abs(int(np.sum(g.side == gc.SIDE_L)) - n) <= 4 * sigma


def test_balanced_bipartite_average_degree():
    # Average degree is within 10% of d: E[edges] ~ (d/n) |L||R| ~ d n.
    n, d = 10_000, 16.0
    g = ig.gen_random_balanced_bipartite(n, d, seed=21)
    avg_deg = 2 * g.num_edges / g.n
    assert abs(avg_deg - d) <= 0.1 * d


def test_balanced_bipartite_flags():
    assert ig.balanced_bipartite_flags(5000, 16.0)
    assert not ig.balanced_bipartite_flags(5000, 0.05)


def test_balanced_bipartite_oracle_agreement_at_desk_scale():
    # 24-vertex instances: matching-based alpha equals exhaustive alpha
    for seed in range(6):
        g = ig.gen_random_balanced_bipartite(12, 3.6, seed=seed)
        assert gc.alpha_bipartite(g).alpha == gc.alpha_bruteforce(g).alpha


# -- anchor ------------------------------------------------------------------


def test_anchor_degrees():
    n = 6
    g = ig.gen_appendix_anchor(n)
    assert g.degree(2 * n) == n
    assert all(g.degree(i) == n + 1 for i in range(n))
    assert all(g.degree(n + c) == 2 * n - 1 for c in range(n))


def test_anchor_alpha_is_block():
    g = ig.gen_appendix_anchor(4)
    cert = gc.alpha_bruteforce(g)
    assert cert.alpha == 4
    assert cert.witness == frozenset(range(4))


# -- multicopy ---------------------------------------------------------------


def test_multicopy_counts_and_alpha():
    eps = math.log(2) / math.log(3)  # block size 2 at n=3
    g = ig.gen_appendix_multicopy(3, eps)
    assert g.n == 15
    assert ig.multicopy_block_size(3, eps) == 2
    assert gc.alpha_bruteforce(g).alpha == 6
    assert _table_alpha("multicopy", n=3, eps=eps) == 6


def test_multicopy_each_block_independent():
    eps = 0.5
    n = 4
    g = ig.gen_appendix_multicopy(n, eps)
    s = ig.multicopy_block_size(n, eps)
    span = n + s
    for c in range(n):
        block = list(range(c * span, c * span + s))
        assert gc.is_independent(g, block)


# -- formula alphas vs oracles ----------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5))
def test_formula_alpha_star_tree(k):
    g = ig.gen_star_tree(k)
    assert gc.alpha_tree(g).alpha == _table_alpha("star-tree", k=k)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3))
def test_formula_alpha_hard_tree(k, copies):
    g = ig.gen_hard_tree(k, copies)
    assert gc.alpha_tree(g).alpha == _table_alpha("hard-tree", k=k, copies=copies)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 3), st.integers(1, 2))
def test_formula_alpha_bipartite_blowup(seed, base_n, K, M):
    base = ig.gen_base_bipartite(base_n, 1, 0.4, seed=seed)
    alpha_base = gc.alpha_bipartite(base).alpha
    g = ig.gen_bipartite_blowup(base, K, M)
    expect = _table_alpha(
        "bipartite-blowup", base_n=base_n, base_k=1, base_p=0.4, cloud_size=K, copies=M, seed=seed
    )
    assert expect == alpha_base * K * M
    assert gc.alpha_bipartite(g).alpha == expect


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_small_generator_outputs_match_bruteforce(seed):
    base = ig.gen_base_bipartite(4, 2, 0.35, seed=seed)
    assert gc.alpha_bipartite(base).alpha == gc.alpha_bruteforce(base).alpha


def test_sidecar_text_is_stable():
    text = ig.sidecar_text("star-tree", {"k": 3}, seed=None, alpha=4)
    assert text == "family = star-tree\nk = 3\nalpha = 4\n"
