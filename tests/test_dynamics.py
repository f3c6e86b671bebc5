from __future__ import annotations

import itertools
import math
import tracemalloc
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from annealbench import dynamics as dy
from annealbench import graph_core as gc
from annealbench import instance_gen as ig
from annealbench.errors import InvalidEdge, InvalidFugacity, InvalidRate, NotIndependent
from annealbench.schedules import ADAPTIVE_RULES, FugacitySchedule, parse_schedule
from exact_laws import hardcore_distribution, multicopy_greedy_law
from reference import (
    IndependentSetState,
    coupling_instance,
    phi_project,
    run_coupled_monotone_reference,
    run_randomized_greedy_reference,
    run_ump_reference,
    ump_update,
)

FIX2 = FugacitySchedule.fixed(2.0)
GREEDY = FugacitySchedule.fixed(math.inf)


def path3():
    return gc.build_graph(3, [(0, 1), (1, 2)])


def labeled_path3():
    labels = {0: gc.SIDE_L, 1: gc.SIDE_R, 2: gc.SIDE_L}
    return gc.build_graph(3, [(0, 1), (1, 2)], labels=labels)


# -- single-step rule --------------------------------------------------------


def test_update_adds_isolated_vertex():
    g = gc.build_graph(2, [])
    st = IndependentSetState(2)
    ump_update(st, g, 0, 0.99, 3.0)
    assert st.occupied[0] == 1 and st.size == 1


def test_update_blocked_add_is_noop():
    g = gc.build_graph(2, [(0, 1)])
    st = IndependentSetState(2)
    ump_update(st, g, 0, 0.5, 2.0)
    ump_update(st, g, 1, 0.9, 2.0)
    assert st.occupied[1] == 0 and st.size == 1


def test_update_removal_rule():
    g = gc.build_graph(1, [])
    st = IndependentSetState(1)
    ump_update(st, g, 0, 0.7, 2.0)  # add
    ump_update(st, g, 0, 0.3, 2.0)  # 0.3 < 1/2: remove
    assert st.size == 0


def test_update_infinite_fugacity_never_removes():
    g = gc.build_graph(1, [])
    st = IndependentSetState(1)
    ump_update(st, g, 0, 0.9, math.inf)
    for zeta in (0.0, 1e-12, 0.2, 0.999):
        ump_update(st, g, 0, zeta, math.inf)
    assert st.size == 1


def test_update_rejects_low_fugacity():
    g = gc.build_graph(1, [])
    with pytest.raises(InvalidFugacity):
        ump_update(IndependentSetState(1), g, 0, 0.5, 0.5)


# -- engine vs reference ----------------------------------------------------


ENGINE_GRAPHS = [
    path3(),
    gc.build_graph(5, [(i, (i + 1) % 5) for i in range(5)]),
    gc.build_graph(4, list(itertools.combinations(range(4), 2))),
    ig.gen_star_tree(5),
    ig.gen_base_bipartite(4, 2, 0.4, seed=9),
]

ENGINE_SCHEDULES = [
    FugacitySchedule.fixed(1.0),
    FugacitySchedule.fixed(2.5),
    FugacitySchedule.fixed(math.inf),
    FugacitySchedule.geometric(1.0, 2.0, 100, cap=64.0),
    FugacitySchedule.sequence([1.0] * 50 + [4.0] * 50 + [2.0]),
    FugacitySchedule.adaptive("plateau"),
    FugacitySchedule.adaptive("milestone"),
]


# A recorder that tracks touched vertices keeps step mode for the whole run.
STEP_MODE = dy.RecorderConfig(keep_final_state=True, track_touched=True)


def _assert_matches_reference(g, sched, steps, seed, early=None):
    rec = dy.run_ump(
        g, sched, steps, seed=seed, recorder=replace(STEP_MODE, early_stop_size=early)
    )
    ref, step_of_max = run_ump_reference(g, sched, steps, seed=seed, early_stop_size=early)
    assert rec.final_state == frozenset(ref.vertices())
    assert (rec.steps, rec.max_size, rec.step_of_max, rec.final_size) == (
        ref.step, ref.max_size_seen, step_of_max, ref.size
    )
    assert (rec.events, rec.skipped) == (ref.changes, 0)


@pytest.mark.parametrize("gi", range(len(ENGINE_GRAPHS)))
@pytest.mark.parametrize("si", range(len(ENGINE_SCHEDULES)))
def test_engine_matches_reference(gi, si):
    """Step mode is the reference fold byte for byte, and counts the fold's
    state changes as its events: over 800 steps, over
    40,000 steps (more than one block of ``dy._CHUNK`` reals), and stopped early
    when the set first reaches size 2."""
    g = ENGINE_GRAPHS[gi]
    sched = ENGINE_SCHEDULES[si]
    for seed in range(4):
        _assert_matches_reference(g, sched, 800, seed)
    _assert_matches_reference(g, sched, 40_000, seed=4)
    _assert_matches_reference(g, sched, 40_000, seed=5, early=2)


def test_engine_deterministic_replay():
    g = ig.gen_star_tree(20)
    rec = dy.RecorderConfig(snapshot_every=5)
    a = dy.run_ump(g, FIX2, 5000, seed=123, recorder=rec)
    b = dy.run_ump(g, FIX2, 5000, seed=123, recorder=rec)
    assert (a.max_size, a.step_of_max, a.final_size) == (
        b.max_size,
        b.step_of_max,
        b.final_size,
    )
    c = dy.run_ump(g, FIX2, 5000, seed=124, recorder=rec)
    assert (a.max_size, a.step_of_max, a.final_size) != (
        c.max_size,
        c.step_of_max,
        c.final_size,
    ) or a.snapshots != c.snapshots


def test_engine_debug_invariant_check():
    g = ig.gen_base_bipartite(6, 2, 0.4, seed=4)
    rec = dy.RecorderConfig(check_every=97)
    dy.run_ump(g, FIX2, 3000, seed=5, recorder=rec)  # raises on any violation


@pytest.mark.parametrize(
    "key", ["snapshot_every", "probe_step", "check_every", "early_stop_size", "thresholds"]
)
def test_recorder_rejects_a_negative_mark(key):
    with pytest.raises(ValueError, match=key):
        # a threshold of 0 is met by the empty set before any step
        dy.RecorderConfig(**{key: (4, 0) if key == "thresholds" else -3})


# -- basic behaviors ---------------------------------------------------------


def test_uniform_classes_are_built_once_per_size():
    assert dy.RateClasses.uniform(7) is dy.RateClasses.uniform(7)
    assert dy.RateClasses.uniform(7).counts == [7]


def test_empty_graph_saturates():
    g = gc.build_graph(5, [])
    # P(missing some vertex after 200 draws) <= 5 * (4/5)^200 ~ 8e-20
    for seed in range(50):
        rec = dy.run_ump(g, GREEDY, 200, seed=seed)
        assert rec.max_size == 5


def test_clique_caps_at_one():
    g = gc.build_graph(6, list(itertools.combinations(range(6), 2)))
    for sched in (FugacitySchedule.fixed(1.0), GREEDY):
        rec = dy.run_ump(g, sched, 400, seed=11)
        assert rec.max_size == 1


def test_infinite_schedule_sizes_nondecreasing():
    g = ig.gen_star_tree(10)
    rec = dy.run_ump(g, GREEDY, 2000, seed=3, recorder=dy.RecorderConfig(snapshot_every=2))
    assert rec.final_size == rec.max_size
    sizes = [s for _, s, _, _ in rec.snapshots]
    assert len(sizes) == 1000
    assert sizes == sorted(sizes)


def test_removal_acceptance_frequency():
    g = gc.build_graph(1, [])
    lam = 4.0
    gen = np.random.default_rng(17)
    st = IndependentSetState(1)
    proposals = 0
    accepts = 0
    for _ in range(100_000):
        zeta = float(gen.random())
        was = st.occupied[0]
        ump_update(st, g, 0, zeta, lam)
        if was:
            proposals += 1
            accepts += was and not st.occupied[0]
    rate = accepts / proposals
    sigma = math.sqrt(0.25 * 0.75 / proposals)
    assert abs(rate - 1.0 / lam) <= 4 * sigma


def test_hardcore_distribution_p3_weights():
    g = path3()
    exact = hardcore_distribution(g, 2.0)
    # independent sets: {}, {a}, {b}, {c}, {a,c} with weights 1,2,2,2,4
    assert exact[0b000] == pytest.approx(1 / 11)
    assert exact[0b001] == pytest.approx(2 / 11)
    assert exact[0b010] == pytest.approx(2 / 11)
    assert exact[0b100] == pytest.approx(2 / 11)
    assert exact[0b101] == pytest.approx(4 / 11)
    assert exact[0b011] == 0.0


# -- recorder ----------------------------------------------------------------


def test_threshold_hits_are_monotone():
    g = gc.build_graph(8, [])
    rec = dy.run_ump(
        g,
        GREEDY,
        500,
        seed=2,
        recorder=dy.RecorderConfig(thresholds=(2, 4, 6, 8)),
    )
    hits = rec.hitting_steps
    assert sorted(hits) == [2, 4, 6, 8]
    assert [hits[k] for k in sorted(hits)] == sorted(hits[k] for k in hits)


def test_early_stop_and_final_state():
    g = gc.build_graph(10, [])
    rec = dy.run_ump(
        g,
        GREEDY,
        10_000,
        seed=8,
        recorder=dy.RecorderConfig(early_stop_size=4, keep_final_state=True),
    )
    assert rec.max_size == 4
    assert rec.steps < 10_000
    assert len(rec.final_state) == 4
    assert rec.step_of_max == rec.steps


def test_snapshots_consistent_with_max():
    g = ig.gen_star_tree(15)
    rec = dy.run_ump(g, FIX2, 4000, seed=9, recorder=dy.RecorderConfig(snapshot_every=4))
    assert max(s for _, s, _, _ in rec.snapshots) <= rec.max_size
    steps = [t for t, _, _, _ in rec.snapshots]
    assert steps == list(range(4, 4001, 4))


def test_snapshots_only_when_asked():
    g = ig.gen_star_tree(15)
    for rec in (None, dy.RecorderConfig(thresholds=(3,), probe_step=50, probe_vertices=(0,))):
        assert dy.run_ump(g, FIX2, 400, seed=9, recorder=rec).snapshots == []


def test_watch_vertex_flag():
    g = path3()
    rec = dy.run_ump(
        g, FIX2, 200, seed=1, recorder=dy.RecorderConfig(watch=(1,))
    )
    # vertex 1 can only join when 0 and 2 are absent; over 200 steps at
    # lambda=2 it is essentially surely added at least once
    assert rec.root_added


def test_probe_counts_occupied_subset():
    g = gc.build_graph(6, [])
    rec = dy.run_ump(
        g,
        GREEDY,
        300,
        seed=4,
        recorder=dy.RecorderConfig(probe_step=300, probe_vertices=(0, 1, 2)),
    )
    assert rec.probe_count == 3  # everything fills on an edgeless graph


# -- greedy baselines --------------------------------------------------------


def test_randomized_greedy_extremes():
    clique = gc.build_graph(7, list(itertools.combinations(range(7), 2)))
    empty = gc.build_graph(7, [])
    for seed in range(30):
        s1, _ = dy.run_randomized_greedy(clique, seed)
        assert len(s1) == 1
        s2, _ = dy.run_randomized_greedy(empty, seed)
        assert len(s2) == 7


def test_randomized_greedy_is_maximal_independent():
    g = ig.gen_base_bipartite(10, 2, 0.2, seed=5)
    for seed in range(20):
        s, rec = dy.run_randomized_greedy(g, seed)
        assert gc.is_independent(g, s)
        assert rec.max_size == len(s)
        # maximality: every vertex outside has an occupied neighbor
        for v in range(g.n):
            if v not in s:
                assert any(int(w) in s for w in g.neighbors(v))


def random_graph(n, m, seed, among=None):
    """n vertices; m random pairs drawn among the first ``among`` (all n)."""
    pairs = np.random.default_rng(seed).integers(0, among or n, size=(m, 2))
    return gc.build_graph(n, pairs[pairs[:, 0] != pairs[:, 1]])


# The fast scan filters the permutation in blocks of dy._GREEDY_BLOCK = 256
# positions: n = 255..513 put the last position on either side of a block
# edge; 400 isolated vertices after 600 connected ones are always added,
# also late in the permutation; a dense multicopy leaves few vertices free
# after its first block; the balanced bipartite graph is bip_greedy's family,
# degree and master seed at a tenth of its n, over 200 trial seeds.
@pytest.mark.parametrize(
    "g, seeds",
    [
        (ig.gen_appendix_anchor(30), 50),
        (gc.build_graph(50, [(i, i + 1) for i in range(49)]), 50),
        (ig.gen_random_balanced_bipartite(300, 4, seed=2), 50),
        (gc.build_graph(0, []), 5),
        *((random_graph(n, 2 * n, seed=n), 50) for n in (255, 256, 257, 513)),
        (random_graph(1000, 900, seed=7, among=600), 50),
        (ig.gen_appendix_multicopy(32, 0.5), 50),
        (ig.gen_random_balanced_bipartite(500, 16, seed=20260814), 200),
    ],
    ids=["anchor", "path", "balanced-bipartite", "empty", "n255", "n256", "n257", "n513",
         "isolated", "multicopy", "bip-greedy-small"],
)
def test_randomized_greedy_matches_reference(g, seeds):
    for seed in range(seeds):
        assert dy.run_randomized_greedy(g, seed) == run_randomized_greedy_reference(g, seed)


def test_randomized_greedy_matches_infinite_fugacity_distribution():
    g = path3()
    trials = 100_000
    greedy_counts = Counter()
    chain_counts = Counter()
    for seed in range(trials):
        s, _ = dy.run_randomized_greedy(g, seed)
        greedy_counts[s] += 1
        rec = dy.run_ump(
            g,
            GREEDY,
            60,
            seed=trials + seed,
            recorder=dy.RecorderConfig(keep_final_state=True),
        )
        chain_counts[rec.final_state] += 1
    keys = set(greedy_counts) | set(chain_counts)
    tv = 0.5 * sum(
        abs(greedy_counts[k] / trials - chain_counts[k] / trials) for k in keys
    )
    assert tv <= 0.02


# Gate 8a's instance (multicopy_greedy.cfg): 64 units, each an 8-block joined
# to a 64-clique.  The TV of 2000 draws from the exact law itself stayed
# below 0.062 in 2*10^4 resamples.
MULTICOPY_GREEDY_TRIALS = 2000
MULTICOPY_GREEDY_TV = 0.065


def test_randomized_greedy_matches_the_multicopy_law():
    n, s = 64, 8
    g = ig.gen_appendix_multicopy(n, 0.5)
    law = multicopy_greedy_law(n, s)
    sizes = np.arange(len(law))
    assert abs((sizes * law).sum() - n * (1 + (s - 1) * s / (n + s))) < 1e-9  # 113.78
    assert abs(law[sizes > 144].sum() - 0.04777) < 1e-5
    counts = np.zeros(len(law))
    for seed in range(MULTICOPY_GREEDY_TRIALS):
        size = dy.run_randomized_greedy(g, seed)[1].max_size
        assert size % (s - 1) == n % (s - 1), size  # n units, s - 1 more for each block
        counts[size] += 1
    tv = 0.5 * float(np.abs(counts / MULTICOPY_GREEDY_TRIALS - law).sum())
    assert tv <= MULTICOPY_GREEDY_TV, f"TV {tv:.4f} > {MULTICOPY_GREEDY_TV}"


def test_randomized_greedy_anchor_mean_matches_conditioning_oracle():
    # First pick decides the run: a block vertex yields the whole block (n),
    # anything else yields exactly 2.  E = (2(n+1) + n^2) / (2n+1).
    n = 500
    g = ig.gen_appendix_anchor(n)
    exact_mean = (2 * (n + 1) + n * n) / (2 * n + 1)
    trials = 2000
    sizes = [len(dy.run_randomized_greedy(g, seed)[0]) for seed in range(trials)]
    per_trial_sigma = math.sqrt(
        (n / (2 * n + 1)) * (1 - n / (2 * n + 1)) * (n - 2) ** 2
    )
    assert abs(float(np.mean(sizes)) - exact_mean) <= 4 * per_trial_sigma / math.sqrt(trials)
    assert set(sizes) <= {2, n}


def test_degree_greedy_anchor_returns_two():
    for n in (2, 5, 40, 200):
        g = ig.gen_appendix_anchor(n)
        assert len(dy.run_degree_greedy(g)) == 2


def test_degree_greedy_star_takes_leaves():
    m = 9
    g = gc.build_graph(m + 1, [(0, i) for i in range(1, m + 1)])
    assert dy.run_degree_greedy(g) == frozenset(range(1, m + 1))


def test_degree_greedy_c5_lowest_index_ties():
    g = gc.build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    out = dy.run_degree_greedy(g)
    assert out == frozenset({0, 2})
    assert len(out) == gc.alpha_bruteforce(g).alpha


# -- continuous-time chain ---------------------------------------------------


def test_ct_event_count_is_poisson():
    g = labeled_path3()
    cfg = dy.WeightedCTConfig.for_sides(g, 100.0, 100.0, horizon=10.0 / 3.0)
    counts = [
        dy.run_ct_ump(g, cfg, FIX2, seed=seed).steps for seed in range(60)
    ]
    mean = float(np.mean(counts))
    assert abs(mean - 1000.0) <= 4 * math.sqrt(1000.0)


def test_ct_single_vertex_untouched_probability():
    g = gc.build_graph(1, [], labels={0: gc.SIDE_L})
    cfg = dy.WeightedCTConfig.for_sides(g, 5.0, 1.0, horizon=1.0)
    trials = 20_000
    zero = sum(
        1 for seed in range(trials) if dy.run_ct_ump(g, cfg, FIX2, seed=seed).steps == 0
    )
    expect = trials * math.exp(-5.0)
    sigma = math.sqrt(trials * math.exp(-5.0) * (1 - math.exp(-5.0)))
    assert abs(zero - expect) <= 4 * sigma


def test_ct_uniform_rates_match_discrete_chain():
    g = labeled_path3()
    horizon = 3.0
    lam = 2.0
    trials = 20_000
    cfg = dy.WeightedCTConfig.for_sides(g, 1.0, 1.0, horizon=horizon)
    ct_counts = Counter()
    disc_counts = Counter()
    gen = np.random.default_rng(404)
    for seed in range(trials):
        rec = dy.run_ct_ump(
            g,
            cfg,
            FugacitySchedule.fixed(lam),
            seed=seed,
            recorder=dy.RecorderConfig(keep_final_state=True),
        )
        ct_counts[rec.final_state] += 1
        steps = int(gen.poisson(3 * horizon))
        if steps == 0:
            disc_counts[frozenset()] += 1
        else:
            rec2 = dy.run_ump(
                g,
                FugacitySchedule.fixed(lam),
                steps,
                seed=trials + seed,
                recorder=dy.RecorderConfig(keep_final_state=True),
            )
            disc_counts[rec2.final_state] += 1
    keys = set(ct_counts) | set(disc_counts)
    tv = 0.5 * sum(abs(ct_counts[k] / trials - disc_counts[k] / trials) for k in keys)
    assert tv <= 0.02


def test_ct_requires_positive_rates():
    g = labeled_path3()
    with pytest.raises(InvalidRate):
        dy.WeightedCTConfig.for_sides(g, 0.0, 1.0, horizon=1.0)
    with pytest.raises(InvalidRate, match="overflows"):  # each rate finite, their sum not
        dy.WeightedCTConfig.for_sides(g, 1.7e308, 1.7e308, events=10)
    with pytest.raises(InvalidFugacity):
        dy.WeightedCTConfig.for_sides(g, 1.0, 1.0, 0.5, 1.0, horizon=1.0)
    for mults in ((math.nan, 1.0), (1.0, math.nan)):  # NaN fails no "< 1" check
        with pytest.raises(InvalidFugacity, match="nan"):
            dy.WeightedCTConfig.for_sides(g, 2.0, 1.0, *mults, events=5000)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"horizon": -1.0},
        {"horizon": 0.0},
        {"horizon": math.nan},
        {"horizon": math.inf},
        {"events": -5},
        {"events": 0},
    ],
)
def test_ct_rejects_bad_horizon_and_events(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        dy.WeightedCTConfig.for_sides(labeled_path3(), 1.0, 1.0, **kwargs)


def test_ct_blowup_implicit_fills_left_side():
    # p*n = 10 so every right vertex has many left blockers
    base = ig.gen_base_bipartite(50, 4, 0.2, seed=31)
    cfg = dy.WeightedCTConfig.blowup_implicit(base, 400, events=50_000)
    rec = dy.run_ct_ump(base, cfg, FugacitySchedule.fixed(16.0), seed=77)
    assert rec.final_left >= 45  # left side is essentially full
    assert rec.final_right <= 5


# -- projection --------------------------------------------------------------


def _tiny_blowup():
    params = ig.BlowupParams(n=4, k=2, ell=3, p=0.3, seed=1)
    labels = {v: gc.SIDE_L if v < 4 else gc.SIDE_R for v in range(12)}
    base = gc.build_graph(12, [(0, 4)], labels=labels, bipartite=True)
    return params, base, ig.gen_clique_blowup(params, base=base)


def test_phi_project_basics():
    params, base, g = _tiny_blowup()
    assert phi_project([], params) == frozenset()
    assert phi_project([1], params, g=g) == frozenset({0})  # member of clique 0
    mixed = [0, 5, 13, 14, 15]
    out = phi_project(mixed, params, g=g)
    assert out == frozenset({0, 1, 5, 6, 7})
    assert len(out) == len(mixed)
    assert gc.is_independent(base, out)


def test_phi_project_rejects_dependent_input():
    params, _, g = _tiny_blowup()
    with pytest.raises(NotIndependent):
        phi_project([0, 1], params, g=g)  # same clique
    with pytest.raises(NotIndependent):
        phi_project([0, 12], params, g=g)  # spans a blowup edge


# -- coupled monotone run ----------------------------------------------------


def test_coupled_run_preserves_order():
    for seed in range(6):
        g, upper, lower = coupling_instance(seed)
        for lam in (1.0, 2.0):
            rep = dy.run_coupled_monotone(
                g, upper, lower, lam=lam, events=20_000, seed=seed
            )
            assert rep.ordered_throughout, (seed, lam, rep.first_violation)


@pytest.mark.parametrize("control", [False, True], ids=["coupled", "control"])
@pytest.mark.parametrize("lam", [1.0, 2.0, 10.0])
def test_coupled_run_matches_the_closure_reference(lam, control):
    """The inlined loop gives the report of the closure version, event for
    event: the same violation count and the same first violation."""
    for seed in range(6):
        g, upper, lower = coupling_instance(seed)
        args = (g, upper, lower, lam, 10**5, seed, control)
        assert dy.run_coupled_monotone(*args) == run_coupled_monotone_reference(*args)


def test_coupled_draws_do_not_follow_the_engine_block_size(monkeypatch):
    """The coupled chain lays its draws out per block of ``_COUPLED_CHUNK``
    events, not of the chain engine's ``_CHUNK``."""
    runs = [
        coupling_instance(seed) + (2.0, 10**5, seed, control)
        for seed in range(2)
        for control in (False, True)
    ]
    expected = [dy.run_coupled_monotone(*args) for args in runs]
    for chunk in (7, dy._CHUNK):
        monkeypatch.setattr(dy, "_CHUNK", chunk)
        assert [dy.run_coupled_monotone(*args) for args in runs] == expected, chunk


def test_a_long_step_mode_trial_stays_within_its_memory_budget():
    """One 1e5-step ``fixed:2`` trial on ``tree_hardness.cfg``'s star tree,
    40% of its proposals useful, so stepped from start to end: its blocks of
    reals, proposals and floats peak under 1.5 MiB (about 0.8 MiB at
    ``_CHUNK = 2**13``; 2**15 reads over 3 MiB)."""
    g = ig.gen_star_tree(400)
    g.neighbor_lists
    rec = dy.RecorderConfig(watch=(0,), probe_step=11, probe_vertices=tuple(range(1, 401)))
    tracemalloc.start()
    try:
        dy.run_ump(g, FIX2, 10**5, seed=1, recorder=rec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"


def test_coupled_run_identical_starts_stay_identical():
    g, upper, _ = coupling_instance(3)
    rep = dy.run_coupled_monotone(g, upper, upper, lam=2.0, events=20_000, seed=5)
    assert rep.ordered_throughout


def test_coupled_run_rejects_a_start_vertex_outside_the_graph():
    g, upper, lower = coupling_instance(3)
    for bad in (-1, g.n):  # -1 used to start on vertex n-1
        with pytest.raises(InvalidEdge, match=rf"vertex {bad} outside \[0,{g.n}\)"):
            dy.run_coupled_monotone(g, [bad], lower, lam=2.0, events=10, seed=0)
        with pytest.raises(InvalidEdge, match=rf"vertex {bad} outside"):
            dy.run_coupled_monotone(g, upper, [bad], lam=2.0, events=10, seed=0)
    # The check reads the starts before the run does, so one-pass iterables
    # must still start the run; the control's report depends on the start.
    run = dict(lam=2.0, events=2000, seed=0, control=True)
    assert dy.run_coupled_monotone(g, iter(upper), iter(lower), **run) == (
        dy.run_coupled_monotone(g, upper, lower, **run)
    )


def test_coupled_run_never_removes_at_infinite_fugacity(monkeypatch):
    """At lambda = inf the removal threshold is 0 and ``z < thr`` never holds,
    also for a draw of exactly 0.0, as in the engine and ``tests/reference.py``."""

    class Zeros:  # every draw 0: vertex 0, lazy coins that update, z = 0.0
        def integers(self, low, high, m):
            return np.zeros(m, dtype=np.int64)

        def random(self, m):
            return np.zeros(m)

    monkeypatch.setattr(dy.rngmod, "stream", lambda seed: Zeros())
    g = gc.build_graph(2, [(0, 1)], labels={0: gc.SIDE_L, 1: gc.SIDE_R}, bipartite=True)
    # Independent clocks: the upper chain updates vertex 0 (side L) first.  Were
    # it removed, upper's L-occupancy would no longer contain lower's.
    rep = dy.run_coupled_monotone(g, [0], [0], lam=math.inf, events=50, seed=0, control=True)
    assert rep.events == 50 and rep.ordered_throughout


def test_decoupled_control_breaks_order():
    broken = 0
    for seed in range(10):
        g, upper, lower = coupling_instance(100 + seed)
        rep = dy.run_coupled_monotone(
            g, upper, lower, lam=2.0, events=20_000, seed=seed, control=True
        )
        broken += not rep.ordered_throughout
    assert broken >= 9


# -- greedy chain ------------------------------------------------------------


def test_greedy_chain_p0_always_grows():
    res = dy.run_greedy_chain(50, 0.0, seed=2)
    assert res.total == 100
    assert res.residual == pytest.approx(res.left - res.right)


def test_greedy_chain_near_one_blocks_cross_side():
    # At p ~ 1 the first occupied side blocks the other side entirely, but
    # keeps growing itself on each of its own coin flips: totals land near
    # n (the winner's ~Bin(2n, 1/2) coins), far below the p=0 value 2n.
    n = 100
    results = [dy.run_greedy_chain(n, 0.999, seed=s) for s in range(100)]
    totals = [r.total for r in results]
    assert max(totals) <= n + 4 * math.sqrt(n / 2)
    assert all(min(r.left, r.right) <= 2 for r in results)


def test_greedy_chain_martingale_mean_zero():
    trials = 600
    n = 200
    results = [dy.run_greedy_chain(n, 16 / n, seed=s) for s in range(trials)]
    length = len(results[0].trajectory)
    for j in range(length):
        vals = np.array([r.trajectory[j][3] for r in results])
        bound = 4 * vals.std(ddof=1) / math.sqrt(trials)
        assert abs(vals.mean()) <= max(bound, 1e-9), f"checkpoint {j}"


def test_greedy_chain_checkpoints_monotone():
    res = dy.run_greedy_chain(64, 0.05, seed=9)
    ls = [l for _, l, _, _ in res.trajectory]
    rs = [r for _, _, r, _ in res.trajectory]
    assert ls == sorted(ls) and rs == sorted(rs)
    assert res.trajectory[-1][0] == 128


# -- cloud tracking ----------------------------------------------------------


def test_clouds_never_deload_under_greedy():
    base = ig.gen_base_bipartite(3, 1, 0.5, seed=21)
    g = ig.gen_bipartite_blowup(base, cloud_size=3, copies=2)
    rec = dy.run_ump(g, GREEDY, 5000, seed=13, recorder=dy.RecorderConfig(track_clouds=True))
    assert rec.deload_final == 0


def test_single_cloud_return_probability_bound():
    # one isolated cloud of 125 vertices at lambda=1: the load leaves 0,
    # and the chance it ever returns is ~1/K, far below 3/K^(1/3)
    K = 125
    g = gc.build_graph(K, [], groups={v: 0 for v in range(K)})
    returns = 0
    trials = 400
    for seed in range(trials):
        rec = dy.run_ump(
            g,
            FugacitySchedule.fixed(1.0),
            5000,
            seed=seed,
            recorder=dy.RecorderConfig(track_clouds=True),
        )
        returns += rec.deload_final > 0
    assert returns / trials <= 3.0 / K ** (1 / 3)


def test_cloud_deload_under_heavy_removal():
    # lambda=1 with a single vertex: the load hits zero immediately after
    # any removal, so deloads are certain over a long run
    g = gc.build_graph(1, [], groups={0: 0})
    rec = dy.run_ump(
        g,
        FugacitySchedule.fixed(1.0),
        1000,
        seed=3,
        recorder=dy.RecorderConfig(track_clouds=True),
    )
    assert rec.deload_final == 1  # counted once per cloud


# -- schedules ---------------------------------------------------------------


def test_parse_schedule_forms(tmp_path):
    assert parse_schedule("fixed:2.5").segment(0) == (2.5, 1 << 62)
    assert parse_schedule("greedy") == FugacitySchedule.fixed(math.inf)
    assert parse_schedule("adaptive:plateau").rule == "plateau"
    geo = parse_schedule("geometric:1:2:100:1e6")
    assert geo.cap == 1e6
    seq_file = tmp_path / "seq.txt"
    seq_file.write_text("1.0\n2.0\n4.0\n")
    seq = parse_schedule(f"seq:{seq_file}")
    assert seq.values == (1.0, 2.0, 4.0)


def test_schedule_segments():
    geo = FugacitySchedule.geometric(1.0, 2.0, 10, cap=8.0)
    lam0, hold0 = geo.segment(0)
    assert lam0 == 1.0 and hold0 == 10
    lam25, hold25 = geo.segment(25)
    assert lam25 == 4.0 and hold25 == 5
    lam99, hold99 = geo.segment(99)
    assert lam99 == 8.0 and hold99 > 10**9
    # an uncapped ladder past the largest float: no removals, for ever
    assert parse_schedule("geometric:1:1e300:1").segment(2) == (math.inf, 1 << 62)
    assert parse_schedule("geometric:1:2:1").segment(1024) == (math.inf, 1 << 62)

    seq = FugacitySchedule.sequence([1.0, 1.0, 3.0])
    assert seq.segment(0) == (1.0, 2)
    lam, hold = seq.segment(2)
    assert lam == 3.0 and hold > 10**9  # held at the last value


def test_milestone_fugacity_stays_capped_for_a_huge_maximum():
    rule = ADAPTIVE_RULES["milestone"]
    assert rule(0, 4096, 0) == rule(0, 10**9, 0) == (1e9, 512)


@pytest.mark.parametrize("spec", ["geometric:1:2:1", "fixed:1.7e308"])
def test_a_huge_fugacity_runs_to_its_budget(spec):
    # past lambda ~ 1e306 (step ~1017 of the ladder), a jump-mode gap overflows a float
    for seed in range(5):
        rec = dy.run_ump(ig.gen_star_tree(5), parse_schedule(spec), 3000, seed=seed)
        assert rec.steps == 3000


def test_schedule_rejects_bad_values():
    with pytest.raises(InvalidFugacity):
        FugacitySchedule.fixed(0.5)
    with pytest.raises(InvalidFugacity):
        FugacitySchedule.sequence([2.0, 0.1])
    with pytest.raises(InvalidFugacity):
        FugacitySchedule.adaptive("missing-rule")


@pytest.mark.parametrize(
    "spec",
    [
        "geometric:1:2", "fixed:abc", "geometric:a:2:3",
        "geometric:1:2:10:0.5", "geometric:1:2:10:nan", "geometric:1:nan:10",
        "geometric:4:2:10:2",
    ],
)
def test_parse_schedule_names_a_malformed_spec(spec):
    with pytest.raises(InvalidFugacity, match=spec):
        parse_schedule(spec)


def test_a_schedule_is_a_ladder_a_sequence_or_a_rule():
    assert [f.name for f in fields(FugacitySchedule)] == [
        "start", "factor", "block", "cap", "values", "rule"
    ]
    for lam in (1.0, 2.5, 1e300, math.inf):
        assert FugacitySchedule.fixed(lam) == FugacitySchedule.geometric(lam, 1, 1, lam)
        assert FugacitySchedule.fixed(lam).segment(10**12) == (lam, 1 << 62)


@pytest.mark.parametrize("lam", ["1", "2.5", "inf"])
def test_fixed_a_one_value_sequence_and_a_one_rung_ladder_run_alike(tmp_path, lam):
    one = tmp_path / "one.txt"
    one.write_text(f"{lam}\n")
    scheds = [parse_schedule(s) for s in (f"fixed:{lam}", f"seq:{one}", f"geometric:{lam}:1:1:{lam}")]
    base = ig.gen_base_bipartite(8, 3, 0.3, seed=5)
    ct = dy.WeightedCTConfig.blowup_implicit(base, 10, events=5000)
    keep = dy.RecorderConfig(keep_final_state=True, thresholds=(3, 6), snapshot_every=500)
    for run in (lambda s: dy.run_ump(base, s, 5000, seed=4, recorder=keep),
                lambda s: dy.run_ct_ump(base, ct, s, 4, recorder=keep)):
        fixed, *others = [run(s) for s in scheds]
        assert fixed.steps == 5000 and all(rec == fixed for rec in others)


def test_a_chain_on_a_graph_with_no_vertices_is_an_error():
    g = gc.build_graph(0, np.zeros((0, 2), dtype=np.int64), labels={}, bipartite=True)
    ct = dy.WeightedCTConfig.blowup_implicit(g, 3, events=10)
    with pytest.raises(ValueError, match="the chain needs a graph with a vertex"):
        dy.run_ump(g, FIX2, 10, seed=1)
    with pytest.raises(ValueError, match="the chain needs a graph with a vertex"):
        dy.run_ct_ump(g, ct, FIX2, 1)
    assert dy.run_randomized_greedy(g, seed=1)[1].max_size == 0
