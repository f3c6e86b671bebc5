"""The one engine of the discrete and the weighted continuous-time chain.

``run_ump`` and ``run_ct_ump`` step every proposal while proposals change
the state and skip, in law, the ones that change nothing when they do not
(jump mode, see ``dynamics._run_chain``); only a recorder that tracks
touched vertices keeps step mode for the whole run.  Every test here runs
both chains: ``ct``, the weighted chain, and ``ump``, the discrete chain on
the same graph with unit weights.  They hold the engine to the exact law of
the chain (``exact_laws.weighted_law``), to step mode's hitting steps, and
to the recorder's contract, and the engine's one- and two-class code to
the any-number-of-classes references in ``reference.py``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from annealbench import dynamics as dy
from annealbench import graph_core as gc
from annealbench import instance_gen as ig
from annealbench.errors import InvalidRate
from annealbench.schedules import FugacitySchedule, parse_schedule
from exact_laws import spider_mid_law, weighted_law
from reference import pick_reference, propose_reference

STEP = dy.RecorderConfig(track_touched=True)
CHAINS = ("ct", "ump")


def run(chain, g, cfg, sched, seed, recorder=None):
    """One run of ``chain`` on ``g``: ``ct`` is the weighted chain of
    ``cfg``, ``ump`` the discrete chain for ``cfg.events`` steps."""
    if chain == "ct":
        return dy.run_ct_ump(g, cfg, sched, seed=seed, recorder=recorder)
    return dy.run_ump(g, sched, cfg.events, seed=seed, recorder=recorder)


def two_class_graph() -> gc.Graph:
    """Five labelled vertices: left {0, 1}, right {2, 3, 4}, a path 2-0-3-1-4."""
    labels = {0: gc.SIDE_L, 1: gc.SIDE_L, 2: gc.SIDE_R, 3: gc.SIDE_R, 4: gc.SIDE_R}
    return gc.build_graph(5, [(0, 2), (0, 3), (1, 3), (1, 4)], labels=labels)


def small_blowup(events: int) -> tuple[gc.Graph, dy.WeightedCTConfig]:
    base = ig.gen_base_bipartite(8, 3, 0.3, seed=5)
    return base, dy.WeightedCTConfig.blowup_implicit(base, 10, events=events)


def fields(rec: dy.TrialRecord) -> tuple:
    return (
        rec.steps, rec.max_size, rec.step_of_max, rec.final_size, rec.hitting_steps,
        rec.snapshots, rec.final_left, rec.final_right, rec.root_added, rec.probe_count,
        rec.final_state,
    )


def test_engine_is_chosen_by_the_recorder():
    assert dy.engine(None) == "jump"
    assert dy.engine(dy.RecorderConfig(keep_final_state=True)) == "jump"
    assert dy.engine(STEP) == "step"
    g = two_class_graph()
    cfg = dy.WeightedCTConfig.for_sides(g, 3.0, 1.0, events=200)
    for chain in CHAINS:
        assert run(chain, g, cfg, FugacitySchedule.fixed(2.0), 1, STEP).right_touched is not None
        assert run(chain, g, cfg, FugacitySchedule.fixed(2.0), 1).right_touched is None


# -- exact in law ---------------------------------------------------------------

# TV of 10^4 draws from the exact law itself stays below 0.028 in 2*10^4
# resamples for every case and chain (mean 0.007-0.014); a plateau run held
# at lambda = 256 instead of dropping to 1 at step 5120 is 0.36 away.
LAW_TRIALS = 10_000
LAW_TV = 0.03
# lambda 1 for 40 steps, 1e6 for 200, then 1 again: every run of either
# chain enters jump mode once the set saturates and leaves it at the drop.
SEQ_LAMBDAS = ["1"] * 40 + ["1e6"] * 200 + ["1"] * 40


@pytest.mark.parametrize(
    "spec,steps",
    [
        ("fixed:3", 30),
        ("geometric:1:2:8:64", 40),
        ("adaptive:plateau", 5130),
        ("fixed:2", 40),
        ("fixed:400", 200),
        ("seq", len(SEQ_LAMBDAS)),
    ],
)
def test_jump_engine_matches_exact_law(spec, steps, tmp_path):
    if spec == "seq":
        path = tmp_path / "seq.txt"
        path.write_text("\n".join(SEQ_LAMBDAS))
        spec = f"seq:{path}"
    g = two_class_graph()
    cfg = dy.WeightedCTConfig.for_sides(g, 3.0, 1.0, 4.0, 1.0, events=steps)
    sched = parse_schedule(spec)
    rec = dy.RecorderConfig(keep_final_state=True, snapshot_every=steps)
    for chain in CHAINS:
        if chain == "ct":
            of = cfg.classes.of
            exact = weighted_law(g, np.take(cfg.classes.rates, of),
                                 np.take(cfg.classes.multipliers, of), spec, steps)
        else:
            exact = weighted_law(g, np.ones(g.n), np.ones(g.n), spec, steps)
        counts = np.zeros(1 << g.n)
        for seed in range(LAW_TRIALS):
            final = run(chain, g, cfg, sched, seed, rec).final_state
            counts[sum(1 << v for v in final)] += 1
        tv = 0.5 * float(np.abs(counts / LAW_TRIALS - exact).sum())
        assert tv <= LAW_TV, f"{chain} {spec}: TV {tv:.4f} > {LAW_TV}"


# The discrete chain on a small star tree at tree_hardness's fixed:20: over
# 2*10^4 proposals more than 90% are skipped in jump mode.  The TV of 2500
# draws from the exact law itself stayed below 0.051 in 2*10^4 resamples, at
# either step.
SPIDER_K = 10
SPIDER_TRIALS = 2500
SPIDER_TV = 0.055


def test_jump_engine_matches_spider_law_at_long_horizon():
    g = ig.gen_star_tree(SPIDER_K)
    mids = frozenset(range(1, SPIDER_K + 1))
    rec = dy.RecorderConfig(keep_final_state=True, probe_step=2000, probe_vertices=tuple(mids))
    probe, final = np.zeros(SPIDER_K + 1), np.zeros(SPIDER_K + 1)
    steps = skipped = 0
    for seed in range(SPIDER_TRIALS):
        out = dy.run_ump(g, FugacitySchedule.fixed(20.0), 20_000, seed, rec)
        probe[out.probe_count] += 1
        final[len(out.final_state & mids)] += 1
        steps += out.steps
        skipped += out.skipped
    assert skipped >= 0.9 * steps
    for at, counts in ((2000, probe), (20_000, final)):
        exact = spider_mid_law(SPIDER_K, FugacitySchedule.fixed(20.0), at)
        tv = 0.5 * float(np.abs(counts / SPIDER_TRIALS - exact).sum())
        assert tv <= SPIDER_TV, f"step {at}: TV {tv:.4f} > {SPIDER_TV}"


def test_exact_law_sees_the_plateau_reheat():
    g = two_class_graph()
    rates, mults = [3.0, 3.0, 1.0, 1.0, 1.0], [4.0, 4.0, 1.0, 1.0, 1.0]
    plateau = weighted_law(g, rates, mults, "adaptive:plateau", 5130)
    held = weighted_law(g, rates, mults, "fixed:256", 5130)
    assert 0.5 * np.abs(plateau - held).sum() > 10 * LAW_TV
    before = weighted_law(g, rates, mults, "adaptive:plateau", 5120)
    np.testing.assert_allclose(before, weighted_law(g, rates, mults, "fixed:256", 5120), atol=1e-12)


# (fugacity, target size) of the hitting-step test.  The discrete chain at
# lambda 4 reaches size 14 in about 50 steps, and only one run in ten
# enters jump mode first; at lambda 64 two runs in three enter jump mode
# before they reach 22.
HIT_CASES = {"ct": (4.0, 14), "ump": (64.0, 22)}


def test_jump_hitting_steps_match_step_engine():
    """Two-sample KS test at level 0.001, for each chain, on the step at
    which the set first reaches a target size (alpha of the base is 24),
    against step mode kept for the whole run."""
    base, cfg = small_blowup(events=200_000)
    trials = 1500

    def hits(chain: str, extra: dict, offset: int) -> np.ndarray:
        lam, target = HIT_CASES[chain]
        sched = FugacitySchedule.fixed(lam)
        rec = dy.RecorderConfig(thresholds=(target,), early_stop_size=target, **extra)
        out = [
            run(chain, base, cfg, sched, offset + i, rec).hitting_steps[target]
            for i in range(trials)
        ]
        return np.sort(out)

    for chain in CHAINS:
        jump = hits(chain, {}, 0)
        step = hits(chain, {"track_touched": True}, 10**6)
        grid = np.union1d(jump, step)
        ks = np.max(np.abs(
            np.searchsorted(jump, grid, side="right") - np.searchsorted(step, grid, side="right")
        )) / trials
        assert ks <= 1.949 * math.sqrt(2 / trials), f"{chain}: KS distance {ks:.4f}"


# -- determinism and the recorder -------------------------------------------------


def test_jump_bytes_do_not_depend_on_chunk(monkeypatch):
    """The engine draws its reals in blocks of up to ``dy._CHUNK``; the
    ``ump`` runs here reach a block of 2**14, past 2**13 and under 2**15."""
    chunks = (1, 7, dy._CHUNK, 1 << 15)
    base, cfg = small_blowup(events=30_000)
    rec = dy.RecorderConfig(
        thresholds=(5, 20), keep_final_state=True, probe_step=777,
        probe_vertices=(0, 1, 2), snapshot_every=1000,
    )
    for chain in CHAINS:
        for spec in ("fixed:2", "geometric:1:2:5000", "adaptive:plateau"):
            sched = parse_schedule(spec)
            runs = []
            for chunk in chunks:
                monkeypatch.setattr(dy, "_CHUNK", chunk)
                runs.append(fields(run(chain, base, cfg, sched, 3, rec)))
            assert runs[0] == runs[1] == runs[2] == runs[3], (chain, spec)


def test_jump_run_counts_its_events_and_skips():
    """Every state change moves the size by one, so a snapshot after every
    step sees each event; proposals are stepped, skipped or events."""
    base, cfg = small_blowup(events=30_000)
    rec = dy.RecorderConfig(snapshot_every=1)
    for chain in CHAINS:
        for spec in ("fixed:2", "fixed:400", "geometric:1:2:5000", "adaptive:plateau"):
            out = run(chain, base, cfg, parse_schedule(spec), 3, rec)
            sizes = [0] + [snap[1] for snap in out.snapshots]
            assert out.events == sum(abs(b - a) for a, b in zip(sizes, sizes[1:])), (chain, spec)
            assert out.events + out.skipped <= out.steps, (chain, spec)
            assert out.skipped > 0 or spec == "fixed:2", (chain, spec)


def test_bytes_do_not_depend_on_recorder_marks():
    """A pending jump-mode change survives snapshot, probe and check marks:
    a run's trajectory is the same whether the recorder looks at it every
    step or rarely."""
    base, cfg = small_blowup(events=30_000)
    rare = dy.RecorderConfig(thresholds=(5, 20), keep_final_state=True)
    often = replace(rare, snapshot_every=1, probe_step=777, probe_vertices=(0, 1), check_every=13)
    for chain in CHAINS:
        for spec in ("fixed:2", "fixed:400", "geometric:1:2:5000", "adaptive:plateau"):
            a, b = (fields(run(chain, base, cfg, parse_schedule(spec), 3, r)) for r in (rare, often))
            # all but the snapshots and the probe count
            assert a[:5] + a[6:9] + a[10:] == b[:5] + b[6:9] + b[10:], (chain, spec)


class _Recording:
    """A schedule wrapper that records the step of every segment call."""

    def __init__(self, sched: FugacitySchedule):
        self.sched = sched
        self.calls: list[int] = []

    def segment(self, t, max_size=0, step_of_max=0):
        assert 0 <= step_of_max <= t
        self.calls.append(t)
        return self.sched.segment(t, max_size, step_of_max)


@pytest.mark.parametrize(
    "sched",
    [
        FugacitySchedule.sequence([1.0] * 50 + [4.0] * 50 + [2.0]),
        FugacitySchedule.geometric(1.0, 2.0, 300, cap=64.0),
        FugacitySchedule.adaptive("plateau"),
    ],
)
def test_jump_calls_segment_where_the_step_engine_does(sched):
    base, cfg = small_blowup(events=6_000)
    for chain in CHAINS:
        jump, step = _Recording(sched), _Recording(sched)
        run(chain, base, cfg, jump, 4)
        run(chain, base, cfg, step, 4, STEP)
        assert jump.calls == step.calls, chain


def test_greedy_saturates_then_skips_to_the_budget():
    base, cfg = small_blowup(events=10**12)  # no stepping could run this
    keep = dy.RecorderConfig(keep_final_state=True, snapshot_every=10**11)
    adj = base.neighbor_lists
    for chain in CHAINS:
        rec = run(chain, base, cfg, FugacitySchedule.fixed(math.inf), 6, keep)
        assert rec.steps == 10**12
        final = rec.final_state
        assert gc.is_independent(base, final) and len(final) == rec.final_size == rec.max_size
        assert all(any(w in final for w in adj[v]) for v in range(base.n) if v not in final)
        assert [s[1] for s in rec.snapshots] == [rec.final_size] * 10


def test_early_stop_one_event_and_no_events():
    base, cfg = small_blowup(events=100_000)
    one_cfg = dy.WeightedCTConfig.blowup_implicit(base, 10, events=1)
    early = dy.RecorderConfig(early_stop_size=12, keep_final_state=True)
    for chain in CHAINS:
        stop = run(chain, base, cfg, FugacitySchedule.fixed(2.0), 7, early)
        assert stop.max_size == stop.final_size == 12
        assert stop.steps == stop.step_of_max < 100_000
        assert len(stop.final_state) == 12 and gc.is_independent(base, stop.final_state)

        one = run(chain, base, one_cfg, FugacitySchedule.fixed(2.0), 7)
        assert (one.steps, one.final_size, one.step_of_max) == (1, 1, 1)  # the empty set has p = 1

    # no events: the continuous-time chain only (run_ump needs steps >= 1)

    none_cfg = dy.WeightedCTConfig.blowup_implicit(base, 10, horizon=1e-12)  # Poisson(~0) events
    keep = dy.RecorderConfig(keep_final_state=True)
    empty = dy.run_ct_ump(base, none_cfg, FugacitySchedule.fixed(2.0), seed=7, recorder=keep)
    assert (empty.steps, empty.max_size, empty.final_left, empty.final_right) == (0, 0, 0, 0)
    assert empty.final_state == frozenset()
    stepped = dy.run_ct_ump(base, none_cfg, FugacitySchedule.fixed(2.0), seed=7, recorder=STEP)
    assert (stepped.steps, stepped.final_left, stepped.right_touched) == (0, 0, 0)


@pytest.mark.parametrize("spec", ["fixed:1", "fixed:16", "adaptive:plateau"])
def test_kept_states_are_independent_and_sides_add_up(spec):
    """The final state is independent and matches the size and side counts;
    per-step snapshots see the maximum at ``step_of_max`` first, and their
    side counts add up to the size."""
    base, cfg = small_blowup(events=50_000)
    rec = dy.RecorderConfig(keep_final_state=True, snapshot_every=1, check_every=997)
    for chain, seed in itertools.product(CHAINS, range(5)):
        out = run(chain, base, cfg, parse_schedule(spec), seed, rec)
        assert gc.is_independent(base, out.final_state)
        assert len(out.final_state) == out.final_size
        assert max(size for _, size, _, _ in out.snapshots) == out.max_size
        assert next(t for t, size, _, _ in out.snapshots if size == out.max_size) == out.step_of_max
        assert all(size == left + right for _, size, left, right in out.snapshots)
        sides = base.side[sorted(out.final_state)]
        assert out.final_left == int(np.sum(sides == gc.SIDE_L))
        assert out.final_right == int(np.sum(sides == gc.SIDE_R))


# -- at most two rate classes, held to the any-class references ---------------------

RATES = st.floats(0.05, 20.0)
# x in [0, total): a fraction of the total, a share boundary, the float just
# below the total, or the total itself (past every share: the rounding fallback)
X_SPECS = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True).map(lambda f: ("frac", f)),
    st.sampled_from([("edge", 1), ("edge", 2), ("edge", 3), ("below", 0), ("total", 0)]),
)


@settings(max_examples=200, deadline=None)
@given(
    lens=st.tuples(*[st.integers(0, 5)] * 4),
    weights=st.tuples(RATES, RATES, st.just(0.0) | RATES, st.just(0.0) | RATES),
    x_spec=X_SPECS,
)
# rounding carries the float just below the total past every share
@example((4, 2, 4, 4), (1.9002506185491295, 8.946358212171585, 0.21084188322119127,
                        1.0658504146223948), ("below", 0))
# the index rounds up to the length of its list
@example((1, 2, 3, 1), (1.1, 0.1, 0.15714285714285717, 0.06666666666666667), ("edge", 3))
def test_two_class_pick_matches_the_any_class_loop(lens, weights, x_spec):
    lists = [[10 * k + j for j in range(n)] for k, n in enumerate(lens)]
    shares = [w * n for w, n in zip(weights, lens)]
    total = shares[0] + shares[1] + shares[2] + shares[3]
    if not total:  # the engine draws no change then
        return
    kind, arg = x_spec
    if kind == "frac":
        x = arg * total
    elif kind == "edge":
        x = sum(shares[:arg])
    else:
        x = math.nextafter(total, 0) if kind == "below" else total
    members, i = dy._pick_two(x, *shares, lists, list(weights))
    ref_members, ref_i = pick_reference(x, lists, list(weights))
    assert members is ref_members and i == ref_i


def two_classes(side: list[bool], rates, mults) -> dy.RateClasses:
    """The classes of a weighted chain whose vertex v is on the right if side[v],
    where the left side has rates[0] and mults[0] and the right rates[1] and mults[1]."""
    labels = {v: gc.SIDE_R if right else gc.SIDE_L for v, right in enumerate(side)}
    g = gc.build_graph(len(side), [], labels=labels)
    return dy.WeightedCTConfig.for_sides(g, *rates, *mults, events=1).classes


@settings(max_examples=150, deadline=None)
@given(
    side=st.lists(st.booleans(), min_size=2, max_size=24).filter(lambda s: 0 < sum(s) < len(s)),
    rates=st.tuples(RATES, RATES),
    mults=st.tuples(st.floats(1.0, 50.0), st.floats(1.0, 50.0)),
    reals=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40),
)
def test_two_class_propose_matches_the_searchsorted_reference(side, rates, mults, reals):
    classes = two_classes(side, rates, mults)
    if len(classes.counts) == 1:  # equal (rate, multiplier): one class
        return
    b0, b1, _ = classes._bounds
    # u on the boundary between the classes, either side of it, 0 and the last real below 1
    edge = b0 / b1
    u = np.array(reals + [0.0, edge, math.nextafter(edge, 0), math.nextafter(edge, 1),
                          math.nextafter(1.0, 0)])
    v, v_list, coins = classes.propose(u)
    ref_v, ref_coins = propose_reference(classes, u)
    assert v.tolist() == v_list == ref_v.tolist()
    assert coins == ref_coins


@pytest.mark.parametrize("built, run_on", [(16, 32), (32, 16)])
def test_a_config_for_another_graph_is_rejected(built, run_on):
    bases = {4 * n: ig.gen_base_bipartite(n, 3, 0.3, seed=5) for n in (4, 8)}
    cfg = dy.WeightedCTConfig.blowup_implicit(bases[built], 10, events=100)
    with pytest.raises(InvalidRate, match=f"config covers {built} vertices, graph has {run_on}"):
        dy.run_ct_ump(bases[run_on], cfg, FugacitySchedule.fixed(2.0), seed=1)


@pytest.mark.parametrize("factor", [2.0, 1e280])
def test_a_horizon_past_the_poisson_range_is_rejected(factor):
    """numpy draws no Poisson count past about 9.2e18, so a horizon whose
    mean event count reaches 2**62 is an error when the config is made."""
    base = ig.gen_base_bipartite(8, 3, 0.3, seed=5)
    total = dy.WeightedCTConfig.blowup_implicit(base, 10, events=1).classes.total_rate
    with pytest.raises(InvalidRate, match="2\\^62 or more"):
        dy.WeightedCTConfig.blowup_implicit(base, 10, horizon=factor * 2.0**62 / total)
    dy.WeightedCTConfig.blowup_implicit(base, 10, horizon=0.5 * 2.0**62 / total)
