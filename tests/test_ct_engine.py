"""The rejection-free engine of the weighted continuous-time chain.

``run_ct_ump`` skips the proposals that change nothing (see
``dynamics._simulate_jump``); only a recorder that tracks touched vertices
keeps the one-proposal-at-a-time step engine.  These tests hold the jump
engine to the exact law of the chain (``exact_laws.weighted_law``), to the
step engine's hitting steps, and to the recorder's contract.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from annealbench import dynamics as dy
from annealbench import graph_core as gc
from annealbench import instance_gen as ig
from annealbench.schedules import FugacitySchedule, parse_schedule
from exact_laws import weighted_law

STEP = dy.RecorderConfig(track_touched=True)


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
        rec.final_state, rec.argmax_state,
    )


def test_ct_engine_is_chosen_by_the_recorder():
    assert dy.ct_engine(None) == "jump"
    assert dy.ct_engine(dy.RecorderConfig(keep_final_state=True)) == "jump"
    assert dy.ct_engine(STEP) == "step"
    g = two_class_graph()
    cfg = dy.WeightedCTConfig.for_sides(g, 3.0, 1.0, events=200)
    rec = dy.run_ct_ump(g, cfg, FugacitySchedule.fixed(2.0), seed=1, recorder=STEP)
    assert rec.right_touched is not None
    assert dy.run_ct_ump(g, cfg, FugacitySchedule.fixed(2.0), seed=1).right_touched is None


# -- exact in law ---------------------------------------------------------------

# TV of 10^4 draws from the exact law itself stays below 0.026 in 2*10^4
# resamples for every case (mean 0.009-0.012); a plateau run held at
# lambda = 256 instead of dropping to 1 at step 5120 is 0.36 away.
LAW_TRIALS = 10_000
LAW_TV = 0.03


@pytest.mark.parametrize(
    "spec,steps",
    [("fixed:3", 30), ("geometric:1:2:8:64", 40), ("adaptive:plateau", 5130)],
)
def test_jump_engine_matches_exact_law(spec, steps):
    g = two_class_graph()
    cfg = dy.WeightedCTConfig.for_sides(g, 3.0, 1.0, 4.0, 1.0, events=steps)
    exact = weighted_law(g, cfg.rates, cfg.multipliers, spec, steps)
    sched = parse_schedule(spec)
    rec = dy.RecorderConfig(keep_final_state=True, snapshot_every=steps)
    counts = np.zeros(1 << g.n)
    for seed in range(LAW_TRIALS):
        final = dy.run_ct_ump(g, cfg, sched, seed=seed, recorder=rec).final_state
        counts[sum(1 << v for v in final)] += 1
    tv = 0.5 * float(np.abs(counts / LAW_TRIALS - exact).sum())
    assert tv <= LAW_TV, f"{spec}: TV {tv:.4f} > {LAW_TV}"


def test_exact_law_sees_the_plateau_reheat():
    g = two_class_graph()
    rates, mults = [3.0, 3.0, 1.0, 1.0, 1.0], [4.0, 4.0, 1.0, 1.0, 1.0]
    plateau = weighted_law(g, rates, mults, "adaptive:plateau", 5130)
    held = weighted_law(g, rates, mults, "fixed:256", 5130)
    assert 0.5 * np.abs(plateau - held).sum() > 10 * LAW_TV
    before = weighted_law(g, rates, mults, "adaptive:plateau", 5120)
    np.testing.assert_allclose(before, weighted_law(g, rates, mults, "fixed:256", 5120), atol=1e-12)


def test_jump_hitting_steps_match_step_engine():
    """Two-sample KS test at level 0.001 on the step at which the set
    first reaches size 14 (alpha of the base is 24)."""
    base, cfg = small_blowup(events=200_000)
    sched = FugacitySchedule.fixed(4.0)
    target = 14
    trials = 1500

    def hits(extra: dict, offset: int) -> np.ndarray:
        rec = dy.RecorderConfig(thresholds=(target,), early_stop_size=target, **extra)
        out = [
            dy.run_ct_ump(base, cfg, sched, seed=offset + i, recorder=rec).hitting_steps[target]
            for i in range(trials)
        ]
        return np.sort(out)

    jump = hits({}, 0)
    step = hits({"track_touched": True}, 10**6)
    grid = np.union1d(jump, step)
    ks = np.max(np.abs(
        np.searchsorted(jump, grid, side="right") - np.searchsorted(step, grid, side="right")
    )) / trials
    assert ks <= 1.949 * math.sqrt(2 / trials), f"KS distance {ks:.4f}"


# -- determinism and the recorder -------------------------------------------------


def test_jump_bytes_do_not_depend_on_chunk():
    base, cfg = small_blowup(events=30_000)
    rec = dy.RecorderConfig(
        thresholds=(5, 20), keep_final_state=True, keep_argmax_state=True, probe_step=777,
        probe_vertices=(0, 1, 2), snapshot_every=1000,
    )
    for spec in ("fixed:2", "geometric:1:2:5000", "adaptive:plateau"):
        sched = parse_schedule(spec)
        runs = [
            fields(dy.run_ct_ump(base, cfg, sched, seed=3, recorder=rec, chunk=c))
            for c in (1, 7, dy._CHUNK)
        ]
        assert runs[0] == runs[1] == runs[2], spec


class _Recording:
    """A schedule wrapper that records the step of every segment call."""

    def __init__(self, sched: FugacitySchedule):
        self.sched = sched
        self.calls: list[int] = []

    def segment(self, t, digest=None):
        assert digest.t == t and digest.size == sum(digest.occupied)
        self.calls.append(t)
        return self.sched.segment(t, digest)


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
    jump, step = _Recording(sched), _Recording(sched)
    dy.run_ct_ump(base, cfg, jump, seed=4)
    dy.run_ct_ump(base, cfg, step, seed=4, recorder=STEP)
    assert jump.calls == step.calls


def test_greedy_saturates_then_skips_to_the_budget():
    base, cfg = small_blowup(events=10**12)  # no step engine could run this
    rec = dy.run_ct_ump(
        base, cfg, FugacitySchedule.infinite(), seed=6,
        recorder=dy.RecorderConfig(keep_final_state=True, snapshot_every=10**11),
    )
    assert rec.steps == 10**12
    final = rec.final_state
    assert gc.is_independent(base, final) and len(final) == rec.final_size == rec.max_size
    adj = base.neighbor_lists
    assert all(any(w in final for w in adj[v]) for v in range(base.n) if v not in final)
    assert [s[1] for s in rec.snapshots] == [rec.final_size] * 10


def test_early_stop_one_event_and_no_events():
    base, cfg = small_blowup(events=100_000)
    stop = dy.run_ct_ump(
        base, cfg, FugacitySchedule.fixed(2.0), seed=7,
        recorder=dy.RecorderConfig(early_stop_size=12, keep_argmax_state=True),
    )
    assert stop.max_size == stop.final_size == 12
    assert stop.steps == stop.step_of_max < 100_000
    assert len(stop.argmax_state) == 12

    one_cfg = dy.WeightedCTConfig.blowup_implicit(base, 10, events=1)
    one = dy.run_ct_ump(base, one_cfg, FugacitySchedule.fixed(2.0), seed=7)
    assert (one.steps, one.final_size, one.step_of_max) == (1, 1, 1)  # the empty set has p = 1

    none_cfg = dy.WeightedCTConfig.blowup_implicit(base, 10, horizon=1e-12)  # Poisson(~0) events
    keep = dy.RecorderConfig(keep_final_state=True, keep_argmax_state=True)
    empty = dy.run_ct_ump(base, none_cfg, FugacitySchedule.fixed(2.0), seed=7, recorder=keep)
    assert (empty.steps, empty.max_size, empty.final_left, empty.final_right) == (0, 0, 0, 0)
    assert empty.final_state == empty.argmax_state == frozenset()
    stepped = dy.run_ct_ump(base, none_cfg, FugacitySchedule.fixed(2.0), seed=7, recorder=STEP)
    assert (stepped.steps, stepped.final_left, stepped.right_touched) == (0, 0, 0)


@pytest.mark.parametrize("spec", ["fixed:1", "fixed:16", "adaptive:plateau"])
def test_kept_states_are_independent_and_sides_add_up(spec):
    base, cfg = small_blowup(events=50_000)
    rec = dy.RecorderConfig(keep_final_state=True, keep_argmax_state=True, check_every=997)
    for seed in range(5):
        out = dy.run_ct_ump(base, cfg, parse_schedule(spec), seed=seed, recorder=rec)
        assert gc.is_independent(base, out.final_state)
        assert gc.is_independent(base, out.argmax_state)
        assert len(out.final_state) == out.final_size
        assert len(out.argmax_state) == out.max_size
        sides = base.side[sorted(out.final_state)]
        assert out.final_left == int(np.sum(sides == gc.SIDE_L))
        assert out.final_right == int(np.sum(sides == gc.SIDE_R))
