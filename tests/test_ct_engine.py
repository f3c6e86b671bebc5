"""The one engine of the discrete and the weighted continuous-time chain.

``run_ump`` and ``run_ct_ump`` step every proposal while proposals change
the state and skip, in law, the ones that change nothing when they do not
(jump mode, see ``dynamics._run_chain``); only a recorder that tracks
touched vertices keeps step mode for the whole run.  Every test here runs
both chains: ``ct``, the weighted chain, and ``ump``, the discrete chain on
the same graph with unit weights.  They hold the engine to the exact law of
the chain (``exact_laws.weighted_law``), to step mode's hitting steps, and
to the recorder's contract.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from annealbench import dynamics as dy
from annealbench import graph_core as gc
from annealbench import instance_gen as ig
from annealbench.schedules import FugacitySchedule, parse_schedule
from exact_laws import weighted_law

STEP = dy.RecorderConfig(track_touched=True)
CHAINS = ("ct", "ump")


def run(chain, g, cfg, sched, seed, recorder=None, chunk=dy._CHUNK):
    """One run of ``chain`` on ``g``: ``ct`` is the weighted chain of
    ``cfg``, ``ump`` the discrete chain for ``cfg.events`` steps."""
    if chain == "ct":
        return dy.run_ct_ump(g, cfg, sched, seed=seed, recorder=recorder, chunk=chunk)
    return dy.run_ump(g, sched, cfg.events, seed=seed, recorder=recorder, chunk=chunk)


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
            exact = weighted_law(g, cfg.rates, cfg.multipliers, spec, steps)
        else:
            exact = weighted_law(g, np.ones(g.n), np.ones(g.n), spec, steps)
        counts = np.zeros(1 << g.n)
        for seed in range(LAW_TRIALS):
            final = run(chain, g, cfg, sched, seed, rec).final_state
            counts[sum(1 << v for v in final)] += 1
        tv = 0.5 * float(np.abs(counts / LAW_TRIALS - exact).sum())
        assert tv <= LAW_TV, f"{chain} {spec}: TV {tv:.4f} > {LAW_TV}"


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


def test_jump_bytes_do_not_depend_on_chunk():
    base, cfg = small_blowup(events=30_000)
    rec = dy.RecorderConfig(
        thresholds=(5, 20), keep_final_state=True, keep_argmax_state=True, probe_step=777,
        probe_vertices=(0, 1, 2), snapshot_every=1000,
    )
    for chain in CHAINS:
        for spec in ("fixed:2", "geometric:1:2:5000", "adaptive:plateau"):
            sched = parse_schedule(spec)
            runs = [fields(run(chain, base, cfg, sched, 3, rec, c)) for c in (1, 7, dy._CHUNK)]
            assert runs[0] == runs[1] == runs[2], (chain, spec)


def test_bytes_do_not_depend_on_recorder_marks():
    """A pending jump-mode change survives snapshot, probe and check marks:
    a run's trajectory is the same whether the recorder looks at it every
    step or rarely."""
    base, cfg = small_blowup(events=30_000)
    rare = dy.RecorderConfig(thresholds=(5, 20), keep_final_state=True, keep_argmax_state=True)
    often = replace(rare, snapshot_every=1, probe_step=777, probe_vertices=(0, 1), check_every=13)
    for chain in CHAINS:
        for spec in ("fixed:2", "fixed:400", "geometric:1:2:5000", "adaptive:plateau"):
            a, b = (fields(run(chain, base, cfg, parse_schedule(spec), 3, r)) for r in (rare, often))
            assert a[:5] + a[-2:] == b[:5] + b[-2:], (chain, spec)


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
        rec = run(chain, base, cfg, FugacitySchedule.infinite(), 6, keep)
        assert rec.steps == 10**12
        final = rec.final_state
        assert gc.is_independent(base, final) and len(final) == rec.final_size == rec.max_size
        assert all(any(w in final for w in adj[v]) for v in range(base.n) if v not in final)
        assert [s[1] for s in rec.snapshots] == [rec.final_size] * 10


def test_early_stop_one_event_and_no_events():
    base, cfg = small_blowup(events=100_000)
    one_cfg = dy.WeightedCTConfig.blowup_implicit(base, 10, events=1)
    early = dy.RecorderConfig(early_stop_size=12, keep_argmax_state=True)
    for chain in CHAINS:
        stop = run(chain, base, cfg, FugacitySchedule.fixed(2.0), 7, early)
        assert stop.max_size == stop.final_size == 12
        assert stop.steps == stop.step_of_max < 100_000
        assert len(stop.argmax_state) == 12

        one = run(chain, base, one_cfg, FugacitySchedule.fixed(2.0), 7)
        assert (one.steps, one.final_size, one.step_of_max) == (1, 1, 1)  # the empty set has p = 1

    # no events: the continuous-time chain only (run_ump needs steps >= 1)

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
    for chain, seed in itertools.product(CHAINS, range(5)):
        out = run(chain, base, cfg, parse_schedule(spec), seed, rec)
        assert gc.is_independent(base, out.final_state)
        assert gc.is_independent(base, out.argmax_state)
        assert len(out.final_state) == out.final_size
        assert len(out.argmax_state) == out.max_size
        sides = base.side[sorted(out.final_state)]
        assert out.final_left == int(np.sum(sides == gc.SIDE_L))
        assert out.final_right == int(np.sum(sides == gc.SIDE_R))
