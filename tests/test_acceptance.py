"""End-to-end acceptance suite.

One test (or a pair) per criterion, each printing a [PASS]/[FAIL] line with
the observed statistic, the pinned target, and the wall time.  Stated
runtime budgets assume an 8-core machine; they are scaled by 8/cpu_count
on smaller boxes.

Two chain gates are judged against the exact law of their chain
(``exact_laws.py``), since the chain from the empty set cannot meet a
0.90 target there:

* criterion 4, early-mid-occupancy clause: the exact law of the spider
  chain gives P(step-11 mid count >= 5) = 0.7046 / 0.7084 / 0.7088 /
  0.7005 for the four schedules, p* = 0.7056 pooled (mean count 5.40);
  a correct chain passes frac >= 0.90 over 200 trials with probability
  2.9e-11.  The gate is the one-sided bound floor(100*(p* - 3.29*se))/100
  = 0.59, and the test also asks that p* lie in the z = 3.29 Wilson
  interval of the observed count and that the mean count lie within 3.29
  exact standard errors of the exact mean;
* criterion 7, chain clause: the run reaches the block within 52983 steps
  with exact probability p* = 0.49876, essentially the chance (200/401)
  that the first add lands in the block.  Once it lands on the clique, the
  hub joins within ~2n+1 = 401 steps, and an escape needs the clique
  vertex and the hub gone at the same time (mean ~1.3e12 steps).  A
  correct chain passes frac >= 0.90 over 100 trials with probability
  1.3e-17; the gate is the one-sided bound 0.33, and p* must lie in the
  z = 3.29 Wilson interval of the observed count.

One check is implemented exactly as specified although its configured step
budget is too small, and reports FAIL honestly:

* criterion 8, chain clause: a unit stuck on its clique moves to its block
  at ~5.9e-9 per step (1/4608 * 1/4096 * 8/72).  After 1e7 steps the exact
  per-unit law, ``multicopy_unit_law(64, 8, 4096, 10**7)``, puts 10.4 of
  the 64 units on their block in expectation (mean final size 136.5),
  against the 57 the gate needs; the test computes these figures from it.
  Treating units as independent, the gate is met in 90% of trials only at
  ~4.2e8 steps, about 42x the budget.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from annealbench import dynamics as dy
from annealbench import graph_core as gc
from annealbench import harness as hz
from annealbench import instance_gen as ig
from annealbench import oracles as oc
from annealbench import rng as rngmod
from annealbench.schedules import FugacitySchedule, parse_schedule
from exact_laws import (
    anchor_law,
    hardcore_distribution,
    multicopy_unit_law,
    one_sided_gate,
    spider_mid_law,
    weighted_law,
)
from reference import coupling_instance, phi_project

pytestmark = pytest.mark.acceptance

BUDGET_SCALE = max(1.0, 8.0 / (os.cpu_count() or 1))
GATE_Z = 3.29  # one-sided tail 5e-4 for the gates derived from exact laws


def _tv(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def _report(criterion: str, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}: {detail} ({elapsed:.1f}s)")


def _check_budget(criterion: str, elapsed: float, budget_s: float) -> None:
    limit = budget_s * BUDGET_SCALE
    assert elapsed <= limit, f"{criterion} took {elapsed:.1f}s > {limit:.0f}s"


def _bundled_config(name: str, out_dir: Path) -> hz.ExperimentConfig:
    import importlib.resources as res

    text = (res.files("annealbench") / "configs" / name).read_text()
    return replace(hz.loads_config(text), out_dir=str(out_dir))


@pytest.fixture(scope="session")
def outroot(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def _run_config(name: str, outroot: Path):
    cfg = _bundled_config(name, outroot / name.replace(".cfg", ""))
    start = time.time()
    manifest = hz.run_experiment(cfg)
    return cfg, manifest, time.time() - start


# -- criterion 1: stationary distribution on the 3-path ----------------------

# The engine itself is held to the hard-core law: the final states of
# STATIONARY_TRIALS default-mode runs of STATIONARY_T proposals each.  At that
# horizon the exact law of the chain from the empty set is within 4.4e-5 TV of
# the stationary law (asserted below), and the TV of 2*10^4 multinomial draws
# from the stationary law itself stayed below 0.017 in 2*10^4 resamples
# (mean 0.005).
STATIONARY_TRIALS = 20_000
STATIONARY_T = 60


def test_criterion_1_stationary_distribution():
    g = gc.build_graph(3, [(0, 1), (1, 2)])
    lam = 2.0
    exact = hardcore_distribution(g, lam)  # weights (1,2,2,2,4)/11
    at_t = weighted_law(g, np.ones(g.n), np.ones(g.n), f"fixed:{lam:g}", STATIONARY_T)
    assert 0.5 * float(np.abs(at_t - exact).sum()) <= 1e-4
    sched = FugacitySchedule.fixed(lam)
    keep = dy.RecorderConfig(keep_final_state=True)
    start = time.time()
    counts = np.zeros(1 << g.n)
    skipped = 0
    for i in range(STATIONARY_TRIALS):
        rec = dy.run_ump(g, sched, STATIONARY_T, seed=rngmod.stream_id(11, i), recorder=keep)
        counts[sum(1 << v for v in rec.final_state)] += 1
        skipped += rec.skipped
    elapsed = time.time() - start
    tv = 0.5 * float(np.abs(counts / STATIONARY_TRIALS - exact).sum())
    ok = tv <= 0.02
    share = skipped / (STATIONARY_TRIALS * STATIONARY_T)
    _report(
        "criterion 1 (stationary law, 3-path)",
        ok,
        f"TV={tv:.4f} target<=0.02 over {STATIONARY_TRIALS} runs, {share:.1%} skipped",
        elapsed,
    )
    _check_budget("criterion 1", elapsed, 5.0)
    assert skipped > 0, "no run entered jump mode"
    assert ok


# -- criterion 2: blowup projection matches the weighted chain ---------------


def test_criterion_2_projection_equivalence():
    params = ig.BlowupParams(n=2, k=1, ell=3, p=0.5, seed=0)
    labels = {0: gc.SIDE_L, 1: gc.SIDE_L, 2: gc.SIDE_R, 3: gc.SIDE_R}
    base = gc.build_graph(4, [(0, 2)], labels=labels, bipartite=True)
    blowup = ig.gen_clique_blowup(params, base=base)
    lam = 2.0
    horizon = 1.0
    mean_steps = (params.k + params.ell) * params.n * horizon  # 8
    trials = 100_000
    sched = FugacitySchedule.fixed(lam)
    keep = dy.RecorderConfig(keep_final_state=True)

    start = time.time()
    count_gen = rngmod.stream(424242, rngmod.DOMAIN_TEST, 0)
    steps_per_trial = count_gen.poisson(mean_steps, trials)
    proj_counts: Counter = Counter()
    ct_counts: Counter = Counter()
    cfg = dy.WeightedCTConfig.blowup_implicit(base, params.ell, horizon=horizon)
    for i in range(trials):
        t_disc = int(steps_per_trial[i])
        if t_disc == 0:
            final = frozenset()
        else:
            rec = dy.run_ump(
                blowup, sched, t_disc, seed=rngmod.stream_id(1, i), recorder=keep
            )
            final = rec.final_state
        proj_counts[phi_project(final, params)] += 1
        rec_ct = dy.run_ct_ump(
            base, cfg, sched, seed=rngmod.stream_id(2, i), recorder=keep
        )
        ct_counts[rec_ct.final_state] += 1
    elapsed = time.time() - start
    tv = _tv(
        {k: v / trials for k, v in proj_counts.items()},
        {k: v / trials for k, v in ct_counts.items()},
    )
    ok = tv <= 0.02
    _report(
        "criterion 2 (projected blowup vs weighted chain)",
        ok,
        f"TV={tv:.4f} target<=0.02 over {trials} paired trials",
        elapsed,
    )
    _check_budget("criterion 2", elapsed, 60.0)
    assert ok


# -- criterion 3: blowup hardness sweep ---------------------------------------


@pytest.fixture(scope="session")
def blowup_run(outroot):
    return _run_config("blowup_hardness.cfg", outroot)


def test_criterion_3_blowup_hardness(blowup_run):
    cfg, manifest, elapsed = blowup_run
    assert len(manifest.rows) >= 100
    assert {r["schedule"] for r in manifest.rows} == set(cfg.schedules)
    report = hz.verdict(cfg, manifest.rows)
    row = report.rows[0]
    detail = (
        f"frac(max<=1500)={row.observed:.4f} target>=0.95, alpha>=5000, "
        f"{len(manifest.rows)} trials x 1e7 events"
    )
    _report("criterion 3 (blowup hardness sweep)", row.passed, detail, elapsed)
    _check_budget("criterion 3", elapsed, 1800.0)
    assert row.passed
    worst = max(int(r["max_size"]) for r in manifest.rows)
    assert worst <= 1500, f"worst trial reached {worst}"


# -- criterion 4: spider-tree hardness ----------------------------------------


@pytest.fixture(scope="session")
def tree_run(outroot):
    return _run_config("tree_hardness.cfg", outroot)


def test_criterion_4_root_stays_blocked(tree_run):
    cfg, manifest, elapsed = tree_run
    assert len(manifest.rows) == 200
    report = hz.verdict(cfg, manifest.rows)
    row = next(r for r in report.rows if r.check == "root_rare")
    _report(
        "criterion 4a (root never added)",
        row.passed,
        f"frac(root added)={row.observed:.4f} target<=0.05",
        elapsed,
    )
    _check_budget("criterion 4", elapsed, 600.0)
    assert row.passed


def test_criterion_4_early_mid_occupancy(tree_run):
    cfg, manifest, elapsed = tree_run
    report = hz.verdict(cfg, manifest.rows)
    row = next(r for r in report.rows if r.check == "early_mids")
    x = float(dict(cfg.acceptance)["early_mids"].split()[1])
    k = int(cfg.instance["k"])
    laws = [spider_mid_law(k, parse_schedule(spec), cfg.probe_step) for spec in cfg.schedules]
    counts = np.arange(len(laws[0]))
    p_star = float(np.mean([law[counts >= x].sum() for law in laws]))
    means = [float(counts @ law) for law in laws]
    variances = [float(counts**2 @ law) - m * m for law, m in zip(laws, means)]
    mean = float(np.mean(means))
    total = len(manifest.rows)
    se = math.sqrt(sum(cfg.trials * v for v in variances)) / total
    probes = [int(r["probe_count"]) for r in manifest.rows]
    successes = sum(c >= x for c in probes)
    mean_obs = sum(probes) / total
    lo, hi = oc.wilson_interval(successes, total, z=GATE_Z)
    gate = one_sided_gate(p_star, total, GATE_Z)
    ok = (
        row.passed
        and row.target == gate
        and lo <= p_star <= hi
        and abs(mean_obs - mean) <= GATE_Z * se
    )
    _report(
        "criterion 4b (mid-vertex count after 11 steps)",
        ok,
        f"frac(count>={x:g})={row.observed:.4f} target>={row.target:.2f} "
        f"(exact p*={p_star:.4f}, Wilson [{lo:.3f},{hi:.3f}]); mean count "
        f"{mean_obs:.2f} vs exact {mean:.2f} +- {GATE_Z * se:.2f}",
        elapsed,
    )
    assert row.target == gate, (
        f"gate {row.target} is not the bound {gate} derived from exact p*={p_star:.4f}"
    )
    assert lo <= p_star <= hi, (
        f"exact p*={p_star:.4f} outside the z={GATE_Z} Wilson interval "
        f"[{lo:.4f},{hi:.4f}] of {successes}/{total}"
    )
    assert abs(mean_obs - mean) <= GATE_Z * se, (
        f"mean probe count {mean_obs:.3f} is more than {GATE_Z} standard errors "
        f"({se:.3f}) from the exact mean {mean:.3f}"
    )
    assert row.interval == oc.wilson_interval(successes, total), (
        f"verdict interval {row.interval} is not the 95% Wilson interval of {successes}/{total}"
    )
    assert row.passed, f"frac {row.observed:.4f} below the gate {row.target}"


# -- criterion 5: forest approximation ----------------------------------------


@pytest.fixture(scope="session")
def tree_approx_run(outroot):
    return _run_config("tree_approx.cfg", outroot)


def test_criterion_5_tree_approximation(tree_approx_run):
    cfg, manifest, elapsed = tree_approx_run
    forest = ig.family("hard-tree")
    alpha = forest.build(forest.parse({"k": 50, "copies": 20}), 0).alpha()
    assert alpha == 1020
    n_vertices = 20 * 101 + 1
    lam = 4.0 ** (1 / 0.2 + math.log2(n_vertices) / (0.2 * n_vertices))
    assert float(cfg.schedules[0].split(":")[1]) == pytest.approx(lam)
    report = hz.verdict(cfg, manifest.rows)
    row = report.rows[0]
    _report(
        "criterion 5 (forest approximation)",
        row.passed,
        f"frac(max>=0.8*alpha=816)={row.observed:.4f} target>=0.90 "
        f"at lambda={lam:.1f} within 1e8 steps",
        elapsed,
    )
    _check_budget("criterion 5", elapsed, 1200.0)
    assert row.passed


# -- criterion 6: randomized greedy on balanced bipartite ----------------------


@pytest.fixture(scope="session")
def bipartite_greedy_run(outroot):
    return _run_config("bipartite_greedy.cfg", outroot)


@pytest.fixture(scope="session")
def bipartite_chain_run(outroot):
    return _run_config("bipartite_chain.cfg", outroot)


def test_criterion_6_greedy_ratio(bipartite_greedy_run):
    cfg, manifest, elapsed = bipartite_greedy_run
    report = hz.verdict(cfg, manifest.rows)
    row = report.rows[0]
    target = 4.5 * math.log(16) / 16
    _report(
        "criterion 6a (greedy ratio vs matching alpha)",
        row.passed,
        f"mean ratio={row.observed:.4f} target<={target:.4f} over 500 trials",
        elapsed,
    )
    _check_budget("criterion 6a", elapsed, 600.0)
    assert row.passed


def test_criterion_6_side_discrepancy(bipartite_chain_run):
    cfg, manifest, elapsed = bipartite_chain_run
    report = hz.verdict(cfg, manifest.rows)
    row = report.rows[0]
    _report(
        "criterion 6b (side discrepancy)",
        row.passed,
        f"frac(|L-R| > n^0.9={5000**0.9:.0f})={row.observed:.4f} target<=0.01",
        elapsed,
    )
    _check_budget("criterion 6b", elapsed, 600.0)
    assert row.passed


# -- criterion 7: hub-block-clique separation ---------------------------------


def test_criterion_7_degree_greedy_returns_two():
    start = time.time()
    g = ig.gen_appendix_anchor(200)
    outs = {len(dy.run_degree_greedy(g)) for _ in range(5)}
    elapsed = time.time() - start
    ok = outs == {2}
    _report(
        "criterion 7a (min-degree greedy)",
        ok,
        f"returned sizes {sorted(outs)} target exactly 2 in 100% of runs",
        elapsed,
    )
    assert ok


@pytest.fixture(scope="session")
def anchor_run(outroot):
    return _run_config("anchor_separation.cfg", outroot)


def test_criterion_7_chain_reaches_block(anchor_run):
    cfg, manifest, elapsed = anchor_run
    report = hz.verdict(cfg, manifest.rows)
    row = report.rows[0]
    n = int(cfg.instance["n"])
    (spec,) = cfg.schedules
    lam = parse_schedule(spec).segment(0)[0]
    p_star = float(anchor_law(n, lam, cfg.steps)[n])
    total = len(manifest.rows)
    successes = sum(int(r["max_size"]) >= n for r in manifest.rows)
    lo, hi = oc.wilson_interval(successes, total, z=GATE_Z)
    gate = one_sided_gate(p_star, total, GATE_Z)
    _report(
        "criterion 7b (chain reaches the block)",
        row.passed and row.target == gate and lo <= p_star <= hi,
        f"frac(max>={n} within {cfg.steps} steps)={row.observed:.4f} "
        f"target>={row.target:.2f} (exact p*={p_star:.5f}, "
        f"Wilson [{lo:.3f},{hi:.3f}])",
        elapsed,
    )
    _check_budget("criterion 7", elapsed, 300.0)
    assert row.target == gate, (
        f"gate {row.target} is not the bound {gate} derived from exact p*={p_star:.5f}"
    )
    assert lo <= p_star <= hi, (
        f"exact p*={p_star:.5f} outside the z={GATE_Z} Wilson interval "
        f"[{lo:.4f},{hi:.4f}] of {successes}/{total}"
    )
    assert row.interval == oc.wilson_interval(successes, total), (
        f"verdict interval {row.interval} is not the 95% Wilson interval of {successes}/{total}"
    )
    assert row.passed, f"frac {row.observed:.4f} below the gate {row.target}"


# -- criterion 8: block-plus-clique units --------------------------------------


@pytest.fixture(scope="session")
def multicopy_greedy_run(outroot):
    return _run_config("multicopy_greedy.cfg", outroot)


@pytest.fixture(scope="session")
def multicopy_mp_run(outroot):
    return _run_config("multicopy_mp.cfg", outroot)


def test_criterion_8_greedy_stays_small(multicopy_greedy_run):
    cfg, manifest, elapsed = multicopy_greedy_run
    report = hz.verdict(cfg, manifest.rows)
    per_trial = next(r for r in report.rows if r.kind == "frac_max_le")
    mean_row = next(r for r in report.rows if r.kind == "mean_max_le")
    _report(
        "criterion 8a (randomized greedy small)",
        per_trial.passed and mean_row.passed,
        f"frac(size<=144)={per_trial.observed:.4f} target>=0.95; "
        f"mean={mean_row.observed:.2f} target<=144",
        elapsed,
    )
    _check_budget("criterion 8a", elapsed, 900.0)
    assert mean_row.passed
    assert per_trial.passed, (
        "per-trial exceedance probability is ~0.048 against a 0.05 allowance; "
        f"this seed observed {per_trial.observed:.4f}"
    )


def test_criterion_8_chain_reaches_most_blocks(multicopy_mp_run):
    cfg, manifest, elapsed = multicopy_mp_run
    report = hz.verdict(cfg, manifest.rows)
    row = report.rows[0]
    best = max(int(r["max_size"]) for r in manifest.rows)
    n = int(cfg.instance["n"])
    s = ig.multicopy_block_size(n, float(cfg.instance["eps"]))
    size = int(dict(cfg.acceptance)["reach"].split()[1])
    need = math.ceil((size - n) / (s - 1))  # units on their block, the rest on a clique
    (spec,) = cfg.schedules
    unit = multicopy_unit_law(n, s, parse_schedule(spec).segment(0)[0], cfg.steps)
    on_block = n * float(unit[1 : s + 1].sum())
    mean_size = n * float(np.arange(s + 1) @ unit[: s + 1] + unit[s + 1])
    expected = (
        f"the exact per-unit law expects {on_block:.1f} block units within "
        f"{cfg.steps} steps (mean final size {mean_size:.1f}) against {need} needed"
    )
    _report(
        "criterion 8b (chain reaches 0.9*alpha)",
        row.passed,
        f"frac(max>={size})={row.observed:.4f} target>=0.90; best trial {best} "
        f"({expected}; 90% of trials meet the gate only at ~4.2e8 steps; see notes)",
        elapsed,
    )
    _check_budget("criterion 8b", elapsed, 900.0)
    assert row.passed, (
        f"as-specified gate: {expected} (clique escape ~5.9e-9/step); 90% of "
        f"trials meet it only at ~4.2e8 steps; observed frac {row.observed:.4f}, best {best}"
    )


# -- criterion 9: coupling property suite --------------------------------------


def test_criterion_9_coupling_suite():
    start = time.time()
    seeds = range(50)
    violations = 0
    runs = 0
    for lam in (1.0, 2.0, 10.0):
        for seed in seeds:
            g, upper, lower = coupling_instance(seed)
            rep = dy.run_coupled_monotone(
                g, upper, lower, lam=lam, events=10**5, seed=seed
            )
            runs += 1
            violations += rep.violation_events
    control_broken = 0
    for seed in seeds:
        g, upper, lower = coupling_instance(seed)
        rep = dy.run_coupled_monotone(
            g, upper, lower, lam=2.0, events=10**5, seed=seed, control=True
        )
        control_broken += not rep.ordered_throughout
    elapsed = time.time() - start
    ok = violations == 0 and control_broken >= 45
    _report(
        "criterion 9 (monotone coupling)",
        ok,
        f"{violations} violations over {runs} coupled runs; "
        f"decoupled control broke order in {control_broken}/50 seeds (need >=45)",
        elapsed,
    )
    _check_budget("criterion 9", elapsed, 300.0)
    assert violations == 0
    assert control_broken >= 45


# -- criterion 10: analytic oracle suite ---------------------------------------


def test_criterion_10_analytic_oracles():
    start = time.time()
    gen = np.random.default_rng(20260816)

    # three-state branch chain over 10^4 random schedules
    worst_a = 1.0
    dominance_ok = True
    for i in range(10_000):
        length = int(gen.integers(0, 401))
        if i % 500 == 0:
            length = 10_000  # a few long schedules
        lams = 1.0 + gen.exponential(10.0, size=length)
        if i % 3 == 0:
            lams = np.sort(lams)  # annealing-style
        a, b, c = oc.branch_chain_distribution(oc.BranchChainSpec(tuple(lams)))
        worst_a = min(worst_a, a)
        dominance_ok = dominance_ok and (a >= b - 1e-12)
    branch_ok = worst_a >= 0.25 - 1e-12 and dominance_ok

    # ruin probability vs Monte Carlo
    exact = oc.ruin_probability(2 / 3, 1 / 3, 10)
    walks = 300_000
    block, hit, done = 20_000, 0, 0
    mc_gen = np.random.default_rng(7)
    while done < walks:
        b = min(block, walks - done)
        steps = np.where(mc_gen.random((b, 500)) < 2 / 3, 1, -1).astype(np.int8)
        hit += int(np.sum(np.min(np.cumsum(steps, axis=1, dtype=np.int32), axis=1) <= -10))
        done += b
    est = hit / walks
    sigma = math.sqrt(exact * (1 - exact) / walks)
    ruin_ok = abs(est - exact) <= 3 * sigma

    # birth-death detailed balance
    balance_ok = True
    for _ in range(200):
        k = int(gen.integers(1, 9))
        p = [0.0] * (k + 1)
        q = [0.0] * (k + 1)
        for i in range(k):
            p[i] = 0.05 + 0.4 * gen.random()
        for i in range(1, k + 1):
            q[i] = 0.05 + 0.4 * gen.random()
        pi = oc.birth_death_stationary(p, q)
        balance_ok = balance_ok and abs(pi.sum() - 1.0) <= 1e-12
        for i in range(k):
            balance_ok = balance_ok and abs(pi[i] * p[i] - pi[i + 1] * q[i + 1]) <= 1e-12

    elapsed = time.time() - start
    ok = branch_ok and ruin_ok and balance_ok
    _report(
        "criterion 10 (analytic oracles)",
        ok,
        f"branch floor={worst_a:.4f}>=0.25 and mid>=leaf; "
        f"ruin MC {est:.2e} vs exact {exact:.2e} within 3 sigma; "
        f"detailed balance to 1e-12",
        elapsed,
    )
    _check_budget("criterion 10", elapsed, 120.0)
    assert branch_ok
    assert ruin_ok
    assert balance_ok


# -- criterion 11: burn-in window is schedule-invariant ------------------------


def test_criterion_11_burn_in_schedule_invariance():
    start = time.time()
    params = ig.BlowupParams(n=500, k=10, ell=1000, p=0.02, seed=20260817)
    base = ig.gen_base_bipartite(params.n, params.k, params.p, seed=params.seed)
    horizon = oc.burn_in_time(params)
    schedules = {
        "fixed:1": parse_schedule("fixed:1"),
        "fixed:10": parse_schedule("fixed:10"),
        "fixed:1000": parse_schedule("fixed:1000"),
        "geometric:1:2:64": parse_schedule("geometric:1:2:64"),
        "adaptive:milestone": parse_schedule("adaptive:milestone"),
    }
    trials = 200
    rec_cfg = dy.RecorderConfig(track_touched=True)
    intervals: dict[str, tuple[float, float]] = {}
    left_ok_frac: dict[str, float] = {}
    touch_means: dict[str, float] = {}
    for si, (name, sched) in enumerate(schedules.items()):
        cfg = dy.WeightedCTConfig.blowup_implicit(base, params.ell, horizon=horizon)
        fracs = []
        oks = 0
        touches = []
        for i in range(trials):
            rec = dy.run_ct_ump(
                base, cfg, sched,
                seed=rngmod.stream_id(20260817, si, i),
                recorder=rec_cfg,
            )
            rep = oc.burn_in_stats(rec, params)
            fracs.append(rep.left_fraction)
            oks += rep.left_ok
            touches.append(rep.right_touched)
        intervals[name] = oc.normal_mean_interval(np.array(fracs))
        left_ok_frac[name] = oks / trials
        touch_means[name] = float(np.mean(touches))
    elapsed = time.time() - start

    names = list(schedules)
    overlap_ok = all(
        intervals[a][0] <= intervals[b][1] and intervals[b][0] <= intervals[a][1]
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    )
    occupancy_ok = all(f >= 0.95 for f in left_ok_frac.values())
    expected_touch = params.k * params.n * (1.0 - math.exp(-horizon))
    touch_ok = all(
        abs(m - expected_touch) <= 4 * math.sqrt(expected_touch) / math.sqrt(trials)
        for m in touch_means.values()
    )
    spans = {k: f"[{lo:.4f},{hi:.4f}]" for k, (lo, hi) in intervals.items()}
    ok = overlap_ok and occupancy_ok and touch_ok
    _report(
        "criterion 11 (burn-in schedule invariance)",
        ok,
        f"left-occupied fraction CIs {spans} all overlap; "
        f"left>=n/10 in >=95% of trials per schedule; "
        f"right-touched means ~{expected_touch:.2f}",
        elapsed,
    )
    _check_budget("criterion 11", elapsed, 600.0)
    assert overlap_ok
    assert occupancy_ok
    assert touch_ok


# -- full-scale bytes of every run above ---------------------------------------

# fixture -> (run.csv sha256, stats.csv sha256, config_hash) of its bundled
# config at full scale.  A change that claims to keep every byte of a run is
# held to these as well as to the resized runs of test_pinned_bytes.py.
FULL_SCALE_PINNED = {
    "blowup_run": (
        "ad069ed5ceea4320eb08513197c8e54923fd4c6afc1a73a1fbb95e03b90ad39b",
        "1d3d9a0922336ff2467cfdc80c5dae33b2208454146c4f8dc75637d11d16569e",
        "7d6025f97e3886b76568c84d30ced66d5eacfc85c10bb677cba0f2d0b8c276b6",
    ),
    "tree_run": (
        "0d131ece7846bde080e4099c045fd2322361e44d8e3caae4a46df466f1835801",
        "0bb11baff00b0fd07391252ae297e79a25248d7491c175d80f4837d30e6dc4b8",
        "34da9e068a9606c071a72713110fbdd56804fd93ab30c0d8ef23b36b966baee0",
    ),
    "tree_approx_run": (
        "8d807935ef8c82da6b8a038fad9e12bd560c7596783c936e1b5a981e25a46f6d",
        "affceadff3b4f91689285e6534b763ca09c85c455dde7924b354e35ac49588ee",
        "a2d3701d0eeb0d8655c5046c919cf8a612f6ae5ee2910c94e1df5223854327a1",
    ),
    "bipartite_greedy_run": (
        "83ca5f0df7b3e869f27cf0a6dbff1274ef10c4713dfa4e440164fa0e893207db",
        "3f5d3c1a11214d7bfb88ca84706c5c9f8c12d4277c58d8235925e17ffc4cd51e",
        "1d712ecdc4b112c29eed25be9a44544b5a78a20c824686761c29bb9fd92e38fb",
    ),
    "bipartite_chain_run": (
        "7f36dbee7d83018182b4a74e86af5915f2fc44722ceb5f986c7ac9de6985fa51",
        "336e42ae7f55faed3993e55329495f799402806a9d76c97e1160a116a9816896",
        "2512155a32fc7ccbac3afeda117c4255eef45b5cefb6a24087d1e5631ab8a812",
    ),
    "anchor_run": (
        "e49a5b4a0a1d2691e7b1d081323bd1330142bf6c9ddd4fab3a723459381bb325",
        "65c001895baf3e8df7e9ad3841fa3dfe0ea0b7486b6c1e847918ae80d6d7d4a4",
        "5bfd1f4cb3ad073d21f920599445db6c765ef41c46fe1c30ea2bde6b49bd4bd6",
    ),
    "multicopy_greedy_run": (
        "8a02d62a385a972ebf525928e4eb9d9e058d496e359a53c09a441045bac81d32",
        "14726672777e4376dc52df42dc3015fc9c4a6fa389f23897baf84ca273e2b0be",
        "0b1b04f400004f807f4e1e79157f6672c6848308cd983e297d1513f4ecd4818c",
    ),
    "multicopy_mp_run": (
        "e17c7c7bbf5904c63e5c572f57e0f6a47898e7f06d7952983c1a870433533466",
        "19157deaf3be777c89add27b055d7f1c7f4e732c3d77d36320e815372ed44365",
        "f96d933efabff948fedb52fc2f27db19b8e15e89c337a6eea8cb62fe325ceca5",
    ),
}


@pytest.mark.parametrize("fixture", sorted(FULL_SCALE_PINNED))
def test_full_scale_bytes_are_pinned(fixture, request):
    cfg, manifest, _ = request.getfixturevalue(fixture)
    out = Path(cfg.out_dir)
    got = tuple(
        hashlib.sha256((out / f).read_bytes()).hexdigest() for f in ("run.csv", "stats.csv")
    ) + (manifest.config_hash,)
    assert got == FULL_SCALE_PINNED[fixture]
