from __future__ import annotations

import ast
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealbench import oracles as oc
from annealbench.dynamics import TrialRecord
from annealbench.errors import (
    InsufficientRecord,
    InvalidChain,
    InvalidDrift,
    OutOfRegime,
)
from annealbench.graph_core import build_graph
from annealbench.instance_gen import (
    BlowupParams,
    gen_appendix_anchor,
    gen_appendix_multicopy,
    gen_star_tree,
)
from annealbench.schedules import FugacitySchedule, parse_schedule
import exact_laws
from exact_laws import (
    anchor_law,
    gate_false_fail,
    hardcore_distribution,
    lumped_law,
    multicopy_unit_law,
    one_sided_gate,
    spider_mid_law,
    weighted_chain,
)


# -- gambler's ruin ----------------------------------------------------------


def mc_ruin(p_up: float, m: int, walks: int, cap: int, seed: int) -> float:
    """Monte Carlo oracle: fraction of capped walks that ever dip to -m."""
    gen = np.random.default_rng(seed)
    hit = 0
    block = 20_000
    done = 0
    while done < walks:
        b = min(block, walks - done)
        steps = np.where(gen.random((b, cap)) < p_up, 1, -1).astype(np.int8)
        mins = np.min(np.cumsum(steps, axis=1, dtype=np.int32), axis=1)
        hit += int(np.sum(mins <= -m))
        done += b
    return hit / walks


def test_ruin_two_thirds_vs_monte_carlo():
    exact = oc.ruin_probability(2 / 3, 1 / 3, 10)
    assert exact == pytest.approx(2.0**-10)
    walks = 400_000
    est = mc_ruin(2 / 3, 10, walks, cap=600, seed=101)
    sigma = math.sqrt(exact * (1 - exact) / walks)
    assert abs(est - exact) <= 3 * sigma


def test_ruin_nine_to_one_vs_monte_carlo():
    exact = oc.ruin_probability(0.9, 0.1, 1)
    assert exact == pytest.approx(1 / 9)
    walks = 200_000
    est = mc_ruin(0.9, 1, walks, cap=300, seed=102)
    sigma = math.sqrt(exact * (1 - exact) / walks)
    assert abs(est - exact) <= 3 * sigma


def test_ruin_m_zero_and_errors():
    assert oc.ruin_probability(0.6, 0.4, 0) == 1.0
    with pytest.raises(InvalidDrift):
        oc.ruin_probability(0.5, 0.5, 3)
    with pytest.raises(InvalidDrift):
        oc.ruin_probability(0.4, 0.6, 3)


# -- birth-death chains ------------------------------------------------------


def test_birth_death_symmetric_two_states():
    pi = oc.birth_death_stationary([0.3, 0.0], [0.0, 0.3])
    assert pi == pytest.approx([0.5, 0.5])


def test_birth_death_known_three_state():
    pi = oc.birth_death_stationary([2 / 3, 2 / 3, 0.0], [0.0, 1 / 3, 1 / 3])
    assert pi == pytest.approx([1 / 7, 2 / 7, 4 / 7])
    # direct pi P = pi oracle
    P = np.array(
        [
            [1 / 3, 2 / 3, 0.0],
            [1 / 3, 0.0, 2 / 3],
            [0.0, 1 / 3, 2 / 3],
        ]
    )
    assert pi @ P == pytest.approx(pi)


def test_birth_death_rejects_bad_rates():
    with pytest.raises(InvalidChain):
        oc.birth_death_stationary([0.5, 0.0], [0.0, 0.7], [0.6, 0.3])
    with pytest.raises(InvalidChain):
        oc.birth_death_stationary([0.0, 0.0], [0.0, 0.5])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_birth_death_detailed_balance(seed, k):
    gen = np.random.default_rng(seed)
    p = [0.0] * (k + 1)
    q = [0.0] * (k + 1)
    for i in range(k):
        p[i] = 0.05 + 0.4 * gen.random()
    for i in range(1, k + 1):
        q[i] = 0.05 + 0.4 * gen.random()
    pi = oc.birth_death_stationary(p, q)
    assert abs(pi.sum() - 1.0) <= 1e-12
    for i in range(k):
        assert abs(pi[i] * p[i] - pi[i + 1] * q[i + 1]) <= 1e-12


def test_birth_death_empirical_occupancy():
    p = [0.5, 0.3, 0.0]
    q = [0.0, 0.2, 0.4]
    pi = oc.birth_death_stationary(p, q)
    gen = np.random.default_rng(77)
    steps = 400_000
    us = gen.random(steps)
    state = 0
    counts = np.zeros(3)
    for u in us:
        if u < p[state]:
            state += 1
        elif u < p[state] + q[state]:
            state -= 1
        counts[state] += 1
    emp = counts / steps
    assert 0.5 * np.abs(emp - pi).sum() <= 0.02


# -- branch chain ------------------------------------------------------------


def test_branch_chain_no_updates():
    assert oc.branch_chain_prob_A(oc.BranchChainSpec(())) == 1.0


def test_branch_chain_single_update_lambda_one():
    assert oc.branch_chain_prob_A(oc.BranchChainSpec((1.0,))) == pytest.approx(0.5)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 200))
def test_branch_chain_floor_and_mid_dominance(seed, s):
    gen = np.random.default_rng(seed)
    lams = 1.0 + gen.exponential(10.0, size=s)
    a, b, c = oc.branch_chain_distribution(oc.BranchChainSpec(tuple(lams)))
    assert a >= 0.25 - 1e-12
    assert a >= b - 1e-12
    assert a + b + c == pytest.approx(1.0)


# -- bipartite bound ---------------------------------------------------------


def test_bipartite_bound_values():
    assert oc.bipartite_is_bound(5000, 16.0) == 1733
    # d just above e^2: 2 ln(d)/d * n = 53.77..., ceiling 54
    assert oc.bipartite_is_bound(100, math.e**2 + 0.1) == 54
    with pytest.raises(OutOfRegime):
        oc.bipartite_is_bound(100, math.e**2)


# -- burn-in -----------------------------------------------------------------


def _fake_trial(left, right, touched):
    rec = TrialRecord(steps=10, max_size=left, step_of_max=1, final_size=left + right)
    rec.final_left = left
    rec.final_right = right
    rec.right_touched = touched
    return rec


def test_burn_in_stats_flags():
    params = BlowupParams(n=500, k=10, ell=1000, p=0.02)
    assert oc.burn_in_time(params) == pytest.approx(1.0 / 800.0)
    rep = oc.burn_in_stats(_fake_trial(300, 1, 6), params)
    assert rep.left_ok and rep.right_ok
    assert rep.left_target == 50.0
    assert rep.right_touch_cap == pytest.approx(12.5)
    rep2 = oc.burn_in_stats(_fake_trial(20, 0, 30), params)
    assert not rep2.left_ok and not rep2.right_ok


def test_burn_in_stats_needs_fields():
    rec = TrialRecord(steps=1, max_size=0, step_of_max=0, final_size=0)
    with pytest.raises(InsufficientRecord):
        oc.burn_in_stats(rec, BlowupParams(n=10, k=2, ell=10, p=0.05))


# -- intervals ---------------------------------------------------------------


def test_wilson_interval_bounds():
    lo, hi = oc.wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.06
    lo, hi = oc.wilson_interval(100, 100)
    assert hi == 1.0 and lo > 0.94
    # The ends are exact, not a rounding away from them.
    assert oc.wilson_interval(0, 500)[0] == 0.0
    assert oc.wilson_interval(104, 104)[1] == 1.0


# -- exact laws of the acceptance chains vs the full 2^n-state chain --------


def _full_chain(g, lam: float, stop_size: int | None = None) -> np.ndarray:
    """Transition matrix of the add/remove chain on every subset of ``g``.

    A subset of size ``>= stop_size`` is absorbing, like an early stop."""
    n = g.n
    nbr = [sum(1 << w for w in g.neighbor_lists[v]) for v in range(n)]
    drop = 1.0 / lam
    T = np.zeros((1 << n, 1 << n))
    for s in range(1 << n):
        if stop_size is not None and bin(s).count("1") >= stop_size:
            T[s, s] = 1.0
            continue
        for v in range(n):
            bit = 1 << v
            if s & bit:
                T[s, s ^ bit] += drop / n
                T[s, s] += (1.0 - drop) / n
            elif s & nbr[v]:
                T[s, s] += 1.0 / n
            else:
                T[s, s | bit] += 1.0 / n
    return T


def _lumped(law: np.ndarray, key, size: int) -> np.ndarray:
    out = np.zeros(size)
    for s in np.flatnonzero(law):
        out[key(int(s))] += law[s]
    return out


def test_lumped_law_matches_full_chain():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    nbr = [sum(1 << w for w in g.neighbor_lists[v]) for v in range(g.n)]

    def moves(s, drop):  # the full chain's own moves: each bitmask is a class
        for v in range(g.n):
            if s >> v & 1:
                yield s ^ 1 << v, drop / g.n
            elif not s & nbr[v]:
                yield s | 1 << v, 1 / g.n

    sched = parse_schedule("geometric:1:2:3:8")  # 1, 2, 4, then 8 for ever
    law = np.zeros(1 << g.n)
    law[0] = 1.0
    for steps in range(41):
        got = lumped_law(0, moves, sched, steps)
        got = np.array([got.get(s, 0.0) for s in range(1 << g.n)])
        np.testing.assert_allclose(got, law, rtol=0, atol=1e-12)
        law = law @ _full_chain(g, sched.segment(steps)[0])


def test_only_fold_raises_a_matrix_to_a_power():
    tree = ast.parse(inspect.getsource(exact_laws))
    users = {
        getattr(top, "name", "<module>")
        for top in tree.body
        for node in ast.walk(top)
        if "matrix_power" in (getattr(node, "attr", None), getattr(node, "id", None),
                              getattr(node, "name", None))
    }
    assert users == {"_fold"}


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize(
    "lams",
    [[1.0] * 8, [2.0] * 8, [20.0] * 8, [1.0, 20.0, 2.0, 1.0, 2.0, 20.0, 20.0, 1.0],
     [math.inf] * 8],
)
def test_spider_mid_law_matches_full_chain(k, lams):
    g = gen_star_tree(k)
    sched = FugacitySchedule.sequence(lams)  # held at its last entry afterwards
    mats = {lam: _full_chain(g, lam) for lam in set(lams)}
    mid_mask = sum(1 << v for v in range(1, k + 1))

    def mids(s: int) -> int:
        return bin(s & mid_mask).count("1")

    law = np.zeros(1 << g.n)
    law[0] = 1.0
    for steps in range(len(lams) + 1):
        want = _lumped(law, mids, min(k, steps) + 1)
        np.testing.assert_allclose(spider_mid_law(k, sched, steps), want, rtol=0, atol=1e-12)
        if steps < len(lams):
            law = law @ mats[lams[steps]]
    long_law = law @ np.linalg.matrix_power(mats[lams[-1]], 5000 - len(lams))
    want = _lumped(long_law, mids, k + 1)
    np.testing.assert_allclose(spider_mid_law(k, sched, 5000), want, rtol=0, atol=1e-12)


class _OneStepHolds:
    """A fixed fugacity whose every segment holds one step, so ``_fold``
    multiplies the law by the one-step matrix once per step."""

    def __init__(self, lam: float):
        self.lam = lam

    def segment(self, t: int) -> tuple[float, int]:
        return self.lam, 1


@pytest.mark.parametrize("k", [2, 10])
@pytest.mark.parametrize("lam", [1.0, 2.0, 20.0, math.inf])
def test_spider_mid_law_fixed_matches_stepwise_law(k, lam):
    for steps in (0, 1, 2, 5, 40, 300):
        want = spider_mid_law(k, _OneStepHolds(lam), steps)
        got = spider_mid_law(k, FugacitySchedule.fixed(lam), steps)  # one matrix power
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def _anchor_state(n: int, s: int) -> int:
    block = bin(s & ((1 << n) - 1)).count("1")
    if block:
        return block
    clique = bool(s & (((1 << n) - 1) << n))
    hub = bool(s >> (2 * n))
    return {(False, False): 0, (True, False): n + 1, (False, True): n + 2}.get(
        (clique, hub), n + 3
    )


@pytest.mark.parametrize("lam", [1.0, 2.0, 20.0])
def test_anchor_law_matches_full_chain(lam):
    n = 3
    g = gen_appendix_anchor(n)
    T = _full_chain(g, lam, stop_size=n)
    law = np.zeros(1 << g.n)
    law[0] = 1.0
    for steps in range(40):
        want = _lumped(law, lambda s: _anchor_state(n, s), n + 4)
        np.testing.assert_allclose(anchor_law(n, lam, steps), want, rtol=0, atol=1e-12)
        law = law @ T
    long_law = np.linalg.matrix_power(T, 5000)[0]
    want = _lumped(long_law, lambda s: _anchor_state(n, s), n + 4)
    np.testing.assert_allclose(anchor_law(n, lam, 5000), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n, eps", [(2, 0.0), (2, 1.0), (3, 0.0)])
def test_multicopy_unit_law_matches_full_chain(n, eps):
    g = gen_appendix_multicopy(n, eps)
    s = g.n // n - n
    T = weighted_chain(g, np.ones(g.n), np.ones(g.n), 2.0)
    block, clique = (1 << s) - 1, ((1 << n) - 1) << s  # unit 0: block first

    def unit(mask: int) -> int:
        held = bin(mask & block).count("1")
        return held if held or not mask & clique else s + 1

    law = np.zeros(1 << g.n)
    law[0] = 1.0
    for steps in range(41):
        want = _lumped(law, unit, s + 2)
        np.testing.assert_allclose(multicopy_unit_law(n, s, 2.0, steps), want, rtol=0, atol=1e-12)
        law = law @ T


@pytest.mark.parametrize("lam", [1.0, 2.0, 20.0])
def test_weighted_chain_with_unit_weights_is_the_discrete_chain(lam):
    g = gen_star_tree(3)
    ones = np.ones(g.n)
    np.testing.assert_allclose(
        weighted_chain(g, ones, ones, lam), _full_chain(g, lam), rtol=0, atol=1e-15
    )
    # a multiplier m at fugacity lam removes like fugacity m * lam
    mults = np.full(g.n, 3.0)
    np.testing.assert_allclose(
        weighted_chain(g, 5 * ones, mults, lam), _full_chain(g, 3.0 * lam), rtol=0, atol=1e-15
    )


@pytest.mark.parametrize("lam", [1.0, 2.0, 20.0])
def test_hardcore_distribution_is_stationary_for_the_chain(lam):
    cycle = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    for g in (cycle, gen_star_tree(2), gen_appendix_anchor(2)):
        ones = np.ones(g.n)
        pi = hardcore_distribution(g, lam)
        np.testing.assert_allclose(pi @ weighted_chain(g, ones, ones, lam), pi, rtol=0, atol=1e-12)


def test_one_sided_gate_rounds_down():
    assert one_sided_gate(0.5, 100, 0.0) == 0.5
    assert one_sided_gate(0.5, 100, 2.0) == 0.4
    assert one_sided_gate(0.7056, 200, 3.29) == 0.59


def test_gate_false_fail_probabilities_are_pinned():
    """The chance that a correct program fails each gate with an exact law:
    4b (200 trials, p* = 0.7056, target 0.59), 7b (100 trials, p* = 0.49876,
    target 0.33) and 8a (500 trials, P(size > 144) = 0.04777, target 0.95)."""
    assert gate_false_fail(0.5, 2, 0.5) == 0.25  # fails only on no success
    assert gate_false_fail(0.5, 2, 0.0) == 0.0
    assert f"{gate_false_fail(0.7056, 200, 0.59):.3g}" == "0.000186"
    assert f"{gate_false_fail(0.49876, 100, 0.33):.3g}" == "0.000224"
    assert f"{gate_false_fail(1 - 0.04777, 500, 0.95):.3g}" == "0.357"
