"""Exact laws of the engine's chains, run from the empty set.

The spider, anchor and multicopy-unit laws are laws of the discrete chain:
each step proposes a uniform vertex; an unoccupied vertex joins if none of
its neighbours is occupied, and an occupied one leaves with probability
``1/lambda``.  The symmetry of each instance lumps the ``2^n`` states into
a handful (Kemeny & Snell, *Finite Markov Chains*, 1960), so ``lumped_law``
gives them exactly.  ``test_oracles.py`` checks them against the full
``2^n``-state chain on small instances.

``multicopy_greedy_law`` is the closed-form law of randomized greedy's size
on the same multicopy instance (gate 8a).

``hardcore_distribution`` is the stationary law of the discrete chain at
a fixed fugacity, by enumeration of the ``2^n`` states.
``weighted_chain`` and ``weighted_law`` are the full ``2^n``-state embedded
chain of the weighted continuous-time chain (per-vertex rates and fugacity
multipliers) and its law under a schedule, for tiny graphs.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict

import numpy as np

from annealbench.dynamics import removal_threshold
from annealbench.schedules import FugacitySchedule, parse_schedule


def one_sided_gate(p: float, trials: int, z: float) -> float:
    """Fraction target that a chain with per-trial success ``p`` misses
    with probability about ``Phi(-z)``, rounded down to two decimals."""
    return math.floor(100 * (p - z * math.sqrt(p * (1 - p) / trials))) / 100


def _fold(law: np.ndarray, chain, sched: FugacitySchedule, steps: int) -> np.ndarray:
    """``law`` after ``steps`` steps of ``sched``, where ``chain(lam)`` is the
    transition matrix at fugacity ``lam``: one matrix power per segment of
    constant fugacity."""
    t = 0
    while t < steps:
        lam, hold = sched.segment(t)
        run = min(hold, steps - t)
        law = law @ np.linalg.matrix_power(chain(lam), run)
        t += run
    return law


def lumped_law(start, moves, sched: FugacitySchedule, steps: int) -> dict:
    """Law of a lumped chain after ``steps`` steps of ``sched`` from
    ``start``, as {state: probability}.

    ``moves(state, drop)`` yields (next state, probability) pairs when an
    occupied vertex leaves with probability ``drop``; the rest of each row
    stays put.  Only the states reachable from ``start`` within ``steps``
    steps are kept, reached at ``drop = 1`` where every move is open.  A
    move to any other state is dropped: that state is first reached after
    the last step.
    """
    seen = frontier = {start}
    for _ in range(steps):
        frontier = {moved for state in frontier for moved, _ in moves(state, 1.0)} - seen
        if not frontier:
            break
        seen = seen | frontier
    states = [start, *(seen - {start})]
    index = {state: i for i, state in enumerate(states)}

    @functools.cache
    def chain(lam: float) -> np.ndarray:
        P = np.zeros((len(states), len(states)))
        drop = removal_threshold(lam)
        for i, state in enumerate(states):
            for moved, p in moves(state, drop):
                if moved in index:
                    P[i, index[moved]] += p
        P[np.diag_indices(len(states))] += 1.0 - P.sum(axis=1)
        return P

    law = np.zeros(len(states))
    law[0] = 1.0
    return dict(zip(states, _fold(law, chain, sched, steps)))


def spider_mid_law(k: int, sched: FugacitySchedule, steps: int) -> np.ndarray:
    """Law of the occupied-mid count of ``gen_star_tree(k)`` after ``steps``
    steps of ``sched``.

    Entry ``c`` is P(count = c).  The lumped state is (root occupied, legs
    whose mid is occupied, legs whose leaf is occupied); a leg holds at
    most one of its two vertices, and an occupied root blocks every mid.
    """
    n = 2 * k + 1

    def moves(state, drop):
        root, mids, leaves = state
        empty = k - mids - leaves
        if root:
            yield (0, mids, leaves), drop / n
        elif mids == 0:
            yield (1, mids, leaves), 1 / n
        if mids:
            yield (root, mids - 1, leaves), mids * drop / n
        if leaves:
            yield (root, mids, leaves - 1), leaves * drop / n
        if empty and not root:
            yield (root, mids + 1, leaves), empty / n
        if empty:
            yield (root, mids, leaves + 1), empty / n

    out = np.zeros(min(k, steps) + 1)
    for (_, mids, _), p in lumped_law((0, 0, 0), moves, sched, steps).items():
        out[mids] += p
    return out


def anchor_law(n: int, lam: float, steps: int) -> np.ndarray:
    """Law after ``steps`` steps of the chain on ``gen_appendix_anchor(n)``,
    stopped when the set reaches size ``n``.

    Index ``j <= n``: ``j`` block vertices occupied (0 is the empty set).
    ``n+1``: one clique vertex; ``n+2``: the hub; ``n+3``: a clique vertex
    and the hub.  A set of size ``n`` is the whole block, so entry ``n`` is
    P(max size >= n within ``steps`` steps).
    """
    size = 2 * n + 1
    clique, hub, both = n + 1, n + 2, n + 3

    def moves(j, drop):
        leave = drop / size
        if j == 0:
            yield from ((1, n / size), (clique, n / size), (hub, 1 / size))
        elif j < n:  # no moves out of j = n: the run stops there
            yield from ((j - 1, j * leave), (j + 1, (n - j) / size))
        elif j == clique:
            yield from ((0, leave), (both, 1 / size))
        elif j == hub:
            yield from ((0, leave), (both, n / size))
        elif j == both:
            yield from ((clique, leave), (hub, leave))

    law = lumped_law(0, moves, FugacitySchedule.fixed(lam), steps)
    return np.array([law.get(j, 0.0) for j in range(n + 4)])


def multicopy_unit_law(n: int, s: int, lam: float, steps: int) -> np.ndarray:
    """Law of one unit of the ``n`` units of ``gen_appendix_multicopy`` (an
    ``s``-block joined to an ``n``-clique) after ``steps`` steps at
    fugacity ``lam``.

    Index ``j <= s``: ``j`` block vertices occupied (0 is the empty unit);
    ``s+1``: one clique vertex.  Each step proposes each vertex of the unit
    with probability ``1/(n(n+s))``, so this marginal is exact without
    assuming that the units are independent.
    """
    size = n * (n + s)
    clique = s + 1

    def moves(j, drop):
        leave = drop / size
        if j == clique:
            yield 0, leave
            return
        if j == 0:
            yield clique, n / size
        else:
            yield j - 1, j * leave
        if j < s:
            yield j + 1, (s - j) / size

    law = lumped_law(0, moves, FugacitySchedule.fixed(lam), steps)
    return np.array([law.get(j, 0.0) for j in range(s + 2)])


def multicopy_greedy_law(n: int, s: int) -> np.ndarray:
    """Law of the size randomized greedy reaches on the ``n`` units of
    ``gen_appendix_multicopy`` (an ``s``-block joined to an ``n``-clique).

    Greedy takes a unit's whole block when a block vertex comes first among
    the unit's ``n + s`` vertices, and one clique vertex otherwise.  The
    relative orders of disjoint units in a uniform permutation are
    independent, so the size is ``n + (s - 1) * Binomial(n, s / (n + s))``.
    Index ``m`` is the probability of size ``m``.
    """
    q = s / (n + s)
    law = np.zeros(n * s + 1)
    for b in range(n + 1):
        law[n + (s - 1) * b] = math.comb(n, b) * q**b * (1 - q) ** (n - b)
    return law


def weighted_chain(g, rates, multipliers, lam: float) -> np.ndarray:
    """One-proposal transition matrix of the weighted chain on every subset
    of ``g`` (state = occupancy bitmask).

    Vertex ``v`` is proposed with probability ``rates[v] / sum(rates)``; an
    unoccupied proposal joins if no neighbour is occupied, and an occupied
    one leaves with probability ``1 / (multipliers[v] * lam)``.  Every
    subset is a state, dependent ones included; they are never reached
    from the empty set.
    """
    n = g.n
    nbr = [sum(1 << w for w in g.neighbor_lists[v]) for v in range(n)]
    pick = np.asarray(rates, dtype=float) / float(np.sum(rates))
    drop = [removal_threshold(float(m) * lam) for m in multipliers]
    T = np.zeros((1 << n, 1 << n))
    for s in range(1 << n):
        for v in range(n):
            bit = 1 << v
            if s & bit:
                T[s, s ^ bit] += pick[v] * drop[v]
                T[s, s] += pick[v] * (1.0 - drop[v])
            elif s & nbr[v]:
                T[s, s] += pick[v]
            else:
                T[s, s | bit] += pick[v]
    return T


def hardcore_distribution(g, lam: float) -> np.ndarray:
    """Exact stationary law over occupancy bitmasks: weight lam^|I| per
    independent set, zero elsewhere.  Tiny graphs only."""
    n = g.n
    if n > 20:
        raise ValueError("exact enumeration is limited to 20 vertices")
    adj_masks = []
    for v in range(n):
        m = 0
        for w in g.neighbor_lists[v]:
            m |= 1 << w
        adj_masks.append(m)
    weights = np.zeros(1 << n)
    for mask in range(1 << n):
        ok = True
        probe = mask
        while probe:
            bit = probe & -probe
            v = bit.bit_length() - 1
            probe ^= bit
            if mask & adj_masks[v]:
                ok = False
                break
        if ok:
            weights[mask] = lam ** mask.bit_count()
    return weights / weights.sum()


def weighted_law(g, rates, multipliers, spec: str, steps: int) -> np.ndarray:
    """Law of the occupancy bitmask after ``steps`` proposals of the weighted
    chain from the empty set, under schedule ``spec``.

    A schedule without history is a fixed fugacity sequence.  An adaptive
    rule sees the run's history; the law is then carried on (bitmask,
    running maximum, block of the step of the maximum), which is exact for
    a rule with a constant hold ``H`` that reads the step of the maximum
    only through its block ``floor(step_of_max / H)`` (both are asserted).
    """
    sched = parse_schedule(spec)
    n = g.n
    chain = functools.cache(functools.partial(weighted_chain, g, rates, multipliers))

    if not sched.rule:
        law = np.zeros(1 << n)
        law[0] = 1.0
        return _fold(law, chain, sched, steps)

    hold = sched.segment(0)[1]
    blocks = steps // hold + 1
    popcount = np.array([bin(s).count("1") for s in range(1 << n)])
    law = np.zeros((1 << n, n + 1, blocks))  # (bitmask, running max, block)
    law[0, 0, 0] = 1.0
    t = 0
    while t < steps:
        # Split the law by the fugacity each history gets for this segment.
        parts: dict[float, np.ndarray] = defaultdict(lambda: np.zeros_like(law))
        for s, top, b in zip(*np.nonzero(law)):
            seen = set()
            for step_of_max in (b * hold, min((b + 1) * hold - 1, t)):
                seen.add(sched.segment(t, int(top), int(step_of_max)))
            assert len(seen) == 1 and next(iter(seen))[1] == hold, "rule outside the lumping"
            parts[next(iter(seen))[0]][s, top, b] = law[s, top, b]
        run = min(hold, steps - t)
        law = np.zeros_like(law)
        for lam, part in parts.items():
            P = chain(lam)
            for i in range(run):
                part = np.einsum("smb,sk->kmb", part, P)
                block = (t + i + 1) // hold  # a new maximum here sets step_of_max = t + i + 1
                for c in range(1, n + 1):
                    grown = popcount == c
                    part[grown, c, block] += part[grown, c - 1, :].sum(axis=-1)
                    part[grown, c - 1, :] = 0.0
            law += part
        t += run
    return law.sum(axis=(1, 2))
