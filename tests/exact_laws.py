"""Exact laws of the engine's chains, run from the empty set.

The first two are laws of two acceptance chains on the discrete chain:
each step proposes a uniform vertex; an unoccupied vertex joins if none of
its neighbours is occupied, and an occupied one leaves with probability
``1/lambda``.  The symmetry of each instance lumps the ``2^n`` states into
a handful, so the laws below are exact, not sampled.  ``test_oracles.py``
checks them against the full ``2^n``-state chain on small instances.

``hardcore_distribution`` is the stationary law of the discrete chain at
a fixed fugacity, by enumeration of the ``2^n`` states.
``weighted_chain`` and ``weighted_law`` are the full ``2^n``-state embedded
chain of the weighted continuous-time chain (per-vertex rates and fugacity
multipliers) and its law under a schedule, for tiny graphs.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Sequence

import numpy as np

from annealbench.dynamics import removal_threshold
from annealbench.schedules import HistoryDigest, parse_schedule


def schedule_fugacities(spec: str, steps: int) -> list[float]:
    """The fugacity of each of the first ``steps`` steps of a schedule spec."""
    sched = parse_schedule(spec)
    return [sched.segment(t)[0] for t in range(steps)]


def one_sided_gate(p: float, trials: int, z: float) -> float:
    """Fraction target that a chain with per-trial success ``p`` misses
    with probability about ``Phi(-z)``, rounded down to two decimals."""
    return math.floor(100 * (p - z * math.sqrt(p * (1 - p) / trials))) / 100


def _spider_moves(k: int, state: tuple[int, int, int], drop: float):
    """The moves of the spider chain out of a lumped ``state``, as (next
    state, weight) pairs; a move's probability is its weight over n."""
    root, mids, leaves = state
    empty = k - mids - leaves
    if root:
        yield (0, mids, leaves), drop
    elif mids == 0:
        yield (1, mids, leaves), 1.0
    if mids:
        yield (root, mids - 1, leaves), mids * drop
    if leaves:
        yield (root, mids, leaves - 1), leaves * drop
    if empty and not root:
        yield (root, mids + 1, leaves), float(empty)
    if empty:
        yield (root, mids, leaves + 1), float(empty)


def spider_mid_law(k: int, lams: Sequence[float]) -> np.ndarray:
    """Law of the occupied-mid count of ``gen_star_tree(k)`` after
    ``len(lams)`` steps, step ``t`` run at fugacity ``lams[t]``.

    Entry ``c`` is P(count = c).  The lumped state is (root occupied, legs
    whose mid is occupied, legs whose leaf is occupied); a leg holds at
    most one of its two vertices, and an occupied root blocks every mid.
    """
    n = 2 * k + 1
    law: dict[tuple[int, int, int], float] = {(0, 0, 0): 1.0}
    for lam in lams:
        drop = removal_threshold(lam)
        nxt: dict[tuple[int, int, int], float] = defaultdict(float)
        for state, p in law.items():
            stay = 1.0
            for moved, weight in _spider_moves(k, state, drop):
                nxt[moved] += p * weight / n
                stay -= weight / n
            nxt[state] += p * stay
        law = nxt
    out = np.zeros(min(k, len(lams)) + 1)
    for (_, mids, _), p in law.items():
        out[mids] += p
    return out


def spider_mid_law_fixed(k: int, lam: float, steps: int) -> np.ndarray:
    """``spider_mid_law(k, [lam] * steps)`` for long horizons: the lumped
    transition matrix is built once and raised to the power ``steps``."""
    n = 2 * k + 1
    states = [(0, m, f) for m in range(k + 1) for f in range(k + 1 - m)]
    states += [(1, 0, f) for f in range(k + 1)]
    index = {state: i for i, state in enumerate(states)}
    drop = removal_threshold(lam)
    P = np.zeros((len(states), len(states)))
    for state in states:
        for moved, weight in _spider_moves(k, state, drop):
            P[index[state], index[moved]] += weight / n
    P[np.diag_indices(len(states))] = 1.0 - P.sum(axis=1)
    law = np.linalg.matrix_power(P, steps)[index[(0, 0, 0)]]
    out = np.zeros(k + 1)
    for (_, mids, _), p in zip(states, law):
        out[mids] += p
    return out[: min(k, steps) + 1]


def anchor_law(n: int, lam: float, steps: int) -> np.ndarray:
    """Law after ``steps`` steps of the chain on ``gen_appendix_anchor(n)``,
    stopped when the set reaches size ``n``.

    Index ``j <= n``: ``j`` block vertices occupied (0 is the empty set).
    ``n+1``: one clique vertex; ``n+2``: the hub; ``n+3``: a clique vertex
    and the hub.  A set of size ``n`` is the whole block, so entry ``n`` is
    P(max size >= n within ``steps`` steps).
    """
    size = 2 * n + 1
    drop = removal_threshold(lam) / size
    clique, hub, both = n + 1, n + 2, n + 3
    P = np.zeros((n + 4, n + 4))
    for j in range(1, n):  # no moves out of j = n: the run stops there
        P[j, j - 1] = j * drop
        P[j, j + 1] = (n - j) / size
    P[0, 1] = n / size
    P[0, clique] = n / size
    P[0, hub] = 1 / size
    P[clique, 0] = drop
    P[clique, both] = 1 / size
    P[hub, 0] = drop
    P[hub, both] = n / size
    P[both, clique] = drop
    P[both, hub] = drop
    P[np.diag_indices(n + 4)] = 1.0 - P.sum(axis=1)
    start = np.zeros(n + 4)
    start[0] = 1.0
    return start @ np.linalg.matrix_power(P, steps)


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
    mats: dict[float, np.ndarray] = {}

    def chain(lam: float) -> np.ndarray:
        if lam not in mats:
            mats[lam] = weighted_chain(g, rates, multipliers, lam)
        return mats[lam]

    if sched.kind != "adaptive":
        law = np.zeros(1 << n)
        law[0] = 1.0
        t = 0
        while t < steps:
            lam, hold = sched.segment(t)
            run = min(hold, steps - t)
            law = law @ np.linalg.matrix_power(chain(lam), run)
            t += run
        return law

    hold = sched.segment(0, HistoryDigest())[1]
    blocks = steps // hold + 1
    popcount = np.array([bin(s).count("1") for s in range(1 << n)])
    law = np.zeros((1 << n, n + 1, blocks))  # (bitmask, running max, block)
    law[0, 0, 0] = 1.0
    t = 0
    while t < steps:
        # Split the law by the fugacity each history gets for this segment.
        parts: dict[float, np.ndarray] = defaultdict(lambda: np.zeros_like(law))
        for s, top, b in zip(*np.nonzero(law)):
            occupied = bytearray((s >> v) & 1 for v in range(n))
            seen = set()
            for step_of_max in (b * hold, min((b + 1) * hold - 1, t)):
                digest = HistoryDigest(t, int(popcount[s]), int(top), step_of_max, occupied)
                seen.add(sched.segment(t, digest))
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
