"""Slow, plain references that the fast code is checked against byte for byte.

* A fold of the discrete chain's update rule: the reference of the
  engine's step mode (``dynamics.run_ump`` with a recorder that tracks
  touched vertices, which keeps step mode for the whole run).  Every
  proposal reads one real ``u`` of the trial's stream: the vertex is
  ``floor(u*n)`` and the removal coin is the fractional part of ``u*n``.
* A set-based graph builder, the reference of ``graph_core.build_graph``.
* Randomized greedy as the plain scan: every position of the permutation
  in order, one bool-mask assignment per added vertex.  It is what
  ``dynamics.run_randomized_greedy`` is held to, set and ``TrialRecord``
  alike; the fast path skips blocked positions a block at a time.
* The projection of an independent set of an explicit clique blowup onto
  its base graph, which criterion 2 compares with the implicit blowup.
* Kuhn's augmenting-path matcher, the reference of the size of
  ``graph_core._hopcroft_karp``'s maximum matching.
* The engine's any-number-of-classes code, which the two-class code of
  ``dynamics`` is held to value for value: the step-mode proposals
  (``propose_reference``, a ``searchsorted`` over the classes' shares) and
  the jump-mode pick (``pick_reference``, a loop over the lists).
"""

from __future__ import annotations

import numpy as np

from annealbench import rng as rngmod
from annealbench.dynamics import RateClasses, TrialRecord, removal_threshold
from annealbench.errors import NotIndependent
from annealbench.graph_core import Graph, is_independent
from annealbench.instance_gen import BlowupParams
from annealbench.schedules import FugacitySchedule, HistoryDigest


class IndependentSetState:
    """Mutable occupancy vector plus running statistics for one trial.

    The defining invariant (occupied set spans no edge) can be asserted
    with :meth:`check` after any update.
    """

    __slots__ = ("occupied", "size", "max_size_seen", "step", "changes")

    def __init__(self, n: int):
        self.occupied = bytearray(n)
        self.changes = 0  # updates that changed the set
        self.size = 0
        self.max_size_seen = 0
        self.step = 0

    def vertices(self) -> set[int]:
        return {v for v, bit in enumerate(self.occupied) if bit}

    def check(self, g: Graph) -> None:
        assert sum(self.occupied) == self.size
        assert self.max_size_seen >= self.size
        if not is_independent(g, self.vertices()):
            raise AssertionError("occupied set spans an edge")


def ump_update(
    state: IndependentSetState, g: Graph, v: int, zeta: float, lam: float
) -> IndependentSetState:
    """Apply one proposal to ``state`` in place and return it.

    Unoccupied ``v`` is added iff no neighbor is occupied; occupied ``v``
    is removed iff ``zeta < 1/lam``.  Everything else is a no-op.
    """
    thr = removal_threshold(lam)
    occ = state.occupied
    if occ[v]:
        if zeta < thr:
            occ[v] = 0
            state.size -= 1
            state.changes += 1
    else:
        for w in g.neighbor_lists[v]:
            if occ[w]:
                break
        else:
            occ[v] = 1
            state.size += 1
            state.changes += 1
            if state.size > state.max_size_seen:
                state.max_size_seen = state.size
    state.step += 1
    return state


def run_ump_reference(
    g: Graph,
    sched: FugacitySchedule,
    steps: int,
    seed: int,
    early_stop_size: int | None = None,
) -> tuple[IndependentSetState, int]:
    """Fold :func:`ump_update` over the trial's reals, one per proposal,
    stopping after ``steps`` proposals or when the set first reaches
    ``early_stop_size``.  Returns the state and the step of the maximum."""
    us = rngmod.stream(seed).random(steps).tolist()
    state = IndependentSetState(g.n)
    digest = HistoryDigest(occupied=state.occupied)
    lam = 1.0
    seg_end = 0
    step_of_max = 0
    for t, u in enumerate(us):
        if t >= seg_end:
            digest.t = t
            digest.size = state.size
            digest.max_size = state.max_size_seen
            digest.step_of_max = step_of_max
            lam, hold = sched.segment(t, digest)
            seg_end = t + hold
        x = u * g.n
        v = int(x)
        before = state.max_size_seen
        ump_update(state, g, v, x - v, lam)
        if state.max_size_seen > before:
            step_of_max = t + 1
            if early_stop_size is not None and state.size >= early_stop_size:
                break
    return state, step_of_max


def build_graph_reference(n: int, edges) -> Graph:
    """Dedupe the pairs in a set, fill the CSR one edge at a time, then sort
    each neighbor list.  No input checks: callers pass valid edges."""
    pairs = {(min(u, v), max(u, v)) for u, v in ((int(a), int(b)) for a, b in edges)}
    degs = np.zeros(n, dtype=np.int64)
    for u, v in pairs:
        degs[u] += 1
        degs[v] += 1
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degs, out=offsets[1:])
    targets = np.zeros(int(offsets[-1]), dtype=np.int64)
    cursor = offsets[:-1].copy()
    for u, v in sorted(pairs):
        targets[cursor[u]] = v
        cursor[u] += 1
        targets[cursor[v]] = u
        cursor[v] += 1
    for v in range(n):
        lo, hi = offsets[v], offsets[v + 1]
        targets[lo:hi] = np.sort(targets[lo:hi])
    return Graph(n, offsets, targets)


def kuhn_matching_size(adj: list[list[int]], left: list[int]) -> int:
    """Size of a maximum matching: one augmenting-path search per left
    vertex from an empty matching, recursive, with no greedy start."""
    mate: dict[int, int] = {}  # right vertex -> its left mate

    def augment(u: int, seen: set[int]) -> bool:
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                if w not in mate or augment(mate[w], seen):
                    mate[w] = u
                    return True
        return False

    return sum(augment(u, set()) for u in left)


def run_randomized_greedy_reference(g: Graph, seed: int) -> tuple[frozenset[int], TrialRecord]:
    """Scan every position of the trial's uniform permutation in order; an
    added vertex blocks its neighbours by one numpy fancy-index assignment."""
    perm = rngmod.stream(seed).permutation(g.n)
    blocked = np.zeros(g.n, dtype=bool)
    chosen: list[int] = []
    last_add_pos = 0
    for pos, v in enumerate(perm.tolist()):
        if not blocked[v]:
            chosen.append(v)
            blocked[v] = True
            blocked[g.adj_targets[g.adj_offsets[v] : g.adj_offsets[v + 1]]] = True
            last_add_pos = pos + 1
    size = len(chosen)
    record = TrialRecord(seed, g.n, size, last_add_pos, size)
    return frozenset(chosen), record


def phi_project(
    blowup_is,
    params: BlowupParams,
    g: Graph | None = None,
) -> frozenset[int]:
    """Map an independent set of the explicit blowup onto the base graph.

    Each occupied clique member maps to its base left vertex (independence
    allows at most one per clique); right vertices keep their identity.
    The image has the same cardinality as the input.
    """
    n, ell = params.n, params.ell
    if g is not None and not is_independent(g, blowup_is):
        raise NotIndependent("input set spans an edge of the blowup")
    out = set()
    for v in blowup_is:
        v = int(v)
        if v < n * ell:
            u = v // ell
        else:
            u = n + (v - n * ell)  # right vertex
        if u in out:
            raise NotIndependent(f"two occupied members in clique {u}")
        out.add(u)
    return frozenset(out)


def propose_reference(classes: RateClasses, u: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Step mode's proposals for any number of classes: ``x = u*R`` is looked
    up among the ends of the classes' shares of the total rate, then the
    member and the coin come from ``x`` less the start of its share."""
    rates, counts = np.asarray(classes.rates), np.asarray(classes.counts)
    weights = rates * counts
    bounds = np.cumsum(weights)
    lows, offsets = bounds - weights, np.cumsum(counts) - counts
    x = u * bounds[-1]
    c = np.minimum(np.searchsorted(bounds, x, side="right"), len(bounds) - 1)
    y = (x - lows[c]) / rates[c]
    i = np.minimum(y.astype(np.intp), counts[c] - 1)
    coins = (y - i) * np.asarray(classes.multipliers)[c]
    return classes.members[i + offsets[c]], coins.tolist()


def pick_reference(x: float, lists: list[list[int]], weights: list[float]) -> tuple[list[int], int]:
    """Jump mode's pick for any number of lists: the list whose share of the
    weight holds what is left of ``x``, and the index the rest falls on; if
    rounding carries ``x`` past every share, index -1 of the last list with
    a share."""
    for w, members in zip(weights, lists):
        share = w * len(members)
        if x < share:
            return members, int(x / w)
        x -= share
    return [m for w, m in zip(weights, lists) if w * len(m)][-1], -1

