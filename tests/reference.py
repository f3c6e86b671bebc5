"""Slow, plain references that the fast code is checked against byte for byte.

* A fold of the discrete chain's update rule: the reference of the
  engine's step mode (``dynamics.run_ump`` with a recorder that tracks
  touched vertices, which keeps step mode for the whole run).  Every
  proposal reads one real ``u`` of the trial's stream: the vertex is
  ``floor(u*n)`` and the removal coin is the fractional part of ``u*n``.
* A set-based graph builder, the reference of ``graph_core.build_graph``.
* The spider forest from plain edge lists, the reference of the numpy
  edges of ``instance_gen.gen_hard_tree`` and so of ``gen_star_tree``.
* The graph file parser that checks one line at a time, the reference of
  ``graph_core.graph_from_text``, which checks the edge lines in bulk:
  the same ``Graph`` arrays, and the same message for the same bad line.
* Randomized greedy as the plain scan: every position of the permutation
  in order, one bool-mask assignment per added vertex.  It is what
  ``dynamics.run_randomized_greedy`` is held to, set and ``TrialRecord``
  alike; the fast path skips blocked positions a block at a time.
* Minimum-degree greedy as a scan of the alive vertices for the fewest
  alive neighbours, the reference of ``dynamics.run_degree_greedy``'s
  heap, which may pop entries that are out of date.
* The projection of an independent set of an explicit clique blowup onto
  its base graph, which criterion 2 compares with the implicit blowup.
* Kuhn's augmenting-path matcher, the reference of the size of
  ``graph_core._max_matching``'s maximum matching, searched from either side.
* The engine's any-number-of-classes code, which the two-class code of
  ``dynamics`` is held to value for value: the step-mode proposals
  (``propose_reference``, a ``searchsorted`` over the classes' shares) and
  the jump-mode pick (``pick_reference``, a loop over the lists).
* The coupled pair of chains with its update rule and order check as
  closures, the reference of ``dynamics.run_coupled_monotone``'s inlined
  loop, report for report; ``coupling_instance`` is the start that the
  coupled-chain tests share.
* ``read_csv``: the rows of any CSV a run writes, as dicts of strings,
  without the trial_id checks of ``harness.read_trials``.
"""

from __future__ import annotations

import csv
import re

import numpy as np

from annealbench import rng as rngmod
from annealbench.dynamics import (
    _COUPLED_CHUNK,
    CouplingReport,
    RateClasses,
    TrialRecord,
    removal_threshold,
)
from annealbench.errors import InvalidEdge, NotIndependent
from annealbench.graph_core import SIDE_L, SIDE_R, Graph, build_graph, is_independent
from annealbench.instance_gen import BlowupParams
from annealbench.schedules import FugacitySchedule


def read_csv(path) -> list[dict]:
    """Rows of a ``run.csv``, ``stats.csv`` or ``traj.csv`` file, as dicts of strings."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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
    lam = 1.0
    seg_end = 0
    step_of_max = 0
    for t, u in enumerate(us):
        if t >= seg_end:
            lam, hold = sched.segment(t, state.max_size_seen, step_of_max)
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


def spider_forest_reference(k: int, copies: int, apex: bool) -> Graph:
    """Copy roots ``0, 2k+1, ...``; each root joins its mids ``root+1..root+k``
    and mid ``root+i`` its leaf ``root+k+i``; the apex, last, joins every root."""
    span = 2 * k + 1
    n = copies * span
    edges = []
    for root in range(0, n, span):
        edges += [(root, root + i) for i in range(1, k + 1)]
        edges += [(root + i, root + k + i) for i in range(1, k + 1)]
    if apex:
        edges += [(n, root) for root in range(0, n, span)]
    return build_graph(n + apex, edges)


def graph_from_text_reference(text: str) -> Graph:
    """``graph_core.graph_from_text`` one line at a time: every token of every
    line is checked with a regex as it comes, and the first bad line raises."""

    def as_int(tok: str, below: int | None = None) -> int:
        if not re.fullmatch(r"-?[0-9]+", tok):
            raise ValueError(f"{tok!r} is not an integer")
        val = int(tok)
        if below is not None and not 0 <= val < below:
            raise ValueError(f"vertex {val} outside [0,{below})")
        return val

    n = claimed_edges = None
    edges: list[int] = []  # u0, v0, u1, v1, ...
    labels: dict[int, int] = {}
    groups: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        tag, *args = raw.split() or ["c"]
        try:
            if tag == "c":
                continue
            if tag == "p":
                if n is not None or len(args) != 3 or args[0] != "is":
                    raise ValueError("want one problem line 'p is <n> <m>'")
                n, claimed_edges = as_int(args[1]), as_int(args[2])
                if min(n, claimed_edges) < 0:
                    raise ValueError("negative count")
            elif tag not in ("e", "l", "g") or len(args) != 2:
                raise ValueError("want 'e <u> <v>', 'l <v> <L|R>' or 'g <v> <group>'")
            elif n is None:
                raise ValueError("comes before the problem line")
            elif tag == "e":
                u, v = as_int(args[0], n), as_int(args[1], n)
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                edges += (u, v)
            elif tag == "l":
                if args[1] not in ("L", "R"):
                    raise ValueError(f"side {args[1]!r} is not L or R")
                v = as_int(args[0], n)
                if v in labels:
                    raise ValueError(f"second 'l' line for vertex {v}")
                labels[v] = SIDE_L if args[1] == "L" else SIDE_R
            else:
                group, v = as_int(args[1]), as_int(args[0], n)
                if v in groups:
                    raise ValueError(f"second 'g' line for vertex {v}")
                groups[v] = group
        except ValueError as exc:
            raise InvalidEdge(f"line {lineno}: {exc}: {raw.strip()!r}") from None
    if n is None:
        raise InvalidEdge("missing problem line")
    g = build_graph(
        n, np.array(edges, dtype=np.int64).reshape(-1, 2), labels=labels or None, groups=groups or None
    )
    if g.num_edges != claimed_edges:
        raise InvalidEdge(f"problem line claims {claimed_edges} edges, file has {g.num_edges}")
    return g


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
    record = TrialRecord(g.n, size, last_add_pos, size)
    return frozenset(chosen), record


def degree_greedy_reference(g: Graph) -> frozenset[int]:
    """Take the alive vertex with the fewest alive neighbours (lowest index
    on ties), delete it and its neighbours, and repeat until none is alive."""
    alive = set(range(g.n))
    chosen = []
    while alive:
        v = min(alive, key=lambda u: (sum(w in alive for w in g.neighbor_lists[u]), u))
        chosen.append(v)
        alive -= {v, *g.neighbor_lists[v]}
    return frozenset(chosen)


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



def coupling_instance(seed: int):
    """A random 8 + 12 bipartite graph, upper holding all of L and lower a
    random part of R: the start of the coupled-chain tests."""
    gen = np.random.default_rng(seed)
    nl, nr = 8, 12
    labels = {v: SIDE_L if v < nl else SIDE_R for v in range(nl + nr)}
    edges = [(u, nl + w) for u in range(nl) for w in range(nr) if gen.random() < 0.3]
    g = build_graph(nl + nr, edges, labels=labels, bipartite=True)
    upper = list(range(nl))
    lower = [nl + w for w in range(nr) if gen.random() < 0.4]
    return g, upper, lower


def run_coupled_monotone_reference(
    bprime: Graph, upper_init, lower_init, lam: float, events: int, seed: int, control: bool = False
) -> CouplingReport:
    """``dynamics.run_coupled_monotone`` with its update rule and order
    check as the closures ``try_update`` and ``violates``, called once per
    chain update and once per check."""
    n = bprime.n
    adj = bprime.neighbor_lists
    side = bprime.side.tolist()
    thr = removal_threshold(lam)
    up = bytearray(n)
    lo = bytearray(n)
    for v in upper_init:
        up[int(v)] = 1
    for v in lower_init:
        lo[int(v)] = 1
    gen = rngmod.stream(seed)

    def try_update(state: bytearray, v: int, z: float) -> bool:
        """Apply the update rule; returns True if the state changed."""
        if state[v]:
            if z < thr:
                state[v] = 0
                return True
            return False
        for w in adj[v]:
            if state[w]:
                return False
        state[v] = 1
        return True

    def violates(v: int) -> bool:
        if side[v] == 0:
            return lo[v] == 1 and up[v] == 0
        return up[v] == 1 and lo[v] == 0

    violations = 0
    first: int | None = None
    t = 0
    while t < events:
        m = min(_COUPLED_CHUNK, events - t)
        if control:
            v_up = gen.integers(0, n, m).tolist()
            v_lo = gen.integers(0, n, m).tolist()
            c_up = gen.random(m).tolist()
            c_lo = gen.random(m).tolist()
            z_up = gen.random(m).tolist()
            z_lo = gen.random(m).tolist()
        else:
            vs = gen.integers(0, n, m).tolist()
            cs = gen.random(m).tolist()
            zs = gen.random(m).tolist()
        for i in range(m):
            t += 1
            bad = False
            if control:
                if c_up[i] < 0.5:
                    try_update(up, v_up[i], z_up[i])
                    bad = violates(v_up[i])
                if c_lo[i] < 0.5:
                    try_update(lo, v_lo[i], z_lo[i])
                    bad = bad or violates(v_lo[i])
            else:
                v = vs[i]
                if up[v] == lo[v]:
                    if cs[i] >= 0.5:
                        try_update(up, v, zs[i])
                        try_update(lo, v, zs[i])
                else:
                    if cs[i] < 0.5:
                        try_update(up, v, zs[i])
                    else:
                        try_update(lo, v, zs[i])
                bad = violates(v)
            if bad:
                violations += 1
                if first is None:
                    first = t
    return CouplingReport(events=t, violation_events=violations, first_violation=first)
