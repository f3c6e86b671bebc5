"""Stochastic dynamics over independent sets.

The engines here all share one update rule: a proposed vertex joins the
current independent set if none of its neighbors is occupied, and an
occupied vertex is removed when the step's uniform draw falls below
``1/lambda_t``.  On top of that rule sit:

* :func:`run_ump`          discrete chain, uniform vertex proposals;
* :func:`run_ct_ump`       continuous-time chain with per-vertex rates and
                           per-vertex fugacity multipliers, simulated as its
                           embedded jump chain by a rejection-free engine;
* :func:`run_randomized_greedy` / :func:`run_degree_greedy` greedy baselines;
* :func:`run_coupled_monotone`  two coupled chains whose order is checked
                           after every event;
* :func:`run_greedy_chain` the two-counter abstraction of greedy on a
                           random balanced bipartite graph.

Hot loops consume pre-sampled chunks from a counter-based stream, maintain
per-vertex blocked counters (updated only when a vertex flips), and keep
all per-step bookkeeping O(1), so one trial with 10^7 events is practical
in pure Python.

Two engines share the recorder contract (steps, maxima, hitting steps,
snapshots and probes all count proposals).  The step engine
(:func:`_simulate`) draws every proposal; it runs the discrete chain and is
its byte reference.  The rejection-free engine (:func:`_simulate_jump`,
the n-fold way of Bortz, Kalos & Lebowitz 1975; Gillespie 1977) runs the
weighted chain: it keeps the free and the occupied vertices of each
(rate, multiplier) class in swap-remove lists, skips the Geometric(p) run
of proposals that would change nothing, and applies the next state change
directly.  It is exact in law, not byte-equal, to stepping; only a recorder
that tracks touched vertices, which must see every proposal, sends the
weighted chain to the step engine (:func:`ct_engine`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import rng as rngmod
from .errors import (
    InvalidFugacity,
    InvalidRate,
    NotIndependent,
)
from .graph_core import SIDE_L, Graph, IndependentSetState, is_independent
from .instance_gen import BlowupParams
from .schedules import FugacitySchedule, HistoryDigest

_CHUNK = 1 << 15
_NEVER = 1 << 62


# ---------------------------------------------------------------------------
# Single-step update rule


def removal_threshold(lam: float) -> float:
    """Removal acceptance probability 1/lambda, with 1/inf = 0."""
    if math.isnan(lam) or lam < 1.0:
        raise InvalidFugacity(f"fugacity {lam} outside [1, inf]")
    return 0.0 if math.isinf(lam) else 1.0 / lam


def ump_update(
    state: IndependentSetState, g: Graph, v: int, zeta: float, lam: float
) -> IndependentSetState:
    """Apply one proposal to ``state`` in place and return it.

    Unoccupied ``v`` is added iff no neighbor is occupied; occupied ``v``
    is removed iff ``zeta <= 1/lam``.  Everything else is a no-op.
    """
    thr = removal_threshold(lam)
    occ = state.occupied
    if occ[v]:
        if zeta <= thr:
            occ[v] = 0
            state.size -= 1
    else:
        for w in g.neighbor_lists[v]:
            if occ[w]:
                break
        else:
            occ[v] = 1
            state.size += 1
            if state.size > state.max_size_seen:
                state.max_size_seen = state.size
    state.step += 1
    return state


# ---------------------------------------------------------------------------
# Trial records and recorder configuration


@dataclass
class RecorderConfig:
    """What a simulation loop should measure while it runs."""

    thresholds: tuple[int, ...] = ()
    snapshot_every: int | None = None  # default: ~1000 snapshots per run
    watch: tuple[int, ...] = ()  # "root added" vertices
    probe_step: int | None = None
    probe_vertices: tuple[int, ...] = ()
    early_stop_size: int | None = None
    keep_final_state: bool = False
    keep_argmax_state: bool = False
    track_clouds: bool = False
    track_touched: bool = False
    check_every: int | None = None  # debug: re-verify independence


@dataclass
class TrialRecord:
    """Measurements from one trial."""

    seed: int
    steps: int
    max_size: int
    step_of_max: int
    final_size: int
    hitting_steps: dict[int, int] = field(default_factory=dict)
    snapshots: list[tuple[int, int, int, int]] = field(default_factory=list)
    final_left: int = -1
    final_right: int = -1
    root_added: bool = False
    deload_final: int | None = None
    right_touched: int | None = None
    probe_count: int | None = None
    final_state: frozenset[int] | None = None
    argmax_state: frozenset[int] | None = None


# ---------------------------------------------------------------------------
# Step engine
#
# `multipliers` is None for the uniform-fugacity discrete chain (scalar
# threshold per schedule segment) or a vector of per-vertex multipliers for
# the weighted chain, whose proposals are drawn through `rate_cdf`.


def _simulate(
    g: Graph,
    sched: FugacitySchedule,
    steps: int,
    gen: np.random.Generator,
    rec: RecorderConfig,
    seed_label: int,
    multipliers: np.ndarray | None = None,
    rate_cdf: np.ndarray | None = None,
    chunk: int = _CHUNK,
) -> TrialRecord:
    n = g.n
    adj = g.neighbor_lists
    occ = bytearray(n)
    blocked = [0] * n
    side_list = g.side.tolist() if g.side is not None else None
    grp_list = g.group.tolist() if (rec.track_clouds and g.group is not None) else None

    size = 0
    lsize = 0
    rsize = 0
    max_size = 0
    step_of_max = 0
    root_added = False

    thr_sorted = sorted(set(int(x) for x in rec.thresholds))
    hits: dict[int, int] = {}
    ti = 0
    nthr = len(thr_sorted)

    early = rec.early_stop_size if rec.early_stop_size is not None else _NEVER

    watch_arr = None
    if rec.watch:
        watch_arr = bytearray(n)
        for v in rec.watch:
            watch_arr[v] = 1

    loads = None
    deload_count = 0
    if grp_list is not None:
        loads = [0] * (int(max(grp_list)) + 1)
        deloaded = bytearray(len(loads))

    touched = bytearray(n) if rec.track_touched else None

    marks = _Marks(g, rec, steps)
    next_mark = marks.next

    argmax_bytes = bytes(occ) if rec.keep_argmax_state else None

    # Per-vertex removal thresholds (weighted chain) or a scalar one.
    per_vertex = multipliers is not None
    thr_list: list[float] = []
    thr = 0.0

    digest = HistoryDigest(occupied=occ)

    t = 0
    seg_end = 0
    running = True
    while running and t < steps:
        m = min(chunk, steps - t)
        if rate_cdf is None:
            vs = gen.integers(0, n, m).tolist()
        else:
            vs = np.searchsorted(rate_cdf, gen.random(m), side="right").tolist()
        zs = gen.random(m).tolist()
        for idx in range(m):
            t += 1
            if t > seg_end:
                lam, hold = sched.segment(
                    t - 1, _digest_at(digest, t - 1, size, max_size, step_of_max)
                )
                if per_vertex:
                    if math.isinf(lam):
                        thr_list = [0.0] * n
                    else:
                        thr_list = (1.0 / (multipliers * lam)).tolist()
                else:
                    thr = removal_threshold(lam)
                seg_end = t + hold - 1
            v = vs[idx]
            if touched is not None:
                touched[v] = 1
            if occ[v]:
                if zs[idx] <= (thr_list[v] if per_vertex else thr):
                    occ[v] = 0
                    size -= 1
                    for w in adj[v]:
                        blocked[w] -= 1
                    if side_list is not None:
                        s = side_list[v]
                        if s == 0:
                            lsize -= 1
                        elif s == 1:
                            rsize -= 1
                    if grp_list is not None:
                        gid = grp_list[v]
                        if gid >= 0:
                            newload = loads[gid] - 1
                            loads[gid] = newload
                            if newload == 0 and not deloaded[gid]:
                                deloaded[gid] = 1
                                deload_count += 1
            elif not blocked[v]:
                occ[v] = 1
                size += 1
                for w in adj[v]:
                    blocked[w] += 1
                if side_list is not None:
                    s = side_list[v]
                    if s == 0:
                        lsize += 1
                    elif s == 1:
                        rsize += 1
                if grp_list is not None:
                    gid = grp_list[v]
                    if gid >= 0:
                        loads[gid] += 1
                if watch_arr is not None and watch_arr[v]:
                    root_added = True
                if size > max_size:
                    max_size = size
                    step_of_max = t
                    if argmax_bytes is not None:
                        argmax_bytes = bytes(occ)
                    while ti < nthr and size >= thr_sorted[ti]:
                        hits[thr_sorted[ti]] = t
                        ti += 1
                    if size >= early:
                        running = False
                        break
            if t == next_mark:
                next_mark = marks.visit(t, size, lsize, rsize, occ)

    record = TrialRecord(
        seed=seed_label,
        steps=t,
        max_size=max_size,
        step_of_max=step_of_max,
        final_size=size,
        hitting_steps=hits,
        snapshots=marks.snapshots,
        final_left=lsize if side_list is not None else -1,
        final_right=rsize if side_list is not None else -1,
        root_added=root_added,
        probe_count=marks.probe_count,
    )
    if grp_list is not None:
        record.deload_final = deload_count
    if touched is not None and side_list is not None:
        record.right_touched = sum(
            1 for v in range(n) if touched[v] and side_list[v] == 1
        )
    if rec.keep_final_state:
        record.final_state = frozenset(v for v in range(n) if occ[v])
    if argmax_bytes is not None:
        record.argmax_state = frozenset(v for v in range(n) if argmax_bytes[v])
    return record


class _Marks:
    """The recorder's step marks, the same for both engines: a snapshot
    every ``snapshot_every`` steps, the probe step and debug checks.  An
    engine calls :meth:`visit` when step ``next`` is done; it returns the
    step of the next mark."""

    def __init__(self, g: Graph, rec: RecorderConfig, steps: int):
        self.g = g
        self.probe_vertices = rec.probe_vertices
        snap_every = rec.snapshot_every
        if snap_every is None:
            snap_every = max(1, math.ceil(steps / 1000))
        self.snap_every = self.next_snap = snap_every
        self.snapshots: list[tuple[int, int, int, int]] = []
        self.probe_step = rec.probe_step if rec.probe_step is not None else _NEVER
        self.probe_count: int | None = None
        self.check_every = self.next_check = rec.check_every if rec.check_every else _NEVER
        self.next = min(self.next_snap, self.probe_step, self.next_check)

    def visit(self, t: int, size: int, lsize: int, rsize: int, occ: bytearray) -> int:
        if t == self.next_snap:
            self.snapshots.append((t, size, lsize, rsize))
            self.next_snap += self.snap_every
        if t == self.probe_step:
            self.probe_count = sum(occ[u] for u in self.probe_vertices)
        if t == self.next_check:
            _debug_check(self.g, occ, size)
            self.next_check += self.check_every
        self.next = min(
            self.next_snap, self.probe_step if self.probe_step > t else _NEVER, self.next_check
        )
        return self.next


def _digest_at(
    digest: HistoryDigest, t: int, size: int, max_size: int, step_of_max: int
) -> HistoryDigest:
    digest.t = t
    digest.size = size
    digest.max_size = max_size
    digest.step_of_max = step_of_max
    return digest


def _debug_check(g: Graph, occ: bytearray, size: int) -> None:
    chosen = [v for v in range(g.n) if occ[v]]
    if len(chosen) != size:
        raise AssertionError("size counter out of sync")
    if not is_independent(g, chosen):
        raise NotIndependent("occupied set spans an edge")


# ---------------------------------------------------------------------------
# Rejection-free engine (n-fold way)
#
# Equal in law to `_simulate` with per-vertex multipliers and rate-weighted
# proposals, but it never draws a proposal that changes nothing.  Vertices
# fall into classes of equal (rate, multiplier); each class keeps its free
# vertices (unoccupied, no occupied neighbor) and its occupied vertices in
# swap-remove lists sharing one position array.  A proposal changes the
# state with probability
#     p = (sum_c r_c |free_c| + sum_c r_c |occ_c| / (m_c lambda)) / R,
# so the no-ops before the next event are Geometric(p); the skip is cut at
# the next segment end, recorder mark or step budget and redrawn there,
# which is exact because the geometric law is memoryless.  The event then
# picks a (class, free-or-occupied) bucket by weight and a uniform member.


def _reals(gen: np.random.Generator, chunk: int):
    """The stream's uniform reals one at a time, drawn in blocks that double
    up to ``chunk`` (short runs stay cheap); the sequence does not depend on
    ``chunk``."""
    size = min(64, chunk)
    while True:
        yield from gen.random(size).tolist()
        size = min(2 * size, chunk)


def _simulate_jump(
    g: Graph,
    sched: FugacitySchedule,
    steps: int,
    gen: np.random.Generator,
    rec: RecorderConfig,
    seed_label: int,
    classes: RateClasses,
    chunk: int = _CHUNK,
) -> TrialRecord:
    n = g.n
    adj = g.neighbor_lists
    occ = bytearray(n)
    blocked = [0] * n
    side_list = g.side.tolist() if g.side is not None else None
    grp_list = g.group.tolist() if (rec.track_clouds and g.group is not None) else None

    cls, crate, cmult = classes.of, classes.rates, classes.multipliers
    free = [list(m) for m in classes.members]  # everything is free in the empty set
    held: list[list[int]] = [[] for _ in crate]
    pos = list(classes.index)  # index of v in the one list (free or held) that holds it
    total_rate = sum(r * len(lst) for r, lst in zip(crate, free))
    cthr = [0.0] * len(crate)

    size = 0
    lsize = 0
    rsize = 0
    max_size = 0
    step_of_max = 0
    root_added = False

    thr_sorted = sorted(set(int(x) for x in rec.thresholds))
    hits: dict[int, int] = {}
    ti = 0
    nthr = len(thr_sorted)

    early = rec.early_stop_size if rec.early_stop_size is not None else _NEVER

    watch_arr = None
    if rec.watch:
        watch_arr = bytearray(n)
        for v in rec.watch:
            watch_arr[v] = 1

    loads = None
    deload_count = 0
    if grp_list is not None:
        loads = [0] * (int(max(grp_list)) + 1)
        deloaded = bytearray(len(loads))

    marks = _Marks(g, rec, steps)
    next_mark = marks.next

    argmax_bytes = bytes(occ) if rec.keep_argmax_state else None

    digest = HistoryDigest(occupied=occ)
    draw = _reals(gen, chunk).__next__

    t = 0
    seg_end = 0
    stale = True
    while t < steps:
        if t >= seg_end:
            lam, hold = sched.segment(t, _digest_at(digest, t, size, max_size, step_of_max))
            seg_end = t + hold
            cthr = [0.0 if math.isinf(lam) else 1.0 / (m * lam) for m in cmult]
            stale = True
        if stale:
            # (bucket weight, members, adds?) for every bucket that can fire
            buckets = [(r * len(f), f, True) for r, f in zip(crate, free) if f]
            buckets += [
                (r * q * len(h), h, False) for r, q, h in zip(crate, cthr, held) if h and q
            ]
            weight = sum(b[0] for b in buckets)
            p = weight / total_rate
            log_stay = math.log1p(-p) if p < 1.0 else -math.inf
            stale = False
        cut = min(seg_end, next_mark, steps)
        skip = math.log(1.0 - draw()) / log_stay if weight else math.inf
        if skip >= cut - t:
            t = cut  # no event before the cut
        else:
            t += int(skip) + 1
            stale = True
            x = draw() * weight
            for bw, members, adding in buckets:
                if x < bw:
                    break
                x -= bw
            v = members[int(draw() * len(members))]
            # move v out of its list (swap-remove) and into the other one
            i = pos[v]
            last = members.pop()
            if last != v:
                members[i] = last
                pos[last] = i
            other = held[cls[v]] if adding else free[cls[v]]
            pos[v] = len(other)
            other.append(v)
            if adding:
                occ[v] = 1
                size += 1
                for w in adj[v]:
                    b = blocked[w]
                    if not b:
                        f = free[cls[w]]
                        i = pos[w]
                        last = f.pop()
                        if last != w:
                            f[i] = last
                            pos[last] = i
                    blocked[w] = b + 1
                if side_list is not None:
                    s = side_list[v]
                    if s == 0:
                        lsize += 1
                    elif s == 1:
                        rsize += 1
                if grp_list is not None:
                    gid = grp_list[v]
                    if gid >= 0:
                        loads[gid] += 1
                if watch_arr is not None and watch_arr[v]:
                    root_added = True
                if size > max_size:
                    max_size = size
                    step_of_max = t
                    if argmax_bytes is not None:
                        argmax_bytes = bytes(occ)
                    while ti < nthr and size >= thr_sorted[ti]:
                        hits[thr_sorted[ti]] = t
                        ti += 1
                    if size >= early:
                        break
            else:
                occ[v] = 0
                size -= 1
                for w in adj[v]:
                    b = blocked[w] - 1
                    blocked[w] = b
                    if not b:
                        f = free[cls[w]]
                        pos[w] = len(f)
                        f.append(w)
                if side_list is not None:
                    s = side_list[v]
                    if s == 0:
                        lsize -= 1
                    elif s == 1:
                        rsize -= 1
                if grp_list is not None:
                    gid = grp_list[v]
                    if gid >= 0:
                        newload = loads[gid] - 1
                        loads[gid] = newload
                        if newload == 0 and not deloaded[gid]:
                            deloaded[gid] = 1
                            deload_count += 1
        if t == next_mark:
            next_mark = marks.visit(t, size, lsize, rsize, occ)

    record = TrialRecord(
        seed=seed_label,
        steps=t,
        max_size=max_size,
        step_of_max=step_of_max,
        final_size=size,
        hitting_steps=hits,
        snapshots=marks.snapshots,
        final_left=lsize if side_list is not None else -1,
        final_right=rsize if side_list is not None else -1,
        root_added=root_added,
        probe_count=marks.probe_count,
    )
    if grp_list is not None:
        record.deload_final = deload_count
    if rec.keep_final_state:
        record.final_state = frozenset(v for v in range(n) if occ[v])
    if argmax_bytes is not None:
        record.argmax_state = frozenset(v for v in range(n) if argmax_bytes[v])
    return record


# ---------------------------------------------------------------------------
# Discrete chain


def run_ump(
    g: Graph,
    sched: FugacitySchedule,
    steps: int,
    seed: int,
    recorder: RecorderConfig | None = None,
    chunk: int = _CHUNK,
) -> TrialRecord:
    """Run the discrete chain from the empty set for ``steps`` proposals.

    Each step draws a uniform vertex and a uniform real from the trial's
    stream (chunked: a block of vertices, then a block of reals), applies
    the update rule at the schedule's fugacity, and updates the recorder.
    The reported optimum is the running maximum with earliest-step ties.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    rec = recorder or RecorderConfig()
    gen = rngmod.stream(seed)
    return _simulate(g, sched, steps, gen, rec, seed_label=seed, chunk=chunk)


def run_ump_reference(
    g: Graph, sched: FugacitySchedule, steps: int, seed: int
) -> IndependentSetState:
    """Fold :func:`ump_update` over presampled draws (oracle for run_ump).

    Consumes the stream in the same order as a single-chunk engine run, so
    for ``steps <= chunk`` the two trajectories are identical.
    """
    gen = rngmod.stream(seed)
    vs = gen.integers(0, g.n, steps)
    zs = gen.random(steps)
    state = IndependentSetState(g.n)
    digest = HistoryDigest(occupied=state.occupied)
    lam = 1.0
    seg_end = 0
    step_of_max = 0
    for t in range(steps):
        if t + 1 > seg_end:
            digest.t = t
            digest.size = state.size
            digest.max_size = state.max_size_seen
            digest.step_of_max = step_of_max
            lam, hold = sched.segment(t, digest)
            seg_end = t + hold
        before = state.max_size_seen
        ump_update(state, g, int(vs[t]), float(zs[t]), lam)
        if state.max_size_seen > before:
            step_of_max = t + 1
    return state


def state_visit_distribution(
    g: Graph, sched: FugacitySchedule, steps: int, seed: int, chunk: int = _CHUNK
) -> np.ndarray:
    """Time-averaged occupancy-state distribution of the discrete chain.

    Only for tiny graphs (n <= 20): entry ``mask`` is the fraction of steps
    spent in the occupancy bitmask ``mask``.  Uses the same stream layout as
    :func:`run_ump`, so the two trajectories coincide for a shared seed.
    """
    n = g.n
    if n > 20:
        raise ValueError("state tracking is limited to 20 vertices")
    gen = rngmod.stream(seed)
    adj_masks = []
    for v in range(n):
        m = 0
        for w in g.neighbor_lists[v]:
            m |= 1 << w
        adj_masks.append(m)
    bits = [1 << v for v in range(n)]
    visits = [0] * (1 << n)
    mask = 0
    digest = HistoryDigest()
    thr = 0.0
    seg_end = 0
    t = 0
    while t < steps:
        m = min(chunk, steps - t)
        vs = gen.integers(0, n, m).tolist()
        zs = gen.random(m).tolist()
        for idx in range(m):
            t += 1
            if t > seg_end:
                digest.t = t - 1
                lam, hold = sched.segment(t - 1, digest)
                thr = removal_threshold(lam)
                seg_end = t + hold - 1
            v = vs[idx]
            bit = bits[v]
            if mask & bit:
                if zs[idx] <= thr:
                    mask ^= bit
            elif not mask & adj_masks[v]:
                mask |= bit
            visits[mask] += 1
    return np.asarray(visits, dtype=float) / steps


def hardcore_distribution(g: Graph, lam: float) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# Continuous-time weighted chain


@dataclass(frozen=True)
class RateClasses:
    """Vertices grouped by equal (rate, multiplier), classes in sorted order.

    ``of[v]`` is the class of ``v``, ``members[c]`` the vertices of class
    ``c`` in increasing order, and ``index[v]`` the position of ``v`` in
    ``members[of[v]]``.
    """

    of: list[int]
    rates: list[float]
    multipliers: list[float]
    members: list[list[int]]
    index: list[int]


@dataclass(frozen=True)
class WeightedCTConfig:
    """Per-vertex update rates and fugacity multipliers, plus a horizon.

    Exactly one of ``horizon`` (continuous time) or ``events`` (jump count)
    must be set.  With a horizon, the number of events is Poisson with mean
    ``sum(rates) * horizon``; vertices ring proportionally to their rate and
    vertex ``v`` uses effective fugacity ``multipliers[v] * lambda_t``, with
    the schedule indexed by the number of rings so far.
    """

    rates: np.ndarray
    multipliers: np.ndarray
    horizon: float | None = None
    events: int | None = None

    def __post_init__(self):
        rates = np.asarray(self.rates, dtype=float)
        mults = np.asarray(self.multipliers, dtype=float)
        if np.any(rates <= 0) or not np.all(np.isfinite(rates)):
            raise InvalidRate("update rates must be positive and finite")
        if np.any(mults < 1.0):
            raise InvalidFugacity("fugacity multipliers must be >= 1")
        if (self.horizon is None) == (self.events is None):
            raise ValueError("set exactly one of horizon or events")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "multipliers", mults)

    @property
    def total_rate(self) -> float:
        return float(np.sum(self.rates))

    @cached_property
    def classes(self) -> RateClasses:
        # complex numbers sort by real part, then imaginary part
        keys, of = np.unique(self.rates + 1j * self.multipliers, return_inverse=True)
        members = [np.flatnonzero(of == c) for c in range(len(keys))]
        index = np.empty(len(of), dtype=np.int64)
        for m in members:
            index[m] = np.arange(len(m))
        return RateClasses(
            of.tolist(),
            keys.real.tolist(),
            keys.imag.tolist(),
            [m.tolist() for m in members],
            index.tolist(),
        )

    @staticmethod
    def for_sides(
        g: Graph,
        rate_left: float,
        rate_right: float,
        mult_left: float = 1.0,
        mult_right: float = 1.0,
        horizon: float | None = None,
        events: int | None = None,
    ) -> "WeightedCTConfig":
        if g.side is None:
            raise InvalidRate("side-based config needs a labeled graph")
        rates = np.where(g.side == SIDE_L, rate_left, rate_right).astype(float)
        mults = np.where(g.side == SIDE_L, mult_left, mult_right).astype(float)
        return WeightedCTConfig(rates, mults, horizon=horizon, events=events)

    @staticmethod
    def blowup_implicit(
        base: Graph,
        ell: int,
        horizon: float | None = None,
        events: int | None = None,
    ) -> "WeightedCTConfig":
        """Simulate the clique blowup implicitly on its bipartite base.

        Left vertices ring at rate ``ell`` with fugacity multiplier ``ell``
        (a ring picks a uniform clique member: removal needs both the one
        occupied member and its removal draw); right vertices are unchanged.
        """
        return WeightedCTConfig.for_sides(
            base, float(ell), 1.0, float(ell), 1.0, horizon=horizon, events=events
        )


def ct_engine(recorder: RecorderConfig | None) -> str:
    """The engine :func:`run_ct_ump` uses with ``recorder``.

    ``"jump"`` (rejection-free) unless the recorder tracks touched vertices,
    which needs every proposal; then ``"step"``, one proposal at a time.
    """
    return "step" if recorder is not None and recorder.track_touched else "jump"


def run_ct_ump(
    base: Graph,
    cfg: WeightedCTConfig,
    sched: FugacitySchedule,
    seed: int,
    recorder: RecorderConfig | None = None,
    chunk: int = _CHUNK,
) -> TrialRecord:
    """Next-event simulation of the weighted continuous-time chain.

    Inter-event times are exponential in the total rate, so only the jump
    chain is simulated: the event count is drawn Poisson for a time horizon
    (or given directly), each event lands on a vertex with probability
    proportional to its rate, and recorder steps count events.  The
    rejection-free engine skips the events that change nothing in law
    (see :func:`ct_engine`); the record still counts them.
    """
    if base.side is None:
        raise InvalidRate("continuous-time chain expects a labeled base graph")
    rec = recorder or RecorderConfig()
    gen = rngmod.stream(seed)
    if cfg.events is not None:
        n_events = int(cfg.events)
    else:
        n_events = int(gen.poisson(cfg.total_rate * cfg.horizon))
    if ct_engine(rec) == "jump":
        return _simulate_jump(base, sched, n_events, gen, rec, seed, cfg.classes, chunk)
    cdf = np.cumsum(cfg.rates)
    return _simulate(
        base,
        sched,
        n_events,
        gen,
        rec,
        seed_label=seed,
        multipliers=cfg.multipliers,
        rate_cdf=cdf / cdf[-1],
        chunk=chunk,
    )


# ---------------------------------------------------------------------------
# Projection from a blowup state to its base


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
    n, k, ell = params.n, params.k, params.ell
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


# ---------------------------------------------------------------------------
# Greedy baselines


def run_randomized_greedy(
    g: Graph, seed: int
) -> tuple[frozenset[int], TrialRecord]:
    """Scan a uniform vertex permutation, adding whenever unblocked.

    Identical in distribution to the infinite-fugacity chain run to
    saturation: re-draws of decided vertices are no-ops there, so only the
    first-arrival order matters.
    """
    gen = rngmod.stream(seed)
    perm = gen.permutation(g.n)
    blocked = np.zeros(g.n, dtype=bool)
    offs = g.adj_offsets
    targets = g.adj_targets
    chosen: list[int] = []
    last_add_pos = 0
    for pos, v in enumerate(perm.tolist()):
        if not blocked[v]:
            chosen.append(v)
            blocked[v] = True
            targets_v = targets[offs[v] : offs[v + 1]]
            blocked[targets_v] = True
            last_add_pos = pos + 1
    record = TrialRecord(
        seed=seed,
        steps=g.n,
        max_size=len(chosen),
        step_of_max=last_add_pos,
        final_size=len(chosen),
    )
    return frozenset(chosen), record


def run_degree_greedy(g: Graph) -> frozenset[int]:
    """Repeatedly take a minimum-residual-degree vertex (ties: lowest index)."""
    import heapq

    alive = bytearray(b"\x01" * g.n)
    deg = [g.degree(v) for v in range(g.n)]
    heap = [(deg[v], v) for v in range(g.n)]
    heapq.heapify(heap)
    chosen: list[int] = []
    remaining = g.n
    adj = g.neighbor_lists
    while remaining:
        d, v = heapq.heappop(heap)
        if not alive[v] or d != deg[v]:
            continue
        chosen.append(v)
        # delete closed neighborhood, updating residual degrees
        to_delete = [v] + [w for w in adj[v] if alive[w]]
        for u in to_delete:
            alive[u] = 0
            remaining -= 1
        for u in to_delete:
            for w in adj[u]:
                if alive[w]:
                    deg[w] -= 1
                    heapq.heappush(heap, (deg[w], w))
    return frozenset(chosen)


# ---------------------------------------------------------------------------
# Coupled pair of chains with order checking


@dataclass
class CouplingReport:
    events: int
    violation_events: int
    first_violation: int | None

    @property
    def ordered_throughout(self) -> bool:
        return self.violation_events == 0


def run_coupled_monotone(
    bprime: Graph,
    upper_init,
    lower_init,
    lam: float,
    events: int,
    seed: int,
    control: bool = False,
) -> CouplingReport:
    """Run the shared-clock lazy coupling and check the order after each event.

    Both chains live on ``bprime`` (sides L and R).  The order checked is:
    upper's L-occupancy contains lower's, and upper's R-occupancy is
    contained in lower's.  Coupling: one clock sequence; where the chains
    agree at the rung vertex they share the lazy coin and the update draw,
    where they disagree exactly one of them updates (the coin picks which).
    With ``control=True`` the chains instead use independent clocks and
    draws, which is expected to break the order quickly.
    """
    if bprime.side is None:
        raise InvalidRate("coupled run expects a labeled graph")
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
    if not is_independent(bprime, upper_init):
        raise NotIndependent("upper start is not independent")
    if not is_independent(bprime, lower_init):
        raise NotIndependent("lower start is not independent")

    gen = rngmod.stream(seed)

    def try_update(state: bytearray, v: int, z: float) -> bool:
        """Apply the update rule; returns True if the state changed."""
        if state[v]:
            if z <= thr:
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
        m = min(_CHUNK, events - t)
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


# ---------------------------------------------------------------------------
# Two-counter greedy chain


@dataclass
class GreedyChainResult:
    n: int
    p: float
    left: int
    right: int
    residual: float  # compensated martingale value at the final step
    trajectory: list[tuple[int, int, int, float]]  # (t, L, R, M_t)

    @property
    def total(self) -> int:
        return self.left + self.right

    @property
    def discrepancy(self) -> int:
        return abs(self.left - self.right)


def run_greedy_chain(
    n: int, p: float, seed: int, checkpoints: int = 16
) -> GreedyChainResult:
    """Simulate the (side, L_t, R_t) chain for 2n steps.

    A fair coin picks the side; the chosen side grows with probability
    ``(1-p)`` to the power of the other side's count.  The compensated
    value ``M_t = L_t - R_t - (1/2) * sum_s (q^{R_s} - q^{L_s})`` is a
    martingale and is recorded along the checkpoints.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    gen = rngmod.stream(seed)
    q = 1.0 - p
    steps = 2 * n
    every = max(1, steps // max(1, checkpoints))
    left = right = 0
    q_left = 1.0  # q ** left
    q_right = 1.0  # q ** right
    m_val = 0.0
    traj: list[tuple[int, int, int, float]] = []
    coins = gen.random(steps)
    grows = gen.random(steps)
    for t in range(1, steps + 1):
        comp = 0.5 * (q_right - q_left)
        if coins[t - 1] < 0.5:
            if grows[t - 1] < q_right:
                left += 1
                q_left *= q
                m_val += 1.0
        else:
            if grows[t - 1] < q_left:
                right += 1
                q_right *= q
                m_val -= 1.0
        m_val -= comp
        if t % every == 0 or t == steps:
            traj.append((t, left, right, m_val))
    return GreedyChainResult(
        n=n, p=p, left=left, right=right, residual=m_val, trajectory=traj
    )
