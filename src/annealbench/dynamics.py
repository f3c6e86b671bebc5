"""Stochastic dynamics over independent sets.

The chains here share one update rule: a proposed vertex joins the current
independent set if none of its neighbors is occupied, and an occupied vertex
leaves when the proposal's removal coin falls below ``1/lambda_t``.  On top
of that rule sit:

* :func:`run_ump`          discrete chain, uniform vertex proposals;
* :func:`run_ct_ump`       continuous-time chain with per-vertex rates and
                           per-vertex fugacity multipliers, simulated as its
                           embedded jump chain;
* :func:`run_randomized_greedy` / :func:`run_degree_greedy` greedy baselines;
* :func:`run_coupled_monotone`  two coupled chains whose order is checked
                           after every event;
* :func:`run_greedy_chain` the two-counter abstraction of greedy on a
                           random balanced bipartite graph.

Both chains run on one engine (:func:`_run_chain`) with two modes.  Step mode
reads one real per proposal and applies the rule; it is the cheaper mode
while many proposals change the state.  Jump mode is the n-fold way of
Bortz, Kalos & Lebowitz (1975) and Gillespie (1977): it keeps the free and
the occupied vertices of each (rate, multiplier) class in swap-remove lists,
skips the Geometric(p) run of proposals that would change nothing, and
applies the next change directly.  The mode is chosen from the past alone,
so a run is exact in law.  Every recorder feature works in both modes, and
steps, maxima, hitting steps, snapshots and probes count proposals in both.
Both modes read one sequence of uniform reals, so the bytes of a run do not
depend on the block size in which the reals are drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, count
from math import log, log1p
from operator import mul

import numpy as np

from . import rng as rngmod
from .errors import (
    InvalidFugacity,
    InvalidRate,
    NotIndependent,
)
from .graph_core import SIDE_L, SIDE_R, Graph, is_independent
from .schedules import FugacitySchedule, HistoryDigest

_CHUNK = 1 << 15  # most reals drawn from a stream at once; bytes do not depend on it
_NEVER = 1 << 62
# Step mode enters jump mode after a window of n proposals of which fewer
# than 1/8 changed the state; jump mode returns to step mode as soon as the
# exact share p of useful proposals exceeds 1/4.
_ENTER_JUMP = 1 / 8
_LEAVE_JUMP = 1 / 4
_GREEDY_BLOCK = 256  # randomized greedy filters this many positions per numpy gather


def removal_threshold(lam: float) -> float:
    """Removal acceptance probability 1/lambda, with 1/inf = 0."""
    if math.isnan(lam) or lam < 1.0:
        raise InvalidFugacity(f"fugacity {lam} outside [1, inf]")
    return 0.0 if math.isinf(lam) else 1.0 / lam


# ---------------------------------------------------------------------------
# Trial records and recorder configuration


@dataclass(frozen=True)
class RecorderConfig:
    """What a simulation loop should measure while it runs; one is shared by
    every trial of a run."""

    thresholds: tuple[int, ...] = ()
    snapshot_every: int | None = None  # default: no snapshots
    watch: tuple[int, ...] = ()  # "root added" vertices
    probe_step: int | None = None
    probe_vertices: tuple[int, ...] = ()
    early_stop_size: int | None = None
    keep_final_state: bool = False
    track_clouds: bool = False
    track_touched: bool = False
    check_every: int | None = None  # debug: re-verify independence

    def __post_init__(self):
        for key in ("snapshot_every", "probe_step", "check_every"):
            if (getattr(self, key) or 0) < 0:
                raise ValueError(f"{key} must be >= 0, not {getattr(self, key)}")
        if (self.early_stop_size or 1) < 1:
            raise ValueError(f"early_stop_size must be >= 1, not {self.early_stop_size}")
        if min(self.thresholds, default=1) < 1:
            raise ValueError(f"thresholds must be >= 1, not {self.thresholds}")


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
    events: int = 0  # state changes
    skipped: int = 0  # proposals passed over in jump mode


# ---------------------------------------------------------------------------
# Proposal classes


@dataclass(frozen=True)
class RateClasses:
    """Vertices grouped by equal (rate, multiplier), classes in sorted order.

    ``of[v]`` is the class of ``v``; ``members`` lists the vertices class by
    class, ``counts[c]`` of them in class ``c``.
    """

    of: list[int]
    rates: list[float]
    multipliers: list[float]
    members: np.ndarray
    counts: list[int]

    @staticmethod
    def uniform(n: int) -> "RateClasses":
        """The discrete chain's one class: every vertex at rate 1, multiplier 1."""
        return RateClasses([0] * n, [1.0], [1.0], np.arange(n), [n])

    @cached_property
    def total_rate(self) -> float:
        return float(np.dot(self.rates, self.counts))

    def weights(self, thr: float) -> list[float]:
        """Jump mode's weight per member of each free, then occupied, list."""
        return self.rates + [r * thr / m for r, m in zip(self.rates, self.multipliers)]

    @cached_property
    def _tables(self) -> tuple[np.ndarray, ...]:
        rates, counts = np.asarray(self.rates), np.asarray(self.counts)
        weights = rates * counts
        bounds = np.cumsum(weights)
        offsets = np.cumsum(counts) - counts
        return bounds, bounds - weights, rates, counts, np.asarray(self.multipliers), offsets

    def propose(self, u: np.ndarray) -> tuple[np.ndarray, list[int], list[float]]:
        """The proposals that the reals ``u`` make in step mode: a vertex
        with probability proportional to its rate, and its removal coin,
        uniform on [0, multiplier of the vertex), so that the vertex leaves
        when the coin is below ``1/lambda``.  One class: vertex
        ``members[floor(u*n)]``, coin the fractional part of ``u*n`` times
        the multiplier.  Returns the vertices as an array and a list, and
        the coins as a list."""
        if len(self.counts) == 1:
            y = u * self.counts[0]
            i = y.astype(np.intp)
            coins = (y - i) * self.multipliers[0]
        else:
            bounds, lows, rates, counts, mults, offsets = self._tables
            x = u * bounds[-1]
            c = np.minimum(np.searchsorted(bounds, x, side="right"), len(bounds) - 1)
            y = (x - lows[c]) / rates[c]
            i = np.minimum(y.astype(np.intp), counts[c] - 1)
            coins = (y - i) * mults[c]
            i += offsets[c]
        v = self.members[i]
        return v, v.tolist(), coins.tolist()


# ---------------------------------------------------------------------------
# The engine
#
# In step mode each real of the stream is one proposal (`RateClasses.propose`).
# Jump mode keeps, for each class c of rate r_c and multiplier m_c, its free
# vertices (unoccupied, no occupied neighbor) and its occupied vertices in
# swap-remove lists sharing one position array.  A proposal changes the state
# with probability
#     p = (sum_c r_c |free_c| + sum_c r_c |occ_c| / (m_c lambda)) / R,
# so the no-ops before the next change are Geometric(p).  A segment end
# redraws that count (exact, because the geometric law is memoryless);
# recorder marks and the step budget only stop at it, so they do not change
# the trajectory.  One more real then picks a list by weight and a member of
# that list.
#
# One loop applies the update rule and its recorder bookkeeping to
# (vertex, coin, step) items: a block of stepped proposals, or the changes
# that `jump_batch` yields one after another, without a trip through the
# outer loop, until the next change lies past the cut (segment end, recorder
# mark or step budget), a change lands on the cut, the block runs short of
# two reals, p exceeds 1/4 or the run stops early.  The bytes are those of
# one change per outer trip: each change reads the same two reals, the list
# weight is summed from the integer list lengths in one order (a float total
# kept by +-w would drift and move skip counts), and the pick keeps its
# rounding fallback.


def _run_chain(
    g: Graph,
    sched: FugacitySchedule,
    steps: int,
    gen: np.random.Generator,
    rec: RecorderConfig,
    seed_label: int,
    classes: RateClasses,
) -> TrialRecord:
    n = g.n
    adj = g.neighbor_lists
    occ = bytearray(n)
    blocked = [0] * n
    cls = classes.of
    nclasses = len(classes.rates)
    total_rate = classes.total_rate
    side_list = g.side.tolist() if g.side is not None else None
    grp_list = g.group.tolist() if (rec.track_clouds and g.group is not None) else None

    size = 0
    sides = [0, 0, 0]  # occupied vertices on side L, side R, no side (SIDE_NONE = -1)
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

    if grp_list is not None:
        # one load per group, and a last slot that NO_GROUP = -1 indexes
        loads = [0] * (int(max(grp_list)) + 2)
        deloaded = bytearray(len(loads))  # groups whose load returned to 0

    # Touched vertices are marked per block of stepped proposals; a recorder
    # that tracks them keeps step mode for the whole run.
    touched = np.zeros(n, dtype=bool) if rec.track_touched else None

    marks = _Marks(g, rec)
    next_mark = marks.next

    digest = HistoryDigest(occupied=occ)

    # The stream: `block` holds reals not yet read from position k on; its
    # floats (`reals`, for jump mode) and its proposals (`props`, for step
    # mode) are made when a mode first reads the block.
    block = np.empty(0)
    reals = props = None
    k = end = 0
    chunk = _CHUNK
    block_len = min(64, chunk)  # blocks double up to `chunk`: short runs stay cheap

    jumping = False
    window_end = n  # step mode: the end of the current window of n proposals
    window_events = 0  # `events` when that window began
    events = 0  # state changes so far
    skipped = 0  # proposals passed over in jump mode
    free = held = lists = pos = None  # jump mode's index
    thr = 0.0
    weights: list[float] = []  # jump mode: per-member weight of each list
    change_at = 0  # jump mode: the step of the pending state change
    stale = True  # jump mode: no change is pending; draw the next one
    leave = False

    def jump_batch(t, cut, reals, end, lists, weights):
        """Jump mode's batch: the state changes, as (vertex, a coin that
        removes, step), up to ``cut``; see the comment above the engine."""
        nonlocal k, change_at, stale, leave
        j = k
        at = change_at
        draw = stale
        single = nclasses == 1
        if single:
            (free0, held0), (wf, wh) = lists, weights
        while True:
            if single:
                sf, sh = wf * len(free0), wh * len(held0)
                weight = sf + sh  # the sum below, in the same order
            else:
                weight = sum(map(mul, weights, map(len, lists)))
            if draw:
                p = weight / total_rate
                if p > _LEAVE_JUMP:
                    leave = True
                    break
                # the step of the next change, after Geometric(p) no-ops
                at = t + 1 + int(log(1.0 - reals[j]) / log1p(-p)) if weight else math.inf
                j += 1
            if at > cut:
                stale = False
                break
            x = reals[j] * weight
            j += 1
            if single:
                if x < sf:
                    members, i = free0, int(x / wf)
                elif x - sf < sh:
                    members, i = held0, int((x - sf) / wh)
                else:
                    members, i = held0 if sh else free0, -1
            else:
                for w, members in zip(weights, lists):
                    share = w * len(members)
                    if x < share:
                        i = int(x / w)
                        break
                    x -= share
                else:  # rounding carried x past the last list: take its last member
                    members = [m for w, m in zip(weights, lists) if w * len(m)][-1]
                    i = -1
            yield members[i] if i < len(members) else members[-1], -1.0, at
            t = at
            draw = True
            if t == cut or j + 2 > end:
                stale = True
                break
        k = j
        change_at = at

    t = 0
    seg_end = 0
    while t < steps:
        if t >= seg_end:
            digest.t, digest.size = t, size
            digest.max_size, digest.step_of_max = max_size, step_of_max
            lam, hold = sched.segment(t, digest)
            seg_end = t + hold
            thr = removal_threshold(lam)
            weights = classes.weights(thr)
            stale = True
        if k + 2 > end:
            block = np.concatenate((block[k:], gen.random(max(block_len, 2))))
            block_len = min(2 * block_len, chunk)
            reals = props = None
            k = 0
            end = len(block)
        cut = seg_end if seg_end < next_mark else next_mark
        if steps < cut:
            cut = steps
        if jumping:
            if reals is None:
                reals = block.tolist()
            batch = jump_batch(t, cut, reals, end, lists, weights)
        else:
            if props is None:
                props = classes.propose(block)
            cut = min(cut, window_end, t + end - k)
            start = t
            batch = zip(props[1][k : k + cut - t], props[2][k : k + cut - t], count(t + 1))

        # The update rule, for a stepped proposal and a jump-mode change alike.
        stop = False
        for v, z, t in batch:
            if occ[v]:
                if z >= thr:
                    continue
                occ[v] = 0
                size -= 1
                events += 1
                if jumping:
                    members = held[cls[v]]
                    i = pos[v]
                    last = members.pop()
                    if last != v:
                        members[i] = last
                        pos[last] = i
                    members = free[cls[v]]
                    pos[v] = len(members)
                    members.append(v)
                    for w in adj[v]:
                        b = blocked[w] - 1
                        blocked[w] = b
                        if not b:
                            members = free[cls[w]]
                            pos[w] = len(members)
                            members.append(w)
                else:
                    for w in adj[v]:
                        blocked[w] -= 1
                if side_list is not None:
                    sides[side_list[v]] -= 1
                if grp_list is not None:
                    gid = grp_list[v]
                    loads[gid] -= 1
                    if not loads[gid]:
                        deloaded[gid] = 1
            elif blocked[v]:
                continue
            else:
                occ[v] = 1
                size += 1
                events += 1
                if jumping:
                    members = free[cls[v]]
                    i = pos[v]
                    last = members.pop()
                    if last != v:
                        members[i] = last
                        pos[last] = i
                    members = held[cls[v]]
                    pos[v] = len(members)
                    members.append(v)
                    for w in adj[v]:
                        b = blocked[w]
                        if not b:
                            members = free[cls[w]]
                            i = pos[w]
                            last = members.pop()
                            if last != w:
                                members[i] = last
                                pos[last] = i
                        blocked[w] = b + 1
                else:
                    for w in adj[v]:
                        blocked[w] += 1
                if side_list is not None:
                    sides[side_list[v]] += 1
                if grp_list is not None:
                    loads[grp_list[v]] += 1
                if watch_arr is not None and watch_arr[v]:
                    root_added = True
                if size > max_size:
                    max_size = size
                    step_of_max = t
                    while ti < nthr and size >= thr_sorted[ti]:
                        hits[thr_sorted[ti]] = t
                        ti += 1
                    if size >= early:
                        stop = True
                        break
        if not jumping:
            if touched is not None:
                touched[props[0][k : k + t - start]] = True
            k += t - start
        if stop:
            break
        if leave:
            leave = jumping = False
            skipped += t - events
            free = held = lists = pos = None
            window_end = t + n
            window_events = events
        elif jumping and not stale:
            t = cut  # the change stays pending: marks do not move it
        if t == next_mark:
            next_mark = marks.visit(t, size, sides[SIDE_L], sides[SIDE_R], occ)
        if t == window_end and not jumping:
            if touched is None and events - window_events < _ENTER_JUMP * n:
                jumping = True
                skipped -= t - events
                lists, pos = _jump_index(occ, blocked, classes)
                free, held = lists[:nclasses], lists[nclasses:]
                stale = True
            else:
                window_end = t + n
                window_events = events
    if jumping:
        skipped += t - events

    record = TrialRecord(
        seed=seed_label,
        steps=t,
        max_size=max_size,
        step_of_max=step_of_max,
        final_size=size,
        hitting_steps=hits,
        snapshots=marks.snapshots,
        final_left=sides[SIDE_L] if side_list is not None else -1,
        final_right=sides[SIDE_R] if side_list is not None else -1,
        root_added=root_added,
        probe_count=marks.probe_count,
        events=events,
        skipped=skipped,
    )
    if grp_list is not None:
        record.deload_final = sum(deloaded[:-1])
    if touched is not None and g.side is not None:
        record.right_touched = int(np.count_nonzero(touched & (g.side == SIDE_R)))
    if rec.keep_final_state:
        record.final_state = frozenset(compress(range(n), occ))
    return record


def _jump_index(
    occ: bytearray, blocked: list[int], classes: RateClasses
) -> tuple[list[list[int]], list[int]]:
    """Jump mode's lists, built in O(n): the free vertices of each class,
    then the occupied vertices of each class; and the position of every
    listed vertex in its list."""
    nclasses = len(classes.rates)
    lists: list[list[int]] = [[] for _ in range(2 * nclasses)]
    pos = [0] * len(occ)
    for v, c in enumerate(classes.of):
        if occ[v]:
            members = lists[nclasses + c]
        elif blocked[v]:
            continue
        else:
            members = lists[c]
        pos[v] = len(members)
        members.append(v)
    return lists, pos


class _Marks:
    """The recorder's step marks: a snapshot every ``snapshot_every`` steps,
    the probe step and debug checks.  The engine calls :meth:`visit` when
    step ``next`` is done; it returns the step of the next mark."""

    def __init__(self, g: Graph, rec: RecorderConfig):
        self.g = g
        self.probe_vertices = rec.probe_vertices
        self.snap_every = self.next_snap = rec.snapshot_every or _NEVER
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


def _debug_check(g: Graph, occ: bytearray, size: int) -> None:
    chosen = [v for v in range(g.n) if occ[v]]
    if len(chosen) != size:
        raise AssertionError("size counter out of sync")
    if not is_independent(g, chosen):
        raise NotIndependent("occupied set spans an edge")


def engine(recorder: RecorderConfig | None) -> str:
    """How :func:`run_ump` and :func:`run_ct_ump` run with ``recorder``.

    ``"jump"``: step mode while proposals change the state, jump mode while
    they do not.  ``"step"`` when the recorder tracks touched vertices,
    which needs every proposal: step mode for the whole run.
    """
    return "step" if recorder is not None and recorder.track_touched else "jump"


# ---------------------------------------------------------------------------
# Discrete chain


def run_ump(
    g: Graph,
    sched: FugacitySchedule,
    steps: int,
    seed: int,
    recorder: RecorderConfig | None = None,
) -> TrialRecord:
    """Run the discrete chain from the empty set for ``steps`` proposals.

    A proposal is a uniform vertex and a uniform removal coin.  In step mode
    it reads one real ``u`` of the trial's stream: the vertex is
    ``floor(u*n)`` and the coin the fractional part of ``u*n``.  Jump mode
    skips, in law, the proposals that would change nothing (see
    :func:`engine`).  The reported optimum is the running maximum with
    earliest-step ties.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    rec = recorder or RecorderConfig()
    gen = rngmod.stream(seed)
    return _run_chain(g, sched, steps, gen, rec, seed, RateClasses.uniform(g.n))


# ---------------------------------------------------------------------------
# Continuous-time weighted chain


@dataclass(frozen=True)
class WeightedCTConfig:
    """Per-vertex update rates and fugacity multipliers, plus a horizon.

    Exactly one of ``horizon`` (continuous time, finite and > 0) or
    ``events`` (jump count, >= 1) must be set.  With a horizon, the number
    of events is Poisson with mean ``sum(rates) * horizon``; vertices ring
    proportionally to their rate and vertex ``v`` uses effective fugacity
    ``multipliers[v] * lambda_t``, with the schedule indexed by the number
    of rings so far.
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
        if self.events is not None and self.events < 1:
            raise ValueError(f"events must be >= 1, not {self.events}")
        if self.horizon is not None and not (0.0 < self.horizon < math.inf):
            raise ValueError(f"horizon must be finite and > 0, not {self.horizon}")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "multipliers", mults)

    @property
    def total_rate(self) -> float:
        return float(np.sum(self.rates))

    @cached_property
    def classes(self) -> RateClasses:
        # complex numbers sort by real part, then imaginary part
        keys, of = np.unique(self.rates + 1j * self.multipliers, return_inverse=True)
        return RateClasses(
            of.tolist(),
            keys.real.tolist(),
            keys.imag.tolist(),
            np.argsort(of, kind="stable"),
            np.bincount(of, minlength=len(keys)).tolist(),
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


def run_ct_ump(
    base: Graph,
    cfg: WeightedCTConfig,
    sched: FugacitySchedule,
    seed: int,
    recorder: RecorderConfig | None = None,
) -> TrialRecord:
    """Next-event simulation of the weighted continuous-time chain.

    Inter-event times are exponential in the total rate, so only the jump
    chain is simulated: the event count is drawn Poisson for a time horizon
    (or given directly), each event lands on a vertex with probability
    proportional to its rate, and recorder steps count events.  The engine
    is that of :func:`run_ump` (see :func:`engine`); jump mode skips the
    events that change nothing in law, and the record still counts them.
    """
    if base.side is None:
        raise InvalidRate("continuous-time chain expects a labeled base graph")
    rec = recorder or RecorderConfig()
    gen = rngmod.stream(seed)
    if cfg.events is not None:
        n_events = int(cfg.events)
    else:
        n_events = int(gen.poisson(cfg.total_rate * cfg.horizon))
    return _run_chain(base, sched, n_events, gen, rec, seed, cfg.classes)


# ---------------------------------------------------------------------------
# Greedy baselines


def run_randomized_greedy(
    g: Graph, seed: int
) -> tuple[frozenset[int], TrialRecord]:
    """Scan a uniform vertex permutation, adding whenever unblocked.

    Identical in distribution to the infinite-fugacity chain run to
    saturation: re-draws of decided vertices are no-ops there, so only the
    first-arrival order matters.  Each block of positions after the first
    drops its blocked vertices with one gather; the rest are checked again,
    as an add can block a later vertex of its own block.  Same set and
    record as the plain scan in ``tests/reference.py``.
    """
    perm = rngmod.stream(seed).permutation(g.n)
    nbrs = g.neighbor_arrays
    # Read one vertex at a time as a bytearray; block a neighbourhood at once
    # through a numpy view of the same bytes.
    blocked = bytearray(g.n)
    scatter = np.frombuffer(blocked, dtype=np.uint8)
    chosen: list[int] = []
    last_lo = 0  # first position of the block that made the last add
    for lo in range(0, g.n, _GREEDY_BLOCK):
        block = perm[lo : lo + _GREEDY_BLOCK]
        for v in (block[scatter[block] == 0] if lo else block).tolist():
            if not blocked[v]:
                chosen.append(v)
                blocked[v] = 1
                scatter[nbrs[v]] = 1
                last_lo = lo
    block = perm[last_lo : last_lo + _GREEDY_BLOCK].tolist()
    step_of_max = last_lo + block.index(chosen[-1]) + 1 if chosen else 0
    size = len(chosen)
    return frozenset(chosen), TrialRecord(seed, g.n, size, step_of_max, size)


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


def run_greedy_chain(n: int, p: float, seed: int) -> GreedyChainResult:
    """Simulate the (side, L_t, R_t) chain for 2n steps.

    A fair coin picks the side; the chosen side grows with probability
    ``(1-p)`` to the power of the other side's count.  The compensated
    value ``M_t = L_t - R_t - (1/2) * sum_s (q^{R_s} - q^{L_s})`` is a
    martingale and is recorded at 16 evenly spaced checkpoints and at the
    last step.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    gen = rngmod.stream(seed)
    q = 1.0 - p
    steps = 2 * n
    every = max(1, steps // 16)
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
