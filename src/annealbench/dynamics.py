"""Stochastic dynamics over independent sets.

The chains here share one update rule: a proposed vertex joins the current
independent set if none of its neighbors is occupied, and an occupied vertex
leaves when the proposal's removal coin falls below ``1/lambda_t``.  On top
of that rule sit:

* :func:`run_ump`          discrete chain, uniform vertex proposals;
* :func:`run_ct_ump`       continuous-time chain with an update rate and a
                           fugacity multiplier per side of a labelled graph,
                           simulated as its embedded jump chain;
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
from functools import cached_property, lru_cache
from itertools import compress, count
from math import log, log1p

import numpy as np

from . import rng as rngmod
from .errors import (
    InvalidFugacity,
    InvalidRate,
    NotIndependent,
)
from .graph_core import SIDE_L, SIDE_R, Graph, is_independent
from .schedules import FugacitySchedule, check_lambda

# The chain engine draws, proposes and converts at most _CHUNK reals at once;
# its bytes do not depend on the value. At 2^13 a block's float64 array is
# 64 KiB, under glibc's 128 KiB mmap threshold, and the block with its
# proposals and Python floats (about 0.8 MiB) stays in L2. The coupled chain
# lays its draws out per block of _COUPLED_CHUNK events, so its bytes do
# depend on that value, and it keeps 2^15.
_CHUNK = 1 << 13
_COUPLED_CHUNK = 1 << 15
_NEVER = 1 << 62
# Step mode enters jump mode after a window of n proposals of which fewer
# than 1/8 changed the state; jump mode returns to step mode as soon as the
# exact share p of useful proposals exceeds 1/4.
_ENTER_JUMP = 1 / 8
_LEAVE_JUMP = 1 / 4
_GREEDY_BLOCK = 256  # randomized greedy filters this many positions per numpy gather
# The value an add writes over its neighbours in the greedy's free mask: a 0-d
# array of the mask's dtype spares numpy converting a Python scalar per write.
# Shared by every scan, so it is read-only.
_NO = np.zeros((), dtype=bool)
_NO.setflags(write=False)


def removal_threshold(lam: float) -> float:
    """Removal acceptance probability 1/lambda, with 1/inf = 0."""
    return 1.0 / check_lambda(lam)


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

    steps: int
    max_size: int
    step_of_max: int
    final_size: int
    hitting_steps: dict[int, int] = field(default_factory=dict)
    snapshots: list[tuple[int, int, int, int]] = field(default_factory=list)
    final_left: int | None = None
    final_right: int | None = None
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
    """Vertices grouped by equal (rate, multiplier): one class, or two in
    sorted order, which jump mode and :meth:`propose` spell out.

    ``of[v]`` is the class of ``v``; ``members`` lists the vertices class by
    class, ``counts[c]`` of them in class ``c``.
    """

    of: list[int]
    rates: list[float]
    multipliers: list[float]
    members: np.ndarray
    counts: list[int]

    @staticmethod
    @lru_cache(maxsize=8)
    def uniform(n: int) -> "RateClasses":
        """The discrete chain's one class, shared read-only: rate 1, multiplier 1."""
        return RateClasses([0] * n, [1.0], [1.0], np.arange(n), [n])

    @cached_property
    def total_rate(self) -> float:
        return float(np.dot(self.rates, self.counts))

    def weights(self, thr: float) -> list[float]:
        """Jump mode's weight per member of each free, then occupied, list."""
        return self.rates + [r * thr / m for r, m in zip(self.rates, self.multipliers)]

    @cached_property
    def _bounds(self) -> tuple[float, float, float]:
        """Two classes: where their shares of the total rate end, and where the
        second starts, as ``bounds - weights`` gives it."""
        weights = np.asarray(self.rates) * self.counts
        bounds = np.cumsum(weights)
        return float(bounds[0]), float(bounds[1]), float(bounds[1] - weights[1])

    def propose(self, u: np.ndarray) -> tuple[np.ndarray, list[int], list[float]]:
        """The proposals that the reals ``u`` make in step mode: a vertex
        with probability proportional to its rate, and its removal coin,
        uniform on [0, multiplier of the vertex), so that the vertex leaves
        when the coin is below ``1/lambda``.  One class: vertex
        ``members[floor(u*n)]``, coin the fractional part of ``u*n`` times
        the multiplier.  Two: ``x = u*R`` falls in one class's share of the
        total rate ``R``, and ``x`` less the start of that share gives the
        member and coin the same way.  Returns the vertices as an array and
        a list, and the coins as a list."""
        if len(self.counts) == 1:
            y = u * self.counts[0]
            i = y.astype(np.intp)
            coins = (y - i) * self.multipliers[0]
        else:
            (b0, b1, low1), (r0, r1), (m0, m1) = self._bounds, self.rates, self.multipliers
            n0, n1 = self.counts
            x = u * b1
            second = x >= b0
            y = (x - np.where(second, low1, 0.0)) / np.where(second, r1, r0)
            i = np.minimum(y.astype(np.intp), np.where(second, n1 - 1, n0 - 1))
            coins = (y - i) * np.where(second, m1, m0)
            i += second * n0
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
# weight is summed from the integer list lengths left to right with `+` (a
# float total kept by +-w would drift, and Python 3.12's `sum` compensates:
# either would move skip counts), the pick (`_pick_two` for the two classes
# there can be at most) subtracts as a loop over the lists would and keeps
# its rounding fallback, and the weights change only with lambda.


def _run_chain(
    g: Graph,
    sched: FugacitySchedule,
    steps: int,
    gen: np.random.Generator,
    rec: RecorderConfig,
    classes: RateClasses,
) -> TrialRecord:
    n = g.n
    if n == 0:
        raise ValueError("the chain needs a graph with a vertex")
    adj = g.neighbor_lists
    occ = bytearray(n)
    blocked = [0] * n
    cls = classes.of
    nclasses = len(classes.rates)
    single = nclasses == 1
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
        if min(grp_list) < 0:
            raise ValueError("tracking clouds needs a group id >= 0 on every vertex")
        loads = [0] * (max(grp_list) + 1)  # one load per group
        deloaded = bytearray(len(loads))  # groups whose load returned to 0

    # Touched vertices are marked per block of stepped proposals; a recorder
    # that tracks them keeps step mode for the whole run.
    touched = np.zeros(n, dtype=bool) if rec.track_touched else None

    marks = _Marks(g, rec)
    next_mark = marks.next

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
    lam = thr = None
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
        if single:
            (free0, held0), (wf, wh) = lists, weights
        else:
            (free0, free1, held0, held1), (w0, w1, w2, w3) = lists, weights
        while True:
            if single:
                sf, sh = wf * len(free0), wh * len(held0)
                weight = sf + sh
            else:
                s0, s1, s2, s3 = w0 * len(free0), w1 * len(free1), w2 * len(held0), w3 * len(held1)
                weight = s0 + s1 + s2 + s3
            if draw:
                p = weight / total_rate
                if p > _LEAVE_JUMP:
                    leave = True
                    break
                # the step of the next change, after Geometric(p) no-ops
                try:
                    at = t + 1 + int(log(1.0 - reals[j]) / log1p(-p)) if weight else math.inf
                except OverflowError:  # p below about 1e-306: a gap past every float and every cut
                    at = math.inf
                j += 1
            if at > cut:
                stale = False
                break
            x = reals[j] * weight
            j += 1
            if not single:
                members, i = _pick_two(x, s0, s1, s2, s3, lists, weights)
            elif x < sf:
                members, i = free0, int(x / wf)
            elif x - sf < sh:
                members, i = held0, int((x - sf) / wh)
            else:
                members, i = held0 if sh else free0, -1
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
            lam_t, hold = sched.segment(t, max_size, step_of_max)
            seg_end = t + hold
            if lam_t != lam:
                lam, thr = lam_t, removal_threshold(lam_t)
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
            if next_mark <= t:  # the loop would never reach it
                raise AssertionError(f"the mark after step {t} is at step {next_mark}")
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
        steps=t,
        max_size=max_size,
        step_of_max=step_of_max,
        final_size=size,
        hitting_steps=hits,
        snapshots=marks.snapshots,
        final_left=sides[SIDE_L] if side_list is not None else None,
        final_right=sides[SIDE_R] if side_list is not None else None,
        root_added=root_added,
        probe_count=marks.probe_count,
        events=events,
        skipped=skipped,
    )
    if grp_list is not None:
        record.deload_final = sum(deloaded)
    if touched is not None and g.side is not None:
        record.right_touched = int(np.count_nonzero(touched & (g.side == SIDE_R)))
    if rec.keep_final_state:
        record.final_state = frozenset(compress(range(n), occ))
    return record


def _pick_two(x: float, s0, s1, s2, s3, lists: list, weights: list) -> tuple[list[int], int]:
    """The list and index that ``x`` in [0, s0+s1+s2+s3) picks from two classes' four
    lists with shares ``s``; past them all (rounding), the last list with a share, at -1."""
    if x < s0:
        return lists[0], int(x / weights[0])
    if (x := x - s0) < s1:
        return lists[1], int(x / weights[1])
    if (x := x - s1) < s2:
        return lists[2], int(x / weights[2])
    if (x := x - s2) < s3:
        return lists[3], int(x / weights[3])
    return lists[3 if s3 else 2 if s2 else 1 if s1 else 0], -1


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
    return _run_chain(g, sched, steps, gen, rec, RateClasses.uniform(g.n))


# ---------------------------------------------------------------------------
# Continuous-time weighted chain


@dataclass(frozen=True)
class WeightedCTConfig:
    """The weighted chain on a labelled graph: its rate classes and a horizon.

    Built by :meth:`for_sides`, where each side of the graph has one update
    rate and one fugacity multiplier, so ``classes`` has one class or two.
    Exactly one of ``horizon`` (continuous time, finite and > 0) or
    ``events`` (jump count, >= 1) must be set.  With a horizon, the number
    of events is Poisson with mean ``classes.total_rate * horizon``;
    vertices ring proportionally to their rate and a vertex uses effective
    fugacity (its multiplier) * ``lambda_t``, with the schedule indexed by
    the number of rings so far.
    """

    classes: RateClasses
    horizon: float | None = None
    events: int | None = None

    def __post_init__(self):
        if (self.horizon is None) == (self.events is None):
            raise ValueError("set exactly one of horizon or events")
        if self.events is not None and self.events < 1:
            raise ValueError(f"events must be >= 1, not {self.events}")
        if self.horizon is not None and not (0.0 < self.horizon < math.inf):
            raise ValueError(f"horizon must be finite and > 0, not {self.horizon}")
        if self.horizon is not None and self.classes.total_rate * self.horizon >= _NEVER:
            # numpy draws no Poisson count past about 9.2e18
            raise InvalidRate(
                f"horizon {self.horizon} at total rate {self.classes.total_rate} "
                f"expects {self.classes.total_rate * self.horizon:.3g} events, 2^62 or more"
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
        """Left vertices ring at ``rate_left`` with multiplier ``mult_left``,
        all others at ``rate_right`` with ``mult_right``.  The classes are
        sorted by (rate, multiplier); equal sides are one class, and a side
        with no vertices has none."""
        if g.side is None:
            raise InvalidRate("side-based config needs a labeled graph")
        if not all(0.0 < rate < math.inf for rate in (rate_left, rate_right)):
            raise InvalidRate(f"update rates {rate_left}, {rate_right} must be positive and finite")
        if not all(mult >= 1.0 for mult in (mult_left, mult_right)):  # False for NaN, unlike min()
            raise InvalidFugacity(f"fugacity multipliers {mult_left}, {mult_right} must be >= 1")
        left = g.side == SIDE_L
        lkey, rkey = (float(rate_left), float(mult_left)), (float(rate_right), float(mult_right))
        keys = sorted({key for key, on in ((lkey, left), (rkey, ~left)) if on.any()})
        rank = {key: c for c, key in enumerate(keys)}  # a side with no vertices reads no rank
        of = np.where(left, rank.get(lkey, 0), rank.get(rkey, 0))
        classes = RateClasses(
            of.tolist(),
            [rate for rate, _ in keys],
            [mult for _, mult in keys],
            np.argsort(of, kind="stable"),
            np.bincount(of, minlength=len(keys)).tolist(),
        )
        with np.errstate(over="ignore"):
            if not math.isfinite(classes.total_rate):
                raise InvalidRate(f"the total update rate of the {g.n} vertices overflows a float")
        return WeightedCTConfig(classes, horizon=horizon, events=events)

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
    if len(cfg.classes.of) != base.n:
        raise InvalidRate(f"config covers {len(cfg.classes.of)} vertices, graph has {base.n}")
    rec = recorder or RecorderConfig()
    gen = rngmod.stream(seed)
    if cfg.events is not None:
        n_events = int(cfg.events)
    else:
        n_events = int(gen.poisson(cfg.classes.total_rate * cfg.horizon))
    return _run_chain(base, sched, n_events, gen, rec, cfg.classes)


# ---------------------------------------------------------------------------
# Greedy baselines


def run_randomized_greedy(
    g: Graph, seed: int
) -> tuple[frozenset[int], TrialRecord]:
    """Scan a uniform vertex permutation, adding whenever unblocked.

    Identical in distribution to the infinite-fugacity chain run to
    saturation: re-draws of decided vertices are no-ops there, so only the
    first-arrival order matters.  A free mask marks the vertices no add has
    blocked.  Each block of positions after the first keeps its free
    vertices with one gather of the mask; the rest are checked again, as an
    add can block a later vertex of its own block.  An add clears its
    neighbours only: each vertex occurs once in the permutation, so its own
    entry is never read again.  Same set and record as the plain scan in
    ``tests/reference.py``.
    """
    perm = rngmod.stream(seed).permutation(g.n)
    nbrs = g.neighbor_arrays
    # Read one vertex at a time as a bytearray; clear a neighbourhood at once
    # through a bool view of the same bytes.
    free = bytearray(b"\x01") * g.n
    view = np.frombuffer(free, dtype=bool)
    chosen: list[int] = []
    last_lo = 0  # first position of the block that made the last add
    for lo in range(0, g.n, _GREEDY_BLOCK):
        block = perm[lo : lo + _GREEDY_BLOCK]
        for v in (block[view[block]] if lo else block).tolist():
            if free[v]:
                chosen.append(v)
                view[nbrs[v]] = _NO
                last_lo = lo
    block = perm[last_lo : last_lo + _GREEDY_BLOCK].tolist()
    step_of_max = last_lo + block.index(chosen[-1]) + 1 if chosen else 0
    size = len(chosen)
    return frozenset(chosen), TrialRecord(g.n, size, step_of_max, size)


def run_degree_greedy(g: Graph) -> frozenset[int]:
    """Repeatedly take a minimum-residual-degree vertex (ties: lowest index)."""
    import heapq

    alive = bytearray(b"\x01" * g.n)
    deg = np.diff(g.adj_offsets).tolist()
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
    thr = removal_threshold(lam)

    upper_init, lower_init = list(upper_init), list(lower_init)  # each is read twice
    if not is_independent(bprime, upper_init):
        raise NotIndependent("upper start is not independent")
    if not is_independent(bprime, lower_init):
        raise NotIndependent("lower start is not independent")
    up = bytearray(n)
    lo = bytearray(n)
    for v in upper_init:
        up[int(v)] = 1
    for v in lower_init:
        lo[int(v)] = 1

    gen = rngmod.stream(seed)
    # The order is broken at v iff the chains differ there and lower holds
    # v on side L or upper holds it on side R: lo[v] == left[v] != up[v].
    left = (bprime.side == SIDE_L).tolist()
    violations = 0
    first: int | None = None
    t = 0
    while t < events:
        m = min(_COUPLED_CHUNK, events - t)
        if control:  # each chain on its own clock, checked after its own update
            v_up = gen.integers(0, n, m).tolist()
            v_lo = gen.integers(0, n, m).tolist()
            c_up = gen.random(m).tolist()
            c_lo = gen.random(m).tolist()
            z_up = gen.random(m).tolist()
            z_lo = gen.random(m).tolist()
            for vu, vl, cu, cl, zu, zl in zip(v_up, v_lo, c_up, c_lo, z_up, z_lo):
                t += 1
                bad = False
                if cu < 0.5:
                    if up[vu]:
                        if zu < thr:
                            up[vu] = 0
                    else:
                        for w in adj[vu]:
                            if up[w]:
                                break
                        else:
                            up[vu] = 1
                    bad = lo[vu] == left[vu] != up[vu]
                if cl < 0.5:
                    if lo[vl]:
                        if zl < thr:
                            lo[vl] = 0
                    else:
                        for w in adj[vl]:
                            if lo[w]:
                                break
                        else:
                            lo[vl] = 1
                    bad = bad or lo[vl] == left[vl] != up[vl]
                if bad:
                    violations += 1
                    if first is None:
                        first = t
            continue
        # One clock: where the chains agree at v they share the coin and the
        # draw, where they differ the coin picks the one that updates.
        vs = gen.integers(0, n, m).tolist()
        cs = gen.random(m).tolist()
        zs = gen.random(m).tolist()
        for v, c, z in zip(vs, cs, zs):
            t += 1
            if up[v] != lo[v]:
                state = up if c < 0.5 else lo
            elif c < 0.5:
                continue
            elif up[v]:  # both hold v: the shared draw removes it from both or neither
                if z < thr:
                    up[v] = lo[v] = 0
                continue
            else:  # neither holds v: each adds it if its own neighbours allow
                for w in adj[v]:
                    if up[w]:
                        break
                else:
                    up[v] = 1
                state = lo
            if state[v]:
                if z < thr:
                    state[v] = 0
            else:
                for w in adj[v]:
                    if state[w]:
                        break
                else:
                    state[v] = 1
            if lo[v] == left[v] != up[v]:
                violations += 1
                if first is None:
                    first = t
    return CouplingReport(events=t, violation_events=violations, first_violation=first)


# ---------------------------------------------------------------------------
# Two-counter greedy chain


@dataclass
class GreedyChainResult:
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
    coins = gen.random(steps).tolist()
    grows = gen.random(steps).tolist()
    for t, coin, grow in zip(range(1, steps + 1), coins, grows):
        comp = 0.5 * (q_right - q_left)
        if coin < 0.5:
            if grow < q_right:
                left += 1
                q_left *= q
                m_val += 1.0
        else:
            if grow < q_left:
                right += 1
                q_right *= q
                m_val -= 1.0
        m_val -= comp
        if t % every == 0 or t == steps:
            traj.append((t, left, right, m_val))
    return GreedyChainResult(left=left, right=right, residual=m_val, trajectory=traj)
