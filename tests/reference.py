"""A slow, plain fold of the discrete chain's update rule: the byte
reference of the engine's step mode (``dynamics.run_ump`` with a recorder
that tracks touched vertices, which keeps step mode for the whole run).

Every proposal reads one real ``u`` of the trial's stream: the vertex is
``floor(u*n)`` and the removal coin is the fractional part of ``u*n``.
"""

from __future__ import annotations

from annealbench import rng as rngmod
from annealbench.dynamics import removal_threshold
from annealbench.graph_core import Graph, is_independent
from annealbench.schedules import FugacitySchedule, HistoryDigest


class IndependentSetState:
    """Mutable occupancy vector plus running statistics for one trial.

    The defining invariant (occupied set spans no edge) can be asserted
    with :meth:`check` after any update.
    """

    __slots__ = ("occupied", "size", "max_size_seen", "step")

    def __init__(self, n: int):
        self.occupied = bytearray(n)
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
