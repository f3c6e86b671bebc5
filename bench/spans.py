"""In-memory spans recorded around calls into annealbench's public functions.

The traced run replaces module attributes (and two class attributes) with
wrappers that open a span on entry and close it on exit; nothing under
``src/`` changes.  A span is (name, parent, trial, start, end): ``parent``
is the index of the enclosing span, and ``trial`` is the id shared by every
span opened while one ``harness.run_one_trial`` call is on the stack.
Tracing is single-threaded: the traced experiment runs serially.
"""

from __future__ import annotations

import functools
import inspect
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from annealbench import dynamics as dy
from annealbench import graph_core as gc
from annealbench import harness as hz
from annealbench import instance_gen as ig
from annealbench import rng
from annealbench.schedules import FugacitySchedule

ENGINES = (
    "dynamics.run_ump",
    "dynamics.run_ct_ump",
    "dynamics.run_randomized_greedy",
)
ALPHA_ORACLES = ("graph_core.alpha_bipartite", "graph_core.alpha_tree")
CHECK = "bench.check_final"


def layer_boundaries() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every traced public function."""
    generators = sorted(n for n in vars(ig) if n.startswith("gen_"))
    return [
        *[(ig, n, f"instance_gen.{n}") for n in generators],
        # instance_gen imported build_graph by name, so patch both bindings.
        (gc, "build_graph", "graph_core.build_graph"),
        (ig, "build_graph", "graph_core.build_graph"),
        (gc.Graph, "neighbor_lists", "graph_core.neighbor_lists"),
        (gc, "alpha_bipartite", "graph_core.alpha_bipartite"),
        (gc, "alpha_tree", "graph_core.alpha_tree"),
        (rng, "stream", "rng.stream"),
        (FugacitySchedule, "segment", "schedules.segment"),
        (dy, "run_ump", "dynamics.run_ump"),
        (dy, "run_ct_ump", "dynamics.run_ct_ump"),
        (dy, "run_randomized_greedy", "dynamics.run_randomized_greedy"),
        (hz, "build_instance", "harness.build_instance"),
        (hz, "run_one_trial", "harness.run_one_trial"),
    ]


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    trial: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str, trial: int | None = None) -> int:
        parent = self._open[-1] if self._open else None
        if trial is None and parent is not None:
            trial = self.spans[parent].trial
        index = len(self.spans)
        self.spans.append(Span(name, parent, trial, perf_counter()))
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    @property
    def trial(self) -> int | None:
        return self.spans[self._open[-1]].trial if self._open else None

    def wrap(self, name: str, fn, trial_arg: str | None = None):
        sig = inspect.signature(fn) if trial_arg else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            trial = sig.bind(*args, **kwargs).arguments[trial_arg] if sig else None
            index = self.begin(name, trial)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def replacement(self, owner, attr: str, name: str):
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        trial_arg = "trial_id" if name == "harness.run_one_trial" else None
        if isinstance(raw, functools.cached_property):
            prop = functools.cached_property(self.wrap(name, raw.func))
            prop.__set_name__(owner, attr)
            return prop
        return self.wrap(name, raw, trial_arg)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, covered)]

    def summary(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for s, own in zip(self.spans, self.self_times()):
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += own
        return out

    def write(self, path: Path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [
            {
                "id": i,
                "name": s.name,
                "parent": s.parent,
                "trial": s.trial,
                "start": s.start - t0,
                "end": s.end - t0,
            }
            for i, s in enumerate(self.spans)
        ]
        path.write_text(json.dumps(rows) + "\n")


@contextmanager
def patched(patches):
    """Set ``owner.attr = value`` for each triple; restore all on exit."""
    saved = []
    try:
        for owner, attr, value in patches:
            old = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, old))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)
