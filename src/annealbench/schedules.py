"""Fugacity schedules for the add/remove dynamics.

A schedule assigns every step ``t`` a fugacity ``lambda_t`` in ``[1, inf]``;
removal proposals are accepted with probability ``1/lambda_t``.  Three shapes:

* a ladder    ``start * factor ** (t // block)`` capped at ``cap``, the annealing
  of Kirkpatrick, Gelatt & Vecchi (1983); ``fixed`` is the one-rung ladder
  ``start = cap`` (the Metropolis chain), and ``greedy`` is ``fixed`` at inf;
* a sequence  explicit per-step values, held at the last entry afterwards;
* a rule      a named deterministic rule of the run history (``adaptive``).

A rule sees only the current step, the running maximum and the
step it was reached at, and returns a value plus a hold length, so runs
remain replayable from the seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import InvalidFugacity
from .graph_core import parse_int

INF = math.inf


def _plateau(t: int, max_size: int, step_of_max: int) -> tuple[float, int]:
    """Cool while the maximum improves, reheat fully on a long stall."""
    stalled = (t - step_of_max) > 4096
    return (1.0 if stalled else 256.0), 1024


def _milestone(t: int, max_size: int, step_of_max: int) -> tuple[float, int]:
    """Fugacity grows with the best size found so far."""
    return min(4.0 ** min(1 + max_size // 8, 15), 1e9), 512  # 4**15 > 1e9


# Each rule maps (step, running maximum, step of the maximum) to (fugacity, hold).
ADAPTIVE_RULES: dict[str, Callable[[int, int, int], tuple[float, int]]] = {
    "plateau": _plateau,
    "milestone": _milestone,
}


def check_lambda(lam: float) -> float:
    if math.isnan(lam) or lam < 1.0:
        raise InvalidFugacity(f"fugacity {lam} outside [1, inf]")
    return float(lam)


@dataclass(frozen=True)
class FugacitySchedule:
    # A ladder unless ``values`` or ``rule`` is set; the defaults are fixed(1).
    start: float = 1.0
    factor: float = 1.0
    block: int = 1
    cap: float = 1.0
    values: tuple[float, ...] = ()
    rule: str = ""

    @staticmethod
    def fixed(lam: float) -> "FugacitySchedule":
        return FugacitySchedule.geometric(lam, 1.0, 1, lam)

    @staticmethod
    def sequence(values) -> "FugacitySchedule":
        vals = tuple(check_lambda(v) for v in values)
        if not vals:
            raise InvalidFugacity("sequence schedule needs at least one value")
        return FugacitySchedule(values=vals)

    @staticmethod
    def geometric(start: float, factor: float, block: int, cap: float = INF) -> "FugacitySchedule":
        if not factor >= 1.0 or block < 1:  # "not >=" also rejects NaN
            raise InvalidFugacity("geometric schedule needs factor >= 1, block >= 1")
        start, cap = check_lambda(start), check_lambda(cap)
        if cap < start:
            raise InvalidFugacity(f"geometric cap {cap} lies below its start {start}")
        return FugacitySchedule(start, float(factor), int(block), cap)

    @staticmethod
    def adaptive(rule: str) -> "FugacitySchedule":
        if rule not in ADAPTIVE_RULES:
            raise InvalidFugacity(f"unknown adaptive rule {rule!r}")
        return FugacitySchedule(rule=rule)

    def segment(self, t: int, max_size: int = 0, step_of_max: int = 0) -> tuple[float, int]:
        """Fugacity at 0-based step ``t`` and how many steps it holds; a rule
        also reads the running maximum and its step.

        The hold length is a guarantee used by the simulation loops to avoid
        re-evaluating the schedule every step; it is always at least 1.
        """
        if self.rule:
            lam, hold = ADAPTIVE_RULES[self.rule](t, max_size, step_of_max)
            return check_lambda(lam), max(1, int(hold))
        if self.values:
            if t >= len(self.values):
                return self.values[-1], 1 << 62
            lam = self.values[t]
            hold = 1
            limit = min(len(self.values), t + 4096)
            while t + hold < limit and self.values[t + hold] == lam:
                hold += 1
            if t + hold == len(self.values) and self.values[-1] == lam:
                hold = 1 << 62
            return lam, hold
        try:
            lam = self.start * self.factor ** (t // self.block)
        except OverflowError:  # past the largest float: no removals, for ever
            lam = INF
        if lam >= self.cap:
            return min(lam, self.cap), 1 << 62
        return lam, self.block - (t % self.block)


def parse_schedule(text: str) -> FugacitySchedule:
    """Parse a CLI schedule spec.

    Accepted forms: ``fixed:L``, ``greedy``, ``seq:FILE``,
    ``geometric:START:FACTOR:BLOCK[:CAP]``, ``adaptive:NAME``.  Any
    malformed spec raises :class:`InvalidFugacity` naming it.
    """
    text = text.strip()
    try:
        return _parse_schedule(text)
    except (InvalidFugacity, ValueError, OSError) as exc:
        raise InvalidFugacity(f"schedule spec {text!r}: {exc}") from exc


def _parse_schedule(text: str) -> FugacitySchedule:
    if text == "greedy":
        return FugacitySchedule.fixed(INF)
    head, _, rest = text.partition(":")
    if head == "fixed":
        return FugacitySchedule.fixed(float(rest))
    if head == "seq":
        with open(rest) as fh:
            vals = [float(line) for line in fh if line.strip()]
        return FugacitySchedule.sequence(vals)
    if head == "geometric":
        parts = rest.split(":")
        if len(parts) not in (3, 4):
            raise InvalidFugacity("geometric takes START:FACTOR:BLOCK[:CAP]")
        cap = float(parts[3]) if len(parts) > 3 else INF
        return FugacitySchedule.geometric(
            float(parts[0]), float(parts[1]), parse_int(parts[2]), cap
        )
    if head == "adaptive":
        return FugacitySchedule.adaptive(rest)
    raise InvalidFugacity("unknown schedule kind")
