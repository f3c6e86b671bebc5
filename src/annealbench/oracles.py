"""Closed-form probabilistic oracles and confidence intervals.

These are the analytic counterparts used to design experiments and score
trial batches: hitting probabilities of biased walks, stationary laws of
birth-death chains, the three-state branch chain, the balanced-bipartite
independent-set threshold, burn-in window reports, and normal / Wilson
confidence intervals for batch statistics.  Natural logarithms throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import (
    EmptyInput,
    InsufficientRecord,
    InvalidChain,
    InvalidDrift,
    OutOfRegime,
)
from .dynamics import TrialRecord
from .instance_gen import BlowupParams

_Z95 = NormalDist().inv_cdf(0.975)


def ruin_probability(p_up: float, p_down: float, m: int) -> float:
    """Probability a +-1 walk with up-probability ``p_up`` ever drops ``m``.

    Requires positive drift (``p_up > p_down``); the answer is
    ``(p_down / p_up) ** m``.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if abs(p_up + p_down - 1.0) > 1e-12:
        raise InvalidDrift("p_up + p_down must equal 1")
    if p_up <= p_down:
        raise InvalidDrift("walk must drift upward (p_up > p_down)")
    return (p_down / p_up) ** m


def birth_death_stationary(
    p: list[float], q: list[float], r: list[float] | None = None
) -> np.ndarray:
    """Stationary law of a birth-death chain on {0..k}.

    ``p[i]`` moves i -> i+1 (i < k), ``q[i]`` moves i -> i-1 (i > 0) and
    ``r[i]`` stays.  Computed by the product form
    ``w_j = prod_{i=1..j} p[i-1]/q[i]``, normalized to sum to one.
    """
    k = len(p) - 1
    if len(q) != k + 1 or (r is not None and len(r) != k + 1):
        raise InvalidChain("rate lists must share one length")
    if r is None:
        r = [1.0 - p[i] - q[i] for i in range(k + 1)]
    for i in range(k + 1):
        if min(p[i], q[i], r[i]) < -1e-12:
            raise InvalidChain(f"negative rate at state {i}")
        if abs(p[i] + q[i] + r[i] - 1.0) > 1e-9:
            raise InvalidChain(f"rates at state {i} do not sum to 1")
    if any(p[i] <= 0 for i in range(k)) or any(q[i] <= 0 for i in range(1, k + 1)):
        raise InvalidChain("interior up/down rates must be positive")
    w = np.ones(k + 1)
    for j in range(1, k + 1):
        w[j] = w[j - 1] * p[j - 1] / q[j]
    return w / w.sum()


@dataclass(frozen=True)
class BranchChainSpec:
    """Update schedule of one three-state branch chain.

    ``lambdas[i]`` is the fugacity in force at the branch's i-th update;
    the chain starts in the occupied-mid state.
    """

    lambdas: tuple[float, ...]

    def __post_init__(self):
        if any(l < 1.0 for l in self.lambdas):
            raise ValueError("fugacities must be >= 1")


def branch_chain_distribution(spec: BranchChainSpec) -> tuple[float, float, float]:
    """Exact (mid, leaf, empty) occupancy law after the scheduled updates.

    One update maps (a, b, c) to
    ``(c/2 + (1 - 1/(2 lam)) a, c/2 + (1 - 1/(2 lam)) b, (a + b)/(2 lam))``.
    """
    a, b, c = 1.0, 0.0, 0.0
    for lam in spec.lambdas:
        stay = 1.0 - 0.5 / lam
        a, b, c = c / 2.0 + stay * a, c / 2.0 + stay * b, (a + b) * 0.5 / lam
    return a, b, c


def branch_chain_prob_A(spec: BranchChainSpec) -> float:
    """P(branch still holds its mid vertex) after the scheduled updates."""
    return branch_chain_distribution(spec)[0]


def bipartite_is_bound(n: int, d: float) -> int:
    """Per-side size above which balanced independent sets vanish (whp).

    Returns ``ceil(2 ln(d) / d * n)``; only meaningful for ``d > e^2``.
    """
    if d <= math.e**2:
        raise OutOfRegime(f"d={d} must exceed e^2")
    return math.ceil(2.0 * math.log(d) / d * n)


# ---------------------------------------------------------------------------
# Burn-in window reports


@dataclass(frozen=True)
class BurnInReport:
    left_fraction: float
    right_touched: int
    left_target: float  # n / 10
    right_touch_cap: float  # 1 / (4p)
    left_ok: bool
    right_ok: bool


def burn_in_time(params: BlowupParams) -> float:
    """Length of the early window: 1 / (8 k p n)."""
    return 1.0 / (8.0 * params.k * params.p * params.n)


def burn_in_stats(trial: TrialRecord, params: BlowupParams) -> BurnInReport:
    """Score one weighted-chain trial stopped at the burn-in horizon."""
    if trial.final_left is None or trial.right_touched is None:
        raise InsufficientRecord(
            "trial lacks side occupancy or touch counts; "
            "run with side labels and track_touched"
        )
    left_target = params.n / 10.0
    right_cap = 1.0 / (4.0 * params.p)
    return BurnInReport(
        left_fraction=trial.final_left / params.n,
        right_touched=trial.right_touched,
        left_target=left_target,
        right_touch_cap=right_cap,
        left_ok=trial.final_left >= left_target,
        right_ok=trial.right_touched <= right_cap,
    )


# ---------------------------------------------------------------------------
# Confidence intervals


def wilson_interval(successes: int, total: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial fraction."""
    if total <= 0:
        raise EmptyInput("no observations")
    phat = successes / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total))
    # The ends are exact: rounding would leave 0 or 1 just outside the interval.
    return (0.0 if successes == 0 else max(0.0, center - half),
            1.0 if successes == total else min(1.0, center + half))


def normal_mean_interval(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise EmptyInput("no observations")
    mean = float(values.mean())
    if values.size == 1:
        return mean, mean
    half = _Z95 * float(values.std(ddof=1)) / math.sqrt(values.size)
    return mean - half, mean + half
