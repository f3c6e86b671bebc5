"""Seeded generators for every benchmark instance family, and the family table.

All generators are pure functions of their parameters and seed: identical
inputs give byte-identical graph files.  Randomness comes from
counter-based sub-streams of the master seed, so adding a generator call
never perturbs any other stream.  Bernoulli edge sets are sampled with
geometric gap skipping, which costs O(edges) rather than O(pairs).

``FAMILIES`` is the one place a family is defined: its typed parameters,
the function that builds it, where its alpha comes from, and what the
recorder watches.  ``annealbench gen`` and ``harness.build_instance``
both read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from . import graph_core as gc
from . import rng as rngmod
from .errors import ConfigError, InvalidDenseParams, NotBipartite
from .graph_core import (
    NO_GROUP,
    SIDE_L,
    SIDE_R,
    Graph,
    build_graph,
)

# Sub-stream tags within DOMAIN_INSTANCE.
_TAG_BASE_BIPARTITE = 1
_TAG_BALANCED = 2

_FP_GUARD = 1e-9  # absorbs float noise before flooring exact powers


@dataclass(frozen=True)
class BlowupParams:
    """Parameters of the clique-blowup family.

    ``n`` left vertices, ``k * n`` right vertices, edge probability ``p``,
    and each left vertex expanded into a clique of ``ell`` vertices.
    """

    n: int
    k: int
    ell: int
    p: float
    seed: int = 0

    def __post_init__(self):
        if min(self.n, self.k, self.ell) < 1:
            raise ValueError("n, k, ell must be >= 1")
        if not (0.0 <= self.p < 1.0):
            raise ValueError("p must lie in [0, 1)")


@dataclass(frozen=True)
class DenseParams:
    """Dense regime: everything is a power of the total size ``m``."""

    m: int
    eps: float
    delta: float

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0 / 3.0):
            raise InvalidDenseParams("eps must lie in (0, 1/3)")
        if not (self.eps / 4.0 < self.delta < self.eps):
            raise InvalidDenseParams("delta must lie in (eps/4, eps)")
        if self.m < 2:
            raise InvalidDenseParams("m must be >= 2")


@dataclass(frozen=True)
class DenseDerivation:
    """Dense parameters rounded to blowup parameters, and the parameter
    relations they fail (see :func:`validate_relations`)."""

    params: "BlowupParams"
    warnings: tuple[str, ...]


# ---------------------------------------------------------------------------
# Bernoulli pair sampling


def _bernoulli_indices(total: int, p: float, gen: np.random.Generator) -> np.ndarray:
    """Indices of an iid Bernoulli(p) subset of range(total), via gap skipping."""
    if total <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    log_q = math.log1p(-p)
    picked: list[np.ndarray] = []
    pos = -1
    while pos < total:
        remaining = total - pos
        block = int(remaining * p * 1.1 + 10.0 * math.sqrt(remaining * p + 1.0) + 16)
        with np.errstate(over="ignore"):  # a subnormal p: the gap is inf, clipped below
            gaps = np.floor(np.log1p(-gen.random(block)) / log_q)
        # A gap past `total` ends the set; clipped, it fits int64 for any p.
        # Clipped in place: a third live array of the block's size raised
        # the pooled peak RSS of a 2.5e6-pair build by about 3.6 MiB.
        gaps = np.minimum(gaps, total, out=gaps).astype(np.int64) + 1
        idx = pos + np.cumsum(gaps)
        picked.append(idx[idx < total])
        pos = int(idx[-1])
    return np.concatenate(picked)


# ---------------------------------------------------------------------------
# Families


def gen_base_bipartite(n: int, k: int, p: float, seed: int = 0) -> Graph:
    """Random bipartite base: |L| = n, |R| = k*n, iid edge probability p."""
    if min(n, k) < 1 or not 0.0 <= p <= 1.0:
        raise ValueError(f"want n, k >= 1 and p in [0, 1], got n={n}, k={k}, p={p}")
    left, right = n, k * n
    gen = rngmod.stream(seed, rngmod.DOMAIN_INSTANCE, _TAG_BASE_BIPARTITE)
    idx = _bernoulli_indices(left * right, p, gen)
    edges = np.stack([idx // right, n + idx % right], axis=1)
    side = np.repeat(np.array([SIDE_L, SIDE_R], np.int8), [left, right])
    return build_graph(left + right, edges, labels=side, bipartite=True)


def gen_clique_blowup(params: BlowupParams, base: Graph | None = None) -> Graph:
    """Explicit clique blowup of the bipartite base.

    Left vertex ``u`` becomes the clique ``[u*ell, (u+1)*ell)`` (group id
    ``u``); right vertex ``j`` keeps index ``n*ell + j``.  Every base edge
    ``(u, w)`` joins all of ``u``'s clique to ``w``.  Only intended for
    desk-scale sizes; large instances are simulated implicitly on the base.
    """
    n, k, ell = params.n, params.k, params.ell
    if base is None:
        base = gen_base_bipartite(n, k, params.p, params.seed)
    elif base.n != n + k * n:
        raise ValueError("base graph does not match blowup parameters")
    a, b = np.triu_indices(ell, 1)
    starts = np.arange(n)[:, None] * ell
    cliques = np.stack([(starts + a).ravel(), (starts + b).ravel()], axis=1)
    offs = base.adj_offsets
    u = np.repeat(np.arange(n), np.diff(offs[: n + 1]))  # base left end
    j = base.adj_targets[: offs[n]] - n  # base right index
    joins = np.stack([(u[:, None] * ell + np.arange(ell)).ravel(), np.repeat(n * ell + j, ell)], 1)
    edges = np.concatenate([cliques, joins])
    side = np.repeat(np.array([SIDE_L, SIDE_R], np.int8), [n * ell, k * n])
    group = np.concatenate(
        [
            np.repeat(np.arange(n, dtype=np.int64), ell),
            np.full(k * n, NO_GROUP, np.int64),
        ]
    )
    return build_graph(n * ell + k * n, edges, labels=side, groups=group)


def validate_relations(params: BlowupParams) -> tuple[str, ...]:
    """The blowup parameter relations that fail: p >= 50 ln(k)/n, p <= 0.1
    and ell >= 10 k p n.  They are warnings, not errors."""
    p_lower = 50.0 * math.log(params.k) / params.n if params.k > 1 else 0.0
    ell_lower = 10.0 * params.k * params.p * params.n
    messages = []
    if params.p < p_lower:
        messages.append(f"p={params.p} below 50 ln(k)/n = {p_lower:.6g}")
    if params.p > 0.1:
        messages.append(f"p={params.p} above 0.1")
    if params.ell < ell_lower:
        messages.append(f"ell={params.ell} below 10*k*p*n = {ell_lower:.6g}")
    return tuple(messages)


def derive_dense_params(dense: DenseParams) -> DenseDerivation:
    """Instantiate blowup parameters from the dense power-law recipe.

    Counts are floored (conservative toward the parameter relations);
    the edge probability keeps its exact real value.
    """
    m, eps, delta = dense.m, dense.eps, dense.delta
    n = int(math.floor(m**eps + _FP_GUARD))
    k = int(math.floor(m ** (1.0 - 3.0 * eps) + _FP_GUARD))
    ell = int(math.floor(m ** (1.0 - eps) + _FP_GUARD))
    params = BlowupParams(n=n, k=k, ell=ell, p=m**-delta)
    warnings = validate_relations(params)
    return DenseDerivation(params, warnings)


def gen_bipartite_blowup(base: Graph, cloud_size: int, copies: int) -> Graph:
    """Replace each vertex of ``copies`` disjoint base copies by a cloud.

    A cloud is an independent set of ``cloud_size`` vertices; each base
    edge becomes a complete join between the two clouds.  The result stays
    bipartite and its alpha equals ``alpha(base) * cloud_size * copies``.
    Cloud ``c = copy * base.n + base_vertex`` covers vertices
    ``[c * cloud_size, (c + 1) * cloud_size)`` and is their group id.
    """
    if base.side is None:
        raise NotBipartite("bipartite blowup needs a labeled base")
    if min(cloud_size, copies) < 1:
        raise ValueError(f"cloud_size and copies must be >= 1, got {cloud_size}, {copies}")
    K = int(cloud_size)
    u, w = base.edge_array().T
    shift = np.arange(copies)[:, None] * base.n
    cu = ((shift + u) * K).ravel()
    cw = ((shift + w) * K).ravel()
    a, b = np.divmod(np.arange(K * K), K)
    edges = np.stack([(cu[:, None] + a).ravel(), (cw[:, None] + b).ravel()], axis=1)
    side = np.repeat(np.tile(np.asarray(base.side, np.int8), copies), K)
    group = np.repeat(np.arange(copies * base.n, dtype=np.int64), K)
    return build_graph(base.n * K * copies, edges, labels=side, groups=group, bipartite=True)


def gen_star_tree(k: int) -> Graph:
    """Spider with root 0, mid vertices 1..k, and leaf i+k below mid i: the
    one-copy :func:`gen_hard_tree` forest, with no apex and no group ids.

    The unique maximum independent set is the root plus all leaves
    (size k+1).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return replace(gen_hard_tree(k, 1, apex=False), group=None)


def gen_hard_tree(k: int, copies: int, apex: bool = True) -> Graph:
    """Disjoint spiders, optionally joined into one tree by an apex vertex.

    Copy ``c`` occupies ``[c*(2k+1), (c+1)*(2k+1))`` laid out like
    :func:`gen_star_tree`; the apex (last index) attaches to every copy
    root.  Group ids mark the copy; the apex has no group.
    """
    if k < 1 or copies < 1:
        raise ValueError("k and copies must be >= 1")
    span = 2 * k + 1
    roots = np.arange(copies, dtype=np.int64) * span
    mids = (roots[:, None] + np.arange(1, k + 1)).ravel()
    edges = [np.stack([np.repeat(roots, k), mids], 1), np.stack([mids, mids + k], 1)]
    group = np.repeat(np.arange(copies, dtype=np.int64), span)
    if apex:
        apex_v = copies * span
        edges.append(np.stack([np.full(copies, apex_v), roots], 1))
        group = np.concatenate([group, np.array([NO_GROUP], np.int64)])
    return build_graph(group.size, np.concatenate(edges), groups=group)


def balanced_edge_prob(n: int, d: float) -> float:
    """The cross-edge probability d/n of the balanced bipartite family."""
    if not 0 <= d < n:
        raise ValueError(f"want 0 <= d < n, got d={d}, n={n}")
    return d / n


def gen_random_balanced_bipartite(n: int, d: float, seed: int = 0) -> Graph:
    """2n vertices, sides assigned uniformly, cross edges with probability d/n."""
    p = balanced_edge_prob(n, d)
    gen = rngmod.stream(seed, rngmod.DOMAIN_INSTANCE, _TAG_BALANCED)
    side = (gen.random(2 * n) < 0.5).astype(np.int8)  # 0 = L, 1 = R
    left = np.flatnonzero(side == SIDE_L)
    right = np.flatnonzero(side == SIDE_R)
    idx = _bernoulli_indices(left.size * right.size, p, gen)
    edges = np.stack([left[idx // right.size], right[idx % right.size]], axis=1)
    return build_graph(2 * n, edges, labels=side, bipartite=True)


def balanced_bipartite_flags(n: int, d: float) -> tuple[str, ...]:
    """Regime notes for the balanced bipartite family (never fatal)."""
    notes = []
    if d > math.log(n) / 100.0:
        notes.append(f"d={d} above ln(n)/100 = {math.log(n) / 100.0:.6g}")
    return tuple(notes)


def gen_appendix_anchor(n: int) -> Graph:
    """Independent block I joined to an n-clique C, plus a hub over I.

    Layout: I = [0, n), C = [n, 2n), hub = 2n.  alpha = n (the block I);
    minimum-degree greedy is drawn to the hub and returns size 2.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    hub = 2 * n
    a, b = np.triu_indices(hub + 1, 1)
    keep = (n <= b) & (b < hub) | (b == hub) & (a < n)  # I-C, C-C and I-hub
    return build_graph(hub + 1, np.stack([a[keep], b[keep]], axis=1))


def gen_appendix_multicopy(n: int, eps: float) -> Graph:
    """n disjoint units, each an independent s-block joined to an n-clique.

    s = floor(n**eps).  Unit c occupies ``[c*(n+s), (c+1)*(n+s))`` with the
    independent block first; group ids mark the unit.  alpha = n * s.
    """
    try:
        s = multicopy_block_size(n, eps) if n >= 1 and math.isfinite(eps) else 0
    except OverflowError:  # n**eps beyond the largest float
        s = 0
    if s < 1:
        raise ValueError(f"n and n**eps must be finite and >= 1, got n={n}, eps={eps}")
    span = n + s
    a, b = np.triu_indices(span, 1)
    unit = np.stack([a[b >= s], b[b >= s]], axis=1)  # all pairs but block-block
    edges = (unit + (np.arange(n) * span)[:, None, None]).reshape(-1, 2)
    group = np.repeat(np.arange(n, dtype=np.int64), span)
    return build_graph(n * span, edges, groups=group)


def multicopy_block_size(n: int, eps: float) -> int:
    return int(math.floor(n**eps + _FP_GUARD))


# ---------------------------------------------------------------------------
# Typed parameters


def parse_bool(text: str) -> bool:
    low = text.lower()
    if low not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(text)
    return low in ("1", "true", "yes")


def int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip())


def parse_params(schema: dict, raw: Mapping[str, object], where: str) -> dict:
    """Typed values of ``raw`` under ``schema`` (key -> type, or (type,
    default) when optional).  Each value is parsed from its text, so ``int``
    rejects ``4.7`` and keeps every digit of a large seed; an empty value
    counts as missing.  An unknown key, a missing required key or a value
    its type rejects raises :class:`ConfigError` naming the key.
    """
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    out = {}
    for key, spec in schema.items():
        kind, default = spec if isinstance(spec, tuple) else (spec, None)
        text = str(raw.get(key, "")).strip()
        if not text and not isinstance(spec, tuple):
            raise ConfigError(f"{where} needs key {key!r}")
        try:
            out[key] = kind(text) if text else default
        except ValueError:
            kind_name = kind.__name__.lstrip("_")
            raise ConfigError(f"{where}: {key} = {text!r} is not a valid {kind_name}") from None
    return out


# ---------------------------------------------------------------------------
# Family table

CLOSED_FORM = "closed_form"
MATCHING = gc.METHOD_BIPARTITE_MATCHING  # exact, Koenig via maximum matching
LOWER_BOUND = "lower_bound"


@dataclass(frozen=True)
class Instance:
    """A built family member: the graph the engines run on, its alpha, and
    the vertices the recorder watches (``watch_root``) and probes."""

    graph: Graph
    alpha: Callable[[], int] | None  # called only with no override; None for a graph file
    watch: tuple[int, ...] = ()
    probe: tuple[int, ...] = ()
    blowup: BlowupParams | None = None  # set when ``graph`` is an implicit clique blowup's base
    notes: tuple[str, ...] = ()  # parameter regime warnings


@dataclass(frozen=True)
class Family:
    name: str
    schema: dict
    build: Callable[[dict, int], Instance]  # (typed params, seed)
    alpha_method: str  # CLOSED_FORM, MATCHING or LOWER_BOUND
    chain: Callable[[dict], tuple[int, float]] | None = None  # (n, p) of the greedy chain
    track_clouds: bool = False

    def parse(self, raw: Mapping[str, object]) -> dict:
        return parse_params(self.schema, raw, f"family {self.name}")

    def make(self, raw: Mapping[str, object], seed: int) -> Instance:
        """The member of parameters ``raw`` and ``seed``; a value out of the
        generator's range raises :class:`ConfigError` naming the family."""
        return self._checked(self.build, raw, seed)

    def chain_params(self, raw: Mapping[str, object]) -> tuple[int, float]:
        """(n, p) of the greedy chain of parameters ``raw``, range-checked as ``make``."""
        return self._checked(self.chain, raw)

    def _checked(self, fn: Callable, raw: Mapping[str, object], *args):
        try:
            return fn(self.parse(raw), *args)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"family {self.name}: {exc}") from None


def family(name: str) -> Family:
    if name not in FAMILIES:
        raise ConfigError(f"unknown instance family {name!r}")
    return FAMILIES[name]


# Build functions look generators up in this module's globals at call time, so
# wrappers installed on the module (the benchmark's tracing) see each call.


def _spider(p: dict, seed: int) -> Instance:
    k = p["k"]
    return Instance(gen_star_tree(k), lambda: k + 1, watch=(0,), probe=tuple(range(1, k + 1)))


def _spider_forest(p: dict, seed: int) -> Instance:
    # Copy roots plus all leaves stay maximum with or without the apex.
    k, copies = p["k"], p["copies"]
    roots = tuple(range(0, copies * (2 * k + 1), 2 * k + 1))
    g = gen_hard_tree(k, copies, apex=p["apex"])
    return Instance(g, lambda: copies * (k + 1), watch=roots)


def _multicopy(p: dict, seed: int) -> Instance:
    n, eps = p["n"], p["eps"]
    return Instance(gen_appendix_multicopy(n, eps), lambda: n * multicopy_block_size(n, eps))


def _matched(g: Graph, notes: tuple[str, ...] = ()) -> Instance:
    return Instance(g, lambda: gc.alpha_bipartite(g).alpha, notes=notes)


def _clique_blowup(p: dict, seed: int) -> Instance:
    params = BlowupParams(n=p["n"], k=p["k"], ell=p["ell"], p=p["p"], seed=seed)
    base = gen_base_bipartite(params.n, params.k, params.p, seed=seed)
    explicit = p["mode"] == "explicit"
    graph = gen_clique_blowup(params, base=base) if explicit else base
    # The k*n right vertices are independent: a certified lower bound.
    return Instance(
        graph,
        lambda: params.k * params.n,
        blowup=None if explicit else params,
        notes=validate_relations(params),
    )


def _cloud_blowup(p: dict, seed: int) -> Instance:
    base = gen_base_bipartite(p["base_n"], p["base_k"], p["base_p"], seed=seed)
    g = gen_bipartite_blowup(base, p["cloud_size"], p["copies"])
    return Instance(g, lambda: gc.alpha_bipartite(base).alpha * p["cloud_size"] * p["copies"])


def _blowup_mode(text: str) -> str:
    if text not in ("implicit", "explicit"):
        raise ValueError(text)
    return text


FAMILIES: dict[str, Family] = {f.name: f for f in (
    Family("star-tree", {"k": int}, _spider, CLOSED_FORM),
    Family("hard-tree", {"k": int, "copies": int, "apex": (parse_bool, True)}, _spider_forest,
           CLOSED_FORM),
    Family("anchor", {"n": int},
           lambda p, seed: Instance(gen_appendix_anchor(p["n"]), lambda: p["n"]), CLOSED_FORM),
    Family("multicopy", {"n": int, "eps": float}, _multicopy, CLOSED_FORM),
    Family("base-bipartite", {"n": int, "k": int, "p": float},
           lambda p, seed: _matched(gen_base_bipartite(p["n"], p["k"], p["p"], seed=seed)),
           MATCHING),
    Family("balanced-bipartite", {"n": int, "d": float},
           lambda p, seed: _matched(gen_random_balanced_bipartite(p["n"], p["d"], seed=seed),
                                    balanced_bipartite_flags(p["n"], p["d"])),
           MATCHING, chain=lambda p: (p["n"], balanced_edge_prob(p["n"], p["d"]))),
    Family("clique-blowup",
           {"n": int, "k": int, "p": float, "ell": int, "mode": (_blowup_mode, "implicit")},
           _clique_blowup, LOWER_BOUND),
    Family("bipartite-blowup",
           {"base_n": int, "base_k": int, "base_p": float, "cloud_size": int, "copies": int},
           _cloud_blowup, CLOSED_FORM, track_clouds=True),
)}


# ---------------------------------------------------------------------------
# Sidecar metadata


def sidecar_text(family: str, params: dict, seed: int | None, alpha: int | None) -> str:
    """Key-value sidecar recorded next to generated graph files."""
    lines = [f"family = {family}"]
    for key in sorted(params):
        lines.append(f"{key} = {params[key]}")
    if seed is not None:
        lines.append(f"seed = {seed}")
    if alpha is not None:
        lines.append(f"alpha = {alpha}")
    return "\n".join(lines) + "\n"
