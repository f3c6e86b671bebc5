"""Immutable graphs, independent-set state, and exact alpha oracles.

Graphs are undirected, stored in compressed sparse row form with sorted
neighbor lists so that identical inputs always produce identical layouts.
Three exact independence-number oracles are provided: exhaustive
branch-and-bound for anything up to 32 vertices, Koenig duality via
maximum matching for labeled bipartite graphs, and leaf-to-root dynamic
programming for forests.  Every certificate carries a witness that can be
re-checked with :func:`is_independent`.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import CapExceeded, InvalidEdge, NotAForest, NotBipartite

SIDE_L = 0
SIDE_R = 1
SIDE_NONE = -1

NO_GROUP = -1

# Families whose bipartition is validated at construction time.
BIPARTITE_KINDS = frozenset(
    {"base-bipartite", "bipartite-blowup", "balanced-bipartite"}
)

METHOD_BRUTE_FORCE = "brute_force"
METHOD_BIPARTITE_MATCHING = "bipartite_matching"
METHOD_TREE_DP = "tree_dp"

BRUTE_FORCE_CAP = 32


@dataclass(frozen=True)
class Graph:
    """Undirected graph with optional side labels and group ids.

    ``adj_offsets``/``adj_targets`` hold the CSR adjacency; the neighbor
    list of ``v`` is ``adj_targets[adj_offsets[v]:adj_offsets[v+1]]`` and
    is sorted ascending.  ``side`` maps each vertex to ``SIDE_L``,
    ``SIDE_R`` or ``SIDE_NONE``; ``group`` maps each vertex to its clique,
    cloud or copy id (``NO_GROUP`` when not part of one).  Instances are
    immutable and safe to share across worker processes.
    """

    n: int
    adj_offsets: np.ndarray
    adj_targets: np.ndarray
    side: np.ndarray | None = None
    group: np.ndarray | None = None

    @property
    def num_edges(self) -> int:
        return int(self.adj_offsets[-1]) // 2

    def degree(self, v: int) -> int:
        return int(self.adj_offsets[v + 1] - self.adj_offsets[v])

    def neighbors(self, v: int) -> np.ndarray:
        return self.adj_targets[self.adj_offsets[v] : self.adj_offsets[v + 1]]

    @cached_property
    def neighbor_lists(self) -> list[list[int]]:
        """Python-list adjacency, built once per graph for tight loops."""
        offs = self.adj_offsets.tolist()
        targets = self.adj_targets.tolist()
        return [targets[lo:hi] for lo, hi in zip(offs, offs[1:])]

    @cached_property
    def neighbor_arrays(self) -> list[np.ndarray]:
        """Read-only numpy views of each neighbor list, built once per graph."""
        offs, targets = self.adj_offsets.tolist(), self.adj_targets.view()
        targets.setflags(write=False)
        return [targets[lo:hi] for lo, hi in zip(offs, offs[1:])]

    def edge_array(self) -> np.ndarray:
        """Each edge once as a row ``(u, v)`` with ``u < v``, rows sorted."""
        src = np.repeat(np.arange(self.n), np.diff(self.adj_offsets))
        keep = src < self.adj_targets
        return np.stack([src[keep], self.adj_targets[keep]], axis=1)


def build_graph(
    num_vertices: int,
    edges: Iterable[tuple[int, int]] | np.ndarray,
    labels: dict[int, int] | np.ndarray | None = None,
    groups: dict[int, int] | np.ndarray | None = None,
    kind: str = "generic",
) -> Graph:
    """Construct a :class:`Graph`, deduplicating edges.

    ``edges`` is an ``(m, 2)`` integer array or any iterable of pairs;
    ``(u, v)`` and ``(v, u)`` name the same edge.  Raises
    :class:`InvalidEdge` on a self-loop or an endpoint outside ``[0, n)``,
    and :class:`NotBipartite` if ``kind`` is a bipartite family and an
    edge joins two vertices of the same side; each names the first such
    edge of the input.
    """
    n = int(num_vertices)
    if n < 0:
        raise InvalidEdge("negative vertex count")
    pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
    if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
        raise InvalidEdge(f"edges must be pairs, got shape {pairs.shape}")
    u, v = pairs.reshape(-1, 2).T
    bad = np.flatnonzero((u == v) | (u < 0) | (u >= n) | (v < 0) | (v >= n))
    if bad.size:
        a, b = int(u[bad[0]]), int(v[bad[0]])
        msg = f"self-loop at vertex {a}" if a == b else f"edge ({a},{b}) outside [0,{n})"
        raise InvalidEdge(msg)

    side = _per_vertex_array(n, labels, np.int8, SIDE_NONE)
    group = _per_vertex_array(n, groups, np.int64, NO_GROUP)

    if kind in BIPARTITE_KINDS:
        if side is None:
            raise NotBipartite(f"kind {kind!r} requires side labels")
        bad = np.flatnonzero((side[u] == side[v]) & (side[u] != SIDE_NONE))
        if bad.size:
            a, b = sorted((int(u[bad[0]]), int(v[bad[0]])))
            raise NotBipartite(f"same-side edge ({a},{b})")

    # Each edge once from each end as source*n + target; sorted and deduped,
    # the keys run through the neighbor lists in order.
    keys = np.sort(np.concatenate([u * n + v, v * n + u]))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    targets = keys % n
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=offsets[1:])

    for arr in (offsets, targets, side, group):
        if arr is not None:
            arr.setflags(write=False)
    return Graph(n, offsets, targets, side, group)


def _per_vertex_array(n, values, dtype, fill) -> np.ndarray | None:
    if values is None:
        return None
    if isinstance(values, dict):
        arr = np.full(n, fill, dtype=dtype)
        for v, val in values.items():
            if not 0 <= int(v) < n:
                raise InvalidEdge(f"per-vertex value for vertex {v} outside [0,{n})")
            arr[int(v)] = val
        return arr
    arr = np.asarray(values, dtype=dtype).copy()
    if arr.shape != (n,):
        raise InvalidEdge("per-vertex array has wrong length")
    return arr


def is_independent(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff ``vertices`` spans no edge of ``g``."""
    chosen = set(int(v) for v in vertices)
    return not any(w in chosen for v in chosen for w in g.neighbor_lists[v])


# ---------------------------------------------------------------------------
# Alpha certificates and oracles


@dataclass(frozen=True)
class AlphaCertificate:
    alpha: int
    witness: frozenset[int] | None
    method: str

    def verify(self, g: Graph) -> bool:
        if self.witness is None:
            return True
        return len(self.witness) == self.alpha and is_independent(g, self.witness)


def alpha_bruteforce(g: Graph) -> AlphaCertificate:
    """Exact alpha by exhaustive branch-and-bound (graphs up to
    ``BRUTE_FORCE_CAP`` vertices).

    The witness is the lexicographically smallest maximum independent set,
    so repeated runs on the same graph are byte-identical.
    """
    if g.n > BRUTE_FORCE_CAP:
        raise CapExceeded(f"{g.n} vertices exceeds brute-force cap {BRUTE_FORCE_CAP}")
    if g.n == 0:
        return AlphaCertificate(0, frozenset(), METHOD_BRUTE_FORCE)

    closed = []  # closed neighborhood masks
    for v in range(g.n):
        mask = 1 << v
        for w in g.neighbors(v):
            mask |= 1 << int(w)
        closed.append(mask)

    full = (1 << g.n) - 1
    alpha = _max_is_size(full, closed, g.n)

    # Lexicographic reconstruction: take each vertex in index order iff a
    # maximum set extending the current prefix still contains it.
    witness: list[int] = []
    avail = full
    taken = 0
    for v in range(g.n):
        bit = 1 << v
        if not avail & bit:
            continue
        rest = avail & ~closed[v]
        if taken + 1 + _max_is_size(rest, closed, g.n) == alpha:
            witness.append(v)
            taken += 1
            avail = rest
        else:
            avail &= ~bit
    return AlphaCertificate(alpha, frozenset(witness), METHOD_BRUTE_FORCE)


def _max_is_size(avail0: int, closed: list[int], n: int) -> int:
    best = 0

    def go(avail: int, size: int) -> None:
        nonlocal best
        while True:
            if size + avail.bit_count() <= best:
                return
            if avail == 0:
                best = size
                return
            # Include any vertex of residual degree <= 1 outright; branch on
            # the max-degree vertex otherwise.
            pivot = -1
            pivot_deg = -1
            probe = avail
            while probe:
                bit = probe & -probe
                v = bit.bit_length() - 1
                probe ^= bit
                deg = (closed[v] & avail).bit_count() - 1
                if deg <= 1:
                    avail &= ~closed[v]
                    size += 1
                    pivot = -2
                    break
                if deg > pivot_deg:
                    pivot_deg = deg
                    pivot = v
            if pivot == -2:
                continue
            go(avail & ~closed[pivot], size + 1)
            avail &= ~(1 << pivot)

    go(avail0, 0)
    return best


def alpha_bipartite(g: Graph) -> AlphaCertificate:
    """Exact alpha for a labeled bipartite graph via Koenig duality.

    alpha = n - (maximum matching); the witness is recovered from the
    minimum vertex cover given by alternating reachability.
    """
    if g.side is None:
        raise NotBipartite("graph has no side labels")
    side = g.side
    if np.any(side == SIDE_NONE):
        raise NotBipartite("unlabeled vertices present")
    u, w = g.edge_array().T
    bad = np.flatnonzero(side[u] == side[w])
    if bad.size:
        raise NotBipartite(f"same-side edge ({u[bad[0]]},{w[bad[0]]})")

    adj = g.neighbor_lists
    is_left = [s == SIDE_L for s in side.tolist()]
    left = [v for v in range(g.n) if is_left[v]]
    match = _hopcroft_karp(adj, left)
    matching_size = sum(1 for v in left if match[v] != -1)

    # Alternating BFS from unmatched left vertices.
    reached = bytearray(g.n)
    queue = deque(v for v in left if match[v] == -1)
    for v in queue:
        reached[v] = 1
    while queue:
        u = queue.popleft()
        if is_left[u]:
            for w in adj[u]:
                if not reached[w] and match[u] != w:
                    reached[w] = 1
                    queue.append(w)
        else:
            w = match[u]
            if w != -1 and not reached[w]:
                reached[w] = 1
                queue.append(w)

    witness = frozenset(v for v in range(g.n) if is_left[v] == bool(reached[v]))
    alpha = g.n - matching_size
    cert = AlphaCertificate(alpha, witness, METHOD_BIPARTITE_MATCHING)
    if len(witness) != alpha:
        raise AssertionError("Koenig witness size mismatch")
    return cert


def _hopcroft_karp(adj: list[list[int]], left: list[int]) -> list[int]:
    """Maximum matching; returns mate array over all vertices (-1 unmatched)."""
    INF = float("inf")
    match = [-1] * len(adj)
    dist: dict[int, float] = {}
    goal = INF

    def bfs() -> bool:
        nonlocal goal
        queue = deque()
        for u in left:
            if match[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        goal = INF
        while queue:
            u = queue.popleft()
            if dist[u] >= goal:
                continue
            for w in adj[u]:
                mate = match[w]
                if mate == -1:
                    goal = min(goal, dist[u] + 1)
                elif dist[mate] == INF:
                    dist[mate] = dist[u] + 1
                    queue.append(mate)
        return goal != INF

    def augment(root: int) -> bool:
        """Depth-first search for an augmenting path from ``root`` along
        the BFS layers, with an explicit stack: a frame is a vertex, its
        neighbours and the index of the next one to try.  A dead end drops
        out of the layers (dist = INF), as in the recursive form."""
        stack = [[root, adj[root], 0]]
        path: list[int] = []  # path[i]: the right vertex taken from stack[i]
        while stack:
            frame = stack[-1]
            u, nbrs, i = frame
            while i < len(nbrs):
                w = nbrs[i]
                i += 1
                mate = match[w]
                if mate == -1:
                    if goal == dist[u] + 1:
                        path.append(w)
                        for (x, _, _), y in zip(stack, path):
                            match[x] = y
                            match[y] = x
                        return True
                elif dist[mate] == dist[u] + 1:
                    frame[2] = i
                    path.append(w)
                    stack.append([mate, adj[mate], 0])
                    break
            else:
                dist[u] = INF
                stack.pop()
                if path:
                    path.pop()
        return False

    while bfs():
        for u in left:
            if match[u] == -1:
                augment(u)
    return match


def alpha_tree(g: Graph) -> AlphaCertificate:
    """Exact alpha for a forest by two-state dynamic programming."""
    parent = np.full(g.n, -2, dtype=np.int64)  # -2 unvisited, -1 root
    order: list[int] = []
    for root in range(g.n):
        if parent[root] != -2:
            continue
        parent[root] = -1
        stack = [root]
        while stack:
            u = stack.pop()
            order.append(u)
            for w in g.neighbor_lists[u]:
                if w == parent[u]:
                    continue
                if parent[w] != -2:  # reached twice: the graph is simple, so a cycle
                    raise NotAForest("cycle detected")
                parent[w] = u
                stack.append(w)

    dp_in = np.ones(g.n, dtype=np.int64)
    dp_out = np.zeros(g.n, dtype=np.int64)
    for u in reversed(order):
        p = parent[u]
        if p >= 0:
            dp_in[p] += dp_out[u]
            dp_out[p] += max(dp_in[u], dp_out[u])

    witness: list[int] = []
    take = np.zeros(g.n, dtype=bool)
    for u in order:  # roots first, then children in discovery order
        p = parent[u]
        if p == -1:
            choose = dp_in[u] > dp_out[u]
        elif take[p]:
            choose = False
        else:
            choose = dp_in[u] > dp_out[u]
        take[u] = choose
        if choose:
            witness.append(u)

    alpha = int(sum(max(int(dp_in[u]), int(dp_out[u])) for u in range(g.n) if parent[u] == -1))
    cert = AlphaCertificate(alpha, frozenset(witness), METHOD_TREE_DP)
    if len(witness) != alpha:
        raise AssertionError("tree DP witness size mismatch")
    return cert


# ---------------------------------------------------------------------------
# Text file format: one record per line, tokens split on whitespace.
#
#   c ...              comment (the first token is exactly ``c``); blank lines
#                      are skipped too
#   p is <n> <m>       problem line, exactly once, before any e, l or g line
#   e <u> <v>          one line per edge, 0-indexed, u != v
#   l <v> <L|R>        optional side labels
#   g <v> <group_id>   optional group ids
#
# Every number is a decimal integer (``-?[0-9]+``); counts are >= 0 and
# vertices lie in [0, n).  Any other line raises InvalidEdge naming it.


def graph_to_text(g: Graph) -> str:
    lines = [f"p is {g.n} {g.num_edges}"]
    for u, v in g.edge_array().tolist():
        lines.append(f"e {u} {v}")
    if g.side is not None:
        for v in range(g.n):
            if g.side[v] != SIDE_NONE:
                lines.append(f"l {v} {'L' if g.side[v] == SIDE_L else 'R'}")
    if g.group is not None:
        for v in range(g.n):
            if g.group[v] != NO_GROUP:
                lines.append(f"g {v} {int(g.group[v])}")
    return "\n".join(lines) + "\n"


_INT = re.compile(r"-?[0-9]+")


def _int(tok: str, below: int | None = None) -> int:
    """``tok`` as a decimal integer; with ``below``, a vertex in [0, below)."""
    if not _INT.fullmatch(tok):
        raise ValueError(f"{tok!r} is not an integer")
    val = int(tok)
    if below is not None and not 0 <= val < below:
        raise ValueError(f"vertex {val} outside [0,{below})")
    return val


def graph_from_text(text: str) -> Graph:
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
                n, claimed_edges = _int(args[1]), _int(args[2])
                if min(n, claimed_edges) < 0:
                    raise ValueError("negative count")
            elif tag not in ("e", "l", "g") or len(args) != 2:
                raise ValueError("want 'e <u> <v>', 'l <v> <L|R>' or 'g <v> <group>'")
            elif n is None:
                raise ValueError("comes before the problem line")
            elif tag == "e":
                u, v = _int(args[0], n), _int(args[1], n)
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                edges += (u, v)
            elif tag == "l":
                if args[1] not in ("L", "R"):
                    raise ValueError(f"side {args[1]!r} is not L or R")
                labels[_int(args[0], n)] = SIDE_L if args[1] == "L" else SIDE_R
            else:
                groups[_int(args[0], n)] = _int(args[1])
        except ValueError as exc:
            raise InvalidEdge(f"line {lineno}: {exc}: {raw.strip()!r}") from None
    if n is None:
        raise InvalidEdge("missing problem line")
    g = build_graph(
        n,
        np.array(edges, dtype=np.int64).reshape(-1, 2),
        labels=labels or None,
        groups=groups or None,
    )
    if g.num_edges != claimed_edges:
        raise InvalidEdge(
            f"problem line claims {claimed_edges} edges, file has {g.num_edges}"
        )
    return g


def write_graph_file(g: Graph, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(graph_to_text(g))


def read_graph_file(path: str) -> Graph:
    with open(path) as fh:
        return graph_from_text(fh.read())
