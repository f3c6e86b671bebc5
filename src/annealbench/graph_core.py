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

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable

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
    kind: str = "generic"

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
        offs = self.adj_offsets
        targets = self.adj_targets.tolist()
        return [targets[offs[v] : offs[v + 1]] for v in range(self.n)]

    def edge_set(self) -> set[tuple[int, int]]:
        out: set[tuple[int, int]] = set()
        for u in range(self.n):
            for w in self.neighbors(u):
                if u < w:
                    out.add((u, int(w)))
        return out


def build_graph(
    num_vertices: int,
    edges: Iterable[tuple[int, int]],
    labels: dict[int, int] | np.ndarray | None = None,
    groups: dict[int, int] | np.ndarray | None = None,
    kind: str = "generic",
) -> Graph:
    """Construct a :class:`Graph`, deduplicating edges.

    Raises :class:`InvalidEdge` on out-of-range endpoints or self-loops,
    and :class:`NotBipartite` if ``kind`` is a bipartite family and an
    edge joins two vertices of the same side.
    """
    n = int(num_vertices)
    if n < 0:
        raise InvalidEdge("negative vertex count")
    pairs: set[tuple[int, int]] = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise InvalidEdge(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidEdge(f"edge ({u},{v}) outside [0,{n})")
        pairs.add((u, v) if u < v else (v, u))

    side = _per_vertex_array(n, labels, np.int8, SIDE_NONE)
    group = _per_vertex_array(n, groups, np.int64, NO_GROUP)

    if kind in BIPARTITE_KINDS:
        if side is None:
            raise NotBipartite(f"kind {kind!r} requires side labels")
        for u, v in pairs:
            if side[u] == side[v] and side[u] != SIDE_NONE:
                raise NotBipartite(f"same-side edge ({u},{v})")

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
    # Sorted input plus per-vertex append yields sorted neighbor lists for
    # the u side only; sort each list to make the layout input-order free.
    for v in range(n):
        lo, hi = offsets[v], offsets[v + 1]
        targets[lo:hi] = np.sort(targets[lo:hi])

    for arr in (offsets, targets):
        arr.setflags(write=False)
    if side is not None:
        side.setflags(write=False)
    if group is not None:
        group.setflags(write=False)
    return Graph(n, offsets, targets, side, group, kind)


def _per_vertex_array(n, values, dtype, fill) -> np.ndarray | None:
    if values is None:
        return None
    if isinstance(values, dict):
        arr = np.full(n, fill, dtype=dtype)
        for v, val in values.items():
            arr[int(v)] = val
        return arr
    arr = np.asarray(values, dtype=dtype).copy()
    if arr.shape != (n,):
        raise InvalidEdge("per-vertex array has wrong length")
    return arr


def is_independent(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff ``vertices`` spans no edge of ``g``."""
    chosen = set(int(v) for v in vertices)
    for v in chosen:
        for w in g.neighbors(v):
            if int(w) in chosen:
                return False
    return True


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


def alpha_bruteforce(g: Graph, cap: int = BRUTE_FORCE_CAP) -> AlphaCertificate:
    """Exact alpha by exhaustive branch-and-bound (graphs up to ``cap``).

    The witness is the lexicographically smallest maximum independent set,
    so repeated runs on the same graph are byte-identical.
    """
    if g.n > cap:
        raise CapExceeded(f"{g.n} vertices exceeds brute-force cap {cap}")
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
    for u in range(g.n):
        for w in g.neighbors(u):
            if side[u] == side[int(w)]:
                raise NotBipartite(f"same-side edge ({u},{int(w)})")

    left = [v for v in range(g.n) if side[v] == SIDE_L]
    match = _hopcroft_karp(g, left)
    matching_size = sum(1 for v in left if match[v] != -1)

    # Alternating BFS from unmatched left vertices.
    reached = bytearray(g.n)
    queue = deque(v for v in left if match[v] == -1)
    for v in queue:
        reached[v] = 1
    while queue:
        u = queue.popleft()
        if side[u] == SIDE_L:
            for w in g.neighbors(u):
                w = int(w)
                if not reached[w] and match[u] != w:
                    reached[w] = 1
                    queue.append(w)
        else:
            w = match[u]
            if w != -1 and not reached[w]:
                reached[w] = 1
                queue.append(w)

    witness = frozenset(
        v
        for v in range(g.n)
        if (side[v] == SIDE_L and reached[v]) or (side[v] == SIDE_R and not reached[v])
    )
    alpha = g.n - matching_size
    cert = AlphaCertificate(alpha, witness, METHOD_BIPARTITE_MATCHING)
    if len(witness) != alpha:
        raise AssertionError("Koenig witness size mismatch")
    return cert


def _hopcroft_karp(g: Graph, left: list[int]) -> list[int]:
    """Maximum matching; returns mate array over all vertices (-1 unmatched)."""
    INF = float("inf")
    match = [-1] * g.n
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
            for w in g.neighbors(u):
                mate = match[int(w)]
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
        stack = [[root, g.neighbors(root).tolist(), 0]]
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
                    stack.append([mate, g.neighbors(mate).tolist(), 0])
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
        seen_here = 1
        edges_here = 0
        while stack:
            u = stack.pop()
            order.append(u)
            for w in g.neighbors(u):
                w = int(w)
                edges_here += 1
                if w == parent[u]:
                    continue
                if parent[w] != -2:
                    raise NotAForest("cycle detected")
                parent[w] = u
                seen_here += 1
                stack.append(w)
        if edges_here != 2 * (seen_here - 1):
            raise NotAForest("cycle detected")

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
# Text file format
#
#   p is <num_vertices> <num_edges>
#   e <u> <v>          one line per edge, 0-indexed, u < v, sorted
#   l <v> <L|R>        optional side labels, ascending v
#   g <v> <group_id>   optional group ids, ascending v


def graph_to_text(g: Graph) -> str:
    lines = [f"p is {g.n} {g.num_edges}"]
    for u, v in sorted(g.edge_set()):
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


def graph_from_text(text: str, kind: str = "generic") -> Graph:
    n = None
    claimed_edges = None
    edges: list[tuple[int, int]] = []
    labels: dict[int, int] = {}
    groups: dict[int, int] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if parts[1] != "is" or len(parts) != 4:
                raise InvalidEdge(f"bad problem line: {raw!r}")
            n = int(parts[2])
            claimed_edges = int(parts[3])
        elif parts[0] == "e":
            edges.append((int(parts[1]), int(parts[2])))
        elif parts[0] == "l":
            labels[int(parts[1])] = SIDE_L if parts[2] == "L" else SIDE_R
        elif parts[0] == "g":
            groups[int(parts[1])] = int(parts[2])
        else:
            raise InvalidEdge(f"unrecognized line: {raw!r}")
    if n is None:
        raise InvalidEdge("missing problem line")
    g = build_graph(
        n,
        edges,
        labels=labels or None,
        groups=groups or None,
        kind=kind,
    )
    if claimed_edges is not None and g.num_edges != claimed_edges:
        raise InvalidEdge(
            f"problem line claims {claimed_edges} edges, file has {g.num_edges}"
        )
    return g


def write_graph_file(g: Graph, path_or_file: str | IO[str]) -> None:
    if hasattr(path_or_file, "write"):
        path_or_file.write(graph_to_text(g))
    else:
        with open(path_or_file, "w") as fh:
            fh.write(graph_to_text(g))


def read_graph_file(path_or_file: str | IO[str], kind: str = "generic") -> Graph:
    if hasattr(path_or_file, "read"):
        return graph_from_text(path_or_file.read(), kind=kind)
    with open(path_or_file) as fh:
        return graph_from_text(fh.read(), kind=kind)
