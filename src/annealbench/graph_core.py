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

import gc
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import CapExceeded, InvalidEdge, NotAForest, NotBipartite

SIDE_L = 0
SIDE_R = 1
SIDE_NONE = -1

NO_GROUP = -1

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

    @cached_property
    def neighbor_lists(self) -> list[list[int]]:
        """Python-list adjacency for tight loops, built once; vertex ints are shared."""
        offs = self.adj_offsets.tolist()
        # Lists of ints hold no reference cycles, so the cyclic collector is
        # paused while they are made rather than rescanning them as they grow.
        collecting = gc.isenabled()
        gc.disable()
        try:
            # one int object per vertex, shared by every list that names it
            targets = np.arange(self.n).astype(object)[self.adj_targets].tolist()
            return [targets[lo:hi] for lo, hi in zip(offs, offs[1:])]
        finally:
            if collecting:
                gc.enable()

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
    bipartite: bool = False,
) -> Graph:
    """Construct a :class:`Graph`, deduplicating edges.

    ``edges`` is an ``(m, 2)`` integer array or any iterable of pairs;
    ``(u, v)`` and ``(v, u)`` name the same edge.  Raises
    :class:`InvalidEdge` on a pair that is not two integers, a self-loop or
    an endpoint outside ``[0, n)``, and :class:`NotBipartite` if
    ``bipartite`` is set and an edge joins two vertices of the same side;
    each names the first such edge of the input.  A side label other than
    ``SIDE_L``, ``SIDE_R`` or ``SIDE_NONE``, or a group id that is not an
    integer, raises :class:`InvalidEdge` naming its vertex.
    """
    n = int(num_vertices)
    if n < 0:
        raise InvalidEdge("negative vertex count")
    given = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    if given.size and (given.ndim != 2 or given.shape[1] != 2):
        raise InvalidEdge(f"edges must be pairs, got shape {given.shape}")
    given = given.reshape(-1, 2)
    pairs, exact = _as_int64(given, "edges")
    u, v = pairs.T
    # Whole-array reductions on the contiguous pairs; only input that fails
    # them pays for the per-edge masks that name its first bad edge.
    if pairs.size and (exact is not None or pairs.min() < 0 or pairs.max() >= n or (u == v).any()):
        bad = (u == v) | (u < 0) | (u >= n) | (v < 0) | (v >= n)
        if exact is not None:
            bad |= ~exact.all(1)
        i = np.flatnonzero(bad)[0]
        if exact is not None and not exact[i].all():
            raise InvalidEdge(f"edge ({given[i, 0]},{given[i, 1]}) is not a pair of integers")
        a, b = int(u[i]), int(v[i])
        raise InvalidEdge(f"self-loop at vertex {a}" if a == b else f"edge ({a},{b}) outside [0,{n})")

    side = _per_vertex_array(n, labels, "side label", np.int8, SIDE_NONE)
    group = _per_vertex_array(n, groups, "group id", np.int64, NO_GROUP)

    if bipartite:
        if side is None:
            raise NotBipartite("a bipartite graph requires side labels")
        bad = np.flatnonzero((side[u] == side[v]) & (side[u] != SIDE_NONE))
        if bad.size:
            a, b = sorted((int(u[bad[0]]), int(v[bad[0]])))
            raise NotBipartite(f"same-side edge ({a},{b})")

    # Each edge once from each end as source*n + target, in one buffer;
    # sorted and deduped, the keys run through the neighbor lists in order.
    m = len(pairs)
    keys = np.empty(2 * m, dtype=np.int64)
    np.multiply(u, n, out=keys[:m])
    keys[:m] += v
    np.multiply(v, n, out=keys[m:])
    keys[m:] += u
    keys.sort()
    first = np.empty(2 * m, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    # The mask is freed, and the degrees counted, before the targets are
    # made, so fewer arrays are alive at once; in a process that repeats the
    # build, other orders raised the peak RSS by up to 2.6 MiB.
    del first
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=offsets[1:])
    targets = keys % n

    for arr in (offsets, targets, side, group):
        if arr is not None:
            arr.setflags(write=False)
    return Graph(n, offsets, targets, side, group)


def _as_int64(values: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray | None]:
    """``values`` as int64, and None if the cast kept every value, else the
    mask of the values it kept; :class:`InvalidEdge` on non-numbers."""
    if values.dtype.kind not in "biuf":
        raise InvalidEdge(f"{what} must be integers, got dtype {values.dtype}")
    if np.can_cast(values.dtype, np.int64):
        return values.astype(np.int64, copy=False), None
    with np.errstate(invalid="ignore"):  # NaN, inf and out-of-range floats
        cast = values.astype(np.int64)
    kept = cast == values
    return cast, None if kept.all() else kept


def _per_vertex_array(n, values, what, dtype, fill) -> np.ndarray | None:
    """``values`` (a dict vertex -> value or a length-``n`` array) as a fresh
    array of ``dtype``; :class:`InvalidEdge` naming the first vertex whose
    value is not an integer or, for side labels, not a side."""
    if values is None:
        return None
    if isinstance(values, dict):
        vertices = at = [int(v) for v in values]
        for v in vertices:
            if not 0 <= v < n:
                raise InvalidEdge(f"per-vertex value for vertex {v} outside [0,{n})")
        given = np.asarray(list(values.values()))
    else:
        vertices, at, given = range(n), slice(None), np.asarray(values)
    if given.shape != (len(vertices),):
        raise InvalidEdge("per-vertex array has wrong length")
    vals, exact = _as_int64(given, f"{what}s")
    ok = np.ones(len(vals), dtype=bool) if exact is None else exact.copy()
    if dtype == np.int8:  # side labels
        ok &= (vals == SIDE_L) | (vals == SIDE_R) | (vals == SIDE_NONE)
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        want = "an integer" if exact is not None and not exact[i] else "SIDE_L, SIDE_R or SIDE_NONE"
        raise InvalidEdge(f"{what} {given[i]} of vertex {vertices[i]} is not {want}")
    arr = np.full(n, fill, dtype=dtype)
    arr[at] = vals
    return arr


def is_independent(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff ``vertices`` spans no edge of ``g``; :class:`InvalidEdge`
    naming a vertex outside ``[0, n)``."""
    chosen = set(int(v) for v in vertices)
    for v in chosen:
        if not 0 <= v < g.n:
            raise InvalidEdge(f"vertex {v} outside [0,{g.n})")
    return not any(w in chosen for v in chosen for w in g.neighbor_lists[v])


# ---------------------------------------------------------------------------
# Alpha certificates and oracles


@dataclass(frozen=True)
class AlphaCertificate:
    alpha: int
    witness: frozenset[int]
    method: str

    def verify(self, g: Graph) -> bool:
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
        for w in g.neighbor_lists[v]:
            mask |= 1 << w
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
    # Each edge from both ends, in CSR order: the first bad entry is the
    # first same-side edge (u, w), u < w, in edge_array's order.
    bad = np.flatnonzero(np.repeat(side, np.diff(g.adj_offsets)) == side[g.adj_targets])
    if bad.size:
        u = np.searchsorted(g.adj_offsets, bad[0], side="right") - 1
        raise NotBipartite(f"same-side edge ({u},{g.adj_targets[bad[0]]})")

    # Search from the smaller side (L on a tie): a matching that covers it
    # is maximum, so the search stops with no final exhaustive phase.
    adj = g.neighbor_lists
    searched = side == (SIDE_L if 2 * np.count_nonzero(side == SIDE_L) <= g.n else SIDE_R)
    roots = np.flatnonzero(searched).tolist()
    match = _max_matching(adj, roots)

    # Alternating BFS, layer by layer, from the unmatched search-side
    # vertices: an other-side vertex is reached over any edge, a search-side
    # one over its matched edge.  Every reached other-side vertex is matched,
    # since the matching is maximum.
    layer = [v for v in roots if match[v] == -1]
    alpha = g.n - len(roots) + len(layer)  # n minus the matching's size
    reached = bytearray(g.n)
    while layer:
        nxt = []
        for u in layer:
            reached[u] = 1
            for w in adj[u]:
                if not reached[w]:
                    reached[w] = 1
                    nxt.append(match[w])
        layer = nxt

    witness = frozenset(np.flatnonzero(searched == np.frombuffer(reached, bool)).tolist())
    cert = AlphaCertificate(alpha, witness, METHOD_BIPARTITE_MATCHING)
    if len(witness) != alpha:
        raise AssertionError("Koenig witness size mismatch")
    return cert


def _max_matching(adj: list[list[int]], side: list[int]) -> list[int]:
    """Maximum matching searched from ``side``; returns the mate array over
    all vertices (-1 unmatched).

    A greedy pass gives each vertex of ``side``, in order, its first free
    neighbour; Pothen-Fan phases with lookahead and fairness (PF+: Pothen &
    Fan, ACM TOMS 16 (1990) 303; Duff, Kaya & Ucar, ACM TOMS 38 (2011) 13)
    then augment it until a phase finds no augmenting path.
    """
    n = len(adj)
    match = [-1] * n
    for u in side:
        for w in adj[u]:
            if match[w] == -1:
                match[u], match[w] = w, u
                break
    look = [0] * n  # neighbours of u before look[u] are matched, and stay so
    seen = [0] * n  # the last phase that reached each other-side vertex
    free, phase = [u for u in side if match[u] == -1], 0
    while free:
        phase += 1
        scan = iter if phase % 2 else reversed  # fairness: alternate the order
        for root in free:
            # Depth-first with an explicit stack of (vertex, neighbour
            # iterator) frames; each entered vertex first looks ahead for a
            # free neighbour, which ends the path.
            u, stack = root, [(root, scan(adj[root]))]
            while stack:
                nbrs, k = adj[u], look[u]
                while k < len(nbrs) and match[nbrs[k]] != -1:
                    k += 1
                look[u] = k
                if k < len(nbrs):  # augment: each frame, top first, takes w
                    w = nbrs[k]  # and hands its old mate down to the frame below
                    for v, _ in reversed(stack):
                        match[v], match[w], w = w, v, match[v]
                    break
                while stack:
                    for w in stack[-1][1]:
                        if seen[w] != phase:
                            seen[w] = phase
                            u = match[w]
                            stack.append((u, scan(adj[u])))
                            break
                    else:
                        stack.pop()
                        continue
                    break
        still = [u for u in free if match[u] == -1]
        free = still if len(still) < len(free) else []  # a phase that augments nothing ends it
    return match


def alpha_tree(g: Graph) -> AlphaCertificate:
    """Exact alpha for a forest by two-state dynamic programming."""
    adj = g.neighbor_lists
    parent = [-2] * g.n  # -2 unvisited, -1 root
    order: list[int] = []
    for root in range(g.n):
        if parent[root] != -2:
            continue
        parent[root] = -1
        stack = [root]
        while stack:
            u = stack.pop()
            order.append(u)
            for w in adj[u]:
                if w == parent[u]:
                    continue
                if parent[w] != -2:  # reached twice: the graph is simple, so a cycle
                    raise NotAForest("cycle detected")
                parent[w] = u
                stack.append(w)

    dp_in = [1] * g.n
    dp_out = [0] * g.n
    for u in reversed(order):
        p = parent[u]
        if p >= 0:
            dp_in[p] += dp_out[u]
            dp_out[p] += max(dp_in[u], dp_out[u])

    witness: list[int] = []
    take = [False] * g.n
    for u in order:  # roots first, then children in discovery order
        p = parent[u]
        take[u] = not (p >= 0 and take[p]) and dp_in[u] > dp_out[u]
        if take[u]:
            witness.append(u)

    alpha = sum(max(dp_in[u], dp_out[u]) for u in range(g.n) if parent[u] == -1)
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


_INT = re.compile(r"\s*-?[0-9]+\s*")


def parse_int(tok: str, below: int | None = None) -> int:
    """``tok`` as ASCII ``-?[0-9]+`` after ``strip()``; with ``below``, a vertex in [0, below)."""
    if not _INT.fullmatch(tok):
        raise ValueError(f"{tok!r} is not an integer")
    val = int(tok)
    if below is not None and not 0 <= val < below:
        raise ValueError(f"vertex {val} outside [0,{below})")
    return val


def graph_from_text(text: str) -> Graph:
    lines = text.splitlines()
    # The first pass checks the e lines in bulk.  If any check fails, a second
    # pass checks each e line as it comes, to name the first bad line of any tag.
    for careful in (False, True):
        n = claimed_edges = None
        e_toks: list[str] = []  # u0, v0, u1, v1, ...
        labels: dict[int, int] = {}
        groups: dict[int, int] = {}
        for lineno, raw in enumerate(lines, 1):
            tag, *args = raw.split() or ["c"]
            try:
                if tag == "c":
                    continue
                if tag == "p":
                    if n is not None or len(args) != 3 or args[0] != "is":
                        raise ValueError("want one problem line 'p is <n> <m>'")
                    n, claimed_edges = parse_int(args[1]), parse_int(args[2])
                    if min(n, claimed_edges) < 0:
                        raise ValueError("negative count")
                elif tag not in ("e", "l", "g") or len(args) != 2:
                    raise ValueError("want 'e <u> <v>', 'l <v> <L|R>' or 'g <v> <group>'")
                elif n is None:
                    raise ValueError("comes before the problem line")
                elif tag == "e":
                    if careful and (u := parse_int(args[0], n)) == parse_int(args[1], n):
                        raise ValueError(f"self-loop at vertex {u}")
                    e_toks += args
                elif tag == "l" and args[1] not in ("L", "R"):
                    raise ValueError(f"side {args[1]!r} is not L or R")
                else:
                    val = parse_int(args[1]) if tag == "g" else SIDE_L if args[1] == "L" else SIDE_R
                    table = labels if tag == "l" else groups
                    if (v := parse_int(args[0], n)) in table:
                        raise ValueError(f"second '{tag}' line for vertex {v}")
                    table[v] = val
            except ValueError as exc:
                if careful:
                    raise InvalidEdge(f"line {lineno}: {exc}: {raw.strip()!r}") from None
                break
        else:
            if n is None:
                raise InvalidEdge("missing problem line")
            flat = " ".join(e_toks)
            if careful or re.fullmatch(r"[0-9 ]*", flat):  # no sign; a huge value stays >= n
                edges = np.fromstring(flat, dtype=np.int64, sep=" ").reshape(-1, 2)
                if careful or not np.any((edges[:, 0] == edges[:, 1]) | (edges >= n).any(1)):
                    break
    g = build_graph(n, edges, labels=labels or None, groups=groups or None)
    if g.num_edges != claimed_edges:
        raise InvalidEdge(f"problem line claims {claimed_edges} edges, file has {g.num_edges}")
    return g


def read_graph_file(path: str) -> Graph:
    with open(path) as fh:
        return graph_from_text(fh.read())
