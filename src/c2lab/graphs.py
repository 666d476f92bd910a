"""Labeled multigraphs with deletion, contraction, and census counting.

A graph is stored as an ordered tuple of endpoint pairs over vertices
``1..vertex_count``.  Self-loops and parallel edges are allowed.  Every edge
carries a label; labels of a freshly built graph are the positions ``1..N``,
and they survive deletion/contraction unchanged, so index sets computed on a
subquotient always refer to the original graph's edges.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import (
    BadParameter,
    InvalidRange,
    NotConnected,
    SelfLoopContraction,
    UnknownFamily,
    check_budget,
)


def edge_mask(labels) -> int:
    """Bitmask encoding of a label set (bit label-1)."""
    m = 0
    for i in labels:
        m |= 1 << (i - 1)
    return m


@dataclass(frozen=True)
class Graph:
    edges: tuple[tuple[int, int], ...]
    vertex_count: int
    labels: tuple[int, ...] = field(default=())

    def __post_init__(self):
        edges = tuple((min(u, v), max(u, v)) for u, v in self.edges)
        object.__setattr__(self, "edges", edges)
        if not self.labels:
            object.__setattr__(self, "labels", tuple(range(1, len(edges) + 1)))
        if len(self.labels) != len(edges):
            raise BadParameter("labels must match edges one-to-one")
        if len(set(self.labels)) != len(self.labels):
            raise BadParameter("edge labels must be distinct")
        if self.vertex_count < 1:
            raise BadParameter("a graph has at least one vertex")
        for u, v in edges:
            if not (1 <= u <= self.vertex_count and 1 <= v <= self.vertex_count):
                raise BadParameter(f"edge ({u},{v}) references a missing vertex")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def n(self) -> int:
        """n_G = vertex_count - 1."""
        return self.vertex_count - 1

    @property
    def h(self) -> int:
        """Loop number N - V + (number of components)."""
        return len(self.edges) - self.vertex_count + len(components(self))

    @property
    def label_set(self) -> frozenset:
        return frozenset(self.labels)

    def endpoints(self, label: int) -> tuple[int, int]:
        return self.edges[self.labels.index(label)]

    def is_log_divergent(self) -> bool:
        return is_connected(self) and self.edge_count == 2 * self.h


class _UnionFind:
    def __init__(self, size):
        self.parent = list(range(size + 1))

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def components(G: Graph) -> list[frozenset]:
    uf = _UnionFind(G.vertex_count)
    for u, v in G.edges:
        uf.union(u, v)
    groups: dict[int, set] = {}
    for v in range(1, G.vertex_count + 1):
        groups.setdefault(uf.find(v), set()).add(v)
    return [frozenset(g) for g in groups.values()]


def is_connected(G: Graph) -> bool:
    return len(components(G)) == 1


def _positions(G: Graph, labels) -> list[int]:
    want = set(labels)
    missing = want - set(G.labels)
    if missing:
        raise InvalidRange(f"labels {sorted(missing)} not present in graph")
    return [i for i, lab in enumerate(G.labels) if lab in want]


def delete(G: Graph, I) -> Graph:
    """Remove the edges labeled by I; the vertex set is unchanged."""
    drop = set(_positions(G, I))
    edges = tuple(e for i, e in enumerate(G.edges) if i not in drop)
    labels = tuple(l for i, l in enumerate(G.labels) if i not in drop)
    return Graph(edges, G.vertex_count, labels)


def is_forest_in(G: Graph, J) -> bool:
    """True iff the edges labeled by J contain no cycle of G."""
    uf = _UnionFind(G.vertex_count)
    for i in _positions(G, J):
        u, v = G.edges[i]
        if u == v or not uf.union(u, v):
            return False
    return True


def contract(G: Graph, J) -> Graph:
    """Contract the edges labeled by J, one at a time.

    An edge set is contractible iff it contains no cycle of G, so the error
    does not depend on the order of contraction.  Parallel edges created by
    vertex identification are retained.
    """
    drop = set(_positions(G, J))
    uf = _UnionFind(G.vertex_count)
    for i in drop:
        u, v = G.edges[i]
        if u == v or not uf.union(u, v):
            raise SelfLoopContraction(
                f"edge set {sorted(J)} contains a cycle; contracting it would "
                "contract a self-loop"
            )
    reps = sorted({uf.find(v) for v in range(1, G.vertex_count + 1)})
    new_id = {rep: k + 1 for k, rep in enumerate(reps)}
    edges = tuple(
        (new_id[uf.find(u)], new_id[uf.find(v)])
        for i, (u, v) in enumerate(G.edges)
        if i not in drop
    )
    labels = tuple(l for i, l in enumerate(G.labels) if i not in drop)
    return Graph(edges, len(reps), labels)


def subquotient(G: Graph, deleted, contracted) -> Graph:
    """G \\ I // J for disjoint label sets."""
    deleted, contracted = frozenset(deleted), frozenset(contracted)
    if deleted & contracted:
        raise InvalidRange("deleted and contracted edge sets must be disjoint")
    return contract(delete(G, deleted), contracted)


def _spanning_tree_masks(G: Graph) -> list[int]:
    """All spanning trees as label bitmasks (empty if G is disconnected).

    Internal: does not insist on connectivity, so the polynomial layer can
    map disconnected graphs to the zero polynomial.
    """
    n = G.vertex_count - 1
    if n == 0:
        return [0]
    if len(G.edges) < n:
        return []
    idx = list(range(len(G.edges)))
    out = []
    for combo in itertools.combinations(idx, n):
        uf = _UnionFind(G.vertex_count)
        ok = True
        for i in combo:
            u, v = G.edges[i]
            if u == v or not uf.union(u, v):
                ok = False
                break
        if ok:
            out.append(edge_mask(G.labels[i] for i in combo))
    out.sort()
    return out


def spanning_trees(G: Graph) -> list[frozenset]:
    """All spanning trees, in deterministic (bitmask-ascending) order."""
    if not is_connected(G):
        raise NotConnected("spanning trees require a connected graph")
    masks = _spanning_tree_masks(G)
    return [frozenset(i + 1 for i in range(64) if m >> i & 1) for m in masks]


def spanning_tree_count(G: Graph) -> int:
    return len(_spanning_tree_masks(G))


def girth_at_most(G: Graph, k: int) -> bool:
    """True iff G has a cycle of length <= k (self-loop counts 1, double edge 2)."""
    if k < 1:
        return False
    if any(u == v for u, v in G.edges):
        return True
    if k >= 2:
        seen = set()
        for e in G.edges:
            if e in seen:
                return True
            seen.add(e)
    if k < 3:
        return False
    # Shortest simple cycle through each edge: remove it, then BFS.
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, G.vertex_count + 1)}
    for i, (u, v) in enumerate(G.edges):
        adj[u].append((v, i))
        adj[v].append((u, i))
    for i, (s, t) in enumerate(G.edges):
        dist = {s: 0}
        frontier = [s]
        while frontier and t not in dist:
            nxt = []
            for x in frontier:
                if dist[x] + 1 > k - 1:
                    continue
                for y, j in adj[x]:
                    if j != i and y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        if t in dist and dist[t] + 1 <= k:
            return True
    return False


def census(G: Graph, u: int, v: int, *, budget: int | None = None) -> tuple[int, int]:
    """Count subquotient pairs (I, J) with |I| = h-u and |J| = n-v.

    Returns (r, r_bar): r counts ordered pairs of disjoint edge label sets
    for which G\\I//J is connected and co-connected (J acyclic in G\\I);
    r_bar counts all such pairs.  Raises BudgetExceeded before enumerating
    when r_bar exceeds ``budget``.
    """
    if u < 0 or v < 0 or u + v > G.edge_count:
        raise InvalidRange(f"census parameters u={u}, v={v} out of range")
    h, n = G.h, G.n
    di, dj = h - u, n - v
    if di < 0 or dj < 0:
        raise InvalidRange(f"census needs u <= h_G={h} and v <= n_G={n}")
    labels = sorted(G.labels)
    r_bar = math.comb(len(labels), di) * math.comb(len(labels) - di, dj)
    check_budget(r_bar, budget, f"the census of {r_bar} pairs")
    r = 0
    for I in itertools.combinations(labels, di):
        GI = delete(G, I)
        if not is_connected(GI):
            continue
        rest = [l for l in labels if l not in I]
        for J in itertools.combinations(rest, dj):
            if is_forest_in(GI, J):
                r += 1
    return r, r_bar


def family(name: str, n: int) -> Graph:
    """Deterministic labeled members of the built-in graph families."""
    if name == "banana":
        if n < 1:
            raise BadParameter("banana needs n >= 1 edges")
        return Graph(tuple((1, 2) for _ in range(n)), 2)
    if name == "cycle":
        if n < 1:
            raise BadParameter("cycle needs n >= 1 edges")
        if n == 1:
            return Graph(((1, 1),), 1)
        return Graph(
            tuple((i, i + 1) for i in range(1, n)) + ((1, n),), n
        )
    if name == "path":
        if n < 1:
            raise BadParameter("path needs n >= 1 edges")
        return Graph(tuple((i, i + 1) for i in range(1, n + 1)), n + 1)
    if name == "wheel":
        # WS_n: rim vertices 1..n, hub n+1; rim edges first, then spokes.
        if n < 3:
            raise BadParameter("wheel needs n >= 3 rim vertices")
        rim = tuple((i, i + 1) for i in range(1, n)) + ((1, n),)
        spokes = tuple((i, n + 1) for i in range(1, n + 1))
        return Graph(rim + spokes, n + 1)
    if name == "complete":
        if n < 1:
            raise BadParameter("complete needs n >= 1 vertices")
        return Graph(
            tuple((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)), n
        )
    if name == "Gn":
        # Triple edge, n-2 double edges, one single edge along a path.
        if n < 2:
            raise BadParameter("Gn needs n >= 2")
        edges = [(1, 2)] * 3
        for i in range(2, n):
            edges += [(i, i + 1)] * 2
        edges.append((n, n + 1))
        return Graph(tuple(edges), n + 1)
    raise UnknownFamily(f"unknown family {name!r}")


def _degree_profile(G: Graph):
    deg = [0] * (G.vertex_count + 1)
    loops = [0] * (G.vertex_count + 1)
    for u, v in G.edges:
        deg[u] += 1
        deg[v] += 1
        if u == v:
            loops[u] += 1
    return deg, loops


def canonical_form(G: Graph) -> tuple:
    """Canonical edge multiset under vertex relabeling (label-blind).

    Vertices are first partitioned by iteratively refined (degree, loop)
    colors; only permutations preserving the partition are tried.  Fine for
    desk-scale graphs (<= 8 vertices).
    """
    V = G.vertex_count
    deg, loops = _degree_profile(G)
    color = {v: (deg[v], loops[v]) for v in range(1, V + 1)}
    for _ in range(V):
        new = {}
        for v in range(1, V + 1):
            nb = sorted(
                color[u if w == v else w]
                for u, w in G.edges
                if v in (u, w) and u != w
            )
            new[v] = (color[v], tuple(nb))
        if len(set(new.values())) == len(set(color.values())):
            color = new
            break
        color = new
    classes: dict = {}
    for v in range(1, V + 1):
        classes.setdefault(color[v], []).append(v)
    ordered = [classes[c] for c in sorted(classes)]
    best = None
    for perms in itertools.product(*(itertools.permutations(c) for c in ordered)):
        mapping = {}
        pos = 1
        for cls, perm in zip(ordered, perms):
            for v in perm:
                mapping[v] = pos
                pos += 1
        key = tuple(
            sorted((min(mapping[u], mapping[v]), max(mapping[u], mapping[v])) for u, v in G.edges)
        )
        if best is None or key < best:
            best = key
    return (V, best)


def is_isomorphic(G: Graph, H: Graph) -> bool:
    if G.vertex_count != H.vertex_count or G.edge_count != H.edge_count:
        return False
    return canonical_form(G) == canonical_form(H)


def connected_multigraphs(max_edges: int) -> list[Graph]:
    """All connected multigraphs with 1..max_edges edges, up to isomorphism.

    Built by edge augmentation (every connected multigraph has an edge order
    whose prefixes are connected), deduplicated by canonical form.
    """
    seed = [Graph(((1, 2),), 2), Graph(((1, 1),), 1)]
    levels = {1: {canonical_form(g): g for g in seed}}
    out = list(levels[1].values())
    for k in range(2, max_edges + 1):
        cur: dict = {}
        for g in levels[k - 1].values():
            V = g.vertex_count
            candidates = [(u, v) for u in range(1, V + 1) for v in range(u, V + 1)]
            candidates += [(u, V + 1) for u in range(1, V + 1)]
            for u, v in candidates:
                vc = max(V, v)
                h = Graph(g.edges + ((u, v),), vc)
                key = canonical_form(h)
                if key not in cur:
                    cur[key] = h
        levels[k] = cur
        out.extend(cur.values())
    return out
