"""Labeled multigraphs with deletion, contraction, spanning trees, and
census counting.

A graph is stored as an ordered tuple of endpoint pairs over vertices
``1..vertex_count``.  Self-loops and parallel edges are allowed.  Every edge
carries a label; labels of a freshly built graph are the positions ``1..N``,
and they survive deletion/contraction unchanged, so index sets computed on a
subquotient always refer to the original graph's edges.

Spanning trees are listed by one depth-first walk that never puts in an
edge closing a cycle (``spanning_tree_labels``); it yields labels, not
fixed-width masks, so neither the edge count nor the labels are bounded.

The (I, J) scans of the census, both admissibility checks and the S_t sums
share one batched kernel (``scan_pairs``): the pairs of each size come in
numpy blocks, and a block's subquotients G\\I//J are read off as
label-free keys, with no Graph built and no Python loop per pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

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


def incidence(G: Graph, order=None) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The row r_e of x_u - x_v of every edge (u, v), in edge order.

    This is the one place that fixes the incidence convention of M(G),
    P_G(alpha) and the position-space quadrics.  A row lists its nonzero
    (index, coefficient) pairs, where index i is the vertex ``order[i]``
    (default: 1..V-1).  Edges are oriented low -> high, so u gets +1 and v
    gets -1.  A vertex outside ``order`` is pinned to zero and gets no
    entry, and a self-loop's row is empty.
    """
    if order is None:
        order = range(1, G.vertex_count)
    index = {v: i for i, v in enumerate(order)}
    rows = []
    for u, v in G.edges:
        row = ()
        if u != v:
            if u in index:
                row = ((index[u], 1),)
            if v in index:
                row += ((index[v], -1),)
        rows.append(row)
    return tuple(rows)


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


def _forest(G: Graph, positions) -> _UnionFind | None:
    """The union-find of the edges of G at ``positions``, or None when they
    hold a cycle (a self-loop is one)."""
    uf = _UnionFind(G.vertex_count)
    for i in positions:
        u, v = G.edges[i]
        if u == v or not uf.union(u, v):
            return None
    return uf


def is_forest_in(G: Graph, J) -> bool:
    """True iff the edges labeled by J contain no cycle of G."""
    return _forest(G, _positions(G, J)) is not None


def contract(G: Graph, J) -> Graph:
    """Contract the edges labeled by J, one at a time.

    An edge set is contractible iff it contains no cycle of G, so the error
    does not depend on the order of contraction.  Parallel edges created by
    vertex identification are retained.  The merged vertices are numbered
    by their least vertex of G, so the result does not depend on the order
    either; ``PairBlock.keys`` numbers them the same way.
    """
    drop = set(_positions(G, J))
    uf = _forest(G, drop)
    if uf is None:
        raise SelfLoopContraction(
            f"edge set {sorted(J)} contains a cycle; contracting it would "
            "contract a self-loop"
        )
    new_id = {}  # root -> new vertex, in the order of each class's least vertex
    for v in range(1, G.vertex_count + 1):
        new_id.setdefault(uf.find(v), len(new_id) + 1)
    edges = tuple(
        (new_id[uf.find(u)], new_id[uf.find(v)])
        for i, (u, v) in enumerate(G.edges)
        if i not in drop
    )
    labels = tuple(l for i, l in enumerate(G.labels) if i not in drop)
    return Graph(edges, len(new_id), labels)


def subquotient(G: Graph, deleted, contracted) -> Graph:
    """G \\ I // J for disjoint label sets."""
    deleted, contracted = frozenset(deleted), frozenset(contracted)
    if deleted & contracted:
        raise InvalidRange("deleted and contracted edge sets must be disjoint")
    return contract(delete(G, deleted), contracted)


def spanning_tree_labels(G: Graph) -> list[tuple[int, ...]]:
    """The labels of every spanning tree, each ascending, in ascending
    order of their ``edge_mask``; empty if G is disconnected.

    A depth-first walk over the edges by descending label.  Each step puts
    in one more edge, trying the positions from the last one that still
    leaves enough edges down to the one after the previous edge, so trees
    come in ascending bitmask order.  A link per chosen edge joins the two
    classes of the forest chosen so far under the lesser root, so a
    vertex's root is its class's least vertex; an edge whose two ends share
    a class is skipped, so the walk visits only forests and recurses V - 1
    deep.  It does not insist on connectivity, so the polynomial layer can
    map disconnected graphs to the zero polynomial.
    """
    order = sorted(range(len(G.edges)), key=G.labels.__getitem__, reverse=True)
    ends = [G.edges[i] for i in order]
    labels = [G.labels[i] for i in order]
    N = len(order)
    up = list(range(G.vertex_count + 1))  # a root is its own entry
    trees: list[tuple[int, ...]] = []
    chosen: list[int] = []  # descending

    def walk(d: int, left: int) -> None:
        for e in range(N - left, d - 1, -1):
            a, b = ends[e]
            while up[a] != a:
                a = up[a]
            while up[b] != b:
                b = up[b]
            if a != b:
                chosen.append(labels[e])
                if left == 1:
                    trees.append(tuple(reversed(chosen)))
                else:
                    if a > b:
                        a, b = b, a
                    up[b] = a
                    walk(e + 1, left - 1)
                    up[b] = b
                chosen.pop()

    if G.vertex_count == 1:
        return [()]
    walk(0, G.vertex_count - 1)
    return trees


def spanning_trees(G: Graph) -> list[frozenset]:
    """All spanning trees, in deterministic (bitmask-ascending) order."""
    if not is_connected(G):
        raise NotConnected("spanning trees require a connected graph")
    return [frozenset(t) for t in spanning_tree_labels(G)]


def spanning_tree_count(G: Graph) -> int:
    return len(spanning_tree_labels(G))


def _simple_reduction(G: Graph):
    """Loop labels, and parallel classes keyed by endpoint pair."""
    loops = []
    classes: dict[tuple[int, int], list[int]] = {}
    for lab, (u, v) in zip(G.labels, G.edges):
        if u == v:
            loops.append((lab, u))
        else:
            classes.setdefault((u, v), []).append(lab)
    for labs in classes.values():
        labs.sort()
    return loops, classes


def shortest_cycle(G: Graph, k: int | None = None):
    """Sorted edge labels of a shortest cycle of length <= k (any length when
    k is None), or None.

    A self-loop has length 1 and a parallel pair length 2; the least loop,
    then the two least labels of the parallel class with the least label,
    win.  Otherwise each edge, in label order, is closed by a shortest path
    that avoids it, found by BFS to depth k - 1; the first shortest such
    cycle wins, so a triangle ends the search.
    """
    k = G.edge_count if k is None else k
    if k < 1:
        return None
    loops, classes = _simple_reduction(G)
    if loops:
        return (min(loops)[0],)
    parallel = [labs for labs in classes.values() if len(labs) >= 2]
    if k >= 2 and parallel:
        return tuple(min(parallel)[:2])
    if k < 3:
        return None
    edges = sorted((labs[0], u, v) for (u, v), labs in classes.items())
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, G.vertex_count + 1)}
    for lab, u, v in edges:
        adj[u].append((v, lab))
        adj[v].append((u, lab))
    best = None
    for lab, s, t in edges:
        prev = {s: None}
        frontier = [s]
        for _ in range(k - 1):
            if t in prev or not frontier:
                break
            nxt = []
            for x in frontier:
                for y, l2 in adj[x]:
                    if l2 != lab and y not in prev:
                        prev[y] = (x, l2)
                        nxt.append(y)
            frontier = nxt
        if t in prev:
            cyc, x = [lab], t
            while prev[x] is not None:
                x, l2 = prev[x]
                cyc.append(l2)
            best = tuple(sorted(cyc))
            k = len(best) - 1  # only a strictly shorter cycle can replace it
            if k < 3:
                return best
    return best


def girth_at_most(G: Graph, k: int) -> bool:
    """True iff G has a cycle of length <= k (self-loop counts 1, double edge 2)."""
    return shortest_cycle(G, k) is not None


def scan_sizes(N: int, max_deleted: int) -> list[tuple[int, int]]:
    """The (|I|, |J|) of an admissibility scan, |I| <= max_deleted and
    |I| < |J| <= N - |I|, ordered by |I| + |J|, then by |I|."""
    sizes = [(si, sj) for si in range(max_deleted + 1) for sj in range(si + 1, N - si + 1)]
    sizes.sort(key=lambda p: (p[0] + p[1], p))
    return sizes


# The most pairs of one block of an (I, J) scan: enough that numpy's cost
# per call is spread thin, few enough that a block's arrays stay small.
_SCAN_BLOCK = 1 << 11


def _combinations(n: int, k: int, dtype) -> np.ndarray:
    """``itertools.combinations(range(n), k)`` as a C(n, k) x k array."""
    rows = math.comb(n, k)
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    return np.fromiter(flat, dtype, count=rows * k).reshape(rows, k)


class _ScanGraph:
    """G's edges ranked by label, with the dtypes of a scan's arrays.

    Edge ranks take the least unsigned dtype that holds N, and vertices and
    edge codes the least that holds (V + 1)^2: an edge (a, b), a <= b, of a
    subquotient is coded a (V + 1) + b < (V + 1)^2, so the codes of a key
    sort as its edges do, and the code (V + 1)^2 of an edge gone from it
    sorts after them all.
    """

    def __init__(self, G: Graph):
        order = sorted(range(G.edge_count), key=G.labels.__getitem__)
        self.N, self.V = G.edge_count, G.vertex_count
        self.rank = np.min_scalar_type(self.N)
        self.code = np.min_scalar_type((self.V + 1) ** 2)
        self.labels = sorted(G.labels)
        self.ends = np.array([G.edges[i] for i in order], dtype=self.code).reshape(-1, 2)
        self.vertices = np.arange(self.V + 1, dtype=self.code)

    def classes(self, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Join the edges of each row of ``edges`` (ranks): each row's map
        vertex -> least vertex of its class, and whether the row's edges
        hold no cycle (a self-loop is one)."""
        comp = np.tile(self.vertices, (len(edges), 1))
        forest = np.ones(len(edges), dtype=bool)
        rows = np.arange(len(edges))
        ends = self.ends[edges]
        for k in range(edges.shape[1]):
            a, b = comp[rows, ends[:, k, 0]], comp[rows, ends[:, k, 1]]
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            np.copyto(comp, lo[:, None], where=comp == hi[:, None])
            forest &= lo != hi
        return comp, forest

    def edge_sets(self, k: int):
        """``classes`` of every k-edge set, each at its colex rank: the sum
        over its ranks x_0 < ... < x_{k-1} of C(x_t, t + 1), which a set
        reads off the returned weights, C(x, t + 1) at [x, t].  A scan
        joins each J once here, not once per I; the C(N, k) rows are no
        more than the pairs of any size with |J| = k."""
        sets = _combinations(self.N, k, self.rank)
        weights = np.array(
            [[math.comb(x, t + 1) for t in range(k)] for x in range(self.N)], dtype=np.intp
        ).reshape(self.N, k)
        at = weights[sets, np.arange(k)].sum(axis=1)
        comp, forest = np.empty((len(sets), self.V + 1), self.code), np.empty(len(sets), bool)
        comp[at], forest[at] = self.classes(sets)
        return weights, comp, forest


class PairBlock:
    """Consecutive pairs (I, J) of one size of a scan, in scan order.

    ``connected[p]`` is whether G\\I of pair p is connected, and
    ``forest[p]`` whether its J holds no cycle of G (nor so of G\\I, which
    keeps J).  A pair is degenerate unless both hold, that is unless
    ``good[p]``: exactly then G\\I//J is not a connected subquotient and
    phi^J_I vanishes.
    """

    def __init__(self, graph: _ScanGraph, I, J, connected, edge_sets):
        weights, self._comp, forest = edge_sets
        self._graph = graph
        self.I, self.J, self.connected = I, J, connected
        self._at = weights[J, np.arange(J.shape[1])].sum(axis=1)  # J's colex rank
        self.forest = forest[self._at]
        self.good = connected & self.forest

    def __len__(self) -> int:
        return len(self.I)

    def pair(self, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The label sets (I, J) of pair p, each ascending."""
        labels = self._graph.labels
        return tuple(labels[r] for r in self.I[p].tolist()), tuple(labels[r] for r in self.J[p].tolist())

    def keys(self):
        """The label-free keys of G\\I//J over the pairs that are not
        degenerate (``good``): (keys, first, inverse), keys in order of
        first appearance, ``first[k]`` the pair at which key k first appears
        and ``inverse[m]`` the key of the m-th such pair.

        A key is (vertex count, sorted edge tuple) of ``subquotient(G, I,
        J)``, its merged vertices numbered by least vertex as ``contract``
        does, so ``Graph(key[1], key[0])`` rebuilds the subquotient with
        labels 1..N.  Isomorphism class, girth, planarity and the count of
        phi are label-blind, so the key decides them.
        """
        g = self._graph
        sel = np.flatnonzero(self.good)
        rows = np.arange(len(sel))[:, None]
        comp = self._comp[self._at[sel], 1:]  # vertex x at column x - 1
        roots = np.cumsum(comp == g.vertices[1:], axis=1, dtype=g.code)
        new = roots[rows, comp - 1]  # contract's numbering
        a, b = new.take(g.ends[:, 0] - 1, axis=1), new.take(g.ends[:, 1] - 1, axis=1)
        codes = np.minimum(a, b) * (g.V + 1) + np.maximum(a, b)
        codes[rows, self.I[sel]] = codes[rows, self.J[sel]] = (g.V + 1) ** 2
        codes.sort(axis=1)
        table = np.column_stack([roots[:, -1], codes[:, : g.N - self.I.shape[1] - self.J.shape[1]]])
        rowbytes = np.dtype((np.void, table.dtype.itemsize * table.shape[1]))
        _, first, inverse = np.unique(table.view(rowbytes).ravel(), return_index=True, return_inverse=True)
        order = np.argsort(first)
        renumber = np.empty_like(order)
        renumber[order] = np.arange(len(order))
        found = table[first[order]]
        lo, hi = np.divmod(found[:, 1:], g.V + 1)
        keys = [(k, tuple(zip(l, h))) for k, l, h in zip(found[:, 0].tolist(), lo.tolist(), hi.tolist())]
        return keys, sel[first[order]], renumber[inverse]


def scan_pairs(G: Graph, sizes, *, budget: int | None, what: str):
    """The disjoint label sets (I, J) of G with (|I|, |J|) in ``sizes``:
    their number, and an iterator over ``PairBlock``s of at most
    ``_SCAN_BLOCK`` pairs, sizes in the given order and label sets in
    lexicographic order.

    Raises BudgetExceeded, as ``what`` of that many pairs, before the first
    pair when their number exceeds ``budget``.
    """
    N = G.edge_count
    total = sum(math.comb(N, si) * math.comb(N - si, sj) for si, sj in sizes)
    check_budget(total, budget, f"{what} of {total} pairs")
    return total, _pair_blocks(G, sizes)


def _pair_blocks(G: Graph, sizes):
    graph = _ScanGraph(G)
    N = G.edge_count
    deletions = {}  # |I| -> (I's, the ranks left in G\\I, G\\I connected), once per scan
    edge_sets = {}  # |J| -> graph.edge_sets(|J|), once per scan
    for si, sj in sizes:
        if si not in deletions:
            Is = _combinations(N, si, graph.rank)
            left = np.ones((len(Is), N), dtype=bool)
            left[np.arange(len(Is))[:, None], Is] = False
            rest = np.nonzero(left)[1].astype(graph.rank).reshape(len(Is), N - si)
            comp, _ = graph.classes(rest)
            deletions[si] = Is, rest, (comp[:, 1:] == 1).all(axis=1)
        if sj not in edge_sets:
            edge_sets[sj] = graph.edge_sets(sj)
        Is, rest, connected = deletions[si]
        Js = _combinations(N - si, sj, graph.rank)  # positions in rest
        pairs = len(Is) * len(Js)
        for start in range(0, pairs, _SCAN_BLOCK):
            i, j = np.divmod(np.arange(start, min(start + _SCAN_BLOCK, pairs)), len(Js))
            yield PairBlock(graph, Is[i], rest[i[:, None], Js[j]], connected[i], edge_sets[sj])


def census(G: Graph, u: int, v: int, *, budget: int | None = None) -> tuple[int, int]:
    """Count subquotient pairs (I, J) with |I| = h-u and |J| = n-v.

    Returns (r, r_bar): r counts the ordered pairs of disjoint edge label
    sets that are not degenerate (see ``PairBlock``): G\\I//J is connected
    and co-connected; r_bar counts all such pairs.  Raises BudgetExceeded
    before enumerating when r_bar exceeds ``budget``.
    """
    if u < 0 or v < 0 or u + v > G.edge_count:
        raise InvalidRange(f"census parameters u={u}, v={v} out of range")
    h, n = G.h, G.n
    if u > h or v > n:
        raise InvalidRange(f"census needs u <= h_G={h} and v <= n_G={n}")
    r_bar, blocks = scan_pairs(G, [(h - u, n - v)], budget=budget, what="the census")
    r = sum(int(np.count_nonzero(b.good)) for b in blocks)
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


def canonical_form(G: Graph) -> tuple:
    """Canonical edge multiset under vertex relabeling (label-blind), by
    individualization-refinement (McKay and Piperno, 2014).

    An ordered vertex partition is refined until no cell splits: a cell
    splits by the sorted cell indices of its vertices' neighbours (a loop
    lists its own vertex twice), the parts in the order of those lists.
    Then each vertex of the first cell still holding several gets a cell of
    its own in turn, and the search recurses.  A partition into single
    vertices numbers the vertices in cell order; the form is (V, the least
    sorted edge tuple over all such leaves).  Only label-free data orders
    the cells, so isomorphic graphs get one form.
    """
    V = G.vertex_count
    nbrs: list[list[int]] = [[] for _ in range(V + 1)]
    for u, v in G.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    leaves = []

    def search(cells: list[list[int]]) -> None:
        while True:
            index = {v: i for i, c in enumerate(cells) for v in c}
            split = []
            for c in cells:
                if len(c) == 1:
                    split.append(c)
                    continue
                parts: dict[tuple, list[int]] = {}
                for v in c:
                    parts.setdefault(tuple(sorted(index[u] for u in nbrs[v])), []).append(v)
                split += (parts[sig] for sig in sorted(parts))
            if len(split) == len(cells):
                break
            cells = split
        for i, c in enumerate(cells):
            if len(c) > 1:
                for v in c:
                    search(cells[:i] + [[v], [u for u in c if u != v]] + cells[i + 1 :])
                return
        leaves.append(tuple(sorted(tuple(sorted((index[u], index[v]))) for u, v in G.edges)))

    search([list(range(1, V + 1))])
    return (V, min(leaves))


def is_isomorphic(G: Graph, H: Graph) -> bool:
    if G.vertex_count != H.vertex_count or G.edge_count != H.edge_count:
        return False
    return canonical_form(G) == canonical_form(H)


def connected_multigraphs(max_edges: int) -> list[Graph]:
    """All connected multigraphs with 1..max_edges edges, up to isomorphism.

    Built by edge augmentation (every connected multigraph has an edge order
    whose prefixes are connected), deduplicated by canonical form.
    """
    if max_edges < 1:
        return []
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
