"""Planarity and combinatorial duals for multigraphs.

``is_planar`` is native: self-loops and parallel edges never obstruct
planarity, so it splits the simple reduction into biconnected blocks (one
iterative Hopcroft-Tarjan pass) and decides each block by the
Demoucron-Malgrange-Pertuiset path-embedding test.  ``planar_dual`` reads
the embedding certified by networkx's left-right algorithm, imported on its
first use, so that face numbers follow that embedding.  Loops and parallel
classes are re-inserted into its rotation system (parallel classes as
nested bigons, loops as adjacent dart pairs), then faces are read off the
rotation system and Euler's formula is asserted.  The dual preserves edge
labels: dual edge i crosses edge i.
"""

from __future__ import annotations

from .errors import NotConnected, NotPlanar
from .graphs import Graph, _simple_reduction, is_connected

# A dart is (edge label, end); end 0 leaves the lower endpoint, end 1 the higher.


def is_planar(G: Graph) -> bool:
    """Planarity of the multigraph (loops and parallels never obstruct it)."""
    _, classes = _simple_reduction(G)
    if len(classes) < 9:  # a subdivided K5 or K3,3 has at least 9 edges
        return True
    return all(_block_is_planar(b) for b in _blocks(G.vertex_count, classes))


def _blocks(n: int, edges) -> list[list[tuple[int, int]]]:
    """Edge lists of the biconnected blocks (iterative Hopcroft-Tarjan)."""
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    disc = [0] * (n + 1)
    low = [0] * (n + 1)
    t = 0
    blocks = []
    for root in range(1, n + 1):
        if disc[root]:
            continue
        t += 1
        disc[root] = low[root] = t
        stack = [(root, 0, iter(adj[root]))]
        estack = []
        while stack:
            v, parent, it = stack[-1]
            for w in it:
                if not disc[w]:
                    t += 1
                    disc[w] = low[w] = t
                    estack.append((v, w))
                    stack.append((w, v, iter(adj[w])))
                    break
                if w != parent and disc[w] < disc[v]:
                    estack.append((v, w))
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:  # u separates the subtree of v
                        i = estack.index((u, v))
                        blocks.append(estack[i:])
                        del estack[i:]
    return blocks


def _block_is_planar(edges) -> bool:
    """Demoucron-Malgrange-Pertuiset on one biconnected block.

    Faces of the embedded part H are kept as vertex cycles.  A fragment is
    an unembedded chord of H or a component of G - V(H) with its attachment
    vertices; it fits a face that holds all its attachments.  A fragment
    that fits no face proves non-planarity; otherwise a fragment with one
    fitting face (else any) gets a path between two attachments embedded,
    which splits that face in two.
    """
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    V, E = len(adj), len(edges)
    if E <= V:  # an edge or a cycle
        return True
    if E > 3 * V - 6:
        return False
    a, b = edges[0]
    cycle = _attachment_path(adj, set(adj) - {a, b}, a)  # closes the edge ab
    faces = [cycle, cycle[:]]
    placed = set(cycle)
    done = {frozenset(e) for e in zip(cycle, cycle[1:] + cycle[:1])}
    while len(done) < E:
        frags = [({u, v}, None) for u, v in edges if frozenset((u, v)) not in done
                 and u in placed and v in placed]
        seen: set[int] = set()
        for s in adj:
            if s in placed or s in seen:
                continue
            comp, att, todo = {s}, set(), [s]
            while todo:
                for y in adj[todo.pop()]:
                    if y in placed:
                        att.add(y)
                    elif y not in comp:
                        comp.add(y)
                        todo.append(y)
            seen |= comp
            frags.append((att, comp))
        best = None
        for att, comp in frags:
            fits = [i for i, f in enumerate(faces) if att <= set(f)]
            if not fits:
                return False
            if best is None or len(fits) < len(best[2]):
                best = (att, comp, fits)
        att, comp, fits = best
        path = sorted(att) if comp is None else _attachment_path(adj, comp, min(att))
        f = faces[fits[0]]
        i = f.index(path[0])
        g = f[i:] + f[:i]
        j = g.index(path[-1])
        faces[fits[0]] = g[: j + 1] + path[-2:0:-1]
        faces.append(g[j:] + path[:-1])
        placed.update(path)
        done.update(frozenset(e) for e in zip(path, path[1:]))
    return True


def _attachment_path(adj, comp, a: int) -> list[int]:
    """A path from attachment a through comp to another attachment."""
    prev = {a: None}
    frontier = [a]
    while True:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y in comp:
                    if y not in prev:
                        prev[y] = x
                        nxt.append(y)
                elif x != a and y != a:
                    path = [y, x]
                    while path[-1] != a:
                        path.append(prev[path[-1]])
                    return path
        frontier = nxt


def _rotation_system(G: Graph):
    """Clockwise dart order around each vertex for one planar embedding."""
    import networkx as nx

    loops, classes = _simple_reduction(G)
    H = nx.Graph()
    H.add_nodes_from(range(1, G.vertex_count + 1))
    H.add_edges_from(classes.keys())
    ok, emb = nx.check_planarity(H)
    if not ok:
        raise NotPlanar("graph is not planar")
    rot: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, G.vertex_count + 1)}
    for v in rot:
        try:
            nbrs = list(emb.neighbors_cw_order(v))
        except (KeyError, nx.NetworkXException):
            nbrs = []
        for w in nbrs:
            key = (min(v, w), max(v, w))
            labs = classes[key]
            if v == key[0]:
                rot[v].extend((lab, 0) for lab in labs)
            else:
                rot[v].extend((lab, 1) for lab in reversed(labs))
    for lab, v in sorted(loops):
        rot[v].append((lab, 0))
        rot[v].append((lab, 1))
    return rot


def _faces(G: Graph, rot):
    """Orbits of darts under the face-successor permutation, plus Euler check."""
    succ = {}
    for v, darts in rot.items():
        for i, d in enumerate(darts):
            succ[d] = darts[(i + 1) % len(darts)]
    face_of: dict[tuple[int, int], int] = {}
    faces = 0
    all_darts = sorted(succ)
    for d0 in all_darts:
        if d0 in face_of:
            continue
        d = d0
        while d not in face_of:
            face_of[d] = faces
            lab, end = d
            d = succ[(lab, 1 - end)]
        faces += 1
    if not all_darts:
        faces = 1
    euler = G.vertex_count - G.edge_count + faces
    if euler != 2:
        raise NotPlanar(f"rotation system failed Euler check (V-E+F = {euler})")
    return face_of, faces


def planar_dual(G: Graph) -> Graph:
    """Planar dual with edge labels preserved (dual edge i crosses edge i)."""
    if not is_connected(G):
        raise NotConnected("the dual is defined for connected graphs")
    if not is_planar(G):
        raise NotPlanar("graph is not planar")
    rot = _rotation_system(G)
    face_of, faces = _faces(G, rot)
    edges = []
    for lab in sorted(G.labels):
        f0 = face_of[(lab, 0)] + 1
        f1 = face_of[(lab, 1)] + 1
        edges.append((min(f0, f1), max(f0, f1)))
    return Graph(tuple(edges), faces, tuple(sorted(G.labels)))
