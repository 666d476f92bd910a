"""Planarity and combinatorial duals for multigraphs.

Planarity of the underlying simple graph is decided by networkx's
left-right algorithm, which also certifies an embedding.  Self-loops and
parallel edges are removed first and re-inserted into the rotation system
afterwards (parallel classes as nested bigons, loops as adjacent dart
pairs), then faces are read off the rotation system and Euler's formula is
asserted.  The dual preserves edge labels: dual edge i crosses edge i.
"""

from __future__ import annotations

import networkx as nx

from .errors import NotConnected, NotPlanar
from .graphs import Graph, _simple_reduction, is_connected

# A dart is (edge label, end); end 0 leaves the lower endpoint, end 1 the higher.


def is_planar(G: Graph) -> bool:
    """Planarity of the multigraph (loops and parallels never obstruct it)."""
    _, classes = _simple_reduction(G)
    H = nx.Graph()
    H.add_nodes_from(range(1, G.vertex_count + 1))
    H.add_edges_from(classes.keys())
    ok, _ = nx.check_planarity(H)
    return ok


def _rotation_system(G: Graph):
    """Clockwise dart order around each vertex for one planar embedding."""
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
    rot = _rotation_system(G)
    face_of, faces = _faces(G, rot)
    edges = []
    for lab in sorted(G.labels):
        f0 = face_of[(lab, 0)] + 1
        f1 = face_of[(lab, 1)] + 1
        edges.append((min(f0, f1), max(f0, f1)))
    return Graph(tuple(edges), faces, tuple(sorted(G.labels)))
