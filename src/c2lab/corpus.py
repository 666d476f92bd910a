"""The built-in desk-scale graph corpus used by tests and --seed-corpus."""

from __future__ import annotations

from .graphs import Graph, family


def named_graphs() -> dict[str, Graph]:
    """Connected test graphs (insertion order is the canonical order).

    Mixes simple graphs, multigraphs with parallel edges, and self-loops;
    everything has at most 8 edges so the full symbolic layer stays cheap.
    """
    out: dict[str, Graph] = {}
    out["edge"] = family("path", 1)
    out["path2"] = family("path", 2)
    out["path3"] = family("path", 3)
    out["triangle"] = family("cycle", 3)
    out["square"] = family("cycle", 4)
    out["pentagon"] = family("cycle", 5)
    out["hexagon"] = family("cycle", 6)
    out["banana2"] = family("banana", 2)
    out["banana3"] = family("banana", 3)
    out["banana4"] = family("banana", 4)
    out["banana5"] = family("banana", 5)
    out["G2"] = family("Gn", 2)
    out["G3"] = family("Gn", 3)
    out["G4"] = family("Gn", 4)
    out["K4"] = family("complete", 4)
    out["wheel3"] = family("wheel", 3)
    out["wheel4"] = family("wheel", 4)
    out["K4_minus_edge"] = Graph(((1, 2), (1, 3), (2, 3), (2, 4), (3, 4)), 4)
    out["diamond_pendant"] = Graph(((1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (4, 5)), 5)
    out["two_triangles_vertex"] = Graph(((1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)), 5)
    out["two_triangles_edge"] = Graph(((1, 2), (1, 3), (2, 3), (1, 4), (3, 4)), 4)
    out["triangle_loop"] = Graph(((1, 2), (1, 3), (2, 3), (2, 2)), 3)
    out["triangle_double"] = Graph(((1, 2), (1, 2), (1, 3), (2, 3)), 3)
    out["bowtie_loops"] = Graph(((1, 1), (1, 2), (1, 2), (2, 2)), 2)
    out["bouquet2"] = Graph(((1, 1), (1, 1)), 1)
    out["cube_minus"] = Graph(
        ((1, 2), (2, 3), (3, 4), (1, 4), (1, 5), (2, 6), (3, 5), (4, 6)), 6
    )
    out["k33_kite"] = Graph(
        ((1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5), (1, 6), (2, 6)), 6
    )
    return out


def nonplanar_log_divergent() -> Graph:
    """K_{3,3} with one doubled edge: log-divergent, non-planar, girth 2.

    Used to exercise the non-planar path of the structural admissibility
    scan; its verdict is recorded, not asserted.
    """
    edges = [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)]
    edges.append((1, 4))
    return Graph(tuple(edges), 6)
