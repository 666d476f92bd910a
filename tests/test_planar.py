import itertools

import networkx as nx
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from c2lab.corpus import nonplanar_log_divergent
from c2lab.errors import NotConnected, NotPlanar
from c2lab.graphs import Graph, family, is_connected, is_isomorphic
from c2lab.multipoly import phi, psi
from c2lab.planar import is_planar, planar_dual


def test_k4_planar_and_self_dual():
    K4 = family("complete", 4)
    assert is_planar(K4)
    d = planar_dual(K4)
    assert d.n == 3 and d.h == 3 and d.edge_count == 6
    assert is_isomorphic(d, K4)
    assert psi(d) == phi(K4)


def test_k5_not_planar():
    assert not is_planar(family("complete", 5))
    with pytest.raises(NotPlanar):
        planar_dual(family("complete", 5))


def test_k33_not_planar():
    k33 = Graph(tuple((u, v) for u in (1, 2, 3) for v in (4, 5, 6)), 6)
    assert not is_planar(k33)


def test_triangle_dual_is_banana():
    d = planar_dual(family("cycle", 3))
    assert is_isomorphic(d, family("banana", 3))
    assert psi(d) == phi(family("cycle", 3))


def test_dual_requires_connected():
    with pytest.raises(NotConnected):
        planar_dual(Graph(((1, 2), (3, 4)), 4))


def test_dual_swaps_h_and_n(corpus):
    for name, G in corpus.items():
        if not is_connected(G) or not is_planar(G):
            continue
        d = planar_dual(G)
        assert d.h == G.n and d.n == G.h, name
        assert d.edge_count == G.edge_count, name


def test_dual_identity_psi_phi(corpus):
    # "the important identity": Psi of the dual equals phi of the graph,
    # with edge labels preserved
    for name, G in corpus.items():
        if not is_connected(G) or not is_planar(G):
            continue
        d = planar_dual(G)
        assert psi(d) == phi(G), name
        assert phi(d) == psi(G), name


def test_double_dual_isomorphic_for_2_connected():
    for G in (family("complete", 4), family("wheel", 4), family("wheel", 5),
              family("cycle", 5), family("banana", 3)):
        dd = planar_dual(planar_dual(G))
        assert is_isomorphic(dd, G)


def test_double_dual_with_cut_vertex_keeps_polynomials():
    # G_3 has a bridge, so only the polynomial content is stable
    G = family("Gn", 3)
    dd = planar_dual(planar_dual(G))
    assert not is_isomorphic(dd, G)
    assert psi(dd) == psi(G) and phi(dd) == phi(G)


def test_multigraph_duals():
    # bouquet of loops <-> star
    bouquet = Graph(((1, 1), (1, 1), (1, 1)), 1)
    d = planar_dual(bouquet)
    assert d.n == 3 and d.h == 0
    assert psi(d) == phi(bouquet)
    # bridge dualizes to a self-loop
    g2 = family("Gn", 2)
    d2 = planar_dual(g2)
    assert any(u == v for u, v in d2.edges)
    assert psi(d2) == phi(g2)


def test_single_vertex():
    k1 = Graph((), 1)
    assert is_planar(k1)
    assert planar_dual(k1).vertex_count == 1


# -- is_planar against networkx's left-right test ---------------------------


def _nx_planar(G: Graph) -> bool:
    H = nx.Graph()
    H.add_nodes_from(range(1, G.vertex_count + 1))
    H.add_edges_from(G.edges)
    return nx.check_planarity(H)[0]


def _subdivide(edges, n):
    """Each edge uv becomes u-w-v through a new vertex w."""
    out = []
    for u, v in edges:
        n += 1
        out += [(u, n), (n, v)]
    return Graph(tuple(out), n)


def _union(*graphs: Graph) -> Graph:
    edges, n = [], 0
    for G in graphs:
        edges += [(u + n, v + n) for u, v in G.edges]
        n += G.vertex_count
    return Graph(tuple(edges), n)


_K5 = tuple(itertools.combinations(range(1, 6), 2))
_K33 = tuple((u, v) for u in (1, 2, 3) for v in (4, 5, 6))
_PETERSEN = tuple((i, i % 5 + 1) for i in range(1, 6)) + tuple(
    (i + 5, (i + 1) % 5 + 6) for i in range(5)) + tuple((i, i + 5) for i in range(1, 6))

_NAMED = {
    **{f"wheel:{n}": family("wheel", n) for n in range(3, 9)},
    **{f"complete:{n}": family("complete", n) for n in range(1, 7)},
    **{f"Gn:{n}": family("Gn", n) for n in range(3, 6)},
    "K33": Graph(_K33, 6),
    "K33_doubled": nonplanar_log_divergent(),
    "Petersen": Graph(_PETERSEN, 10),
    "K5_subdivided": _subdivide(_K5, 5),
    "K33_subdivided": _subdivide(_K33, 6),
    "K5_minus_e": Graph(_K5[1:], 5),
    "K33_minus_e": Graph(_K33[1:], 6),
    "wheel:5+K5": _union(family("wheel", 5), family("complete", 5)),
    "K4+K33_minus_e": _union(family("complete", 4), Graph(_K33[1:], 6)),
    # planar, but embedding the first fragment in the first face it fits
    # strands another: a fragment that fits one face only must go first
    "forced_face": Graph(((3, 5), (4, 5), (2, 6), (1, 3), (4, 6), (1, 4), (1, 2),
                          (1, 5), (2, 3), (3, 4)), 6),
    "isolated_vertex": Graph((), 1),
    "empty": Graph((), 4),
}


@pytest.mark.parametrize("name", sorted(_NAMED))
def test_is_planar_matches_networkx_on_named_graphs(name):
    G = _NAMED[name]
    assert is_planar(G) == _nx_planar(G)


def test_named_graphs_hold_both_verdicts():
    assert not any(is_planar(_NAMED[k]) for k in ("Petersen", "K5_subdivided",
                                                  "K33_subdivided", "wheel:5+K5"))
    assert all(is_planar(_NAMED[k]) for k in ("K5_minus_e", "K33_minus_e", "wheel:8",
                                              "forced_face"))


def test_is_planar_matches_networkx_on_every_simple_graph_up_to_5_vertices():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            G = Graph(tuple(p for i, p in enumerate(pairs) if mask >> i & 1), n)
            assert is_planar(G) == _nx_planar(G), G.edges


def test_is_planar_matches_networkx_on_catalog_and_corpus(catalog6, corpus):
    for G in list(catalog6) + list(corpus.values()):
        assert is_planar(G) == _nx_planar(G), G.edges


def test_is_planar_on_a_long_path_with_a_k5_block():
    # deeper than Python's recursion limit: the block split is iterative
    n = 5000
    path = [(i, i + 1) for i in range(1, n)]
    k5 = [(u + n - 1, v + n - 1) for u, v in _K5]
    assert is_planar(Graph(tuple(path), n))
    assert not is_planar(Graph(tuple(path + k5), n + 4))


@st.composite
def _sparse_graphs(draw):
    n = draw(st.integers(5, 12))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=n, max_size=3 * n - 6,
                          unique=True))
    return Graph(tuple(edges), n)


@settings(max_examples=300, deadline=None)
@seed(20150)
@given(_sparse_graphs())
def test_is_planar_matches_networkx_below_the_euler_bound(G):
    assert is_planar(G) == _nx_planar(G)
