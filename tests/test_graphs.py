import itertools
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from c2lab.corpus import named_graphs
from c2lab.errors import (
    BadParameter,
    BudgetExceeded,
    InvalidRange,
    NotConnected,
    SelfLoopContraction,
    UnknownFamily,
)
from c2lab import graphs
from c2lab.graphs import (
    Graph,
    census,
    components,
    contract,
    delete,
    edge_mask,
    family,
    girth_at_most,
    incidence,
    is_connected,
    is_isomorphic,
    scan_pairs,
    shortest_cycle,
    spanning_tree_count,
    spanning_tree_labels,
    spanning_trees,
    subquotient,
)
from c2lab.identities import IDENTITY_NAMES, default_identity_indices
from c2lab.matform import gram_matrix, p_matrix
from c2lab.multipoly import MLPoly, phi, psi


def reduced_laplacian_tree_count(G):
    """Matrix-tree oracle: determinant of the reduced Laplacian (integer Bareiss)."""
    n = G.vertex_count
    L = [[0] * n for _ in range(n)]
    for u, v in G.edges:
        if u == v:
            continue
        L[u - 1][u - 1] += 1
        L[v - 1][v - 1] += 1
        L[u - 1][v - 1] -= 1
        L[v - 1][u - 1] -= 1
    m = [row[: n - 1] for row in L[: n - 1]]
    d = len(m)
    if d == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(d - 1):
        if m[k][k] == 0:
            for r in range(k + 1, d):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[d - 1][d - 1]


def test_triangle_delete_gives_path():
    tri = family("cycle", 3)
    g = delete(tri, {1})
    assert g.edge_count == 2 and g.vertex_count == 3
    assert is_connected(g)


def test_delete_empty_is_identity():
    K4 = family("complete", 4)
    assert delete(K4, set()) == K4


def test_delete_two_edges_of_k4():
    K4 = family("complete", 4)
    g = delete(K4, {1, 2})
    assert g.vertex_count == 4 and g.edge_count == 4
    assert g.h == 1


def test_contract_triangle_edge():
    tri = family("cycle", 3)
    g = contract(tri, {1})
    assert g.vertex_count == 2 and g.edge_count == 2
    assert g.edges == ((1, 2), (1, 2))


def test_contract_two_tree_edges_of_triangle():
    tri = family("cycle", 3)
    g = contract(tri, {1, 2})
    assert g.vertex_count == 1 and g.edges == ((1, 1),)


def test_contract_cycle_raises():
    b3 = family("banana", 3)
    with pytest.raises(SelfLoopContraction):
        contract(b3, {1, 2})


def test_contract_error_is_order_independent():
    # {3, 6} with 6=(3,4) a bridge and 3 part of the triple: fine;
    # a parallel pair inside must fail no matter the listing order
    G3 = family("Gn", 3)
    with pytest.raises(SelfLoopContraction):
        contract(G3, {4, 5})
    with pytest.raises(SelfLoopContraction):
        contract(G3, {5, 4})
    assert contract(G3, {3, 6}).vertex_count == 2


def test_labels_survive_subquotient():
    K4 = family("complete", 4)
    g = subquotient(K4, {2}, {5})
    assert g.labels == (1, 3, 4, 6)
    assert g.edge_count == 4


def test_is_connected_cases():
    assert is_connected(family("cycle", 3))
    two_edges = Graph(((1, 2), (3, 4)), 4)
    assert not is_connected(two_edges)
    isolated = Graph(((1, 2), (1, 3), (2, 3)), 4)
    assert not is_connected(isolated)
    assert len(components(isolated)) == 2


def test_incidence_rows():
    # a self-loop, an edge to the pinned vertex 4, a parallel pair, a path
    G = Graph(((2, 2), (1, 4), (1, 2), (2, 1), (2, 3), (3, 4)), 4)
    rows = incidence(G)
    assert rows[0] == ()
    assert rows[1] == ((0, 1),)
    assert rows[2] == rows[3] == ((0, 1), (1, -1))
    assert rows[4] == ((1, 1), (2, -1))
    assert rows[5] == ((2, 1),)
    assert gram_matrix(rows, G.labels, G.n) == p_matrix(G)
    # pinning vertex 2 instead: its entries go, the others are re-indexed
    order = (1, 3, 4)
    assert incidence(G, order) == (
        (), ((0, 1), (2, -1)), ((0, 1),), ((0, 1),), ((1, -1),), ((1, 1), (2, -1))
    )
    assert gram_matrix(incidence(G, order), G.labels, 3) == p_matrix(G, 2)


def test_spanning_trees_triangle():
    tri = family("cycle", 3)
    trees = spanning_trees(tri)
    assert trees == [frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})]


def test_spanning_trees_banana():
    b3 = family("banana", 3)
    assert spanning_trees(b3) == [frozenset({1}), frozenset({2}), frozenset({3})]


def test_spanning_trees_matrix_tree_oracle(corpus):
    for name, G in corpus.items():
        if not is_connected(G):
            continue
        assert spanning_tree_count(G) == reduced_laplacian_tree_count(G), name


def test_spanning_trees_k4_is_16():
    K4 = family("complete", 4)
    assert reduced_laplacian_tree_count(K4) == 16
    assert len(spanning_trees(K4)) == 16


def test_spanning_trees_requires_connected():
    with pytest.raises(NotConnected):
        spanning_trees(Graph(((1, 2), (3, 4)), 4))


def _reference_tree_masks(G):
    """The combination filter the spanning-tree walk replaced: every
    (V-1)-subset of the edges that closes no cycle, as sorted bitmasks."""
    n = G.vertex_count - 1
    out = []
    for combo in itertools.combinations(range(G.edge_count), n):
        parent = list(range(G.vertex_count + 1))

        def root(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for i in combo:
            a, b = (root(x) for x in G.edges[i])
            if a == b:
                break
            parent[b] = a
        else:
            out.append(edge_mask(G.labels[i] for i in combo))
    return sorted(out)


def _decode(m):
    return tuple(i + 1 for i in range(m.bit_length()) if m >> i & 1)


def _assert_walk_matches_filter(G):
    masks = _reference_tree_masks(G)
    assert [edge_mask(t) for t in spanning_tree_labels(G)] == masks, G
    full = edge_mask(G.labels)
    # psi and phi as built from the filter's masks, in their insertion order
    ref_psi = MLPoly({_decode(full & ~t): 1 for t in masks})
    ref_phi = MLPoly({_decode(t): 1 for t in masks})
    assert list(psi(G).terms()) == list(ref_psi.terms()), G
    assert list(phi(G).terms()) == list(ref_phi.terms()), G


def test_tree_walk_matches_combination_filter(corpus, catalog6):
    wheels = [family("wheel", n) for n in range(3, 9)]
    for G in list(corpus.values()) + catalog6 + wheels:
        _assert_walk_matches_filter(G)


def test_tree_walk_edge_cases():
    disconnected = Graph(((1, 2), (1, 2), (3, 4), (3, 4)), 4)
    assert spanning_tree_labels(disconnected) == []
    assert psi(disconnected).is_zero and phi(disconnected).is_zero
    loop = Graph(((1, 1),), 1)
    assert spanning_tree_labels(loop) == [()]
    assert psi(loop) == MLPoly.variable(1) and phi(loop) == MLPoly.constant(1)
    # labels that are not 1..N, and not ascending in edge order
    sub = subquotient(family("wheel", 5), {2}, {7})
    assert sub.labels == (1, 3, 4, 5, 6, 8, 9, 10)
    shuffled = Graph(sub.edges, sub.vertex_count, (9, 3, 10, 1, 6, 4, 8, 5))
    for G in (disconnected, loop, sub, shuffled):
        _assert_walk_matches_filter(G)


@st.composite
def labeled_multigraphs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=0, max_value=8))
    edges = tuple(
        (draw(st.integers(min_value=1, max_value=n)), draw(st.integers(min_value=1, max_value=n)))
        for _ in range(m)
    )
    labels = draw(st.lists(st.integers(1, 80), min_size=m, max_size=m, unique=True))
    return Graph(edges, n, tuple(labels))


@seed(18)
@given(labeled_multigraphs())
@settings(max_examples=150, deadline=None)
def test_tree_walk_matches_combination_filter_on_random_multigraphs(G):
    _assert_walk_matches_filter(G)


def test_spanning_trees_beyond_64_edges():
    trees = spanning_trees(family("cycle", 70))
    assert len(trees) == 70
    assert all(len(t) == 69 for t in trees)
    assert trees[0] == frozenset(range(1, 70))  # a70 left out: the least mask
    assert spanning_tree_count(family("cycle", 70)) == 70


def test_girth():
    assert girth_at_most(family("banana", 3), 2)
    assert not girth_at_most(family("cycle", 5), 3)
    assert girth_at_most(family("cycle", 5), 5)
    assert girth_at_most(family("complete", 4), 3)
    assert girth_at_most(Graph(((1, 1),), 1), 1)
    assert not girth_at_most(family("path", 3), 10)


# Reference copies of the girth test, the shortest-cycle search and the
# identity index choices as they stood before the cycle search moved into
# graphs.shortest_cycle; the shared search must reproduce them exactly.


def _reference_girth_at_most(G, k):
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
    adj = {v: [] for v in range(1, G.vertex_count + 1)}
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


def _reference_short_cycle(G):
    for lab in sorted(G.labels):
        u, v = G.endpoints(lab)
        if u == v:
            return (lab,)
    pairs = {}
    for lab in sorted(G.labels):
        pairs.setdefault(G.endpoints(lab), []).append(lab)
    for labs in pairs.values():
        if len(labs) >= 2:
            return tuple(labs[:2])
    best = None
    adj = {}
    for lab in sorted(G.labels):
        u, v = G.endpoints(lab)
        adj.setdefault(u, []).append((v, lab))
        adj.setdefault(v, []).append((u, lab))
    for lab in sorted(G.labels):
        s, t = G.endpoints(lab)
        prev = {s: (None, None)}
        frontier = [s]
        while frontier and t not in prev:
            nxt = []
            for x in frontier:
                for y, l2 in adj[x]:
                    if l2 != lab and y not in prev:
                        prev[y] = (x, l2)
                        nxt.append(y)
            frontier = nxt
        if t in prev:
            path = []
            cur = t
            while prev[cur][0] is not None:
                path.append(prev[cur][1])
                cur = prev[cur][0]
            cyc = tuple(sorted([lab] + path))
            if best is None or len(cyc) < len(best):
                best = cyc
    return best


def _reference_identity_indices(G, name):
    labels = sorted(G.labels)
    if name == "c10":
        for k in labels:
            yield {"k": k}
    elif name == "e100":
        for k in labels:
            u, v = G.endpoints(k)
            if u == v:
                yield {"k": k}
    elif name == "e101":
        seen = set()
        for a, b in itertools.combinations(labels, 2):
            ea, eb = G.endpoints(a), G.endpoints(b)
            if ea == eb and ea[0] != ea[1] and ea not in seen:
                seen.add(ea)
                yield {"pair": (a, b)}
    elif name in ("c14", "c15", "cor7"):
        key = ("i", "j") if name != "cor7" else ("i", "k")
        for i, j in itertools.combinations(labels, 2):
            yield {key[0]: i, key[1]: j}
    elif name in ("c18", "c20"):
        for a, b, x in list(itertools.permutations(labels, 3))[:6]:
            if name == "c18":
                yield {"I": (), "J": (), "S": (), "K": (), "a": a, "b": b, "x": x}
            else:
                rest = [l for l in labels if l not in (a, b, x)]
                if rest:
                    yield {"I": (), "J": (rest[0],), "S": (), "K": (), "a": a, "b": b, "x": x}
    elif name == "c100":
        deg = {}
        for lab in labels:
            u, v = G.endpoints(lab)
            if u != v:
                deg.setdefault(u, []).append(lab)
                deg.setdefault(v, []).append(lab)
        if deg:
            v = max(deg, key=lambda w: (len(deg[w]), -w))
            if len(deg[v]) >= 2:
                yield {"edges": tuple(sorted(deg[v]))}
    elif name == "c101":
        cyc = _reference_short_cycle(G)
        if cyc:
            yield {"edges": cyc}


def _cycle_graphs(catalog6):
    extra = [
        family(name, n)
        for name, ns in (("wheel", range(3, 8)), ("complete", range(4, 7)), ("cycle", range(3, 8)))
        for n in ns
    ]
    return catalog6 + list(named_graphs().values()) + extra


def test_shortest_cycle_matches_reference(catalog6):
    for G in _cycle_graphs(catalog6):
        ref = _reference_short_cycle(G)
        assert shortest_cycle(G) == ref, G
        for k in range(G.edge_count + 2):
            assert girth_at_most(G, k) == _reference_girth_at_most(G, k), (G, k)
            assert shortest_cycle(G, k) == (ref if ref and len(ref) <= k else None), (G, k)


def test_identity_indices_match_reference(catalog6):
    for G in _cycle_graphs(catalog6):
        for name in IDENTITY_NAMES:
            got = list(default_identity_indices(G, name))
            assert got == list(_reference_identity_indices(G, name)), (G, name)


def test_shortest_cycle_examples():
    assert shortest_cycle(Graph(((1, 2), (2, 2), (1, 1)), 2)) == (2,)
    assert shortest_cycle(Graph(((1, 2), (2, 3), (2, 3), (1, 2)), 3)) == (1, 4)
    assert shortest_cycle(family("cycle", 5), 4) is None
    assert shortest_cycle(family("cycle", 5)) == (1, 2, 3, 4, 5)
    assert shortest_cycle(family("path", 3)) is None
    assert shortest_cycle(family("wheel", 4)) == (1, 5, 6)


def test_family_members():
    G3 = family("Gn", 3)
    assert G3.edge_count == 6 and G3.n == 3 and G3.h == 3
    assert is_isomorphic(family("wheel", 3), family("complete", 4))
    b3 = family("banana", 3)
    assert b3.vertex_count == 2 and b3.edge_count == 3
    with pytest.raises(UnknownFamily):
        family("moebius", 4)
    with pytest.raises(BadParameter):
        family("wheel", 2)
    with pytest.raises(BadParameter):
        family("Gn", 1)


def test_family_gn_balance():
    for n in range(2, 7):
        G = family("Gn", n)
        assert G.edge_count == 2 * n and G.h == n and G.n == n


def test_census_g3_values():
    G3 = family("Gn", 3)
    assert census(G3, 1, 2) == (36, 60)
    r, r_bar = census(G3, 2, 1)
    assert r_bar == 60
    assert r <= r_bar


def test_census_rbar_multinomial(log_divergent):
    # r_bar is the number of ordered disjoint pairs of the forced sizes
    for name, G in log_divergent.items():
        N, h, n = G.edge_count, G.h, G.n
        for u, v in [(0, 0), (1, 1), (1, 2), (2, 1)]:
            if h - u < 0 or n - v < 0:
                continue
            _, r_bar = census(G, u, v)
            di, dj = h - u, n - v
            expect = (
                math.factorial(N)
                // math.factorial(di)
                // math.factorial(dj)
                // math.factorial(N - di - dj)
            )
            assert r_bar == expect, (name, u, v)


def test_census_rbar_symmetric_log_divergent(log_divergent):
    for name, G in log_divergent.items():
        for u, v in [(0, 1), (1, 2), (0, 2)]:
            if G.h - u < 0 or G.n - v < 0 or G.h - v < 0 or G.n - u < 0:
                continue
            assert census(G, u, v)[1] == census(G, v, u)[1], name


def test_census_budget_bounds_pair_count():
    # wheel:6 at (u, v) = (2, 0) has C(12, 4) C(8, 6) = 13,860 pairs
    with pytest.raises(BudgetExceeded):
        census(family("wheel", 6), 2, 0, budget=10)
    assert census(family("Gn", 3), 1, 2, budget=60) == (36, 60)


def test_census_range_errors():
    tri = family("cycle", 3)
    with pytest.raises(InvalidRange):
        census(tri, -1, 0)
    with pytest.raises(InvalidRange):
        census(tri, 5, 0)


def _kernel_pairs(G, sizes):
    """Every pair of the scan of ``sizes``, in scan order, as
    (I, J, connected, key), the key None where the pair is degenerate
    (G\\I disconnected or J holding a cycle)."""
    total, blocks = scan_pairs(G, sizes, budget=None, what="the kernel check")
    out = []
    for block in blocks:
        assert (block.good == (block.connected & block.forest)).all()
        keys, _, inverse = block.keys()
        key_of = dict(zip(np.flatnonzero(block.good).tolist(), [keys[k] for k in inverse.tolist()]))
        for p in range(len(block)):
            I, J = block.pair(p)
            out.append((I, J, bool(block.connected[p]), key_of.get(p)))
    assert len(out) == total
    return out


def _kernel_agrees_with_contract(G, sizes=None):
    """Every pair (I, J) of ``sizes`` (default: every size), through
    ``scan_pairs`` and its blocks, in lexicographic order and against
    ``delete`` + ``contract``; returns the pair count."""
    N = G.edge_count
    if sizes is None:
        sizes = [(si, sj) for si in range(N + 1) for sj in range(N - si + 1)]
    pairs = _kernel_pairs(G, sizes)
    labels = sorted(G.labels)
    assert [(I, J) for I, J, _, _ in pairs] == [
        (I, J)
        for si, sj in sizes
        for I in itertools.combinations(labels, si)
        for J in itertools.combinations([l for l in labels if l not in I], sj)
    ]
    for I, J, connected, key in pairs:
        GI = delete(G, I)
        assert connected == is_connected(GI), (G.edges, I)
        try:
            gamma = contract(GI, J)
        except SelfLoopContraction:
            assert key is None, (G.edges, I, J)
            continue
        if not connected:
            assert key is None, (G.edges, I, J)
            continue
        assert key == (gamma.vertex_count, tuple(sorted(gamma.edges))), (G.edges, I, J)
    return len(pairs)


def test_quotients_is_contract_pair_for_pair(corpus, catalog5):
    import random

    # labels that are not edge positions, in an order unlike the edges'
    relabelled = Graph(
        ((2, 5), (1, 3), (4, 5), (3, 2), (1, 5), (4, 1), (3, 5), (2, 4)), 5,
        (9, 3, 12, 1, 7, 5, 2, 11),
    )
    cases = list(corpus.values()) + [relabelled]
    cases += random.Random(13).sample(catalog5, 40)  # loops and parallel edges
    counts = [_kernel_agrees_with_contract(G) for G in cases]
    assert counts == [3**G.edge_count for G in cases]
    assert sum(counts) > 30000


def test_contract_numbers_merged_vertices_by_least_vertex():
    # contracting (1,4), then (3,4) merges {1, 3, 4}; that class is vertex 1
    # and vertex 2 is vertex 2, whichever root the unions leave
    G = Graph(((2, 4), (1, 4), (3, 4), (1, 4), (3, 4)), 4)
    assert contract(G, {2, 3}).edges == ((1, 2), (1, 1), (1, 1))
    keys = {(I, J): key for I, J, _, key in _kernel_pairs(G, [(0, 2), (2, 2)])}
    assert keys[(), (2, 3)] == (2, ((1, 1), (1, 1), (1, 2)))
    assert keys[(), (2, 4)] is None  # a double edge is a cycle
    assert keys[(4, 5), (1, 3)] == (2, ((1, 2),))


def test_kernel_widens_the_code_dtype_past_15_vertices():
    # 20 vertices: an edge code a (V + 1) + b, up to 21^2 - 1, needs two bytes
    G = family("cycle", 20)
    assert np.dtype(graphs._ScanGraph(G).code).itemsize == 2
    sizes = [(1, 1), (2, 0), (0, 3), (2, 17), (1, 19)]
    assert _kernel_agrees_with_contract(G, sizes) == sum(
        math.comb(20, si) * math.comb(20 - si, sj) for si, sj in sizes
    )
    # census-sized: every forest of C_20 short of a spanning tree is a path
    assert census(G, 1, 0) == (20, 20)  # |I| = 0, |J| = 19: the spanning trees
    assert census(G, 1, 1) == (190, 190)  # |I| = 0, |J| = 18
    assert census(G, 0, 1) == (380, 380)  # |I| = 1, |J| = 18


def test_kernel_blocks_split_inside_an_I_group_and_a_J_run(monkeypatch):
    # wheel:4 at (1, 3): 8 I's of C(7, 3) = 35 J's each; blocks of 16 pairs
    # end inside the J's of one I, between two J's with the same least label
    G = family("wheel", 4)
    whole = _kernel_pairs(G, [(1, 3), (2, 3)])
    monkeypatch.setattr(graphs, "_SCAN_BLOCK", 16)
    _, blocks = scan_pairs(G, [(1, 3), (2, 3)], budget=None, what="the block check")
    sizes = [len(b) for b in blocks]
    assert max(sizes) == 16 and sum(sizes) == len(whole)
    edges = list(itertools.accumulate(sizes))[:-1]
    inside = [e for e in edges if whole[e - 1][0] == whole[e][0] and whole[e - 1][1][0] == whole[e][1][0]]
    assert len(inside) > len(edges) // 2
    assert _kernel_pairs(G, [(1, 3), (2, 3)]) == whole
    assert _kernel_agrees_with_contract(G, [(1, 3), (2, 3)]) == len(whole)


def test_census_blocks_hold_at_most_scan_block_pairs(monkeypatch):
    seen = []

    def recording(*args, **kwargs):
        total, blocks = scan_pairs(*args, **kwargs)
        return total, (seen.append(len(b)) or b for b in blocks)

    monkeypatch.setattr(graphs, "scan_pairs", recording)
    assert census(family("wheel", 6), 2, 0)[1] == 13860
    assert sum(seen) == 13860 and len(seen) > 1
    assert max(seen) <= graphs._SCAN_BLOCK


@st.composite
def scan_cases(draw):
    """A loopy multigraph labelled out of edge order, and one scan size
    (|I|, |J|) with |I| + |J| <= N."""
    G = draw(labeled_multigraphs())
    N = G.edge_count
    si = draw(st.integers(0, N))
    sj = draw(st.sampled_from(sorted({0, N - si, draw(st.integers(0, N - si))})))
    return G, (si, sj)


@seed(19)
@given(scan_cases())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_delete_contract_on_random_multigraphs(case):
    G, size = case
    assert _kernel_agrees_with_contract(G, [size]) == math.comb(G.edge_count, size[0]) * math.comb(
        G.edge_count - size[0], size[1]
    )


def test_delete_contract_commute(corpus):
    for name, G in corpus.items():
        labels = sorted(G.labels)
        if len(labels) < 2:
            continue
        i, j = labels[0], labels[-1]
        u, v = G.endpoints(j)
        if u == v:
            continue
        a = contract(delete(G, {i}), {j})
        b = delete(contract(G, {j}), {i})
        assert a.edges == b.edges and a.vertex_count == b.vertex_count, name


@st.composite
def small_multigraphs(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    m = draw(st.integers(min_value=1, max_value=6))
    edges = tuple(
        (
            draw(st.integers(min_value=1, max_value=n)),
            draw(st.integers(min_value=1, max_value=n)),
        )
        for _ in range(m)
    )
    return Graph(edges, n)


@given(small_multigraphs())
@settings(max_examples=60, deadline=None)
def test_loop_number_additivity(G):
    # h(G\I//J) bookkeeping: deleting a non-bridge drops h, contracting a
    # non-loop drops n; both leave N - V + components invariant
    assert G.h == G.edge_count - G.vertex_count + len(components(G))
    assert G.h >= 0


@given(small_multigraphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_contract_keeps_connectivity(G, data):
    non_loops = [l for l in G.labels if G.endpoints(l)[0] != G.endpoints(l)[1]]
    if not non_loops:
        return
    k = data.draw(st.sampled_from(non_loops))
    assert is_connected(contract(G, {k})) == is_connected(G)


def test_subquotient_loop_number_bookkeeping(catalog5):
    # h(G\I//J) = h - |I| and n(G\I//J) = n - |J| when the result is connected
    # and J is acyclic in G\I
    import random

    from c2lab.graphs import is_forest_in

    rng = random.Random(5)
    for G in rng.sample(catalog5, 50):
        labels = sorted(G.labels)
        for _ in range(4):
            di = rng.randint(0, min(2, len(labels)))
            I = frozenset(rng.sample(labels, di))
            rest = [l for l in labels if l not in I]
            dj = rng.randint(0, min(2, len(rest)))
            J = frozenset(rng.sample(rest, dj))
            GI = delete(G, I)
            if not is_forest_in(GI, J):
                continue
            gamma = contract(GI, J)
            if not is_connected(gamma) or not is_connected(G):
                continue
            assert gamma.h == G.h - len(I), (G.edges, I, J)
            assert gamma.n == G.n - len(J), (G.edges, I, J)
