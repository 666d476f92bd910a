"""``graphs.canonical_form`` (individualization-refinement) against the
colour-refinement form it replaced, kept here verbatim as the reference."""

import collections
import itertools
import random

import pytest

from c2lab import invariants
from c2lab.corpus import nonplanar_log_divergent
from c2lab.graphs import (
    Graph,
    canonical_form,
    connected_multigraphs,
    family,
    is_isomorphic,
    scan_sizes,
)


def _degree_profile(G: Graph):
    deg = [0] * (G.vertex_count + 1)
    loops = [0] * (G.vertex_count + 1)
    for u, v in G.edges:
        deg[u] += 1
        deg[v] += 1
        if u == v:
            loops[u] += 1
    return deg, loops


def _reference_canonical_form(G: Graph) -> tuple:
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


def _classes(graphs, form) -> list[int]:
    """Each graph's class under ``form``, numbered in order of first appearance."""
    ids: dict = {}
    return [ids.setdefault(form(g), len(ids)) for g in graphs]


def _relabel(G: Graph, rng: random.Random) -> Graph:
    perm = list(range(1, G.vertex_count + 1))
    rng.shuffle(perm)
    return Graph(tuple((perm[u - 1], perm[v - 1]) for u, v in G.edges), G.vertex_count)


def _circulant(n: int, a: int, b: int) -> Graph:
    """C^n_{a,b}: vertex i adjacent to i +- a and i +- b mod n."""
    edges = {tuple(sorted((i, (i + d) % n))) for i in range(n) for d in (a, b)}
    return Graph(tuple((u + 1, v + 1) for u, v in sorted(edges)), n)


def test_catalogue_sizes_per_edge_count(catalog6):
    sizes = collections.Counter(G.edge_count for G in catalog6)
    assert sorted(sizes.items()) == [(1, 2), (2, 4), (3, 11), (4, 30), (5, 95), (6, 328)]


@pytest.mark.parametrize("max_edges", (0, -1))
def test_catalogue_below_one_edge_is_empty(max_edges):
    assert connected_multigraphs(max_edges) == []


def test_classes_match_reference_on_catalogue_and_corpus(catalog6, corpus):
    # every graph once as listed and once relabeled, so a form that split
    # a class would fail here as well as one that merged two
    rng = random.Random(27)
    for graphs in (catalog6, list(corpus.values())):
        graphs = graphs + [_relabel(G, rng) for G in graphs]
        assert _classes(graphs, canonical_form) == _classes(graphs, _reference_canonical_form)


@pytest.mark.parametrize(
    "G",
    [pytest.param(family(f, n), id=f"{f}:{n}") for f in ("wheel", "Gn") for n in (3, 4, 5)]
    + [pytest.param(nonplanar_log_divergent(), id="K33_doubled")],
)
def test_scan_classes_match_reference(G, monkeypatch):
    # the at-q and S_2 class tables: members, pair counts, first pairs,
    # their places in the scan and the connected pairs before them
    def table():
        out = []
        for sizes in (scan_sizes(G.edge_count, G.n - 3), [(2, 2)]):
            classes, pairs, good = invariants._scan_classes(G, sizes, budget=None, what="scan")
            out.append((pairs, good, [(c.member, c.pairs, c.first, c.index, c.before) for c in classes]))
        return out

    new = table()
    monkeypatch.setattr(invariants, "canonical_form", _reference_canonical_form)
    assert table() == new


def test_regular_graphs_that_refinement_leaves_in_one_cell():
    k33 = Graph(tuple((u, v) for u in (1, 2, 3) for v in (4, 5, 6)), 6)
    prism = Graph(((1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)), 6)
    assert not is_isomorphic(k33, prism)
    # every vertex has degree 3 and refinement lists its neighbours alike
    assert not is_isomorphic(Graph(((1, 1), (1, 2), (2, 2)), 2), family("banana", 3))
    assert not is_isomorphic(_circulant(10, 1, 4), _circulant(10, 1, 3))


def test_circulant_form_is_label_blind():
    G = _circulant(10, 1, 4)
    rng = random.Random(10)
    assert {canonical_form(_relabel(G, rng)) for _ in range(5)} == {canonical_form(G)}
