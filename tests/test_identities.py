import itertools
import random

import pytest

from c2lab import identities
from c2lab.errors import BadIndices
from c2lab.graphs import Graph, family
from c2lab.identities import (
    check_identity,
    resultant_lemma_variants,
    sweep_identities,
)


def test_c10_all_edges_k4():
    K4 = family("complete", 4)
    for k in sorted(K4.labels):
        assert check_identity("c10", K4, {"k": k}).holds


def test_c10_self_loop_case():
    g = Graph(((1, 2), (1, 1), (2, 2)), 2)
    for k in (1, 2, 3):
        assert check_identity("c10", g, {"k": k}).holds


def test_e100_tadpole():
    g = Graph(((1, 2), (1, 2), (2, 2)), 2)
    assert check_identity("e100", g, {"k": 3}).holds
    with pytest.raises(BadIndices):
        check_identity("e100", g, {"k": 1})


def test_e101_double_edge():
    for g in (family("Gn", 2), family("Gn", 3), family("banana", 4)):
        r = check_identity("e101", g, {"pair": (1, 2)})
        assert r.holds


def test_c14_c15_all_pairs_k4():
    K4 = family("complete", 4)
    for i, j in itertools.combinations(sorted(K4.labels), 2):
        assert check_identity("c14", K4, {"i": i, "j": j}).holds
        assert check_identity("c15", K4, {"i": i, "j": j}).holds


def test_c14_banana():
    b3 = family("banana", 3)
    r = check_identity("c14", b3, {"i": 1, "j": 2})
    assert r.holds


def test_c15_resolved_sign_is_minus_on_k4():
    K4 = family("complete", 4)
    r = check_identity("c15", K4, {"i": 1, "j": 2})
    assert r.holds and r.witness["sign"] == -1


@pytest.mark.parametrize(
    "name, edges, indices, witness",
    [
        ("c14", ((1, 2), (1, 1)), {"i": 1, "j": 2}, {"sign": 1}),
        ("cor7", ((1, 2), (1, 1)), {"i": 1, "k": 2}, {"sign": 1}),
        (
            "c18",
            ((1, 2), (1, 1), (1, 1)),
            {"I": (), "J": (), "S": (), "K": (), "a": 1, "b": 2, "x": 3},
            {"lhs_sign": 1, "rhs_sign": 1},
        ),
        (
            "c20",
            ((1, 2), (1, 1), (1, 1), (1, 1)),
            {"I": (), "J": (4,), "S": (), "K": (), "a": 1, "b": 2, "x": 3},
            {"lhs_sign": 1, "rhs_sign": 1},
        ),
        ("c100", ((1, 2), (1, 3)), {"edges": (1, 2)}, {"lambda": [1]}),
        ("c101", ((1, 1),), {"edges": (1,)}, {"lambda": []}),
    ],
)
def test_witness_is_the_first_sign_assignment(name, edges, indices, witness):
    # several assignments hold on each of these (c101's only one is empty):
    # the reported one is the first in product order over (1, -1)
    G = Graph(edges, max(max(e) for e in edges))
    r = check_identity(name, G, indices)
    assert r.holds and r.witness == witness


def test_c18_c20_with_nonempty_sets():
    W4 = family("wheel", 4)
    r = check_identity(
        "c18", W4, {"I": (1,), "J": (2,), "S": (3,), "K": (), "a": 4, "b": 5, "x": 6}
    )
    assert r.holds
    r = check_identity(
        "c20", W4, {"I": (1,), "J": (2, 7), "S": (), "K": (3,), "a": 4, "b": 5, "x": 6}
    )
    assert r.holds


def test_c20_index_validation():
    K4 = family("complete", 4)
    with pytest.raises(BadIndices):
        check_identity("c20", K4, {"I": (1,), "J": (2,), "a": 3, "b": 4, "x": 5})


def test_c101_triangle_and_longer_cycles():
    tri = family("cycle", 3)
    r = check_identity("c101", tri, {"edges": (1, 2, 3)})
    assert r.holds and set(r.witness["lambda"]) <= {1, -1}
    c5 = family("cycle", 5)
    assert check_identity("c101", c5, {"edges": (1, 2, 3, 4, 5)}).holds
    # a 2-cycle works too
    b2 = family("Gn", 2)
    assert check_identity("c101", b2, {"edges": (1, 2)}).holds


def test_c100_corollas():
    K4 = family("complete", 4)
    # star of vertex 1 = edges 1,2,3; of vertex 4 = edges 3,5,6
    assert check_identity("c100", K4, {"edges": (1, 2, 3)}).holds
    assert check_identity("c100", K4, {"edges": (3, 5, 6)}).holds
    W4 = family("wheel", 4)
    hub = tuple(sorted(l for l in W4.labels if 5 in W4.endpoints(l)))
    assert check_identity("c100", W4, {"edges": hub}).holds


def test_cor7_radical_identity(catalog5):
    rng = random.Random(7)
    sample = rng.sample(catalog5, 40)
    for G in sample:
        labels = sorted(G.labels)
        if len(labels) < 2:
            continue
        i, k = labels[0], labels[1]
        assert check_identity("cor7", G, {"i": i, "k": k}).holds, G.edges


def test_full_sweep_small_catalog(catalog5):
    names = ("c10", "c14", "c15", "c18", "c20", "c100", "c101", "e100", "e101")
    for G in catalog5:
        for name, idx, result in sweep_identities(G, names):
            assert result.holds, (name, G.edges, idx)


def test_sweep_builds_each_minor_once(monkeypatch):
    built = []
    pair = identities.phi_dodgson_pair

    def spy(G, A, B, C=()):
        built.append((A, B, C))
        return pair(G, A, B, C)

    monkeypatch.setattr(identities, "phi_dodgson_pair", spy)
    results = list(sweep_identities(family("wheel", 4)))
    assert results and all(r.holds for _, _, r in results)
    assert built and len(built) == len(set(built))


def test_resultant_lemma_resolution():
    """The printed lemma duplicates phi^{ij,jk}; the correction that holds is
    [phi^i, phi^j]_k = phi^{ij,ik} phi^{j,k} - phi^{ij,jk} phi^{i,k}."""
    K4 = family("complete", 4)
    W4 = family("wheel", 4)
    printed_fails = 0
    for G in (K4, W4):
        for (i, j, k) in itertools.permutations(sorted(G.labels)[:4], 3):
            res = resultant_lemma_variants(G, i, j, k)
            assert res["first-ij-ik"] is not None, (G.edges, i, j, k)
            if res["printed"] is None:
                printed_fails += 1
    assert printed_fails > 0


def test_unknown_identity():
    with pytest.raises(BadIndices):
        check_identity("c999", family("cycle", 3), {})
