import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2lab.errors import BadIndices, IndexOverlap
from c2lab.graphs import Graph, contract, delete, family
from c2lab.matform import det_bareiss
from c2lab.multipoly import (
    DodgsonIndex,
    MLPoly,
    cremona,
    dodgson,
    dual_dodgson,
    phi,
    phi_dodgson_pair,
    phi_two_index,
    psi,
    psi_two_index,
    resultant,
)

a = MLPoly.variable


def det_permutation(entries):
    """Sign-summed permutation expansion, the small-matrix determinant oracle."""
    d = len(entries)
    total = MLPoly.zero()
    for perm in itertools.permutations(range(d)):
        sign = 1
        seen = list(perm)
        for i in range(d):
            for j in range(i + 1, d):
                if seen[i] > seen[j]:
                    sign = -sign
        term = MLPoly.constant(sign)
        for i in range(d):
            term = term * entries[i][perm[i]]
        total = total + term
    return total


def test_psi_phi_triangle_banana():
    tri = family("cycle", 3)
    b3 = family("banana", 3)
    assert psi(tri) == a(1) + a(2) + a(3)
    assert phi(tri) == a(1) * a(2) + a(1) * a(3) + a(2) * a(3)
    assert psi(b3) == phi(tri)
    assert phi(b3) == psi(tri)


def test_psi_k4_16_monomials():
    K4 = family("complete", 4)
    P = psi(K4)
    assert P.monomial_count() == 16
    assert P.degree() == 3
    assert all(c == 1 for _, c in P.terms())


def test_phi_of_loops_only_graph():
    bouquet = Graph(((1, 1), (1, 1)), 1)
    assert phi(bouquet) == MLPoly.constant(1)
    assert psi(bouquet) == a(1) * a(2)


def test_zero_for_disconnected():
    g = Graph(((1, 2), (3, 4)), 4)
    assert psi(g).is_zero and phi(g).is_zero


def test_psi_phi_keep_labels_beyond_64():
    # every cotree of a 70-cycle is one edge, every tree of a 66-banana too
    singles = sum((a(i) for i in range(2, 71)), a(1))
    assert psi(family("cycle", 70)) == singles
    assert phi(family("banana", 66)) == sum((a(i) for i in range(2, 67)), a(1))


def test_cremona_swaps_psi_phi(corpus):
    from c2lab.graphs import is_connected

    for name, G in corpus.items():
        if not is_connected(G):
            continue
        amb = G.label_set
        assert cremona(psi(G), amb) == phi(G), name
        assert cremona(phi(G), amb) == psi(G), name


def test_cremona_involution_and_constant():
    P = a(1) * a(2) + a(3) + 5
    amb = {1, 2, 3, 4}
    assert cremona(cremona(P, amb), amb) == P
    assert cremona(MLPoly.constant(1), {1, 2}) == a(1) * a(2)


def test_coeff_and_rest_examples():
    tri = family("cycle", 3)
    hi, lo = phi(tri).coeff_and_rest(1)
    assert hi == a(2) + a(3)
    assert lo == a(2) * a(3)
    hi, lo = psi(family("banana", 3)).coeff_and_rest(1)
    assert hi == a(2) + a(3)
    assert lo == a(2) * a(3)


def test_coeff_and_rest_contraction_deletion_k4():
    K4 = family("complete", 4)
    for k in sorted(K4.labels):
        hi, lo = phi(K4).coeff_and_rest(k)
        assert hi == phi(contract(K4, {k}))
        assert lo == phi(delete(K4, {k}))


def test_dodgson_full_matrix_is_psi(corpus):
    from c2lab.graphs import is_connected

    for name, G in corpus.items():
        if not is_connected(G):
            continue
        empty = frozenset()
        assert dodgson(G, DodgsonIndex(empty, empty)) == psi(G), name


def test_det_identity_on_catalog_sample(catalog6):
    import random

    empty = frozenset()
    rng = random.Random(1)
    for G in rng.sample(catalog6, 120):
        assert dodgson(G, DodgsonIndex(empty, empty)) == psi(G), G.edges
        assert psi(G).is_multilinear() and phi(G).is_multilinear()


def test_dodgson_minor_triangle():
    tri = family("cycle", 3)
    one = frozenset({1})
    # Psi^{1,1} is the coefficient of a1 in Psi (deletion of e1)
    assert dodgson(tri, DodgsonIndex(one, one)) == psi(delete(tri, {1}))
    # Psi^{1,2} has degree h-1 = 0: a constant of absolute value 1
    m = dodgson(tri, DodgsonIndex(one, frozenset({2})))
    assert m in (MLPoly.constant(1), MLPoly.constant(-1))
    # its Cremona image is the single monomial +-a3
    img = cremona(m, frozenset({3}))
    assert img in (a(3), MLPoly.constant(-1) * a(3))


def test_dodgson_zeroing_contracts():
    tri = family("cycle", 3)
    empty = frozenset()
    assert dodgson(tri, DodgsonIndex(empty, empty, frozenset({1}))) == psi(
        contract(tri, {1})
    )


def test_dodgson_validation():
    tri = family("cycle", 3)
    with pytest.raises(BadIndices):
        DodgsonIndex(frozenset({1}), frozenset())
    with pytest.raises(BadIndices):
        dodgson(tri, DodgsonIndex(frozenset({9}), frozenset({1})))


def test_two_index_conventions():
    K4 = family("complete", 4)
    # psi superscript deletes, subscript contracts
    assert psi_two_index(K4, {1}, set()) == psi(delete(K4, {1}))
    assert psi_two_index(K4, set(), {1}) == psi(contract(K4, {1}))
    # phi superscript contracts, subscript deletes
    assert phi_two_index(K4, {1}, set()) == phi(contract(K4, {1}))
    assert phi_two_index(K4, set(), {1}) == phi(delete(K4, {1}))
    # overlap convention
    assert psi_two_index(K4, {1}, {1}).is_zero
    assert phi_two_index(K4, {1, 2}, {2}).is_zero


def test_dual_dodgson_identities():
    K4 = family("complete", 4)
    empty = frozenset()
    assert dual_dodgson(K4, empty, empty, empty, empty) == phi(K4)
    # a shared paired index degenerates to coefficient extraction:
    # phi^{i,i} = phi^i = phi(G//i)
    for i in sorted(K4.labels):
        assert phi_dodgson_pair(K4, {i}, {i}) == phi(K4).coeff_and_rest(i)[0]
        assert phi_dodgson_pair(K4, {i}, {i}) == phi(contract(K4, {i}))
    # phi^{1,2}_3 = iota(Psi^{13,23}) on the remaining variables
    inner = dodgson(K4, DodgsonIndex(frozenset({1, 3}), frozenset({2, 3})))
    amb = K4.label_set - {1, 2, 3}
    assert phi_dodgson_pair(K4, {1}, {2}, {3}) == cremona(inner, amb)


def test_dual_dodgson_subquotient_rule(corpus):
    # phi^{IS,JS}_{G,K} = phi^{I,J} of G\K//S
    from c2lab.graphs import is_connected, is_forest_in

    K4 = corpus["K4"]
    for S in ({4}, {5}):
        for K in ({6},):
            sub = contract(delete(K4, K), S)
            lhs = dual_dodgson(K4, {1}, {2}, K, S)
            rhs = phi_dodgson_pair(sub, {1}, {2})
            assert lhs == rhs


def test_dual_dodgson_overlap_error():
    K4 = family("complete", 4)
    with pytest.raises(IndexOverlap):
        dual_dodgson(K4, {1}, {2}, {1}, set())


def test_resultant_basics():
    f = a(1)
    g = MLPoly.constant(1)
    assert resultant(f, g, 1) == MLPoly.constant(1)
    h = a(1) * a(2) + a(3)
    assert resultant(h, h, 1).is_zero


def test_resultant_formula_k4():
    K4 = family("complete", 4)
    f = phi(K4)
    fi = f.coeff_and_rest(2)[0]
    f1, f_1 = f.coeff_and_rest(1)
    fi1, fi_1 = fi.coeff_and_rest(1)
    assert resultant(f, fi, 1) == f1 * fi_1 - f_1 * fi1


def test_det_oracles_agree_on_p_matrices(corpus):
    from c2lab.graphs import is_connected
    from c2lab.matform import p_matrix

    for name, G in corpus.items():
        if not is_connected(G) or G.n > 4:
            continue
        entries = p_matrix(G).entries
        assert det_bareiss(entries) == det_permutation(entries), name
    # P-matrix diagonals are never zero: these two take Bareiss's row swap
    # and its zero-column return
    z = MLPoly.zero()
    for entries, det in (
        ([[z, a(1), z], [a(2), z, z], [z, z, a(3)]], -(a(1) * a(2) * a(3))),
        ([[z, a(1)], [z, a(2)]], z),
    ):
        assert det_bareiss(entries) == det_permutation(entries) == det


def test_serialization_text():
    P = a(1) * a(2) + a(3)
    assert P.to_text() == "+1*a1*a2 +1*a3"
    assert MLPoly.zero().to_text() == "0"
    Q = MLPoly.constant(-2) + a(2) * a(4)
    assert Q.to_text() == "-2 +1*a2*a4"


def test_serialization_json_roundtrip():
    K4 = family("complete", 4)
    P = phi(K4)
    assert MLPoly.from_json_terms(P.to_json_terms()) == P


monomials = st.lists(
    st.tuples(st.integers(min_value=1, max_value=5), st.integers(min_value=-4, max_value=4)),
    max_size=6,
)


def _mk(terms):
    out = MLPoly.zero()
    for v, c in terms:
        out = out + MLPoly.monomial((v,), c)
    return out


@given(monomials, monomials, monomials)
@settings(max_examples=80, deadline=None)
def test_ring_axioms(t1, t2, t3):
    p, q, r = _mk(t1), _mk(t2), _mk(t3)
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p - p == MLPoly.zero()


@given(st.sets(st.integers(min_value=1, max_value=8), min_size=1, max_size=6), st.data())
@settings(max_examples=50, deadline=None)
def test_cremona_involution_property(amb, data):
    subsets = st.lists(
        st.sets(st.sampled_from(sorted(amb)), max_size=len(amb)), max_size=4
    )
    terms = data.draw(subsets)
    P = MLPoly.zero()
    for s in terms:
        P = P + MLPoly.monomial(tuple(s), 1)
    assert cremona(cremona(P, amb), amb) == P
