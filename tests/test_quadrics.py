import itertools

import pytest

from c2lab import counting, quadrics
from c2lab.corpus import named_graphs
from c2lab.counting import count_zeros
from c2lab.errors import BudgetExceeded, PreconditionUnmet
from c2lab.fields import make_field
from c2lab.graphs import Graph, delete, family
from c2lab.multipoly import phi
from c2lab.quadrics import (
    quadric_congruence_rhs,
    quadric_system_count,
    quadric_union_count,
    quadric_union_count_direct,
    quadric_union_count_walk,
    restricted_matrix_rank_sums,
)


def test_single_edge_f2():
    g = Graph(((1, 2),), 2)
    assert quadric_union_count(g, make_field(2)).raw == 10


def test_single_edge_closed_form():
    # |x|^2 = 0 in F_q^4 has q^3 + q^2 - q points
    g = Graph(((1, 2),), 2)
    for q in (2, 3, 5):
        F = make_field(q)
        assert quadric_union_count(g, F).raw == q**3 + q**2 - q


def test_parallel_edges_share_one_weight():
    # 20 parallel edges are one quadric: 3 weights are walked, within a
    # budget that 3^20 would pass
    F3 = make_field(3)
    assert quadric_union_count(family("banana", 20), F3, budget=3**4).raw == 3**3 + 3**2 - 3


def test_triangle_matches_direct_oracle():
    tri = family("cycle", 3)
    for q in (2, 3, 4):
        F = make_field(q)
        assert quadric_union_count(tri, F).raw == quadric_union_count_direct(tri, F)


def test_direct_oracle_more_graphs():
    F2 = make_field(2)
    for G in (family("path", 2), family("banana", 2), family("Gn", 2)):
        assert quadric_union_count(G, F2).raw == quadric_union_count_direct(G, F2)


def star_union(q):
    # With both edges at the pinned vertex, the union misses exactly the
    # points where |x_1|^2 and |x_2|^2 are nonzero; |x|^2 = 0 has
    # q^3 + q^2 - q points in F_q^4.
    return q**8 - (q**4 - (q**3 + q**2 - q)) ** 2


STAR = Graph(((1, 3), (2, 3)), 3)


def test_union_closed_form_with_block_boundary_inside_a_vector():
    # at q = 8 the inner block holds 5 coordinates: x_1's last coordinate is
    # inner and its others outer.
    assert quadric_union_count_walk(STAR, make_field(8)).raw == star_union(8)


@pytest.mark.parametrize("q", (8, 9, 11, 13))
def test_union_closed_form_of_the_star(q):
    # q^8 points pass the default budget from q = 11 on; only q^2 weights are walked
    assert quadric_union_count(STAR, make_field(q), budget=q**8).raw == star_union(q)


def test_self_loop_fills_space():
    g = Graph(((1, 2), (1, 1)), 2)
    F3 = make_field(3)
    assert quadric_union_count(g, F3).raw == 3**4
    assert quadric_union_count_walk(g, F3).raw == 3**4


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_union_matches_walk_across_corpus(q):
    F = make_field(q)
    checked = 0
    for name, G in named_graphs().items():
        if G.n >= 1 and q ** (4 * G.n) <= 2 * 10**6:
            assert quadric_union_count(G, F) == quadric_union_count_walk(G, F), name
            checked += 1
    assert checked


def test_union_matches_walk_on_gn4():
    G, F3 = family("Gn", 4), make_field(3)
    assert quadric_union_count(G, F3) == quadric_union_count_walk(G, F3)


def test_union_of_a_disconnected_graph_matches_direct():
    G, F2 = Graph(((1, 2), (3, 4)), 4), make_field(2)
    assert quadric_union_count(G, F2).raw == quadric_union_count_direct(G, F2)


def test_union_counts_over_edge_weights(monkeypatch):
    def walked(*args, **kwargs):
        raise AssertionError("the union walked the 4n-lattice")

    monkeypatch.setattr(quadrics, "_walk_zeros", walked)
    assert quadric_union_count(family("Gn", 4), make_field(3)).raw % 9 == 0


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        quadric_union_count(family("wheel", 5), make_field(3), budget=10**6)


def test_budget_guards_the_edge_weights():
    # 2^36 points pass the 4n guard; the 2^45 edge weights do not
    with pytest.raises(BudgetExceeded):
        quadric_union_count(family("complete", 10), make_field(2), budget=2**36)


def test_k4_divisibility_c220():
    for q in (2, 3):
        rep = quadric_union_count(family("complete", 4), make_field(q))
        assert rep.raw % q**2 == 0


def test_congruence_c216_k4_g3():
    for G in (family("complete", 4), family("Gn", 3)):
        for q in (2, 3):
            F = make_field(q)
            lhs = quadric_union_count(G, F).raw % q**3
            assert lhs == quadric_congruence_rhs(G, F), (G.edges, q)


def test_deletion_phi_is_phi_restricted(corpus):
    # c216's right side counts phi_{G\d} as phi_G at a_d = 0: the trees of
    # G\d are the trees of G that avoid d
    for name, G in corpus.items():
        f = phi(G)
        for k in (1, 2):
            for d in itertools.combinations(G.labels, k):
                assert phi(delete(G, d)) == f.subs_zero(d), (name, d)


def test_congruence_rhs_trivial_when_overdetermined():
    # 2n > N + 2 kills every term through the prefactor
    c5 = family("cycle", 5)  # N=5, n=4: 2n-N = 3
    for q in (2, 3):
        assert quadric_congruence_rhs(c5, make_field(q)) == 0


def test_congruence_needs_n_le_2n():
    b3 = family("banana", 3)  # N=3 > 2 = 2n
    with pytest.raises(PreconditionUnmet):
        quadric_congruence_rhs(b3, make_field(2))


@pytest.mark.parametrize("q", (2, 3, 4))
def test_prop_p14_identity(q):
    # q^{|I|-1} [{q_i}_I] = q^{2n-1} sum_alpha q^{2 corank P_I(alpha)}
    F = make_field(q)
    for G in (family("cycle", 3), family("banana", 2), family("path", 2)):
        n = G.n
        labels = sorted(G.labels)
        for size in range(1, len(labels) + 1):
            for I in itertools.combinations(labels, size):
                lhs = F.q ** (size - 1) * quadric_system_count(G, F, I)
                rank_sum, _, _ = restricted_matrix_rank_sums(G, F, I)
                rhs = F.q ** (2 * n - 1) * rank_sum
                assert lhs == rhs, (G.edges, I)


@pytest.mark.parametrize("name", ("triangle_loop", "triangle_double"))
@pytest.mark.parametrize("q", (2, 3))
def test_system_count_matches_pointwise_loop(name, q, corpus):
    # a self-loop's quadric constrains nothing; parallel edges repeat one
    G = corpus[name]
    n = G.n

    def vec(x, v):
        return x[4 * (v - 1) : 4 * v] if v <= n else (0, 0, 0, 0)

    zero_sets = []
    for x in itertools.product(range(q), repeat=4 * n):
        zeros = set()
        for lab, (u, v) in zip(G.labels, G.edges):
            d = [a - b for a, b in zip(vec(x, u), vec(x, v))]
            if (d[0] * d[1] + d[2] * d[3]) % q == 0:
                zeros.add(lab)
        zero_sets.append(zeros)
    F = make_field(q)
    for size in range(G.edge_count + 1):
        for I in itertools.combinations(G.labels, size):
            want = sum(set(I) <= zeros for zeros in zero_sets)
            assert quadric_system_count(G, F, I) == want, I


@pytest.mark.parametrize("q", (2, 3))
def test_prop_p15_congruence(q):
    # [P_I x^2, P_I x^4] = q^{|I|} + (q^2-1)[det=0] - q^2[rank<n-1]  mod q^4
    F = make_field(q)
    for G in (family("cycle", 3), family("Gn", 2), family("complete", 4)):
        n = G.n
        labels = sorted(G.labels)
        for size in (1, 2, len(labels)):
            for I in itertools.combinations(labels, size):
                rank_sum, n_sing, n_deep = restricted_matrix_rank_sums(G, F, I)
                rhs = F.q**size + (F.q**2 - 1) * n_sing - F.q**2 * n_deep
                assert rank_sum % F.q**4 == rhs % F.q**4, (G.edges, I)
                # the det-zero count really is the phi count with zeroing
                P = phi(G).subs_zero(set(labels) - set(I))
                assert n_sing == count_zeros([P], F, size).raw, (G.edges, I)


def pointwise_rank(rows, F):
    """Rank of a square matrix of field codes by scalar Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = F.inv(rows[rank][col])
        for r in range(rank + 1, len(rows)):
            f = F.mul(rows[r][col], inv)
            rows[r] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize(
    "q, subset",
    (
        (3, (1, 2, 3, 4, 5, 6)),
        (4, (1, 2, 5, 6, 7)),
        (9, (1, 3, 5)),
        (13, (1, 3, 5)),
        (2, (1, 2, 3, 4, 5, 6, 7, 8)),
        (5, (1, 2, 3, 5, 6, 8)),
        (7, (2, 3, 4, 6, 7)),
        (8, (1, 4, 5, 7)),
        (11, (1, 2, 6, 8)),
    ),
)
def test_rank_sums_match_pointwise_elimination(q, subset):
    G = family("wheel", 4)
    F = make_field(q)
    n = G.n  # the last vertex is deleted: rows and columns are vertices 1..n
    want = [0, 0, 0]
    for vals in itertools.product(F.elements(), repeat=len(subset)):
        a = dict(zip(subset, vals))
        lap = [[0] * n for _ in range(n)]
        for lab, (u, v) in zip(G.labels, G.edges):
            x = a.get(lab, 0)
            for s, t, op in ((u, u, F.add), (v, v, F.add), (u, v, F.sub), (v, u, F.sub)):
                if u != v and s <= n and t <= n:
                    lap[s - 1][t - 1] = op(lap[s - 1][t - 1], x)
        r = pointwise_rank(lap, F)
        want[0] += q ** (2 * (n - r))
        want[1] += r < n
        want[2] += r < n - 1
    assert restricted_matrix_rank_sums(G, F, subset) == tuple(want)


def test_rank_sums_respect_default_budget(monkeypatch):
    monkeypatch.setattr(counting, "DEFAULT_BUDGET", 10)
    with pytest.raises(BudgetExceeded):
        restricted_matrix_rank_sums(family("cycle", 3), make_field(3), (1, 2, 3))
