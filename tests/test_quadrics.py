import itertools

import pytest

from c2lab.counting import count_zeros
from c2lab.errors import BudgetExceeded, PreconditionUnmet
from c2lab.fields import make_field
from c2lab.graphs import Graph, family
from c2lab.multipoly import phi
from c2lab.quadrics import (
    quadric_congruence_rhs,
    quadric_system_count,
    quadric_union_count,
    quadric_union_count_direct,
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


def test_triangle_matches_direct_oracle():
    tri = family("cycle", 3)
    for q in (2, 3, 4):
        F = make_field(q)
        assert quadric_union_count(tri, F).raw == quadric_union_count_direct(tri, F)


def test_direct_oracle_more_graphs():
    F2 = make_field(2)
    for G in (family("path", 2), family("banana", 2), family("Gn", 2)):
        assert quadric_union_count(G, F2).raw == quadric_union_count_direct(G, F2)


def test_union_closed_form_with_block_boundary_inside_a_vector():
    # at q = 8 the inner block holds 5 coordinates: x_1's last coordinate is
    # inner and its others outer.  With both edges at the pinned vertex, the
    # union misses exactly the points where |x_1|^2 and |x_2|^2 are nonzero.
    q = 8
    zeros = q**3 + q**2 - q
    star = Graph(((1, 3), (2, 3)), 3)
    assert quadric_union_count(star, make_field(q)).raw == q**8 - (q**4 - zeros) ** 2


def test_self_loop_fills_space():
    g = Graph(((1, 2), (1, 1)), 2)
    F3 = make_field(3)
    assert quadric_union_count(g, F3).raw == 3**4


def test_threads_deterministic():
    K4 = family("complete", 4)
    F2 = make_field(2)
    assert (
        quadric_union_count(K4, F2, threads=1).raw
        == quadric_union_count(K4, F2, threads=8).raw
    )


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        quadric_union_count(family("wheel", 5), make_field(3), budget=10**6)


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
