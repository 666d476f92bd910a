import itertools
import random

import pytest

from c2lab.counting import (
    chevalley_warning_check,
    count_reduced,
    count_via_inclusion_exclusion,
    count_via_torus_strata,
    count_zeros,
    count_zeros_torus,
    sing_count,
)
from c2lab.errors import BudgetExceeded, PreconditionUnmet
from c2lab.fields import make_field
from c2lab.graphs import Graph, family, is_connected
from c2lab.multipoly import MLPoly, phi, phi_two_index, psi, psi_two_index

a = MLPoly.variable


def brute_count(P, F, n_vars, torus=False):
    """Plain per-point oracle, no numpy."""
    labels = sorted(P.variables())
    vals = range(1, F.q) if torus else range(F.q)
    count = 0
    for point in itertools.product(vals, repeat=n_vars):
        asg = dict(zip(range(1, n_vars + 1), point))
        total = 0
        for m, c in P.terms():
            v = F.embed_int(c)
            for x in m:
                v = F.mul(v, asg[x])
            total = F.add(total, v)
        if total == 0:
            count += 1
    return count


def relabel_to_prefix(P):
    ren = {v: i + 1 for i, v in enumerate(sorted(P.variables()))}
    return MLPoly({tuple(ren[x] for x in m): c for m, c in P.terms()})


def test_hyperplane_counts():
    F3 = make_field(3)
    assert count_zeros([psi(family("cycle", 3))], F3, 3).raw == 9
    for q in (2, 3, 4, 5):
        F = make_field(q)
        assert count_zeros([a(1) + a(2) + a(3)], F, 3).raw == q**2


def test_banana3_f2():
    assert count_zeros([psi(family("banana", 3))], make_field(2), 3).raw == 4


def test_empty_system():
    F5 = make_field(5)
    assert count_zeros([], F5, 3).raw == 125
    assert count_zeros_torus([], F5, 3).raw == 64


def test_torus_examples():
    F3 = make_field(3)
    assert count_zeros_torus([a(1) + a(2)], F3, 2).raw == 2
    assert count_zeros_torus([MLPoly.constant(1)], F3, 2).raw == 0
    assert count_zeros_torus([MLPoly.zero()], F3, 2).raw == 4


def test_vectorized_matches_pointwise_oracle():
    rng = random.Random(11)
    for q in (2, 3, 4, 5):
        F = make_field(q)
        for _ in range(6):
            n = rng.randint(1, 4)
            monos = {}
            for _ in range(rng.randint(1, 6)):
                m = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
                monos[m] = rng.randint(-3, 3)
            P = MLPoly(monos)
            assert count_zeros([P], F, n).raw == brute_count(P, F, n)
            assert count_zeros_torus([P], F, n).raw == brute_count(P, F, n, torus=True)


def test_high_powers_do_not_wrap_int64():
    # 4^32 = 2^64 wraps to 0 in int64; a_1^32 = 0 over F_5 only at a_1 = 0
    assert count_zeros([MLPoly({(1,) * 32: 1})], make_field(5), 1).raw == 1
    assert count_zeros([MLPoly({(1,) * 32: 1, (): -1})], make_field(5), 1).raw == 4


def test_free_variable_scaling():
    F3 = make_field(3)
    P = a(2) + a(5)  # ambient declares 4 variables, only 2 used
    assert count_zeros([P], F3, 4).raw == 9 * count_zeros([P], F3, 2).raw


def test_budget_guard():
    F5 = make_field(5)
    with pytest.raises(BudgetExceeded):
        count_zeros([a(1)], F5, 20, budget=10**6)


def test_count_report_fields():
    rep = count_zeros([psi(family("banana", 3))], make_field(2), 3)
    assert rep.raw == 4 and rep.mod_q == 0 and rep.mod_q2 == 0 and rep.mod_q3 == 4
    assert rep.quotient_c2 == 1
    assert rep.to_json()["raw"] == "4"


def test_count_reduced_matches_brute_on_graph_polys(corpus, fields):
    for name, G in corpus.items():
        if not is_connected(G) or G.edge_count > 6:
            continue
        for q in (2, 3):
            F = fields[q]
            for P in (psi(G), phi(G)):
                assert (
                    count_reduced(P, F, G.edge_count).raw
                    == count_zeros([P], F, G.edge_count).raw
                ), (name, q)


def test_count_reduced_random_polys():
    rng = random.Random(2024)
    for trial in range(40):
        n = rng.randint(1, 8)
        monos = {}
        for _ in range(rng.randint(1, 10)):
            m = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, min(3, n)))))
            monos[m] = rng.randint(-4, 4)
        P = MLPoly(monos)
        q = rng.choice((2, 3, 4))
        F = make_field(q)
        assert count_reduced(P, F, n).raw == count_zeros([P], F, n).raw, (trial, q)


def test_count_reduced_requires_multilinear():
    with pytest.raises(PreconditionUnmet):
        count_reduced(a(1) * a(1), make_field(2))


def test_inclusion_exclusion_identities(corpus, fields):
    for name in ("triangle", "banana3", "G2", "K4_minus_edge"):
        G = corpus[name]
        amb = sorted(G.labels)
        for q in (2, 3):
            F = fields[q]
            for P in (psi(G), phi(G)):
                direct = count_zeros([P], F, len(amb)).raw
                assert count_via_torus_strata(P, F, amb) == direct, (name, q, "sum1")
                assert count_via_inclusion_exclusion(P, F, amb) == direct, (name, q, "sum2")


def test_torus_duality_c80(corpus, fields):
    # [phi^I_J]' = [Psi^J_I]' for disjoint I, J
    K4 = corpus["K4"]
    F2 = fields[2]
    labels = sorted(K4.labels)
    for I in ({1}, {2, 3}, set()):
        for J in ({4}, {5, 6}, set()):
            if set(I) & set(J):
                continue
            amb = len(labels) - len(I) - len(J)
            lhs = count_zeros_torus([phi_two_index(K4, I, J)], F2, amb).raw
            rhs = count_zeros_torus([psi_two_index(K4, J, I)], F2, amb).raw
            assert lhs == rhs, (I, J)


def test_chevalley_warning():
    F2 = make_field(2)
    # two linear forms in 3 variables: total degree 2 < 3
    assert chevalley_warning_check([a(1) + a(2), a(2) + a(3)], F2, 3)
    with pytest.raises(PreconditionUnmet):
        chevalley_warning_check([a(1) * a(2)], F2, 2)  # degree = variable count
    with pytest.raises(PreconditionUnmet):
        chevalley_warning_check([a(1) + a(2), a(1)], F2, 2)


def test_chevalley_warning_on_psi():
    # 2 h < N makes deg psi < N
    g = Graph(((1, 2), (1, 2), (1, 3), (2, 3), (1, 3)), 3)  # N=5, h=3? n=2, h=3
    F3 = make_field(3)
    P = psi(g)
    assert P.degree() < g.edge_count
    assert chevalley_warning_check([P], F3, g.edge_count)


def test_sing_count_banana3():
    assert sing_count(family("banana", 3), make_field(2)).raw == 0


@pytest.mark.parametrize("q", (2, 3))
def test_sing_count_methods_agree(q, corpus):
    F = make_field(q)
    for name in ("K4", "triangle", "G2", "theta", "banana4", "square"):
        G = corpus[name]
        if q ** G.edge_count > 5000:
            continue
        counts = {
            m: sing_count(G, F, m).raw for m in ("jacobian", "jacobian_tree", "rank")
        }
        assert len(set(counts.values())) == 1, (name, counts)


def test_sing_count_mod_q(corpus, fields):
    for name, G in corpus.items():
        if not is_connected(G) or G.h < 2 or G.edge_count > 6:
            continue
        for q in (2, 3):
            rep = sing_count(G, fields[q])
            assert rep.raw % q == 0, (name, q)


def test_threads_do_not_change_counts():
    K4 = family("complete", 4)
    F3 = make_field(3)
    one = count_zeros([psi(K4)], F3, 6, threads=1).raw
    many = count_zeros([psi(K4)], F3, 6, threads=8).raw
    assert one == many
