import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from c2lab import counting
from c2lab.counting import (
    chevalley_warning_check,
    count_reduced,
    count_via_inclusion_exclusion,
    count_via_torus_strata,
    count_zeros,
    count_zeros_each,
    count_zeros_torus,
    rank_histogram,
    sing_count,
)
from c2lab.corpus import named_graphs
from c2lab.errors import BudgetExceeded, PreconditionUnmet
from c2lab.fields import make_field
from c2lab.graphs import Graph, family, incidence, is_connected
from c2lab.invariants import _find_triangle
from c2lab.matform import PolyMatrix, gram_matrix, p_matrix
from c2lab.multipoly import MLPoly, phi, phi_dodgson_pair, phi_two_index, psi, psi_two_index
from c2lab.quadrics import _quadric_poly, quadric_union_count_walk

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


def test_polynomial_vanishing_mod_p_constrains_nothing(monkeypatch):
    # every coefficient of 5 a1 a2 + 5 is 0 mod 5: it is dropped before
    # compiling, like a zero constant, by the AND count and count_reduced
    compiled = []
    compile_ = counting._compile

    def record(polys, F, var_index):
        compiled.extend(polys)
        return compile_(polys, F, var_index)

    monkeypatch.setattr(counting, "_compile", record)
    F5 = make_field(5)
    assert count_zeros([5 * a(1) * a(2) + 5, a(3)], F5, 3).raw == 25
    assert count_reduced(5 * a(1) * a(2) + 5 * a(3), F5, 3).raw == 125
    assert compiled == [a(3)]


def test_budget_guard():
    F5 = make_field(5)
    with pytest.raises(BudgetExceeded):
        count_zeros([a(1)], F5, 20, budget=10**6)


def test_count_report_fields():
    rep = count_zeros([psi(family("banana", 3))], make_field(2), 3)
    assert rep.raw == 4 and rep.mod_q == 0 and rep.mod_q2 == 0 and rep.mod_q3 == 4
    assert rep.quotient_c2 == 1
    assert rep.to_json()["raw"] == "4"


@pytest.fixture
def eliminate(monkeypatch):
    """Split every system that has a linear variable, whatever its size: at
    the default ``_ENUMERATE_POINTS`` every input of these tests would be
    enumerated whole, and the elimination would never run."""
    monkeypatch.setattr(counting, "_ENUMERATE_POINTS", 0)


def test_count_reduced_matches_brute_on_graph_polys(corpus, fields, eliminate):
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


def test_count_reduced_random_polys(eliminate):
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
    for name in ("K4", "triangle", "G2", "triangle_double", "banana4", "square"):
        G = corpus[name]
        if q ** G.edge_count > 5000:
            continue
        counts = {
            m: sing_count(G, F, m).raw for m in ("jacobian", "jacobian_tree", "rank")
        }
        assert len(set(counts.values())) == 1, (name, counts)


@pytest.mark.parametrize("q", (8, 9))
def test_rank_route_matches_jacobian_across_outer_assignments(q):
    # K4 has q^6 points: 8 or 9 outer assignments of the walker, each a block
    K4 = family("complete", 4)
    F = make_field(q)
    assert sing_count(K4, F, "rank").raw == sing_count(K4, F, "jacobian").raw


@pytest.mark.parametrize("q", (3, 4, 7))
def test_rank_histogram_rows_count_zero_coordinates(q):
    # row z holds the C(N, z) (q-1)^(N-z) points with exactly z zero
    # coordinates; at q = 7 the first coordinate is outer, the rest inner
    K4 = family("complete", 4)
    hist = rank_histogram(p_matrix(K4), make_field(q), sorted(K4.labels))
    N = K4.edge_count
    assert [sum(row) for row in hist] == [math.comb(N, z) * (q - 1) ** (N - z) for z in range(N + 1)]
    assert hist[N] == [1, 0, 0, 0]  # the zero matrix
    assert all(type(c) is int for row in hist for c in row)


def test_sing_count_mod_q(corpus, fields):
    for name, G in corpus.items():
        if not is_connected(G) or G.h < 2 or G.edge_count > 6:
            continue
        for q in (2, 3):
            rep = sing_count(G, fields[q])
            assert rep.raw % q == 0, (name, q)


def test_count_reduced_budget_does_not_depend_on_earlier_calls(eliminate):
    W4, F3 = family("wheel", 4), make_field(3)
    count_reduced(psi(W4), F3, 8)
    with pytest.raises(BudgetExceeded):
        count_reduced(psi(W4), F3, 8, budget=10)



def test_system_walk_stops_once_no_point_is_left(monkeypatch):
    # x1^2 + x1 + 1 has no zero over F_2, so the first polynomial leaves no
    # point of the block and the other two are never evaluated
    calls = []
    mod = counting._mod
    monkeypatch.setattr(counting, "_mod", lambda x, p: calls.append(p) or mod(x, p))
    assert count_zeros([a(1) * a(1) + a(1) + 1, a(2), a(3)], make_field(2), 3).raw == 0
    assert len(calls) == 1


# -- one elimination per field ------------------------------------------------

MULTI_QS = (2, 3, 4, 5, 7, 8, 9)


def test_count_reduced_matches_brute_at_every_field(corpus):
    # every field whose lattice has at most 2 * 10^5 points
    for name, G in corpus.items():
        qs = [q for q in MULTI_QS if q**G.edge_count <= 2 * 10**5]
        if not is_connected(G) or not qs:
            continue
        n = G.edge_count
        for P in (psi(G), phi(G)):
            for F in map(make_field, qs):
                assert count_reduced(P, F, n) == count_zeros([P], F, n), (name, F.q)


@st.composite
def multilinear_st(draw):
    """(P, n): a multilinear polynomial in n <= 6 variables with a constant
    term allowed and coefficients in [-6, 6], so that some polynomials of
    the elimination vanish mod one characteristic and not mod another."""
    n = draw(st.integers(1, 6))
    mono = st.lists(st.integers(1, n), max_size=min(4, n), unique=True)
    monos = draw(st.lists(mono, min_size=1, max_size=10))
    coeffs = draw(st.lists(st.integers(-6, 6), min_size=len(monos), max_size=len(monos)))
    return MLPoly({tuple(sorted(m)): c for m, c in zip(monos, coeffs)}), n


@given(multilinear_st())
@settings(max_examples=80, deadline=None)
@seed(20142)
def test_count_reduced_matches_brute_on_random_polys_at_every_field(system):
    # each field's count is the brute count, and its budget is exactly the
    # points that its fallbacks enumerate
    P, n = system
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_ENUMERATE_POINTS", 0)  # see ``eliminate``
        for F in map(make_field, (2, 3, 4, 5, 7)):
            spent = [0]
            raw = counting._count_system([P], F, n, 10**9, spent)
            rep = count_reduced(P, F, n, budget=spent[0])
            assert rep == count_zeros([P], F, n) and rep.raw == raw, F.q
            if spent[0]:
                with pytest.raises(BudgetExceeded):
                    count_reduced(P, F, n, budget=spent[0] - 1)


def test_each_field_keeps_the_polynomials_that_survive_mod_p():
    qs = (2, 3, 4, 5, 9)
    const = MLPoly.constant

    def raws(polys, n_vars=2):
        out, spent = [], []
        for q in qs:
            alone = [0]
            out.append(counting._count_system(polys, make_field(q), n_vars, 10**6, alone))
            spent += alone
        return out, spent

    # 2 and 3 leave no zeros over any field, though their product 6 vanishes
    # mod 2 and mod 3; 6 alone constrains nothing over F_2, F_3, F_4 and F_9
    assert raws([const(2), const(3), a(1)])[0] == [0, 0, 0, 0, 0]
    assert raws([const(6), a(1)])[0] == [2, 3, 4, 0, 9]
    assert raws([const(2), a(1) * a(2) - 1])[0] == [1, 0, 3, 0, 0]
    # five polynomials fall back to enumeration, but only where they survive
    assert raws([2 * a(i) for i in range(1, 6)], 5) == ([32, 1, 1024, 1, 1], [0, 3**5, 0, 5**5, 9**5])


def test_count_reduced_budget_bounds_each_fields_fallback_points(eliminate):
    # psi(wheel:4)'s fallbacks enumerate 280 points at q = 2 and 2097 at q = 3
    P, F2, F3 = psi(family("wheel", 4)), make_field(2), make_field(3)
    assert count_reduced(P, F2, 8, budget=280) == count_zeros([P], F2, 8)
    with pytest.raises(BudgetExceeded):
        count_reduced(P, F2, 8, budget=279)
    with pytest.raises(BudgetExceeded):
        count_reduced(P, F3, 8, budget=1000)
    assert count_reduced(P, F3, 8, budget=2097).raw == 2529
    with pytest.raises(BudgetExceeded):
        count_reduced(P, F3, 8, budget=2096)


def test_count_reduced_enumerates_a_small_lattice_whole():
    # at the default _ENUMERATE_POINTS psi(wheel:4) is enumerated at once,
    # so its fallbacks enumerate its whole lattice: 2^8 and 3^8 points
    P, F2, F3 = psi(family("wheel", 4)), make_field(2), make_field(3)
    assert count_reduced(P, F2, 8, budget=256) == count_zeros([P], F2, 8)
    with pytest.raises(BudgetExceeded):
        count_reduced(P, F2, 8, budget=255)
    assert count_reduced(P, F3, 8, budget=6561).raw == 2529
    with pytest.raises(BudgetExceeded):
        count_reduced(P, F3, 8, budget=6560)


def test_fields_on_both_sides_of_the_enumeration_size(monkeypatch):
    # with _ENUMERATE_POINTS = 3^8, psi(wheel:4) in 8 variables is enumerated
    # at once over F_2 and F_3 (3^8 is not above the bound) and split over F_4
    monkeypatch.setattr(counting, "_ENUMERATE_POINTS", 3**8)
    P = psi(family("wheel", 4))
    spent = []
    for F in map(make_field, (2, 3, 4)):
        alone = [0]
        assert counting._count_system([P], F, 8, 10**9, alone) == count_zeros([P], F, 8).raw, F.q
        spent += alone
    assert spent[:2] == [2**8, 3**8] and spent[2] < 4**8


# -- the cone walk -------------------------------------------------------------


def spy_walks(mp):
    """Record (F, m, keyword arguments) of every later ``_walk`` call."""
    walk = counting._walk
    calls = []

    def spy(tally, F, m, **kwargs):
        calls.append((F, m, kwargs))
        return walk(tally, F, m, **kwargs)

    mp.setattr(counting, "_walk", spy)
    return calls


def cone_and_plain(count):
    """count() on its own route, which must be the cone walk, and again with
    every walk forced onto the plain enumeration (cone=False).  A walk of a
    single block has no outer assignments, so both routes are the same
    enumeration there, and count() is rerun only when some walk has more."""
    walk = counting._walk
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_walks(mp)
        cone = count()
    assert all(kw.get("cone") for _, _, kw in calls)
    if all((F.q - kw.get("torus", False)) ** m <= counting._BLOCK_TARGET for F, m, kw in calls):
        return cone, cone
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_walk", lambda *args, **kw: walk(*args, **{**kw, "cone": False}))
        plain = count()
    return cone, plain


def routes(calls):
    return [kw.get("cone", False) for _, _, kw in calls]


def homogeneous_systems(G):
    """(name, polynomials, ambient) of the homogeneous counts c2lab makes of G."""
    N = G.edge_count
    f = phi(G)
    out = [
        ("psi", [psi(G)], N),
        ("phi", [f], N),
        ("jacobian", [f] + [f.coeff_and_rest(k)[0] for k in sorted(G.labels)], N),
    ]
    tri = _find_triangle(G)
    if G.h >= 3 and tri is not None:
        t1, t2, t3 = tri
        pair = [phi_dodgson_pair(G, {t1}, {t2}, {t3}), phi_dodgson_pair(G, {t1, t3}, {t2, t3})]
        out.append(("p4", pair, N - 3))
    return out


def union_matrix(G):
    """L(t) of the quadric union: one weight per distinct nonempty incidence row."""
    rows = sorted(set(incidence(G)) - {()})
    labels = list(range(1, len(rows) + 1))
    return gram_matrix(rows, labels, G.n), labels


CONE_GRID = [
    (name, q)
    for q in (2, 3, 4, 5, 7, 8, 9)
    for name, G in named_graphs().items()
    if q**G.edge_count <= 2 * 10**6
]


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_cone_walk_matches_plain_walk_across_corpus(q, corpus):
    F = make_field(q)
    for name, G in corpus.items():
        if (name, q) not in CONE_GRID:
            continue
        for what, polys, n in homogeneous_systems(G):
            for count in (count_zeros, count_zeros_torus):
                cone, plain = cone_and_plain(lambda: count(polys, F, n, budget=q**n).raw)
                assert cone == plain, (name, what, count.__name__)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_cone_rank_histograms_match_plain_walk_across_corpus(q, corpus):
    F = make_field(q)
    for name, G in corpus.items():
        if (name, q) not in CONE_GRID or G.n < 1:
            continue
        matrices = [(p_matrix(G), sorted(G.labels))]
        if len(union_matrix(G)[1]) < G.edge_count:  # parallel edges or self-loops
            matrices.append(union_matrix(G))
        for M, labels in matrices:
            cone, plain = cone_and_plain(lambda: rank_histogram(M, F, labels))
            assert cone == plain, name


def test_cone_walk_reaches_several_outer_coordinates():
    # wheel:4 at q = 7: blocks of 7^5, so 7^3 outer assignments, 57 of them lines
    W4, F7 = family("wheel", 4), make_field(7)
    for count in (count_zeros, count_zeros_torus):
        cone, plain = cone_and_plain(lambda: count([psi(W4)], F7, 8).raw)
        assert cone == plain


@st.composite
def homogeneous_systems_st(draw):
    """(q, polynomials, n): up to two homogeneous systems in n variables,
    with q^n <= 2 * 10^6 and n <= 8, so q >= 5 can reach several blocks."""
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9)))
    n = draw(st.integers(1, max(k for k in range(1, 9) if q**k <= 2 * 10**6)))
    polys = []
    for _ in range(draw(st.integers(1, 2))):
        deg = draw(st.integers(1, n))
        mono = st.sets(st.integers(1, n), min_size=deg, max_size=deg)
        monos = draw(st.lists(mono, min_size=1, max_size=5))
        coeffs = draw(st.lists(st.integers(-4, 4), min_size=len(monos), max_size=len(monos)))
        polys.append(MLPoly({tuple(sorted(m)): c for m, c in zip(monos, coeffs)}))
    return q, polys, n


@given(homogeneous_systems_st(), st.booleans())
@settings(max_examples=60, deadline=None)
@seed(20131)
def test_cone_walk_matches_plain_walk_on_random_homogeneous_systems(system, torus):
    q, polys, n = system
    count = count_zeros_torus if torus else count_zeros
    F = make_field(q)
    cone, plain = cone_and_plain(lambda: count(polys, F, n).raw)
    assert cone == plain


def test_cone_route_needs_homogeneous_systems(monkeypatch):
    calls = spy_walks(monkeypatch)
    count_zeros([a(1) * a(2) + a(3)], make_field(5), 3)
    assert routes(calls) == [False]
    # 3 a3 vanishes mod 3, so x1 x2 + 3 x3 is homogeneous over F_3 only
    count_zeros([a(1) * a(2) + 3 * a(3)], make_field(3), 3)
    count_zeros([a(1) * a(2) + 3 * a(3)], make_field(5), 3)
    assert routes(calls) == [False, True, False]


def plain_zeros(polys, q, n, torus=False):
    """(zeros of each polynomial, common zeros) in F_q^n for a prime q (on
    the torus, with ``torus``), by a Python loop over the points."""
    each, common = [0] * len(polys), 0
    for x in itertools.product(range(1 if torus else 0, q), repeat=n):
        zero = [
            sum(c * math.prod(x[v - 1] for v in mono) for mono, c in P.terms()) % q == 0
            for P in polys
        ]
        each = [k + z for k, z in zip(each, zero)]
        common += all(zero)
    return each, common


@pytest.mark.parametrize("torus", (False, True))
def test_non_homogeneous_system_with_outer_coordinates_matches_a_plain_loop(monkeypatch, torus):
    # two seeded polynomials of degrees 0..3 in 7 variables at q = 5, in
    # blocks of at most 5^5 points: the affine walk (5^7 = 78,125 points)
    # and the torus walk (4^7) each have two outer coordinates, so a cone
    # walk, one outer assignment per line, would miscount them
    monkeypatch.setattr(counting, "_BLOCK_TARGET", 5**5)
    rng = random.Random(26)
    polys = []
    for linear in (range(1, 8), ()):
        monos = {(): rng.randint(1, 4), **{(v,): rng.randint(1, 4) for v in linear}}
        for d in (2, 2, 3, 3):
            monos[tuple(sorted(rng.sample(range(1, 8), d)))] = rng.randint(1, 4)
        polys.append(MLPoly(monos))
    F = make_field(5)
    each, common = plain_zeros(polys, 5, 7, torus)
    calls = spy_walks(monkeypatch)
    count = count_zeros_torus if torus else count_zeros
    assert count(polys, F, 7).raw == common
    assert [rep.raw for rep in count_zeros_each(polys, F, 7, torus=torus)] == each
    if not torus:
        assert count_reduced(polys[0], F, 7).raw == each[0]
    assert routes(calls) == [False] * len(calls)
    assert all(m == 7 and counting._block(F, m, torus)[1] == 5 for _, m, _ in calls)


def test_cone_route_of_rank_histogram_needs_one_entry_degree(monkeypatch):
    calls = spy_walks(monkeypatch)
    F5 = make_field(5)
    rank_histogram(PolyMatrix(((a(1), MLPoly.constant(1)), (MLPoly.constant(1), a(2)))), F5, [1, 2])
    rank_histogram(p_matrix(family("complete", 4)), F5, list(range(1, 7)))
    assert routes(calls) == [False, True]


# -- one polynomial with its last variable eliminated -----------------------------
#
# The reference is the plain walk: the whole polynomial compiled and walked
# over all of its coordinates, as every count was before the elimination.

def plain_walk_count(polys, F, n, torus=False):
    fixed, walked, used, cone = counting._prepare(polys, F, n, torus)
    if 0 in fixed.values():
        return 0
    compiled = counting._compile(walked, F, {v: i for i, v in enumerate(used)})
    raw = counting._walk_zeros(compiled, F, len(used), torus=torus, cone=cone)
    return raw * (F.q - 1 if torus else F.q) ** (n - len(used))


def spy_eliminations(mp):
    """Record the polynomial of every later ``_walk_eliminated`` call."""
    eliminated = counting._walk_eliminated
    calls = []

    def spy(P, *args, **kwargs):
        calls.append(P)
        return eliminated(P, *args, **kwargs)

    mp.setattr(counting, "_walk_eliminated", spy)
    return calls


@pytest.mark.parametrize("q", (3, 4, 5, 7, 8, 9))
def test_eliminated_count_matches_plain_walk_across_corpus(q, corpus, monkeypatch):
    F = make_field(q)
    calls = spy_eliminations(monkeypatch)
    for name, G in corpus.items():
        N = G.edge_count
        if (name, q) not in CONE_GRID:
            continue
        for P in (psi(G), phi(G)):
            for torus, count in ((False, count_zeros), (True, count_zeros_torus)):
                del calls[:]
                assert count([P], F, N).raw == plain_walk_count([P], F, N, torus), (name, torus)
                assert calls == ([P] if len(P.variables()) >= 2 else []), name


@st.composite
def linear_in_last_st(draw):
    """(q, P, n): P = g a_n + h in n variables, q^n <= 2 * 10^5, with g and h
    in a_1..a_{n-1}, each squared or cubed at will; g is a nonzero
    constant, an ordinary polynomial or one whose coefficients are all
    multiples of p (so g = 0 mod p), and h may be 0 or of another degree
    than g a_n."""
    q = draw(st.sampled_from((3, 4, 5, 7, 8, 9)))
    p = next(d for d in range(2, q + 1) if q % d == 0)
    n = draw(st.integers(2, max(k for k in range(2, 18) if q**k <= 2 * 10**5)))
    mono = st.lists(st.integers(1, n - 1), min_size=0, max_size=3)

    def poly(scale, min_size):
        monos = draw(st.lists(mono, min_size=min_size, max_size=4))
        coeffs = draw(st.lists(st.integers(1, 30), min_size=len(monos), max_size=len(monos)))
        return MLPoly({tuple(sorted(m)): scale * c for m, c in zip(monos, coeffs)})

    kind = draw(st.sampled_from(("constant", "ordinary", "ordinary", "vanishing")))
    g = MLPoly.constant(draw(st.integers(1, 30))) if kind == "constant" else poly(
        p if kind == "vanishing" else 1, 1
    )
    return q, g * a(n) + poly(1, 0), n


@pytest.mark.parametrize("target", (1 << 16, 64))
@given(data=st.data(), torus=st.booleans())
@settings(max_examples=80, deadline=None)
@seed(20130)
def test_eliminated_count_matches_plain_walk_on_random_polynomials(target, data, torus):
    # with a 64-point block target the walks span several blocks, so the
    # cone of a homogeneous P and the plain walk of the others both have
    # outer assignments
    q, P, n = data.draw(linear_in_last_st())
    F = make_field(q)
    count = count_zeros_torus if torus else count_zeros
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_BLOCK_TARGET", target)
        calls = spy_eliminations(mp)
        assert count([P], F, n + 1).raw == plain_walk_count([P], F, n + 1, torus)
    assert calls == ([P] if len(P.variables()) >= 2 else [])


def test_eliminated_count_of_small_cases():
    F3, F4, F9 = make_field(3), make_field(4), make_field(9)
    # m = 2: a1 a2 - 1 has q - 1 zeros, all on the torus
    assert count_zeros([a(1) * a(2) - 1], F3, 2).raw == 2
    assert count_zeros_torus([a(1) * a(2) - 1], F9, 2).raw == 8
    # g = 3 a1 vanishes mod 3, so a1^2 + 3 a1 a2 + 1 is a1^2 + 1: no root in F_3
    assert count_zeros([a(1) ** 2 + 3 * a(1) * a(2) + 1], F3, 2).raw == 0
    # over F_4, a1^2 + a1 + 1 = 0 has 2 roots, each with every a2
    assert count_zeros([a(1) ** 2 + a(1) + 1 + 2 * a(1) * a(2)], F4, 2).raw == 8
    for P, F in (
        (a(1) * a(2) - 1, F3),
        (a(1) ** 2 + 3 * a(1) * a(2) + 1, F3),
        (a(1) ** 2 * a(3) + a(2) ** 3 + a(1), F9),
    ):
        for torus in (False, True):
            count = count_zeros_torus if torus else count_zeros
            assert count([P], F, 4).raw == plain_walk_count([P], F, 4, torus), P


def test_elimination_route_needs_one_polynomial_linear_in_its_last_variable(monkeypatch):
    calls, walks = spy_eliminations(monkeypatch), spy_walks(monkeypatch)
    F2, F3 = make_field(2), make_field(3)
    P = psi(family("wheel", 3))
    count_zeros([P], F3, 6)
    count_zeros_torus([P], F3, 6)
    assert calls == [P, P] and [m for _, m, _ in walks] == [5, 5]
    del calls[:], walks[:]
    count_zeros([P], F2, 6)  # q = 2
    count_zeros([P, phi(family("wheel", 3))], F3, 6)  # two polynomials
    count_zeros([a(1) * a(2) ** 2 + a(1)], F3, 2)  # squared in its last variable
    # two polynomials left after _prepare sets the constant 3 aside
    count_zeros([a(1) + 3 * a(2), a(2) ** 2 - 1, MLPoly.constant(3)], F3, 2)
    count_zeros([a(4)], F3, 6)  # one coordinate
    count_zeros_each([P, P], F3, 6)
    count_zeros_each([P], F3, 6)
    assert calls == []
    assert [m for _, m, _ in walks] == [6, 6, 2, 2, 1, 6, 6]
    # constants mod p that _prepare sets aside leave one polynomial to eliminate
    count_zeros([a(1) * a(2) + 1, 3 * a(1), MLPoly.constant(3)], F3, 2)
    assert calls == [a(1) * a(2) + 1]


# -- the bilinear evaluator against the elementwise one it replaced -------------
#
# The oracle below is the block evaluator the matrix product replaced: one
# numpy pass over the block per factor of every monomial, in the field's
# array arithmetic, over every outer assignment (no cone).

def _inner_columns(values, b):
    L = len(values)
    return [np.tile(np.repeat(values, L ** (b - 1 - j)), L**j) for j in range(b)]


def _eval_block(monos, F, outer, cols, n_outer):
    acc = 0
    for coeff, pos in monos:
        scalar = coeff
        inner = []
        for t in pos:
            if t < n_outer:
                scalar = F.vmul(scalar, outer[t])
            else:
                inner.append(t - n_outer)
        if scalar == 0:
            continue
        if inner:
            term = F.vmul(cols[inner[0]], scalar)
            for t in inner[1:]:
                term = F.vmul(term, cols[t])
            acc = F.vadd(acc, term)
        else:
            acc = F.vadd(acc, scalar)
    return acc


def eval_block_monos(P, F, index):
    """P compiled for ``_eval_block``, variable v at coordinate index[v]."""
    return [(c % F.p, tuple(index[v] for v in mono)) for mono, c in P.terms() if c % F.p]


def eval_block_grid(F, n_vars, torus):
    """(values, b, columns of the inner block) of a walk of F_q^n_vars."""
    values = np.arange(1 if torus else 0, F.q)
    b = 0
    while b < n_vars and len(values) ** (b + 1) <= counting._BLOCK_TARGET:
        b += 1
    return values, b, _inner_columns(values, b)


def eval_block_zeros(polys, F, n_vars, *, torus=False, any_zero=False):
    """Points of F_q^n_vars (or the torus) where every polynomial vanishes
    (or, with ``any_zero``, one does); the variables take the first
    coordinates in sorted order."""
    index = {v: i for i, v in enumerate(sorted(set().union(*(P.variables() for P in polys))))}
    compiled = [eval_block_monos(P, F, index) for P in polys]
    values, b, cols = eval_block_grid(F, n_vars, torus)
    total = 0
    for outer in itertools.product([int(v) for v in values], repeat=n_vars - b):
        mask = np.full(len(values) ** b, not any_zero)
        for monos in compiled:
            zero = _eval_block(monos, F, outer, cols, n_vars - b) == 0
            mask = mask | zero if any_zero else mask & zero
        total += int(mask.sum())
    return total


ORACLE_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13)
ORACLE_GRID = [
    (name, q)
    for q in ORACLE_QS
    for name, G in named_graphs().items()
    if q**G.edge_count <= 2 * 10**5
]


@pytest.mark.parametrize("q", ORACLE_QS)
def test_bilinear_evaluator_matches_eval_block_across_corpus(q, corpus):
    F = make_field(q)
    for name, G in corpus.items():
        if (name, q) not in ORACLE_GRID:
            continue
        for what, polys, n in homogeneous_systems(G):
            for torus, count in ((False, count_zeros), (True, count_zeros_torus)):
                expected = eval_block_zeros(polys, F, n, torus=torus)
                assert count(polys, F, n).raw == expected, (name, what, torus)


@pytest.mark.parametrize("q", (2, 3, 4))
def test_union_walk_matches_eval_block(q, corpus):
    F = make_field(q)
    for name, G in corpus.items():
        m = 4 * G.n
        if m == 0 or q**m > 6 * 10**5:
            continue
        polys = [_quadric_poly(row) for row in incidence(G)]
        expected = eval_block_zeros(polys, F, m, any_zero=True)
        assert quadric_union_count_walk(G, F).raw == expected, name


@pytest.mark.parametrize("q", ORACLE_QS)
@pytest.mark.parametrize("torus", (False, True))
def test_bilinear_values_match_eval_block(q, torus, monkeypatch):
    # whole blocks of values of every polynomial of a list, not only their
    # zero counts, at several outer assignments, under both associations of
    # the stacked product.  Three walks: one with outer coordinates, rows and
    # columns; one block holding the whole list; and, with a block target of
    # twice the block's points, lists of several slices of two polynomials.
    # The slices cover the list in order, each of max(1, target // (R B)).
    F, rng = make_field(q), random.Random(q)
    L = q - torus
    big = next(k for k in range(1, 30) if L**k > 1 << 16 or k == 18) + 1
    seen = set()
    for target, m in ((1 << 16, big), (1 << 16, 3), (16 if L <= 2 else 2 * L**2, 3)):
        monkeypatch.setattr(counting, "_BLOCK_TARGET", target)
        index = {v: v - 1 for v in range(1, m + 1)}
        values, b, cols = eval_block_grid(F, m, torus)
        for size in (1, 2, 3, 4, 6):
            polys = []
            for _ in range(size):
                monos = {}
                for _ in range(rng.randint(1, 8)):
                    mono = tuple(sorted(rng.choices(range(1, m + 1), k=rng.randint(0, 2 * q))))
                    monos[mono] = rng.randint(-40, 40)
                polys.append(MLPoly(monos))
            ev = counting._Bilinear(counting._compile(polys, F, index), F, m, torus)
            per = max(1, target // (ev.R * ev.M.shape[1]))
            assert [len(r) for r in ev.slices] == [min(per, size - a) for a in range(0, size, per)]
            assert [i for r in ev.slices for i in r] == list(range(size))
            seen.add((len(ev.slices) > 1, len(ev.slices[0]) > 1))
            monos = [eval_block_monos(P, F, index) for P in polys]
            for _ in range(3):
                outer = tuple(int(rng.choice(values)) for _ in range(m - b))
                expected = [_eval_block(mm, F, outer, cols, m - b) for mm in monos]
                for right_first in (False, True):  # both associations of the product
                    ev.right_first = right_first
                    got = list(ev(outer))
                    assert [len(vals) for vals in got] == [len(r) for r in ev.slices]
                    for k, (vals, want) in enumerate(zip(np.concatenate(got), expected)):
                        assert (vals == want).all(), (polys[k], outer, right_first)
    # one slice of the whole list; unless every coordinate takes one value,
    # also several slices of several polynomials
    assert (False, True) in seen
    assert L == 1 or (True, True) in seen


def test_exponents_wrap_at_q():
    # x^q = x on F_q, so exponents e >= 1 reduce to 1 + (e - 1) mod (q - 1)
    for q in ORACLE_QS:
        F = make_field(q)
        assert count_zeros([MLPoly({(1,) * q: 1, (1,): -1})], F, 1).raw == q
        assert count_zeros([MLPoly({(1,) * (q + 1): 1, (1, 1): -1})], F, 1).raw == q
        assert count_zeros([MLPoly({(1,) * (q - 1): 1, (): -1})], F, 1).raw == q - 1
        assert count_zeros([MLPoly({(1,) * (2 * q - 2): 1, (): -1})], F, 1).raw == q - 1


@st.composite
def general_systems_st(draw):
    """(q, polynomials, n): up to two systems in n <= 8 variables with
    constant terms, terms of mixed degree and repeated variables (exponents
    up to 2q), and q^n <= 6 * 10^5, so every q >= 5 can reach several
    blocks."""
    q = draw(st.sampled_from(ORACLE_QS))
    n = draw(st.integers(1, max(k for k in range(1, 9) if q**k <= 6 * 10**5)))
    polys = []
    for _ in range(draw(st.integers(1, 2))):
        mono = st.lists(st.integers(1, n), min_size=0, max_size=2 * q)
        monos = draw(st.lists(mono, min_size=1, max_size=6))
        coeffs = draw(st.lists(st.integers(-30, 30), min_size=len(monos), max_size=len(monos)))
        polys.append(MLPoly({tuple(sorted(m)): c for m, c in zip(monos, coeffs)}))
    return q, polys, n


@given(general_systems_st(), st.booleans())
@settings(max_examples=60, deadline=None)
@seed(20131)
def test_bilinear_evaluator_matches_eval_block_on_random_systems(system, torus):
    q, polys, n = system
    count = count_zeros_torus if torus else count_zeros
    F = make_field(q)
    assert count(polys, F, n).raw == eval_block_zeros(polys, F, n, torus=torus)


@st.composite
def polynomial_lists_st(draw, points):
    """(q, polynomials, n): a list of 1-6 polynomials in n variables, q^n <=
    ``points`` (the most such n half the time).  Each is a constant, or has
    terms of mixed degree with repeated variables (exponents up to 2q) in
    all n variables or in a range of its own, so lists mix disjoint and
    shared variables; some have every coefficient a multiple of p, so they
    vanish mod p."""
    q = draw(st.sampled_from(ORACLE_QS))
    p = next(d for d in range(2, q + 1) if q % d == 0)
    most = max(k for k in range(1, 18) if q**k <= points)
    n = draw(st.one_of(st.just(most), st.integers(1, most)))
    polys = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("all", "all", "range", "constant", "vanishing")))
        lo, hi = 1, n
        if kind == "range":
            lo = draw(st.integers(1, n))
            hi = draw(st.integers(lo, n))
        mono = st.lists(st.integers(lo, hi), min_size=1, max_size=2 * q)
        monos = [()] if kind == "constant" else draw(st.lists(mono, min_size=1, max_size=5))
        coeffs = draw(st.lists(st.integers(1, 30), min_size=len(monos), max_size=len(monos)))
        scale = p if kind == "vanishing" else 1
        polys.append(MLPoly({tuple(sorted(m)): scale * c for m, c in zip(monos, coeffs)}))
    return q, polys, n


@pytest.mark.parametrize("target, points", [(1 << 16, 2 * 10**5), (64, 5000)])
@given(data=st.data(), torus=st.booleans())
@settings(max_examples=60, deadline=None)
@seed(20131)
def test_count_zeros_each_matches_a_count_per_polynomial(target, points, data, torus):
    # with a 64-point block target, lists span several slices and walks
    # span several blocks
    q, polys, n = data.draw(polynomial_lists_st(points))
    F = make_field(q)
    count = count_zeros_torus if torus else count_zeros
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_BLOCK_TARGET", target)
        each = count_zeros_each(polys, F, n, torus=torus)
        assert each == [count([P], F, n) for P in polys]


def test_count_zeros_each_walks_a_homogeneous_list_once_as_a_cone(monkeypatch):
    G, F = family("wheel", 4), make_field(3)
    N, f = G.edge_count, phi(G)
    polys = [psi(G), f] + [f.coeff_and_rest(k)[0] for k in sorted(G.labels)]
    calls = spy_walks(monkeypatch)
    each = count_zeros_each(polys, F, N + 1)
    assert [(m, kw.get("cone")) for _, m, kw in calls] == [(N, True)]
    assert each == [count_zeros([P], F, N + 1) for P in polys]
    assert count_zeros_each([], F, 2) == []
    with pytest.raises(BudgetExceeded) as e:
        count_zeros_each(polys, F, N, budget=3**N - 1)
    assert str(e.value) == "enumerating q^n = 3^8 points exceeds the budget 6560"


def test_float64_products_agree(monkeypatch):
    # float32 is exact for no sum here, so every product runs in float64
    monkeypatch.setattr(counting, "_EXACT_DTYPES", ((np.float32, 0), (np.float64, 2**53)))
    dtypes = []
    gemm_dtype = counting._gemm_dtype
    monkeypatch.setattr(counting, "_gemm_dtype", lambda *a: dtypes.append(gemm_dtype(*a)) or dtypes[-1])
    for G, q in ((family("wheel", 4), 5), (family("complete", 4), 9)):
        F, N = make_field(q), G.edge_count
        for P in (psi(G), phi(G)):
            assert count_zeros([P], F, N).raw == eval_block_zeros([P], F, N)
    assert set(dtypes) == {np.float64}


def test_products_past_the_exact_range_raise(monkeypatch):
    assert counting._gemm_dtype(2**23 - 1) is np.float32
    assert counting._gemm_dtype(2**23) is np.float64
    with pytest.raises(PreconditionUnmet):
        counting._gemm_dtype(2**52)
    monkeypatch.setattr(counting, "_EXACT_DTYPES", ((np.float32, 1), (np.float64, 1)))
    with pytest.raises(PreconditionUnmet):
        count_zeros([psi(family("wheel", 4))], make_field(3), 8)


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_mod_is_exact_up_to_the_bound(dtype):
    limit = dict(counting._EXACT_DTYPES)[dtype]
    for p in (2, 3, 5, 7, 11, 13):
        x = np.concatenate([np.arange(5000), limit - 1 - np.arange(5000)]).astype(np.int64)
        x = np.concatenate([x, (x // p) * p, (x // p) * p - 1])
        x = x[(x >= 0) & (x < limit)]
        assert (counting._mod(x.astype(dtype), p).astype(np.int64) == x % p).all()
