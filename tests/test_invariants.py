import itertools
import math

import pytest

from c2lab import graphs, invariants, multipoly
from c2lab.corpus import named_graphs, nonplanar_log_divergent
from c2lab.counting import CountReport, count_zeros, count_zeros_each, count_zeros_torus
from c2lab.errors import BudgetExceeded, NotATriangle, PreconditionUnmet, SelfLoopContraction
from c2lab.fields import make_field
from c2lab.graphs import (
    Graph,
    canonical_form,
    census,
    contract,
    delete,
    family,
    girth_at_most,
    is_connected,
    is_forest_in,
    is_isomorphic,
    subquotient,
)
from c2lab.invariants import (
    FIELD_FREE_THEOREMS,
    THEOREM_IDS,
    AdmissibilityReport,
    admissible_at_q,
    admissible_structural,
    c2_dual,
    c2_dual_triangle,
    c2_param,
    c2_pos,
    c2_verdict,
    lem36_closed_forms,
    s_t_sums,
    verify,
)
from c2lab.multipoly import phi, phi_two_index, psi, psi_two_index
from c2lab.planar import is_planar


def test_c2_dual_banana3():
    for q in (2, 3, 5):
        assert c2_dual(family("banana", 3), make_field(q)) == 1


def test_c2_param_needs_n2():
    with pytest.raises(PreconditionUnmet):
        c2_param(family("banana", 3), make_field(2))


def test_c2_dual_needs_h2():
    with pytest.raises(PreconditionUnmet):
        c2_dual(family("cycle", 3), make_field(2))


def test_k4_equalities():
    K4 = family("complete", 4)
    for q in (2, 3):
        F = make_field(q)
        p, d, s = c2_param(K4, F), c2_dual(K4, F), c2_pos(K4, F)
        assert p == d == s
        # wheels have c2 = -1
        assert p == (-1) % q


def test_two_cycle_makes_c2_dual_zero():
    # h >= 3 and a doubled edge force c2_dual = 0
    for q in (2, 3):
        assert c2_dual(family("Gn", 3), make_field(q)) == 0
        assert c2_dual(family("banana", 4), make_field(q)) == 0


def test_c2_param_equals_dual_on_gn():
    for n, q in ((3, 2), (3, 3), (4, 2)):
        G = family("Gn", n)
        F = make_field(q)
        assert c2_param(G, F) == c2_dual(G, F) == 0


def test_triangle_shortcut_k4_w4():
    K4 = family("complete", 4)
    for q in (2, 3):
        F = make_field(q)
        assert c2_dual_triangle(K4, (1, 2, 4), F) == c2_dual(K4, F)
    W4 = family("wheel", 4)
    F2 = make_field(2)
    # face triangle of WS_4: rim edge (1,2) with spokes (1,5),(2,5)
    assert c2_dual_triangle(W4, (1, 5, 6), F2) == c2_dual(W4, F2)


def test_triangle_validation():
    K4 = family("complete", 4)
    with pytest.raises(NotATriangle):
        c2_dual_triangle(K4, (1, 2, 3), make_field(2))  # a star, not a triangle
    with pytest.raises(PreconditionUnmet):
        c2_dual_triangle(family("cycle", 3), (1, 2, 3), make_field(2))  # h < 3


def test_c2_pos_sub_log_divergent_vanishes():
    for name in ("square", "pentagon"):
        G = family("cycle", 4) if name == "square" else family("cycle", 5)
        for q in (2,):
            assert c2_pos(G, make_field(q)) == 0


def test_c2_pos_preconditions():
    with pytest.raises(PreconditionUnmet):
        c2_pos(family("banana", 3), make_field(2))  # N > 2n


def test_c2_pos_full_quotient_consistent():
    K4 = family("complete", 4)
    for q in (2, 3):
        F = make_field(q)
        v = c2_verdict(K4, F, ("pos",))
        assert v.c2_pos_quotient_mod_q3 % q == v.c2_pos == c2_pos(K4, F)


def test_admissible_structural_planar_shortcut():
    for G in (family("complete", 4), family("wheel", 4), family("wheel", 5)):
        rep = admissible_structural(G)
        assert rep.admissible and rep.planar_shortcut


def test_admissible_structural_guards():
    with pytest.raises(PreconditionUnmet):
        admissible_structural(family("banana", 4))  # n = 1
    with pytest.raises(PreconditionUnmet):
        admissible_structural(family("cycle", 6))  # not log-divergent


def test_admissible_structural_nonplanar_recorded():
    # non-planar, log-divergent: run and record; not asserted either way.
    # The budget admits exactly the scan's pairs, and one fewer refuses it.
    G = nonplanar_log_divergent()
    assert G.is_log_divergent() and G.h >= 3 and G.n >= 3
    N = G.edge_count
    pairs = sum(math.comb(N, si) * math.comb(N - si, sj) for si in range(N + 1)
                for sj in range(si + 1, N - si + 1))
    with pytest.raises(BudgetExceeded):
        admissible_structural(G, budget=pairs - 1)
    rep = admissible_structural(G, budget=pairs)
    assert rep.mode == "structural"
    assert isinstance(rep.admissible, bool)
    assert rep.examined > 0
    if rep.admissible:
        assert rep.examined + rep.skipped_degenerate == pairs
    else:
        assert rep.failure is not None


def test_at_q_and_s_t_budgets_bound_pair_counts():
    # wheel:4 has 1,215 at-q pairs and 420 S_t pairs at t = 2; both scans
    # refuse one pair less before their first pair, like the structural scan
    W4, F2 = family("wheel", 4), make_field(2)
    with pytest.raises(BudgetExceeded, match="the at-q scan of 1215 pairs"):
        admissible_at_q(W4, [F2], budget=1214)
    assert admissible_at_q(W4, [F2], budget=1215)[0].admissible
    with pytest.raises(BudgetExceeded, match="the S_t sums of 420 pairs"):
        s_t_sums(W4, 2, F2, budget=419)
    s_psi, s_phi = s_t_sums(W4, 2, F2, budget=420)
    assert s_psi == s_phi


@pytest.mark.parametrize("budget", [1215, 2186, 2187])
def test_at_q_budget_bounds_the_largest_class_count(budget):
    # wheel:4's scan has 1,215 pairs, and its first class (the largest, N' = 7)
    # is counted over 3^7 = 2,187 points: a budget that admits the scan but
    # not that count refuses it, whichever class fails later
    W4, F3 = family("wheel", 4), make_field(3)
    if budget < 3**7:
        with pytest.raises(BudgetExceeded) as e:
            admissible_at_q(W4, [F3], budget=budget)
        assert str(e.value) == f"enumerating q^n = 3^7 points exceeds the budget {budget}"
    else:
        assert admissible_at_q(W4, [F3], budget=budget)[0].admissible


def test_census_and_structural_budget_messages():
    with pytest.raises(BudgetExceeded) as e:
        census(family("wheel", 6), 2, 0, budget=10)
    assert str(e.value) == "the census of 13860 pairs exceeds the budget 10"
    with pytest.raises(BudgetExceeded) as e:
        admissible_structural(nonplanar_log_divergent(), budget=10)
    assert str(e.value) == "the structural scan of 25048 pairs exceeds the budget 10"


def test_admissible_at_q_planar_graphs():
    F2 = make_field(2)
    for G in (family("complete", 4), family("Gn", 3)):
        rep = admissible_at_q(G, [F2])[0]
        assert rep.admissible, rep.to_json()
        assert rep.examined > 0


def test_admissible_at_q_guard():
    with pytest.raises(PreconditionUnmet):
        admissible_at_q(family("banana", 4), [make_field(2)])


def _at_q_pairs(G, max_deleted=None):
    """Every disjoint (I, J) of the at-q scan, in its order: |J| > |I|,
    |I| <= n_G - 3, by |I| + |J|, then |I|, then lexicographically.  With
    ``max_deleted`` = N_G, the pairs of the structural scan."""
    labels = sorted(G.labels)
    N = len(labels)
    max_deleted = G.n - 3 if max_deleted is None else max_deleted
    sizes = sorted(
        ((si, sj) for si in range(max_deleted + 1) for sj in range(si + 1, N - si + 1)),
        key=lambda p: (p[0] + p[1], p),
    )
    for si, sj in sizes:
        for I in itertools.combinations(labels, si):
            rest = [l for l in labels if l not in I]
            for J in itertools.combinations(rest, sj):
                yield I, J


def _dodgson_scan(G, F):
    """The at-q scan by the Dodgson route with one count per pair: the
    reference that the scan over subquotient classes must reproduce."""
    q = F.q
    examined = skipped = 0
    for I, J in _at_q_pairs(G):
        P = phi_two_index(G, J, I)
        if P.is_zero:
            skipped += 1
            continue
        examined += 1
        raw = count_zeros([P], F, G.edge_count - len(I) - len(J)).raw
        if raw % q**3 != 0:
            return AdmissibilityReport(
                False, "at-q", q=q, examined=examined, skipped_degenerate=skipped,
                failure=(frozenset(I), frozenset(J)),
                failure_detail=f"[phi^J_I] = {raw} is not divisible by q^3",
            )
    return AdmissibilityReport(True, "at-q", q=q, examined=examined, skipped_degenerate=skipped)


@pytest.mark.parametrize("name", ["wheel:4", "Gn:4", "complete:4", "Gn:3"])
def test_phi_two_index_is_phi_of_subquotient(name):
    # the Dodgson route stays an independent oracle for the at-q scan's
    # polynomials, and zero exactly on the pairs the scan skips
    fam, n = name.split(":")
    G = family(fam, int(n))
    for I, J in _at_q_pairs(G):
        GI = delete(G, I)
        P = phi_two_index(G, J, I)
        if is_connected(GI) and is_forest_in(GI, J):
            assert P == phi(subquotient(G, I, J)), (I, J)
        else:
            assert P.is_zero, (I, J)


_W4_RELABELLED = Graph(
    ((2, 5), (1, 3), (4, 5), (3, 2), (1, 5), (4, 1), (3, 5), (2, 4)), 5,
    (9, 3, 12, 1, 7, 5, 2, 11),
)


@pytest.mark.parametrize(
    "G, q",
    [
        (family("wheel", 4), 2),
        (family("wheel", 4), 3),
        (family("Gn", 4), 2),
        (family("Gn", 4), 3),
        (_W4_RELABELLED, 3),
    ],
    ids=["wheel:4-q2", "wheel:4-q3", "Gn:4-q2", "Gn:4-q3", "wheel:4-relabelled-q3"],
)
def test_admissible_at_q_matches_dodgson_scan(G, q):
    F = make_field(q)
    assert admissible_at_q(G, [F])[0].to_json() == _dodgson_scan(G, F).to_json()


def _scan_classes(G):
    """The pairs the at-q scan examines, in order, with their subquotient's class."""
    return [
        (I, J, canonical_form(subquotient(G, I, J)))
        for I, J in _at_q_pairs(G)
        if not phi_two_index(G, J, I).is_zero
    ]


def _counting(monkeypatch, fail_call=None, field=None):
    """Patch the scan's batched count to record (q, ambient dimension) of
    each polynomial it counts, in order; count number ``fail_call`` (over
    ``field``'s q only, if given) reports a count that q^3 does not divide."""
    calls = []

    def count(polys, F, n_vars, **kw):
        reports = count_zeros_each(polys, F, n_vars, **kw)
        for i, rep in enumerate(reports):
            calls.append((F.q, n_vars))
            if len(calls) == fail_call and field in (None, F.q):
                reports[i] = CountReport.from_raw(1, F.q, n_vars)
        return reports

    monkeypatch.setattr(invariants, "count_zeros_each", count)
    return calls


def _classes_through_run(G, examined, classes, k):
    """The classes counted up to the end of the batch holding class k: the
    batches are the runs of classes of one edge count (``_at_q_report``)."""
    size = {key: G.edge_count - len(I) - len(J) for I, J, key in examined}
    return sum(size[key] >= size[classes[k]] for key in classes)


def test_admissible_at_q_reports_first_pair_of_failing_class(monkeypatch):
    G, F = family("wheel", 4), make_field(2)
    examined = _scan_classes(G)
    classes = list(dict.fromkeys(key for _, _, key in examined))
    k = len(classes) // 2  # classes are counted in order of first appearance
    first = next(i for i, (_, _, key) in enumerate(examined) if key == classes[k])
    I, J, _ = examined[first]
    _counting(monkeypatch, fail_call=k + 1)
    rep = admissible_at_q(G, [F])[0]
    assert not rep.admissible
    assert rep.failure == (frozenset(I), frozenset(J))
    assert rep.examined == first + 1
    pairs = list(_at_q_pairs(G))
    assert rep.skipped_degenerate == pairs.index((I, J)) + 1 - rep.examined


def test_admissible_at_q_counts_each_class_once_per_scan(monkeypatch):
    G, F = family("wheel", 4), make_field(2)
    classes = {key for _, _, key in _scan_classes(G)}
    calls = _counting(monkeypatch)
    assert admissible_at_q(G, [F])[0].admissible
    assert len(calls) == len(classes)
    assert admissible_at_q(G, [F])[0].admissible
    assert len(calls) == 2 * len(classes)


def test_admissible_at_q_classifies_each_key_once_per_call(monkeypatch):
    # the key memo lasts one call: canonical_form runs once per distinct
    # label-free subquotient, and again in full on the next call
    G, F = family("wheel", 4), make_field(2)
    keys = set()
    for I, J in _at_q_pairs(G):
        GI = delete(G, I)
        if is_connected(GI) and is_forest_in(GI, J):
            gamma = contract(GI, J)
            keys.add((gamma.vertex_count, tuple(sorted(gamma.edges))))
    calls = []

    def form(gamma):
        calls.append(gamma)
        return canonical_form(gamma)

    monkeypatch.setattr(invariants, "canonical_form", form)
    assert admissible_at_q(G, [F])[0].admissible
    assert len(calls) == len(keys) < len(list(_at_q_pairs(G)))
    assert {(g.vertex_count, g.edges) for g in calls} == keys
    assert admissible_at_q(G, [F])[0].admissible
    assert len(calls) == 2 * len(keys)


@pytest.mark.parametrize(
    "G",
    [family("wheel", 4), family("Gn", 4), _W4_RELABELLED],
    ids=["wheel:4", "Gn:4", "wheel:4-relabelled"],
)
def test_admissible_at_q_reports_each_field_as_a_call_of_its_own(G):
    F2, F3 = make_field(2), make_field(3)
    both = admissible_at_q(G, [F2, F3])
    alone = admissible_at_q(G, [F2]) + admissible_at_q(G, [F3])
    assert [r.to_json() for r in both] == [r.to_json() for r in alone]


def test_admissible_at_q_classifies_once_and_counts_per_field(monkeypatch):
    # one scan for both fields: canonical_form once per label-free key,
    # count_zeros once per class for each field
    G = family("wheel", 4)
    keys = {
        (g.vertex_count, tuple(sorted(g.edges)))
        for g in (subquotient(G, I, J) for I, J, _ in _scan_classes(G))
    }
    classes = {key for _, _, key in _scan_classes(G)}
    forms = []

    def form(gamma):
        forms.append(gamma)
        return canonical_form(gamma)

    monkeypatch.setattr(invariants, "canonical_form", form)
    calls = _counting(monkeypatch)
    assert all(r.admissible for r in admissible_at_q(G, [make_field(2), make_field(3)]))
    assert len(forms) == len(keys)
    assert len(calls) == 2 * len(classes)


def test_admissible_at_q_failing_field_keeps_the_next_report(monkeypatch):
    G, F2, F3 = family("wheel", 4), make_field(2), make_field(3)
    reference = admissible_at_q(G, [F3])[0].to_json()
    examined = _scan_classes(G)
    classes = list(dict.fromkeys(key for _, _, key in examined))
    k = len(classes) // 2
    first = next(i for i, (_, _, key) in enumerate(examined) if key == classes[k])
    calls = _counting(monkeypatch, fail_call=k + 1, field=2)
    failed, passed = admissible_at_q(G, [F2, F3])
    assert not failed.admissible and failed.examined == first + 1
    assert passed.to_json() == reference
    # F_2 stops after the batch of the failing class; F_3 counts every class
    counted = _classes_through_run(G, examined, classes, k)
    assert k + 1 <= counted < len(classes)
    assert [q for q, _ in calls] == [2] * counted + [3] * len(classes)


def _structural_per_pair(G, planar=is_planar, girth=girth_at_most):
    """The structural scan with one contraction and one check per pair:
    the reference that the scan over label-free keys must reproduce."""
    if planar(G):
        return AdmissibilityReport(
            True, "structural", planar_shortcut=True, condition_counts={"planar(G)": 1}
        )
    counts = {}
    examined = skipped = 0
    for I, J in _at_q_pairs(G, G.edge_count):
        GI = delete(G, I)
        try:
            gamma = contract(GI, J)
        except SelfLoopContraction:
            skipped += 1
            continue
        examined += 1
        if not is_connected(GI):
            cond = "disconnected"
        elif girth(gamma, 3):
            cond = "short-cycle"
        elif planar(gamma):
            cond = "planar"
        else:
            return AdmissibilityReport(
                False, "structural", examined=examined, skipped_degenerate=skipped,
                condition_counts=counts, failure=(frozenset(I), frozenset(J)),
                failure_detail="subquotient is connected, non-planar, "
                "and has no cycle of length <= 3",
            )
        counts[cond] = counts.get(cond, 0) + 1
    return AdmissibilityReport(
        True, "structural", examined=examined, skipped_degenerate=skipped,
        condition_counts=counts,
    )


def _no_short_cycle(gamma, k):
    # With |I| < |J| a connected subquotient of a graph this small always
    # has a cycle of length <= 3, so only with this in place of
    # girth_at_most does a scan reach its planarity test.
    return False


def _planar_failing_at(k, calls):
    """is_planar, except False for the k-th distinct class it is asked
    about, counting G itself as class 0; appends each call to ``calls``."""
    seen = []

    def planar(gamma):
        calls.append(gamma)
        form = canonical_form(gamma)
        if form not in seen:
            seen.append(form)
        return seen.index(form) != k and is_planar(gamma)

    return planar


def test_admissible_structural_matches_per_pair_scan():
    G = nonplanar_log_divergent()
    reference = _structural_per_pair(G)
    assert reference.examined + reference.skipped_degenerate == 25048
    assert admissible_structural(G).to_json() == reference.to_json()


@pytest.mark.parametrize("k", [1, 4, 12])
def test_admissible_structural_reports_first_pair_of_failing_class(monkeypatch, k):
    G = nonplanar_log_divergent()
    per_pair, per_key = [], []
    reference = _structural_per_pair(G, _planar_failing_at(k, per_pair), _no_short_cycle)
    assert not reference.admissible and reference.examined >= k
    if k > 1:
        assert reference.condition_counts["planar"] >= k - 1
    monkeypatch.setattr(invariants, "girth_at_most", _no_short_cycle)
    monkeypatch.setattr(invariants, "is_planar", _planar_failing_at(k, per_key))
    rep = admissible_structural(G)
    assert rep.to_json() == reference.to_json()
    assert (rep.failure, rep.examined, rep.skipped_degenerate) == (
        reference.failure, reference.examined, reference.skipped_degenerate
    )
    # planarity is decided once per label-free key, not once per pair
    assert len(per_key) == 1 + len({(g.vertex_count, g.edges) for g in per_key[1:]})
    assert len(per_key) < len(per_pair) if k == 12 else len(per_key) <= len(per_pair)


@pytest.mark.parametrize("block", [1, 7])
def test_scans_stop_at_the_same_pair_across_block_edges(monkeypatch, block):
    # with blocks this small the failing pair falls first in a block, or
    # inside one after other keys; the scans must still stop exactly there
    monkeypatch.setattr(graphs, "_SCAN_BLOCK", block)
    G, F = family("wheel", 4), make_field(2)
    examined = _scan_classes(G)
    pairs = list(_at_q_pairs(G))
    classes = list(dict.fromkeys(key for _, _, key in examined))
    for k in (0, len(classes) // 2, len(classes) - 1):
        first = next(i for i, (_, _, key) in enumerate(examined) if key == classes[k])
        I, J, _ = examined[first]
        _counting(monkeypatch, fail_call=k + 1)
        rep = admissible_at_q(G, [F])[0]
        assert (rep.failure, rep.examined) == ((frozenset(I), frozenset(J)), first + 1)
        assert rep.skipped_degenerate == pairs.index((I, J)) + 1 - rep.examined
    K = nonplanar_log_divergent()
    monkeypatch.setattr(invariants, "girth_at_most", _no_short_cycle)
    for k in (1, 4, 12):
        reference = _structural_per_pair(K, _planar_failing_at(k, []), _no_short_cycle)
        monkeypatch.setattr(invariants, "is_planar", _planar_failing_at(k, []))
        assert admissible_structural(K).to_json() == reference.to_json()


_AGREEMENT_GRAPHS = {
    "wheel:4": family("wheel", 4),
    "Gn:4": family("Gn", 4),
    "K33_doubled": nonplanar_log_divergent(),
}


@pytest.mark.parametrize("name", sorted(_AGREEMENT_GRAPHS))
def test_census_matches_forest_test_per_pair(name):
    G = _AGREEMENT_GRAPHS[name]
    labels = sorted(G.labels)
    for u in range(G.h + 1):
        for v in range(G.n + 1):
            r = r_bar = 0
            for I in itertools.combinations(labels, G.h - u):
                GI = delete(G, I)
                connected = is_connected(GI)
                rest = [l for l in labels if l not in I]
                for J in itertools.combinations(rest, G.n - v):
                    r_bar += 1
                    r += connected and is_forest_in(GI, J)
            assert census(G, u, v) == (r, r_bar), (name, u, v)


def _s_t_per_pair(G, t, F):
    """S_t with one subquotient and two torus counts per pair."""
    amb = G.edge_count - 2 * t
    s_psi = s_phi = 0
    for I, J in _s_t_pairs(G, t):
        GI = delete(G, I)
        if not (is_connected(GI) and is_forest_in(GI, J)):
            s_psi += (F.q - 1) ** amb
            s_phi += (F.q - 1) ** amb
            continue
        gamma = contract(GI, J)
        s_psi += count_zeros_torus([psi(gamma)], F, amb).raw
        s_phi += count_zeros_torus([phi(gamma)], F, amb).raw
    return s_psi, s_phi


@pytest.mark.parametrize("name", sorted(_AGREEMENT_GRAPHS))
def test_s_t_sums_match_per_pair_counts(name):
    G = _AGREEMENT_GRAPHS[name]
    for t in (1, 2):
        for q in (2, 3):
            F = make_field(q)
            assert s_t_sums(G, t, F) == _s_t_per_pair(G, t, F), (name, t, q)


def test_s_t_sums_equal():
    K4 = family("complete", 4)
    for q, t in ((2, 1), (2, 3), (3, 1)):
        s_psi, s_phi = s_t_sums(K4, t, make_field(q))
        assert s_psi == s_phi, (q, t)
    tri = family("cycle", 3)
    s_psi, s_phi = s_t_sums(tri, 1, make_field(3))
    assert s_psi == s_phi


def test_s_t_sums_without_pairs_are_exact_zeros():
    # 2t > N_G: no disjoint pairs, so the empty sums, as integers
    for G, t, q in ((family("path", 3), 2, 3), (family("cycle", 3), 2, 2)):
        sums = s_t_sums(G, t, make_field(q))
        assert sums == (0, 0) and all(type(x) is int for x in sums)


def _s_t_pairs(G, t):
    labels = sorted(G.labels)
    for I in itertools.combinations(labels, t):
        for J in itertools.combinations([l for l in labels if l not in I], t):
            yield I, J


def _dodgson_s_t(G, t, F):
    """S_t by the Dodgson route with two counts per pair: the reference
    that the sums over subquotient classes must reproduce."""
    amb = G.edge_count - 2 * t
    s_psi = s_phi = 0
    for I, J in _s_t_pairs(G, t):
        s_psi += count_zeros_torus([psi_two_index(G, I, J)], F, amb).raw
        s_phi += count_zeros_torus([phi_two_index(G, I, J)], F, amb).raw
    return s_psi, s_phi


@pytest.mark.parametrize(
    "name, t, q",
    [("wheel:4", t, q) for t in (1, 2) for q in (2, 3)]
    + [("complete:4", t, 2) for t in (1, 2, 3)]
    + [("Gn:4", 2, 3), ("cycle:3", 1, 3)],
)
def test_s_t_sums_match_dodgson_route(name, t, q):
    fam, n = name.split(":")
    G, F = family(fam, int(n)), make_field(q)
    assert s_t_sums(G, t, F) == _dodgson_s_t(G, t, F)


def test_scans_count_subquotient_classes_without_dodgson_minors(monkeypatch):
    G, F = family("wheel", 4), make_field(2)
    classes = {
        canonical_form(subquotient(G, I, J))
        for I, J in _s_t_pairs(G, 2)
        if is_connected(delete(G, I)) and is_forest_in(delete(G, I), J)
    }
    calls = []

    def count(polys, F, n_vars, **kw):
        calls.append((len(polys), n_vars, kw.get("torus")))
        return count_zeros_each(polys, F, n_vars, **kw)

    def no_minors(*args):
        raise AssertionError("a Dodgson minor was built")

    monkeypatch.setattr(invariants, "count_zeros_each", count)
    monkeypatch.setattr(multipoly, "_m_matrix_rows", no_minors)
    s_psi, s_phi = s_t_sums(G, 2, F)
    assert s_psi == s_phi
    # psi and phi of each class, all in one torus call, of 420 pairs
    assert calls == [(2 * len(classes), G.edge_count - 4, True)] and len(classes) == 6
    assert admissible_at_q(G, [F])[0].admissible


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_thm2_as_coded_fails_on_two_corpus_graphs_with_two_loops(q, corpus):
    # counterexamples to Thm2 under its coded hypothesis h, n >= 2 (README)
    F = make_field(q)
    g2 = verify("Thm2", corpus["G2"], F)
    assert not g2.passed and g2.details == {"c2_param": 0, "c2_dual": q - 1}
    loop = verify("Thm2", corpus["triangle_loop"], F)
    assert not loop.passed and loop.details == {"c2_param": q - 1, "c2_dual": 0}


def test_every_statement_on_every_multigraph_to_six_edges(catalog6, corpus):
    # each verify id on the 470 connected multigraphs with N <= 6 at q = 2, 3
    # (the census ids once, with no field): a report passes or the check
    # raises a documented error, but for the two Thm2 counterexamples above
    fields = [make_field(2), make_field(3)]
    failed = []
    for G in catalog6:
        for theorem in THEOREM_IDS:
            for F in [None] if theorem in FIELD_FREE_THEOREMS else fields:
                try:
                    report = verify(theorem, G, F, budget=10**7)
                except (PreconditionUnmet, BudgetExceeded):
                    continue
                if not report.passed:
                    name = [k for k in ("G2", "triangle_loop") if is_isomorphic(G, corpus[k])]
                    failed.append((theorem, report.q, name))
    assert sorted(failed) == [
        ("Thm2", 2, ["G2"]), ("Thm2", 2, ["triangle_loop"]),
        ("Thm2", 3, ["G2"]), ("Thm2", 3, ["triangle_loop"]),
    ]


def test_verify_registry():
    K4 = family("complete", 4)
    F2, F3 = make_field(2), make_field(3)
    assert verify("Thm2", K4, F2).passed
    assert verify("Sec3Thm", K4, F3).passed
    assert verify("thm20", K4, F3).passed
    assert verify("Prop1", K4, F2).passed
    assert verify("c216", K4, F2).passed
    assert verify("c220", K4, F2).passed
    assert verify("prop34", K4).passed
    assert verify("cor35", K4).passed
    assert verify("p4", K4, F2).passed
    with pytest.raises(PreconditionUnmet):
        verify("nope", K4, F2)


@pytest.mark.parametrize(
    "name, q",
    [("square", 2), ("square", 3), ("square", 4), ("K4_minus_edge", 2), ("K4_minus_edge", 3)],
)
def test_sec3_below_twice_the_loop_number(name, q):
    # N < 2n: c2 in position space is 0 (the pentagon, cycle:5, is past the
    # default budget at q = 4)
    G = named_graphs()[name]
    assert G.edge_count < 2 * G.n
    rep = verify("Sec3Thm", G, make_field(q))
    assert rep.passed
    assert rep.details["case"] == "N < 2n" and rep.details["c2_pos"] == 0


def test_verify_lem36_reports_f19_mismatch():
    # the report carries both the enumerated and the closed-form value of
    # r^{1,2} and r^{2,1}, and they agree
    rep = verify("lem36", family("Gn", 3))
    assert rep.details["r12"] == rep.details["r12_formula"] == 36
    assert rep.details["r21"] == rep.details["r21_formula"] == 38
    assert rep.passed


def test_lem36_closed_forms_values():
    assert lem36_closed_forms(3) == (36, 38)
    assert lem36_closed_forms(4) == (216, 220)


def test_verdict_assembly():
    K4 = family("complete", 4)
    v = c2_verdict(K4, make_field(2), ("param", "dual", "pos"), "K4")
    assert v.c2_param == v.c2_dual == v.c2_pos == 1
    assert v.c2_pos_quotient_mod_q3 is not None
    b3 = c2_verdict(family("banana", 3), make_field(2), ("param", "dual", "pos"), "b3")
    assert b3.c2_param is None and "PreconditionUnmet" in b3.c2_param_reason
    assert b3.c2_dual == 1
    assert b3.c2_pos is None


def test_verdict_records_position_budget_and_keeps_other_legs():
    # the parametric legs need 2^8 points, the position leg 2^16
    v = c2_verdict(family("wheel", 4), make_field(2), budget=2**9)
    assert v.c2_param == v.c2_dual == 1
    assert v.c2_pos is None and v.c2_pos_quotient_mod_q3 is None
    assert v.c2_pos_reason.startswith("BudgetExceeded")


def test_verdict_checks_position_preconditions_before_counting():
    # N = 10 > 2n = 8: the position leg fails on its precondition, not on
    # the 2^16 points its count would need
    K5, F2 = family("complete", 5), make_field(2)
    v = c2_verdict(K5, F2, budget=2**10)
    assert v.c2_param == c2_param(K5, F2) and v.c2_dual == c2_dual(K5, F2)
    assert v.c2_pos is None
    assert v.c2_pos_reason == (
        "PreconditionUnmet: position space needs N_G <= 2 n_G, n_G >= 2"
    )
