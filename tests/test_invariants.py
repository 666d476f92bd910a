import pytest

from c2lab.corpus import nonplanar_log_divergent
from c2lab.errors import NotATriangle, PreconditionUnmet
from c2lab.fields import make_field
from c2lab.graphs import Graph, family
from c2lab.invariants import (
    admissible_at_q,
    admissible_structural,
    c2_dual,
    c2_dual_triangle,
    c2_param,
    c2_pos,
    c2_pos_full_quotient,
    c2_verdict,
    lem36_closed_forms,
    s_t_sums,
    verify,
)


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
        assert c2_pos_full_quotient(K4, F) % q == c2_pos(K4, F)


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
    # non-planar, log-divergent: run and record; not asserted either way
    G = nonplanar_log_divergent()
    assert G.is_log_divergent() and G.h >= 3 and G.n >= 3
    rep = admissible_structural(G)
    assert rep.mode == "structural"
    assert isinstance(rep.admissible, bool)
    assert rep.examined > 0
    if not rep.admissible:
        assert rep.failure is not None


def test_admissible_at_q_planar_graphs():
    F2 = make_field(2)
    for G in (family("complete", 4), family("Gn", 3)):
        rep = admissible_at_q(G, F2)
        assert rep.admissible, rep.to_json()
        assert rep.examined > 0


def test_admissible_at_q_guard():
    with pytest.raises(PreconditionUnmet):
        admissible_at_q(family("banana", 4), make_field(2))


def test_s_t_sums_equal():
    K4 = family("complete", 4)
    for q, t in ((2, 1), (2, 3), (3, 1)):
        s_psi, s_phi = s_t_sums(K4, t, make_field(q))
        assert s_psi == s_phi, (q, t)
    tri = family("cycle", 3)
    s_psi, s_phi = s_t_sums(tri, 1, make_field(3))
    assert s_psi == s_phi


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
