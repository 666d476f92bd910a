"""The c2 invariants in parametric, dual-parametric, and position space,
duality admissibility, and the theorem-verification harness.

Every verification recomputes both sides of the named statement from
independent primitives (e.g. position-space counts never reuse the
parametric kernel's polynomials), so a passing report is evidence, not a
tautology.  Divisibility required by a theorem is asserted, never assumed;
a violation raises DivisibilityViolated since at a tested q it would be
refutation data.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .counting import (
    CountReport,
    count_zeros,
    count_zeros_torus,
    sing_count,
)
from .errors import (
    BudgetExceeded,
    DivisibilityViolated,
    NotATriangle,
    PreconditionUnmet,
)
from .fields import FqField
from .graphs import (
    Graph,
    census,
    delete,
    family,
    girth_at_most,
    is_connected,
    is_forest_in,
    is_isomorphic,
    spanning_tree_count,
    subquotient,
)
from .multipoly import phi, phi_dodgson_pair, phi_two_index, psi, psi_two_index
from .planar import is_planar
from .quadrics import quadric_congruence_rhs, quadric_union_count


def _require(cond: bool, msg: str):
    if not cond:
        raise PreconditionUnmet(msg)


def _quotient(report: CountReport, what: str) -> int:
    if report.quotient_c2 is None:
        raise DivisibilityViolated(
            f"q^2 = {report.q}^2 does not divide [{what}] = {report.raw}; "
            "this contradicts the expected congruence and should be reported"
        )
    return report.quotient_c2


def c2_param(G: Graph, F: FqField, *, budget=None, threads: int = 1) -> int:
    """c2(G)_q = [Psi_G]_q / q^2 mod q."""
    _require(G.n >= 2, "c2 in parametric space needs n_G >= 2")
    rep = count_zeros([psi(G)], F, G.edge_count, budget=budget, threads=threads)
    return _quotient(rep, "Psi_G")


def c2_dual(G: Graph, F: FqField, *, budget=None, threads: int = 1) -> int:
    """c2^dual(G)_q = [phi_G]_q / q^2 mod q."""
    _require(G.h >= 2, "c2 in dual parametric space needs h_G >= 2")
    rep = count_zeros([phi(G)], F, G.edge_count, budget=budget, threads=threads)
    return _quotient(rep, "phi_G")


def _check_triangle(G: Graph, triangle) -> tuple[int, int, int]:
    t = sorted(triangle)
    if len(t) != 3 or not set(t) <= set(G.labels):
        raise NotATriangle("a triangle is three distinct edge labels of G")
    ends = [set(G.endpoints(lab)) for lab in t]
    verts = ends[0] | ends[1] | ends[2]
    if len(verts) != 3 or any(len(e) != 2 for e in ends) or ends[0] == ends[1]:
        raise NotATriangle(f"edges {t} do not form a 3-cycle")
    if ends[0] | ends[1] != verts or ends[1] | ends[2] != verts or ends[0] | ends[2] != verts:
        raise NotATriangle(f"edges {t} do not form a 3-cycle")
    return t[0], t[1], t[2]


def c2_dual_triangle(G: Graph, triangle, F: FqField, *, budget=None, threads: int = 1) -> int:
    """c2^dual via the triangle reduction [phi^{1,2}_3, phi^{13,23}] mod q."""
    _require(G.h >= 3, "the triangle reduction needs h_G >= 3")
    t1, t2, t3 = _check_triangle(G, triangle)
    pair = [
        phi_dodgson_pair(G, {t1}, {t2}, {t3}),
        phi_dodgson_pair(G, {t1, t3}, {t2, t3}),
    ]
    rep = count_zeros(pair, F, G.edge_count - 3, budget=budget, threads=threads)
    return rep.raw % F.q


def _pos_count(G: Graph, F: FqField, *, budget=None, threads: int = 1) -> CountReport:
    """[q_1...q_N], checked divisible by q^2, once its preconditions hold."""
    _require(G.n >= 1, "position space needs at least one free vertex")
    _require(G.edge_count <= 2 * G.n and G.n >= 2, "position space needs N_G <= 2 n_G, n_G >= 2")
    rep = quadric_union_count(G, F, budget=budget, threads=threads)
    _quotient(rep, "q_1...q_N")
    return rep


def c2_pos(G: Graph, F: FqField, *, budget=None, threads: int = 1) -> int:
    """c2^pos(G)_q = [q_1...q_N]_q / q^2 mod q."""
    return _pos_count(G, F, budget=budget, threads=threads).quotient_c2


def c2_pos_full_quotient(G: Graph, F: FqField, *, budget=None, threads: int = 1) -> int:
    """The quotient [q_1...q_N]_q / q^2 reduced mod q^3 (the paper's other reading)."""
    rep = _pos_count(G, F, budget=budget, threads=threads)
    return (rep.raw // F.q**2) % F.q**3


# -- duality admissibility ----------------------------------------------------


@dataclass
class AdmissibilityReport:
    admissible: bool
    mode: str
    q: int | None = None
    examined: int = 0
    skipped_degenerate: int = 0
    planar_shortcut: bool = False
    condition_counts: dict = field(default_factory=dict)
    failure: tuple | None = None
    failure_detail: str = ""

    def to_json(self) -> dict:
        return {
            "admissible": self.admissible,
            "mode": self.mode,
            "q": self.q,
            "examined": self.examined,
            "skipped_degenerate": self.skipped_degenerate,
            "planar_shortcut": self.planar_shortcut,
            "condition_counts": dict(sorted(self.condition_counts.items())),
            "failure": [sorted(self.failure[0]), sorted(self.failure[1])]
            if self.failure
            else None,
            "failure_detail": self.failure_detail,
        }


def _log_divergent_guard(G: Graph):
    _require(is_connected(G), "admissibility is about connected graphs")
    _require(G.edge_count == 2 * G.h, "admissibility needs a log-divergent graph")
    _require(G.h >= 3 and G.n >= 3, "admissibility needs h_G, n_G >= 3")


def admissible_structural(G: Graph) -> AdmissibilityReport:
    """Sufficient condition: every subquotient with |I| < |J| is disconnected,
    has a cycle of length <= 3, or is planar.  Planar G short-circuits."""
    _log_divergent_guard(G)
    if is_planar(G):
        return AdmissibilityReport(
            True, "structural", planar_shortcut=True,
            condition_counts={"planar(G)": 1},
        )
    labels = sorted(G.labels)
    counts: dict[str, int] = {}
    examined = 0
    skipped = 0
    pairs = []
    for si in range(len(labels) + 1):
        for sj in range(si + 1, len(labels) - si + 1):
            pairs.append((si, sj))
    pairs.sort(key=lambda p: (p[0] + p[1], p))
    for si, sj in pairs:
        for I in itertools.combinations(labels, si):
            rest = [l for l in labels if l not in I]
            GI = delete(G, I)
            for J in itertools.combinations(rest, sj):
                if not is_forest_in(GI, J):
                    skipped += 1
                    continue
                gamma = subquotient(G, I, J)
                examined += 1
                if not is_connected(gamma):
                    counts["disconnected"] = counts.get("disconnected", 0) + 1
                elif girth_at_most(gamma, 3):
                    counts["short-cycle"] = counts.get("short-cycle", 0) + 1
                elif is_planar(gamma):
                    counts["planar"] = counts.get("planar", 0) + 1
                else:
                    return AdmissibilityReport(
                        False,
                        "structural",
                        examined=examined,
                        skipped_degenerate=skipped,
                        condition_counts=counts,
                        failure=(frozenset(I), frozenset(J)),
                        failure_detail="subquotient is connected, non-planar, "
                        "and has no cycle of length <= 3",
                    )
    return AdmissibilityReport(
        True, "structural", examined=examined,
        skipped_degenerate=skipped, condition_counts=counts,
    )


def admissible_at_q(G: Graph, F: FqField, *, budget=None, threads: int = 1) -> AdmissibilityReport:
    """Check the defining congruences [phi^J_I] = 0 mod q^3 at one q.

    Scans disjoint pairs with |J| > |I|, |I| <= n_G - 3, cheapest first.
    Pairs whose dual Dodgson polynomial is identically zero (disconnected or
    non-contractible subquotients) are skipped: their vanishing ideal is the
    whole space and carries no graph information.
    """
    _log_divergent_guard(G)
    labels = sorted(G.labels)
    N, n = G.edge_count, G.n
    q = F.q
    examined = 0
    skipped = 0
    pairs = []
    for si in range(0, max(n - 2, 1)):
        if si > n - 3:
            break
        for sj in range(si + 1, N - si + 1):
            pairs.append((si, sj))
    pairs.sort(key=lambda p: (p[0] + p[1], p))
    for si, sj in pairs:
        for I in itertools.combinations(labels, si):
            rest = [l for l in labels if l not in I]
            for J in itertools.combinations(rest, sj):
                P = phi_two_index(G, J, I)
                if P.is_zero:
                    skipped += 1
                    continue
                examined += 1
                rep = count_zeros([P], F, N - si - sj, budget=budget, threads=threads)
                if rep.raw % q**3 != 0:
                    return AdmissibilityReport(
                        False,
                        "at-q",
                        q=q,
                        examined=examined,
                        skipped_degenerate=skipped,
                        failure=(frozenset(I), frozenset(J)),
                        failure_detail=f"[phi^J_I] = {rep.raw} is not divisible by q^3",
                    )
    return AdmissibilityReport(
        True, "at-q", q=q, examined=examined, skipped_degenerate=skipped
    )


def s_t_sums(G: Graph, t: int, F: FqField, *, budget=None, threads: int = 1) -> tuple[int, int]:
    """The torus sums S_t for Psi and for phi over all |I| = |J| = t.

    Cremona invariance of the proof's S_t elements means the two sums must
    be equal.
    """
    _require(1 <= t <= G.n, "S_t needs 1 <= t <= n_G")
    labels = sorted(G.labels)
    N = G.edge_count
    s_psi = 0
    s_phi = 0
    for I in itertools.combinations(labels, t):
        rest = [l for l in labels if l not in I]
        for J in itertools.combinations(rest, t):
            amb = N - 2 * t
            s_psi += count_zeros_torus(
                [psi_two_index(G, I, J)], F, amb, budget=budget, threads=threads
            ).raw
            s_phi += count_zeros_torus(
                [phi_two_index(G, I, J)], F, amb, budget=budget, threads=threads
            ).raw
    return s_psi, s_phi


# -- theorem verification ------------------------------------------------------


@dataclass
class VerifyReport:
    theorem: str
    passed: bool
    q: int | None
    details: dict

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "passed": self.passed,
            "q": self.q,
            "details": {k: _jsonable(v) for k, v in sorted(self.details.items())},
        }


def _jsonable(v):
    if isinstance(v, bool) or v is None or isinstance(v, str):
        return v
    if isinstance(v, int):
        return str(v) if abs(v) > 2**53 else v
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in sorted(v.items())}
    return str(v)


def verify(theorem: str, G: Graph, F: FqField | None = None, *, budget=None, threads: int = 1) -> VerifyReport:
    """Recompute both sides of a named statement and report the comparison."""
    fn = _THEOREMS.get(theorem)
    if fn is None:
        raise PreconditionUnmet(
            f"unknown theorem {theorem!r}; known: {sorted(_THEOREMS)}"
        )
    return fn(G, F, budget=budget, threads=threads)


def _needs_q(F):
    _require(F is not None, "this verification needs a field")


def _v_thm2(G, F, *, budget, threads):
    _needs_q(F)
    _require(G.is_log_divergent(), "Thm2 is about log-divergent graphs")
    _require(G.h >= 2 and G.n >= 2, "Thm2 needs h_G, n_G >= 2")
    a = c2_param(G, F, budget=budget, threads=threads)
    b = c2_dual(G, F, budget=budget, threads=threads)
    return VerifyReport("Thm2", a == b, F.q, {"c2_param": a, "c2_dual": b})


def _v_sec3(G, F, *, budget, threads):
    _needs_q(F)
    _require(G.n >= 3, "the position-space theorem needs n_G >= 3")
    N, n = G.edge_count, G.n
    if N < 2 * n:
        a = c2_pos(G, F, budget=budget, threads=threads)
        return VerifyReport("Sec3Thm", a == 0, F.q, {"case": "N < 2n", "c2_pos": a})
    _require(N == 2 * n, "needs N_G <= 2 n_G")
    a = c2_pos(G, F, budget=budget, threads=threads)
    b = c2_dual(G, F, budget=budget, threads=threads)
    return VerifyReport(
        "Sec3Thm", a == b, F.q, {"case": "N = 2n", "c2_pos": a, "c2_dual": b}
    )


def _v_thm20(G, F, *, budget, threads):
    _needs_q(F)
    _require(G.h >= 2, "thm20 needs at least two loops")
    rep = sing_count(G, F, "jacobian", budget=budget, threads=threads)
    return VerifyReport(
        "thm20", rep.raw % F.q == 0, F.q, {"sing_count": rep.raw, "mod_q": rep.mod_q}
    )


def _v_prop1(G, F, *, budget, threads):
    _needs_q(F)
    _require(G.h >= 2, "Prop1 needs at least two loops")
    rep = count_zeros([phi(G)], F, G.edge_count, budget=budget, threads=threads)
    return VerifyReport(
        "Prop1", rep.raw % F.q**2 == 0, F.q, {"phi_count": rep.raw, "mod_q2": rep.mod_q2}
    )


def _v_c216(G, F, *, budget, threads):
    _needs_q(F)
    lhs = quadric_union_count(G, F, budget=budget, threads=threads).raw % F.q**3
    rhs = quadric_congruence_rhs(G, F, budget=budget)
    return VerifyReport("c216", lhs == rhs, F.q, {"lhs_mod_q3": lhs, "rhs_mod_q3": rhs})


def _v_c220(G, F, *, budget, threads):
    _needs_q(F)
    _require(G.edge_count <= 2 * G.n and G.n >= 2, "c220 needs N <= 2n, n >= 2")
    rep = quadric_union_count(G, F, budget=budget, threads=threads)
    return VerifyReport(
        "c220", rep.raw % F.q**2 == 0, F.q, {"raw": rep.raw, "mod_q2": rep.mod_q2}
    )


def _v_prop34(G, F, *, budget, threads):
    trees = spanning_tree_count(G)
    details = {"spanning_trees": trees}
    ok = True
    for u in range(G.h + 1):
        r, _ = census(G, u, 0)
        expect = math.comb(G.h, u) * trees
        details[f"r({u},0)"] = r
        ok = ok and r == expect
    for u in range(G.n + 1):
        r, _ = census(G, 0, u)
        expect = math.comb(G.n, u) * trees
        details[f"r(0,{u})"] = r
        ok = ok and r == expect
    return VerifyReport("prop34", ok, None, details)


def _v_cor35(G, F, *, budget, threads):
    _require(G.is_log_divergent(), "cor35 is about log-divergent graphs")
    details = {}
    ok = True
    for u in range(G.h + 1):
        a, _ = census(G, u, 0)
        b, _ = census(G, 0, u)
        details[f"u={u}"] = [a, b]
        ok = ok and a == b
    return VerifyReport("cor35", ok, None, details)


def lem36_closed_forms(n: int) -> tuple[int, int]:
    """(r^{1,2}, r^{2,1}) of the G_n family (n >= 2) in closed form:

        r^{1,2}(G_n) = 3n(n-1)^2 2^(n-3)
        r^{2,1}(G_n) = 2^(n-2) + 3n(n-1)^2 2^(n-3) = r^{1,2}(G_n) + 2^(n-2)

    Both are integer-exact at n = 2, where 2^(n-3) is not an integer.

    Case count for r^{2,1}: |I| = n-2 and |J| = n-1.  G_n is a path of n
    edge bundles (triple, n-2 doubles, single) with n surplus edges, so
    G\\I is connected iff I takes only surplus edges, leaving 2 of them;
    J then takes one edge from each of n-1 of the n bundles.  By how many
    surplus edges the triple keeps:
      2: 2^(n-2) (3n-2)
      1: 12(n-1)(n-2) 2^(n-3)
      0: 3(n-1)(n-2)(n-3) 2^(n-3)
    and the three cases sum to the form above.
    """
    r12 = 3 * n * (n - 1) ** 2 * 2**n // 8
    r21 = r12 + 2 ** (n - 2)
    return r12, r21


def _v_lem36(G, F, *, budget, threads):
    n = G.n
    _require(is_isomorphic(G, family("Gn", n)), "lem36 is about the G_n family")
    r12, _ = census(G, 1, 2)
    r21, _ = census(G, 2, 1)
    e12, e21 = lem36_closed_forms(n)
    return VerifyReport(
        "lem36",
        r12 == e12 and r21 == e21,
        None,
        {"r12": r12, "r12_formula": e12, "r21": r21, "r21_formula": e21, "n": n},
    )


def _v_p4(G, F, *, budget, threads):
    _needs_q(F)
    _require(G.h >= 3, "p4 needs h_G >= 3")
    tri = _find_triangle(G)
    _require(tri is not None, "p4 needs a triangle")
    a = c2_dual_triangle(G, tri, F, budget=budget, threads=threads)
    b = c2_dual(G, F, budget=budget, threads=threads)
    return VerifyReport("p4", a == b, F.q, {"triangle": sorted(tri), "reduced": a, "c2_dual": b})


def _find_triangle(G: Graph):
    for labs in itertools.combinations(sorted(G.labels), 3):
        try:
            _check_triangle(G, labs)
            return labs
        except NotATriangle:
            continue
    return None


_THEOREMS = {
    "Thm2": _v_thm2,
    "Sec3Thm": _v_sec3,
    "thm20": _v_thm20,
    "Prop1": _v_prop1,
    "c216": _v_c216,
    "c220": _v_c220,
    "prop34": _v_prop34,
    "cor35": _v_cor35,
    "lem36": _v_lem36,
    "p4": _v_p4,
}

THEOREM_IDS = tuple(sorted(_THEOREMS))


# -- verdict assembly ----------------------------------------------------------


@dataclass
class C2Verdict:
    graph_id: str
    q: int
    c2_param: int | None = None
    c2_param_reason: str = ""
    c2_dual: int | None = None
    c2_dual_reason: str = ""
    c2_pos: int | None = None
    c2_pos_reason: str = ""
    c2_pos_quotient_mod_q3: int | None = None

    def to_json(self) -> dict:
        return {
            "graph": self.graph_id,
            "q": self.q,
            "c2_param": self.c2_param,
            "c2_param_reason": self.c2_param_reason,
            "c2_dual": self.c2_dual,
            "c2_dual_reason": self.c2_dual_reason,
            "c2_pos": self.c2_pos,
            "c2_pos_reason": self.c2_pos_reason,
            "c2_pos_quotient_mod_q3": self.c2_pos_quotient_mod_q3,
        }


def _leg(fn, *args, **kwargs):
    """(value, "") for a c2 leg that could be computed, else (None, reason)."""
    try:
        return fn(*args, **kwargs), ""
    except (BudgetExceeded, PreconditionUnmet, DivisibilityViolated) as e:
        return None, f"{e.code}: {e}"


def c2_verdict(
    G: Graph,
    F: FqField,
    spaces=("param", "dual", "pos"),
    graph_id: str = "",
    *,
    budget=None,
    threads: int = 1,
) -> C2Verdict:
    """Compute the requested c2 residues, recording why any is undefined.

    Each leg is computed on its own: a leg whose preconditions fail, whose
    count is not divisible by q^2, or whose enumeration exceeds the budget
    records that as its reason and keeps the other legs' values.
    """
    v = C2Verdict(graph_id=graph_id, q=F.q)
    kw = {"budget": budget, "threads": threads}
    if "param" in spaces:
        v.c2_param, v.c2_param_reason = _leg(c2_param, G, F, **kw)
    if "dual" in spaces:
        v.c2_dual, v.c2_dual_reason = _leg(c2_dual, G, F, **kw)
    if "pos" in spaces:
        rep, v.c2_pos_reason = _leg(_pos_count, G, F, **kw)
        if rep is not None:
            v.c2_pos = rep.quotient_c2
            v.c2_pos_quotient_mod_q3 = (rep.raw // F.q**2) % F.q**3
    return v

