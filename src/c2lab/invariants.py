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
from dataclasses import asdict, dataclass, field, replace

import numpy as np

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
    canonical_form,
    census,
    family,
    girth_at_most,
    is_connected,
    is_isomorphic,
    scan_pairs,
    scan_sizes,
    spanning_tree_count,
)
from .multipoly import phi, phi_dodgson_pair, psi
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


def c2_param(G: Graph, F: FqField, *, budget=None) -> int:
    """c2(G)_q = [Psi_G]_q / q^2 mod q."""
    _require(G.n >= 2, "c2 in parametric space needs n_G >= 2")
    rep = count_zeros([psi(G)], F, G.edge_count, budget=budget)
    return _quotient(rep, "Psi_G")


def c2_dual(G: Graph, F: FqField, *, budget=None) -> int:
    """c2^dual(G)_q = [phi_G]_q / q^2 mod q."""
    _require(G.h >= 2, "c2 in dual parametric space needs h_G >= 2")
    rep = count_zeros([phi(G)], F, G.edge_count, budget=budget)
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


def c2_dual_triangle(G: Graph, triangle, F: FqField, *, budget=None) -> int:
    """c2^dual via the triangle reduction [phi^{1,2}_3, phi^{13,23}] mod q."""
    _require(G.h >= 3, "the triangle reduction needs h_G >= 3")
    t1, t2, t3 = _check_triangle(G, triangle)
    pair = [
        phi_dodgson_pair(G, {t1}, {t2}, {t3}),
        phi_dodgson_pair(G, {t1, t3}, {t2, t3}),
    ]
    rep = count_zeros(pair, F, G.edge_count - 3, budget=budget)
    return rep.raw % F.q


def _pos_quotients(G: Graph, F: FqField, *, budget=None) -> tuple[int, int]:
    """[q_1...q_N]_q / q^2 mod q and mod q^3, once q^2 divides it and the preconditions hold."""
    _require(G.n >= 1, "position space needs at least one free vertex")
    _require(G.edge_count <= 2 * G.n and G.n >= 2, "position space needs N_G <= 2 n_G, n_G >= 2")
    rep = quadric_union_count(G, F, budget=budget)
    return _quotient(rep, "q_1...q_N"), (rep.raw // F.q**2) % F.q**3


def c2_pos(G: Graph, F: FqField, *, budget=None) -> int:
    """c2^pos(G)_q = [q_1...q_N]_q / q^2 mod q."""
    return _pos_quotients(G, F, budget=budget)[0]


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
        return asdict(replace(self, failure=self.failure and [sorted(s) for s in self.failure]))


def _log_divergent_guard(G: Graph):
    _require(is_connected(G), "admissibility is about connected graphs")
    _require(G.edge_count == 2 * G.h, "admissibility needs a log-divergent graph")
    _require(G.h >= 3 and G.n >= 3, "admissibility needs h_G, n_G >= 3")


def admissible_structural(G: Graph, *, budget=None) -> AdmissibilityReport:
    """Sufficient condition: every subquotient with |I| < |J| is disconnected,
    has a cycle of length <= 3, or is planar.  Planar G short-circuits.
    Of the degenerate pairs (``graphs.PairBlock``) only those whose J holds
    a cycle of G\\I are skipped; a disconnected G\\I//J meets the condition.
    The condition of a connected subquotient is decided once per scan for
    each of its label-free keys (``PairBlock.keys``), in the order the keys
    first appear, so the scan stops at the first pair that meets none.

    Raises BudgetExceeded before scanning when the scan has more pairs than
    ``budget``.
    """
    _log_divergent_guard(G)
    if is_planar(G):
        return AdmissibilityReport(
            True, "structural", planar_shortcut=True,
            condition_counts={"planar(G)": 1},
        )
    N = G.edge_count
    _, blocks = scan_pairs(G, scan_sizes(N, N), budget=budget, what="the structural scan")
    counts: dict[str, int] = {}
    conditions: dict[tuple, str | None] = {}  # key -> condition met, None if none
    examined = 0
    skipped = 0
    for block in blocks:
        keys, first, inverse = block.keys()
        end = len(block)  # the pairs before the first failing one
        for key, f in zip(keys, first.tolist()):
            if key not in conditions:
                gamma = Graph(key[1], key[0])
                if girth_at_most(gamma, 3):
                    conditions[key] = "short-cycle"
                elif is_planar(gamma):
                    conditions[key] = "planar"
                else:
                    conditions[key] = None
            if conditions[key] is None:
                end = f
                break
        forest = block.forest[:end]
        examined += int(np.count_nonzero(forest))
        skipped += end - int(np.count_nonzero(forest))
        # contracting a forest keeps the components of G\\I
        tally = [("disconnected", int(np.count_nonzero(forest & ~block.connected[:end])))]
        seen = np.bincount(inverse[np.flatnonzero(block.good) < end], minlength=len(keys))
        tally += [(conditions[key], k) for key, k in zip(keys, seen.tolist()) if k]
        for cond, k in tally:
            if k:
                counts[cond] = counts.get(cond, 0) + k
        if end < len(block):
            I, J = block.pair(end)
            return AdmissibilityReport(
                False,
                "structural",
                examined=examined + 1,
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


@dataclass
class _Class:
    """An isomorphism class of connected subquotients G\\I//J in a scan:
    a member, its number of pairs, and its first pair (I, J), as label
    sets, with that pair's index in the scan and the number of connected
    pairs before it."""

    member: Graph
    pairs: int
    first: tuple
    index: int
    before: int


def _scan_classes(G: Graph, sizes, *, budget, what) -> tuple[list[_Class], int, int]:
    """The connected subquotients G\\I//J of one ``graphs.scan_pairs``,
    grouped by isomorphism class in order of first appearance: (classes,
    pairs, connected pairs).  Each label-free key (``PairBlock.keys``) is
    put in its class once, by a memo that lasts this call; the degenerate
    pairs (``graphs.PairBlock``) are only counted.  Raises BudgetExceeded
    before the first pair as ``scan_pairs`` does.
    """
    total, blocks = scan_pairs(G, sizes, budget=budget, what=what)
    forms: dict[tuple, tuple] = {}  # label-free key -> canonical form
    classes: dict[tuple, _Class] = {}  # canonical form -> its class
    seen = good = 0  # pairs and connected pairs of the blocks before
    for block in blocks:
        keys, first, inverse = block.keys()
        tally = np.bincount(inverse, minlength=len(keys)).tolist()
        for key, f, k in zip(keys, first.tolist(), tally):
            form = forms.get(key)
            if form is None:
                gamma = Graph(key[1], key[0])
                form = forms[key] = canonical_form(gamma)
                if form not in classes:
                    before = good + int(np.count_nonzero(block.good[:f]))
                    first_pair = tuple(map(frozenset, block.pair(f)))
                    classes[form] = _Class(gamma, 0, first_pair, seen + f, before)
            classes[form].pairs += k
        seen += len(block)
        good += int(np.count_nonzero(block.good))
    return list(classes.values()), total, good


def admissible_at_q(G: Graph, fields, *, budget=None) -> list[AdmissibilityReport]:
    """Check the defining congruences [phi^J_I] = 0 mod q^3 at each q of
    ``fields``: one report per field, all from one scan.

    Scans disjoint pairs with |J| > |I|, |I| <= n_G - 3, cheapest first.
    A pair is skipped when it is degenerate (``graphs.PairBlock``: G\\I is
    disconnected or J holds a cycle of G\\I): exactly then the dual Dodgson
    polynomial phi^J_I is identically zero,
    its vanishing ideal is the whole space and carries no graph information.
    Otherwise phi^J_I is phi of the subquotient G\\I//J, and its count
    depends only on the subquotient's isomorphism class, so the classes
    (``_scan_classes``) are counted once per field, in order of first
    appearance, up to the first that fails; its first pair is the scan's
    first failing pair.  Raises BudgetExceeded before scanning when the
    scan has more pairs than ``budget``, which also bounds each count.
    """
    _log_divergent_guard(G)
    classes, pairs, good = _scan_classes(
        G, scan_sizes(G.edge_count, G.n - 3), budget=budget, what="the at-q scan"
    )
    return [_at_q_report(classes, pairs, good, F, budget) for F in fields]


def _at_q_report(classes, pairs, good, F: FqField, budget) -> AdmissibilityReport:
    q = F.q
    for c in classes:
        raw = count_zeros([phi(c.member)], F, c.member.edge_count, budget=budget).raw
        if raw % q**3 != 0:
            return AdmissibilityReport(
                False, "at-q", q=q, examined=c.before + 1,
                skipped_degenerate=c.index - c.before, failure=c.first,
                failure_detail=f"[phi^J_I] = {raw} is not divisible by q^3",
            )
    return AdmissibilityReport(True, "at-q", q=q, examined=good, skipped_degenerate=pairs - good)


def s_t_sums(G: Graph, t: int, F: FqField, *, budget=None) -> tuple[int, int]:
    """The torus sums S_t of Psi^I_J = Psi(G\\I//J) and of phi^I_J =
    phi(G\\J//I) over all |I| = |J| = t, which Cremona invariance of the
    proof's S_t elements makes equal.  The pair set is symmetric under
    (I, J) <-> (J, I), so both sums run over the subquotients G\\I//J: the
    sums agree, the terms of one pair need not.  A degenerate pair
    (``graphs.PairBlock``) has both polynomials zero and adds (q-1)^(N-2t)
    to each sum; the torus counts of the others are made once per
    isomorphism class (``_scan_classes``).  With 2t > N_G there are no
    pairs, and both sums are 0.  Raises BudgetExceeded before summing when
    there are more pairs than ``budget``, which also bounds each count.
    """
    _require(1 <= t <= G.n, "S_t needs 1 <= t <= n_G")
    classes, pairs, good = _scan_classes(G, [(t, t)], budget=budget, what="the S_t sums")
    amb = G.edge_count - 2 * t
    if amb < 0:
        return 0, 0

    def total(poly) -> int:
        return (pairs - good) * (F.q - 1) ** amb + sum(
            c.pairs * count_zeros_torus([poly(c.member)], F, amb, budget=budget).raw
            for c in classes
        )

    return total(psi), total(phi)


# -- theorem verification ------------------------------------------------------


@dataclass
class VerifyReport:
    theorem: str
    passed: bool
    q: int | None
    details: dict

    def to_json(self) -> dict:
        return asdict(replace(self, details=_jsonable(self.details)))


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


def verify(theorem: str, G: Graph, F: FqField | None = None, *, budget=None) -> VerifyReport:
    """Recompute both sides of a named statement and report the comparison.
    Each check of ``_THEOREMS`` returns (passed, details); the census
    statements (``FIELD_FREE_THEOREMS``) take no field and report q as None."""
    fn = _THEOREMS.get(theorem)
    if fn is None:
        raise PreconditionUnmet(
            f"unknown theorem {theorem!r}; known: {sorted(_THEOREMS)}"
        )
    field_free = theorem in FIELD_FREE_THEOREMS
    _require(F is not None or field_free, "this verification needs a field")
    passed, details = fn(G, F, budget=budget)
    return VerifyReport(theorem, passed, None if field_free else F.q, details)


def _v_thm2(G, F, *, budget):
    _require(G.is_log_divergent(), "Thm2 is about log-divergent graphs")
    _require(G.h >= 2 and G.n >= 2, "Thm2 needs h_G, n_G >= 2")
    a = c2_param(G, F, budget=budget)
    b = c2_dual(G, F, budget=budget)
    return a == b, {"c2_param": a, "c2_dual": b}


def _v_sec3(G, F, *, budget):
    _require(G.n >= 3, "the position-space theorem needs n_G >= 3")
    N, n = G.edge_count, G.n
    if N < 2 * n:
        a = c2_pos(G, F, budget=budget)
        return a == 0, {"case": "N < 2n", "c2_pos": a}
    _require(N == 2 * n, "needs N_G <= 2 n_G")
    a = c2_pos(G, F, budget=budget)
    b = c2_dual(G, F, budget=budget)
    return a == b, {"case": "N = 2n", "c2_pos": a, "c2_dual": b}


def _v_thm20(G, F, *, budget):
    _require(G.h >= 2, "thm20 needs at least two loops")
    rep = sing_count(G, F, "jacobian", budget=budget)
    return rep.raw % F.q == 0, {"sing_count": rep.raw, "mod_q": rep.mod_q}


def _v_prop1(G, F, *, budget):
    _require(G.h >= 2, "Prop1 needs at least two loops")
    rep = count_zeros([phi(G)], F, G.edge_count, budget=budget)
    return rep.raw % F.q**2 == 0, {"phi_count": rep.raw, "mod_q2": rep.mod_q2}


def _v_c216(G, F, *, budget):
    lhs = quadric_union_count(G, F, budget=budget).raw % F.q**3
    rhs = quadric_congruence_rhs(G, F, budget=budget)
    return lhs == rhs, {"lhs_mod_q3": lhs, "rhs_mod_q3": rhs}


def _v_c220(G, F, *, budget):
    _require(G.edge_count <= 2 * G.n and G.n >= 2, "c220 needs N <= 2n, n >= 2")
    rep = quadric_union_count(G, F, budget=budget)
    return rep.raw % F.q**2 == 0, {"raw": rep.raw, "mod_q2": rep.mod_q2}


def _v_prop34(G, F, *, budget):
    trees = spanning_tree_count(G)
    details = {"spanning_trees": trees}
    ok = True
    for u in range(G.h + 1):
        r, _ = census(G, u, 0, budget=budget)
        expect = math.comb(G.h, u) * trees
        details[f"r({u},0)"] = r
        ok = ok and r == expect
    for u in range(G.n + 1):
        r, _ = census(G, 0, u, budget=budget)
        expect = math.comb(G.n, u) * trees
        details[f"r(0,{u})"] = r
        ok = ok and r == expect
    return ok, details


def _v_cor35(G, F, *, budget):
    _require(G.is_log_divergent(), "cor35 is about log-divergent graphs")
    details = {}
    ok = True
    for u in range(G.h + 1):
        a, _ = census(G, u, 0, budget=budget)
        b, _ = census(G, 0, u, budget=budget)
        details[f"u={u}"] = [a, b]
        ok = ok and a == b
    return ok, details


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


def _v_lem36(G, F, *, budget):
    n = G.n
    _require(is_isomorphic(G, family("Gn", n)), "lem36 is about the G_n family")
    r12, _ = census(G, 1, 2, budget=budget)
    r21, _ = census(G, 2, 1, budget=budget)
    e12, e21 = lem36_closed_forms(n)
    details = {"r12": r12, "r12_formula": e12, "r21": r21, "r21_formula": e21, "n": n}
    return r12 == e12 and r21 == e21, details


def _v_p4(G, F, *, budget):
    _require(G.h >= 3, "p4 needs h_G >= 3")
    tri = _find_triangle(G)
    _require(tri is not None, "p4 needs a triangle")
    a = c2_dual_triangle(G, tri, F, budget=budget)
    b = c2_dual(G, F, budget=budget)
    return a == b, {"triangle": sorted(tri), "reduced": a, "c2_dual": b}


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
# Census statements: they take no field and are checked once, not per q.
FIELD_FREE_THEOREMS = frozenset({"prop34", "cor35", "lem36"})


# -- verdict assembly ----------------------------------------------------------


@dataclass
class C2Verdict:
    graph: str
    q: int
    c2_param: int | None = None
    c2_param_reason: str = ""
    c2_dual: int | None = None
    c2_dual_reason: str = ""
    c2_pos: int | None = None
    c2_pos_reason: str = ""
    c2_pos_quotient_mod_q3: int | None = None

    def to_json(self) -> dict:
        return asdict(self)


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
    graph: str = "",
    *,
    budget=None,
) -> C2Verdict:
    """Compute the requested c2 residues, recording why any is undefined.

    Each leg is computed on its own: a leg whose preconditions fail, whose
    count is not divisible by q^2, or whose enumeration exceeds the budget
    records that as its reason and keeps the other legs' values.
    """
    v = C2Verdict(graph=graph, q=F.q)
    if "param" in spaces:
        v.c2_param, v.c2_param_reason = _leg(c2_param, G, F, budget=budget)
    if "dual" in spaces:
        v.c2_dual, v.c2_dual_reason = _leg(c2_dual, G, F, budget=budget)
    if "pos" in spaces:
        quotients, v.c2_pos_reason = _leg(_pos_quotients, G, F, budget=budget)
        if quotients is not None:
            v.c2_pos, v.c2_pos_quotient_mod_q3 = quotients
    return v

