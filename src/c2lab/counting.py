"""Exhaustive and reduction-based point counting over small finite fields.

Counts are exact Python integers; residues are derived from the raw count,
never computed by wraparound.  One lattice walker, ``_walk``, enumerates
the points in blocks for every brute-force count, parametric here and
position-space in ``quadrics`` (quadric systems, and the edge weights of
the quadric union), and sums a tally per block: the zeros of block
evaluators, or a joint histogram of zero coordinates and matrix ranks.  Evaluators are vectorized
with numpy through the field's array arithmetic (``FqField.vmul`` and
friends).  Parallel runs split the outer assignments into ordered chunks,
so totals are independent of the schedule.

Most counts are of cones.  When the tallied per-point function is
invariant under x -> lambda x (the zeros of homogeneous polynomials, the
zero count and rank of a matrix whose entries share one degree), the walk
takes one outer assignment per line through the origin, with weight
q - 1, plus the zero assignment: 1/(q - 1) of the outer assignments.
Non-homogeneous systems take the plain walk over every outer assignment.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DEFAULT_BUDGET, BudgetExceeded, PreconditionUnmet, check_budget
from .fields import FqField
from .graphs import Graph, spanning_trees
from .matform import PolyMatrix, block_rank, p_matrix
from .multipoly import MLPoly, phi

_BLOCK_TARGET = 1 << 16
_WINDOW = 40000  # int64 terms summed between reductions mod p


@dataclass(frozen=True)
class CountReport:
    raw: int
    q: int
    n_vars: int
    mod_q: int
    mod_q2: int
    mod_q3: int
    quotient_c2: int | None

    @staticmethod
    def from_raw(raw: int, q: int, n_vars: int) -> "CountReport":
        quot = (raw // q**2) % q if raw % q**2 == 0 else None
        return CountReport(raw, q, n_vars, raw % q, raw % q**2, raw % q**3, quot)

    def to_json(self) -> dict:
        return {
            "raw": str(self.raw),
            "q": self.q,
            "n_vars": self.n_vars,
            "mod_q": self.mod_q,
            "mod_q2": self.mod_q2,
            "mod_q3": self.mod_q3,
            "quotient_c2": self.quotient_c2,
        }


def _check_budget(q: int, n_vars: int, budget: int | None):
    budget = DEFAULT_BUDGET if budget is None else budget
    check_budget(q**n_vars, budget, f"enumerating q^n = {q}^{n_vars} points")


def _inner_columns(values: np.ndarray, b: int):
    """Value grids for b nested enumeration variables (last varies fastest)."""
    L = len(values)
    cols = []
    for j in range(b):
        reps_inside = L ** (b - 1 - j)
        tile = np.repeat(values, reps_inside)
        cols.append(np.tile(tile, L**j))
    return cols


def _wide(pos, p: int) -> bool:
    """Whether _WINDOW unreduced products of this monomial (a scalar and
    len(pos) factors, each below p) could sum past the int64 range."""
    return _WINDOW * (p - 1) ** (len(pos) + 1) + p >= 2**63


def _eval_block(monos, F: FqField, outer, cols, n_outer):
    """Values of a compiled polynomial over one block, reduced.

    Each monomial's outer factors fold into a scalar; its inner factors are
    columns.  Between reductions at most _WINDOW terms are summed, and a
    ``wide`` monomial is reduced after each factor (see ``_wide``).
    """
    acc = 0
    for k, (coeff, pos, wide) in enumerate(monos):
        if k % _WINDOW == 0:
            acc = F.reduce(acc)
        scalar = coeff
        inner = []
        for t in pos:
            if t < n_outer:
                scalar = F.reduce(F.vmul(scalar, outer[t]))
            else:
                inner.append(t - n_outer)
        if scalar == 0:
            continue
        if inner:
            # term is rebound only once its successor exists: freeing it
            # first made malloc trim and re-fault the heap (psi(wheel:6) at
            # q = 3: 180k minor faults against 2k).
            term = F.vmul(cols[inner[0]], scalar)
            for t in inner[1:]:
                term = F.vmul(term, cols[t])
                if wide:
                    term = F.reduce(term)
            acc = F.vadd(acc, term)
        else:
            acc = F.vadd(acc, scalar)
    return F.reduce(acc)


def _walk(tally, F: FqField, m: int, *, torus: bool = False, cone: bool = False, threads: int = 1):
    """Sum of ``tally(outer, cols, n_outer)`` over the blocks of F_q^m (of
    the torus, with ``torus``).

    The last b coordinates form an inner block of at most _BLOCK_TARGET
    points, given as columns of codes; the others are enumerated one outer
    assignment at a time.  A tally is an int or a numpy array.

    With ``cone``, the tally must sum a per-point function f with
    f(lambda x) = f(x) for every lambda != 0.  Scaling maps each inner block
    onto itself (its values are all of F_q, or all of F_q^*), so the tally
    at lambda * outer equals the tally at outer, and the walk visits one
    outer assignment per line through the origin: the zero assignment with
    weight 1 (affine walks only), then each assignment whose first nonzero
    coordinate is 1, with weight q - 1.
    """
    values = np.arange(1 if torus else 0, F.q)
    L = len(values)
    b = 0
    while b < m and L ** (b + 1) <= _BLOCK_TARGET:
        b += 1
    n_outer = m - b
    cols = _inner_columns(F.codes(values), b)
    ints = [int(v) for v in values]
    if cone and n_outer:
        # (outer, weight) pairs; on the torus no coordinate is 0, so the
        # leading 1 is the first coordinate
        weighted = itertools.chain(
            [] if torus else [((0,) * n_outer, 1)],
            (
                ((0,) * k + (1,) + rest, F.q - 1)
                for k in range(1 if torus else n_outer)
                for rest in itertools.product(ints, repeat=n_outer - k - 1)
            ),
        )
    else:
        weighted = zip(itertools.product(ints, repeat=n_outer), itertools.repeat(1))

    def run(chunk):
        total = 0
        for outer, weight in chunk:
            total += weight * tally(outer, cols, n_outer)
        return total

    if threads <= 1 or n_outer == 0:  # a single block has nothing to split
        return run(weighted)
    outer_list = list(weighted)
    size = max(1, (len(outer_list) + threads - 1) // threads)
    chunks = [outer_list[i : i + size] for i in range(0, len(outer_list), size)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return sum(pool.map(run, chunks))


def _walk_zeros(
    evaluators,
    F: FqField,
    m: int,
    *,
    any_zero: bool = False,
    torus: bool = False,
    cone: bool = False,
    threads: int = 1,
) -> int:
    """Points of F_q^m (or the torus) where every evaluator vanishes (or,
    with ``any_zero``, at least one does).  Each evaluator maps (outer,
    cols, n_outer) to its reduced values over the block; ``cone`` is for
    evaluators of homogeneous polynomials (see ``_walk``)."""
    if not evaluators:
        return 0 if any_zero else (F.q - 1 if torus else F.q) ** m
    # The last block's values stay referenced until the next block has its
    # own: freeing them with each block made malloc trim and re-fault the
    # heap (the union of Gn:4 at q = 3 took 892k minor faults, 3k held).
    held = [None]

    def tally(outer, cols, n_outer) -> int:
        mask = np.full(len(cols[0]) if cols else 1, not any_zero)
        for ev in evaluators:
            vals = ev(outer, cols, n_outer)
            if any_zero:
                mask |= vals == 0
            else:
                mask &= vals == 0
            if mask.all() if any_zero else not mask.any():
                break
        held[0] = vals
        return int(mask.sum())

    return _walk(tally, F, m, torus=torus, cone=cone, threads=threads)


def _degrees(P: MLPoly, p: int) -> set:
    """Degrees of the terms of P that survive mod p."""
    return {len(mono) for mono, c in P.terms() if c % p}


def rank_histogram(M: PolyMatrix, F: FqField, labels, *, threads: int = 1) -> list[list[int]]:
    """Entry [z][r] counts the points of F_q^labels with z zero coordinates
    where M has rank r; every variable of M must be among ``labels``.  The
    entries are Python ints, so weighted sums of them cannot wrap.

    When every nonzero entry of M is homogeneous of one common degree,
    M(lambda t) = lambda^deg M(t) keeps both the rank and the zero count,
    so the walk takes one point per line (see ``_walk``)."""
    N, d = len(labels), M.dim
    cone = len(set().union(*(_degrees(e, F.p) for row in M.entries for e in row))) <= 1

    def tally(outer, cols, n_outer) -> np.ndarray:
        point = {
            lab: outer[i] if i < n_outer else cols[i - n_outer] for i, lab in enumerate(labels)
        }
        zeros = sum(x == 0 for x in outer) + sum(c == 0 for c in cols)
        return np.bincount(zeros * (d + 1) + block_rank(M, point, F), minlength=(N + 1) * (d + 1))

    return _walk(tally, F, N, cone=cone, threads=threads).reshape(N + 1, d + 1).tolist()


def _nonconstant(polys, F: FqField, n_vars: int):
    """The polynomials that involve variables, with their sorted variables;
    None when a nonzero constant leaves the system without zeros.  A
    polynomial whose coefficients all vanish mod p constrains nothing, like
    a zero constant, and is dropped."""
    kept = []
    for P in polys:
        if all(c % F.p == 0 for _, c in P.terms()):
            continue
        if not P.variables():
            return None
        kept.append(P)
    used = sorted(set().union(*(P.variables() for P in kept)))
    if n_vars < len(used):
        raise PreconditionUnmet(f"system uses {len(used)} variables but ambient is {n_vars}")
    return kept, used


def _evaluators(polys, F: FqField, var_index: dict) -> list:
    """One block evaluator per polynomial, with variable v at lattice
    coordinate ``var_index[v]``.  Terms that vanish mod p are dropped, so a
    polynomial that vanishes mod p evaluates to 0 and covers every point of
    a union."""
    out = []
    for P in polys:
        monos = [(c % F.p, tuple(var_index[v] for v in mono)) for mono, c in P.terms()]
        out.append(partial(_eval_block, [(c, pos, _wide(pos, F.p)) for c, pos in monos if c], F))
    return out


def _count_common_zeros(polys, F: FqField, n_vars: int, torus: bool, threads: int = 1) -> int:
    """Exact number of common zeros in affine space (or the torus).  When
    every polynomial is homogeneous mod p its zeros form a cone, walked
    one line at a time."""
    split = _nonconstant(polys, F, n_vars)
    if split is None:
        return 0
    polys, used = split
    q, m = F.q, len(used)
    cone = all(len(_degrees(P, F.p)) == 1 for P in polys)
    evaluators = _evaluators(polys, F, {v: i for i, v in enumerate(used)})
    raw = _walk_zeros(evaluators, F, m, torus=torus, cone=cone, threads=threads)
    return raw * (q - 1 if torus else q) ** (n_vars - m)


def count_zeros(
    polys, F: FqField, n_vars: int, *, budget: int | None = None, threads: int = 1
) -> CountReport:
    """Common zeros of the system in affine space F_q^{n_vars}."""
    _check_budget(F.q, n_vars, budget)
    raw = _count_common_zeros(list(polys), F, n_vars, torus=False, threads=threads)
    return CountReport.from_raw(raw, F.q, n_vars)


def count_zeros_torus(
    polys, F: FqField, n_vars: int, *, budget: int | None = None, threads: int = 1
) -> CountReport:
    """Common zeros with every coordinate nonzero."""
    _check_budget(F.q, n_vars, budget)
    raw = _count_common_zeros(list(polys), F, n_vars, torus=True, threads=threads)
    return CountReport.from_raw(raw, F.q, n_vars)


def chevalley_warning_check(polys, F: FqField, n_vars: int, *, budget: int | None = None) -> bool:
    """Chevalley-Warning: sum of degrees below n_vars forces q | count."""
    polys = list(polys)
    total_deg = sum(P.degree() for P in polys)
    if total_deg >= n_vars:
        raise PreconditionUnmet(
            f"total degree {total_deg} is not below the variable count {n_vars}"
        )
    raw = count_zeros(polys, F, n_vars, budget=budget).raw
    return raw % F.q == 0


def count_via_torus_strata(
    P: MLPoly, F: FqField, ambient, *, budget: int | None = None
) -> int:
    """Affine count assembled from torus counts of coordinate strata.

    [P] = sum over subsets I of the ambient variables of [P|_{a_I=0}]',
    each stratum counted on its own torus.
    """
    ambient = sorted(ambient)
    total = 0
    for t in range(len(ambient) + 1):
        for I in itertools.combinations(ambient, t):
            total += count_zeros_torus(
                [P.subs_zero(I)], F, len(ambient) - t, budget=budget
            ).raw
    return total


def count_via_inclusion_exclusion(
    P: MLPoly, F: FqField, ambient, *, budget: int | None = None
) -> int:
    """Affine count via [P] = [P]' + sum_t (-1)^(t+1) sum_{|I|=t} [P|_{a_I=0}]."""
    ambient = sorted(ambient)
    total = count_zeros_torus([P], F, len(ambient), budget=budget).raw
    for t in range(1, len(ambient) + 1):
        sign = 1 if t % 2 == 1 else -1
        for I in itertools.combinations(ambient, t):
            total += sign * count_zeros(
                [P.subs_zero(I)], F, len(ambient) - t, budget=budget
            ).raw
    return total


# -- reduction-based counting ------------------------------------------------

_MAX_SYSTEM = 4
_MAX_MONOS = 4000


def count_reduced(
    P: MLPoly, F: FqField, n_vars: int | None = None, *, budget: int | None = None
) -> CountReport:
    """Count zeros of a multilinear polynomial by variable elimination.

    Elimination of a variable in which every polynomial in the working
    system is linear splits the count into three smaller subproblems
    (cofactor system, resultant minors, leading-coefficient system); the
    recursion falls back to direct enumeration for systems too bushy to
    profit.  ``budget`` bounds the points enumerated by all fallbacks
    together.
    """
    if not P.is_multilinear():
        raise PreconditionUnmet("count_reduced expects a multilinear polynomial")
    if n_vars is None:
        n_vars = len(P.variables())
    budget = DEFAULT_BUDGET if budget is None else budget
    raw = _count_system([P], F, n_vars, budget, [0])
    return CountReport.from_raw(raw, F.q, n_vars)


def _count_system(polys, F: FqField, n_vars: int, budget: int, spent: list) -> int:
    """Raw count of the system; ``spent[0]`` accumulates enumerated points."""
    split = _nonconstant(polys, F, n_vars)
    if split is None:
        return 0
    system, used = split
    q, m = F.q, len(used)
    if not system:
        return q**n_vars
    system = list(set(system))
    linear_vars = [v for v in used if all(P.linear_in(v) for P in system)]
    total_monos = sum(P.monomial_count() for P in system)
    if not linear_vars or len(system) > _MAX_SYSTEM or total_monos > _MAX_MONOS:
        spent[0] += q**m
        if spent[0] > budget:
            raise BudgetExceeded(
                f"count_reduced's enumeration fallbacks exceed the budget of {budget} points"
            )
        raw = _count_common_zeros(system, F, m, torus=False)
    else:
        occ = {
            v: sum(1 for P in system for mm, _ in P.terms() if v in mm)
            for v in linear_vars
        }
        v = max(linear_vars, key=lambda x: (occ[x], -x))
        gs, hs = [], []
        for P in system:
            g, h = P.coeff_and_rest(v)
            gs.append(g)
            hs.append(h)
        a = _count_system(gs + hs, F, m - 1, budget, spent)
        c = _count_system(gs, F, m - 1, budget, spent)
        minors = [
            gs[i] * hs[j] - gs[j] * hs[i]
            for i in range(len(system))
            for j in range(i + 1, len(system))
        ]
        b = _count_system(minors, F, m - 1, budget, spent)
        raw = q * a + b - c
    return raw * q ** (n_vars - m)


# -- singular locus ----------------------------------------------------------


def sing_count(
    G: Graph,
    F: FqField,
    method: str = "jacobian",
    *,
    budget: int | None = None,
    threads: int = 1,
) -> CountReport:
    """Points of Sing(Z_G): phi and all its partials vanish.

    Three routes (they must agree): ``jacobian`` uses every partial,
    ``jacobian_tree`` only the partials of one spanning tree's edges, and
    ``rank`` counts the points where rank P_G(alpha) < n_G - 1.
    """
    N = G.edge_count
    _check_budget(F.q, N, budget)
    f = phi(G)
    if method == "jacobian":
        polys = [f] + [f.coeff_and_rest(k)[0] for k in sorted(G.labels)]
        return count_zeros(polys, F, N, budget=budget, threads=threads)
    if method == "jacobian_tree":
        T = sorted(spanning_trees(G), key=lambda t: sorted(t))[0]
        polys = [f] + [f.coeff_and_rest(k)[0] for k in sorted(T)]
        return count_zeros(polys, F, N, budget=budget, threads=threads)
    if method == "rank":
        hist = rank_histogram(p_matrix(G), F, sorted(G.labels), threads=threads)
        raw = sum(c for row in hist for r, c in enumerate(row) if r < G.n - 1)
        return CountReport.from_raw(raw, F.q, N)
    raise PreconditionUnmet(f"unknown sing_count method {method!r}")
