"""Exhaustive and reduction-based point counting over small finite fields.

Counts are exact Python integers; residues are derived from the raw count,
never computed by wraparound.  One lattice walker, ``_walk``, enumerates
the points in blocks for every brute-force count, parametric here and
position-space in ``quadrics``; each constraint supplies a block evaluator,
vectorized with numpy: direct modular arithmetic for prime q, table lookups
for prime powers.  Parallel runs split the outer assignments into ordered
chunks, so totals are independent of the schedule.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import BudgetExceeded, PreconditionUnmet
from .fields import FqField
from .graphs import Graph, spanning_trees
from .matform import eval_rank, p_matrix
from .multipoly import MLPoly, phi

DEFAULT_BUDGET = 10**8
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
    if q**n_vars > budget:
        raise BudgetExceeded(
            f"enumerating q^n = {q}^{n_vars} points exceeds the budget {budget}"
        )


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


def _eval_block_prime(monos, p, outer, cols, n_outer):
    block = len(cols[0]) if cols else 1
    acc = np.zeros(block, dtype=np.int64)
    pending = 0
    for coeff, pos, wide in monos:
        scalar = coeff % p
        inner = []
        for t in pos:
            if t < n_outer:
                scalar = scalar * outer[t] % p
            else:
                inner.append(t - n_outer)
        if scalar == 0:
            continue
        if inner:
            term = cols[inner[0]] * scalar
            for t in inner[1:]:
                term = term * cols[t]
                if wide:
                    term %= p
            acc += term
        else:
            acc += scalar
        pending += 1
        if pending >= _WINDOW:
            acc %= p
            pending = 0
    return acc % p


def _eval_block_tables(monos, F: FqField, outer, cols, n_outer):
    block = len(cols[0]) if cols else 1
    mul, add = F.mul_table, F.add_table
    acc = np.zeros(block, dtype=np.uint8)
    for coeff, pos in monos:
        scalar = F.embed_int(coeff)
        inner = []
        for t in pos:
            if t < n_outer:
                scalar = F.mul(scalar, outer[t])
            else:
                inner.append(t - n_outer)
        if scalar == 0:
            continue
        term = np.full(block, scalar, dtype=np.uint8)
        for t in inner:
            term = mul[term, cols[t]]
        acc = add[acc, term]
    return acc


def _walk(
    evaluators, F: FqField, values: np.ndarray, m: int, *, any_zero: bool = False, threads: int = 1
) -> int:
    """Points of values^m where every evaluator vanishes (or, with
    ``any_zero``, at least one does).

    The last b coordinates form an inner block of at most _BLOCK_TARGET
    points; the others are enumerated one outer assignment at a time.  Each
    evaluator maps (outer, cols, n_outer) to its values over the block, as
    int64 residues for prime q and uint8 field elements otherwise.
    """
    L = len(values)
    if not evaluators:
        return 0 if any_zero else L**m
    b = 0
    while b < m and L ** (b + 1) <= _BLOCK_TARGET:
        b += 1
    n_outer = m - b
    cols = _inner_columns(values, b)
    if not F.is_prime:
        cols = [c.astype(np.uint8) for c in cols]
    block = len(cols[0]) if cols else 1
    outer_space = itertools.product([int(v) for v in values], repeat=n_outer)

    def run(chunk) -> int:
        total = 0
        for outer in chunk:
            mask = np.full(block, not any_zero)
            for ev in evaluators:
                # Binding vals keeps each block's values alive while the next
                # is computed; freeing them first made malloc trim and re-fault
                # the heap, which doubled the time of quadric_union_count.
                vals = ev(outer, cols, n_outer)
                if any_zero:
                    mask |= vals == 0
                else:
                    mask &= vals == 0
                if mask.all() if any_zero else not mask.any():
                    break
            total += int(mask.sum())
        return total

    if threads <= 1:
        return run(outer_space)
    outer_list = list(outer_space)
    size = max(1, (len(outer_list) + threads - 1) // threads)
    chunks = [outer_list[i : i + size] for i in range(0, len(outer_list), size)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return sum(pool.map(run, chunks))


def _nonconstant(polys, F: FqField, n_vars: int):
    """The polynomials that involve variables, with their sorted variables;
    None when a nonzero constant leaves the system without zeros."""
    kept = []
    for P in polys:
        if P.variables():
            kept.append(P)
        elif F.embed_int(P.constant_term()) != 0:
            return None
    used = sorted(set().union(*(P.variables() for P in kept)))
    if n_vars < len(used):
        raise PreconditionUnmet(f"system uses {len(used)} variables but ambient is {n_vars}")
    return kept, used


def _count_common_zeros(polys, F: FqField, n_vars: int, torus: bool, threads: int = 1) -> int:
    """Exact number of common zeros in affine space (or the torus)."""
    split = _nonconstant(polys, F, n_vars)
    if split is None:
        return 0
    polys, used = split
    q, m = F.q, len(used)
    var_index = {v: i for i, v in enumerate(used)}
    evaluators = []
    for P in polys:
        monos = [(c, tuple(var_index[v] for v in mono)) for mono, c in P.terms()]
        if F.is_prime:
            monos = [(c % F.p, pos, _wide(pos, F.p)) for c, pos in monos if c % F.p]
            if monos:  # a polynomial that vanished mod p constrains nothing
                evaluators.append(partial(_eval_block_prime, monos, F.p))
        else:
            evaluators.append(partial(_eval_block_tables, monos, F))
    values = np.arange(1, q, dtype=np.int64) if torus else np.arange(q, dtype=np.int64)
    return _walk(evaluators, F, values, m, threads=threads) * len(values) ** (n_vars - m)


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

_reduced_memo: dict = {}

_MAX_SYSTEM = 4
_MAX_MONOS = 4000


def count_reduced(
    P: MLPoly, F: FqField, n_vars: int | None = None, *, budget: int | None = None
) -> CountReport:
    """Count zeros of a multilinear polynomial by variable elimination.

    Elimination of a variable in which every polynomial in the working
    system is linear splits the count into three smaller subproblems
    (cofactor system, resultant minors, leading-coefficient system); the
    recursion is memoized on the renamed canonical form and falls back to
    direct enumeration for systems too bushy to profit.  ``budget`` bounds
    the points enumerated by all fallbacks together.
    """
    if not P.is_multilinear():
        raise PreconditionUnmet("count_reduced expects a multilinear polynomial")
    if n_vars is None:
        n_vars = len(P.variables())
    budget = DEFAULT_BUDGET if budget is None else budget
    raw = _count_system([P], F, n_vars, budget, [0])
    return CountReport.from_raw(raw, F.q, n_vars)


def _canonical_system(polys, used):
    rename = {v: i + 1 for i, v in enumerate(used)}
    fps = []
    for P in polys:
        fps.append(
            tuple(sorted((tuple(rename[x] for x in m), c) for m, c in P.terms()))
        )
    return tuple(sorted(fps))


def _count_system(polys, F: FqField, n_vars: int, budget: int, spent: list) -> int:
    """Raw count of the system; ``spent[0]`` accumulates enumerated points."""
    split = _nonconstant(polys, F, n_vars)
    if split is None:
        return 0
    system, used = split
    q, m = F.q, len(used)
    if not system:
        return q**n_vars
    system = sorted(set(system), key=lambda P: sorted(P.terms()))
    free = q ** (n_vars - m)
    key = (q, F.irreducible, _canonical_system(system, used))
    got = _reduced_memo.get(key)
    if got is not None:
        return got * free

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
    _reduced_memo[key] = raw
    return raw * free


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
    ``rank`` tests rank P_G(alpha) < n_G - 1 point by point.
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
        P = p_matrix(G)
        n = G.n
        labels = sorted(G.labels)
        raw = 0
        for point_vals in itertools.product(F.elements(), repeat=N):
            point = dict(zip(labels, point_vals))
            if eval_rank(P, point, F) < n - 1:
                raw += 1
        return CountReport.from_raw(raw, F.q, N)
    raise PreconditionUnmet(f"unknown sing_count method {method!r}")
