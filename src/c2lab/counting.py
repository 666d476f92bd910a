"""Exhaustive and reduction-based point counting over small finite fields.

Counts are exact Python integers; residues are derived from the raw count,
never computed by wraparound.  One lattice walker, ``_walk``, enumerates
the points in blocks for every brute-force count, parametric here and
position-space in ``quadrics`` (quadric systems, and the edge weights of
the quadric union), and sums a tally per block: the zeros of polynomials,
or a joint histogram of zero coordinates and matrix ranks.  Parallel runs
split the outer assignments into ordered chunks, so totals are
independent of the schedule.

A walk of F_q^m fixes the first m - b coordinates (the outer assignment)
and takes the last b as an inner block of at most 2^16 points.  Every
polynomial is evaluated on a block by one bilinear evaluator, ``_Bilinear``,
the same for every q.  The block's coordinates split into b1 row
coordinates and b2 = ceil(b / 2) column coordinates, with R and B values,
and

    P(outer, rows, columns) = sum_{j,k} V_j(rows) W_jk(outer) M_k(columns),

where j and k run over the J distinct row parts and the K distinct column
parts of P's monomials.  The row monomials V (J x R) and the column
monomials M (K x B) are built once per walk.  Per block, W (J x K) sums
each term's coefficient times its outer factors into the cell of its row
and column part, and the block's values are (V^T W M) mod p, raveled
row-major, so the last coordinate varies fastest.  Over q = p^s every
factor is expanded over F_p: an element of V^T or W becomes its s x s
multiplication matrix and an element of M its s digits
(``FqField.mul_matrix``, ``FqField.digits``), so one float matrix product
serves every field, and the digits of the values recombine into codes.
The products are not reduced in between: every partial sum is an integer
of at most J K s^2 (p - 1)^3, so they run in float32 while that is below
2^23, in float64 while it is below 2^52 (one bit under each exact range,
for the reduction mod p), and raise past that.

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

import numpy as np

from .errors import DEFAULT_BUDGET, BudgetExceeded, PreconditionUnmet, check_budget
from .fields import FqField
from .graphs import Graph, spanning_trees
from .matform import PolyMatrix, block_rank, p_matrix
from .multipoly import MLPoly, phi

_BLOCK_TARGET = 1 << 16
# Float dtypes, each with the bound below which integers and their
# reduction mod p (see ``_mod``) are exact: one bit under the exact range.
_EXACT_DTYPES = ((np.float32, 2**23), (np.float64, 2**52))


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


def _block(F: FqField, m: int, torus: bool):
    """(values, b): the values of a coordinate (F_q, or F_q^* on the torus)
    and the number b of last coordinates that form the inner block, the
    most whose points fit in _BLOCK_TARGET."""
    values = np.arange(1 if torus else 0, F.q)
    b = 0
    while b < m and len(values) ** (b + 1) <= _BLOCK_TARGET:
        b += 1
    return values, b


def _grid(values: np.ndarray, b: int) -> np.ndarray:
    """The b x L^b values of b nested coordinates, the last varying fastest."""
    L = len(values)
    return values[np.indices((L,) * b).reshape(b, L**b)]


def _gemm_dtype(bound: int):
    """The float dtype in which matrix products whose partial sums are
    integers up to ``bound`` are exact, and so is their reduction mod p."""
    for dtype, limit in _EXACT_DTYPES:
        if bound < limit:
            return dtype
    raise PreconditionUnmet(f"matrix products with sums up to {bound} would not be exact")


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p, in place, for a float array of integers below the bound of
    its dtype in _EXACT_DTYPES.  floor(x * (1/p)) is then off by at most one
    from floor(x / p), and x - p * floor(...) lies in [-p, 2p) exactly; far
    faster than ``np.fmod``, whose cost grows with x / p."""
    k = x * (1 / p)
    np.floor(k, out=k)
    k *= p
    x -= k
    np.add(x, p, out=x, where=x < 0)
    np.subtract(x, p, out=x, where=x >= p)
    return x


def _compile(polys, F: FqField, var_index: dict) -> list:
    """Each polynomial as (coefficients, exponents), with variable v at
    lattice coordinate ``var_index[v]``: the terms that survive mod p, their
    coefficients mod p, and a terms x len(var_index) exponent matrix.  An
    exponent e >= 1 becomes 1 + (e - 1) mod (q - 1), as x^q = x on F_q.  A
    polynomial that vanishes mod p has no terms and evaluates to 0, so it
    covers every point of a union."""
    m = len(var_index)
    out = []
    for P in polys:
        terms = [(c % F.p, mono) for mono, c in P.terms() if c % F.p]
        starts = np.repeat(np.arange(len(terms)) * m, [len(mono) for _, mono in terms])
        flat = np.array([var_index[v] for _, mono in terms for v in mono], dtype=np.intp)
        exps = np.bincount(starts + flat, minlength=len(terms) * m).reshape(len(terms), m)
        exps = np.where(exps > 0, (exps - 1) % (F.q - 1) + 1, 0)
        out.append((np.array([c for c, _ in terms], dtype=np.intp), exps))
    return out


class _Bilinear:
    """The values of one compiled polynomial on the blocks of a walk of
    F_q^m (of the torus, with ``torus``), by the matrix product of the
    module docstring.  Calling it with an outer assignment gives the codes
    of the block's points in the walk's order."""

    def __init__(self, compiled, F: FqField, m: int, torus: bool):
        coeffs, exps = compiled
        values, b = _block(F, m, torus)
        q, p, s = F.q, F.p, F.s
        n_outer, b2 = m - b, (b + 1) // 2

        def parts(lo, hi):
            """The distinct exponent vectors of coordinates lo..hi-1 among
            the terms, and the index of each term's.  The vectors are read
            as base-q keys, below q^(hi - lo) <= q^b."""
            radix = q ** np.arange(hi - lo)
            keys = exps[:, lo:hi] @ radix
            index = np.zeros(q ** (hi - lo), dtype=np.intp)
            index[keys] = 1
            distinct = np.flatnonzero(index)
            index[distinct] = np.arange(len(distinct))
            return distinct[:, None] // radix % q, index[keys]

        def monomials(part, grid):
            """Codes of the monomials ``part`` at every point of ``grid``."""
            vals = np.ones((len(part), grid.shape[1]), dtype=np.intp)
            for i, row in enumerate(grid):
                vals = F.mul_table[vals, F.pow_table[row, part[:, i, None]]]
            return vals

        row_part, row_index = parts(n_outer, m - b2)
        col_part, col_index = parts(m - b2, m)
        J, K = len(row_part), len(col_part)
        V = monomials(row_part, _grid(values, b - b2))  # J x R
        M = monomials(col_part, _grid(values, b2))  # K x B
        R, B = len(values) ** (b - b2), len(values) ** b2
        # V^T W sums J s products of digits; times M, K s products of those
        # sums with digits: at most J K s^2 (p - 1)^3, unreduced
        dtype = _gemm_dtype(J * K * s * s * (p - 1) ** 3)
        # V^T as R x J blocks of multiplication matrices, M as K x B digit columns
        self.V = F.mul_matrix[V.T].transpose(0, 2, 1, 3).reshape(R * s, J * s).astype(dtype)
        self.M = F.digits[M].transpose(0, 2, 1).reshape(K * s, B).astype(dtype)
        self.mul_matrix = F.mul_matrix.astype(dtype)
        # the cheaper order of the exact, associative product V^T W M
        self.right_first = J * K * B + R * J * B < R * J * K * s + R * K * B
        self.F, self.J, self.K, self.R = F, J, K, R
        self.coeffs, self.outer_exps = coeffs, exps[:, :n_outer]
        # the bin of digit i of each term in the digits of the J x K matrix W
        self.bins = ((row_index * K + col_index)[:, None] * s + np.arange(s)).ravel()
        self.place = p ** np.arange(s)

    def __call__(self, outer) -> np.ndarray:
        F, J, K, s, p = self.F, self.J, self.K, self.F.s, self.F.p
        terms = self.coeffs  # times the outer factors of each term
        for i, x in enumerate(outer):
            terms = F.mul_table[terms, F.pow_table[x, self.outer_exps[:, i]]]
        sums = np.bincount(self.bins, weights=F.digits[terms].ravel(), minlength=J * K * s)
        W = (sums.reshape(J, K, s) % p).astype(np.intp) @ self.place
        W = self.mul_matrix[W].transpose(0, 2, 1, 3).reshape(J * s, K * s)
        vals = self.V @ (W @ self.M) if self.right_first else (self.V @ W) @ self.M
        _mod(vals, p)
        if s > 1:  # digits to codes, by Horner's rule
            digits = vals.reshape(self.R, s, vals.shape[1])
            vals = digits[:, s - 1]
            for i in range(s - 2, -1, -1):
                vals = vals * p + digits[:, i]
        return vals.ravel()


def _walk(tally, F: FqField, m: int, *, torus: bool = False, cone: bool = False, threads: int = 1):
    """Sum of ``tally(outer)`` over the blocks of F_q^m (of the torus, with
    ``torus``).

    The last b coordinates form an inner block of at most _BLOCK_TARGET
    points (see ``_block``); the others are enumerated one outer assignment
    at a time, and ``tally`` gets each as a tuple of codes.  A tally is an
    int or a numpy array.

    With ``cone``, the tally must sum a per-point function f with
    f(lambda x) = f(x) for every lambda != 0.  Scaling maps each inner block
    onto itself (its values are all of F_q, or all of F_q^*), so the tally
    at lambda * outer equals the tally at outer, and the walk visits one
    outer assignment per line through the origin: the zero assignment with
    weight 1 (affine walks only), then each assignment whose first nonzero
    coordinate is 1, with weight q - 1.
    """
    values, b = _block(F, m, torus)
    n_outer = m - b
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
            total += weight * tally(outer)
        return total

    if threads <= 1 or n_outer == 0:  # a single block has nothing to split
        return run(weighted)
    outer_list = list(weighted)
    size = max(1, (len(outer_list) + threads - 1) // threads)
    chunks = [outer_list[i : i + size] for i in range(0, len(outer_list), size)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return sum(pool.map(run, chunks))


def _walk_zeros(
    compiled,
    F: FqField,
    m: int,
    *,
    any_zero: bool = False,
    torus: bool = False,
    cone: bool = False,
    threads: int = 1,
) -> int:
    """Points of F_q^m (or the torus) where every compiled polynomial (see
    ``_compile``) vanishes (or, with ``any_zero``, at least one does);
    ``cone`` is for homogeneous polynomials (see ``_walk``)."""
    if not compiled:
        return 0 if any_zero else (F.q - 1 if torus else F.q) ** m
    evaluators = [_Bilinear(c, F, m, torus) for c in compiled]

    def tally(outer) -> int:
        mask = None
        for ev in evaluators:
            zero = ev(outer) == 0
            mask = zero if mask is None else (mask | zero if any_zero else mask & zero)
            if mask.all() if any_zero else not mask.any():
                break
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
    values, b = _block(F, N, False)
    cols, n_outer = _grid(F.codes(values), b), N - b
    inner_zeros = (cols == 0).sum(axis=0)

    def tally(outer) -> np.ndarray:
        point = {
            lab: outer[i] if i < n_outer else cols[i - n_outer] for i, lab in enumerate(labels)
        }
        zeros = sum(x == 0 for x in outer) + inner_zeros
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
    compiled = _compile(polys, F, {v: i for i, v in enumerate(used)})
    raw = _walk_zeros(compiled, F, m, torus=torus, cone=cone, threads=threads)
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
