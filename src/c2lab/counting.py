"""Exhaustive and reduction-based point counting over small finite fields.

Counts are exact Python integers; residues are derived from the raw count,
never computed by wraparound.  One lattice walker, ``_walk``, enumerates
the points in blocks for every brute-force count, parametric here and
position-space in ``quadrics`` (quadric systems, and the edge weights of
the quadric union), and sums a tally per block: the zeros of polynomials,
or a joint histogram of zero coordinates and matrix ranks.

A walk of F_q^m fixes the first m - b coordinates (the outer assignment)
and takes the last b as an inner block of at most 2^16 points.  Every
polynomial is evaluated on a block by one bilinear evaluator, ``_Bilinear``,
the same for every q and set up once per list of polynomials.  The block's
coordinates split into b1 row coordinates and b2 = ceil(b / 2) column
coordinates, with R and B values, and

    P(outer, rows, columns) = sum_{j,k} V_j(rows) W_jk(outer) M_k(columns),

where j and k run over the J distinct row parts and the K distinct column
parts of the monomials of the whole list.  The row monomials V (J x R) and
the column monomials M (K x B) are built once per walk.  Per block, each
polynomial's W (J x K) sums each of its terms' coefficient times its outer
factors into the cell of its row and column part, and a slice of n
polynomials is evaluated by one stacked product V^T [W_1 ... W_n] M, mod
p, each polynomial's values raveled row-major, so the last coordinate
varies fastest.  A slice holds max(1, _BLOCK_TARGET // (R B)) polynomials,
so its values never exceed one block's 2^16.  Over q = p^s every factor is
expanded over F_p: an element of V^T or W becomes its s x s multiplication
matrix and an element of M its s digits (``FqField.mul_matrix``,
``FqField.digits``), so one float matrix product serves every field, and
the digits of the values recombine into codes.  The products are not
reduced in between: every partial sum is an integer of at most
J K s^2 (p - 1)^3, for the J and K of the list's union, so the list's
products run in float32 while that is below 2^23, in float64 while it is
below 2^52 (one bit under each exact range, for the reduction mod p), and
raise past that.  A common zero count reduces each slice's values to one
mask of the block, and stops between slices once the block is settled;
``count_zeros_each`` counts the zeros of every polynomial of a list on its
own, from one walk and one set-up.

Most counts are of cones.  When the tallied per-point function is
invariant under x -> lambda x (the zeros of homogeneous polynomials, the
zero count and rank of a matrix whose entries share one degree), the walk
takes one outer assignment per line through the origin, with weight
q - 1, plus the zero assignment: 1/(q - 1) of the outer assignments.
Non-homogeneous systems take the plain walk over every outer assignment.

The elimination counter ``count_reduced`` works on polynomials over Z, so
one elimination serves several fields (``count_reduced_fields``); only its
fallback enumerations walk one field.  A subsystem in m variables is split
only while q^m exceeds ``_ENUMERATE_POINTS`` (2^22) points; below that it
is enumerated, which costs less than the minors of further splits.  The
choice depends on q and m alone, so each field walks the tree that a call
with it alone walks, and ``budget`` counts these enumerations as fallback
points.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import asdict, dataclass, replace

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
        return asdict(replace(self, raw=str(self.raw)))


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


def _compile(polys, F: FqField, var_index: dict) -> tuple:
    """The system as (coefficients, exponents, sizes), variable v at lattice
    coordinate ``var_index[v]``: the terms of each polynomial in turn that
    survive mod p, their coefficients mod p, a terms x len(var_index)
    exponent matrix, and the number of terms of each polynomial.  An
    exponent e >= 1 becomes 1 + (e - 1) mod (q - 1), as x^q = x on F_q.  A
    polynomial that vanishes mod p has no terms and evaluates to 0, so it
    covers every point of a union."""
    m = len(var_index)
    kept = [[(c % F.p, mono) for mono, c in P.terms() if c % F.p] for P in polys]
    terms = [t for ts in kept for t in ts]
    starts = np.repeat(np.arange(len(terms)) * m, [len(mono) for _, mono in terms])
    flat = np.array([var_index[v] for _, mono in terms for v in mono], dtype=np.intp)
    exps = np.bincount(starts + flat, minlength=len(terms) * m).reshape(len(terms), m)
    exps = np.where(exps > 0, (exps - 1) % (F.q - 1) + 1, 0)
    return np.array([c for c, _ in terms], dtype=np.intp), exps, [len(ts) for ts in kept]


def _distinct(keys: np.ndarray, size: int):
    """The distinct values of ``keys``, integers below ``size``, in
    increasing order, and the index of each key among them."""
    index = np.zeros(size, dtype=np.intp)
    index[keys] = 1
    distinct = np.flatnonzero(index)
    index[distinct] = np.arange(len(distinct))
    return distinct, index[keys]


class _Bilinear:
    """The values of a compiled list of polynomials (see ``_compile``) on the
    blocks of a walk of F_q^m (of the torus, with ``torus``), by the matrix
    product of the module docstring.  Calling it with an outer assignment
    yields the codes of the block's points in the walk's order one slice of
    the list at a time, as an array with a row per polynomial of the slice,
    so that a caller can stop early between slices.

    The monomial tables V and M are built once for the union of the list's
    row and column parts, and each polynomial's W is J x K over that union,
    so a slice of n polynomials is one stacked product V^T [W_1 ... W_n] M
    (an n x J x K stack of W, in the cheaper of its two associations), in
    the one dtype that the union's bound J K s^2 (p - 1)^3 allows.  A slice
    holds max(1, _BLOCK_TARGET // (R B)) polynomials, so its values never
    exceed one block's worth.  ``slices`` holds the range of polynomials of
    each slice, in order."""

    def __init__(self, compiled, F: FqField, m: int, torus: bool):
        coeffs, exps, sizes = compiled
        values, b = _block(F, m, torus)
        q, p, s = F.q, F.p, F.s
        n_outer, b2 = m - b, (b + 1) // 2

        def parts(lo, hi):
            """The codes of the list's distinct exponent vectors of
            coordinates lo..hi-1 as monomials at every point of those
            coordinates of the block (one row per vector, the last
            coordinate varying fastest), and the index of each term's vector
            among them.  The vectors are read as base-q keys, below
            q^(hi - lo) <= q^b."""
            radix = q ** np.arange(hi - lo)
            union, where = _distinct(exps[:, lo:hi] @ radix, q ** (hi - lo))
            part = union[:, None] // radix % q
            vals = np.ones((len(union), 1), dtype=np.intp)
            # one coordinate at a time: vector x coordinate x value
            for factor in F.pow_table[values, part[:, :, None]].transpose(1, 0, 2):
                vals = F.mul_table[vals[:, :, None], factor[:, None, :]]
                vals = vals.reshape(len(union), vals.shape[1] * vals.shape[2])
            return vals, where

        V, row = parts(n_outer, m - b2)
        M, col = parts(m - b2, m)
        (J, R), (K, B) = V.shape, M.shape
        # V^T W sums J s products of digits; times M, K s products of those
        # sums with digits: at most J K s^2 (p - 1)^3, unreduced
        dtype = _gemm_dtype(J * K * s * s * (p - 1) ** 3)
        self.mul_matrix = F.mul_matrix.astype(dtype)
        # V^T as R x J blocks of multiplication matrices, M as K x B digit columns
        self.V = self.mul_matrix[V.T].transpose(0, 2, 1, 3).reshape(R * s, J * s)
        self.M = F.digits.astype(dtype)[M].transpose(0, 2, 1).reshape(K * s, B)
        n, per = len(sizes), max(1, _BLOCK_TARGET // (R * B))
        self.slices = [range(a, min(a + per, n)) for a in range(0, n, per)]
        starts = [0, *itertools.accumulate(sizes)]
        self.spans = [(starts[r.start], starts[r.stop]) for r in self.slices]
        # the bin of digit i of each term in the digits of its slice's
        # stack of n J x K matrices W
        digit = np.arange(s)
        stacked = (np.repeat(np.arange(n) % per, sizes) * J + row) * K + col
        self.bins = (stacked[:, None] * s + digit).ravel()
        # the cheaper order of the exact, associative product V^T W M
        self.right_first = J * K * B + R * J * B < R * J * K * s + R * K * B
        self.F, self.J, self.K, self.R = F, J, K, R
        self.coeffs, self.outer_exps = coeffs, exps[:, :n_outer]
        self.place = p**digit

    def __call__(self, outer):
        F, s, p = self.F, self.F.s, self.F.p
        J, K, R, B = self.J, self.K, self.R, self.M.shape[1]
        terms = self.coeffs  # times the outer factors of each term
        for i, x in enumerate(outer):
            terms = F.mul_table[terms, F.pow_table[x, self.outer_exps[:, i]]]
        term_digits = F.digits[terms]
        for polys, (a, e) in zip(self.slices, self.spans):
            n = len(polys)
            sums = np.bincount(
                self.bins[a * s : e * s], weights=term_digits[a:e].ravel(), minlength=n * J * K * s
            )
            W = self.mul_matrix[(sums.reshape(n, J, K, s) % p).astype(np.intp) @ self.place]
            W = W.transpose(0, 1, 3, 2, 4).reshape(n, J * s, K * s)
            vals = self.V @ (W @ self.M) if self.right_first else (self.V @ W) @ self.M
            digits = _mod(vals, p).reshape(n, R, s, B)
            vals = digits[:, :, s - 1]
            for i in range(s - 2, -1, -1):  # digits to codes, by Horner's rule
                vals = vals * p + digits[:, :, i]
            yield vals.reshape(n, R * B)


def _walk(tally, F: FqField, m: int, *, torus: bool = False, cone: bool = False):
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
    return sum(weight * tally(outer) for outer, weight in weighted)


def _walk_zeros(
    compiled,
    F: FqField,
    m: int,
    *,
    any_zero: bool = False,
    torus: bool = False,
    cone: bool = False,
) -> int:
    """Points of F_q^m (or the torus) where every polynomial of a compiled
    system (see ``_compile``) vanishes (or, with ``any_zero``, at least one
    does); ``cone`` is for homogeneous polynomials (see ``_walk``).  Each
    slice's values (see ``_Bilinear``) reduce to one mask of the block, and
    the walk of a block stops after the slice that settles every point."""
    if not compiled[2]:  # no polynomials
        return 0 if any_zero else (F.q - 1 if torus else F.q) ** m
    evaluate = _Bilinear(compiled, F, m, torus)

    def tally(outer) -> int:
        mask = None
        for vals in evaluate(outer):
            for zero in vals == 0:
                mask = zero if mask is None else (mask | zero if any_zero else mask & zero)
            if mask.all() if any_zero else not mask.any():
                break
        return int(np.count_nonzero(mask))

    return _walk(tally, F, m, torus=torus, cone=cone)


def _degrees(P: MLPoly, p: int) -> set:
    """Degrees of the terms of P that survive mod p."""
    return {len(mono) for mono, c in P.terms() if c % p}


def rank_histogram(M: PolyMatrix, F: FqField, labels) -> list[list[int]]:
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

    return _walk(tally, F, N, cone=cone).reshape(N + 1, d + 1).tolist()


def _prepare(polys, F: FqField, n_vars: int, torus: bool):
    """The walk of a list of polynomials over F_q^{n_vars} (the torus, with
    ``torus``): (fixed, walked, used, cone).  A polynomial whose
    coefficients all vanish mod p is zero at every point, and a nonzero
    constant at none; ``fixed`` maps the position of each of these in the
    list to its zero count.  The others are ``walked``, in order, over the
    lattice of their variables ``used``, sorted; ``cone`` says whether each
    is homogeneous mod p, so that their zeros are cones (see ``_walk``)."""
    fixed, walked = {}, []
    for i, P in enumerate(polys):
        if all(c % F.p == 0 for _, c in P.terms()):
            fixed[i] = (F.q - 1 if torus else F.q) ** n_vars
        elif not P.variables():
            fixed[i] = 0
        else:
            walked.append(P)
    used = sorted(set().union(*(P.variables() for P in walked)))
    if n_vars < len(used):
        raise PreconditionUnmet(f"system uses {len(used)} variables but ambient is {n_vars}")
    cone = all(len(_degrees(P, F.p)) == 1 for P in walked)
    return fixed, walked, used, cone


def _count_common_zeros(polys, F: FqField, n_vars: int, torus: bool) -> int:
    """Exact number of common zeros in affine space (or the torus), by one
    walk of the polynomials that are not constant mod p."""
    fixed, walked, used, cone = _prepare(polys, F, n_vars, torus)
    if 0 in fixed.values():
        return 0
    m = len(used)
    compiled = _compile(walked, F, {v: i for i, v in enumerate(used)})
    raw = _walk_zeros(compiled, F, m, torus=torus, cone=cone)
    return raw * (F.q - 1 if torus else F.q) ** (n_vars - m)


def count_zeros(polys, F: FqField, n_vars: int, *, budget: int | None = None) -> CountReport:
    """Common zeros of the system in affine space F_q^{n_vars}."""
    _check_budget(F.q, n_vars, budget)
    raw = _count_common_zeros(list(polys), F, n_vars, torus=False)
    return CountReport.from_raw(raw, F.q, n_vars)


def count_zeros_torus(polys, F: FqField, n_vars: int, *, budget: int | None = None) -> CountReport:
    """Common zeros with every coordinate nonzero."""
    _check_budget(F.q, n_vars, budget)
    raw = _count_common_zeros(list(polys), F, n_vars, torus=True)
    return CountReport.from_raw(raw, F.q, n_vars)


def count_zeros_each(
    polys, F: FqField, n_vars: int, *, torus: bool = False, budget: int | None = None
) -> list[CountReport]:
    """The zeros of each polynomial of ``polys`` in F_q^{n_vars} (on the
    torus, with ``torus``), in order: what one ``count_zeros`` (or
    ``count_zeros_torus``) call per polynomial reports, from one walk of the
    lattice of all their variables and one evaluator set-up.  The walk takes
    one line at a time only when every polynomial walked is homogeneous."""
    _check_budget(F.q, n_vars, budget)
    polys = list(polys)
    fixed, walked, used, cone = _prepare(polys, F, n_vars, torus)
    m, zeros = len(used), iter(())
    if walked:
        evaluate = _Bilinear(_compile(walked, F, {v: i for i, v in enumerate(used)}), F, m, torus)

        def tally(outer) -> np.ndarray:
            return np.concatenate([np.count_nonzero(vals == 0, axis=1) for vals in evaluate(outer)])

        zeros = iter(_walk(tally, F, m, torus=torus, cone=cone).tolist())
    scale = (F.q - 1 if torus else F.q) ** (n_vars - m)
    raws = [fixed[i] if i in fixed else next(zeros) * scale for i in range(len(polys))]
    return [CountReport.from_raw(raw, F.q, n_vars) for raw in raws]


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
# A subsystem in m variables is enumerated over F_q, not split, once q^m is
# at most this many points: below it the walk costs less than the products
# of the minors and the set-up of the many small walks a split leads to.
_ENUMERATE_POINTS = 64 * _BLOCK_TARGET


def count_reduced(
    P: MLPoly, F: FqField, n_vars: int | None = None, *, budget: int | None = None
) -> CountReport:
    """Count zeros of a multilinear polynomial by variable elimination.

    Elimination of a variable in which every polynomial in the working
    system is linear splits the count into three smaller subproblems
    (cofactor system, resultant minors, leading-coefficient system).  The
    recursion enumerates a subsystem in m variables over F_q instead when
    q^m is at most ``_ENUMERATE_POINTS`` (2^22) points, and for systems too
    bushy to profit (no linear variable, more than ``_MAX_SYSTEM``
    polynomials or ``_MAX_MONOS`` monomials).  So a polynomial whose whole
    lattice has at most 2^22 points is enumerated at once.  ``budget``
    bounds the points of all these enumerations together (the fallback
    points); over several fields (``count_reduced_fields``) it applies to
    each field on its own.
    """
    return count_reduced_fields(P, [F], n_vars, budget=budget)[0]


def count_reduced_fields(
    P: MLPoly, fields, n_vars: int | None = None, *, budget: int | None = None
) -> list[CountReport]:
    """``count_reduced`` over each field of ``fields``, in order, from one
    elimination over Z: only the fallback enumerations run per field.
    ``budget`` applies to each field: it bounds the points enumerated by
    that field's fallbacks together.
    """
    if not P.is_multilinear():
        raise PreconditionUnmet("count_reduced expects a multilinear polynomial")
    if n_vars is None:
        n_vars = len(P.variables())
    budget = DEFAULT_BUDGET if budget is None else budget
    fields = list(fields)
    raws = _count_system([P], dict(enumerate(fields)), n_vars, budget, [0] * len(fields))
    return [CountReport.from_raw(raws[i], F.q, n_vars) for i, F in enumerate(fields)]


def _count_system(polys, fields: dict, n_vars: int, budget: int, spent: list) -> dict:
    """Raw count of the system over each field of ``fields`` (index -> F_q),
    by index; ``spent[i]`` accumulates the points enumerated for field i.

    Over F_q the system keeps the polynomials that do not vanish mod p, and
    a kept constant leaves no zeros.  The fields that keep the same
    polynomials share each elimination step, made once over Z: the step
    q a + b - c holds over every field for polynomials with integer
    coefficients read mod p, and only the fallback enumerations run per
    field.  So each field walks the tree that a call with it alone walks."""
    # the gcd of the coefficients (0 for the zero polynomial) of each
    # polynomial and constant: it vanishes mod p exactly when p divides it
    constants, system = [], []
    for P in polys:
        g = math.gcd(*[c for _, c in P.terms()])
        if P.monomial_count() < 2 and not P.degree():
            constants.append(g)
        else:
            system.append((P, g))
    groups = {}
    for i, F in fields.items():
        p = F.p
        if not any(g % p for g in constants):
            groups.setdefault(frozenset([P for P, g in system if g % p]), {})[i] = F
    out = dict.fromkeys(fields, 0)
    for kept, group in groups.items():
        if kept:
            out.update(_eliminate(list(kept), group, n_vars, budget, spent))
        else:
            out.update((i, F.q**n_vars) for i, F in group.items())
    return out


def _eliminate(system, fields: dict, n_vars: int, budget: int, spent: list) -> dict:
    """``_count_system`` of one or more nonconstant polynomials that vanish
    mod no field's characteristic."""
    monos = [mono for P in system for mono, _ in P.terms()]
    occ = Counter(v for mono in monos for v in mono)  # of a linear v: the monomials holding it
    used = sorted(occ)
    if n_vars < len(used):
        raise PreconditionUnmet(f"system uses {len(used)} variables but ambient is {n_vars}")
    m = len(used)
    # monomials are sorted tuples, so a repeated variable repeats in place
    squared = {x for mono in monos for x, y in zip(mono, mono[1:]) if x == y}
    linear_vars = [v for v in used if v not in squared]
    splits = linear_vars and len(system) <= _MAX_SYSTEM and len(monos) <= _MAX_MONOS
    eliminated = {i: F for i, F in fields.items() if splits and F.q**m > _ENUMERATE_POINTS}
    raw = {}
    for i, F in fields.items():
        if i in eliminated:
            continue
        spent[i] += F.q**m
        if spent[i] > budget:
            raise BudgetExceeded(
                f"count_reduced's enumeration fallbacks exceed the budget of {budget} points"
            )
        raw[i] = _count_common_zeros(system, F, m, torus=False)
    if eliminated:
        v = max(linear_vars, key=lambda x: (occ[x], -x))
        gs, hs = [], []
        for P in system:
            g, h = P.coeff_and_rest(v)
            gs.append(g)
            hs.append(h)
        a = _count_system(gs + hs, eliminated, m - 1, budget, spent)
        c = _count_system(gs, eliminated, m - 1, budget, spent)
        minors = [
            gs[i] * hs[j] - gs[j] * hs[i]
            for i in range(len(system))
            for j in range(i + 1, len(system))
        ]
        b = _count_system(minors, eliminated, m - 1, budget, spent)
        raw.update((i, F.q * a[i] + b[i] - c[i]) for i, F in eliminated.items())
    return {i: raw[i] * F.q ** (n_vars - m) for i, F in fields.items()}


# -- singular locus ----------------------------------------------------------


def sing_count(
    G: Graph,
    F: FqField,
    method: str = "jacobian",
    *,
    budget: int | None = None,
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
        return count_zeros(polys, F, N, budget=budget)
    if method == "jacobian_tree":
        T = sorted(spanning_trees(G), key=lambda t: sorted(t))[0]
        polys = [f] + [f.coeff_and_rest(k)[0] for k in sorted(T)]
        return count_zeros(polys, F, N, budget=budget)
    if method == "rank":
        hist = rank_histogram(p_matrix(G), F, sorted(G.labels))
        raw = sum(c for row in hist for r, c in enumerate(row) if r < G.n - 1)
        return CountReport.from_raw(raw, F.q, N)
    raise PreconditionUnmet(f"unknown sing_count method {method!r}")
