"""Position-space counting: the union of propagator quadrics.

Every vertex v <= n carries a 4-vector x_v over F_q (the last vertex is
pinned to zero); an edge (s, t) contributes the quadric
|x_s - x_t|^2 = y^1 y^2 + y^3 y^4 in the difference y.  The main count is
the number of points of F_q^{4n} where the product of all edge quadrics
vanishes.  Enumeration goes through the parametric kernel's lattice
walker, one block evaluator per quadric; a naive per-point evaluator is
kept as an independent oracle.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

from .counting import CountReport, count_zeros, sing_count, _check_budget, _walk
from .errors import PreconditionUnmet
from .fields import FqField
from .graphs import Graph, delete, is_connected
from .matform import eval_rank, p_matrix
from .multipoly import phi


def _coord_index(v: int, j: int) -> int:
    """Flat coordinate index for vertex v (1-based), component j in 0..3."""
    return 4 * (v - 1) + j


def _edge_quadrics(G: Graph):
    """(s, t) vertex pairs per edge, with the pinned vertex mapped to None."""
    pinned = G.vertex_count
    out = []
    for u, v in G.edges:
        out.append((u if u != pinned else None, v if v != pinned else None))
    return out


def _quadric(F: FqField, s, t):
    """Block evaluator of the edge quadric d^0 d^1 + d^2 d^3, d = x_s - x_t.

    A coordinate is a scalar when it is outer (or pinned) and a column when
    it is inner.  A difference or product of two scalars stays a scalar, on
    the table path too, where numpy indexing broadcasts.
    """

    def coord(outer, cols, n_outer, v, j):
        if v is None:
            return 0
        i = _coord_index(v, j)
        return outer[i] if i < n_outer else cols[i - n_outer]

    if F.is_prime:
        dtype = np.int64
        sub, mul, add = operator.sub, operator.mul, operator.add
    else:
        dtype = np.uint8
        add_t, mul_t, neg_t = F.add_table, F.mul_table, F.neg_table

        def sub(a, b):
            return add_t[a, neg_t[b]]

        def mul(a, b):
            return mul_t[a, b]

        def add(a, b):
            return add_t[a, b]

    def evaluate(outer, cols, n_outer):
        acc = np.zeros(len(cols[0]) if cols else 1, dtype=dtype)
        for j in (0, 2):
            d1 = sub(coord(outer, cols, n_outer, s, j), coord(outer, cols, n_outer, t, j))
            d2 = sub(coord(outer, cols, n_outer, s, j + 1), coord(outer, cols, n_outer, t, j + 1))
            acc = add(acc, mul(d1, d2))
        return acc % F.p if F.is_prime else acc

    return evaluate


def quadric_union_count(
    G: Graph, F: FqField, *, budget: int | None = None, threads: int = 1
) -> CountReport:
    """Points of F_q^{4n} where q_1 * ... * q_N vanishes."""
    n = G.n
    if n < 1:
        raise PreconditionUnmet("position space needs at least one free vertex")
    m = 4 * n
    _check_budget(F.q, m, budget)
    q = F.q
    pairs = _edge_quadrics(G)
    if any(s == t for s, t in pairs):
        # a self-loop's quadric is identically zero: the union is everything
        return CountReport.from_raw(q**m, q, m)
    evaluators = [_quadric(F, s, t) for s, t in pairs]
    values = np.arange(q, dtype=np.int64)
    raw = _walk(evaluators, F, values, m, any_zero=True, threads=threads)
    return CountReport.from_raw(raw, q, m)


def quadric_union_count_direct(G: Graph, F: FqField, limit: int = 1 << 20) -> int:
    """Independent oracle: one plain Python loop over every lattice point."""
    n = G.n
    m = 4 * n
    if F.q**m > limit:
        raise PreconditionUnmet("direct quadric oracle is for tiny inputs only")
    pairs = _edge_quadrics(G)
    count = 0
    for point in itertools.product(F.elements(), repeat=m):

        def comp(v, j):
            return 0 if v is None else point[_coord_index(v, j)]

        for s, t in pairs:
            acc = 0
            for j in (0, 2):
                d1 = F.sub(comp(s, j), comp(t, j))
                d2 = F.sub(comp(s, j + 1), comp(t, j + 1))
                acc = F.add(acc, F.mul(d1, d2))
            if acc == 0:
                count += 1
                break
    return count


def quadric_system_count(
    G: Graph, F: FqField, edge_subset, *, budget: int | None = None, threads: int = 1
) -> int:
    """Common zeros of the quadrics of ``edge_subset`` in F_q^{4n}."""
    m = 4 * G.n
    _check_budget(F.q, m, budget)
    subset = set(edge_subset)
    evaluators = [
        _quadric(F, s, t) for lab, (s, t) in zip(G.labels, _edge_quadrics(G)) if lab in subset
    ]
    values = np.arange(F.q, dtype=np.int64)
    return _walk(evaluators, F, values, m, threads=threads)


def restricted_matrix_rank_sums(G: Graph, F: FqField, edge_subset):
    """Point statistics of P_G(alpha) with variables outside the subset zeroed.

    Returns (sum of q^(2*corank), #{det = 0}, #{rank < n-1}) over all
    assignments to the surviving variables.
    """
    labels = sorted(set(edge_subset))
    P = p_matrix(G)
    n = G.n
    q = F.q
    others = {lab: 0 for lab in G.labels if lab not in labels}
    s_corank = 0
    n_sing = 0
    n_deep = 0
    for vals in itertools.product(F.elements(), repeat=len(labels)):
        point = dict(zip(labels, vals))
        point.update(others)
        r = eval_rank(P, point, F)
        corank = n - r
        s_corank += q ** (2 * corank)
        if corank > 0:
            n_sing += 1
        if r < n - 1:
            n_deep += 1
    return s_corank, n_sing, n_deep


def quadric_congruence_rhs(G: Graph, F: FqField, *, budget: int | None = None) -> int:
    """Right side of the mod-q^3 congruence for the quadric union count.

    (-q)^(2n-N) ([phi_G] + q^2 [Sing(Z_G)] - q sum_i [phi_{G\\i}]
                 + q^2 sum_{i<j} [phi_{G\\ij}])   (mod q^3)
    """
    N, n = G.edge_count, G.n
    if N > 2 * n:
        raise PreconditionUnmet("the congruence needs N_G <= 2 n_G")
    if not is_connected(G):
        raise PreconditionUnmet("the congruence is stated for connected graphs")
    q = F.q
    phi_count = count_zeros([phi(G)], F, N, budget=budget).raw
    sing = sing_count(G, F, "jacobian", budget=budget).raw
    sum_one = 0
    labels = sorted(G.labels)
    for i in labels:
        sum_one += count_zeros([phi(delete(G, {i}))], F, N - 1, budget=budget).raw
    sum_two = 0
    for i, j in itertools.combinations(labels, 2):
        sum_two += count_zeros([phi(delete(G, {i, j}))], F, N - 2, budget=budget).raw
    total = (-q) ** (2 * n - N) * (
        phi_count + q**2 * sing - q * sum_one + q**2 * sum_two
    )
    return total % q**3
