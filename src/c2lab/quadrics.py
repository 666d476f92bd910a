"""Position-space counting: the union of propagator quadrics.

Every vertex v <= n carries a 4-vector x_v over F_q (the last vertex is
pinned to zero).  Edge e contributes the quadric y^1 y^2 + y^3 y^4 of
y = sum_i r_e[i] x_i, where r_e is its ``graphs.incidence`` row; for an
edge (s, t) this is |x_s - x_t|^2.  The main count is the number of
points of F_q^{4n} where the product of all edge quadrics vanishes.

It is counted by a character sum over edge weights, not over the q^{4n}
points.  One row rule covers the special edges: edges with equal rows
(parallel edges) share a quadric, and an empty row (a self-loop) has the
zero quadric, which covers every point.  So let q_1..q_N' be the quadrics
of the distinct nonempty rows.  With an additive character psi of F_q,
[a != 0] is q^{-1} sum_t c(t) psi(t a), where c(0) = q - 1 and
c(t) = -1 for t != 0.  Multiplying over the edges and summing over x gives

  #{x : all q_e(x) != 0}
      = q^{-N'} sum_{t in F_q^N'} (q-1)^{z(t)} (-1)^{N'-z(t)} S(t),

with z(t) the number of zero weights and S(t) = sum_x psi(sum_e t_e q_e(x)).
Write y^j for the vector of the j-th coordinates of the free vertices and
L(t) = sum_e t_e r_e r_e^T (``matform.gram_matrix``) for the vertex matrix.
Then sum_e t_e q_e(x) = (y^1)^T L(t) y^2 + (y^3)^T L(t) y^4.  Each term is
bilinear, so in every characteristic its character sum is
q^n * #ker L(t) = q^{2n - rank L(t)}, and S(t) = q^{4n - 2 rank L(t)}.  The
count thus needs only the joint histogram of (z(t), rank L(t)) over the
q^N' weights, which is ``counting.rank_histogram``; the identity asks for
no connectivity.

The budget guard stays on the q^{4n} points the union counts, the
documented ``q^n_vars <= budget`` contract of the counting commands; the
q^N' weights walked are guarded too, since N' can pass 4n from n = 8 on.

The lattice routes see each edge quadric as an ``MLPoly`` in the 4n
coordinates and leave the walking to ``counting``: ``quadric_system_count``
is one ``count_zeros`` call, and the test oracle ``quadric_union_count_walk``
walks the 4n-lattice for a point where some quadric vanishes.  A naive
per-point loop, ``quadric_union_count_direct``, is kept as an oracle
independent of the walker.
"""

from __future__ import annotations

import itertools

from .counting import (
    CountReport, count_zeros, count_zeros_each, rank_histogram, sing_count, _check_budget, _compile,
    _walk_zeros,
)
from .errors import PreconditionUnmet
from .fields import FqField
from .graphs import Graph, delete, incidence, is_connected
from .matform import PolyMatrix, gram_matrix, p_matrix
from .multipoly import MLPoly, phi

# The most points the direct per-point oracle loops over.
_DIRECT_LIMIT = 1 << 20


def _quadric_poly(row) -> MLPoly:
    """The quadric y^0 y^1 + y^2 y^3 of y = sum_i c_i x_i over an incidence
    row of (index i, coefficient c_i), where coordinate j of x_i is the
    variable 4i+j+1.  An empty row (a self-loop) gives the zero polynomial."""
    y = [MLPoly({(4 * i + j + 1,): c for i, c in row}) for j in range(4)]
    return y[0] * y[1] + y[2] * y[3]


def quadric_union_count(G: Graph, F: FqField, *, budget: int | None = None) -> CountReport:
    """Points of F_q^{4n} where q_1 * ... * q_N vanishes, by the character
    sum over edge weights of the module docstring."""
    n = G.n
    if n < 1:
        raise PreconditionUnmet("position space needs at least one free vertex")
    m = 4 * n
    _check_budget(F.q, m, budget)
    q = F.q
    rows = sorted(set(incidence(G)))  # edges with equal rows share a quadric
    if () in rows:
        # an empty row's quadric is identically zero: the union is everything
        return CountReport.from_raw(q**m, q, m)
    N = len(rows)
    _check_budget(q, N, budget)
    labels = range(1, N + 1)
    hist = rank_histogram(gram_matrix(rows, labels, n), F, labels)
    total = sum(
        c * (q - 1) ** z * (-1) ** (N - z) * q ** (m - 2 * r)
        for z, row in enumerate(hist)
        for r, c in enumerate(row)
    )
    nonzero, rem = divmod(total, q**N)
    assert rem == 0, "the character sum over edge weights is not divisible by q^N'"
    return CountReport.from_raw(q**m - nonzero, q, m)


def quadric_union_count_walk(G: Graph, F: FqField, *, budget: int | None = None) -> CountReport:
    """Test oracle: the union walked on the 4n-lattice, coordinate i at
    lattice index i - 1 (a self-loop's zero quadric covers every point).
    The quadrics are homogeneous, so their union is a cone, walked one line
    at a time."""
    n = G.n
    if n < 1:
        raise PreconditionUnmet("position space needs at least one free vertex")
    m = 4 * n
    _check_budget(F.q, m, budget)
    polys = [_quadric_poly(row) for row in incidence(G)]
    compiled = _compile(polys, F, {i: i - 1 for i in range(1, m + 1)})
    raw = _walk_zeros(compiled, F, m, any_zero=True, cone=True)
    return CountReport.from_raw(raw, F.q, m)


def quadric_union_count_direct(G: Graph, F: FqField) -> int:
    """Independent oracle: one plain Python loop over every lattice point."""
    n = G.n
    m = 4 * n
    if F.q**m > _DIRECT_LIMIT:
        raise PreconditionUnmet("direct quadric oracle is for tiny inputs only")
    pinned = G.vertex_count
    count = 0
    for point in itertools.product(F.elements(), repeat=m):

        def comp(v, j):
            return 0 if v == pinned else point[4 * (v - 1) + j]

        for s, t in G.edges:
            acc = 0
            for j in (0, 2):
                d1 = F.sub(comp(s, j), comp(t, j))
                d2 = F.sub(comp(s, j + 1), comp(t, j + 1))
                acc = F.add(acc, F.mul(d1, d2))
            if acc == 0:
                count += 1
                break
    return count


def quadric_system_count(G: Graph, F: FqField, edge_subset, *, budget: int | None = None) -> int:
    """Common zeros of the quadrics of ``edge_subset`` in F_q^{4n}."""
    subset = set(edge_subset)
    polys = [_quadric_poly(row) for lab, row in zip(G.labels, incidence(G)) if lab in subset]
    return count_zeros(polys, F, 4 * G.n, budget=budget).raw


def restricted_matrix_rank_sums(G: Graph, F: FqField, edge_subset):
    """Point statistics of P_G(alpha) with variables outside the subset zeroed.

    Returns (sum of q^(2*corank), #{det = 0}, #{rank < n-1}) over all
    assignments to the surviving variables.
    """
    labels = sorted(set(edge_subset))
    _check_budget(F.q, len(labels), None)
    others = set(G.labels) - set(labels)
    P = PolyMatrix(tuple(tuple(e.subs_zero(others) for e in row) for row in p_matrix(G).entries))
    n = G.n
    hist = [sum(col) for col in zip(*rank_histogram(P, F, labels))]  # over the zero axis
    s_corank = sum(c * F.q ** (2 * (n - r)) for r, c in enumerate(hist))
    n_sing = sum(c for r, c in enumerate(hist) if r < n)
    n_deep = sum(c for r, c in enumerate(hist) if r < n - 1)
    return s_corank, n_sing, n_deep


def quadric_congruence_rhs(G: Graph, F: FqField, *, budget: int | None = None) -> int:
    """Right side of the mod-q^3 congruence for the quadric union count.

    (-q)^(2n-N) ([phi_G] + q^2 [Sing(Z_G)] - q sum_i [phi_{G\\i}]
                 + q^2 sum_{i<j} [phi_{G\\ij}])   (mod q^3)

    phi_G, every phi_{G\\i} and every phi_{G\\ij} are counted by one
    ``count_zeros_each`` call over F_q^N, where a deletion's count is q or
    q^2 times its count over F_q^(N-1) or F_q^(N-2); the divisions are
    asserted exact.
    """
    N, n = G.edge_count, G.n
    if N > 2 * n:
        raise PreconditionUnmet("the congruence needs N_G <= 2 n_G")
    if not is_connected(G):
        raise PreconditionUnmet("the congruence is stated for connected graphs")
    q = F.q
    labels = sorted(G.labels)
    deleted = [{i} for i in labels] + [set(ij) for ij in itertools.combinations(labels, 2)]
    polys = [phi(G)] + [phi(delete(G, d)) for d in deleted]
    phi_count, *counts = (rep.raw for rep in count_zeros_each(polys, F, N, budget=budget))
    sing = sing_count(G, F, "jacobian", budget=budget).raw
    sums = {1: 0, 2: 0}  # the deletions' counts over F_q^(N-1) and F_q^(N-2)
    for d, raw in zip(deleted, counts):
        own, rem = divmod(raw, q ** len(d))
        assert rem == 0, "a deletion's count over F_q^N is not a multiple of q^|deleted|"
        sums[len(d)] += own
    sum_one, sum_two = sums[1], sums[2]
    total = (-q) ** (2 * n - N) * (
        phi_count + q**2 * sing - q * sum_one + q**2 * sum_two
    )
    return total % q**3
