"""Exact multivariate polynomials over Z and the graph polynomial zoo.

Monomials are stored as sorted tuples of variable labels (with repetition,
so products of multilinear polynomials remain representable).  All values
produced directly from graphs -- psi, phi, Dodgson minors, their duals --
are multilinear; squares and resultants appearing in identity checks are
not, which is why the key format allows exponents above one.

``psi`` and ``phi`` read each spanning tree's labels from
``graphs.spanning_tree_labels`` and keep its order as their term order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import BadIndices, IndexOverlap
from .graphs import Graph, edge_mask, incidence, spanning_tree_labels


def _merge(a: tuple, b: tuple) -> tuple:
    return tuple(sorted(a + b))


class MLPoly:
    """Immutable sparse polynomial with exact integer coefficients."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for mono, c in terms.items():
                if c:
                    key = tuple(sorted(mono))
                    clean[key] = clean.get(key, 0) + c
        self._terms = {m: c for m, c in clean.items() if c}
        self._hash = None

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero() -> "MLPoly":
        return MLPoly()

    @staticmethod
    def constant(c: int) -> "MLPoly":
        return MLPoly({(): c})

    @staticmethod
    def variable(i: int) -> "MLPoly":
        return MLPoly({(i,): 1})

    @staticmethod
    def monomial(variables, coeff: int = 1) -> "MLPoly":
        return MLPoly({tuple(sorted(variables)): coeff})

    # -- views -------------------------------------------------------------
    def terms(self):
        return self._terms.items()

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def is_multilinear(self) -> bool:
        return all(len(set(m)) == len(m) for m in self._terms)

    def variables(self) -> frozenset:
        out = set()
        for m in self._terms:
            out.update(m)
        return frozenset(out)

    def degree(self) -> int:
        return max((len(m) for m in self._terms), default=0)

    def monomial_count(self) -> int:
        return len(self._terms)

    # -- ring operations ---------------------------------------------------
    def __add__(self, other):
        if isinstance(other, int):
            other = MLPoly.constant(other)
        out = dict(self._terms)
        for m, c in other._terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        r = MLPoly.__new__(MLPoly)
        r._terms = out
        r._hash = None
        return r

    __radd__ = __add__

    def __neg__(self):
        r = MLPoly.__new__(MLPoly)
        r._terms = {m: -c for m, c in self._terms.items()}
        r._hash = None
        return r

    def __sub__(self, other):
        if isinstance(other, int):
            other = MLPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return MLPoly.zero()
            r = MLPoly.__new__(MLPoly)
            r._terms = {m: c * other for m, c in self._terms.items()}
            r._hash = None
            return r
        out: dict = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = _merge(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
        r = MLPoly.__new__(MLPoly)
        r._terms = out
        r._hash = None
        return r

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined")
        r = MLPoly.constant(1)
        for _ in range(k):
            r = r * self
        return r

    def __eq__(self, other):
        if isinstance(other, int):
            return self._terms == MLPoly.constant(other)._terms
        return isinstance(other, MLPoly) and self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        return f"MLPoly({self.to_text()})"

    # -- structure ---------------------------------------------------------
    def coeff_and_rest(self, k: int) -> tuple["MLPoly", "MLPoly"]:
        """Split P = P^k * a_k + P_k for a polynomial linear in a_k."""
        hi, lo = {}, {}
        for m, c in self._terms.items():
            cnt = m.count(k)
            if cnt == 0:
                lo[m] = c
            elif cnt == 1:
                hi[tuple(x for x in m if x != k)] = c
            else:
                raise BadIndices(f"polynomial is not linear in variable {k}")
        return MLPoly(hi), MLPoly(lo)

    def subs_zero(self, ks) -> "MLPoly":
        ks = set(ks)
        return MLPoly({m: c for m, c in self._terms.items() if not ks & set(m)})

    # -- serialization -----------------------------------------------------
    def _sorted_terms(self):
        def key(item):
            m, _ = item
            return (edge_mask(m), m)

        return sorted(self._terms.items(), key=key)

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for m, c in self._sorted_terms():
            sign = "+" if c >= 0 else "-"
            factors = "".join(f"*a{i}" for i in m)
            parts.append(f"{sign}{abs(c)}{factors}")
        return " ".join(parts)

    def to_json_terms(self) -> list:
        return [[c, list(m)] for m, c in self._sorted_terms()]

    @staticmethod
    def from_json_terms(data) -> "MLPoly":
        return MLPoly({tuple(m): int(c) for c, m in data})


def cremona(P: MLPoly, ambient) -> MLPoly:
    """Monomial-complement transform over the given ambient variable set.

    For multilinear P in variables inside ``ambient`` this is
    P(1/a) * prod(ambient), an involution swapping psi and phi.
    """
    ambient = frozenset(ambient)
    if not P.is_multilinear():
        raise BadIndices("cremona is defined for multilinear polynomials")
    if not P.variables() <= ambient:
        raise BadIndices("polynomial uses variables outside the ambient set")
    return MLPoly({tuple(sorted(ambient - set(m))): c for m, c in P.terms()})


def resultant(f: MLPoly, g: MLPoly, k: int) -> MLPoly:
    """[f, g]_k = f^k g_k - f_k g^k for f, g linear in a_k."""
    fk, f_k = f.coeff_and_rest(k)
    gk, g_k = g.coeff_and_rest(k)
    return fk * g_k - f_k * gk


# -- graph polynomials -----------------------------------------------------


@lru_cache(maxsize=1024)
def psi(G: Graph) -> MLPoly:
    """Sum over spanning trees of the product of edge variables NOT in the tree."""
    full = G.label_set
    return MLPoly({full.difference(t): 1 for t in spanning_tree_labels(G)})


@lru_cache(maxsize=1024)
def phi(G: Graph) -> MLPoly:
    """Sum over spanning trees of the product of edge variables IN the tree."""
    return MLPoly({t: 1 for t in spanning_tree_labels(G)})


# -- the expanded matrix M(G) and its minors --------------------------------


@dataclass(frozen=True)
class DodgsonIndex:
    rows: frozenset
    cols: frozenset
    zeroed: frozenset = frozenset()

    def __post_init__(self):
        if len(self.rows) != len(self.cols):
            raise BadIndices("Dodgson index needs |I| = |J|")


def _m_matrix_rows(G: Graph, I, J, K):
    """Sparse rows of M(G) with edge rows I and edge columns J removed, a_K = 0.

    Row/column order is edge-major (by label) then vertex-major over the
    vertices 1..V-1.  Edge e's row is a_e on the diagonal followed by its
    ``graphs.incidence`` row r_e; the vertex rows hold -r_e^T.  Entries are
    (column, MLPoly) pairs.
    """
    labels = sorted(G.labels)
    row_of = dict(zip(G.labels, incidence(G)))
    col_of_edge = {lab: c for c, lab in enumerate(lab for lab in labels if lab not in J)}
    n_cols_edges = len(col_of_edge)
    const = {1: MLPoly.constant(1), -1: MLPoly.constant(-1)}
    rows = []
    vertex_rows = [[] for _ in range(G.n)]
    for lab in labels:
        r = row_of[lab]
        if lab not in I:
            row = []
            if lab not in J and lab not in K:
                row.append((col_of_edge[lab], MLPoly.variable(lab)))
            row.extend((n_cols_edges + i, const[c]) for i, c in r)
            rows.append(row)
        if lab not in J:
            for i, c in r:
                vertex_rows[i].append((col_of_edge[lab], const[-c]))
    return rows + vertex_rows, n_cols_edges + G.n


def det_sparse(rows, n_cols) -> MLPoly:
    """Determinant of a square matrix given as sparse rows of (column, entry)
    pairs, by first-row cofactor expansion memoized on column sets."""
    if len(rows) != n_cols:
        raise BadIndices("minor is not square")
    full = (1 << n_cols) - 1
    memo: dict[int, MLPoly] = {}  # colmask fixes r = n_cols - popcount(colmask)
    zero = MLPoly.zero()

    def rec(r: int, colmask: int) -> MLPoly:
        if colmask == 0:
            return MLPoly.constant(1)
        got = memo.get(colmask)
        if got is not None:
            return got
        acc = zero
        row = rows[r]
        for col, entry in row:
            bit = 1 << col
            if not colmask & bit:
                continue
            pos = bin(colmask & (bit - 1)).count("1")
            sub = rec(r + 1, colmask & ~bit)
            if not sub.is_zero:
                term = entry * sub
                acc = acc + (term if pos % 2 == 0 else -term)
        memo[colmask] = acc
        return acc

    return rec(0, full)


def dodgson(G: Graph, idx: DodgsonIndex) -> MLPoly:
    """Psi^{I,J}_{G,K}: det of M(G) minus rows I, columns J, with a_K = 0."""
    fullset = G.label_set
    for s in (idx.rows, idx.cols, idx.zeroed):
        if not s <= fullset:
            raise BadIndices("Dodgson index uses labels outside the graph")
    if idx.zeroed & (idx.rows | idx.cols):
        raise BadIndices("zeroed variables must avoid the removed rows/columns")
    return det_sparse(*_m_matrix_rows(G, idx.rows, idx.cols, idx.zeroed))


def psi_two_index(G: Graph, I, J) -> MLPoly:
    """Psi^I_J = Psi of G\\I//J; zero by convention when I and J overlap."""
    I, J = frozenset(I), frozenset(J)
    if I & J:
        return MLPoly.zero()
    return dodgson(G, DodgsonIndex(I, I, J))


def phi_two_index(G: Graph, I, J) -> MLPoly:
    """phi^I_J = iota(Psi^J_I) on the surviving variables; phi of G\\J//I."""
    I, J = frozenset(I), frozenset(J)
    if I & J:
        return MLPoly.zero()
    ambient = G.label_set - I - J
    return cremona(psi_two_index(G, J, I), ambient)


def dual_dodgson(G: Graph, I, J, K, S) -> MLPoly:
    """phi^{IS,JS}_{G,K} = iota(Psi^{IK,JK}_{G,S}) for pairwise disjoint sets."""
    I, J, K, S = frozenset(I), frozenset(J), frozenset(K), frozenset(S)
    sets = [I, J, K, S]
    for a, b in itertools.combinations(range(4), 2):
        if sets[a] & sets[b]:
            raise IndexOverlap("dual Dodgson indices must be pairwise disjoint")
    if len(I) != len(J):
        raise BadIndices("dual Dodgson needs |I| = |J|")
    ambient = G.label_set - I - J - K - S
    inner = dodgson(G, DodgsonIndex(I | K, J | K, S))
    return cremona(inner, ambient)


def phi_dodgson_pair(G: Graph, A, B, C=()) -> MLPoly:
    """phi^{A,B}_C for |A| = |B|, decomposed as A = I + S, B = J + S, S = A&B."""
    A, B, C = frozenset(A), frozenset(B), frozenset(C)
    if len(A) != len(B):
        raise BadIndices("paired dual Dodgson needs |A| = |B|")
    S = A & B
    if C & (A | B):
        raise IndexOverlap("zeroed set overlaps the index pair")
    return dual_dodgson(G, A - S, B - S, C, S)
