"""Independent recounts that the benchmark judges c2lab's outputs against.

Nothing here imports c2lab.  Graphs are plain ``(edges, vertex_count)``
pairs, finite fields are built from scratch, and every count is a direct
vectorized enumeration:

* [Psi_G] from Kirchhoff's determinant of the loop matrix C^T diag(a) C of a
  fundamental-cycle basis (h x h), [phi_G] from the weighted reduced
  Laplacian (n x n), Sing(Z_G) from rank(Laplacian) < n - 1;
* the position-space union count from a plain evaluation of every edge
  quadric |x_s - x_t|^2 = y1 y2 + y3 y4, with vertex 1 (not the last one)
  pinned to zero;
* zero counts of explicit polynomials by evaluating every monomial;
* spanning-tree counts from an exact integer (Bareiss) determinant, and the
  census closed forms.

Counts too large to redo inside a run are stored in ``expected.json``;
``python3 perfbench/recount.py --write-expected`` makes that file anew
from these recounts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# Largest lattice recounted inside a run; bigger counts come from expected.json.
LIVE_LIMIT = 1 << 18
_CHUNK = 1 << 17


# -- finite fields -------------------------------------------------------------


def _prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            k, m = 0, q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, k
    raise ValueError(f"{q} is not a prime power")


def _pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _pmod(a, f, p):
    a = list(a)
    inv_lead = pow(f[-1], p - 2, p)
    while len(a) >= len(f):
        c = a[-1] * inv_lead % p
        shift = len(a) - len(f)
        for i, y in enumerate(f):
            a[shift + i] = (a[shift + i] - c * y) % p
        a.pop()
    return a


def _monic(k: int, p: int):
    """Every monic polynomial of degree k over F_p (coefficients low to high)."""
    for code in range(p**k):
        yield [code // p**i % p for i in range(k)] + [1]


def _irreducible(k: int, p: int):
    """The lexicographically largest monic irreducible of degree k (trial division)."""
    found = None
    for f in _monic(k, p):
        if all(
            any(_pmod(f, g, p)) for d in range(1, k // 2 + 1) for g in _monic(d, p)
        ):
            found = f
    return found


class GF:
    """F_q as uint8 tables; code sum(d_i p^i) is the polynomial sum(d_i x^i)."""

    def __init__(self, q: int):
        p, k = _prime_power(q)
        self.q, self.p = q, p
        digits = [[c // p**i % p for i in range(k)] for c in range(q)]

        def code(d):
            d = list(d) + [0] * (k - len(d))
            return sum(x * p**i for i, x in enumerate(d[:k]))

        add = np.array(
            [[code([(x + y) % p for x, y in zip(a, b)]) for b in digits] for a in digits],
            dtype=np.uint8,
        )
        if k == 1:
            mul = np.array([[a * b % p for b in range(q)] for a in range(q)], dtype=np.uint8)
        else:
            f = _irreducible(k, p)
            mul = np.array(
                [[code(_pmod(_pmul(a, b, p), f, p)) for b in digits] for a in digits],
                dtype=np.uint8,
            )
        self.add, self.mul = add, mul
        self.neg = np.array([int(np.flatnonzero(add[a] == 0)[0]) for a in range(q)], dtype=np.uint8)
        inv = np.zeros(q, dtype=np.uint8)
        for a in range(1, q):
            inv[a] = int(np.flatnonzero(mul[a] == 1)[0])
        self.inv = inv
        self.sub = add[:, self.neg]  # sub[a, b] = a - b

    def embed(self, c: int) -> int:
        return c % self.p


@lru_cache(maxsize=None)
def field(q: int) -> GF:
    return GF(q)


# -- lattice enumeration ---------------------------------------------------------


def _lattice_chunks(q: int, m: int):
    """Blocks of the points of F_q^m, as uint8 arrays of shape (m, L)."""
    total = q**m
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(total, start + _CHUNK), dtype=np.int64)
        digits = np.empty((m, len(idx)), dtype=np.uint8)
        for j in range(m):
            digits[j] = idx % q
            idx //= q
        yield digits


def _rank(A, F: GF):
    """Rank of each lane of A, shape (d, d, L), by Gaussian elimination over F."""
    A = A.copy()
    d, _, L = A.shape
    if d == 0:
        return np.zeros(L, dtype=np.int64)
    used = np.zeros((d, L), dtype=bool)
    rank = np.zeros(L, dtype=np.int64)
    lanes = np.arange(L)
    for col in range(d):
        cand = (A[:, col, :] != 0) & ~used
        has = cand.any(axis=0)
        piv = np.argmax(cand, axis=0)
        prow = A[piv, :, lanes].T  # (d, L): the pivot row of every lane
        scale = F.inv[prow[col]]
        prow = F.mul[scale[None, :], prow]
        for r in range(d):
            f = np.where(has & ~used[r] & (piv != r), A[r, col, :], 0).astype(np.uint8)
            A[r] = F.sub[A[r], F.mul[f[None, :], prow]]
        used[piv[has], lanes[has]] = True
        rank += has
    return rank


# -- graphs ----------------------------------------------------------------------


def spanning_forest(edges, V):
    """Edge positions of a BFS spanning forest, and parent links for tree paths."""
    adj = {v: [] for v in range(1, V + 1)}
    for i, (u, v) in enumerate(edges):
        if u != v:
            adj[u].append((v, i))
            adj[v].append((u, i))
    parent = {}
    tree = set()
    for root in range(1, V + 1):
        if root in parent:
            continue
        parent[root] = None
        frontier = [root]
        while frontier:
            nxt = []
            for x in frontier:
                for y, i in adj[x]:
                    if y not in parent:
                        parent[y] = (x, i)
                        tree.add(i)
                        nxt.append(y)
            frontier = nxt
    return tree, parent


def loop_basis(edges, V):
    """Signed fundamental-cycle vectors, one per edge outside a spanning tree."""
    tree, parent = spanning_forest(edges, V)

    def path_to_root(v):
        out = []  # (edge position, +1 if walked low->high endpoint)
        while parent[v] is not None:
            x, i = parent[v]
            u, w = edges[i]
            out.append((i, 1 if (v, x) == (u, w) else -1))
            v = x
        return out

    cycles = []
    for i, (u, v) in enumerate(edges):
        if i in tree:
            continue
        c = [0] * len(edges)
        c[i] = 1
        if u != v:
            # the cycle runs u -> v along edge i, then v -> root -> u in the tree
            up_v = path_to_root(v)
            up_u = path_to_root(u)
            for j, s in up_v:
                c[j] += s
            for j, s in up_u:
                c[j] -= s
        cycles.append(c)
    return cycles


def _weighted_matrix(coeffs, a, F: GF):
    """Lanes of sum_e a_e * c_e c_e^T; coeffs[e] is a list of (row, col, sign)."""
    d = coeffs["dim"]
    L = a.shape[1]
    M = np.zeros((d, d, L), dtype=np.uint8)
    for e, entries in coeffs["edges"]:
        for r, c, s in entries:
            M[r, c] = F.add[M[r, c], a[e]] if s > 0 else F.sub[M[r, c], a[e]]
    return M


def _laplacian_coeffs(edges, V):
    keep = {v: i for i, v in enumerate(range(1, V))}  # vertex V is deleted
    out = []
    for e, (u, v) in enumerate(edges):
        if u == v:
            continue
        entries = []
        for x in (u, v):
            if x in keep:
                entries.append((keep[x], keep[x], 1))
        if u in keep and v in keep:
            entries += [(keep[u], keep[v], -1), (keep[v], keep[u], -1)]
        out.append((e, entries))
    return {"dim": V - 1, "edges": out}


def _loop_coeffs(edges, V):
    cyc = loop_basis(edges, V)
    out = []
    for e in range(len(edges)):
        entries = []
        for i, ci in enumerate(cyc):
            for j, cj in enumerate(cyc):
                if ci[e] and cj[e]:
                    entries.append((i, j, ci[e] * cj[e]))
        out.append((e, entries))
    return {"dim": len(cyc), "edges": out}


def _count_rank_below(coeffs, N, q, bound):
    F = field(q)
    total = 0
    for a in _lattice_chunks(q, N):
        total += int((_rank(_weighted_matrix(coeffs, a, F), F) < bound).sum())
    return total


def psi_zeros(edges, V, q):
    """[Psi_G]_q for a connected graph: det(C^T diag(a) C) = 0."""
    co = _loop_coeffs(edges, V)
    return _count_rank_below(co, len(edges), q, co["dim"])


def phi_zeros(edges, V, q):
    """[phi_G]_q for a connected graph: det(reduced Laplacian) = 0."""
    co = _laplacian_coeffs(edges, V)
    return _count_rank_below(co, len(edges), q, co["dim"])


def sing_points(edges, V, q):
    """Sing(Z_G): points with rank(reduced Laplacian) < n - 1."""
    return int((laplacian_ranks(edges, V, q) < V - 2).sum())


def laplacian_ranks(edges, V, q, subset=None):
    """Rank of the reduced Laplacian at every point (edge positions outside subset are 0)."""
    F = field(q)
    co = _laplacian_coeffs(edges, V)
    live = list(range(len(edges))) if subset is None else sorted(subset)
    out = []
    for a in _lattice_chunks(q, len(live)):
        full = np.zeros((len(edges), a.shape[1]), dtype=np.uint8)
        full[live] = a
        out.append(_rank(_weighted_matrix(co, full, F), F))
    return np.concatenate(out)


def quadric_union(edges, V, q):
    """Points of F_q^{4(V-1)} where some edge quadric vanishes (vertex 1 pinned)."""
    F = field(q)
    if any(u == v for u, v in edges):
        return q ** (4 * (V - 1))
    slot = {v: i for i, v in enumerate(range(2, V + 1))}
    total = 0
    for x in _lattice_chunks(q, 4 * (V - 1)):
        L = x.shape[1]
        zero = np.zeros(L, dtype=np.uint8)

        def comp(v, j):
            return zero if v == 1 else x[4 * slot[v] + j]

        hit = np.zeros(L, dtype=bool)
        for u, v in edges:
            y = [F.sub[comp(u, j), comp(v, j)] for j in range(4)]
            Q = F.add[F.mul[y[0], y[1]], F.mul[y[2], y[3]]]
            hit |= Q == 0
        total += int(hit.sum())
    return total


def poly_zeros(terms, n_vars, q):
    """Zeros in F_q^n_vars of sum c * prod(x_i); terms: [(c, vars)], vars 1-based."""
    F = field(q)
    total = 0
    for x in _lattice_chunks(q, n_vars):
        acc = np.zeros(x.shape[1], dtype=np.uint8)
        for c, mono in terms:
            t = np.full(x.shape[1], F.embed(c), dtype=np.uint8)
            for v in mono:
                t = F.mul[t, x[v - 1]]
            acc = F.add[acc, t]
        total += int((acc == 0).sum())
    return total


# -- exact integer facts -----------------------------------------------------------


def det_int(M) -> int:
    """Exact integer determinant (Bareiss)."""
    M = [list(r) for r in M]
    n = len(M)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            sw = next((i for i in range(k + 1, n) if M[i][k]), None)
            if sw is None:
                return 0
            M[k], M[sw] = M[sw], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def spanning_tree_count(edges, V) -> int:
    """Kirchhoff's matrix-tree theorem on the reduced Laplacian."""
    n = V - 1
    Lap = [[0] * n for _ in range(n)]
    for u, v in edges:
        if u == v:
            continue
        for x in (u, v):
            if x < V:
                Lap[x - 1][x - 1] += 1
        if u < V and v < V:
            Lap[u - 1][v - 1] -= 1
            Lap[v - 1][u - 1] -= 1
    return det_int(Lap)


def lem36_forms(n: int) -> tuple[int, int]:
    """r^{1,2}(G_n) and r^{2,1}(G_n) in closed form (integer-exact at n = 2)."""
    r12 = 3 * n * (n - 1) ** 2 * 2**n // 8
    return r12, r12 + 2 ** (n - 2)


def scan_pairs(N: int, sizes) -> int:
    """Ordered pairs of disjoint label sets (I, J) of the given sizes among N labels."""
    return sum(math.comb(N, si) * math.comb(N - si, sj) for si, sj in sizes)


# -- graph families (rebuilt here, so stored counts do not depend on c2lab) ----


def family(name: str, n: int):
    if name == "wheel":
        rim = [(i, i + 1) for i in range(1, n)] + [(1, n)]
        return rim + [(i, n + 1) for i in range(1, n + 1)], n + 1
    if name == "complete":
        return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)], n
    if name == "cycle":
        return [(i, i + 1) for i in range(1, n)] + [(1, n)], n
    if name == "Gn":
        edges = [(1, 2)] * 3
        for i in range(2, n):
            edges += [(i, i + 1)] * 2
        return edges + [(n, n + 1)], n + 1
    raise ValueError(name)


def spec_graph(spec: str):
    name, _, n = spec.partition(":")
    return family(name, int(n))


# -- stored counts -------------------------------------------------------------------

_KINDS = {"psi": psi_zeros, "phi": phi_zeros, "quad": quadric_union}

# Every count a workload needs that is above LIVE_LIMIT points.
STORED = [
    ("psi", "wheel:4", 5),
    ("psi", "wheel:4", 7),
    ("psi", "wheel:4", 8),
    ("psi", "wheel:4", 9),
    ("psi", "wheel:5", 4),
    ("psi", "wheel:5", 5),
    ("psi", "wheel:6", 3),
    ("psi", "complete:4", 9),
    ("phi", "wheel:4", 5),
    ("phi", "wheel:4", 7),
    ("phi", "Gn:4", 5),
    ("quad", "complete:4", 3),
    ("quad", "Gn:3", 3),
    ("quad", "Gn:4", 3),
    ("quad", "cycle:4", 3),
]


def _points(kind, spec, q):
    edges, V = spec_graph(spec)
    return q ** (4 * (V - 1)) if kind == "quad" else q ** len(edges)


@lru_cache(maxsize=None)
def _stored():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@lru_cache(maxsize=None)
def count(kind: str, spec: str, q: int) -> int:
    """[kind] of a family member: recounted live if small, else the stored copy."""
    if _points(kind, spec, q) <= LIVE_LIMIT:
        edges, V = spec_graph(spec)
        return _KINDS[kind](edges, V, q)
    key = f"{kind}:{spec}:q{q}"
    got = _stored().get(key)
    if got is None:
        raise KeyError(f"{key} is too large to recount in a run and is not in expected.json")
    return int(got)


def write_expected() -> None:
    out = {}
    for kind, spec, q in STORED:
        edges, V = spec_graph(spec)
        out[f"{kind}:{spec}:q{q}"] = str(_KINDS[kind](edges, V, q))
        print(f"{kind}:{spec}:q{q} = {out[f'{kind}:{spec}:q{q}']}", file=sys.stderr)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write-expected", action="store_true", help="recount expected.json")
    if ap.parse_args().write_expected:
        write_expected()
