"""Checks of the benchmark's own recounts (recount.py) on tiny inputs.

    python3 perfbench/selfcheck.py

Each vectorized recount is compared with a slow, obviously-correct
computation: point-by-point loops, spanning trees found by trying every
edge subset, and hand-known values.  Needs only numpy, not c2lab.
Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import itertools
import random
import sys

import numpy as np

import recount as R

GRAPHS = {
    "triangle": ([(1, 2), (2, 3), (1, 3)], 3),
    "theta": ([(1, 2), (1, 2), (1, 3), (2, 3)], 3),
    "banana3": ([(1, 2)] * 3, 2),
    "triangle_loop": ([(1, 2), (1, 3), (2, 3), (2, 2)], 3),
    "K4": R.family("complete", 4),
    "G3": R.family("Gn", 3),
    "wheel4": R.family("wheel", 4),
}


def _connected(edges, V) -> bool:
    seen, todo = {1}, [1]
    while todo:
        x = todo.pop()
        for u, v in edges:
            for a, b in ((u, v), (v, u)):
                if a == x and b not in seen:
                    seen.add(b)
                    todo.append(b)
    return len(seen) == V


def trees(edges, V):
    """Spanning trees as edge-position tuples, by trying every (V-1)-subset."""
    return [
        T
        for T in itertools.combinations(range(len(edges)), V - 1)
        if all(edges[i][0] != edges[i][1] for i in T) and _connected([edges[i] for i in T], V)
    ]


def tree_polys(edges, V):
    """Psi and phi as [(coeff, variables)] lists, variables 1-based."""
    ts = trees(edges, V)
    every = set(range(len(edges)))
    psi = [(1, tuple(i + 1 for i in sorted(every - set(T)))) for T in ts]
    phi = [(1, tuple(i + 1 for i in T)) for T in ts]
    return psi, phi


def _eval(terms, point, F) -> int:
    acc = 0
    for c, mono in terms:
        t = F.embed(c)
        for v in mono:
            t = int(F.mul[t, point[v - 1]])
        acc = int(F.add[acc, t])
    return acc


def _derivative(terms, k):
    return [(c, tuple(v for v in m if v != k)) for c, m in terms if k in m]


def check(name, got, want):
    if got != want:
        print(f"FAIL {name}: got {got}, expected {want}")
        sys.exit(1)
    print(f"ok   {name} = {got}")


def fields():
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = R.field(q)
        a = np.arange(q)
        A, B, C = np.meshgrid(a, a, a, indexing="ij")
        distributive = np.array_equal(F.mul[A, F.add[B, C]], F.add[F.mul[A, B], F.mul[A, C]])
        associative = np.array_equal(F.mul[F.mul[A, B], C], F.mul[A, F.mul[B, C]])
        group = all(sorted(F.mul[x, 1:]) == list(range(1, q)) for x in range(1, q))
        inverses = all(F.mul[x, F.inv[x]] == 1 for x in range(1, q))
        additive = all(F.add[x, F.neg[x]] == 0 for x in range(q))
        check(f"F_{q} is a field", distributive and associative and group and inverses and additive, True)


def ranks():
    rng = random.Random(7)
    for q in (2, 3, 4, 5):
        F = R.field(q)
        d, L = 4, 300
        A = np.array([[[rng.randrange(q) for _ in range(L)] for _ in range(d)] for _ in range(d)], dtype=np.uint8)
        got = R._rank(A, F)
        want = []
        for lane in range(L):
            rows = [[int(A[i, j, lane]) for j in range(d)] for i in range(d)]
            r = 0
            for col in range(d):
                piv = next((i for i in range(r, d) if rows[i][col]), None)
                if piv is None:
                    continue
                rows[r], rows[piv] = rows[piv], rows[r]
                inv = int(F.inv[rows[r][col]])
                for i in range(r + 1, d):
                    f = int(F.mul[rows[i][col], inv])
                    rows[i] = [int(F.sub[x, F.mul[f, y]]) for x, y in zip(rows[i], rows[r])]
                r += 1
            want.append(r)
        check(f"vectorized rank over F_{q} ({L} random 4x4)", list(map(int, got)), want)


def counts():
    for name, (edges, V) in GRAPHS.items():
        psi, phi = tree_polys(edges, V)
        N = len(edges)
        for q in (2, 3, 4):
            if q**N > 5000:
                continue
            F = R.field(q)
            points = list(itertools.product(range(q), repeat=N))
            psi0 = sum(1 for x in points if _eval(psi, x, F) == 0)
            phi0 = sum(1 for x in points if _eval(phi, x, F) == 0)
            partials = [phi] + [_derivative(phi, k) for k in range(1, N + 1)]
            sing = sum(1 for x in points if all(_eval(p, x, F) == 0 for p in partials))
            check(f"[psi] {name} q={q}", R.psi_zeros(edges, V, q), psi0)
            check(f"[phi] {name} q={q}", R.phi_zeros(edges, V, q), phi0)
            check(f"Sing {name} q={q}", R.sing_points(edges, V, q), sing)
            check(f"[psi] by monomials {name} q={q}", R.poly_zeros(psi, N, q), psi0)
    check("[psi] triangle q=5 (a1+a2+a3 = 0)", R.psi_zeros(*GRAPHS["triangle"], 5), 25)


def quadrics():
    for name in ("triangle", "theta", "banana3"):
        edges, V = GRAPHS[name]
        for q in (2, 3):
            F = R.field(q)
            m = 4 * (V - 1)
            hits = 0
            for x in itertools.product(range(q), repeat=m):
                pos = {1: (0, 0, 0, 0)}
                for v in range(2, V + 1):
                    pos[v] = x[4 * (v - 2): 4 * (v - 1)]
                for u, v in edges:
                    y = [int(F.sub[a, b]) for a, b in zip(pos[u], pos[v])]
                    if int(F.add[F.mul[y[0], y[1]], F.mul[y[2], y[3]]]) == 0:
                        hits += 1
                        break
            check(f"quadric union {name} q={q}", R.quadric_union(edges, V, q), hits)


def integers():
    for name, (edges, V) in GRAPHS.items():
        check(f"spanning trees {name}", R.spanning_tree_count(edges, V), len(trees(edges, V)))
    check("spanning trees K5 (Cayley 5^3)", R.spanning_tree_count(*R.family("complete", 5)), 125)
    check("spanning trees WS6 (Lucas L12 - 2)", R.spanning_tree_count(*R.family("wheel", 6)), 320)
    for n in (2, 3, 4, 5):
        edges, V = R.family("Gn", n)
        N, h = len(edges), len(edges) - V + 1
        got = []
        for u, v in ((1, 2), (2, 1)):
            r = 0
            for I in itertools.combinations(range(N), h - u):
                rest = [i for i in range(N) if i not in I]
                kept = [edges[i] for i in rest]
                if not _connected(kept, V):
                    continue
                for J in itertools.combinations(rest, (V - 1) - v):
                    if _is_forest([edges[i] for i in J], V):
                        r += 1
            got.append(r)
        check(f"census r12, r21 of G_{n} by enumeration = closed forms", tuple(got), R.lem36_forms(n))
    for N in (3, 5):
        sizes = [(1, 2), (0, 3), (2, 2)]
        brute = sum(
            1
            for si, sj in sizes
            for I in itertools.combinations(range(N), si)
            for J in itertools.combinations([x for x in range(N) if x not in I], sj)
        )
        check(f"scan_pairs N={N}", R.scan_pairs(N, sizes), brute)
    check("Bareiss det", R.det_int([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]), 4)


def _is_forest(edges, V) -> bool:
    parent = list(range(V + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in edges:
        a, b = find(u), find(v)
        if a == b:
            return False
        parent[b] = a
    return True


if __name__ == "__main__":
    fields()
    ranks()
    counts()
    quadrics()
    integers()
    print("all recount self-checks passed")
