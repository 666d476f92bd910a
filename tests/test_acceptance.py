"""Acceptance gate: one test (or parametrized group) per criterion.

All quantities are integers, so every comparison is exact.  Each criterion
prints a PASS/FAIL line; run with `pytest tests/test_acceptance.py -v -s`.

Criterion 8 compares the closed forms for r^{1,2}(G_n) and r^{2,1}(G_n)
(`lem36_closed_forms`) with exhaustive enumeration, and checks the duality
r^{2,1}(G) = r^{1,2}(G_dual) that relates them.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time

import pytest

import c2lab
from c2lab import counting
from c2lab.corpus import named_graphs
from c2lab.counting import (
    count_reduced,
    count_via_inclusion_exclusion,
    count_via_torus_strata,
    count_zeros,
    count_zeros_torus,
    sing_count,
)
from c2lab.fields import make_field
from c2lab.graphs import (
    census,
    connected_multigraphs,
    contract,
    family,
    girth_at_most,
    is_connected,
    spanning_tree_count,
    spanning_trees,
)
from c2lab.identities import sweep_identities
from c2lab.invariants import (
    c2_dual,
    c2_dual_triangle,
    c2_param,
    c2_pos,
    lem36_closed_forms,
    verify,
)
from c2lab.matform import (
    diagonalize_wrt_tree,
    p_matrix,
    tree_occurrence_contract,
)
from c2lab.multipoly import (
    DodgsonIndex,
    MLPoly,
    dodgson,
    phi,
    phi_dodgson_pair,
    phi_two_index,
    psi,
    psi_two_index,
)
from c2lab.quadrics import quadric_congruence_rhs, quadric_union_count

CORPUS = named_graphs()
EMPTY = frozenset()


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}{' (' + detail + ')' if detail else ''}")


def test_criterion_1_symbolic_layer():
    """psi = det M(G) and phi = det P_G on >= 20 connected graphs, < 10 s."""
    t0 = time.time()
    graphs = {k: g for k, g in CORPUS.items() if is_connected(g) and g.edge_count <= 8}
    assert len(graphs) >= 20
    bad = []
    for name, G in graphs.items():
        if dodgson(G, DodgsonIndex(EMPTY, EMPTY)) != psi(G):
            bad.append((name, "detM"))
        if p_matrix(G).det() != phi(G):
            bad.append((name, "detP"))
    elapsed = time.time() - t0
    report(1, not bad and elapsed < 10, f"{len(graphs)} graphs, {elapsed:.1f}s")
    assert not bad
    assert elapsed < 10


def test_criterion_2_dodgson_suite():
    """The identity suite on every connected multigraph with <= 6 edges, < 60 s."""
    t0 = time.time()
    catalog = connected_multigraphs(6)
    names = ("c10", "c14", "c15", "c18", "c20", "c100", "c101", "e100", "e101")
    checked = 0
    bad = []
    for G in catalog:
        for name, idx, result in sweep_identities(G, names):
            if not result.holds:
                bad.append((name, G.edges, idx))
            checked += 1
    elapsed = time.time() - t0
    report(2, not bad and elapsed < 60, f"{checked} instances on {len(catalog)} graphs, {elapsed:.1f}s")
    assert not bad
    assert elapsed < 60


def test_criterion_3_diagonalization():
    """Occurrence contract and det preservation for every (G, T), <= 7 edges; Fig. 2 ops."""
    from c2lab.graphs import Graph

    t0 = time.time()
    pairs = 0
    for name, G in CORPUS.items():
        if not is_connected(G) or G.edge_count > 7 or G.n < 1:
            continue
        target = phi(G)
        for T in spanning_trees(G):
            d = diagonalize_wrt_tree(G, T)
            assert tree_occurrence_contract(d), (name, T)
            assert d.matrix.det() == target, (name, T)
            assert d.start.apply_ops(d.ops).entries == d.matrix.entries
            pairs += 1
    fig2 = Graph(((1, 2), (2, 3), (3, 4), (3, 5), (2, 6), (6, 7)), 7)
    d = diagonalize_wrt_tree(fig2, {1, 2, 3, 4, 5, 6})
    ops = [(op.source, op.target) for op in d.ops]
    assert ops == [(4, 2), (3, 2), (6, 5), (5, 1), (2, 1)]
    for i in range(6):
        assert d.matrix[i, i] == MLPoly.variable(i + 1)
    elapsed = time.time() - t0
    report(3, elapsed < 30, f"{pairs} (G,T) pairs + worked example, {elapsed:.1f}s")
    assert elapsed < 30


def test_criterion_4_counting_oracles(monkeypatch):
    """Reduction = brute force on 200 random polys and the corpus; strata sums;
    torus duality on the <= 6-edge corpus; < 5 min."""
    # split every system with a linear variable, however small: at the
    # default size every input here would be enumerated whole
    monkeypatch.setattr(counting, "_ENUMERATE_POINTS", 0)
    t0 = time.time()
    rng = random.Random(20240809)
    for trial in range(200):
        n = rng.randint(1, 10)
        monos = {}
        for _ in range(rng.randint(1, 12)):
            size = rng.randint(0, min(4, n))
            m = tuple(sorted(rng.sample(range(1, n + 1), size)))
            monos[m] = rng.randint(-5, 5)
        P = MLPoly(monos)
        q = rng.choice((2, 3, 4))
        F = make_field(q)
        assert count_reduced(P, F, n).raw == count_zeros([P], F, n).raw, trial
    for name, G in CORPUS.items():
        if not is_connected(G):
            continue
        for q in (2, 3):
            F = make_field(q)
            for P in (psi(G), phi(G)):
                assert count_reduced(P, F, G.edge_count).raw == count_zeros(
                    [P], F, G.edge_count
                ).raw, (name, q)
    # stratification identities
    for name in ("triangle", "banana4", "G3", "K4"):
        G = CORPUS[name]
        amb = sorted(G.labels)
        for q in (2, 3):
            F = make_field(q)
            direct = count_zeros([psi(G)], F, len(amb)).raw
            assert count_via_torus_strata(psi(G), F, amb) == direct, (name, q)
            assert count_via_inclusion_exclusion(psi(G), F, amb) == direct, (name, q)
    # torus duality for ALL disjoint I, J on the <= 6-edge corpus
    checked = 0
    for name, G in CORPUS.items():
        if not is_connected(G) or G.edge_count > 6:
            continue
        labels = sorted(G.labels)
        F = make_field(2)
        for assign in itertools.product((0, 1, 2), repeat=len(labels)):
            I = frozenset(l for l, a in zip(labels, assign) if a == 1)
            J = frozenset(l for l, a in zip(labels, assign) if a == 2)
            amb = len(labels) - len(I) - len(J)
            lhs = count_zeros_torus([phi_two_index(G, I, J)], F, amb).raw
            rhs = count_zeros_torus([psi_two_index(G, J, I)], F, amb).raw
            assert lhs == rhs, (name, I, J)
            checked += 1
    elapsed = time.time() - t0
    report(4, elapsed < 300, f"200 random + corpus oracles, {checked} duality pairs, {elapsed:.1f}s")
    assert elapsed < 300


def test_criterion_5_divisibility():
    """q^2 | [Psi] (n>=2), q^2 | [phi] (h>=2), q | Sing (h>=2) at q in 2..5;
    the three Sing methods agree; < 5 min."""
    t0 = time.time()
    budget = 10**8
    for name, G in CORPUS.items():
        if not is_connected(G):
            continue
        N = G.edge_count
        for q in (2, 3, 4, 5):
            F = make_field(q)
            if G.n >= 2:
                rep = count_zeros([psi(G)], F, N, budget=budget)
                assert rep.raw % q**2 == 0, (name, q, "psi")
            if G.h >= 2:
                rep = count_zeros([phi(G)], F, N, budget=budget)
                assert rep.raw % q**2 == 0, (name, q, "phi")
                s1 = sing_count(G, F, "jacobian", budget=budget)
                assert s1.raw % q == 0, (name, q, "sing")
                s2 = sing_count(G, F, "jacobian_tree", budget=budget)
                assert s1.raw == s2.raw, (name, q, "tree-method")
                if q**N <= 20000:
                    s3 = sing_count(G, F, "rank", budget=budget)
                    assert s1.raw == s3.raw, (name, q, "rank-method")
    elapsed = time.time() - t0
    report(5, elapsed < 300, f"{elapsed:.1f}s")
    assert elapsed < 300


def test_criterion_6_c2_across_spaces():
    """c2_param = c2_dual (q in 2,3,5) and c2_dual = c2_pos (n <= 4, q in 2,3);
    c2_pos = 0 on sub-log-divergent controls; < 15 min."""
    t0 = time.time()
    members = {
        "K4": CORPUS["K4"],
        "WS4": family("wheel", 4),
        "WS5": family("wheel", 5),
        "G3": CORPUS["G3"],
        "G4": CORPUS["G4"],
    }
    for name, G in members.items():
        for q in (2, 3, 5):
            F = make_field(q)
            assert c2_param(G, F) == c2_dual(G, F), (name, q)
    for name, G in members.items():
        if G.n > 4:
            continue
        for q in (2, 3):
            F = make_field(q)
            assert c2_dual(G, F) == c2_pos(G, F), (name, q)
    controls = {
        "C4": family("cycle", 4),
        "C5": family("cycle", 5),
        "K4_minus_edge": CORPUS["K4_minus_edge"],
    }
    for name, G in controls.items():
        assert G.edge_count < 2 * G.n and G.n >= 3, name
        for q in (2, 3):
            assert c2_pos(G, make_field(q)) == 0, (name, q)
    elapsed = time.time() - t0
    report(6, elapsed < 900, f"5 members + 3 controls, {elapsed:.1f}s")
    assert elapsed < 900


@pytest.mark.parametrize("name,q", [("K4", 2), ("K4", 3), ("G3", 2), ("G3", 3)])
def test_criterion_7_quadric_congruence(name, q):
    """Union count = congruence right side mod q^3, exact residues."""
    G = CORPUS[name]
    F = make_field(q)
    lhs = quadric_union_count(G, F).raw % q**3
    rhs = quadric_congruence_rhs(G, F)
    report(7, lhs == rhs, f"{name} q={q}: lhs={lhs} rhs={rhs}")
    assert lhs == rhs


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_criterion_8_census_f18(n):
    G = family("Gn", n)
    r12, _ = census(G, 1, 2)
    expect = lem36_closed_forms(n)[0]
    report(8, r12 == expect, f"r12(G{n}) enumerated={r12} formula={expect}")
    assert r12 == expect


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_criterion_8_census_f19(n):
    """The closed form r^{2,1}(G_n) = 2^(n-2) + 3n(n-1)^2 2^(n-3) equals
    exhaustive enumeration."""
    G = family("Gn", n)
    r21, _ = census(G, 2, 1)
    expect = lem36_closed_forms(n)[1]
    report(8, r21 == expect, f"r21(G{n}) enumerated={r21} formula={expect}")
    assert r21 == expect


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_criterion_8_census_duality(n):
    """The structural content behind the closed form: r^{2,1}(G) = r^{1,2}(G*)."""
    from c2lab.planar import planar_dual

    G = family("Gn", n)
    D = planar_dual(G)
    lhs = census(G, 2, 1)[0]
    rhs = census(D, 1, 2)[0]
    report(8, lhs == rhs, f"r21(G{n})={lhs} r12(dual)={rhs}")
    assert lhs == rhs


def test_criterion_8_census_props():
    """prop34 and cor35 on the log-divergent corpus; r_bar multinomial everywhere."""
    t0 = time.time()
    for name, G in CORPUS.items():
        if not is_connected(G):
            continue
        if G.is_log_divergent():
            assert verify("prop34", G).passed, name
            assert verify("cor35", G).passed, name
        N, h, n = G.edge_count, G.h, G.n
        for u in range(h + 1):
            for v in range(n + 1):
                di, dj = h - u, n - v
                if di + dj > N:
                    continue
                _, r_bar = census(G, u, v)
                expect = (
                    math.factorial(N)
                    // math.factorial(di)
                    // math.factorial(dj)
                    // math.factorial(N - di - dj)
                )
                assert r_bar == expect, (name, u, v)
    # the spec's literal example of the printed multinomial
    G3 = CORPUS["G3"]
    assert census(G3, 1, 2)[1] == 60 == math.factorial(6) // (1 * 2 * math.factorial(3))
    elapsed = time.time() - t0
    report(8, elapsed < 120, f"props {elapsed:.1f}s")
    assert elapsed < 120


def test_criterion_9_triangle_shortcut():
    """c2_dual via the triangle pair equals c2_dual wherever a triangle exists
    and h >= 3; Chevalley-Warning fires on the super-log-divergent subquotient
    pairs the reduction actually uses."""
    from c2lab.counting import chevalley_warning_check
    from c2lab.errors import NotATriangle, PreconditionUnmet
    from c2lab.invariants import _check_triangle, _find_triangle

    t0 = time.time()
    graphs = dict(CORPUS)
    graphs["WS5"] = family("wheel", 5)
    checked = []
    for name, G in graphs.items():
        if not is_connected(G) or G.h < 3:
            continue
        tri = _find_triangle(G)
        if tri is None:
            continue
        for q in (2, 3):
            F = make_field(q)
            assert c2_dual_triangle(G, tri, F) == c2_dual(G, F), (name, q)
        checked.append(name)
    assert checked, "no corpus graph exercised the shortcut"
    # CW on the pairs for contracted subquotients (N' > 2 n' there)
    cw_checked = 0
    for name in ("K4", "wheel4"):
        G = graphs[name]
        for k in sorted(G.labels)[:3]:
            sub = contract(G, {k})
            tri = _find_triangle(sub)
            if tri is None:
                continue
            t1, t2, t3 = tri
            pair = [
                phi_dodgson_pair(sub, {t1}, {t2}, {t3}),
                phi_dodgson_pair(sub, {t1, t3}, {t2, t3}),
            ]
            n_vars = sub.edge_count - 3
            assert sum(p.degree() for p in pair) < n_vars, (name, k)
            for q in (2, 3):
                assert chevalley_warning_check(pair, make_field(q), n_vars), (name, k, q)
            cw_checked += 1
    assert cw_checked >= 4
    elapsed = time.time() - t0
    report(9, True, f"shortcut on {checked}, {cw_checked} CW pairs, {elapsed:.1f}s")


_CLI_JOBS = """
import json, sys
from c2lab.cli import main
for job in json.loads(sys.argv[1]):
    print("exit", main(job))
"""


def test_criterion_10_cli_determinism():
    """Byte-identical stdout of the same commands in two fresh interpreters
    whose hash seeds, and so whose set and frozenset orders, differ."""
    jobs = [
        ["c2", "--family", "complete:4", "--space", "all", "--q", "2,3"],
        ["count", "--family", "wheel:4", "--q", "2,3,5", "--which", "phi"],
        ["verify", "--theorem", "c216", "--family", "Gn:3", "--q", "2,3"],
        ["admissible", "--family", "complete:4", "--mode", "at-q", "--q", "2"],
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(c2lab.__file__)))
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-c", _CLI_JOBS, json.dumps(jobs)], env=env, capture_output=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count(b"exit 0\n") == len(jobs), proc.stdout
        outs.append(proc.stdout)
    ok = outs[0] == outs[1]
    report(10, ok, f"stdout of {len(jobs)} commands at hash seeds 0 and 1")
    assert ok
