"""The four workloads: each is a list of checks a c2lab user runs.

A check is one CLI invocation (``c2lab.cli.main`` in-process, the JSON
report written to a temporary file) or, for routes the CLI does not reach,
one call of a public library function.  ``run`` calls the program and
returns its raw output; ``verify`` judges that output against the
independent recounts in ``recount.py`` and against known values, and
returns a list of problems (empty when the output is right).

Known values used below: c2 = q - 1 (that is, -1 mod q) for wheels,
K4 = WS3 included, in every space and at every q (Brown-Schnetz, "A K3 in
phi4", Duke Math. J. 2012); c2 = 0 for G_n, which has subdivergences;
c2_pos = 0 when N < 2n.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import recount as R

# The one check per workload whose time is reported as largest_check_s.
LARGEST = {
    "parametric": "count --family wheel:5 --q 5",
    "position": "c2 --family Gn:4 --space all --q 3",
    "oracles": "count --family wheel:4 --q 9 --method reduced",
    "admissibility": "admissible --family wheel:5 --mode at-q --q 2",
}


class CheckFailed(Exception):
    """The program gave no result for a check."""


@dataclass
class Check:
    name: str
    run: Callable[[], object]
    verify: Callable[[object], list]


class Context:
    """What a workload's checks share: the seed's generator and a scratch directory."""

    def __init__(self, seed: int, tmpdir: str):
        self.rng = random.Random(seed)
        self.tmpdir = tmpdir
        self._n = 0

    def out_path(self) -> str:
        self._n += 1
        return os.path.join(self.tmpdir, f"report{self._n}.json")

    def graph_file(self, name: str, graph) -> str:
        """Write (edges, vertex_count) in c2lab's text graph format."""
        edges, V = graph
        path = os.path.join(self.tmpdir, f"{name}.g")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"p {len(edges)} {V}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        return path

    def relabelled_file(self, spec: str) -> str:
        """A seeded isomorphic copy of a family member, as a graph file."""
        edges, V = R.spec_graph(spec)
        perm = list(range(1, V + 1))
        self.rng.shuffle(perm)
        edges = [(perm[u - 1], perm[v - 1]) for u, v in edges]
        self.rng.shuffle(edges)
        return self.graph_file(f"{spec.replace(':', '')}_relabelled", (edges, V))


def _cli(ctx: Context, argv: list, verify) -> Check:
    from c2lab import cli

    def run():
        out = ctx.out_path()
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            rc = cli.main(argv + ["--out", out])
        if os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                report = json.load(fh)
            os.remove(out)
        else:
            # errors are reported on stdout, not in --out
            text = captured.getvalue().strip()
            report = json.loads(text.splitlines()[-1]) if text else {}
        if rc != 0:
            raise CheckFailed(f"exit code {rc}: {report.get('error', report)}")
        return report

    return Check(" ".join(argv).replace(ctx.tmpdir + os.sep, ""), run, verify)


# -- verifiers -----------------------------------------------------------------


def _expect(problems: list, what: str, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def known_c2(spec: str, q: int):
    """c2 of a family member where a value is known independently of c2lab."""
    name = spec.split(":")[0]
    if name == "wheel" or spec == "complete:4":
        return q - 1
    if name == "Gn":
        return 0
    return None


def v_verify_c2(spec, keys):
    """verify Thm2/p4: every listed detail equals the known c2 at each q."""

    def verify(report):
        problems = []
        _expect(problems, "passed", report.get("passed"), True)
        for res in report["results"]:
            want = known_c2(spec, res["q"])
            for k in keys:
                _expect(problems, f"q={res['q']} {k}", res["details"].get(k), want)
        return problems

    return verify


def v_prop1(spec):
    def verify(report):
        problems = []
        for res in report["results"]:
            q = res["q"]
            _expect(problems, f"q={q} phi_count", int(res["details"]["phi_count"]), R.count("phi", spec, q))
            _expect(problems, f"q={q} mod_q2", res["details"]["mod_q2"], 0)
            _expect(problems, f"q={q} passed", res["passed"], True)
        return problems

    return verify


def v_count(spec, which="psi"):
    def verify(report):
        problems = []
        for res in report["results"]:
            q = res["q"]
            raw = R.count(which, spec, q)
            _expect(problems, f"q={q} raw", int(res["raw"]), raw)
            _expect(problems, f"q={q} q^2 | raw", raw % q**2, 0)
            if which == "psi" and known_c2(spec, q) is not None:
                _expect(problems, f"q={q} quotient_c2", res["quotient_c2"], known_c2(spec, q))
        return problems

    return verify


def v_c2_all(spec):
    """c2 --space ...: the known c2 in every space, and the position quotient
    mod q^3 from the recounted union (an isomorphism invariant, so it also
    judges a relabelled copy of ``spec``)."""

    def verify(report):
        problems = []
        for res in report["results"]:
            q = res["q"]
            for s in ("param", "dual", "pos"):
                _expect(problems, f"q={q} c2_{s}", res[f"c2_{s}"], known_c2(spec, q))
            raw = R.count("quad", spec, q)
            _expect(problems, f"q={q} q^2 | union", raw % q**2, 0)
            _expect(problems, f"q={q} c2_pos_quotient_mod_q3", res["c2_pos_quotient_mod_q3"], (raw // q**2) % q**3)
        return problems

    return verify


def v_c2_pos_recount(spec):
    """c2 --space pos where no value is known: the quotient of the recounted union."""

    def verify(report):
        problems = []
        for res in report["results"]:
            q = res["q"]
            raw = R.count("quad", spec, q)
            _expect(problems, f"q={q} q^2 | union", raw % q**2, 0)
            _expect(problems, f"q={q} c2_pos", res["c2_pos"], (raw // q**2) % q)
            _expect(problems, f"q={q} c2_pos_quotient_mod_q3", res["c2_pos_quotient_mod_q3"], (raw // q**2) % q**3)
        return problems

    return verify


def v_sec3(spec, graph):
    edges, V = graph
    N, n = len(edges), V - 1

    def verify(report):
        problems = []
        _expect(problems, "passed", report.get("passed"), True)
        for res in report["results"]:
            q, d = res["q"], res["details"]
            if N < 2 * n:
                _expect(problems, f"q={q} case", d.get("case"), "N < 2n")
                _expect(problems, f"q={q} c2_pos", d.get("c2_pos"), 0)
            else:
                want = known_c2(spec, q)
                _expect(problems, f"q={q} c2_pos", d.get("c2_pos"), want)
                _expect(problems, f"q={q} c2_dual", d.get("c2_dual"), want)
        return problems

    return verify


def v_c216(spec):
    def verify(report):
        problems = []
        for res in report["results"]:
            q, d = res["q"], res["details"]
            raw = R.count("quad", spec, q)
            _expect(problems, f"q={q} lhs_mod_q3", d["lhs_mod_q3"], raw % q**3)
            _expect(problems, f"q={q} rhs_mod_q3", d["rhs_mod_q3"], raw % q**3)
        return problems

    return verify


def v_c220(spec):
    def verify(report):
        problems = []
        for res in report["results"]:
            q, d = res["q"], res["details"]
            raw = R.count("quad", spec, q)
            _expect(problems, f"q={q} raw", int(d["raw"]), raw)
            _expect(problems, f"q={q} mod_q2", d["mod_q2"], 0)
        return problems

    return verify


def v_c2_no_position(spec, reason_word):
    """c2 --space all where the position leg cannot be had: param and dual
    from the recount, and a recorded reason for the position leg."""

    def verify(report):
        problems = []
        for res in report["results"]:
            q = res["q"]
            for s, kind in (("param", "psi"), ("dual", "phi")):
                raw = R.count(kind, spec, q)
                want = known_c2(spec, q)
                if want is None:
                    _expect(problems, f"q={q} q^2 | [{kind}]", raw % q**2, 0)
                    want = (raw // q**2) % q
                _expect(problems, f"q={q} c2_{s}", res[f"c2_{s}"], want)
            _expect(problems, f"q={q} c2_pos", res["c2_pos"], None)
            if reason_word.lower() not in res["c2_pos_reason"].lower():
                problems.append(f"q={q} c2_pos_reason {res['c2_pos_reason']!r} lacks {reason_word!r}")
        return problems

    return verify


def _at_q_sizes(N, n):
    return [(si, sj) for si in range(0, max(n - 2, 1)) if si <= n - 3 for sj in range(si + 1, N - si + 1)]


def _structural_sizes(N):
    return [(si, sj) for si in range(N + 1) for sj in range(si + 1, N - si + 1)]


def v_admissible(spec, mode):
    edges, V = R.spec_graph(spec)

    def verify(report):
        problems = []
        for res in report["results"]:
            _expect(problems, "admissible (planar)", res["admissible"], True)
            if mode == "at-q":
                pairs = R.scan_pairs(len(edges), _at_q_sizes(len(edges), V - 1))
                _expect(problems, f"q={res['q']} examined + skipped", res["examined"] + res["skipped_degenerate"], pairs)
            else:
                _expect(problems, "planar_shortcut", res["planar_shortcut"], True)
        return problems

    return verify


def v_structural_scan(N):
    """A structural scan that reports admissible must have seen every pair."""

    def verify(report):
        problems = []
        res = report["results"][0]
        if res["admissible"]:
            _expect(problems, "examined + skipped", res["examined"] + res["skipped_degenerate"],
                    R.scan_pairs(N, _structural_sizes(N)))
        else:
            problems.append(f"not admissible at {res['failure']}: {res['failure_detail']}")
        return problems

    return verify


def v_census(spec, u, v):
    edges, V = R.spec_graph(spec)
    N, n = len(edges), V - 1
    h = N - n

    def verify(report):
        problems = []
        _expect(problems, "r_bar", int(report["r_bar"]), math.comb(N, h - u) * math.comb(N - h + u, n - v))
        if spec.startswith("Gn") and (u, v) in ((1, 2), (2, 1)):
            want = R.lem36_forms(n)[0 if (u, v) == (1, 2) else 1]
        elif v == 0:
            want = math.comb(h, u) * R.spanning_tree_count(edges, V)
        elif u == 0:
            want = math.comb(n, v) * R.spanning_tree_count(edges, V)
        else:
            raise ValueError("no independent value for this census")
        _expect(problems, "r", int(report["r"]), want)
        return problems

    return verify


def v_lem36(n):
    def verify(report):
        d = report["results"][0]["details"]
        problems = []
        r12, r21 = R.lem36_forms(n)
        _expect(problems, "r12", d["r12"], r12)
        _expect(problems, "r21", d["r21"], r21)
        return problems

    return verify


def v_prop34(spec):
    edges, V = R.spec_graph(spec)

    def verify(report):
        d = report["results"][0]["details"]
        problems = []
        T = R.spanning_tree_count(edges, V)
        N, n = len(edges), V - 1
        _expect(problems, "spanning_trees", d["spanning_trees"], T)
        for u in range(N - n + 1):
            _expect(problems, f"r({u},0)", d[f"r({u},0)"], math.comb(N - n, u) * T)
        for u in range(n + 1):
            _expect(problems, f"r(0,{u})", d[f"r(0,{u})"], math.comb(n, u) * T)
        return problems

    return verify


# -- workloads -------------------------------------------------------------------


def parametric(ctx: Context) -> list:
    c = []
    for spec, qs in (
        ("wheel:4", "2,3,4,5,7"),
        ("wheel:5", "2,3"),
        ("wheel:6", "2,3"),
        ("complete:4", "2,3,4,5,7"),
        ("Gn:3", "2,3,4,5,7"),
        ("Gn:4", "2,3,4,5"),
    ):
        c.append(_cli(ctx, ["verify", "--theorem", "Thm2", "--family", spec, "--q", qs],
                      v_verify_c2(spec, ("c2_param", "c2_dual"))))
    for spec, qs in (("wheel:4", "2,3,4,5,7"), ("wheel:5", "2,3")):
        c.append(_cli(ctx, ["verify", "--theorem", "p4", "--family", spec, "--q", qs],
                      v_verify_c2(spec, ("reduced", "c2_dual"))))
    for spec, qs in (("wheel:4", "2,3,4,5,7"), ("complete:4", "2,3,4,5,7"), ("Gn:4", "2,3,5")):
        c.append(_cli(ctx, ["verify", "--theorem", "Prop1", "--family", spec, "--q", qs], v_prop1(spec)))
    for spec, qs, which in (
        ("wheel:4", "4", "psi"),
        ("wheel:4", "4", "phi"),
        ("complete:4", "8,9", "psi"),
        ("wheel:5", "5", "psi"),
    ):
        argv = ["count", "--family", spec, "--q", qs] + (["--which", "phi"] if which == "phi" else [])
        c.append(_cli(ctx, argv, v_count(spec, which)))
    path = ctx.relabelled_file("wheel:4")
    c.append(_cli(ctx, ["verify", "--theorem", "Thm2", "--graph-file", path, "--q", "2,3,5"],
                  v_verify_c2("wheel:4", ("c2_param", "c2_dual"))))
    return c


# The sub-log-divergent control K4 - e (corpus name K4_minus_edge) and the
# non-planar log-divergent K_{3,3} plus a doubled edge
# (corpus.nonplanar_log_divergent), given to the CLI as graph files.
K4_MINUS_EDGE = ([(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)], 4)
K33_DOUBLED = ([(u, v) for u in (1, 2, 3) for v in (4, 5, 6)] + [(1, 4)], 6)


def position(ctx: Context) -> list:
    c = []
    for spec in ("complete:4", "Gn:3"):
        c.append(_cli(ctx, ["c2", "--family", spec, "--space", "all", "--q", "2,3"], v_c2_all(spec)))
    path = ctx.relabelled_file("complete:4")
    c.append(_cli(ctx, ["c2", "--graph-file", path, "--space", "all", "--q", "2,3"], v_c2_all("complete:4")))
    c.append(_cli(ctx, ["c2", "--family", "Gn:4", "--space", "all", "--q", "3"], v_c2_all("Gn:4")))
    c.append(_cli(ctx, ["c2", "--family", "cycle:3", "--space", "pos", "--q", "4"], v_c2_pos_recount("cycle:3")))
    k4e = ctx.graph_file("K4_minus_edge", K4_MINUS_EDGE)
    for src, spec, graph, qs in (
        (["--family", "complete:4"], "complete:4", R.spec_graph("complete:4"), "2,3"),
        (["--family", "Gn:3"], "Gn:3", R.spec_graph("Gn:3"), "2,3"),
        (["--family", "cycle:4"], "cycle:4", R.spec_graph("cycle:4"), "2,3"),
        (["--family", "cycle:5"], "cycle:5", R.spec_graph("cycle:5"), "2"),
        (["--graph-file", k4e], None, K4_MINUS_EDGE, "2,3"),
    ):
        c.append(_cli(ctx, ["verify", "--theorem", "Sec3Thm"] + src + ["--q", qs], v_sec3(spec, graph)))
    for spec, qs in (("complete:4", "2,3"), ("Gn:3", "2,3"), ("cycle:3", "4")):
        c.append(_cli(ctx, ["verify", "--theorem", "c216", "--family", spec, "--q", qs], v_c216(spec)))
    for spec, qs in (("complete:4", "2,3"), ("Gn:3", "2,3"), ("cycle:4", "2,3"), ("cycle:3", "4")):
        c.append(_cli(ctx, ["verify", "--theorem", "c220", "--family", spec, "--q", qs], v_c220(spec)))
    # Today this spends most of its time on a position count that c2_verdict
    # then discards, because K5 has N > 2n.
    c.append(_cli(ctx, ["c2", "--family", "complete:5", "--space", "all", "--q", "3"],
                  v_c2_no_position("complete:5", "N_G <= 2 n_G")))
    # Fails today: the position leg's BudgetExceeded escapes c2_verdict, so
    # the computed parametric and dual legs are lost (exit code 3).
    c.append(_cli(ctx, ["c2", "--family", "wheel:7", "--space", "all", "--q", "2"],
                  v_c2_no_position("wheel:7", "budget")))
    return c


def _sing_check(label, G, edges, V, q) -> Check:
    from c2lab import counting, fields

    F = fields.make_field(q)

    def run():
        return (
            counting.sing_count(G, F, "rank").raw,
            counting.sing_count(G, F, "jacobian").raw,
        )

    def verify(result):
        rank, jac = result
        problems = []
        _expect(problems, "rank route = jacobian route", rank, jac)
        _expect(problems, "q | Sing", jac % q, 0)
        _expect(problems, "Sing", jac, R.sing_points(edges, V, q))
        return problems

    return Check(f"sing_count rank/jacobian {label} q={q}", run, verify)


def _rank_sums_check(spec, G, subset, q) -> Check:
    from c2lab import fields, quadrics

    F = fields.make_field(q)
    edges, V = R.spec_graph(spec)

    def run():
        return quadrics.restricted_matrix_rank_sums(G, F, subset)

    def verify(result):
        ranks = R.laplacian_ranks(edges, V, q, [lab - 1 for lab in subset])
        n = V - 1
        want = (
            sum(q ** (2 * (n - int(r))) for r in ranks),
            int((ranks < n).sum()),
            int((ranks < n - 1).sum()),
        )
        problems = []
        _expect(problems, "(sum q^(2 corank), #det=0, #rank<n-1)", tuple(result), want)
        return problems

    return Check(f"restricted_matrix_rank_sums {spec} {sorted(subset)} q={q}", run, verify)


def _random_system_check(ctx: Context, i: int) -> Check:
    """A seeded random multilinear polynomial, shaped as in acceptance criterion 4."""
    from c2lab import counting, fields, multipoly

    rng = ctx.rng
    q = rng.choice((2, 3, 4, 5))
    n = rng.randint(1, 10)
    while q**n > 1 << 16:
        n -= 1
    terms = {}
    for _ in range(rng.randint(1, 12)):
        mono = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, min(4, n)))))
        terms[mono] = rng.randint(-5, 5)
    P = multipoly.MLPoly(terms)
    F = fields.make_field(q)

    def run():
        return counting.count_reduced(P, F, n).raw

    def verify(raw):
        problems = []
        want = R.poly_zeros([(c, m) for m, c in terms.items() if c], n, q)
        _expect(problems, "count", raw, want)
        return problems

    return Check(f"count_reduced random system {i} (q={q}, n={n})", run, verify)


def oracles(ctx: Context) -> list:
    from c2lab import corpus, graphs

    c = []
    for name, G in corpus.named_graphs().items():
        if not graphs.is_connected(G) or G.h < 2:
            continue
        for q in (2, 3, 4, 5):
            if q**G.edge_count <= 4096 or (name, q) == ("K4", 5):
                c.append(_sing_check(name, G, list(G.edges), G.vertex_count, q))
    W4 = graphs.family("wheel", 4)  # the corpus's wheel4, already in the list at q = 2
    c.append(_sing_check("wheel:4", W4, *R.spec_graph("wheel:4"), 3))
    for subset, q in (((1, 2, 3, 4, 5, 6), 3), ((1, 2, 5, 6, 7), 4), ((1, 3, 5, 7), 5)):
        c.append(_rank_sums_check("wheel:4", W4, subset, q))
    for spec, qs in (
        ("wheel:4", "2,3,4,5,7,8"),
        ("wheel:4", "9"),
        ("wheel:5", "2,3,4,5"),
        ("wheel:6", "2,3"),
    ):
        c.append(_cli(ctx, ["count", "--family", spec, "--q", qs, "--method", "reduced"], v_count(spec)))
    for i in range(30):
        c.append(_random_system_check(ctx, i))
    return c


def _s_t_check(spec, G, t, q) -> Check:
    from c2lab import fields, invariants

    F = fields.make_field(q)

    def run():
        return invariants.s_t_sums(G, t, F)

    def verify(result):
        s_psi, s_phi = result
        problems = []
        _expect(problems, "s_psi = s_phi", s_psi, s_phi)
        return problems

    return Check(f"s_t_sums {spec} t={t} q={q}", run, verify)


def admissibility(ctx: Context) -> list:
    from c2lab import graphs

    c = []
    for spec, qs in (
        ("wheel:4", "2,3"),
        ("wheel:5", "2"),
        ("wheel:5", "3"),
        ("Gn:3", "2,3"),
        ("Gn:4", "2,3"),
    ):
        c.append(_cli(ctx, ["admissible", "--family", spec, "--mode", "at-q", "--q", qs], v_admissible(spec, "at-q")))
    path = ctx.relabelled_file("wheel:4")
    c.append(_cli(ctx, ["admissible", "--graph-file", path, "--mode", "at-q", "--q", "3"], v_admissible("wheel:4", "at-q")))
    for spec in ("wheel:5", "Gn:4"):
        c.append(_cli(ctx, ["admissible", "--family", spec, "--mode", "structural"], v_admissible(spec, "structural")))
    k33 = ctx.graph_file("K33_doubled", K33_DOUBLED)
    c.append(_cli(ctx, ["admissible", "--graph-file", k33, "--mode", "structural"], v_structural_scan(len(K33_DOUBLED[0]))))
    for spec, uvs in (
        ("Gn:4", ((1, 2), (2, 1))),
        ("Gn:5", ((1, 2), (2, 1))),
        ("wheel:6", ((1, 0), (2, 0), (0, 1), (0, 2))),
    ):
        for u, v in uvs:
            c.append(_cli(ctx, ["census", "--family", spec, "--u", str(u), "--v", str(v)], v_census(spec, u, v)))
    for n in (3, 4, 5):
        c.append(_cli(ctx, ["verify", "--theorem", "lem36", "--family", f"Gn:{n}"], v_lem36(n)))
    c.append(_cli(ctx, ["verify", "--theorem", "prop34", "--family", "wheel:5"], v_prop34("wheel:5")))
    W4 = graphs.family("wheel", 4)
    for t in (1, 2):
        c.append(_s_t_check("wheel:4", W4, t, 2))
    c.append(_s_t_check("wheel:4", W4, 1, 3))
    return c


BUILDERS = {
    "parametric": parametric,
    "position": position,
    "oracles": oracles,
    "admissibility": admissibility,
}


def build(workload: str, ctx: Context) -> list:
    checks = BUILDERS[workload](ctx)
    names = [ch.name for ch in checks]
    if LARGEST[workload] not in names or len(set(names)) != len(names):
        raise RuntimeError(f"check list of {workload} lacks its largest check or repeats a name")
    return checks
