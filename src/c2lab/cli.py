"""Command-line interface emitting deterministic JSON reports.

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 enumeration budget exceeded.  Counts that may exceed 53-bit precision are
emitted as decimal strings; reports are byte-identical across thread counts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import corpus, io
from .counting import DEFAULT_BUDGET, count_reduced, count_zeros, count_zeros_torus
from .errors import BudgetExceeded, C2LabError
from .fields import make_field
from .graphs import Graph, census, family
from .invariants import (
    THEOREM_IDS,
    admissible_at_q,
    admissible_structural,
    c2_verdict,
    verify,
)
from .matform import diagonalize_wrt_tree
from .multipoly import phi, psi
from .planar import is_planar, planar_dual

SCHEMA = "c2lab/1"


def _emit(report: dict, out_path: str | None) -> None:
    report = {"schema": SCHEMA, **report}
    text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _graph_from_args(args) -> tuple[str, Graph]:
    if getattr(args, "graph_file", None) and getattr(args, "family", None):
        raise C2LabError("give exactly one of --graph-file and --family")
    if getattr(args, "graph_file", None):
        return os.path.basename(args.graph_file), io.load_graph(args.graph_file)
    if getattr(args, "family", None):
        spec = args.family
        if ":" not in spec:
            raise C2LabError("family spec must look like name:n, e.g. wheel:3")
        name, _, param = spec.partition(":")
        return spec, family(name, int(param))
    raise C2LabError("a graph source is required (--graph-file or --family)")


def _q_list(args) -> list[int]:
    if not getattr(args, "q", None):
        raise C2LabError("--q is required for this command")
    try:
        qs = [int(x) for x in str(args.q).split(",") if x.strip()]
    except ValueError as e:
        raise C2LabError(f"bad --q list {args.q!r}") from e
    if not qs:
        raise C2LabError("--q list is empty")
    return qs


def _graph_json(gid: str, G: Graph) -> dict:
    return {"id": gid, **io.graph_to_json_dict(G)}


def _cmd_poly(args) -> int:
    gid, G = _graph_from_args(args)
    P = psi(G) if args.which == "psi" else phi(G)
    if args.format == "text":
        out = io.poly_to_text(P)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out + "\n")
        else:
            print(out)
        return 0
    _emit(
        {
            "command": "poly",
            "graph": _graph_json(gid, G),
            "which": args.which,
            "poly": io.poly_to_json_terms(P),
        },
        args.out,
    )
    return 0


def _cmd_count(args) -> int:
    gid, G = _graph_from_args(args)
    P = psi(G) if args.which == "psi" else phi(G)
    results = []
    for q in _q_list(args):
        F = make_field(q)
        if args.method == "reduced":
            rep = count_reduced(P, F, G.edge_count, budget=args.budget)
        elif args.torus:
            rep = count_zeros_torus([P], F, G.edge_count, budget=args.budget, threads=args.threads)
        else:
            rep = count_zeros([P], F, G.edge_count, budget=args.budget, threads=args.threads)
        results.append(rep.to_json())
    _emit(
        {
            "command": "count",
            "graph": _graph_json(gid, G),
            "which": args.which,
            "torus": bool(args.torus),
            "method": args.method,
            "results": results,
        },
        args.out,
    )
    return 0


def _cmd_c2(args) -> int:
    gid, G = _graph_from_args(args)
    spaces = ("param", "dual", "pos") if args.space == "all" else (args.space,)
    results = []
    for q in _q_list(args):
        F = make_field(q)
        v = c2_verdict(G, F, spaces, gid, budget=args.budget, threads=args.threads)
        results.append(v.to_json())
    _emit(
        {"command": "c2", "graph": _graph_json(gid, G), "space": args.space, "results": results},
        args.out,
    )
    return 0


def _cmd_verify(args) -> int:
    gid, G = _graph_from_args(args)
    results = []
    ok = True
    if args.theorem in ("prop34", "cor35", "lem36"):
        rep = verify(args.theorem, G, None, budget=args.budget, threads=args.threads)
        results.append(rep.to_json())
        ok = ok and rep.passed
    else:
        for q in _q_list(args):
            rep = verify(
                args.theorem, G, make_field(q), budget=args.budget, threads=args.threads
            )
            results.append(rep.to_json())
            ok = ok and rep.passed
    _emit(
        {
            "command": "verify",
            "graph": _graph_json(gid, G),
            "theorem": args.theorem,
            "passed": ok,
            "results": results,
        },
        args.out,
    )
    return 0 if ok else 1


def _cmd_admissible(args) -> int:
    gid, G = _graph_from_args(args)
    results = []
    if args.mode == "structural":
        results.append(admissible_structural(G).to_json())
    else:
        for q in _q_list(args):
            rep = admissible_at_q(G, make_field(q), budget=args.budget, threads=args.threads)
            results.append(rep.to_json())
    _emit(
        {
            "command": "admissible",
            "graph": _graph_json(gid, G),
            "mode": args.mode,
            "results": results,
        },
        args.out,
    )
    return 0


def _cmd_census(args) -> int:
    gid, G = _graph_from_args(args)
    r, r_bar = census(G, args.u, args.v)
    _emit(
        {
            "command": "census",
            "graph": _graph_json(gid, G),
            "u": args.u,
            "v": args.v,
            "r": str(r),
            "r_bar": str(r_bar),
        },
        args.out,
    )
    return 0


def _cmd_diag(args) -> int:
    gid, G = _graph_from_args(args)
    if args.tree:
        T = frozenset(int(x) for x in args.tree.split(","))
    else:
        from .graphs import spanning_trees

        T = spanning_trees(G)[0]
    d = diagonalize_wrt_tree(G, T)
    _emit(
        {
            "command": "diag",
            "graph": _graph_json(gid, G),
            "tree": sorted(T),
            "ops": [[op.source, op.target] for op in d.ops],
            "vertex_order": list(d.vertex_order),
            "tree_order": list(d.tree_order),
            "root": d.root,
            "matrix": [[e.to_text() for e in row] for row in d.matrix.entries],
        },
        args.out,
    )
    return 0


def _cmd_family(args) -> int:
    gid, G = _graph_from_args(args)
    if args.format == "text":
        out = io.graph_to_text(G)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out)
        else:
            sys.stdout.write(out)
        return 0
    report = {"command": "family", "graph": _graph_json(gid, G)}
    report["planar"] = is_planar(G)
    if report["planar"]:
        from .graphs import is_connected

        if is_connected(G):
            report["dual"] = io.graph_to_json_dict(planar_dual(G))
    _emit(report, args.out)
    return 0


def _cmd_seed_corpus(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    written = []
    for name, G in corpus.named_graphs().items():
        path = os.path.join(args.out_dir, f"{name}.g")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(io.graph_to_text(G))
        written.append(path)
    _emit({"command": "seed-corpus", "files": sorted(written)}, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="c2lab",
        description="Graph polynomials, finite-field point counts, and c2 invariants.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p, graph=True, q=False):
        p.add_argument("--out", help="write the JSON report to this path")
        p.add_argument("--threads", type=int, default=1, help="parallel counting lanes")
        p.add_argument(
            "--budget",
            type=int,
            default=DEFAULT_BUDGET,
            help="maximum number of enumerated points",
        )
        if graph:
            p.add_argument("--graph-file", help="graph in text or JSON format")
            p.add_argument("--family", help="family spec name:n (banana, cycle, path, wheel, complete, Gn)")
        if q:
            p.add_argument("--q", help="comma-separated prime powers, e.g. 2,3,5")

    p = sub.add_parser("poly", help="print psi or phi of a graph")
    add_common(p)
    p.add_argument("--which", choices=("psi", "phi"), default="psi")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_poly)

    p = sub.add_parser("count", help="count zeros of psi or phi over F_q")
    add_common(p, q=True)
    p.add_argument("--which", choices=("psi", "phi"), default="psi")
    p.add_argument("--torus", action="store_true", help="restrict to nonzero coordinates")
    p.add_argument("--method", choices=("brute", "reduced"), default="brute")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("c2", help="c2 invariants in the three spaces")
    add_common(p, q=True)
    p.add_argument("--space", choices=("param", "dual", "pos", "all"), default="all")
    p.set_defaults(fn=_cmd_c2)

    p = sub.add_parser("verify", help="recompute both sides of a theorem")
    add_common(p, q=True)
    p.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("admissible", help="duality admissibility checks")
    add_common(p, q=True)
    p.add_argument("--mode", choices=("structural", "at-q"), default="structural")
    p.set_defaults(fn=_cmd_admissible)

    p = sub.add_parser("census", help="count small subquotients r^{u,v}")
    add_common(p)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("diag", help="spanning-tree diagonalization of P_G")
    add_common(p)
    p.add_argument("--tree", help="comma-separated edge labels of a spanning tree")
    p.set_defaults(fn=_cmd_diag)

    p = sub.add_parser("family", help="materialize a family member")
    add_common(p)
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("seed-corpus", help="write the built-in corpus to files")
    add_common(p, graph=False)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=_cmd_seed_corpus)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except BudgetExceeded as e:
        _emit({"command": args.command, "error": {"code": e.code, "message": str(e)}}, None)
        return 3
    except C2LabError as e:
        _emit({"command": args.command, "error": {"code": e.code, "message": str(e)}}, None)
        return 2
    except OSError as e:
        _emit({"command": args.command, "error": {"code": "IOError", "message": str(e)}}, None)
        return 2


if __name__ == "__main__":
    sys.exit(main())
