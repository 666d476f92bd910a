"""Command-line interface emitting deterministic JSON reports.

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 enumeration budget exceeded.  Counts that may exceed 53-bit precision are
emitted as decimal strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import corpus, io
from .counting import count_reduced, count_zeros, count_zeros_torus
from .errors import DEFAULT_BUDGET, BadParameter, BudgetExceeded, C2LabError
from .fields import FqField, make_field
from .graphs import Graph, census, family, is_connected, spanning_trees
from .invariants import (
    FIELD_FREE_THEOREMS,
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


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(report: dict) -> str:
    return json.dumps({"schema": SCHEMA, **report}, sort_keys=True, separators=(",", ":")) + "\n"


def _graph_from_args(args) -> tuple[str, Graph]:
    if args.graph_file and args.family:
        raise BadParameter("give exactly one of --graph-file and --family")
    if args.graph_file:
        return os.path.basename(args.graph_file), io.load_graph(args.graph_file)
    if args.family:
        spec = args.family
        if ":" not in spec:
            raise BadParameter("family spec must look like name:n, e.g. wheel:3")
        name, _, param = spec.partition(":")
        return spec, family(name, io.parse_int(param, "family parameter"))
    raise BadParameter("a graph source is required (--graph-file or --family)")


def _fields(args) -> list[FqField]:
    """The fields of ``--q``, every one built before the first count, so a
    malformed or unsupported q is reported before any counting starts."""
    if not args.q:
        raise BadParameter("--q is required for this command")
    try:
        qs = [int(x) for x in str(args.q).split(",") if x.strip()]
    except ValueError as e:
        raise BadParameter(f"bad --q list {args.q!r}") from e
    if not qs:
        raise BadParameter("--q list is empty")
    return [make_field(q) for q in qs]


def _graph_json(gid: str, G: Graph) -> dict:
    return {"id": gid, **io.graph_to_json_dict(G)}


# Each _cmd_* returns (report, exit code): the report is the JSON body
# without "schema" and "command", or the text of --format text.


def _cmd_poly(args):
    gid, G = _graph_from_args(args)
    P = psi(G) if args.which == "psi" else phi(G)
    if args.format == "text":
        return P.to_text() + "\n", 0
    return {"graph": _graph_json(gid, G), "which": args.which, "poly": P.to_json_terms()}, 0


def _cmd_count(args):
    if args.method == "reduced" and args.torus:
        raise BadParameter("--torus counts by brute force only; drop --method reduced")
    gid, G = _graph_from_args(args)
    fields = _fields(args)
    P = psi(G) if args.which == "psi" else phi(G)
    if args.method == "reduced":
        reports = [count_reduced(P, F, G.edge_count, budget=args.budget) for F in fields]
    else:
        count = count_zeros_torus if args.torus else count_zeros
        reports = [count([P], F, G.edge_count, budget=args.budget) for F in fields]
    return {
        "graph": _graph_json(gid, G),
        "which": args.which,
        "torus": bool(args.torus),
        "method": args.method,
        "results": [rep.to_json() for rep in reports],
    }, 0


def _cmd_c2(args):
    gid, G = _graph_from_args(args)
    spaces = ("param", "dual", "pos") if args.space == "all" else (args.space,)
    results = [
        c2_verdict(G, F, spaces, gid, budget=args.budget).to_json() for F in _fields(args)
    ]
    return {"graph": _graph_json(gid, G), "space": args.space, "results": results}, 0


def _cmd_verify(args):
    gid, G = _graph_from_args(args)
    if args.q or args.theorem not in FIELD_FREE_THEOREMS:
        fields = _fields(args)
    if args.theorem in FIELD_FREE_THEOREMS:
        # the census statements take no field and are checked once; a --q
        # given to them is still parsed and built, so a bad one exits 2
        fields = [None]
    reports = [verify(args.theorem, G, F, budget=args.budget) for F in fields]
    ok = all(rep.passed for rep in reports)
    return {
        "graph": _graph_json(gid, G),
        "theorem": args.theorem,
        "passed": ok,
        "results": [rep.to_json() for rep in reports],
    }, 0 if ok else 1


def _cmd_admissible(args):
    gid, G = _graph_from_args(args)
    if args.mode == "structural":
        reports = [admissible_structural(G, budget=args.budget)]
    else:
        reports = admissible_at_q(G, _fields(args), budget=args.budget)
    return {
        "graph": _graph_json(gid, G),
        "mode": args.mode,
        "results": [rep.to_json() for rep in reports],
    }, 0


def _cmd_census(args):
    gid, G = _graph_from_args(args)
    r, r_bar = census(G, args.u, args.v)
    return {
        "graph": _graph_json(gid, G),
        "u": args.u,
        "v": args.v,
        "r": str(r),
        "r_bar": str(r_bar),
    }, 0


def _cmd_diag(args):
    gid, G = _graph_from_args(args)
    if args.tree:
        T = frozenset(io.parse_int(x, "tree label") for x in args.tree.split(","))
    else:
        T = spanning_trees(G)[0]
    d = diagonalize_wrt_tree(G, T)
    return {
        "graph": _graph_json(gid, G),
        "tree": sorted(T),
        "ops": [[op.source, op.target] for op in d.ops],
        "vertex_order": list(d.vertex_order),
        "tree_order": list(d.tree_order),
        "root": d.root,
        "matrix": [[e.to_text() for e in row] for row in d.matrix.entries],
    }, 0


def _cmd_family(args):
    gid, G = _graph_from_args(args)
    if args.format == "text":
        return io.graph_to_text(G), 0
    report = {"graph": _graph_json(gid, G), "planar": is_planar(G)}
    if report["planar"] and is_connected(G):
        report["dual"] = io.graph_to_json_dict(planar_dual(G))
    return report, 0


def _cmd_seed_corpus(args):
    os.makedirs(args.out_dir, exist_ok=True)
    written = []
    for name, G in corpus.named_graphs().items():
        path = os.path.join(args.out_dir, f"{name}.g")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(io.graph_to_text(G))
        written.append(path)
    return {"files": sorted(written)}, 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="c2lab",
        description="Graph polynomials, finite-field point counts, and c2 invariants.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p, graph=True, counts=False):
        p.add_argument("--out", help="write the JSON report to this path")
        if graph:
            p.add_argument("--graph-file", help="graph in text or JSON format")
            p.add_argument("--family", help="family spec name:n (banana, cycle, path, wheel, complete, Gn)")
        if counts:
            p.add_argument("--q", help="comma-separated prime powers, e.g. 2,3,5")
            p.add_argument(
                "--budget",
                type=int,
                default=DEFAULT_BUDGET,
                help="maximum number of enumerated points",
            )

    p = sub.add_parser("poly", help="print psi or phi of a graph")
    add_common(p)
    p.add_argument("--which", choices=("psi", "phi"), default="psi")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_poly)

    p = sub.add_parser("count", help="count zeros of psi or phi over F_q")
    add_common(p, counts=True)
    p.add_argument("--which", choices=("psi", "phi"), default="psi")
    p.add_argument("--torus", action="store_true", help="restrict to nonzero coordinates")
    p.add_argument("--method", choices=("brute", "reduced"), default="brute")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("c2", help="c2 invariants in the three spaces")
    add_common(p, counts=True)
    p.add_argument("--space", choices=("param", "dual", "pos", "all"), default="all")
    p.set_defaults(fn=_cmd_c2)

    p = sub.add_parser("verify", help="recompute both sides of a theorem")
    add_common(p, counts=True)
    p.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("admissible", help="duality admissibility checks")
    add_common(p, counts=True)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built by the first ``main`` call, not at
    import.  Building it costs more than a small count, and parsing leaves
    it unchanged, so every later call reuses it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if getattr(args, "budget", 0) < 0:
            raise BadParameter(f"--budget must be 0 or more, not {args.budget}")
        report, code = args.fn(args)
        if isinstance(report, dict):
            report = _json({"command": args.command, **report})
        _write(report, args.out)
        return code
    except BudgetExceeded as e:
        code, error = 3, {"code": e.code, "message": str(e)}
    except C2LabError as e:
        code, error = 2, {"code": e.code, "message": str(e)}
    except OSError as e:
        code, error = 2, {"code": "IOError", "message": str(e)}
    _write(_json({"command": args.command, "error": error}), None)
    return code


if __name__ == "__main__":
    sys.exit(main())
