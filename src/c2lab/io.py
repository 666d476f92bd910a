"""Text and JSON formats for graphs and polynomials.

Graph text format: a header line ``p N M`` (N edges, M vertices) followed by
N lines ``u v`` of 1-based endpoints.  The JSON form is
``{"vertices": M, "edges": [[u, v], ...]}`` with identical semantics.
"""

from __future__ import annotations

import json

from .errors import BadParameter
from .graphs import Graph
from .multipoly import MLPoly


def graph_to_text(G: Graph) -> str:
    lines = [f"p {G.edge_count} {G.vertex_count}"]
    lines += [f"{u} {v}" for u, v in G.edges]
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    rows = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not rows or rows[0][:1] != ["p"] or len(rows[0]) != 3:
        raise BadParameter("graph text must start with a 'p N M' header")
    n_edges, n_vertices = parse_int(rows[0][1], "edge count"), parse_int(rows[0][2], "vertex count")
    if len(rows) - 1 != n_edges:
        raise BadParameter(f"header promises {n_edges} edges, found {len(rows) - 1}")
    edges = []
    for row in rows[1:]:
        if len(row) != 2:
            raise BadParameter(f"bad edge line {' '.join(row)!r}")
        edges.append((parse_int(row[0], "endpoint"), parse_int(row[1], "endpoint")))
    return Graph(tuple(edges), n_vertices)


def parse_int(text: str, what: str) -> int:
    """An integer field of outside input; BadParameter names ``what``."""
    try:
        return int(text)
    except ValueError as e:
        raise BadParameter(f"bad {what} {text!r}") from e


def graph_to_json_dict(G: Graph) -> dict:
    return {"vertices": G.vertex_count, "edges": [[u, v] for u, v in G.edges]}


def graph_from_json_dict(data) -> Graph:
    try:
        edges = tuple((int(u), int(v)) for u, v in data["edges"])
        return Graph(edges, int(data["vertices"]))
    except (KeyError, TypeError, ValueError) as e:
        raise BadParameter(f"bad graph JSON: {e}") from e


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except ValueError as e:
            raise BadParameter(f"bad graph JSON: {e}") from e
        return graph_from_json_dict(data)
    return graph_from_text(text)


def poly_from_text(text: str) -> MLPoly:
    """The inverse of ``MLPoly.to_text``."""
    text = text.strip()
    if text == "0":
        return MLPoly.zero()
    terms: dict = {}
    for chunk in text.split():
        sign = 1
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign = -1
            chunk = chunk[1:]
        parts = chunk.split("*")
        try:
            coeff = sign * int(parts[0])
            mono = tuple(sorted(int(p[1:]) for p in parts[1:]))
        except ValueError as e:
            raise BadParameter(f"bad polynomial term {chunk!r}") from e
        terms[mono] = terms.get(mono, 0) + coeff
    return MLPoly(terms)
