"""Named polynomial identities with sign-witness search.

The source statements carry undetermined signs (and one suspected typo), so
each check is existential over the allowed sign slots and reports the
witness that makes the identity exact.  A returned ``holds=False`` means no
sign assignment works, which would be refutation data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import BadIndices
from .graphs import Graph, _simple_reduction, contract, delete, shortest_cycle
from .multipoly import (
    MLPoly,
    phi,
    phi_dodgson_pair,
    resultant,
)


@dataclass
class IdentityResult:
    name: str
    holds: bool
    witness: dict = field(default_factory=dict)

    def __bool__(self):
        return self.holds


def _phi_split2(G: Graph, i: int, j: int):
    """The four iterated coefficients of phi with respect to a_i, a_j."""
    f = phi(G)
    fi, f_i = f.coeff_and_rest(i)
    fij, fi_j = fi.coeff_and_rest(j)
    f_ij, f_i_j = f_i.coeff_and_rest(j)
    # fij = phi^{ij}, fi_j = phi^i_j, f_ij = phi^j_i, f_i_j = phi_{ij}
    return fij, fi_j, f_ij, f_i_j


def check_identity(name: str, G: Graph, indices=None, *, minors: dict | None = None) -> IdentityResult:
    """Verify one named identity on G; see _CHECKS for the catalogue.

    ``minors`` memoizes the dual Dodgson minors phi^{A,B}_C of G by
    (A, B, C); checks of the same G may share one dict (see
    ``sweep_identities``), checks of different graphs must not.
    """
    fn = _CHECKS.get(name)
    if fn is None:
        raise BadIndices(f"unknown identity {name!r}; known: {sorted(_CHECKS)}")
    memo = {} if minors is None else minors

    def pair(A, B, C=()) -> MLPoly:
        key = (frozenset(A), frozenset(B), frozenset(C))
        if key not in memo:
            memo[key] = phi_dodgson_pair(G, *key)
        return memo[key]

    return fn(G, indices or {}, pair)


def sweep_identities(G: Graph, names=None):
    """Yield (name, indices, result) for each identity of ``names`` (all by
    default) at each of its ``default_identity_indices`` on G.  The checks
    share one memo of G's dual Dodgson minors, made for this sweep."""
    minors: dict = {}
    for name in IDENTITY_NAMES if names is None else names:
        for idx in default_identity_indices(G, name):
            yield name, idx, check_identity(name, G, idx, minors=minors)


def _get(indices, key):
    if key not in indices:
        raise BadIndices(f"identity needs index {key!r}")
    return indices[key]


def _c10(G: Graph, indices, pair) -> IdentityResult:
    k = _get(indices, "k")
    f = phi(G)
    hi, lo = f.coeff_and_rest(k)
    u, v = G.endpoints(k)
    if u == v:
        ok = hi.is_zero and lo == phi(delete(G, {k}))
        return IdentityResult("c10", ok, {"case": "self-loop"})
    ok = hi == phi(contract(G, {k})) and lo == phi(delete(G, {k}))
    return IdentityResult("c10", ok, {"case": "regular"})


def _e100(G: Graph, indices, pair) -> IdentityResult:
    k = _get(indices, "k")
    u, v = G.endpoints(k)
    if u != v:
        raise BadIndices(f"edge {k} is not a self-loop")
    ok = phi(G) == phi(delete(G, {k}))
    return IdentityResult("e100", ok)


def _e101(G: Graph, indices, pair) -> IdentityResult:
    a, b = _get(indices, "pair")
    ea, eb = G.endpoints(a), G.endpoints(b)
    if ea != eb or ea[0] == ea[1]:
        raise BadIndices(f"edges {a},{b} are not a parallel pair")
    lhs = phi(G)
    mid = phi(contract(delete(G, {a}), {b}))
    rhs = mid * (MLPoly.variable(a) + MLPoly.variable(b)) + phi(delete(G, {a, b}))
    return IdentityResult("e101", lhs == rhs)


def _first_signs(n: int, holds):
    """The first tuple of n signs, in the product order below (all +1 first,
    the last sign varying fastest), for which ``holds(signs)`` is true, or
    None if none is.  The order decides the reported witness wherever
    several hold.  For n = 0 the one tuple is (), a witness like any other."""
    return next((s for s in itertools.product((1, -1), repeat=n) if holds(s)), None)


def _found(name: str, signs, *keys) -> IdentityResult:
    """name's result for the signs of ``_first_signs``, each under its key."""
    if signs is None:
        return IdentityResult(name, False)
    return IdentityResult(name, True, dict(zip(keys, signs)))


def _c14(G: Graph, indices, pair) -> IdentityResult:
    i, j = _get(indices, "i"), _get(indices, "j")
    fij, fi_j, f_ij, f_i_j = _phi_split2(G, i, j)
    rhs = pair({i}, {j}) ** 2
    lhs_main, lhs_signed = fi_j * f_ij, fij * f_i_j
    return _found("c14", _first_signs(1, lambda s: lhs_main + s[0] * lhs_signed == rhs), "sign")


def _c15(G: Graph, indices, pair) -> IdentityResult:
    i, j = _get(indices, "i"), _get(indices, "j")
    f = phi(G)
    fi = f.coeff_and_rest(i)[0]
    fj = f.coeff_and_rest(j)[0]
    fij, fi_j, f_ij, f_i_j = _phi_split2(G, i, j)
    rhs = pair({i}, {j}) ** 2
    first, first_signed = fj * fi, fij * f
    second, second_signed = fi_j * f_ij, fij * f_i_j

    def holds(s):
        return first + s[0] * first_signed == second + s[0] * second_signed == rhs

    return _found("c15", _first_signs(1, holds), "sign")


def _dodgson(name: str, indices, pair, terms) -> IdentityResult:
    """c18 or c20: t1 + s2 * t2 = s3 * rhs, where ``terms(I | K, J | K, S,
    a, b, x)`` gives the two phi^{A,B}_C index triples of t1, t2 and rhs."""
    I, J, S, K = (frozenset(indices.get(key, ())) for key in "IJSK")
    if name == "c20" and len(J) != len(I) + 1:
        raise BadIndices("c20 needs |J| = |I| + 1")
    a, b, x = (_get(indices, key) for key in "abx")
    t1, t2, rhs = (pair(*A) * pair(*B) for A, B in terms(I | K, J | K, S, a, b, x))
    # sign of each product depends on row/column conventions: resolve both
    # the relative sign of the left terms and the right-hand sign
    signs = _first_signs(2, lambda s: t1 + s[0] * t2 == s[1] * rhs)
    return _found(name, signs, "lhs_sign", "rhs_sign")


def _c18(G: Graph, indices, pair) -> IdentityResult:
    return _dodgson("c18", indices, pair, lambda IK, JK, S, a, b, x: (
        ((IK | {x}, JK | {x}, S), (IK | {a}, JK | {b}, S | {x})),
        ((IK, JK, S | {x}), (IK | {a, x}, JK | {b, x}, S)),
        ((IK | {x}, JK | {b}, S), (IK | {a}, JK | {x}, S)),
    ))


def _c20(G: Graph, indices, pair) -> IdentityResult:
    return _dodgson("c20", indices, pair, lambda IK, JK, S, a, b, x: (
        ((IK | {a, x}, JK | {x}, S), (IK | {b}, JK, S | {x})),
        ((IK | {a}, JK, S | {x}), (IK | {b, x}, JK | {x}, S)),
        ((IK | {x}, JK, S), (IK | {a, b}, JK | {x}, S)),
    ))


def _c100(G: Graph, indices, pair) -> IdentityResult:
    """Corolla: phi_{G,1} = sum_i lambda_i a_i phi^{1,i} over the star of a vertex."""
    edges = tuple(_get(indices, "edges"))
    e1, rest = edges[0], edges[1:]
    verts = [set(G.endpoints(l)) for l in edges]
    common = set.intersection(*verts) if verts else set()
    if not common:
        raise BadIndices("corolla edges must share a vertex")
    target = phi(G).coeff_and_rest(e1)[1]
    parts = [MLPoly.variable(i) * pair({e1}, {i}) for i in rest]
    return _lambda_search("c100", target, parts)


def _c101(G: Graph, indices, pair) -> IdentityResult:
    """Cycle: phi^1 = sum_i lambda_i phi^{1,i} over the other cycle edges."""
    edges = tuple(_get(indices, "edges"))
    e1, rest = edges[0], edges[1:]
    target = phi(G).coeff_and_rest(e1)[0]
    parts = [pair({e1}, {i}) for i in rest]
    return _lambda_search("c101", target, parts)


def _lambda_search(name: str, target: MLPoly, parts) -> IdentityResult:
    def holds(signs):
        return sum((s * p for s, p in zip(signs, parts)), MLPoly.zero()) == target

    signs = _first_signs(len(parts), holds)
    # no other edge (parts == []) still gives a witness: the empty lambda
    return IdentityResult(name, signs is not None, {} if signs is None else {"lambda": list(signs)})


def _cor7(G: Graph, indices, pair) -> IdentityResult:
    """(phi^{i,k})^2 = phi^k phi^i_k - phi_k phi^{ik} (radical membership core)."""
    i, k = _get(indices, "i"), _get(indices, "k")
    f = phi(G)
    fk, f_k = f.coeff_and_rest(k)
    fi = f.coeff_and_rest(i)[0]
    fik, fi_k = fi.coeff_and_rest(k)
    lhs = pair({i}, {k}) ** 2
    rhs = fk * fi_k - f_k * fik
    return _found("cor7", _first_signs(1, lambda s: lhs == s[0] * rhs), "sign")


# Candidate right-hand sides for the resultant lemma [phi^i, phi^j]_k, whose
# printed form repeats the factor phi^{ij,jk} in both terms (a typo).  Each
# candidate is a pair of (A, B) index-pair builders for phi^{A,B} products.
# "first-ij-ik" is the correction that holds universally in sweeps:
#   [phi^i, phi^j]_k = phi^{ij,ik} phi^{j,k} - phi^{ij,jk} phi^{i,k}.
_RESULTANT_VARIANTS = {
    "printed": lambda i, j, k: ((({i, j}, {j, k}), ({j}, {k})), (({i, j}, {j, k}), ({i}, {k}))),
    "first-ij-ik": lambda i, j, k: ((({i, j}, {i, k}), ({j}, {k})), (({i, j}, {j, k}), ({i}, {k}))),
    "second-ij-ik": lambda i, j, k: ((({i, j}, {j, k}), ({j}, {k})), (({i, j}, {i, k}), ({i}, {k}))),
    "ik-jk-first": lambda i, j, k: ((({i, k}, {j, k}), ({j}, {k})), (({i, j}, {j, k}), ({i}, {k}))),
}


def resultant_lemma_variants(G: Graph, i: int, j: int, k: int) -> dict:
    """The resultant-lemma typo check: which corrections of the printed
    lemma (see ``_RESULTANT_VARIANTS``) hold on G at (i, j, k).

    Returns variant name -> sign pair or None, testing
    [phi^i, phi^j]_k = s1 * phi^{A1} phi^{B1} + s2 * phi^{A2} phi^{B2}.
    """
    f = phi(G)
    fi = f.coeff_and_rest(i)[0]
    fj = f.coeff_and_rest(j)[0]
    lhs = resultant(fi, fj, k)
    out = {}
    for name, mk in _RESULTANT_VARIANTS.items():
        (A1, B1), (A2, B2) = mk(i, j, k)
        try:
            t1 = phi_dodgson_pair(G, *A1) * phi_dodgson_pair(G, *B1)
            t2 = phi_dodgson_pair(G, *A2) * phi_dodgson_pair(G, *B2)
        except BadIndices:
            out[name] = None
            continue
        out[name] = _first_signs(2, lambda s: lhs == s[0] * t1 + s[1] * t2)
    return out


# Each check takes (G, indices, pair), where pair(A, B, C=()) is phi^{A,B}_C
# of G, memoized as ``check_identity`` says.
_CHECKS = {
    "c10": _c10,
    "e100": _e100,
    "e101": _e101,
    "c14": _c14,
    "c15": _c15,
    "c18": _c18,
    "c20": _c20,
    "c100": _c100,
    "c101": _c101,
    "cor7": _cor7,
}

IDENTITY_NAMES = tuple(sorted(_CHECKS))


def default_identity_indices(G: Graph, name: str):
    """Deterministic index choices used by the sweep over a graph catalogue.

    Yields index dictionaries; empty if the graph has no instance of the
    identity's configuration.
    """
    labels = sorted(G.labels)
    if name == "c10":
        for k in labels:
            yield {"k": k}
    elif name == "e100":
        for k in labels:
            u, v = G.endpoints(k)
            if u == v:
                yield {"k": k}
    elif name == "e101":
        # the two least labels of each parallel class, by least label
        _, classes = _simple_reduction(G)
        for labs in sorted(labs for labs in classes.values() if len(labs) >= 2):
            yield {"pair": (labs[0], labs[1])}
    elif name in ("c14", "c15", "cor7"):
        key = ("i", "j") if name != "cor7" else ("i", "k")
        for i, j in itertools.combinations(labels, 2):
            yield {key[0]: i, key[1]: j}
    elif name in ("c18", "c20"):
        triples = list(itertools.permutations(labels, 3))
        for t in triples[:6]:
            a, b, x = t
            if name == "c18":
                yield {"I": (), "J": (), "S": (), "K": (), "a": a, "b": b, "x": x}
            else:
                rest = [l for l in labels if l not in t]
                if not rest:
                    continue
                yield {
                    "I": (),
                    "J": (rest[0],),
                    "S": (),
                    "K": (),
                    "a": a,
                    "b": b,
                    "x": x,
                }
    elif name == "c100":
        # the corolla of the max-degree vertex, distinguished edge = least label
        deg: dict[int, list[int]] = {}
        for lab in labels:
            u, v = G.endpoints(lab)
            if u != v:
                deg.setdefault(u, []).append(lab)
                deg.setdefault(v, []).append(lab)
        if deg:
            v = max(deg, key=lambda w: (len(deg[w]), -w))
            if len(deg[v]) >= 2:
                yield {"edges": tuple(sorted(deg[v]))}
    elif name == "c101":
        cyc = shortest_cycle(G)
        if cyc:
            yield {"edges": cyc}

