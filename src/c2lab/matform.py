"""The vertex-space matrix P_G(alpha) = E^T Delta(alpha) E and its tree form.

``diagonalize_wrt_tree`` reproduces the constructive proof that row/column
operations confine every spanning-tree variable to a single diagonal entry:
tree edges are renumbered by a depth-first walk from a leaf root, the matrix
is rebuilt with that root as the deleted vertex, and one op per non-root
tree edge moves its variable onto the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadIndices, NotConnected, NotSpanningTree
from .graphs import Graph, incidence, is_connected, is_forest_in
from .multipoly import MLPoly, det_sparse


@dataclass(frozen=True)
class RowColOp:
    """Add row ``source`` to row ``target``, then the same for columns."""

    source: int
    target: int


@dataclass(frozen=True)
class PolyMatrix:
    entries: tuple[tuple[MLPoly, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def is_symmetric(self) -> bool:
        d = self.dim
        return all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(d)
            for j in range(i + 1, d)
        )

    def det(self) -> MLPoly:
        rows = [[(c, e) for c, e in enumerate(row) if not e.is_zero] for row in self.entries]
        return det_sparse(rows, self.dim)

    def apply_op(self, op: RowColOp) -> "PolyMatrix":
        return self.apply_ops((op,))

    def apply_ops(self, ops) -> "PolyMatrix":
        """The ops in turn, on one working copy of the rows.  A zero source
        entry leaves its target as it is, so an op makes one addition per
        nonzero entry of its source row and column."""
        d = self.dim
        rows = [list(r) for r in self.entries]
        for op in ops:
            i, j = op.source - 1, op.target - 1
            if not (0 <= i < d and 0 <= j < d) or i == j:
                raise BadIndices(f"row/col op ({op.source},{op.target}) out of range")
            src, dst = rows[i], rows[j]
            for c in range(d):
                if not src[c].is_zero:
                    dst[c] = dst[c] + src[c]
            for row in rows:
                if not row[i].is_zero:
                    row[j] = row[j] + row[i]
        return PolyMatrix(tuple(map(tuple, rows)))

    def variable_occurrences(self, label: int) -> list[tuple[int, int]]:
        """1-based positions of entries whose polynomial involves a_label."""
        out = []
        for i, row in enumerate(self.entries):
            for j, p in enumerate(row):
                if label in p.variables():
                    out.append((i + 1, j + 1))
        return out


def det_bareiss(entries) -> MLPoly:
    """Fraction-free Gaussian elimination over the polynomial ring.

    Independent of the cofactor route (``multipoly.det_sparse``); used as a
    cross-check oracle.
    """
    d = len(entries)
    if d == 0:
        return MLPoly.constant(1)
    m = [list(r) for r in entries]
    sign = 1
    prev = MLPoly.constant(1)
    for k in range(d - 1):
        if m[k][k].is_zero:
            for r in range(k + 1, d):
                if not m[r][k].is_zero:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return MLPoly.zero()
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = exact_div(num, prev)
            m[i][k] = MLPoly.zero()
        prev = m[k][k]
    out = m[d - 1][d - 1]
    return out if sign == 1 else -out


def exact_div(num: MLPoly, den: MLPoly) -> MLPoly:
    """Exact polynomial division (raises if the division is not exact)."""
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    dterms = sorted(den.terms(), key=lambda t: (len(t[0]), t[0]), reverse=True)
    dlead_m, dlead_c = dterms[0]
    quot: dict = {}
    rem = num
    while not rem.is_zero:
        rterms = sorted(rem.terms(), key=lambda t: (len(t[0]), t[0]), reverse=True)
        rm, rc = rterms[0]
        cnt = dict()
        for x in dlead_m:
            cnt[x] = cnt.get(x, 0) + 1
        qm = list(rm)
        for x, k in cnt.items():
            for _ in range(k):
                if x in qm:
                    qm.remove(x)
                else:
                    raise ArithmeticError("inexact polynomial division")
        if rc % dlead_c:
            raise ArithmeticError("inexact polynomial division")
        qc = rc // dlead_c
        qmono = tuple(sorted(qm))
        quot[qmono] = quot.get(qmono, 0) + qc
        rem = rem - MLPoly.monomial(qmono, qc) * den
    return MLPoly(quot)


def p_matrix(G: Graph, deleted_vertex: int | None = None) -> PolyMatrix:
    """n x n symmetric matrix sum_e a_e P_e with det = phi(G).

    The incidence block drops ``deleted_vertex`` (default: the highest-index
    vertex); the rows are ``graphs.incidence``'s.
    """
    if not is_connected(G):
        raise NotConnected("P_G(alpha) requires a connected graph")
    if deleted_vertex is None:
        deleted_vertex = G.vertex_count
    if not 1 <= deleted_vertex <= G.vertex_count:
        raise BadIndices("deleted vertex out of range")
    keep = [v for v in range(1, G.vertex_count + 1) if v != deleted_vertex]
    return gram_matrix(incidence(G, keep), G.labels, len(keep))


def gram_matrix(rows, labels, d: int) -> PolyMatrix:
    """The d x d matrix sum_e a_e r_e r_e^T of sparse (index, coefficient)
    rows r_e, with the variable a_e of the matching label."""
    M = [[MLPoly.zero()] * d for _ in range(d)]
    for lab, row in zip(labels, rows):
        for i, ci in row:
            for j, cj in row:
                M[i][j] = M[i][j] + MLPoly({(lab,): ci * cj})
    return PolyMatrix(tuple(map(tuple, M)))


@dataclass(frozen=True)
class TreeDiagonalization:
    matrix: PolyMatrix
    ops: tuple[RowColOp, ...]
    vertex_order: tuple[int, ...]  # matrix index i (0-based) -> original vertex
    tree_order: tuple[int, ...]  # tree position i (0-based) -> edge label
    root: int
    start: PolyMatrix  # re-rooted, re-ordered P_G before the ops


def diagonalize_wrt_tree(G: Graph, T) -> TreeDiagonalization:
    """Confine each tree variable to one diagonal entry with unit coefficient.

    One preorder walk from a leaf root (the least leaf) numbers the tree
    edges top-to-bottom, left-to-right, visiting children in input edge
    order, and records each edge's label, child vertex, parent edge
    position and depth.  Ops are emitted per parent edge, deepest level
    first, then in walk order (in preorder a parent's first child follows
    it, so this is the order of least child edge), children in descending
    edge number; this reproduces the worked sequence
    (4,2),(3,2),(6,5),(5,1),(2,1) on the reference 7-vertex tree.
    """
    T = frozenset(T)
    if not is_connected(G):
        raise NotConnected("diagonalization requires a connected graph")
    if len(T) != G.n or not T <= G.label_set or not is_forest_in(G, T):
        raise NotSpanningTree(f"{sorted(T)} is not a spanning tree")
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, G.vertex_count + 1)}
    for lab, (u, v) in zip(G.labels, G.edges):
        if lab in T:
            adj[u].append((lab, v))
            adj[v].append((lab, u))
    root = min((v for v in adj if len(adj[v]) == 1), default=1)
    tree_order: list[int] = []
    vertex_order: list[int] = []
    below = []  # (depth, parent position, position) of each edge not at the root

    # the preorder walk, on an explicit stack so that no tree is too deep for
    # it: per vertex on the path from the root, its neighbours not yet
    # tried, the edge that reached it, that edge's position, and the depth
    # of the edges below it
    stack = [(iter(adj[root]), None, 0, 0)]
    while stack:
        rest, came_by, parent, depth = stack[-1]
        for lab, w in rest:
            if lab != came_by:
                tree_order.append(lab)
                vertex_order.append(w)
                at = len(tree_order)  # 1-based, as RowColOp counts
                if parent:
                    below.append((depth, parent, at))
                stack.append((iter(adj[w]), lab, at, depth + 1))
                break
        else:
            stack.pop()
    below.sort(key=lambda e: (-e[0], e[1], -e[2]))
    ops = tuple(RowColOp(at, parent) for _, parent, at in below)
    start = gram_matrix(incidence(G, vertex_order), G.labels, len(vertex_order))
    return TreeDiagonalization(
        matrix=start.apply_ops(ops),
        ops=ops,
        vertex_order=tuple(vertex_order),
        tree_order=tuple(tree_order),
        root=root,
        start=start,
    )


def tree_occurrence_contract(diag: TreeDiagonalization) -> bool:
    """Check of the diagonalization statement on the full matrix: after the
    ops, the i-th tree variable of ``tree_order`` occurs in exactly one
    entry, the diagonal entry (i, i), with coefficient 1."""
    for i, lab in enumerate(diag.tree_order):
        occ = diag.matrix.variable_occurrences(lab)
        if occ != [(i + 1, i + 1)]:
            return False
        hi, _ = diag.matrix[i, i].coeff_and_rest(lab)
        if hi != MLPoly.constant(1):
            return False
    return True


def tree_occurrence_contract_mod_nontree(diag: TreeDiagonalization, G: Graph) -> bool:
    """Check of the statement's weaker form: with every non-tree variable set
    to 0, the i-th tree variable of ``tree_order`` occurs in no entry but
    (i, i)."""
    nontree = G.label_set - set(diag.tree_order)
    for i, lab in enumerate(diag.tree_order):
        for r in range(diag.matrix.dim):
            for c in range(diag.matrix.dim):
                p = diag.matrix[r, c].subs_zero(nontree)
                if lab in p.variables() and (r, c) != (i, i):
                    return False
    return True


def block_rank(M: PolyMatrix, point: dict, F) -> np.ndarray:
    """Rank of M at each point of a block, by Gaussian elimination over F
    with a pivot chosen per lane.

    ``point`` maps every variable of M to a field code or to an array of
    codes, one per lane; the result has one rank per lane.
    """
    d = M.dim
    lanes = max((np.size(v) for v in point.values()), default=1)
    # uint8 holds every code and every table index a * q + b < q^2 <= 169
    A = np.zeros((lanes, d, d), dtype=np.uint8)
    for i in range(d):
        for j in range(d):
            acc = 0
            for mono, c in M[i, j].terms():
                term = F.embed_int(c)
                for x in mono:
                    term = F.vmul(term, point[x])
                acc = F.vadd(acc, term)
            A[:, i, j] = acc
    lane = np.arange(lanes)
    free = np.ones((lanes, d), dtype=bool)  # rows not yet taken as a pivot
    for c in range(d):
        cand = free & (A[:, :, c] != 0)
        piv = cand.argmax(axis=1)
        free[lane, piv] &= ~cand[lane, piv]
        prow = A[lane, piv]
        # Clear column c from the free rows; lanes without a pivot have only
        # zeros there, so they are left as they are.
        f = F.vmul(A[:, :, c], F.inv_table[prow[:, c]][:, None])
        f[~free] = 0
        A = F.vsub(A, F.vmul(f[:, :, None], prow[:, None, :]))
    return d - free.sum(axis=1)


def eval_rank(M: PolyMatrix, point: dict, F) -> int:
    """Rank of M evaluated at a field point (a one-lane ``block_rank``)."""
    return int(block_rank(M, point, F)[0])
