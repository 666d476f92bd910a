"""The vertex-space matrix P_G(alpha) = E^T Delta(alpha) E and its tree form.

``diagonalize_wrt_tree`` reproduces the constructive proof that row/column
operations confine every spanning-tree variable to a single diagonal entry:
tree edges are renumbered by a depth-first walk from a leaf root, the matrix
is rebuilt with that root as the deleted vertex, and one op per non-root
tree edge moves its variable onto the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadIndices, NotConnected, NotSpanningTree
from .graphs import Graph, is_connected, is_forest_in
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
        d = self.dim
        i, j = op.source - 1, op.target - 1
        if not (0 <= i < d and 0 <= j < d) or i == j:
            raise BadIndices(f"row/col op ({op.source},{op.target}) out of range")
        rows = [list(r) for r in self.entries]
        for c in range(d):
            rows[j][c] = rows[j][c] + rows[i][c]
        for r in range(d):
            rows[r][j] = rows[r][j] + rows[r][i]
        return PolyMatrix(tuple(tuple(r) for r in rows))

    def apply_ops(self, ops) -> "PolyMatrix":
        m = self
        for op in ops:
            m = m.apply_op(op)
        return m

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
    vertex).  Edge (s, t) contributes +a_e at (s,s) and (t,t) and -a_e at
    (s,t), (t,s); entries touching the deleted vertex are omitted and
    self-loops contribute nothing.
    """
    if not is_connected(G):
        raise NotConnected("P_G(alpha) requires a connected graph")
    if deleted_vertex is None:
        deleted_vertex = G.vertex_count
    if not 1 <= deleted_vertex <= G.vertex_count:
        raise BadIndices("deleted vertex out of range")
    keep = [v for v in range(1, G.vertex_count + 1) if v != deleted_vertex]
    return _p_matrix_for_order(G, keep)


def _p_matrix_for_order(G: Graph, vertex_order) -> PolyMatrix:
    row_of = {v: i for i, v in enumerate(vertex_order)}
    d = len(vertex_order)
    rows = [[MLPoly.zero() for _ in range(d)] for _ in range(d)]
    for lab, (u, v) in zip(G.labels, G.edges):
        if u == v:
            continue
        a = MLPoly.variable(lab)
        iu, iv = row_of.get(u), row_of.get(v)
        if iu is not None:
            rows[iu][iu] = rows[iu][iu] + a
        if iv is not None:
            rows[iv][iv] = rows[iv][iv] + a
        if iu is not None and iv is not None:
            rows[iu][iv] = rows[iu][iv] - a
            rows[iv][iu] = rows[iv][iu] - a
    return PolyMatrix(tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class TreeDiagonalization:
    matrix: PolyMatrix
    ops: tuple[RowColOp, ...]
    vertex_order: tuple[int, ...]  # matrix index i (0-based) -> original vertex
    tree_order: tuple[int, ...]  # tree position i (0-based) -> edge label
    root: int
    start: PolyMatrix  # re-rooted, re-ordered P_G before the ops


def _dfs_numeration(G: Graph, tree_labels):
    """Number tree edges top-to-bottom, left-to-right from a leaf root.

    Children are visited in input edge order.  Returns (root, edge order,
    child vertex of each numbered edge, parent edge position of each edge or
    None for edges at the root).
    """
    tset = set(tree_labels)
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, G.vertex_count + 1)}
    for pos, (lab, (u, v)) in enumerate(zip(G.labels, G.edges)):
        if lab in tset:
            adj[u].append((lab, v))
            adj[v].append((lab, u))
    deg = {v: len(adj[v]) for v in adj}
    leaves = [v for v in adj if deg[v] == 1]
    root = min(leaves) if leaves else 1
    order: list[int] = []
    child_of: list[int] = []
    parent_pos: list[int | None] = []
    seen = {root}

    def walk(v: int, incoming_pos: int | None):
        for lab, w in adj[v]:
            if w in seen:
                continue
            seen.add(w)
            order.append(lab)
            child_of.append(w)
            parent_pos.append(incoming_pos)
            walk(w, len(order) - 1)

    walk(root, None)
    return root, order, child_of, parent_pos


def diagonalize_wrt_tree(G: Graph, T) -> TreeDiagonalization:
    """Confine each tree variable to one diagonal entry with unit coefficient.

    Ops are emitted per internal vertex, deepest level first (ties by the
    smallest child-edge number), children in descending edge number; this
    reproduces the worked sequence (4,2),(3,2),(6,5),(5,1),(2,1) on the
    reference 7-vertex tree.
    """
    T = frozenset(T)
    if not is_connected(G):
        raise NotConnected("diagonalization requires a connected graph")
    if len(T) != G.n or not T <= G.label_set or not is_forest_in(G, T):
        raise NotSpanningTree(f"{sorted(T)} is not a spanning tree")
    root, order, child_of, parent_pos = _dfs_numeration(G, T)
    vertex_order = tuple(child_of)
    start = _p_matrix_for_order(G, vertex_order)
    n = len(order)
    depth = [0] * n
    for i in range(n):
        p = parent_pos[i]
        depth[i] = 0 if p is None else depth[p] + 1
    children: dict[int | None, list[int]] = {}
    for i in range(n):
        children.setdefault(parent_pos[i], []).append(i)
    internal = [p for p in children if p is not None]
    internal.sort(key=lambda p: (-depth[p], min(children[p])))
    ops = []
    for p in internal:
        for c in sorted(children[p], reverse=True):
            ops.append(RowColOp(c + 1, p + 1))
    mat = start.apply_ops(ops)
    return TreeDiagonalization(
        matrix=mat,
        ops=tuple(ops),
        vertex_order=vertex_order,
        tree_order=tuple(order),
        root=root,
        start=start,
    )


def tree_occurrence_contract(diag: TreeDiagonalization) -> bool:
    """Full-matrix check: each tree variable sits in exactly one diagonal entry."""
    for i, lab in enumerate(diag.tree_order):
        occ = diag.matrix.variable_occurrences(lab)
        if occ != [(i + 1, i + 1)]:
            return False
        hi, _ = diag.matrix[i, i].coeff_and_rest(lab)
        if hi != MLPoly.constant(1):
            return False
    return True


def tree_occurrence_contract_mod_nontree(diag: TreeDiagonalization, G: Graph) -> bool:
    """Same contract after killing all non-tree variables (weaker form)."""
    nontree = G.label_set - set(diag.tree_order)
    for i, lab in enumerate(diag.tree_order):
        for r in range(diag.matrix.dim):
            for c in range(diag.matrix.dim):
                p = diag.matrix[r, c].subs_zero(nontree)
                if lab in p.variables() and (r, c) != (i, i):
                    return False
    return True


def eval_rank(M: PolyMatrix, point: dict, F) -> int:
    """Rank of M evaluated at a field point, by Gaussian elimination over F."""
    d = M.dim
    rows = [[_eval_field(M[i, j], point, F) for j in range(d)] for i in range(d)]
    rank = 0
    col = 0
    while rank < d and col < d:
        piv = next((r for r in range(rank, d) if rows[r][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = F.inv(rows[rank][col])
        rows[rank] = [F.mul(inv, x) for x in rows[rank]]
        for r in range(d):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def _eval_field(P: MLPoly, point: dict, F):
    total = 0
    for m, c in P.terms():
        v = F.embed_int(c)
        for i in m:
            v = F.mul(v, point[i])
        total = F.add(total, v)
    return total
