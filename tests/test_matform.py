import itertools

import pytest

from c2lab.errors import BadIndices, NotConnected, NotSpanningTree
from c2lab.fields import make_field
from c2lab.corpus import named_graphs
from c2lab.graphs import Graph, family, incidence, is_connected, spanning_trees
from c2lab.matform import (
    PolyMatrix,
    RowColOp,
    diagonalize_wrt_tree,
    eval_rank,
    gram_matrix,
    p_matrix,
    tree_occurrence_contract,
    tree_occurrence_contract_mod_nontree,
)
from c2lab.multipoly import MLPoly, phi

a = MLPoly.variable

FIG2_TREE = Graph(((1, 2), (2, 3), (3, 4), (3, 5), (2, 6), (6, 7)), 7)


def test_p_matrix_banana2():
    P = p_matrix(family("banana", 2))
    assert P.dim == 1
    assert P[0, 0] == a(1) + a(2)


def test_p_matrix_triangle_structure():
    # labeling with e3 = (1,2) so vertex 3 is the deleted one
    tri = Graph(((1, 3), (2, 3), (1, 2)), 3)
    P = p_matrix(tri)
    assert P[0, 0] == a(1) + a(3)
    assert P[1, 1] == a(2) + a(3)
    assert P[0, 1] == MLPoly.constant(-1) * a(3)
    assert P.is_symmetric()


def test_p_matrix_det_is_phi(corpus):
    for name, G in corpus.items():
        if not is_connected(G):
            continue
        assert p_matrix(G).det() == phi(G), name


def test_p_matrix_deleted_vertex_independence():
    K4 = family("complete", 4)
    target = phi(K4)
    for v in range(1, 5):
        assert p_matrix(K4, v).det() == target


def test_p_matrix_requires_connected():
    with pytest.raises(NotConnected):
        p_matrix(Graph(((1, 2), (3, 4)), 4))


def test_row_col_op_preserves_det_and_symmetry():
    P = p_matrix(family("wheel", 4))
    d = P.det()
    for op in (RowColOp(1, 2), RowColOp(3, 1), RowColOp(4, 2)):
        P = P.apply_op(op)
        assert P.is_symmetric()
    assert P.det() == d


def test_fig2_op_list():
    d = diagonalize_wrt_tree(FIG2_TREE, {1, 2, 3, 4, 5, 6})
    assert [(op.source, op.target) for op in d.ops] == [
        (4, 2), (3, 2), (6, 5), (5, 1), (2, 1)
    ]
    assert d.root == 1
    assert tree_occurrence_contract(d)
    # on the bare tree the result is exactly diagonal with a1..a6
    for i in range(6):
        assert d.matrix[i, i] == a(i + 1)
        for j in range(6):
            if i != j:
                assert d.matrix[i, j].is_zero


def test_fig2_in_host_graph():
    host = Graph(FIG2_TREE.edges + ((4, 5), (5, 7), (1, 7)), 7)
    d = diagonalize_wrt_tree(host, {1, 2, 3, 4, 5, 6})
    assert [(op.source, op.target) for op in d.ops] == [
        (4, 2), (3, 2), (6, 5), (5, 1), (2, 1)
    ]
    assert tree_occurrence_contract(d)
    assert tree_occurrence_contract_mod_nontree(d, host)
    assert d.matrix.det() == phi(host)


def test_path_graph_hamiltonian_case():
    p3 = family("path", 3)
    d = diagonalize_wrt_tree(p3, {1, 2, 3})
    assert tree_occurrence_contract(d)
    assert [(op.source, op.target) for op in d.ops] == [(3, 2), (2, 1)]


def test_k4_all_trees_contract():
    K4 = family("complete", 4)
    target = phi(K4)
    for T in spanning_trees(K4):
        d = diagonalize_wrt_tree(K4, T)
        assert tree_occurrence_contract(d), T
        assert d.matrix.det() == target, T
        assert d.start.apply_ops(d.ops).entries == d.matrix.entries


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


def _reference_diagonalization(G: Graph, T):
    """The tree numbering and op order that ``diagonalize_wrt_tree`` had
    before its one preorder walk, kept verbatim as the reference: a
    four-list walk, a depth pass, a children map, and parents sorted by
    (-depth, least child).  Returns (ops, vertex_order, tree_order, root,
    start, matrix)."""
    root, order, child_of, parent_pos = _dfs_numeration(G, T)
    vertex_order = tuple(child_of)
    start = gram_matrix(incidence(G, vertex_order), G.labels, len(vertex_order))
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
    return tuple(ops), vertex_order, tuple(order), root, start, start.apply_ops(ops)


def test_one_walk_matches_the_reference_numbering(catalog5):
    graphs = [G for G in catalog5 if is_connected(G)] + list(named_graphs().values())
    trees = 0
    for G in graphs:
        for T in spanning_trees(G):
            d = diagonalize_wrt_tree(G, T)
            got = (d.ops, d.vertex_order, d.tree_order, d.root, d.start, d.matrix)
            assert got == _reference_diagonalization(G, T), (G.edges, sorted(T))
            trees += 1
    assert trees > 500


def _reference_apply_op(M: PolyMatrix, op: RowColOp) -> PolyMatrix:
    """One op on a full copy of the matrix, every entry added, as
    ``PolyMatrix.apply_op`` did before ``apply_ops`` kept one working copy."""
    d = M.dim
    i, j = op.source - 1, op.target - 1
    rows = [list(r) for r in M.entries]
    for c in range(d):
        rows[j][c] = rows[j][c] + rows[i][c]
    for r in range(d):
        rows[r][j] = rows[r][j] + rows[r][i]
    return PolyMatrix(tuple(tuple(r) for r in rows))


def test_apply_ops_matches_one_op_at_a_time(catalog5):
    graphs = [G for G in catalog5 if is_connected(G)] + list(named_graphs().values())
    for G in graphs:
        for T in spanning_trees(G):
            d = diagonalize_wrt_tree(G, T)
            M = d.start
            for op in d.ops:
                M = _reference_apply_op(M, op)
            assert M == d.matrix, (G.edges, sorted(T))
    P = p_matrix(family("wheel", 4))
    ops = (RowColOp(1, 2), RowColOp(3, 1), RowColOp(4, 2), RowColOp(2, 4))
    M = P
    for op in ops:
        M = _reference_apply_op(M, op)
    assert P.apply_ops(ops) == M
    with pytest.raises(BadIndices):
        P.apply_ops((RowColOp(1, 2), RowColOp(5, 1)))


def test_diagonalization_of_a_long_path():
    # the walk keeps its own stack, so a tree 1100 edges deep is no deeper
    # for it than for Python's recursion limit
    G = family("path", 1100)
    d = diagonalize_wrt_tree(G, G.labels)
    assert d.root == 1 and d.tree_order == tuple(range(1, 1101))
    assert d.vertex_order == tuple(range(2, 1102))
    assert d.ops == tuple(RowColOp(k + 1, k) for k in range(1099, 0, -1))
    # the path's own tree leaves the matrix diagonal
    assert all(row[i] == a(i + 1) for i, row in enumerate(d.matrix.entries))
    assert sum(not e.is_zero for row in d.matrix.entries for e in row) == 1100


def test_not_spanning_tree():
    K4 = family("complete", 4)
    with pytest.raises(NotSpanningTree):
        diagonalize_wrt_tree(K4, {1, 2})
    with pytest.raises(NotSpanningTree):
        diagonalize_wrt_tree(K4, {1, 2, 4})  # triangle, not a tree


def test_eval_rank_examples():
    F2, F3 = make_field(2), make_field(3)
    b2 = p_matrix(family("banana", 2))
    assert eval_rank(b2, {1: 1, 2: 2}, F3) == 0  # 1 + (-1) = 0
    tri = p_matrix(family("cycle", 3))
    assert eval_rank(tri, {1: 1, 2: 1, 3: 1}, F2) == 2
    assert eval_rank(tri, {1: 0, 2: 0, 3: 0}, F3) == 0


def test_rank_invariant_under_ops():
    K4 = family("complete", 4)
    F3 = make_field(3)
    d = diagonalize_wrt_tree(K4, next(iter(spanning_trees(K4))))
    for point_vals in itertools.product(range(3), repeat=6):
        point = dict(zip(sorted(K4.labels), point_vals))
        if sum(point_vals) % 7:  # thin the 729-point sweep
            continue
        assert eval_rank(d.start, point, F3) == eval_rank(d.matrix, point, F3)
