"""c2lab: graph polynomials, finite-field point counts, and c2 invariants."""

import os

# The counting kernels' float matrix products are small, so OpenBLAS's
# helper threads would only spin on them, and starting them adds about 0.1 s
# of CPU time to start-up.  So BLAS runs on one thread unless the caller says
# otherwise.  OpenBLAS reads this when numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .graphs import (
    Graph,
    census,
    connected_multigraphs,
    contract,
    delete,
    family,
    girth_at_most,
    is_connected,
    is_isomorphic,
    spanning_trees,
    subquotient,
)
from .counting import (
    CountReport,
    chevalley_warning_check,
    count_reduced,
    count_zeros,
    count_zeros_torus,
    sing_count,
)
from .fields import FqField, make_field
from .identities import check_identity
from .invariants import (
    admissible_at_q,
    admissible_structural,
    c2_dual,
    c2_dual_triangle,
    c2_param,
    c2_pos,
    s_t_sums,
    verify,
)
from .matform import diagonalize_wrt_tree, eval_rank, p_matrix
from .multipoly import (
    DodgsonIndex,
    MLPoly,
    cremona,
    dodgson,
    dual_dodgson,
    phi,
    phi_dodgson_pair,
    phi_two_index,
    psi,
    psi_two_index,
    resultant,
)
from .planar import is_planar, planar_dual
from .quadrics import quadric_congruence_rhs, quadric_union_count

__all__ = [
    "CountReport",
    "FqField",
    "admissible_at_q",
    "admissible_structural",
    "c2_dual",
    "c2_dual_triangle",
    "c2_param",
    "c2_pos",
    "check_identity",
    "chevalley_warning_check",
    "count_reduced",
    "count_zeros",
    "count_zeros_torus",
    "diagonalize_wrt_tree",
    "eval_rank",
    "is_planar",
    "make_field",
    "p_matrix",
    "planar_dual",
    "quadric_congruence_rhs",
    "quadric_union_count",
    "s_t_sums",
    "sing_count",
    "verify",
    "Graph",
    "census",
    "connected_multigraphs",
    "contract",
    "delete",
    "family",
    "girth_at_most",
    "is_connected",
    "is_isomorphic",
    "spanning_trees",
    "subquotient",
    "DodgsonIndex",
    "MLPoly",
    "cremona",
    "dodgson",
    "dual_dodgson",
    "phi",
    "phi_dodgson_pair",
    "phi_two_index",
    "psi",
    "psi_two_index",
    "resultant",
]

__version__ = "0.1.0"
