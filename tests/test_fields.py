import itertools

import numpy as np
import pytest

from c2lab.counting import count_zeros
from c2lab.errors import UnsupportedQ
from c2lab.fields import SUPPORTED_Q, make_field
from c2lab.graphs import family
from c2lab.multipoly import psi


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_field_axioms(q):
    F = make_field(q)
    els = list(F.elements())
    assert F.add(0, 0) == 0 and F.mul(1, 1) == 1
    assert F.neg_table.dtype == F.inv_table.dtype == np.uint8 and F.inv_table[0] == 0
    for x in els:
        assert F.add(x, 0) == x
        assert F.mul(x, 1) == x
        assert F.add(x, F.neg(x)) == 0
        if x:
            assert F.mul(x, F.inv(x)) == 1
    for x, y, z in itertools.product(els[: min(q, 5)], repeat=3):
        assert F.add(x, y) == F.add(y, x)
        assert F.mul(x, y) == F.mul(y, x)
        assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
        assert F.mul(F.mul(x, y), z) == F.mul(x, F.mul(y, z))


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_array_arithmetic_matches_tables(q):
    # block_rank's entry loop combines arrays of codes with arrays, with
    # Python ints, and Python ints with each other
    F = make_field(q)
    dtype = F.add_table.dtype
    assert (q - 1) * q + (q - 1) <= np.iinfo(dtype).max  # a * q + b cannot wrap
    pairs = list(itertools.product(range(q), repeat=2))
    a = np.array([x for x, _ in pairs], dtype=dtype)
    b = np.array([y for _, y in pairs], dtype=dtype)
    els = np.arange(q, dtype=dtype)
    for vop, op in ((F.vadd, F.add), (F.vsub, F.sub), (F.vmul, F.mul)):
        want = [op(x, y) for x, y in pairs]
        got = vop(a, b)
        assert got.dtype == dtype and got.tolist() == want
        assert [int(vop(x, els)[y]) for x, y in pairs] == want
        assert [int(vop(els, y)[x]) for x, y in pairs] == want
        assert [int(vop(x, y)) for x, y in pairs] == want


def test_f2_is_xor_and():
    F = make_field(2)
    assert [[F.add(a, b) for b in (0, 1)] for a in (0, 1)] == [[0, 1], [1, 0]]
    assert [[F.mul(a, b) for b in (0, 1)] for a in (0, 1)] == [[0, 0], [0, 1]]


def test_default_irreducibles():
    assert make_field(4).irreducible == (1, 1, 1)  # x^2 + x + 1
    assert make_field(8).irreducible == (1, 1, 0, 1)  # x^3 + x + 1
    assert make_field(9).irreducible == (1, 0, 1)  # x^2 + 1


def test_unsupported_q():
    with pytest.raises(UnsupportedQ):
        make_field(6)
    with pytest.raises(UnsupportedQ):
        make_field(16)
    with pytest.raises(UnsupportedQ):
        make_field(9, irreducible=(1, 2, 1))  # x^2 + 2x + 1 = (x+1)^2 is reducible


def test_counts_independent_of_irreducible():
    K4 = family("complete", 4)
    P = psi(K4)
    for q, alt in ((8, (1, 0, 1, 1)), (9, (2, 1, 1))):
        F1 = make_field(q)
        F2 = make_field(q, irreducible=alt)
        assert F1.irreducible != F2.irreducible
        c1 = count_zeros([P], F1, 6, budget=10**8).raw
        c2 = count_zeros([P], F2, 6, budget=10**8).raw
        assert c1 == c2


def test_embed_int():
    F9 = make_field(9)
    assert F9.embed_int(1) == 1
    assert F9.embed_int(3) == 0
    assert F9.embed_int(-1) == F9.neg(1)
