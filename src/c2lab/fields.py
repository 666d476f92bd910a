"""Table-backed arithmetic for the small prime-power fields used by counting.

Elements are codes 0..q-1.  For prime q the code is the residue itself; for
q = p^s codes are base-p digit strings of polynomials over F_p, reduced by
the lexicographically least monic irreducible (so 0 and 1 sit at codes 0
and 1 for every supported q).
"""

from __future__ import annotations

import numpy as np

from .errors import UnsupportedQ

# q -> (p, s) with q = p^s, for every supported q
_PRIME_POWERS = {
    2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1),
    8: (2, 3), 9: (3, 2), 11: (11, 1), 13: (13, 1),
}
SUPPORTED_Q = tuple(_PRIME_POWERS)


def _poly_from_code(code: int, p: int, s: int) -> tuple:
    return tuple(code // p**i % p for i in range(s))


def _poly_mul_mod(a, b, irr, p):
    s = len(irr) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    for deg in range(len(prod) - 1, s - 1, -1):
        c = prod[deg]
        if not c:
            continue
        prod[deg] = 0
        for i in range(s):
            prod[deg - s + i] = (prod[deg - s + i] - c * irr[i]) % p
    return tuple(prod[:s])


def _is_irreducible(irr, p) -> bool:
    # Every supported prime power has degree 2 or 3, and those are
    # reducible iff they have a root in F_p.
    for x in range(p):
        acc = 0
        for c in reversed(irr):
            acc = (acc * x + c) % p
        if acc == 0:
            return False
    return True


def _least_irreducible(p: int, s: int) -> tuple:
    for code in range(p**s):
        irr = _poly_from_code(code, p, s) + (1,)
        if _is_irreducible(irr, p):
            return irr


class FqField:
    """Arithmetic tables for F_q with element enumeration 0..q-1.

    The batched rank (``matform.block_rank``) uses the array arithmetic
    ``vadd``, ``vsub`` and ``vmul`` on codes or numpy arrays of codes: each
    is one lookup ``table.take(a * q + b)`` into a flat q*q table of uint8
    codes, the same for every q, and returns new, reduced codes.  uint8
    operands stay uint8 through a * q + b, which is at most q^2 - 1 = 168
    for q <= 13.

    The counting evaluator's matrix products over F_q run on F_p digits:
    ``digits[c]`` holds the s base-p digits of code c, and ``mul_matrix[c]``
    the s x s matrix over F_p of multiplication by c, so that
    digits[mul(c, x)] = mul_matrix[c] @ digits[x] mod p.
    ``pow_table[x, e]`` is x^e for 0 <= e < q.
    """

    def __init__(self, q: int, p: int, s: int, irreducible: tuple | None):
        self.q = q
        self.p = p
        self.s = s
        self.irreducible = irreducible
        self._build_tables()
        add, mul = self.add_table.ravel(), self.mul_table.ravel()
        sub = self.add_table[:, self.neg_table].ravel()  # sub[a * q + b] = a - b
        self.vadd = lambda a, b: add.take(a * q + b)
        self.vsub = lambda a, b: sub.take(a * q + b)
        self.vmul = lambda a, b: mul.take(a * q + b)

    @property
    def is_prime(self) -> bool:
        return self.s == 1

    def _build_tables(self):
        q, p, s = self.q, self.p, self.s
        add = np.zeros((q, q), dtype=np.uint8)
        mul = np.zeros((q, q), dtype=np.uint8)
        if self.is_prime:
            r = np.arange(q, dtype=np.int64)
            add[:, :] = (r[:, None] + r[None, :]) % q
            mul[:, :] = (r[:, None] * r[None, :]) % q
        else:
            polys = [_poly_from_code(c, p, s) for c in range(q)]
            code_of = {poly: c for c, poly in enumerate(polys)}
            for a in range(q):
                for b in range(q):
                    sa, sb = polys[a], polys[b]
                    add[a, b] = code_of[tuple((x + y) % p for x, y in zip(sa, sb))]
                    mul[a, b] = code_of[_poly_mul_mod(sa, sb, self.irreducible, p)]
        self.add_table = add
        self.mul_table = mul
        self.neg_table = (add == 0).argmax(1).astype(np.uint8)
        self.inv_table = (mul == 1).argmax(1).astype(np.uint8)  # row 0 has no 1: inv[0] = 0
        codes = np.arange(q)
        self.digits = (codes[:, None] // p ** np.arange(s)) % p
        # column j: the digits of c * p^j, the image of the j-th basis element
        self.mul_matrix = self.digits[mul[:, p ** np.arange(s)]].transpose(0, 2, 1)
        pw = np.ones((q, q), dtype=np.uint8)
        for e in range(1, q):
            pw[:, e] = mul[pw[:, e - 1], codes]
        self.pow_table = pw

    # scalar helpers -------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def sub(self, a: int, b: int) -> int:
        return int(self.add_table[a, self.neg_table[b]])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return int(self.inv_table[a])

    def embed_int(self, c: int) -> int:
        """The image of an integer in F_q (c mod p at digit 0)."""
        return c % self.p

    def elements(self) -> range:
        return range(self.q)

    def __repr__(self):
        if self.is_prime:
            return f"F_{self.q}"
        return f"F_{self.q}(irr={self.irreducible})"


def make_field(q: int, irreducible: tuple | None = None) -> FqField:
    """Build F_q for q in the desk-scale whitelist.

    ``irreducible`` overrides the default (lexicographically least) modulus
    for non-prime q; counts must not depend on the choice.
    """
    if q not in SUPPORTED_Q:
        raise UnsupportedQ(f"q={q} outside supported set {SUPPORTED_Q}")
    p, s = _PRIME_POWERS[q]
    if s == 1:
        if irreducible is not None:
            raise UnsupportedQ("irreducible override only applies to prime powers")
        return FqField(q, p, 1, None)
    if irreducible is None:
        irreducible = _least_irreducible(p, s)
    else:
        irreducible = tuple(c % p for c in irreducible)
        if len(irreducible) != s + 1 or irreducible[-1] != 1:
            raise UnsupportedQ("override must be a monic polynomial of degree s")
        if not _is_irreducible(irreducible, p):
            raise UnsupportedQ("override polynomial is reducible")
    return FqField(q, p, s, irreducible)
