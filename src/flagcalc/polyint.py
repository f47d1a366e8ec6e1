"""Sparse exact-integer multivariate polynomial helpers.

Polynomials are plain dicts mapping exponents to nonzero integer
coefficients; no zero coefficient is ever stored.  ``poly_mul`` works on
exponent tuples.  The elimination operator uses packed exponents instead:
one Python int per monomial, with the exponent of x_{s+1} in bits
[s*width, (s+1)*width), so that multiplying monomials is adding keys.  The
caller picks a width that no exponent outgrows.  Keeping the representation
bare keeps the hot loops in the elimination operator cheap.
"""

from __future__ import annotations


def poly_mul(a: dict, b: dict) -> dict:
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            v = out.get(e, 0) + ca * cb
            if v:
                out[e] = v
            else:
                del out[e]
    return out


class LinearPowerCache:
    """Powers of linear forms sum c * x_{s+1}, in packed exponents.

    A form is given sparsely, as the pairs ((s, c), ...) of its nonzero
    coefficients.  Keys are (pairs, r, width); power r is derived from power
    r-1, so a whole ladder of powers costs one pass.  A soft cap on the
    stored terms keeps long-running sessions bounded.
    """

    def __init__(self, max_entries: int = 200_000):
        self._store: dict[tuple[tuple[tuple[int, int], ...], int, int], dict] = {}
        self._max_entries = max_entries
        self._size = 0

    def power(self, pairs: tuple[tuple[int, int], ...], r: int, width: int) -> dict:
        if r == 0:
            return {0: 1}
        key = (pairs, r, width)
        got = self._store.get(key)
        if got is not None:
            return got
        lin = [(1 << s * width, c) for s, c in pairs]
        cur: dict = {}
        for ea, ca in self.power(pairs, r - 1, width).items():
            for eb, cb in lin:
                e = ea + eb
                v = cur.get(e, 0) + ca * cb
                if v:
                    cur[e] = v
                else:
                    del cur[e]
        if self._size + len(cur) > self._max_entries:
            self._store.clear()
            self._size = 0
        self._store[key] = cur
        self._size += len(cur)
        return cur
