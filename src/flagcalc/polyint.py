"""Sparse exact-integer multivariate polynomial helpers.

Polynomials are plain dicts mapping exponent tuples to nonzero integer
coefficients; no zero coefficient is ever stored.  Keeping the representation
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
    """Powers of linear forms sum_s coefs[s] * x_{s+1}, built incrementally.

    Keys are the coefficient tuples themselves; power r is derived from
    power r-1, so a whole ladder of powers costs one pass.  A soft entry cap
    keeps long-running sessions bounded.
    """

    def __init__(self, max_entries: int = 200_000):
        self._store: dict[tuple[tuple[int, ...], int], dict] = {}
        self._max_entries = max_entries
        self._size = 0

    def power(self, coefs: tuple[int, ...], r: int) -> dict:
        m = len(coefs)
        if r == 0:
            return {(0,) * m: 1}
        key = (coefs, r)
        got = self._store.get(key)
        if got is not None:
            return got
        lin = {}
        for s, c in enumerate(coefs):
            if c:
                e = [0] * m
                e[s] = 1
                lin[tuple(e)] = c
        prev = self.power(coefs, r - 1)
        cur = poly_mul(prev, lin)
        if self._size + len(cur) > self._max_entries:
            self._store.clear()
            self._size = 0
        self._store[key] = cur
        self._size += len(cur)
        return cur
