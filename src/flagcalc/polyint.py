"""Sparse exact-integer multivariate polynomial helpers.

Polynomials are plain dicts mapping exponents to nonzero integer
coefficients; no zero coefficient is ever stored.  ``poly_mul`` works on
exponent tuples.  The elimination operator needs no polynomial arithmetic:
it works in the squarefree basis of the Bott-Samelson ring, on support
bitmasks (see ``characteristics.triangular_operator``).
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
