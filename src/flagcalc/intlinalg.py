"""Exact integer linear algebra: Smith and Hermite normal forms, lattices.

Everything here works on lists of Python ints, so entries never overflow.
Matrices are small throughout the package (monomial and Schubert bases per
degree), which keeps the classical minimal-pivot algorithms comfortable.
"""

from __future__ import annotations

from dataclasses import dataclass


def _copy(mat) -> list[list[int]]:
    return [list(r) for r in mat]


def _eye(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


@dataclass
class SNFResult:
    """P @ M @ Q = D with P, Q unimodular; Q's inverse tracked alongside."""

    d: list[list[int]]
    p: list[list[int]]
    q: list[list[int]]
    q_inv: list[list[int]]

    @property
    def diagonal(self) -> list[int]:
        return [self.d[i][i] for i in range(min(len(self.d), len(self.d[0]) if self.d else 0))]

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)


def smith_normal_form(mat) -> SNFResult:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Pivoting picks the minimal nonzero absolute value of the remaining block;
    the diagonal is normalized positive with each entry dividing the next.
    """
    m = _copy(mat)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    p = _eye(rows)
    q, q_inv = _eye(cols), _eye(cols)

    def row_axpy(i, j, k):  # row_i += k * row_j
        m[i] = [a + k * b for a, b in zip(m[i], m[j])]
        p[i] = [a + k * b for a, b in zip(p[i], p[j])]

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        p[i], p[j] = p[j], p[i]

    def row_neg(i):
        m[i] = [-a for a in m[i]]
        p[i] = [-a for a in p[i]]

    def col_axpy(i, j, k):  # col_i += k * col_j
        for r in m:
            r[i] += k * r[j]
        for r in q:
            r[i] += k * r[j]
        q_inv[j] = [a - k * b for a, b in zip(q_inv[j], q_inv[i])]

    def col_swap(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in q:
            r[i], r[j] = r[j], r[i]
        q_inv[i], q_inv[j] = q_inv[j], q_inv[i]

    for t in range(min(rows, cols)):
        while True:
            # minimal nonzero pivot in the trailing block; nothing beats a
            # unit and ties keep the first in row-major order, so the scan
            # stops at the first unit
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    v = abs(m[i][j])
                    if v and (best is None or v < best[0]):
                        best = (v, i, j)
                        if v == 1:
                            break
                if best is not None and best[0] == 1:
                    break
            if best is None:
                break
            _, bi, bj = best
            if bi != t:
                row_swap(t, bi)
            if bj != t:
                col_swap(t, bj)
            if m[t][t] < 0:
                row_neg(t)
            pivot = m[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t]:
                    row_axpy(i, t, -(m[i][t] // pivot))
                    if m[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                if m[t][j]:
                    col_axpy(j, t, -(m[t][j] // pivot))
                    if m[t][j]:
                        dirty = True
            if dirty:
                continue
            # pivot must divide the rest of the block
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if m[i][j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_axpy(t, offender, 1)
    return SNFResult(m, p, q, q_inv)


def integer_diagonalize(mat) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """(P, D, Q) with P @ M @ Q = D in Smith normal form."""
    res = smith_normal_form(mat)
    return res.p, res.d, res.q


def kernel_basis(mat) -> list[list[int]]:
    """Basis of the left kernel {z : z @ M = 0} as rows."""
    res = smith_normal_form(mat)
    return [row[:] for row in res.p[res.rank:]]


def hnf_rows(rows, cols: int | None = None) -> list[list[int]]:
    """Canonical row-style Hermite normal form of the lattice spanned by rows.

    Pivots are positive, entries above each pivot reduced to 0 <= x < pivot;
    two row sets span the same lattice iff their forms are equal lists.
    """
    if cols is None:
        cols = len(rows[0]) if rows else 0
    work = [list(r) for r in rows if any(r)]
    basis: list[list[int]] = []
    for col in range(cols):
        carrier = None
        rest = []
        for r in work:
            if r[col]:
                if carrier is None:
                    carrier = r
                else:
                    a, b = carrier[col], r[col]
                    while b:
                        qq = a // b
                        carrier, r = r, [x - qq * y for x, y in zip(carrier, r)]
                        a, b = carrier[col], r[col]
                    if any(r):
                        rest.append(r)
            else:
                if any(r):
                    rest.append(r)
        if carrier is not None:
            if carrier[col] < 0:
                carrier = [-x for x in carrier]
            basis.append(carrier)
        work = rest
    # reduce above pivots; ascending order so later steps cannot disturb
    # columns already canonicalized (they only touch columns further right)
    for idx in range(len(basis)):
        pivot_col = next(c for c in range(cols) if basis[idx][c])
        pv = basis[idx][pivot_col]
        for up in range(idx):
            k = basis[up][pivot_col] // pv
            if k:
                basis[up] = [a - k * b for a, b in zip(basis[up], basis[idx])]
    return basis


def lattice_contains(hnf_basis: list[list[int]], vec) -> bool:
    """Membership of a vector in the row lattice given by its HNF basis."""
    v = list(vec)
    for row in hnf_basis:
        pivot_col = next((c for c in range(len(row)) if row[c]), None)
        if pivot_col is None:
            continue
        if v[pivot_col] % row[pivot_col]:
            return False
        k = v[pivot_col] // row[pivot_col]
        if k:
            v = [a - k * b for a, b in zip(v, row)]
    return not any(v)


def lattice_equal(rows_a, rows_b, cols: int) -> bool:
    return hnf_rows(rows_a, cols) == hnf_rows(rows_b, cols)


def solve_in_row_lattice(basis_rows: list[list[int]], vecs) -> list[list[int] | None]:
    """Integer coefficients c with c @ basis = v, for each v in ``vecs``.

    Returns one entry per vector, in order: its coefficients, or None when
    the vector is not in the row lattice.  ``basis_rows`` need not be in any
    normal form; one HNF with transform, H = U @ basis, is built and every
    vector is back-substituted against it (Cohen, GTM 138, section 2.4).
    When the basis rows are linearly independent the coefficients are unique.
    """
    if not basis_rows:
        return [None if any(v) else [] for v in vecs]
    cols = len(basis_rows[0])
    n = len(basis_rows)
    # row-style HNF with transform U: H = U @ basis
    h = [list(r) for r in basis_rows]
    u = _eye(n)
    pivots: list[int] = []  # pivots[idx]: pivot column of echelon row idx
    for col in range(cols):
        exhausted = len(pivots)
        pivot_row = None
        for r in range(exhausted, n):
            if h[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        for r in range(pivot_row + 1, n):
            while h[r][col]:
                qq = h[pivot_row][col] // h[r][col]
                h[pivot_row] = [a - qq * b for a, b in zip(h[pivot_row], h[r])]
                u[pivot_row] = [a - qq * b for a, b in zip(u[pivot_row], u[r])]
                h[pivot_row], h[r] = h[r], h[pivot_row]
                u[pivot_row], u[r] = u[r], u[pivot_row]
        if h[pivot_row][col] < 0:
            h[pivot_row] = [-x for x in h[pivot_row]]
            u[pivot_row] = [-x for x in u[pivot_row]]
        h[exhausted], h[pivot_row] = h[pivot_row], h[exhausted]
        u[exhausted], u[pivot_row] = u[pivot_row], u[exhausted]
        pivots.append(col)
    out: list[list[int] | None] = []
    for vec in vecs:
        # back substitution against the echelon rows
        v = list(vec)
        coeffs = []
        for row, pivot_col in zip(h, pivots):
            k, rem = divmod(v[pivot_col], row[pivot_col])
            if rem:
                break
            if k:
                v = [a - k * b for a, b in zip(v, row)]
            coeffs.append(k)
        if len(coeffs) < len(pivots) or any(v):
            out.append(None)
            continue
        # coeffs are in U-coordinates: c @ H = vec with H = U @ basis
        sol = [0] * n
        for k, u_row in zip(coeffs, u):
            if k:
                sol = [a + k * b for a, b in zip(sol, u_row)]
        out.append(sol)
    return out
