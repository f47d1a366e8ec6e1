"""Exact integer linear algebra: the Smith normal form and row lattices.

Everything here works on lists of Python ints, so entries never overflow.
Matrices are small throughout the package (monomial and Schubert bases per
degree), which keeps the classical minimal-pivot algorithm comfortable.
The Smith form is the package's one lattice algorithm: besides the
diagonal and the transforms it answers whether a vector lies in the row
lattice (``SNFResult.contains``) and whether the rows span ``Z^n``
(``SNFResult.spans``).

The Smith form's elimination updates only the matrix and logs its
elementary operations; a unimodular transform is replayed from the log the
first time a caller reads it, so unread transforms cost nothing.

The elimination does only the work that can change the matrix: each
operation at step t touches only the trailing block (rows and columns
>= t), the pivot search looks for the first unit with ``list`` searches and
scans for a minimal entry only in a block without one, a row operation
visits only the pivot row's nonzeros, a column operation after a cleared
pivot column updates one entry, and the check that the pivot divides the
rest of the block is skipped for a unit pivot.  The log is the same, entry
for entry, as the plain elimination on the whole matrix.

The matrices met here are mostly zero (the largest of the A4 full-flag
presentation, up to 425 x 285, are 2.5-6 % nonzero and their P^-1 6-10 %),
so each of ``p``, ``p_inv``, ``q`` and ``q_inv`` is kept as a list of sparse
``{column: entry}`` rows, read through ``_combine_sparse``.
"""

from __future__ import annotations

from functools import cached_property

from .errors import OutOfRange


def _combine(pairs, width: int) -> list[int]:
    """The sum of c * row over (c, row) pairs of dense rows, skipping zero coefficients."""
    out = [0] * width
    for c, row in pairs:
        if c:
            out = [a + c * b for a, b in zip(out, row)]
    return out


def _combine_sparse(coefficients, rows, width: int) -> list[int]:
    """The sum of c * rows[k] over (k, c) pairs, skipping zero coefficients,
    for sparse ``{column: entry}`` rows."""
    out = [0] * width
    for k, c in coefficients:
        if c:
            for j, v in rows[k].items():
                out[j] += c * v
    return out


def _replay(n: int, ops, inverse: bool) -> list[dict[int, int]]:
    """Apply a log of elementary row operations to the n x n identity.

    ``("axpy", i, j, k)`` is row_i += k * row_j; ``("swap", i, j)`` and
    ``("neg", i)`` are their own inverses and transposes.  With ``inverse``
    each axpy is applied as row_j -= k * row_i, the transpose of its
    inverse: replaying a row log that way gives the transpose of the
    inverse of its product.

    The transforms are mostly zero (0.4-25 % nonzero for the Smith forms of
    over 100 rows in the A4 full-flag presentation), so each row is a
    ``{column: entry}`` dict of its nonzero entries and an axpy costs the
    size of its source row.
    """
    x = [{i: 1} for i in range(n)]
    for op in ops:
        kind = op[0]
        if kind == "axpy":
            _, i, j, k = op
            if inverse:
                i, j, k = j, i, -k
            dst = x[i]
            for c, v in x[j].items():
                s = dst.get(c, 0) + k * v
                if s:
                    dst[c] = s
                else:
                    del dst[c]
        elif kind == "swap":
            _, i, j = op
            x[i], x[j] = x[j], x[i]
        else:
            x[op[1]] = {c: -v for c, v in x[op[1]].items()}
    return x


def _transpose(rows, n: int) -> list[dict[int, int]]:
    """The transpose of sparse rows with n columns, as n sparse rows."""
    out = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for c, v in row.items():
            out[c][i] = v
    return out


class SNFResult:
    """P @ M @ Q = D with P, Q unimodular.

    Holds D, its ``cols``, ``diagonal`` and ``rank`` (set once, when built) and the logs
    of the elimination's row and column operations (see ``_replay``).  ``p``, ``p_inv``,
    ``q`` and ``q_inv`` are each replayed from their log once, on first read.  Column
    operations act on Q from the right, so Q (as its transpose) and Q^-1 are row replays
    of the column log, and P^-1 is the transpose of the inverse replay.  All four are
    lists of sparse ``{column: entry}`` rows (read them with ``_combine_sparse``).
    """

    def __init__(self, d: list[list[int]], row_ops: list[tuple], col_ops: list[tuple]):
        self.d, self.row_ops, self.col_ops = d, row_ops, col_ops
        self.cols = len(d[0]) if d else 0
        self.diagonal = [d[i][i] for i in range(min(len(d), self.cols))]
        self.rank = sum(1 for x in self.diagonal if x != 0)

    def contains(self, vec) -> bool:
        """Whether vec lies in the row lattice {x @ M : x integer}.

        M = P^-1 @ D @ Q^-1, so vec = x @ M exactly when y = vec @ Q equals
        (x @ P^-1) @ D: d_j divides y_j for j < rank and y_j = 0 beyond.  A
        form with no rows contains only 0.
        """
        if not self.d:
            return not any(vec)
        if len(vec) != self.cols:
            raise OutOfRange(f"vector has {len(vec)} entries, expected {self.cols}")
        y = _combine_sparse(enumerate(vec), self.q, self.cols)
        rank = self.rank
        return (all(y[j] % self.diagonal[j] == 0 for j in range(rank))
                and not any(y[rank:]))

    def spans(self, cols: int) -> bool:
        """Whether the rows of M span all of Z^cols: full rank, unit factors."""
        return self.rank == cols and all(x == 1 for x in self.diagonal[:cols])

    @cached_property
    def p(self) -> list[dict[int, int]]:
        return _replay(len(self.d), self.row_ops, False)

    @cached_property
    def p_inv(self) -> list[dict[int, int]]:
        return _transpose(_replay(len(self.d), self.row_ops, True), len(self.d))

    @cached_property
    def q(self) -> list[dict[int, int]]:
        return _transpose(_replay(self.cols, self.col_ops, False), self.cols)

    @cached_property
    def q_inv(self) -> list[dict[int, int]]:
        return _replay(self.cols, self.col_ops, True)


def _first_unit(m, t: int, rows: int):
    """(i, j) of the first 1 or -1 at or past (t, t) in row-major order, or None."""
    for i in range(t, rows):
        tail = m[i][t:]
        if 1 in tail:
            j = tail.index(1)
            if -1 in tail[:j]:
                j = tail.index(-1)
            return i, t + j
        if -1 in tail:
            return i, t + tail.index(-1)
    return None


def _minimal_entry(m, t: int, rows: int, cols: int):
    """(i, j) of the first entry of minimal nonzero absolute value in the
    trailing block, in row-major order, or None when the block is zero."""
    best = None
    for i in range(t, rows):
        r = m[i]
        for j in range(t, cols):
            v = abs(r[j])
            if v and (best is None or v < best[0]):
                best = (v, i, j)
    return None if best is None else best[1:]


def smith_normal_form(mat) -> SNFResult:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Pivoting picks the minimal nonzero absolute value of the remaining block,
    the first in row-major order on ties; the diagonal is normalized positive
    with each entry dividing the next (the classical minimal-pivot
    elimination, Cohen GTM 138, section 2.4.4).  Rows of unequal length are
    refused (``OutOfRange``).

    At step t every entry outside the trailing block (rows and columns
    >= t) is zero apart from the finished diagonal, so each operation
    touches only that block.  No entry is smaller than a unit, so the pivot
    is the first 1 or -1 of the block in row-major order, found row by row
    with ``in`` and ``list.index``; only a block without a unit is scanned
    for its minimal entry.  The row phase updates each row through the
    pivot row's nonzero (column, entry) pairs, listed once per pivot.  Once
    the row phase has cleared column t below the pivot, a column operation
    col_j += k * col_t changes only m[t][j].  A unit pivot divides
    everything, so the check that the pivot divides the rest of the block
    runs only for a pivot above 1.  None of this changes which operations
    are logged.
    """
    m = [list(r) for r in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    for i, r in enumerate(m):
        if len(r) != cols:
            raise OutOfRange(f"row {i} has {len(r)} entries, expected {cols}")
    row_ops: list[tuple] = []
    col_ops: list[tuple] = []

    for t in range(min(rows, cols)):
        while True:
            # the first unit in row-major order is the pivot that the
            # minimal-entry scan would keep; only a block without one is scanned
            best = _first_unit(m, t, rows)
            if best is None:
                best = _minimal_entry(m, t, rows, cols)
            if best is None:
                break
            bi, bj = best
            if bi != t:
                m[t], m[bi] = m[bi], m[t]
                row_ops.append(("swap", t, bi))
            if bj != t:
                for i in range(t, rows):
                    r = m[i]
                    r[t], r[bj] = r[bj], r[t]
                col_ops.append(("swap", t, bj))
            top = m[t]
            if top[t] < 0:
                top[t:] = [-a for a in top[t:]]
                row_ops.append(("neg", t))
            pivot = top[t]
            # the pivot row's nonzeros, fixed for the whole row phase
            support = [(j, a) for j, a in enumerate(top[t:], t) if a]
            dirty = False
            for i in range(t + 1, rows):
                r = m[i]
                if r[t]:
                    k = -(r[t] // pivot)
                    for j, a in support:
                        r[j] += k * a
                    row_ops.append(("axpy", i, t, k))
                    if r[t]:
                        dirty = True
            # unless the row phase left a remainder in column t, the column
            # is zero below the pivot and col_j += k * col_t changes only top[j]
            below = dirty
            for j in range(t + 1, cols):
                if top[j]:
                    k = -(top[j] // pivot)
                    if below:
                        for i in range(t, rows):
                            r = m[i]
                            r[j] += k * r[t]
                    else:
                        top[j] += k * pivot
                    col_ops.append(("axpy", j, t, k))
                    if top[j]:
                        dirty = True
            if dirty:
                continue
            # the pivot must divide the rest of the block; a unit always does
            if pivot == 1:
                break
            offender = None
            for i in range(t + 1, rows):
                r = m[i]
                for j in range(t + 1, cols):
                    if r[j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            top[t:] = [a + b for a, b in zip(top[t:], m[offender][t:])]
            row_ops.append(("axpy", t, offender, 1))
    return SNFResult(m, row_ops, col_ops)
