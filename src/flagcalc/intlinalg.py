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
>= t), a column operation after a cleared pivot column updates one entry,
and the check that the pivot divides the rest of the block is skipped for
a unit pivot.  The replay keeps its rows sparse until the end.  The log is
the same, entry for entry, as the plain elimination on the whole matrix.
"""

from __future__ import annotations

from functools import cached_property


def _combine(pairs, width: int) -> list[int]:
    """The sum of c * row over (c, row) pairs, skipping zero coefficients."""
    out = [0] * width
    for c, row in pairs:
        if c:
            out = [a + c * b for a, b in zip(out, row)]
    return out


def _replay(n: int, ops, inverse: bool) -> list[list[int]]:
    """Apply a log of elementary row operations to the n x n identity.

    ``("axpy", i, j, k)`` is row_i += k * row_j; ``("swap", i, j)`` and
    ``("neg", i)`` are their own inverses and transposes.  With ``inverse``
    each axpy is applied as row_j -= k * row_i, the transpose of its
    inverse: replaying a row log that way gives the transpose of the
    inverse of its product.

    The transforms are mostly zero (0.4-25 % nonzero for the Smith forms of
    over 100 rows in the A4 full-flag presentation), so while the log is
    applied each row is a ``{column: entry}`` dict of its nonzero entries
    and an axpy costs the size of its source row; the rows are made dense
    once, at the end.
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
    out = []
    for row in x:
        dense = [0] * n
        for c, v in row.items():
            dense[c] = v
        out.append(dense)
    return out


class SNFResult:
    """P @ M @ Q = D with P, Q unimodular.

    Holds D, its ``cols``, ``diagonal`` and ``rank`` (set once, when built) and the logs
    of the elimination's row and column operations (see ``_replay``).  ``p``, ``p_inv``,
    ``q`` and ``q_inv`` are each replayed from their log once, on first read.  Column
    operations act on Q from the right, so Q (as its transpose) and Q^-1 are row replays
    of the column log, and P^-1 is the transpose of the inverse replay.
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
        y = _combine(zip(vec, self.q), self.cols)
        rank = self.rank
        return (all(y[j] % self.diagonal[j] == 0 for j in range(rank))
                and not any(y[rank:]))

    def spans(self, cols: int) -> bool:
        """Whether the rows of M span all of Z^cols: full rank, unit factors."""
        return self.rank == cols and all(x == 1 for x in self.diagonal[:cols])

    @cached_property
    def p(self) -> list[list[int]]:
        return _replay(len(self.d), self.row_ops, False)

    @cached_property
    def p_inv(self) -> list[list[int]]:
        return [list(c) for c in zip(*_replay(len(self.d), self.row_ops, True))]

    @cached_property
    def q(self) -> list[list[int]]:
        return [list(c) for c in zip(*_replay(self.cols, self.col_ops, False))]

    @cached_property
    def q_inv(self) -> list[list[int]]:
        return _replay(self.cols, self.col_ops, True)


def smith_normal_form(mat) -> SNFResult:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Pivoting picks the minimal nonzero absolute value of the remaining block;
    the diagonal is normalized positive with each entry dividing the next
    (the classical minimal-pivot elimination, Cohen GTM 138, section 2.4.4).

    At step t every entry outside the trailing block (rows and columns
    >= t) is zero apart from the finished diagonal, so each operation
    touches only that block.  Once the row phase has cleared column t below
    the pivot, a column operation col_j += k * col_t changes only m[t][j].
    A unit pivot divides everything, so the check that the pivot divides
    the rest of the block runs only for a pivot above 1.  None of this
    changes which operations are logged.
    """
    m = [list(r) for r in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    row_ops: list[tuple] = []
    col_ops: list[tuple] = []

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
            tail = top[t:]
            dirty = False
            for i in range(t + 1, rows):
                r = m[i]
                if r[t]:
                    k = -(r[t] // pivot)
                    r[t:] = [a + k * b for a, b in zip(r[t:], tail)]
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
