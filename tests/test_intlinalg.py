import random

import pytest

from flagcalc import builtin_cartan, enumerate_cosets, presentation
from flagcalc.errors import OutOfRange
from flagcalc.intlinalg import smith_normal_form

from conftest import hnf_rows, lattice_contains


def int_det(a) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    m = [list(r) for r in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                m[r][c] = (m[r][c] * m[k][k] - m[r][k] * m[k][c]) // prev
            m[r][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _dense(sparse_rows, n):
    """Sparse ``{column: entry}`` rows (the form every transform is kept in) made dense."""
    return [[row.get(j, 0) for j in range(n)] for row in sparse_rows]


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def test_snf_known_cases():
    assert smith_normal_form([[2, 0], [0, 3]]).diagonal == [1, 6]
    assert smith_normal_form([[1, 1], [1, 0]]).diagonal == [1, 1]
    assert smith_normal_form([[1, 1], [0, 1]]).diagonal == [1, 1]
    res = smith_normal_form([[0, 0], [0, 0]])
    assert res.diagonal == [0, 0]
    assert _dense(res.p, 2) == [[1, 0], [0, 1]] and _dense(res.q, 2) == [[1, 0], [0, 1]]


def test_smith_normal_form_contract():
    res = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    p, d, q = _dense(res.p, 3), res.d, _dense(res.q, 3)
    assert _mat_mul(_mat_mul(p, [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]), q) == d
    diag = [d[i][i] for i in range(3)]
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0 if a else b == 0


def test_snf_random_properties():
    rng = random.Random(20240)
    for _ in range(150):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        res = smith_normal_form(m)
        p, q = _dense(res.p, rows), _dense(res.q, cols)
        assert _mat_mul(_mat_mul(p, m), q) == res.d
        assert abs(int_det(tuple(map(tuple, p)))) == 1
        assert abs(int_det(tuple(map(tuple, q)))) == 1
        eye_r = [[int(i == j) for j in range(rows)] for i in range(rows)]
        eye_c = [[int(i == j) for j in range(cols)] for i in range(cols)]
        assert _mat_mul(q, _dense(res.q_inv, cols)) == eye_c
        assert _mat_mul(p, _dense(res.p_inv, rows)) == eye_r
        diag = res.diagonal
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert (b % a == 0) if a else b == 0
        for z in p[res.rank:]:
            assert all(sum(z[k] * m[k][j] for k in range(rows)) == 0 for j in range(cols))


def _assert_sparse_rows(res):
    """p, p_inv, q and q_inv: each a list of n {column: entry} dicts, keys in
    0..n-1 and no zero value (n the rows for P, the columns for Q)."""
    n_rows, n_cols = len(res.d), res.cols
    for name, n in (("p", n_rows), ("p_inv", n_rows), ("q", n_cols), ("q_inv", n_cols)):
        rows = getattr(res, name)
        assert type(rows) is list and len(rows) == n, name
        for row in rows:
            assert type(row) is dict, name
            assert all(0 <= j < n for j in row), name
            assert all(v != 0 for v in row.values()), name


def test_snf_transforms_are_sparse_rows():
    # every transform is kept in one format, sparse rows, on random matrices
    # and on every degree record of a full-flag presentation
    rng = random.Random(20240)
    for _ in range(150):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        _assert_sparse_rows(smith_normal_form(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]))
    table = enumerate_cosets(builtin_cartan("A", 4), {1, 2, 3, 4})
    gens = presentation.find_generators(table)
    presentation.find_relations(table, gens)
    for m in range(table.top_length + 1):
        presentation.schubert_polynomials(table, gens, m)
    records = list(table._degrees.values())
    assert len(records) > table.top_length
    for _, res in records:
        _assert_sparse_rows(res)


def test_snf_transforms_replay_in_any_order():
    # each transform is replayed from the operation log on first read and
    # cached; reading them in different orders gives the same matrices
    rng = random.Random(31)
    names = ["p", "p_inv", "q", "q_inv"]
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        first = smith_normal_form(m)
        ref = {name: getattr(first, name) for name in names}
        for order in (names[::-1], ["q_inv", "p", "q", "p_inv"]):
            res = smith_normal_form(m)
            got = {name: getattr(res, name) for name in order}
            assert got == ref
            assert all(getattr(res, name) is got[name] for name in names)


def test_snf_q_is_replayed_once(monkeypatch):
    from flagcalc import intlinalg
    calls = []
    real = intlinalg._replay

    def counting(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(intlinalg, "_replay", counting)
    res = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    first = res.q
    assert res.q is first
    assert len(calls) == 1


def _same_lattice(rows_a, rows_b) -> bool:
    """Equal row lattices: each side's rows are members of the other's form."""
    a, b = smith_normal_form(rows_a), smith_normal_form(rows_b)
    return all(b.contains(r) for r in rows_a) and all(a.contains(r) for r in rows_b)


def test_lattice_membership_and_solve():
    rng = random.Random(7)
    for _ in range(150):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        res = smith_normal_form(m)
        # several combinations, each a member of the lattice
        for _ in range(rng.randint(1, 4)):
            coeffs = [rng.randint(-3, 3) for _ in range(rows)]
            combo = [sum(coeffs[i] * m[i][j] for i in range(rows)) for j in range(cols)]
            assert res.contains(combo)


def test_lattice_equality_canonical():
    a = [[2, 0], [0, 2]]
    b = [[2, 2], [2, 0], [4, 2]]
    assert _same_lattice(a, b)
    assert not _same_lattice(a, [[1, 0], [0, 1]])
    assert not _same_lattice(a, [[2, 2], [2, -2]])  # index-2 sublattice
    assert _same_lattice([[3, 1], [0, 5]], [[3, 6], [3, 1], [0, 5]])
    assert smith_normal_form([[1, 0], [0, 1]]).spans(2)
    assert not smith_normal_form(a).spans(2)
    assert not smith_normal_form(b).spans(2)
    assert not smith_normal_form([[1, 0]]).spans(2)


def test_non_member_detected():
    assert not smith_normal_form([[2, 0], [0, 2]]).contains([1, 0])
    res = smith_normal_form([[2, 0, 1], [0, 3, 1]])
    assert res.contains([4, -3, 1])
    assert not res.contains([2, 1, 0])
    assert res.contains([0, 0, 0])


def test_malformed_shapes_refused():
    # a vector of the wrong width is neither a member nor a non-member, and
    # a ragged matrix is refused before any elimination
    res = smith_normal_form([[2, 0], [0, 3]])
    for vec in ([2], [2, 0, 5]):
        with pytest.raises(OutOfRange, match="expected 2"):
            res.contains(vec)
    with pytest.raises(OutOfRange, match="row 1 has 1 entries, expected 2"):
        smith_normal_form([[1, 2], [3]])


def test_empty_forms():
    # no rows: only 0 is a member, and only Z^0 is spanned
    empty = smith_normal_form([])
    assert empty.contains([0, 0, 0]) and not empty.contains([0, 1, 0])
    assert empty.spans(0) and not empty.spans(1)
    # rows of width 0 span Z^0
    flat = smith_normal_form([[], []])
    assert flat.contains([]) and flat.spans(0)
    zero = smith_normal_form([[0, 0], [0, 0]])
    assert zero.contains([0, 0]) and not zero.contains([0, 1])
    assert not zero.spans(2)


def test_contains_matches_hnf_reference():
    # SNFResult.contains against the Hermite normal form of the same rows,
    # with members (combinations of the rows) and probable non-members
    # (random vectors, unit vectors, a row plus one)
    rng = random.Random(4242)
    mats = [[], [[0, 0, 0]], [[0, 0], [0, 0]], [[6, 10], [15, 0]], [[2, 4], [4, 8]]]
    for _ in range(400):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        scale = rng.choice([1, 1, 2, 3, 6])  # 2, 3 and 6 force pivots above 1
        m = [[scale * rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.3:  # a rank-deficient matrix: one row repeats another
            m[rng.randrange(rows)] = list(m[rng.randrange(rows)])
        if rng.random() < 0.3:
            zero = rng.randrange(cols)
            for r in m:
                r[zero] = 0
        mats.append(m)
    members = non_members = 0
    for m in mats:
        cols = len(m[0]) if m else 3
        res = smith_normal_form(m)
        h = hnf_rows(m, cols)
        probes = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(3)]
        probes += [[int(j == i) for j in range(cols)] for i in range(cols)]
        for _ in range(3):
            coeffs = [rng.randint(-3, 3) for _ in m]
            probes.append([sum(c * r[j] for c, r in zip(coeffs, m)) for j in range(cols)])
        if m:
            probes.append([a + 1 for a in m[0]])
        for vec in probes:
            expected = lattice_contains(h, vec)
            assert res.contains(vec) == expected, (m, vec)
            members += expected
            non_members += not expected
        assert res.spans(cols) == (h == [[int(i == j) for j in range(cols)]
                                         for i in range(cols)])
    assert members > 1000 and non_members > 1000


# ---------------------------------------------------------------------------
# The elimination against the full-block one it replaced.
# ---------------------------------------------------------------------------


def _reference_snf(mat):
    """Minimal-pivot Smith form on the whole matrix: (D, row log, column log).

    Every row and column operation spans the full matrix and the pivot's
    divisibility check runs after every pivot, units included.
    """
    m = [list(r) for r in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    row_ops, col_ops = [], []

    def row_axpy(i, j, k):
        m[i] = [a + k * b for a, b in zip(m[i], m[j])]
        row_ops.append(("axpy", i, j, k))

    def col_axpy(i, j, k):
        for r in m:
            r[i] += k * r[j]
        col_ops.append(("axpy", i, j, k))

    for t in range(min(rows, cols)):
        while True:
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
                for r in m:
                    r[t], r[bj] = r[bj], r[t]
                col_ops.append(("swap", t, bj))
            if m[t][t] < 0:
                m[t] = [-a for a in m[t]]
                row_ops.append(("neg", t))
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
    return m, row_ops, col_ops


def _reference_replay(n, ops, inverse):
    """The log applied to dense rows of the n x n identity."""
    x = [[int(i == j) for j in range(n)] for i in range(n)]
    for op in ops:
        if op[0] == "axpy":
            _, i, j, k = op
            if inverse:
                x[j] = [a - k * b for a, b in zip(x[j], x[i])]
            else:
                x[i] = [a + k * b for a, b in zip(x[i], x[j])]
        elif op[0] == "swap":
            x[op[1]], x[op[2]] = x[op[2]], x[op[1]]
        else:
            x[op[1]] = [-a for a in x[op[1]]]
    return x


def _assert_matches_reference(mat, res=None):
    d, row_ops, col_ops = _reference_snf(mat)
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if res is None:
        res = smith_normal_form(mat)
    assert (res.d, res.row_ops, res.col_ops) == (d, row_ops, col_ops)
    assert _dense(res.p, rows) == _reference_replay(rows, row_ops, False)
    p_inv = [list(c) for c in zip(*_reference_replay(rows, row_ops, True))]
    assert _dense(res.p_inv, rows) == p_inv
    assert _dense(res.q, cols) == [list(c) for c in zip(*_reference_replay(cols, col_ops, False))]
    assert _dense(res.q_inv, cols) == _reference_replay(cols, col_ops, True)


def test_snf_matches_full_block_reference():
    rng = random.Random(1105)
    mats = [[], [[]], [[], []], [[0, 0, 0]], [[6, 10], [15, 0]],
            # the pivot search: a row's first unit is a -1 left of a 1
            [[2, 4, 6], [3, -1, 1]],
            # the first unit sits in a later row than a smaller non-unit entry
            [[4, 2, 6], [3, 5, 1]],
            # no unit: minima tied across rows, the first in row-major order wins
            [[4, 2, 6], [6, -2, 4], [2, 8, 2]],
            # after a unit pivot the unit at (0, 0) lies left of column 1 and
            # the trailing block [[2, 2], [2, 5]] holds no unit
            [[1, 2, 3], [2, 6, 8], [3, 8, 14]]]
    for _ in range(600):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        scale = rng.choice([1, 1, 2, 3, 6])  # 2, 3 and 6 force pivots above 1
        density = rng.choice([1.0, 0.5, 0.15])
        m = [[scale * rng.randint(-9, 9) if rng.random() < density else 0
              for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.3:
            m[rng.randrange(rows)] = [0] * cols
        if rng.random() < 0.3:
            zero = rng.randrange(cols)
            for r in m:
                r[zero] = 0
        mats.append(m)
    for m in mats:
        _assert_matches_reference(m)


def test_snf_matches_reference_on_a4_presentation(monkeypatch):
    # every Smith form of find_relations on the full flags of A4 through the
    # top degree: the expansion matrices and the kernel coordinates of the
    # lower-degree relation multiples (425 x 285 at degree 10)
    seen = []

    def recording(mat):
        res = smith_normal_form(mat)
        seen.append((mat, res))
        return res

    monkeypatch.setattr(presentation, "smith_normal_form", recording)
    table = enumerate_cosets(builtin_cartan("A", 4), {1, 2, 3, 4})
    gens = presentation.find_generators(table, 10)
    presentation.find_relations(table, gens, 10)
    assert max(len(m) for m, _ in seen) == 425
    for m, res in seen:
        _assert_matches_reference(m, res)
