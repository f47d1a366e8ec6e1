import copy
import hashlib
import pickle
import random
import sys
import tracemalloc
from operator import add

import pytest

from flagcalc import builtin_cartan, enumerate_cosets, structure_matrix, triangular_operator
from flagcalc.characteristics import (
    SchubertExpansion,
    StructureMatrix,
    _word_columns,
    characteristic,
    class_factor_masks,
    monomial_vector,
    multiply_schubert,
)
from flagcalc.errors import DegreeMismatch, IndexOutOfRange, NotFound, TruncatedTable
from flagcalc.weyl import element_of_word

from conftest import poly_mul


def test_structure_matrices_g2():
    g2 = builtin_cartan("G", 2)
    assert structure_matrix(g2, (1, 2, 1, 2)).rows == (
        (0, 1, -2, 1),
        (0, 0, 3, -2),
        (0, 0, 0, 1),
        (0, 0, 0, 0),
    )
    assert structure_matrix(g2, (2, 1, 2, 1)).rows == (
        (0, 3, -2, 3),
        (0, 0, 1, -2),
        (0, 0, 0, 3),
        (0, 0, 0, 0),
    )


def test_structure_matrix_length_one():
    a1 = builtin_cartan("A", 1)
    assert structure_matrix(a1, (1,)).rows == ((0,),)
    with pytest.raises(IndexOutOfRange):
        structure_matrix(a1, (2,))


@pytest.mark.parametrize("series, rank, k_set", [
    ("B", 3, {1, 2, 3}), ("C", 3, {1, 2, 3}), ("F", 4, {1}), ("G", 2, {1, 2}),
    ("D", 4, {1, 2, 3, 4}), ("A", 3, {1, 2, 3}),
], ids=["B-3", "C-3", "F-4-P1", "G-2", "D-4", "A-3"])
def test_structure_matrix_convention(series, rank, k_set):
    """a_{s,t} = -c[i_s][i_t] for s < t and zero elsewhere, on every word.

    The reference is the dense formula, written out apart from the engine's
    sparse columns.  Outside the simply-laced types c is not symmetric, so
    this pins which index of c is the row.
    """
    cm = builtin_cartan(series, rank)
    for w in enumerate_cosets(cm, k_set).entries():
        word, m = w.word, w.m
        expected = tuple(
            tuple(-cm.c(word[s], word[t]) if s < t else 0 for t in range(m))
            for s in range(m)
        )
        assert structure_matrix(cm, word).rows == expected, word


@pytest.mark.parametrize("order", ["deepest-first", "ascending"])
@pytest.mark.parametrize("series, rank, k_set", [
    ("A", 3, {1, 2, 3}), ("B", 3, {1, 2, 3}), ("C", 3, {1, 2, 3}), ("G", 2, {1, 2}),
    ("F", 4, {1}), ("E", 6, {2}),
], ids=["A-3", "B-3", "C-3", "G-2", "F-4-P1", "E-6-P2"])
def test_tree_built_columns_match_structure_matrix(series, rank, k_set, order):
    """The memoized columns, built from the parent word's, scatter to A_w.

    Deepest first, the top word's walk fills every ancestor's columns; in
    ascending order each word finds its parent's already memoized.  A
    column whose letter is not joined to the first letter is the parent's
    column one place to the left, the same tuple.
    """
    cm = builtin_cartan(series, rank)
    table = enumerate_cosets(cm, k_set)
    entries = list(table.entries())
    if order == "deepest-first":
        entries.reverse()
    for w in entries:
        m = w.m
        columns = _word_columns(table, w)
        if m:
            assert w.columns is columns
        rows = [[0] * m for _ in range(m)]
        for t, column in enumerate(columns):
            for r, x in column:
                rows[m - 1 - r][t] = x
        assert tuple(map(tuple, rows)) == structure_matrix(cm, w.word).rows, w.word
        if w.parent is not None:
            shifted = _word_columns(table, w.parent)
            g = w.word[0]
            for t in range(1, m):
                if not cm.c(g, w.word[t]):
                    assert columns[t] is shifted[t - 1]


def test_operator_rule_one():
    a = StructureMatrix(((0,),))
    assert triangular_operator(a, {(1,): 1}) == 1
    assert triangular_operator(a, {(1,): 7}) == 7


def test_operator_two_by_two():
    a = StructureMatrix(((0, 5), (0, 0)))
    assert triangular_operator(a, {(1, 1): 1}) == 1
    assert triangular_operator(a, {(0, 2): 1}) == 5
    assert triangular_operator(a, {(2, 0): 1}) == 0


def test_operator_squarefree_full_monomial():
    g2 = builtin_cartan("G", 2)
    a_u = structure_matrix(g2, (1, 2, 1, 2))
    assert triangular_operator(a_u, {(1, 1, 1, 1): 1}) == 1


def test_operator_rule_two_kills_missing_top_variable():
    a = StructureMatrix(((0, 1, 2), (0, 0, 3), (0, 0, 0)))
    assert triangular_operator(a, {(2, 1, 0): 4}) == 0


def test_operator_linearity():
    g2 = builtin_cartan("G", 2)
    a = structure_matrix(g2, (1, 2, 1, 2))
    rng = random.Random(3)
    exps = [(1, 1, 1, 1), (0, 2, 1, 1), (0, 0, 2, 2), (1, 0, 0, 3), (0, 1, 0, 3)]
    for _ in range(20):
        h1 = {e: rng.randint(-4, 4) for e in exps}
        h2 = {e: rng.randint(-4, 4) for e in exps}
        s1, s2 = rng.randint(-3, 3), rng.randint(-3, 3)
        combo = {e: s1 * h1[e] + s2 * h2[e] for e in exps}
        lhs = triangular_operator(a, combo)
        rhs = s1 * triangular_operator(a, h1) + s2 * triangular_operator(a, h2)
        assert lhs == rhs


def test_operator_degree_mismatch():
    a = StructureMatrix(((0, 1), (0, 0)))
    for h in (
        {(3, 0): 1},                # degree 3 in 2 variables
        {(1, 1, 1): 1},             # 3 variables for a 2 x 2 matrix
        {(1, 0): 1},                # degree 1
        {(1, 1): 1, (1, 0): 1},     # mixed degrees
        {(1, 1, 0): 1},             # wrong length, right degree
    ):
        with pytest.raises(DegreeMismatch):
            triangular_operator(a, h)


def test_operator_empty_word():
    """The degree-0 functional returns the constant, like the identity class's 1."""
    a = structure_matrix(builtin_cartan("A", 2), ())
    assert triangular_operator(a, {(): 5}) == 5
    assert triangular_operator(a, {(): -3}) == -3
    assert triangular_operator(a, {}) == 0
    # a zero coefficient drops out, here and in a size-2 sum of one degree
    assert triangular_operator(a, {(): 0}) == 0
    b = StructureMatrix(((0, 1), (0, 0)))
    assert triangular_operator(b, {(1, 1): 0}) == 0
    assert triangular_operator(b, {(1, 1): 3, (2, 0): -1, (0, 2): 0}) == 3


def test_operator_rejects_negative_exponent():
    a = StructureMatrix(((0, 1, 2), (0, 0, 3), (0, 0, 0)))
    with pytest.raises(DegreeMismatch):
        triangular_operator(a, {(2, -1, 2): 1})


def _reference_operator(rows, terms) -> int:
    """Rules i-iii on exponent tuples, independent of the packed kernel."""
    m = len(rows)
    cur = dict(terms)
    for v in range(m - 1, 0, -1):
        lin = {tuple(int(t == s) for t in range(v)): rows[s][v] for s in range(v) if rows[s][v]}
        powers = {1: {(0,) * v: 1}}
        nxt: dict = {}
        for e, c in cur.items():
            r = e[v]
            if r == 0:
                continue
            for k in range(len(powers), r):
                powers[k + 1] = poly_mul(powers[k], lin)
            for le, lc in powers[r].items():
                key = tuple(map(add, e[:v], le))
                nxt[key] = nxt.get(key, 0) + c * lc
        cur = nxt
    return cur.get((1,) if m else (), 0)


@pytest.mark.parametrize("m", [3, 4, 7, 8, 15, 16])
def test_operator_packing_widths(m):
    """Exponents m - 1 and m, the longest runs of multipliers, against rules i-iii.

    The sizes sit on both sides of powers of two, where the packed-exponent
    kernel's field width grew.  The structure matrices are banded with a few
    far entries, and the random terms use at most four variables; both keep
    the reference's expansions small at m = 16.
    """
    rng = random.Random(1000 + m)
    for _ in range(2):
        rows = tuple(
            tuple(rng.choice([-3, -2, -1, 1, 2, 3])
                  if s < t and (t - s <= 2 or rng.random() < 0.1) else 0
                  for t in range(m))
            for s in range(m)
        )
        exps = [(0,) * (m - 1) + (m,),                # x_m^m
                (0,) * (m - 2) + (m - 1, 1)]          # x_{m-1}^{m-1} x_m
        for s in rng.sample(range(m - 1), 2):          # x_{s+1}^{m-1} x_m
            exps.append(tuple((m - 1) * (q == s) + (q == m - 1) for q in range(m)))
        for _ in range(4):                             # degree m, with the top variable
            e = [0] * m
            e[m - 1] = rng.randint(1, 3)
            support = rng.sample(range(m - 1), min(3, m - 1))
            for _ in range(m - e[m - 1]):
                e[rng.choice(support)] += 1
            exps.append(tuple(e))
        terms = {}
        for e in exps:
            terms[e] = terms.get(e, 0) + rng.choice([-5, -2, -1, 1, 3, 7])
        a = StructureMatrix(rows)
        expected = 0
        for e, c in terms.items():
            value = _reference_operator(rows, {e: c})
            assert triangular_operator(a, {e: c}) == value, e
            expected += value
        assert triangular_operator(a, terms) == expected


# ---------------------------------------------------------------------------
# The squarefree kernel against the packed-exponent elimination it replaced.
# ---------------------------------------------------------------------------


def _packed_power(pairs, r, width, store):
    """(sum c x_{s+1})^r over pairs (s, c), in packed exponents, memoized in store."""
    if r == 0:
        return {0: 1}
    key = (pairs, r)
    got = store.get(key)
    if got is None:
        got = {}
        for ea, ca in _packed_power(pairs, r - 1, width, store).items():
            for s, c in pairs:
                e = ea + (1 << s * width)
                v = got.get(e, 0) + ca * c
                if v:
                    got[e] = v
                else:
                    del got[e]
        store[key] = got
    return got


def _packed_eliminate(rows, terms) -> int:
    """Rules i-iii on exponents packed into ints: the elimination kernel before
    the squarefree one, with its expansion of the powers of L_v.

    A key holds the exponent of x_{s+1} in bits [s*W, (s+1)*W) with
    W = m.bit_length(); no exponent exceeds m, so no field carries.
    """
    m = len(rows)
    width = m.bit_length()
    cur = {sum(x << s * width for s, x in enumerate(e)): c for e, c in terms.items() if c}
    store: dict = {}
    for v in range(m - 1, 0, -1):
        shift = v * width
        low = (1 << shift) - 1
        col = tuple((s, rows[s][v]) for s in range(v) if rows[s][v])
        nxt: dict = {}
        for e, c in cur.items():
            r = e >> shift
            if r == 0:
                continue
            base = e & low
            for le, lc in _packed_power(col, r - 1, width, store).items():
                key = base + le
                val = nxt.get(key, 0) + c * lc
                if val:
                    nxt[key] = val
                else:
                    del nxt[key]
        if not nxt:
            return 0
        cur = nxt
    return cur.get(1 if m else 0, 0)


def _random_monomial(rng, m, high):
    """A degree-m exponent vector in m variables with one exponent >= high."""
    e = [0] * m
    e[rng.randrange(m)] = high
    for _ in range(m - high):
        e[rng.randrange(m)] += 1
    return tuple(e)


def _assert_operator_matches_packed(rows, exps, rng):
    a = StructureMatrix(rows)
    terms = {}
    for e in exps:
        terms[e] = terms.get(e, 0) + rng.choice([-5, -2, -1, 1, 3, 7])
    for e, c in terms.items():
        assert triangular_operator(a, {e: c}) == _packed_eliminate(rows, {e: c}), (rows, e)
    assert triangular_operator(a, terms) == _packed_eliminate(rows, terms)


@pytest.mark.parametrize("m", range(13))
def test_operator_matches_packed_reference(m):
    """Random strictly upper-triangular matrices, entries -3..3, some zero columns.

    Above the diagonal an entry is drawn from -3..3 with probability 1/2 and
    is 0 otherwise, which keeps the reference's power expansions small at
    m = 12.
    """
    rng = random.Random(2000 + m)
    for _ in range(6):
        zero = set(rng.sample(range(m), m // 4))
        rows = tuple(
            tuple(rng.randint(-3, 3) if s < t and t not in zero and rng.random() < 0.5 else 0
                  for t in range(m))
            for s in range(m)
        )
        if m == 0:
            _assert_operator_matches_packed(rows, [()], rng)
            continue
        exps = [(1,) * m, (0,) * (m - 1) + (m,)]
        exps += [_random_monomial(rng, m, rng.randint(min(3, m), m)) for _ in range(8)]
        _assert_operator_matches_packed(rows, exps, rng)


@pytest.mark.parametrize("m", [63, 64, 65, 70])
def test_operator_matches_packed_reference_long_words(m):
    """CP^m's top word, whose columns each hold one entry, with high exponents."""
    rows = structure_matrix(builtin_cartan("A", m), tuple(range(m, 0, -1))).rows
    rng = random.Random(3000 + m)
    exps = [(0,) * (m - 1) + (m,), (m - 1,) + (0,) * (m - 2) + (1,)]
    exps += [_random_monomial(rng, m, rng.randint(3, m)) for _ in range(6)]
    _assert_operator_matches_packed(rows, exps, rng)


@pytest.mark.parametrize("series, rank, k_set, bound, digest", [
    ("G", 2, {1, 2}, None, "9fd8ae5cbfb30800b01401feb556cd5f9de4e1611d6875d7dcdcc19ffbbac7d2"),
    ("B", 3, {1, 2, 3}, None, "3e6a0852b1fa76e5b7725a9bdcf339a45770cdafce080caf965f31dbce9ad318"),
    ("C", 3, {1, 2, 3}, None, "138c899d487cb65b23564de354532602f1964ce45fa04e32968135e9565a6b6f"),
    ("A", 4, {1, 2, 3, 4}, None, "47a22053dd48164118a4b99af026c44869fb80a1a03699291d906fead277b329"),
    ("D", 4, {1, 2, 3, 4}, 8, "42d3513a384ae4229fd429ed9825aac37942b104df2549f2616e7e607535a44a"),
    ("F", 4, {1}, None, "c1d632773b2c319125adecdb92949fa7416bca89ca60a9f7d1f87eebf46d3106"),
    ("E", 6, {2}, 14, "c0cfce7581780ace48d9a1d51482c3cc0a13a4762ebafc96ffa87c1366b01564"),
    ("B", 4, {3}, None, "d000607ce6f43dd0279d410abdb879f6e41bbe07a28fef8d9f0dccd64114ed60"),
    ("A", 3, {2}, None, "b1c1486572f922ad7b6f3508cc1064054271f074d4ce2b09f497868a06d77037"),
], ids=["G2-T", "B3-T", "C3-T", "A4-T", "D4-T@8", "F4-P1", "E6-P2@14", "B4-P3", "A3-P2"])
def test_multiply_schubert_pinned(series, rank, k_set, bound, digest):
    """SHA-256 of every product s_u * s_v (u no later than v, within the bound).

    The digests were recorded with the packed-exponent elimination kernel.
    """
    table = enumerate_cosets(builtin_cartan(series, rank), k_set, bound)
    top = table.top_length if bound is None else bound
    entries = list(table.entries())
    h = hashlib.sha256()
    for n, u in enumerate(entries):
        for v in entries[n:]:
            if u.m + v.m <= top:
                terms = multiply_schubert(table, u, v).terms
                h.update(repr((u.m, u.i, v.m, v.i, terms)).encode())
    assert h.hexdigest() == digest


def test_characteristic_identity_cases(g42):
    for entry in g42.entries():
        assert characteristic(g42, entry, [entry]) == 1
    ident = g42.entry(0, 1)
    assert characteristic(g42, ident, []) == 1
    assert characteristic(g42, g42.entry(2, 1), [ident, g42.entry(2, 1)]) == 1


def test_characteristic_degree_mismatch(g42):
    with pytest.raises(DegreeMismatch):
        characteristic(g42, g42.entry(2, 1), [g42.entry(1, 1)])


def test_multiply_basic(g42):
    s2 = g42.lookup_word([2])
    expansion = multiply_schubert(g42, s2, s2)
    assert expansion.as_dict() == {(2, 1): 1, (2, 2): 1}


def test_schubert_expansion_compares_by_value(g42):
    s2 = g42.lookup_word([2])
    expansion = multiply_schubert(g42, s2, s2)
    copy = SchubertExpansion(expansion.degree, tuple(expansion.terms))
    assert copy == expansion and hash(copy) == hash(expansion)
    assert SchubertExpansion(expansion.degree, expansion.terms[:1]) != expansion


def test_multiply_symmetric(g42):
    entries = list(g42.entries())
    for u in entries:
        for v in entries:
            if u.m + v.m > g42.top_length:
                continue
            assert multiply_schubert(g42, u, v).terms == multiply_schubert(g42, v, u).terms


def test_multiply_beyond_top_is_empty(g42):
    top = g42.entry(4, 1)
    one = g42.entry(1, 1)
    assert multiply_schubert(g42, top, one).terms == ()


def test_truncated_table_refuses(g94_len8):
    u = g94_len8.entry(5, 1)
    v = g94_len8.entry(5, 2)
    with pytest.raises(TruncatedTable):
        multiply_schubert(g94_len8, u, v)


def test_composed_matches_direct_operator():
    """Folding two-factor rows agrees with the operator on the whole product.

    ``characteristic`` composes a k-factor monomial from memoized two-factor
    constants; here the product of all k mask sums is expanded at once and
    handed to ``triangular_operator``, with no composition.
    """
    rng = random.Random(99)
    for series, rank, k_set in [("A", 3, {2}), ("G", 2, {1, 2}), ("B", 2, {1, 2}),
                                ("B", 3, {1, 2, 3}), ("C", 3, {1, 2, 3}),
                                ("D", 4, {2}), ("C", 4, {2})]:
        cm = builtin_cartan(series, rank)
        table = enumerate_cosets(cm, k_set)
        entries = list(table.entries())
        for _ in range(120):
            w = rng.choice([e for e in entries if e.m >= 1])
            classes = []
            left = w.m
            while left > 0:
                cand = rng.choice([e for e in entries if 1 <= e.m <= left])
                classes.append(cand)
                left -= cand.m
            got = characteristic(table, w, classes)
            poly = {(0,) * w.m: 1}
            empty = False
            for u in classes:
                masks = class_factor_masks(table, w, u)
                if not masks:
                    empty = True
                    break
                new = {}
                for e1, c1 in poly.items():
                    for mask in masks:
                        key = tuple(a + (mask >> p & 1) for p, a in enumerate(e1))
                        new[key] = new.get(key, 0) + c1
                poly = new
            if empty:
                assert got == 0
            else:
                a = structure_matrix(cm, w.word)
                assert got == triangular_operator(a, poly)


def test_g94_spot_value(g94):
    top = g94.entry(20, 1)
    c4 = g94.lookup_word([1, 2, 3, 4])
    value = characteristic(g94, top, [c4] * 5)
    assert value == 1


def test_characteristic_of_an_iterator(g94):
    # the degree check used to use up an iterator and leave no factor, so 0
    top, c1 = g94.entry(20, 1), g94.entry(1, 1)
    assert characteristic(g94, top, [c1] * 20) == 1662804
    assert characteristic(g94, top, (c1 for _ in range(20))) == 1662804
    assert characteristic(g94, top, iter([c1] * 20)) == 1662804


@pytest.mark.parametrize("series, rank, k_set", [
    ("G", 2, {1, 2}), ("A", 3, {1, 2, 3}), ("B", 3, {1, 2, 3}), ("C", 3, {1, 2, 3}),
    ("A", 4, {2}), ("B", 3, {1}), ("C", 3, {2}), ("G", 2, {1}), ("D", 4, {2}),
], ids=["G-2", "A-3", "B-3", "C-3", "A-4-P2", "B-3-P1", "C-3-P2", "G-2-P1", "D-4-P2"])
def test_masks_match_brute_force(series, rank, k_set):
    """Every l(u)-subset of w's positions whose subword is u, found by brute force.

    The subsets are compared with u as a Weyl group element, so on the
    parabolic spaces this also checks the coset vectors the masks are built
    from.  Longest words come first, so their masks are built down the whole
    parent chain before any ancestor is memoized.
    """
    cm = builtin_cartan(series, rank)
    table = enumerate_cosets(cm, k_set)
    entries = list(table.entries())
    for w in reversed(entries):
        m = len(w.word)
        # element of each position subset's subword, grouped by subset size
        by_size: dict = {}
        for mask in range(1 << m):
            sub = [w.word[q] for q in range(m) if mask >> q & 1]
            by_size.setdefault(len(sub), []).append((element_of_word(cm, sub), mask))
        for u in entries:
            if u.m > m:
                continue
            target = element_of_word(cm, u.word)
            expected = tuple(mask for elem, mask in by_size[u.m] if elem == target)
            assert class_factor_masks(table, w, u) == expected, (w.word, u.word)


def test_masks_of_a_deep_word():
    """On CP^1100 the hyperplane class sits only at the last of 1100 letters.

    The masks come from the parent word's, 1100 words deep, with Python's
    default recursion limit.
    """
    assert sys.getrecursionlimit() < 1100
    table = enumerate_cosets(builtin_cartan("A", 1100), {1})
    top = table.entry(1100, 1)
    h = table.lookup_word([1])
    assert class_factor_masks(table, top, h) == (1 << 1099,)


@pytest.mark.parametrize("n", [63, 64, 65, 70, 1100])
def test_long_word_characteristic(n):
    """h^n = 1 on CP^n: target words at and beyond 64 letters.

    At 1100 letters the columns and masks come from 1100 nested words, with
    Python's default recursion limit.
    """
    table = enumerate_cosets(builtin_cartan("A", n), {1})
    top = table.entry(n, 1)
    h = table.lookup_word([1])
    assert characteristic(table, top, [h] * n) == 1


def test_long_word_memo_size():
    """The memo that h^1100 leaves on CP^1100 stays below 8 MB.

    Each prefix h^t is keyed on the node of h^(t-1) and the factor, not on
    a t-tuple of factor keys.  The columns of the 1100 nested words are the
    quadratic rest: about 5 MB.
    """
    table = enumerate_cosets(builtin_cartan("A", 1100), {1})
    h = table.entry(1, 1)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert characteristic(table, table.entry(1100, 1), [h] * 1100) == 1
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert held < 8_000_000
    assert table.memo_sizes()["monomial_vectors"] == 2 * 1100 - 3


@pytest.mark.parametrize("n", [3, 30])
def test_monomial_prefixes_are_shared(n):
    """After h^n on CP^n, h^(n-1) is a memoized prefix: asking for it against
    (n-1, 1) adds no monomial vector."""
    table = enumerate_cosets(builtin_cartan("A", n), {1})
    h = table.entry(1, 1)
    assert characteristic(table, table.entry(n, 1), [h] * n) == 1
    sizes = table.memo_sizes()
    assert characteristic(table, table.entry(n - 1, 1), [h] * (n - 1)) == 1
    assert table.memo_sizes() == sizes


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))],
                         ids=["deepcopy", "pickle"])
def test_copied_table_answers_from_its_own_memo(clone):
    """A copy of a queried table brings its prefix nodes along, so the keys
    of the longer prefixes still find them: asking again adds nothing."""
    table = enumerate_cosets(builtin_cartan("A", 4), {1, 2, 3, 4})
    classes = [table.entry(1, 1)] * 4 + [table.entry(1, 3)] * 3 + [table.entry(1, 4)] * 3
    top = table.entry(10, 1)
    value = characteristic(table, top, classes)
    sizes = table.memo_sizes()
    twin = clone(table)
    assert twin.memo_sizes() == sizes
    copied = [twin.entry(u.m, u.i) for u in classes]
    assert characteristic(twin, twin.entry(10, 1), copied) == value
    assert twin.memo_sizes() == sizes


def test_classes_from_another_table_are_refused():
    """B3/T and C3/T have the same word at every (m, i), but most orbit
    points differ, so C3/T's table refuses B3/T's classes with NotFound."""
    b3 = enumerate_cosets(builtin_cartan("B", 3), {1, 2, 3})
    c3 = enumerate_cosets(builtin_cartan("C", 3), {1, 2, 3})
    top = c3.entry(9, 1)
    s1, s2, s3 = b3.layer(1)
    assert [e.word for e in b3.layer(1)] == [e.word for e in c3.layer(1)]
    with pytest.raises(NotFound):
        characteristic(c3, top, [s1] * 3 + [s2] * 3 + [s3] * 3)
    with pytest.raises(NotFound):
        characteristic(c3, b3.entry(2, 1), [c3.entry(1, 1)] * 2)
    with pytest.raises(NotFound):
        multiply_schubert(c3, c3.entry(1, 1), s2)
    with pytest.raises(NotFound):
        monomial_vector(c3, [s3, c3.entry(2, 1)])
    # the entries of an equal table built twice are accepted
    again = enumerate_cosets(builtin_cartan("C", 3), {1, 2, 3})
    classes = [c3.entry(1, 1)] * 3 + [c3.entry(1, 2)] * 3 + [c3.entry(1, 3)] * 3
    expected = characteristic(c3, top, classes)
    assert characteristic(again, top, classes) == expected
    assert characteristic(c3, again.entry(9, 1), list(again.layer(1)) * 3) == expected
    assert multiply_schubert(again, c3.entry(1, 2), c3.entry(2, 1)) == multiply_schubert(
        c3, c3.entry(1, 2), c3.entry(2, 1))


def _positive_coroots(cm):
    """Each positive coroot beta^v with a word u such that beta = u(alpha_i).

    Coroots are in simple-coroot coordinates.  With c[i][j] = <alpha_i, alpha_j^v>,
    s_j(alpha_i^v) = alpha_i^v - c[j][i] alpha_j^v.  Every positive coroot is
    reached from a simple one through positive coroots.
    """
    n = cm.rank
    found = {}
    frontier = []
    for i in range(1, n + 1):
        simple = tuple(int(r == i - 1) for r in range(n))
        found[simple] = ((), i)
        frontier.append(simple)
    while frontier:
        nxt = []
        for x in frontier:
            u, i = found[x]
            for j in range(1, n + 1):
                pairing = sum(cm.c(j, r + 1) * x[r] for r in range(n))
                y = tuple(x[r] - pairing * (r == j - 1) for r in range(n))
                if y != x and min(y) >= 0 and y not in found:
                    found[y] = ((j,) + u, i)
                    nxt.append(y)
        frontier = nxt
    return found


_DUAL_RULE = ("the engine follows the Chevalley rule with root coefficients <omega_k, beta> "
              "(the Langlands-dual rule) outside simply-laced types; ROADMAP item 6")


@pytest.mark.parametrize("series, rank", [
    ("A", 3), ("D", 4),
    *(pytest.param(s, r, marks=pytest.mark.xfail(strict=True, reason=_DUAL_RULE))
      for s, r in [("B", 2), ("B", 3), ("C", 3), ("G", 2)]),
])
def test_chevalley_formula(series, rank):
    """s_{s_k} * s_w = sum of <omega_k, beta^v> s_{w s_beta} over l(w s_beta) = l(w) + 1."""
    cm = builtin_cartan(series, rank)
    table = enumerate_cosets(cm, set(range(1, rank + 1)))
    coroots = _positive_coroots(cm)
    for w in table.entries():
        if w.m == table.top_length:
            continue
        for k in range(1, rank + 1):
            expected = {}
            for coroot, (u, i) in coroots.items():
                if coroot[k - 1] == 0:
                    continue
                target = table.lookup_word(w.word + u + (i,) + tuple(reversed(u)))
                if target.m == w.m + 1:
                    expected[(target.m, target.i)] = coroot[k - 1]
            got = multiply_schubert(table, table.lookup_word((k,)), w).as_dict()
            assert got == expected, (w.word, k)


def test_clear_caches():
    table = enumerate_cosets(builtin_cartan("A", 8), {4})
    top = table.entry(20, 1)
    c4 = table.lookup_word([1, 2, 3, 4])
    h = table.lookup_word([4])
    classes = [c4, c4, h, h, table.entry(5, 1), table.entry(5, 2)]
    before = characteristic(table, top, classes)
    sizes = table.memo_sizes()
    assert sizes["target_words"] and sizes["mask_entries"] and sizes["monomial_vectors"]
    table.clear_caches()
    assert table.memo_sizes() == dict.fromkeys(sizes, 0)
    assert all(e.masks is None and e.columns is None for e in table.entries())
    assert characteristic(table, top, classes) == before
    assert table.memo_sizes() == sizes
