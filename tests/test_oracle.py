import pytest

from flagcalc import builtin_cartan, enumerate_cosets, multiply_schubert
from flagcalc.errors import NotSingletonK, NotTypeA, OutOfRange
from flagcalc.oracle import (
    borel_inverse_components,
    coset_to_partition,
    grassmannian_shape,
    lr_coefficient,
    partition_to_entry,
    pieri,
    word_to_permutation,
)


def test_word_to_permutation():
    # the last letter acts first
    assert word_to_permutation((1, 2), 4) == (2, 3, 1, 4)
    assert word_to_permutation((), 3) == (1, 2, 3)


def test_partition_of_known_entries(g94):
    assert coset_to_partition(g94, g94.entry(1, 1)) == (1,)
    assert coset_to_partition(g94, g94.lookup_word([3, 4])) == (1, 1)
    assert coset_to_partition(g94, g94.lookup_word([5, 4])) == (2,)
    assert coset_to_partition(g94, g94.entry(0, 1)) == ()
    assert coset_to_partition(g94, g94.entry(20, 1)) == (5, 5, 5, 5)


def test_partition_bijection(g94):
    seen = set()
    for entry in g94.entries():
        lam = coset_to_partition(g94, entry)
        assert sum(lam) == entry.m
        assert lam not in seen
        seen.add(lam)
        assert partition_to_entry(g94, lam) == entry
    assert len(seen) == 126


def test_partition_lookup_checks_the_shape_once(monkeypatch):
    # one type-A check per lookup, not one per entry of the degree layer
    from flagcalc import oracle
    table = enumerate_cosets(builtin_cartan("A", 11), {6})
    calls = []

    def counting(t):
        calls.append(t)
        return grassmannian_shape(t)
    monkeypatch.setattr(oracle, "grassmannian_shape", counting)
    entry = partition_to_entry(table, (6, 6, 6))
    assert calls == [table]
    assert len(table.layer(18)) > 1
    monkeypatch.undo()
    assert coset_to_partition(table, entry) == (6, 6, 6)


def test_layer_counts_match_box_partitions(g94):
    # partitions of 8 inside the 4x5 box
    assert len(g94.layer(8)) == 11


def test_requires_type_a(b2t, g42):
    with pytest.raises(NotTypeA):
        coset_to_partition(b2t, b2t.entry(1, 1))
    a3_full = enumerate_cosets(builtin_cartan("A", 3), {1, 2})
    with pytest.raises(NotSingletonK):
        coset_to_partition(a3_full, a3_full.entry(1, 1))
    assert coset_to_partition(g42, g42.entry(1, 1)) == (1,)


def test_lr_basics():
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_coefficient((1,), (1,), (3,)) == 0
    assert lr_coefficient((), (2, 1), (2, 1)) == 1
    assert lr_coefficient((2,), (1,), (2,)) == 0
    assert lr_coefficient((3,), (2, 1), (2, 2)) == 0  # shape not contained


def test_lr_symmetry():
    shapes = [(), (1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2)]
    for lam in shapes:
        for mu in shapes:
            for nu in [(2, 2), (3, 2, 1), (4, 2), (3, 3), (2, 2, 2)]:
                assert lr_coefficient(lam, mu, nu) == lr_coefficient(mu, lam, nu)


def test_lr_rejects_bad_partition():
    with pytest.raises(OutOfRange):
        lr_coefficient((1, 2), (1,), (2, 2))


def test_pieri_basics():
    assert pieri((), 1, (2, 2)) == [(1,)]
    assert pieri((1,), 1, (2, 2)) == [(2,), (1, 1)]
    assert pieri((2, 2), 2, (2, 2)) == []
    with pytest.raises(OutOfRange):
        pieri((1,), 3, (2, 2))


def test_pieri_matches_lr():
    box = (3, 3)

    def parts_in_box(size):
        out = []

        def rec(prev, row, left, cur):
            if row == 3:
                if left == 0:
                    out.append(tuple(x for x in cur if x))
                return
            for v in range(min(prev, 3, left), -1, -1):
                rec(v, row + 1, left - v, cur + [v])

        rec(3, 0, size, [])
        return out

    for size in range(0, 8):
        for lam in parts_in_box(size):
            for r in range(1, 4):
                from_pieri = set(pieri(lam, r, box))
                for nu in parts_in_box(size + r):
                    expected = 1 if nu in from_pieri else 0
                    assert lr_coefficient(lam, (1,) * r, nu) == expected


def test_borel_components():
    # inverse of 1 + c1 + c2 for k=2, n=4: degrees 3 and 4
    comps = borel_inverse_components(2, 4)
    assert comps[0] == {(3, 0): -1, (1, 1): 2}
    assert comps[1] == {(4, 0): 1, (2, 1): -3, (0, 2): 1}
    # every coefficient of exponent e is nonzero with sign (-1)^|e|, so the
    # recursion's sums never cancel
    for n in range(2, 13):
        for k in range(1, n):
            for comp in borel_inverse_components(k, n):
                for e, coef in comp.items():
                    assert coef and (coef > 0) == (sum(e) % 2 == 0), (k, n, e, coef)


def test_borel_geometric_series():
    # k=1: the degree-j component is (-c1)^j
    for n in (2, 3, 5):
        comps = borel_inverse_components(1, n)
        assert comps == [{(n,): (-1) ** n}]
    with pytest.raises(OutOfRange):
        borel_inverse_components(3, 3)


def test_pieri_agrees_with_products(g63):
    k, width = 3, 3
    for entry in g63.entries():
        lam = coset_to_partition(g63, entry)
        for r in range(1, k + 1):
            if entry.m + r > g63.top_length:
                continue
            col = partition_to_entry(g63, (1,) * r)
            expansion = multiply_schubert(g63, entry, col)
            got = {coset_to_partition(g63, g63.entry(m, i)): c
                   for (m, i), c in expansion.terms}
            assert got == {nu: 1 for nu in pieri(lam, r, (k, width))}
