import hashlib
import itertools

import pytest

from flagcalc import builtin_cartan, enumerate_cosets
from flagcalc.errors import NonSurjective, OutOfRange, TruncatedTable
from flagcalc.oracle import borel_inverse_components, partition_to_entry
from flagcalc.presentation import (
    GeneratorSet,
    Relation,
    SchubertPolynomial,
    expansion_matrix,
    find_generators,
    find_relations,
    generator_set_from_words,
    monomial_basis,
    schubert_polynomials,
)

from conftest import lattice_equal, poly_mul


def test_monomial_basis_order_and_counts():
    assert monomial_basis((1, 2), 2) == [(2, 0), (0, 1)]
    assert monomial_basis((1, 2), 3) == [(3, 0), (1, 1)]
    # degrees (1,3,4,6): weighted-degree-8 monomials, counted independently
    degs = (1, 3, 4, 6)
    brute = 0
    for e1 in range(9):
        for e3 in range(3):
            for e4 in range(3):
                for e6 in range(2):
                    if e1 + 3 * e3 + 4 * e4 + 6 * e6 == 8:
                        brute += 1
    basis = monomial_basis(degs, 8)
    assert len(basis) == brute == 7
    assert basis == sorted(basis, reverse=True)
    # every degree up to the top, against all exponent vectors in a box,
    # sorted descending and grouped by weighted degree
    for degs, top in (((1, 6, 10, 15), 72), ((1, 1, 1, 1), 11)):
        brute = {}
        box = itertools.product(*(range(top // d + 1) for d in degs))
        for e in sorted(box, reverse=True):
            brute.setdefault(sum(x * d for x, d in zip(e, degs)), []).append(e)
        for m in range(top + 1):
            assert monomial_basis(degs, m) == brute[m]
    assert monomial_basis((), 0) == [()]
    assert monomial_basis((), 3) == []


def test_expansion_matrix_g42(g42):
    gens = find_generators(g42)
    matrix = expansion_matrix(g42, gens, 2)
    assert matrix.monomials == ((2, 0), (0, 1))
    # c1^2 = s_(2) + s_(1,1); c2 = s_(1,1) = s_{[1,2]} (first column)
    assert matrix.rows == ((1, 1), (1, 0))
    m1 = expansion_matrix(g42, gens, 1)
    assert m1.rows == ((1,),)


def test_find_generators_g42(g42):
    gens = find_generators(g42)
    assert [e.word for e in gens.entries] == [(2,), (1, 2)]


def test_generator_set_compares_by_entries_and_hashes(g42):
    gens = find_generators(g42)
    same = GeneratorSet(tuple(g42.lookup_word(e.word) for e in gens.entries))
    assert same == gens and not same != gens
    assert hash(same) == hash(gens) and {gens: 1}[same] == 1
    assert GeneratorSet(gens.entries[:1]) != gens


def test_relations_and_schubert_polynomials_compare_by_value(g42):
    gens = find_generators(g42)
    rel = find_relations(g42, gens).relations[0]
    assert Relation(rel.degree, tuple(rel.terms)) == rel
    assert Relation(rel.degree, rel.terms[1:]) != rel
    poly = schubert_polynomials(g42, gens, 2)[0]
    assert SchubertPolynomial(poly.degree, poly.index, tuple(poly.terms)) == poly
    assert SchubertPolynomial(poly.degree, poly.index + 1, poly.terms) != poly


def test_find_generators_g94(g94):
    gens = find_generators(g94, 4)
    assert [list(e.word) for e in gens.entries] == [
        [4], [3, 4], [2, 3, 4], [1, 2, 3, 4]]


def test_find_generators_cp3(cp3):
    gens = find_generators(cp3)
    assert [e.m for e in gens.entries] == [1]
    # all higher classes are powers of the degree-1 class
    from flagcalc import characteristic
    y = gens.entries[0]
    for m in range(1, 4):
        assert characteristic(cp3, cp3.entry(m, 1), [y] * m) == 1


def test_find_generators_e6p2_degrees(e6p2):
    gens = find_generators(e6p2, 6)
    assert [e.m for e in gens.entries] == [1, 3, 4, 6]
    assert list(gens.entries[3].word) == [1, 3, 6, 5, 4, 2]


# The words find_generators chooses, then the words a scan of each degree's
# classes from the highest index chooses (another valid generator system),
# both recorded with the implementation that grew a Hermite normal form
# after every adjoined class.
# (series, rank, K -- "T" for all nodes --, bound -- None for the top degree)
_PINNED_GENERATORS = {
    ("B", 3, "T", 9): (((1,), (2,), (3,)),
                       ((3,), (2,), (1,))),
    ("A", 4, "T", 10): (((1,), (2,), (3,), (4,)),
                        ((4,), (3,), (2,), (1,))),
    ("E", 6, 2, 16): (((2,), (3, 4, 2), (1, 3, 4, 2), (1, 3, 6, 5, 4, 2)),
                      ((2,), (5, 4, 2), (6, 5, 4, 2), (4, 3, 6, 5, 4, 2))),
    ("G", 2, "T", None): (((1,), (2,), (1, 2, 1)),
                          ((2,), (1,), (2, 1, 2))),
    ("C", 3, "T", 9): (((1,), (2,), (3,), (1, 2, 3)),
                       ((3,), (2,), (1,), (3, 2, 3))),
    ("D", 4, "T", 8): (((1,), (2,), (3,), (4,), (1, 2, 3)),
                       ((4,), (3,), (2,), (1,), (4, 2, 3))),
    ("F", 4, 1, 15): (((1,), (2, 3, 2, 1)),
                      ((1,), (4, 3, 2, 1))),
    ("A", 5, 2, 8): (((2,), (1, 2)),
                     ((2,), (3, 2))),
    ("A", 8, 4, 20): (((4,), (3, 4), (2, 3, 4), (1, 2, 3, 4)),
                      ((4,), (5, 4), (6, 5, 4), (7, 6, 5, 4))),
    ("B", 4, 3, 12): (((3,), (2, 3), (1, 2, 3)),
                      ((3,), (4, 3), (3, 4, 3))),
    ("A", 3, 2, None): (((2,), (1, 2)),
                        ((2,), (3, 2))),
    ("E", 7, 7, 12): (((7,), (2, 4, 5, 6, 7), (1, 5, 4, 2, 3, 4, 5, 6, 7)),
                      ((7,), (3, 4, 5, 6, 7), (6, 5, 4, 2, 3, 4, 5, 6, 7))),
    ("C", 4, 2, 12): (((2,), (1, 2), (4, 3, 2), (1, 4, 3, 2)),
                      ((2,), (3, 2), (4, 3, 2), (3, 4, 3, 2))),
}


@pytest.mark.parametrize("series,rank,k,bound", list(_PINNED_GENERATORS))
def test_generator_words_pinned(series, rank, k, bound):
    k_set = set(range(1, rank + 1)) if k == "T" else {k}
    table = enumerate_cosets(builtin_cartan(series, rank), k_set)
    gens = find_generators(table, bound)
    assert tuple(e.word for e in gens.entries) == _PINNED_GENERATORS[series, rank, k, bound][0]


@pytest.mark.parametrize("series,rank,bound", [("B", 3, 9), ("A", 4, 10)])
def test_highest_scan_words_are_the_default_generators_on_full_flags(series, rank, bound):
    # on full flags both scans choose every degree-1 class, so the two
    # systems are one GeneratorSet and need no separate output check
    table = enumerate_cosets(builtin_cartan(series, rank), set(range(1, rank + 1)))
    highest = _PINNED_GENERATORS[series, rank, "T", bound][1]
    assert generator_set_from_words(table, highest) == find_generators(table, bound)


def test_truncated_table_refuses_past_its_bound(g94, g94_len8):
    # CosetTable.layer is the one guard; every reader of a layer inherits it
    gens = find_generators(g94_len8, 8)
    refused = [
        lambda: g94_len8.layer(9),
        lambda: g94_len8.entry(9, 1),
        lambda: expansion_matrix(g94_len8, gens, 9),
        lambda: find_generators(g94_len8, 9),
        lambda: schubert_polynomials(g94_len8, gens, 9),
        lambda: partition_to_entry(g94_len8, (3, 3, 3)),
    ]
    for call in refused:
        with pytest.raises(TruncatedTable, match="length 9 beyond max_length=8"):
            call()
    assert g94_len8.layer(-1) == []
    assert g94.layer(21) == []


def test_relations_g42_match_borel(g42):
    gens = find_generators(g42)
    pres = find_relations(g42, gens)
    assert [r.degree for r in pres.relations] == [3, 4]
    # degreewise lattice equality with the formal-inverse ideal
    borel = list(zip((3, 4), borel_inverse_components(2, 4)))
    ours = [(r.degree, dict(r.terms)) for r in pres.relations]
    for m in range(1, 5):
        rows_a = _ideal_rows(ours, gens.degrees, m)
        rows_b = _ideal_rows(borel, gens.degrees, m)
        if rows_a or rows_b:
            assert lattice_equal(rows_a, rows_b, len(monomial_basis(gens.degrees, m)))


def _ideal_rows(generators, degrees, m):
    rows = []
    monos = monomial_basis(degrees, m)
    index = {e: i for i, e in enumerate(monos)}
    for d, poly in generators:
        gap = m - d
        if gap < 0:
            continue
        for mono in monomial_basis(degrees, gap):
            row = [0] * len(monos)
            for exps, coef in (poly.items() if isinstance(poly, dict) else poly):
                key = tuple(x + y for x, y in zip(exps, mono))
                row[index[key]] = coef
            rows.append(row)
    return rows


def _poly_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _borel_ideal(gens, n):
    """[(j, e_j(x)) for j = 2..n] with x_k = y_k - y_{k-1}, y_0 = y_n = 0.

    y_k is the degree-1 generator with word (k,).
    """
    pos = {e.word: i for i, e in enumerate(gens.entries)}

    def y(k):
        if k in (0, n):
            return {}
        return {tuple(int(i == pos[(k,)]) for i in range(len(gens))): 1}

    elementary = [{(0,) * len(gens): 1}]  # e_0..e_k of x_1..x_k
    for k in range(1, n + 1):
        x_k = _poly_add(y(k), y(k - 1), -1)
        elementary = [
            _poly_add(elementary[j] if j < k else {},
                      poly_mul(x_k, elementary[j - 1]) if j else {})
            for j in range(k + 1)]
    return [(j, elementary[j]) for j in range(2, n + 1)]


@pytest.mark.parametrize("rank,bound,degrees", [
    (3, 6, [2, 3, 4]),  # A3/T at full degree
    (4, 6, [2, 3, 4, 5]),  # A4/T through degree 6
    (5, 6, [2, 3, 4, 5, 6]),  # A5/T through degree 6
])
def test_full_flag_relations_match_borel(rank, bound, degrees):
    table = enumerate_cosets(builtin_cartan("A", rank), set(range(1, rank + 1)))
    gens = find_generators(table, bound)
    assert sorted(e.word for e in gens.entries) == [(k,) for k in range(1, rank + 1)]
    pres = find_relations(table, gens, bound)
    assert [r.degree for r in pres.relations] == degrees
    ours = [(r.degree, r.terms) for r in pres.relations]
    borel = _borel_ideal(gens, rank + 1)
    for m in range(1, bound + 1):
        rows_a = _ideal_rows(ours, gens.degrees, m)
        rows_b = _ideal_rows(borel, gens.degrees, m)
        if rows_a or rows_b:
            assert lattice_equal(rows_a, rows_b, len(monomial_basis(gens.degrees, m)))


# SHA-256 of repr() of the relations [(degree, terms), ...] and of the
# Schubert polynomials [(degree, index, terms), ...] in every degree up to
# the bound.  B3/T and A4/T@8 were recorded with the implementation that
# solved for kernel coordinates by an HNF with transform, A4/T@10 (the top
# degree) with the Smith elimination that ran every operation on the whole
# matrix.  Soundness and completeness checks accept any basis of the same
# lattices; this pins the exact outputs.
_PINNED_OUTPUTS = {
    ("B", 3, 9): ("0df2a071196ae8d0f5711a3ee4817a65321b6998d3f7c7cbd96772a287f5c780",
                  "dda30cebb2f8c37bda36cfceda0a939841709f8c51febf45fc8c3ff45fd71dda"),
    ("A", 4, 8): ("2567e146e62c160ec85385a3ab431d888b6427b4f95ff8998421c06398c3c7ed",
                  "ff066e429302ef68291eadfdf201b7ee396dfbbfc2fc841dab420d84130cc60e"),
    ("A", 4, 10): ("2567e146e62c160ec85385a3ab431d888b6427b4f95ff8998421c06398c3c7ed",
                   "127b45bfdabc612a04681ebfc53977cd0118a2456e22e61d11bdabbeb7d338c7"),
}


@pytest.mark.parametrize("series,rank,bound", sorted(_PINNED_OUTPUTS))
def test_presentation_outputs_pinned(series, rank, bound):
    table = enumerate_cosets(builtin_cartan(series, rank), set(range(1, rank + 1)))
    gens = find_generators(table, bound)
    rels = [(r.degree, r.terms) for r in find_relations(table, gens, bound).relations]
    polys = [(sp.degree, sp.index, sp.terms)
             for m in range(bound + 1) for sp in schubert_polynomials(table, gens, m)]
    digests = tuple(hashlib.sha256(repr(x).encode()).hexdigest() for x in (rels, polys))
    assert digests == _PINNED_OUTPUTS[series, rank, bound]


def _relations_and_polynomials(table, gens, bound):
    rels = find_relations(table, gens, bound).relations
    polys = [schubert_polynomials(table, gens, m) for m in range(bound + 1)]
    return rels, polys


_E6P2_WORDS = [[2], [5, 4, 2], [6, 5, 4, 2], [1, 3, 6, 5, 4, 2]]


# "highest": the words of the highest-index scan in _PINNED_GENERATORS.  On
# full flags they give the default GeneratorSet (see the test above), so
# only E6/P2 runs them; the explicit ids keep each case's earlier name
@pytest.mark.parametrize("series,rank,k_set,bound,choice", [
    pytest.param("B", 3, {1, 2, 3}, 9, "lowest", id="B-3-k_set0-9-lowest"),
    pytest.param("A", 4, {1, 2, 3, 4}, 8, "lowest", id="A-4-k_set2-8-lowest"),
    pytest.param("E", 6, {2}, 12, "lowest", id="E-6-k_set4-12-lowest"),
    pytest.param("E", 6, {2}, 12, _PINNED_GENERATORS["E", 6, 2, 16][1],
                 id="E-6-k_set5-12-highest"),
    pytest.param("E", 6, {2}, 12, _E6P2_WORDS, id="E-6-k_set6-12-choice6"),
])
def test_degree_records_do_not_show_in_outputs(series, rank, k_set, bound, choice):
    """The per-degree records that the three steps share change no output.

    A table warmed by find_generators gives what a fresh one gives; a second
    call gives the same again, so no reader has mutated a shared record;
    clear_caches() drops the records and a rebuild gives the same once more.
    """
    cartan = builtin_cartan(series, rank)
    warm = enumerate_cosets(cartan, k_set)
    if choice == "lowest":
        gens = find_generators(warm, bound)
    else:
        find_generators(warm, bound)
        gens = generator_set_from_words(warm, choice)
    first = _relations_and_polynomials(warm, gens, bound)
    assert first == _relations_and_polynomials(enumerate_cosets(cartan, k_set), gens, bound)
    assert _relations_and_polynomials(warm, gens, bound) == first
    if choice == "lowest":
        assert find_generators(warm, bound) == gens
    assert warm._degrees
    warm.clear_caches()
    assert warm._degrees == {}
    assert _relations_and_polynomials(warm, gens, bound) == first


def test_presentation_repr_is_a_value():
    """A presentation's repr shows its generators' entries, so two equal
    tables built apart give the same text."""
    texts = []
    for _ in range(2):
        table = enumerate_cosets(builtin_cartan("A", 4), {1, 2, 3, 4})
        texts.append(repr(find_relations(table, find_generators(table, 3), 3)))
    assert texts[0] == texts[1]
    assert "GeneratorSet((CosetEntry(m=1, i=1, word=(1,))" in texts[0]
    assert " at 0x" not in texts[0]


def test_memo_sizes_pinned():
    """Memo entry counts after a fixed query sequence on A3/T.

    find_generators leaves one record per generator prefix and degree: four
    for degree 1 (in none, one, two and all three of its generators) and one
    for each of degrees 2-4 in all three; find_relations through degree 4
    reads those in all three and adds none, schubert_polynomials at degree 5
    one more.
    """
    table = enumerate_cosets(builtin_cartan("A", 3), {1, 2, 3})
    sizes = ("target_words", "mask_entries", "monomial_vectors", "degree_records")
    assert table.memo_sizes() == dict.fromkeys(sizes, 0)
    gens = find_generators(table, 4)
    assert table.memo_sizes() == dict(zip(sizes, (19, 119, 50, 7)))
    find_relations(table, gens, 4)
    assert table.memo_sizes() == dict(zip(sizes, (19, 119, 50, 7)))
    schubert_polynomials(table, gens, 5)
    assert table.memo_sizes() == dict(zip(sizes, (22, 143, 78, 8)))
    table.clear_caches()
    assert table.memo_sizes() == dict.fromkeys(sizes, 0)


@pytest.mark.parametrize("series,rank,k_set,bound", [
    ("E", 6, {2}, 9), ("B", 3, {1, 2, 3}, 7), ("A", 4, {1, 2, 3, 4}, 6),
])
def test_later_steps_read_the_generator_search_records(series, rank, k_set, bound):
    """Each degree record is keyed on the generators up to its degree, so the
    search leaves every record that find_relations and schubert_polynomials
    read up to its bound: neither builds or reduces a degree again."""
    table = enumerate_cosets(builtin_cartan(series, rank), k_set)
    gens = find_generators(table, bound)
    records = table.memo_sizes()["degree_records"]
    find_relations(table, gens, bound)
    for m in range(1, bound + 1):
        schubert_polynomials(table, gens, m)
    assert table.memo_sizes()["degree_records"] == records


@pytest.mark.parametrize("series,rank,k_set", [
    ("A", 3, {2}), ("G", 2, {1, 2}), ("B", 3, {1, 2, 3}),
])
def test_relations_stable_above_the_top(series, rank, k_set):
    """Bounds past the top degree add no relation and are reported as asked.

    Above top + (largest generator degree) ``find_relations`` skips the
    degrees, since every monomial there is already in the ideal; below it,
    it still runs them.
    """
    table = enumerate_cosets(builtin_cartan(series, rank), k_set)
    top = table.top_length
    gens = find_generators(table, top)
    expected = find_relations(table, gens, top).relations
    for bound in range(top, top + 7):
        assert find_generators(table, bound) == gens
        pres = find_relations(table, gens, bound)
        assert pres.bound == bound
        assert pres.relations == expected
        assert schubert_polynomials(table, gens, bound + 1) == []


def test_relations_empty_below_first_kernel(cp3):
    gens = find_generators(cp3)
    pres = find_relations(cp3, gens, 3)
    assert pres.relations == ()
    # one degree beyond the top, the defining relation appears
    pres4 = find_relations(cp3, gens, 4)
    assert [(r.degree, r.terms) for r in pres4.relations] == [(4, (((4,), 1),))]


def test_relations_need_surjective_generators(g42):
    only_c1 = GeneratorSet((g42.entry(1, 1),))
    with pytest.raises(NonSurjective):
        find_relations(g42, only_c1, 4)


def test_relations_refuse_a_degree_without_monomials(g42, e6p2):
    # generators of degrees 3, 4 and 6 have no monomial in degrees 1 and 2,
    # where E6/P2 has Schubert classes: not a presentation
    no_y1 = generator_set_from_words(e6p2, [[5, 4, 2], [6, 5, 4, 2], [1, 3, 6, 5, 4, 2]])
    with pytest.raises(NonSurjective):
        find_relations(e6p2, no_y1, 2)
    with pytest.raises(NonSurjective):
        find_relations(g42, GeneratorSet(()), 4)
    # no degree to check: nothing to refuse
    assert find_relations(g42, GeneratorSet(()), 0).relations == ()


def test_expansion_matrix_width_without_monomials(g42):
    # beta is the number of Schubert classes of the degree, rows or not
    none = GeneratorSet(())
    matrix = expansion_matrix(g42, none, 1)
    assert (matrix.rows, matrix.b, matrix.beta) == ((), 0, 1)
    assert expansion_matrix(g42, none, 2).beta == 2
    # above the top the layer is empty
    assert expansion_matrix(g42, none, 5).beta == 0


def test_generator_of_degree_zero_is_refused(g42):
    # the unit class used to be accepted, and find_relations, schubert_polynomials
    # and expansion_matrix then divided by its degree in monomial_basis
    for words in ([[]], [[2], []]):
        with pytest.raises(OutOfRange, match=r"w_\{0,1\} is the unit class"):
            generator_set_from_words(g42, words)
    with pytest.raises(OutOfRange):
        GeneratorSet((g42.entry(1, 1), g42.entry(0, 1)))


def test_schubert_polynomials_degree_one(g42):
    gens = find_generators(g42)
    polys = schubert_polynomials(g42, gens, 1)
    assert len(polys) == 1
    assert polys[0].terms == (((1, 0), 1),)


def test_schubert_polynomials_g42_m2(g42):
    gens = find_generators(g42)
    polys = schubert_polynomials(g42, gens, 2)
    as_dicts = [dict(sp.terms) for sp in polys]
    # images are s_{2,1} = s_(1,1) and s_{2,2} = s_(2)
    assert as_dicts[0] == {(0, 1): 1}
    assert as_dicts[1] == {(2, 0): 1, (0, 1): -1}


def test_schubert_polynomials_all_degrees_verify(g42):
    gens = find_generators(g42)
    for m in range(1, g42.top_length + 1):
        matrix = expansion_matrix(g42, gens, m)
        index = {e: i for i, e in enumerate(matrix.monomials)}
        for sp in schubert_polynomials(g42, gens, m):
            image = [0] * matrix.beta
            for exps, coef in sp.terms:
                row = matrix.rows[index[exps]]
                image = [a + coef * b for a, b in zip(image, row)]
            assert image == [1 if col == sp.index - 1 else 0 for col in range(matrix.beta)]


def test_schubert_polynomials_nonsurjective(g42):
    only_c1 = GeneratorSet((g42.entry(1, 1),))
    with pytest.raises(NonSurjective):
        schubert_polynomials(g42, only_c1, 2)


def test_schubert_polynomials_refuse_a_degree_without_monomials(g42, e6p2):
    with pytest.raises(NonSurjective):
        schubert_polynomials(g42, GeneratorSet(()), 1)
    no_y1 = generator_set_from_words(e6p2, [[5, 4, 2], [6, 5, 4, 2], [1, 3, 6, 5, 4, 2]])
    with pytest.raises(NonSurjective):
        schubert_polynomials(e6p2, no_y1, 2)
    # the empty layers above the top need no polynomial
    assert schubert_polynomials(g42, GeneratorSet(()), 5) == []


def test_negative_degree_refused(g42):
    gens = find_generators(g42)
    with pytest.raises(OutOfRange):
        find_generators(g42, -1)
    with pytest.raises(OutOfRange):
        find_relations(g42, gens, -3)
    with pytest.raises(OutOfRange):
        expansion_matrix(g42, gens, -2)
    with pytest.raises(OutOfRange):
        schubert_polynomials(g42, gens, -2)
    assert find_generators(g42, 0).entries == ()
    assert find_relations(g42, gens, 0).relations == ()
    assert expansion_matrix(g42, gens, 0).rows == ((1,),)


def test_generator_set_from_words(e6p2):
    gens = generator_set_from_words(
        e6p2, [[2], [5, 4, 2], [6, 5, 4, 2], [1, 3, 6, 5, 4, 2]])
    assert gens.degrees == (1, 3, 4, 6)
    assert gens.names() == ("y1", "y2", "y3", "y4")


def test_poly_mul_basic():
    a = {(1, 0): 1, (0, 1): 1}
    assert poly_mul(a, a) == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert poly_mul(a, {}) == {}
