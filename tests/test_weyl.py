import random
import re

import pytest

from flagcalc import builtin_cartan, element_of_word, enumerate_cosets, simple_reflection, top_element
from flagcalc import cartan
from flagcalc.cartan import from_json
from flagcalc.characteristics import structure_matrix
from flagcalc.errors import (EmptyK, IndexOutOfRange, NotFound, NotTypeA, OutOfRange,
                             ResourceLimit, TruncatedTable)
from flagcalc.weyl import (CosetEntry, _apply_gen_vec, grassmannian_shape, identity_matrix,
                           mat_mul, mat_vec)

from conftest import load_data
from test_intlinalg import int_det

SMALL_GROUPS = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
    ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 3), ("D", 4),
    ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2),
]


def test_simple_reflection_g2():
    g2 = builtin_cartan("G", 2)
    s1 = simple_reflection(g2, 1)
    # w_1 -> -w_1 + w_2, w_2 fixed
    assert mat_vec(s1, (1, 0)) == (-1, 1)
    assert mat_vec(s1, (0, 1)) == (0, 1)


def test_simple_reflection_a2_action():
    a2 = builtin_cartan("A", 2)
    s1 = simple_reflection(a2, 1)
    assert mat_vec(s1, (1, 1)) == (-1, 2)


@pytest.mark.parametrize("series,rank", SMALL_GROUPS)
def test_involution_and_determinant(series, rank):
    cm = builtin_cartan(series, rank)
    ident = identity_matrix(rank)
    for i in range(1, rank + 1):
        s = simple_reflection(cm, i)
        assert mat_mul(s, s) == ident
        assert int_det(s) in (1, -1)


@pytest.mark.parametrize("letter", [0, 3])
@pytest.mark.parametrize("call", [
    lambda a2, g: simple_reflection(a2, g),
    lambda a2, g: element_of_word(a2, (1, g)),
    lambda a2, g: enumerate_cosets(a2, {1}).lookup_word((1, g)),
    lambda a2, g: structure_matrix(a2, (1, g)),
], ids=["simple_reflection", "element_of_word", "lookup_word", "structure_matrix"])
def test_reflection_index_range(call, letter):
    # one check of a word's letters serves every reader of a word
    with pytest.raises(IndexOutOfRange, match=rf"letter {letter} outside 1\.\.2$"):
        call(builtin_cartan("A", 2), letter)


def test_element_of_word_basics():
    g2 = builtin_cartan("G", 2)
    assert element_of_word(g2, ()) == identity_matrix(2)
    assert element_of_word(g2, (1, 1)) == identity_matrix(2)
    assert element_of_word(g2, (1, 2, 1, 2, 1, 2)) == element_of_word(g2, (2, 1, 2, 1, 2, 1))
    with pytest.raises(IndexOutOfRange):
        element_of_word(g2, (3,))


def _brute_group_order(cm):
    """Independent order check: close the generator set under multiplication."""
    gens = [simple_reflection(cm, i) for i in range(1, cm.rank + 1)]
    seen = {identity_matrix(cm.rank)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = mat_mul(m, g)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return len(seen)


@pytest.mark.parametrize("series,rank,order", [
    ("A", 2, 6), ("A", 3, 24), ("B", 2, 8), ("C", 2, 8), ("D", 3, 24),
])
def test_full_coset_counts_match_brute_force(series, rank, order):
    cm = builtin_cartan(series, rank)
    assert _brute_group_order(cm) == order
    table = enumerate_cosets(cm, set(range(1, rank + 1)))
    assert table.size == order


def test_exceptional_counts():
    assert enumerate_cosets(builtin_cartan("G", 2), {1, 2}).size == 12
    assert enumerate_cosets(builtin_cartan("F", 4), {1, 2, 3, 4}).size == 1152


def test_a1_cosets():
    table = enumerate_cosets(builtin_cartan("A", 1), {1})
    assert table.size == 2
    assert [e.word for e in table.entries()] == [(), (1,)]
    assert top_element(table) == ((1,), 1)


def test_g94_against_golden(g94, g94_len8):
    golden = load_data("g94_coset_words.json")
    assert g94.size == 126
    assert list(g94.betti[1:9]) == golden["betti"]
    for table in (g94, g94_len8):
        for m, i, word in golden["entries"]:
            assert list(table.entry(m, i).word) == word
    # order within each layer is exactly the golden order
    for m in range(1, 9):
        expected = [w for mm, _, w in golden["entries"] if mm == m]
        assert [list(e.word) for e in g94_len8.layer(m)] == expected


def test_top_element(g94, e6p2):
    word, length = top_element(g94)
    assert length == 20 and len(word) == 20
    assert top_element(e6p2)[1] == 21


def test_top_element_requires_complete(g94_len8):
    with pytest.raises(TruncatedTable):
        top_element(g94_len8)


def test_lookup(g94):
    assert g94.entry(2, 1).word == (3, 4)
    entry = g94.lookup_word((4, 3, 5, 4))
    assert (entry.m, entry.i) == (4, 4)
    assert g94.entry(0, 1).word == ()
    # non-minimal words reduce to their representative
    assert g94.lookup_word((4, 4, 4)).word == (4,)
    with pytest.raises(NotFound):
        g94.entry(2, 9)


def test_lookup_outside_truncation(g94, g94_len8):
    deep = g94.entry(9, 1).word
    assert g94.lookup_word(deep).m == 9
    with pytest.raises(NotFound):
        g94_len8.lookup_word(deep)


def test_prefix_minimality_small_groups():
    # with K = all nodes, cosets are single elements and stored words are the
    # lexicographically minimal reduced words of the group elements
    for series, rank in [("A", 3), ("B", 2), ("G", 2)]:
        cm = builtin_cartan(series, rank)
        table = enumerate_cosets(cm, set(range(1, rank + 1)))
        minword = {}
        for e in table.entries():
            minword[element_of_word(cm, e.word)] = e.word
        for e in table.entries():
            for cut in range(e.m + 1):
                prefix = e.word[:cut]
                assert minword[element_of_word(cm, prefix)] == prefix


def test_betti_symmetry(g94, g42, g52, g63, b2t, g2t, e6p2, cp3):
    for table in (g94, g42, g52, g63, b2t, g2t, cp3, e6p2):
        betti = table.betti
        assert betti == tuple(reversed(betti))
        assert len(table.layer(table.top_length)) == 1


def test_coset_totals_are_index_counts(g42, g52, g63, e6p2, cp3):
    # binomial coefficients for Grassmannians, |W(G)|/|W(P)| in general
    assert g42.size == 6
    assert g52.size == 10
    assert g63.size == 20
    assert cp3.size == 4
    assert e6p2.size == 51840 // 720


def test_matrix_reconstruction(g42, g2t):
    # every stored word reduces back to its own entry, and so does its vector
    for table in (g42, g2t):
        for e in table.entries():
            assert table.lookup_word(e.word) is e
            assert table._by_vector[e.vector] is e


def test_parent_is_the_entry_of_the_word_without_its_first_letter(g42, g2t, e6p2):
    for table in (g42, g2t, e6p2):
        root = table.entry(0, 1)
        assert root.parent is None
        for e in table.entries():
            if e is not root:
                assert e.parent.word == e.word[1:]
                assert e.parent is table.lookup_word(e.word[1:])


def test_enumerate_errors():
    a3 = builtin_cartan("A", 3)
    with pytest.raises(EmptyK):
        enumerate_cosets(a3, set())
    with pytest.raises(IndexOutOfRange):
        enumerate_cosets(a3, {7})
    with pytest.raises(ResourceLimit):
        enumerate_cosets(a3, {1, 2, 3}, limit=5)
    with pytest.raises(OutOfRange):
        enumerate_cosets(a3, {2}, max_length=-3)
    with pytest.raises(OutOfRange, match="limit"):
        enumerate_cosets(a3, {2}, limit=-1)


def test_unreached_bound_is_complete():
    a3 = builtin_cartan("A", 3)
    table = enumerate_cosets(a3, {1}, max_length=10)
    assert table.complete
    assert table.top_length == 3


@pytest.mark.parametrize("series,rank,k_set,top", [("A", 3, {1}, 3), ("A", 8, {4}, 20)])
def test_bound_at_the_top_is_complete(series, rank, k_set, top):
    # the last layer has no ascent, so no layer was cut off
    table = enumerate_cosets(builtin_cartan(series, rank), k_set, max_length=top)
    assert table.complete
    assert table.top_length == top
    assert top_element(table)[1] == top


# ---------------------------------------------------------------------------
# The ascent-only enumeration against a plain breadth-first search.
# ---------------------------------------------------------------------------


def _reference_cosets(cm, k_set, max_length=None, limit=10_000_000):
    """Breadth-first orbit of v_K keeping the least word over all arrivals.

    Returns the layers as (m, i, word) lists, the map vector -> (m, i) and
    the truncation bound, with the ``enumerate_cosets`` refusal rules.
    """
    n = cm.rank
    v0 = tuple(1 if j + 1 in k_set else 0 for j in range(n))
    seen, layers = {}, []
    frontier = {v0: ()}
    total = depth = 0
    while frontier:
        ordered = sorted(frontier.items(), key=lambda kv: kv[1])
        layers.append([(depth, idx, word) for idx, (_, word) in enumerate(ordered, 1)])
        for idx, (vec, _) in enumerate(ordered, 1):
            seen[vec] = (depth, idx)
        total += len(ordered)
        if total > limit:
            raise ResourceLimit(f"coset count exceeded limit={limit}")
        nxt = {}
        for vec, word in frontier.items():
            for g in range(1, n + 1):
                child = _apply_gen_vec(cm, g, vec)
                if child in seen or child == vec:
                    continue
                cand = (g,) + word
                if child not in nxt or cand < nxt[child]:
                    nxt[child] = cand
        frontier = nxt
        if max_length is not None and depth >= max_length:
            break
        depth += 1
    truncated = max_length if (max_length is not None and frontier) else None
    return layers, seen, truncated


def _assert_same_table(cm, k_set, max_length=None, words=200):
    table = enumerate_cosets(cm, k_set, max_length)
    layers, seen, truncated = _reference_cosets(cm, k_set, max_length)
    assert [[(e.m, e.i, e.word) for e in layer] for layer in table.layers] == layers
    assert table.max_length == truncated
    rng = random.Random(f"{cm.label}{sorted(k_set)}{max_length}")
    samples = [w for layer in layers for _, _, w in layer]
    samples += [tuple(rng.randint(1, cm.rank) for _ in range(rng.randint(0, 12)))
                for _ in range(words)]
    v0 = tuple(1 if j + 1 in k_set else 0 for j in range(cm.rank))
    for word in samples:
        v = v0
        for g in reversed(word):
            v = _apply_gen_vec(cm, g, v)
        if v in seen:
            entry = table.lookup_word(word)
            assert (entry.m, entry.i) == seen[v]
            assert entry is table.entry(*seen[v])
        else:
            with pytest.raises(NotFound):
                table.lookup_word(word)


def _small_series():
    for series, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for rank in range(low, 6):
            yield series, rank


@pytest.mark.parametrize("series,rank", list(_small_series()))
def test_enumeration_matches_reference_small_series(series, rank):
    cm = builtin_cartan(series, rank)
    nodes = range(1, rank + 1)
    for k_set in [set(nodes), {1, rank}, *({j} for j in nodes)]:
        _assert_same_table(cm, k_set)


@pytest.mark.parametrize("series,rank,k_set", [
    ("F", 4, {1, 2, 3, 4}), ("G", 2, {1, 2}), ("E", 6, {2}),
    ("D", 6, {1, 2, 3, 4, 5, 6}),
])
def test_enumeration_matches_reference_larger(series, rank, k_set):
    _assert_same_table(builtin_cartan(series, rank), k_set, words=50)


@pytest.mark.parametrize("series,rank,k_set", [
    ("A", 8, {4}), ("F", 4, {1, 2, 3, 4}), ("E", 6, {2}), ("B", 3, {1}),
])
def test_truncated_enumeration_matches_reference(series, rank, k_set):
    cm = builtin_cartan(series, rank)
    top = enumerate_cosets(cm, k_set).top_length
    for max_length in (0, 1, 3, top - 1, top, top + 1):
        _assert_same_table(cm, k_set, max_length, words=50)


def test_limit_refusals_match_reference():
    # every limit up to the full count, with and without a length bound
    for series, rank, k_set in [("A", 3, {1, 2, 3}), ("B", 3, {2}), ("G", 2, {1, 2})]:
        cm = builtin_cartan(series, rank)
        size = enumerate_cosets(cm, k_set).size
        for max_length in (None, 2):
            for limit in range(size + 2):
                try:
                    expected = _reference_cosets(cm, k_set, max_length, limit)[0]
                except ResourceLimit as exc:
                    with pytest.raises(ResourceLimit, match=re.escape(str(exc))):
                        enumerate_cosets(cm, k_set, max_length, limit=limit)
                    continue
                table = enumerate_cosets(cm, k_set, max_length, limit=limit)
                assert [[(e.m, e.i, e.word) for e in layer]
                        for layer in table.layers] == expected


def test_coset_entry_compares_and_hashes_on_index_and_word_not_vector():
    entry = enumerate_cosets(builtin_cartan("A", 3), {2}).entry(2, 1)
    moved = CosetEntry(entry.m, entry.i, entry.word, (7, 7, 7))
    assert moved == entry and not moved != entry
    assert hash(moved) == hash(entry) and {entry: 1}[moved] == 1
    for parent in (None, entry):
        other = CosetEntry(entry.m, entry.i, entry.word, entry.vector, parent)
        assert other.parent is not entry.parent
        assert other == entry and hash(other) == hash(entry) and {entry: 1}[other] == 1
    assert CosetEntry(entry.m, entry.i, entry.word[::-1], entry.vector) != entry
    assert CosetEntry(entry.m, entry.i + 1, entry.word, entry.vector) != entry


def test_coset_entry_repr():
    table = enumerate_cosets(builtin_cartan("A", 3), {2})
    assert repr(table.entry(0, 1)) == "CosetEntry(m=0, i=1, word=())"
    assert repr(table.entry(2, 1)) == "CosetEntry(m=2, i=1, word=(1, 2))"


_BUILTIN_UP_TO_RANK_8 = [
    (series, rank) for series, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
    for rank in range(low, 9)] + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
_UNLABELLED = {
    "A1xA1": [[2, 0], [0, 2]],
    "A3-renumbered": [[2, 0, -1], [0, 2, -1], [-1, -1, 2]],
    "A5": [[2 if i == j else -(abs(i - j) == 1) for j in range(5)] for i in range(5)],
}


@pytest.mark.parametrize("cm", [builtin_cartan(*g) for g in _BUILTIN_UP_TO_RANK_8]
                         + [from_json({"entries": e}) for e in _UNLABELLED.values()],
                         ids=[f"{s}{r}" for s, r in _BUILTIN_UP_TO_RANK_8] + list(_UNLABELLED))
def test_type_a_check_is_equality_with_the_builtin_matrix(cm):
    # the check reads the rows of the path graph; it used to compare the
    # whole matrix with builtin_cartan("A", n), and its verdicts must agree
    table = enumerate_cosets(cm, {1}, max_length=0)
    if cm.entries == builtin_cartan("A", cm.rank).entries:
        assert grassmannian_shape(table) == (1, cm.rank)
    else:
        with pytest.raises(NotTypeA, match="not built from a type-A Cartan matrix"):
            grassmannian_shape(table)


def test_type_a_check_builds_no_matrix(g94, monkeypatch):
    # it used to build and validate A_n on every call, about 250 ms on A1100
    def refuse(entries):
        raise AssertionError("grassmannian_shape validated a matrix")
    monkeypatch.setattr(cartan, "validate", refuse)
    assert grassmannian_shape(g94) == (4, 5)
