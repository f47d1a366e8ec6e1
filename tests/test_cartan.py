import pytest

from flagcalc import builtin_cartan, validate
from flagcalc.cartan import from_json, parse_group_label
from flagcalc.errors import InvalidSeriesRank, NotCartan


def test_g2_matrix():
    assert builtin_cartan("G", 2).entries == ((2, -1), (-3, 2))


def test_f4_matrix():
    assert builtin_cartan("F", 4).entries == (
        (2, -1, 0, 0),
        (-1, 2, -2, 0),
        (0, -1, 2, -1),
        (0, 0, -1, 2),
    )


def test_e6_matrix():
    e6 = builtin_cartan("E", 6)
    assert e6.entries == (
        (2, 0, -1, 0, 0, 0),
        (0, 2, 0, -1, 0, 0),
        (-1, 0, 2, -1, 0, 0),
        (0, -1, -1, 2, -1, 0),
        (0, 0, 0, -1, 2, -1),
        (0, 0, 0, 0, -1, 2),
    )


def test_e7_e8_shapes():
    e7 = builtin_cartan("E", 7)
    e8 = builtin_cartan("E", 8)
    assert e7.rank == 7 and e8.rank == 8
    # node 2 hangs off node 4; the long chain is 1-3-4-5-6(-7-8)
    for cm in (e7, e8):
        assert cm.c(2, 4) == cm.c(4, 2) == -1
        assert cm.c(2, 3) == 0
        assert cm.c(1, 3) == -1
        for i in range(4, cm.rank):
            assert cm.c(i, i + 1) == -1


def test_rank_one():
    assert builtin_cartan("A", 1).entries == ((2,),)


def test_classical_asymmetry():
    b3 = builtin_cartan("B", 3)
    c3 = builtin_cartan("C", 3)
    assert b3.c(2, 3) == -2 and b3.c(3, 2) == -1
    assert c3.c(2, 3) == -1 and c3.c(3, 2) == -2
    d4 = builtin_cartan("D", 4)
    assert d4.c(3, 4) == 0 and d4.c(2, 4) == -1 and d4.c(2, 3) == -1


@pytest.mark.parametrize("series,rank", [
    ("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9),
    ("F", 3), ("F", 5), ("G", 1), ("G", 3),
])
def test_invalid_pairs(series, rank):
    with pytest.raises(InvalidSeriesRank):
        builtin_cartan(series, rank)


def test_unknown_series():
    with pytest.raises(InvalidSeriesRank):
        builtin_cartan("H", 3)


def test_validate_accepts_g2():
    assert validate([[2, -1], [-3, 2]]).entries == ((2, -1), (-3, 2))


def test_validate_accepts_semisimple():
    assert validate([[2, 0], [0, 2]]).rank == 2


@pytest.mark.parametrize("entries,fragment", [
    ([[2, 1], [1, 2]], "off-diagonal"),
    ([[1, 0], [0, 2]], "diagonal"),
    ([[2, -1], [0, 2]], "asymmetric"),
    ([[2, -2], [-2, 2]], "not in"),
    ([[2, 0, 0], [0, 2, 0]], "square"),
    ([[2.0, 0], [0, 2]], "integers"),
    ([], "empty"),
    (5, "list of rows"),
    ([5], "list of rows"),
])
def test_validate_rejects(entries, fragment):
    with pytest.raises(NotCartan, match=fragment):
        validate(entries)


def test_all_builtins_validate():
    pairs = [("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 6)]
    pairs += [("C", r) for r in range(2, 6)] + [("D", r) for r in range(3, 7)]
    pairs += [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
    for series, rank in pairs:
        cm = builtin_cartan(series, rank)
        assert validate(cm.entries).entries == cm.entries


def test_parse_group_label():
    assert parse_group_label("A8").label == "A8"
    assert parse_group_label("e6").rank == 6
    with pytest.raises(InvalidSeriesRank):
        parse_group_label("X2")
    with pytest.raises(InvalidSeriesRank):
        parse_group_label("A")


def test_json_round_trip():
    cm = builtin_cartan("F", 4)
    assert from_json(cm.to_json()).entries == cm.entries
    with pytest.raises(NotCartan):
        from_json({"rank": 3, "entries": [[2, 0], [0, 2]]})
    with pytest.raises(NotCartan):
        from_json({"rank": 2})
