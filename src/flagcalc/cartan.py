"""Cartan matrices: the builtin catalogue and validation of user input.

A Cartan matrix is the single numeric input every other module consumes.  The
builtin catalogue covers the classical series A, B, C, D and the exceptional
groups E6, E7, E8, F4, G2, all in Bourbaki node numbering with the convention
c[i][j] = 2(a_i, a_j) / (a_j, a_j) for simple roots a_1..a_n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import InvalidSeriesRank, NotCartan

Matrix = tuple[tuple[int, ...], ...]

SERIES = "ABCDEFG"

_EXCEPTIONAL: dict[str, tuple[tuple[int, ...], ...]] = {
    "G2": (
        (2, -1),
        (-3, 2),
    ),
    "F4": (
        (2, -1, 0, 0),
        (-1, 2, -2, 0),
        (0, -1, 2, -1),
        (0, 0, -1, 2),
    ),
    "E6": (
        (2, 0, -1, 0, 0, 0),
        (0, 2, 0, -1, 0, 0),
        (-1, 0, 2, -1, 0, 0),
        (0, -1, -1, 2, -1, 0),
        (0, 0, 0, -1, 2, -1),
        (0, 0, 0, 0, -1, 2),
    ),
    "E7": (
        (2, 0, -1, 0, 0, 0, 0),
        (0, 2, 0, -1, 0, 0, 0),
        (-1, 0, 2, -1, 0, 0, 0),
        (0, -1, -1, 2, -1, 0, 0),
        (0, 0, 0, -1, 2, -1, 0),
        (0, 0, 0, 0, -1, 2, -1),
        (0, 0, 0, 0, 0, -1, 2),
    ),
    "E8": (
        (2, 0, -1, 0, 0, 0, 0, 0),
        (0, 2, 0, -1, 0, 0, 0, 0),
        (-1, 0, 2, -1, 0, 0, 0, 0),
        (0, -1, -1, 2, -1, 0, 0, 0),
        (0, 0, 0, -1, 2, -1, 0, 0),
        (0, 0, 0, 0, -1, 2, -1, 0),
        (0, 0, 0, 0, 0, -1, 2, -1),
        (0, 0, 0, 0, 0, 0, -1, 2),
    ),
}


@dataclass(frozen=True)
class CartanMatrix:
    """Validated integer Cartan matrix.

    ``entries`` is a tuple of row tuples; ``label`` keeps the builtin name
    (e.g. "A8") when known and never participates in equality.
    """

    entries: Matrix
    label: str | None = field(default=None, compare=False)

    @property
    def rank(self) -> int:
        return len(self.entries)

    def c(self, i: int, j: int) -> int:
        """Entry c_{i,j} with 1-based node indices."""
        return self.entries[i - 1][j - 1]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i - 1]

    @cached_property
    def nonzero_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per row, the (0-based column, entry) pairs with a nonzero entry."""
        return tuple(tuple((j, c) for j, c in enumerate(r) if c) for r in self.entries)

    def to_json(self) -> dict:
        return {"rank": self.rank, "entries": [list(r) for r in self.entries]}


def validate(entries) -> CartanMatrix:
    """Check the Cartan matrix invariants, returning the validated value.

    Raises NotCartan naming the first violated invariant.  Reducible
    (block-diagonal) matrices are accepted.
    """
    try:
        rows = tuple(tuple(r) for r in entries)
    except TypeError:
        raise NotCartan("entries must be a list of rows") from None
    n = len(rows)
    if n == 0:
        raise NotCartan("matrix is empty")
    for r in rows:
        if len(r) != n:
            raise NotCartan("matrix is not square")
        for x in r:
            if not isinstance(x, int) or isinstance(x, bool):
                raise NotCartan("entries must be integers")
    for i in range(n):
        if rows[i][i] != 2:
            raise NotCartan(f"diagonal entry c[{i + 1}][{i + 1}] = {rows[i][i]} != 2")
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if rows[i][j] > 0:
                raise NotCartan(f"off-diagonal entry c[{i + 1}][{j + 1}] = {rows[i][j]} > 0")
    for i in range(n):
        for j in range(i + 1, n):
            if (rows[i][j] == 0) != (rows[j][i] == 0):
                raise NotCartan(f"zero pattern asymmetric at ({i + 1},{j + 1})")
            if rows[i][j] * rows[j][i] not in (0, 1, 2, 3):
                raise NotCartan(
                    f"c[{i + 1}][{j + 1}]*c[{j + 1}][{i + 1}] = "
                    f"{rows[i][j] * rows[j][i]} not in {{0,1,2,3}}"
                )
    return CartanMatrix(rows)


def _chain(n: int) -> list[list[int]]:
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        m[i][i + 1] = -1
        m[i + 1][i] = -1
    return m


def builtin_cartan(series: str, rank: int) -> CartanMatrix:
    """Cartan matrix for a classical or exceptional series, Bourbaki numbered."""
    s = series.upper()
    if s not in SERIES:
        raise InvalidSeriesRank(f"unknown series {series!r}")
    label = f"{s}{rank}"
    if s == "A":
        if rank < 1:
            raise InvalidSeriesRank("A requires rank >= 1")
        m = _chain(rank)
    elif s == "B":
        if rank < 2:
            raise InvalidSeriesRank("B requires rank >= 2")
        m = _chain(rank)
        m[rank - 2][rank - 1] = -2
    elif s == "C":
        if rank < 2:
            raise InvalidSeriesRank("C requires rank >= 2")
        m = _chain(rank)
        m[rank - 1][rank - 2] = -2
    elif s == "D":
        if rank < 3:
            raise InvalidSeriesRank("D requires rank >= 3")
        m = _chain(rank)
        m[rank - 2][rank - 1] = 0
        m[rank - 1][rank - 2] = 0
        m[rank - 3][rank - 1] = -1
        m[rank - 1][rank - 3] = -1
    else:
        if label not in _EXCEPTIONAL:
            raise InvalidSeriesRank(f"no builtin matrix for {label}")
        m = [list(r) for r in _EXCEPTIONAL[label]]
    validated = validate(m)
    return CartanMatrix(validated.entries, label=label)


def parse_group_label(label: str) -> CartanMatrix:
    """Parse a compact name like "A8" or "E6" into its builtin matrix."""
    label = label.strip()
    if len(label) < 2 or label[0].upper() not in SERIES or not label[1:].isdigit():
        raise InvalidSeriesRank(f"cannot parse group label {label!r}")
    return builtin_cartan(label[0], int(label[1:]))


def from_json(obj: dict) -> CartanMatrix:
    """Read the {"rank": n, "entries": [[...]]} representation."""
    if not isinstance(obj, dict):
        raise NotCartan("top level must be an object")
    if "entries" not in obj:
        raise NotCartan("missing 'entries' field")
    cm = validate(obj["entries"])
    if "rank" in obj and obj["rank"] != cm.rank:
        raise NotCartan(f"declared rank {obj['rank']} != matrix size {cm.rank}")
    return cm
