"""Numerical Weyl groups and minimal coset representative tables.

The group is realized by integer matrices acting on the fundamental-weight
basis w_1..w_n: the simple reflection s_i fixes every w_k with k != i and
sends w_i to w_i minus row i of the Cartan matrix read in the weight basis.
Left cosets of a parabolic subgroup W(P_K) are enumerated as the orbit of the
vector v_K = sum of w_j over j in K, whose stabilizer is exactly W(P_K); the
breadth-first depth of an orbit point equals the length of the minimal coset
representative, and tracking the lexicographically least word per new point
yields the minimized reduced words.

All arithmetic is exact (Python integers); matrices are tuples of row tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import CartanMatrix
from .errors import (EmptyK, IndexOutOfRange, NotFound, OutOfRange, ResourceLimit,
                     TruncatedTable)

Matrix = tuple[tuple[int, ...], ...]

DEFAULT_COSET_LIMIT = 10_000_000


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(ar[k] * bc[k] for k in range(n)) for bc in bt) for ar in a
    )


def mat_vec(a: Matrix, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(r[k] * v[k] for k in range(len(v))) for r in a)


def simple_reflection(cartan: CartanMatrix, i: int) -> Matrix:
    """Matrix of s_i on the weight basis: w_i -> w_i - sum_j c[i][j] w_j."""
    n = cartan.rank
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"reflection index {i} outside 1..{n}")
    row = cartan.row(i)
    mat = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for r in range(n):
        mat[r][i - 1] -= row[r]
    return tuple(tuple(r) for r in mat)


def _apply_gen_vec(cartan: CartanMatrix, g: int, v: tuple[int, ...]) -> tuple[int, ...]:
    # s_g acting on a weight-coordinate vector: v_r -= c[g][r] * v_g
    vg = v[g - 1]
    if vg == 0:
        return v
    out = list(v)
    for r, c in cartan.nonzero_rows[g - 1]:
        out[r] -= c * vg
    return tuple(out)


def _apply_gen_mat(cartan: CartanMatrix, g: int, m: Matrix) -> Matrix:
    # Left-multiply by s_g: row_r -= c[g][r] * row_g for the few r with c[g][r] != 0.
    row = cartan.row(g)
    grow = m[g - 1]
    out = []
    for r in range(len(m)):
        c = row[r]
        if c == 0:
            out.append(m[r])
        else:
            mr = m[r]
            out.append(tuple(mr[k] - c * grow[k] for k in range(len(mr))))
    return tuple(out)


def element_of_word(cartan: CartanMatrix, word) -> Matrix:
    """Product s_{i_1} o ... o s_{i_m}; the last letter acts first on vectors."""
    n = cartan.rank
    mat = identity_matrix(n)
    for g in reversed(tuple(word)):
        if not 1 <= g <= n:
            raise IndexOutOfRange(f"letter {g} outside 1..{n}")
        mat = _apply_gen_mat(cartan, g, mat)
    return mat


# ---------------------------------------------------------------------------
# Coset tables.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CosetEntry:
    """One minimal coset representative: index (m, i) and minimized word."""

    m: int
    i: int
    word: tuple[int, ...]


class CosetTable:
    """Ordered minimal coset representatives of W(P_K) in W(G).

    Layer m holds the length-m representatives sorted by their minimized
    words; ``betti[m]`` is the layer size.  Tables built with a max_length
    are marked truncated and refuse operations that need the full space.
    """

    def __init__(self, cartan: CartanMatrix, k_set: frozenset[int],
                 layers: list[list[CosetEntry]], max_length: int | None,
                 vector_index: dict[tuple[int, ...], tuple[int, int]]):
        self.cartan = cartan
        self.k_set = k_set
        self.layers = layers
        self.max_length = max_length
        self._by_vector = vector_index
        # memos of characteristics.py: per target word its factor masks, packed
        # masks and columns; two-factor rows per unordered pair of classes;
        # vectors per sorted monomial
        self._char_cache: dict = {}
        self._rows: dict = {}
        self._vectors: dict = {}

    def clear_caches(self) -> None:
        """Empty the memos that queries fill; later queries rebuild them."""
        self._char_cache.clear()
        self._rows.clear()
        self._vectors.clear()

    @property
    def complete(self) -> bool:
        return self.max_length is None

    @property
    def betti(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.layers)

    @property
    def top_length(self) -> int:
        return len(self.layers) - 1

    @property
    def size(self) -> int:
        return sum(len(layer) for layer in self.layers)

    def base_vector(self) -> tuple[int, ...]:
        return tuple(1 if j + 1 in self.k_set else 0 for j in range(self.cartan.rank))

    def layer(self, m: int) -> list[CosetEntry]:
        if m < 0 or m >= len(self.layers):
            return []
        return self.layers[m]

    def entry(self, m: int, i: int) -> CosetEntry:
        layer = self.layer(m)
        if not 1 <= i <= len(layer):
            raise NotFound(f"no entry w_{{{m},{i}}}")
        return layer[i - 1]

    def entries(self):
        for layer in self.layers:
            yield from layer

    def lookup_word(self, word) -> CosetEntry:
        """Reduce any word to its coset representative's table entry."""
        v = self.base_vector()
        for g in reversed(tuple(word)):
            if not 1 <= g <= self.cartan.rank:
                raise IndexOutOfRange(f"letter {g} outside 1..{self.cartan.rank}")
            v = _apply_gen_vec(self.cartan, g, v)
        loc = self._by_vector.get(v)
        if loc is None:
            raise NotFound(f"word {tuple(word)} reaches a coset outside the table")
        return self.entry(*loc)

    def require_complete(self, what: str = "operation") -> None:
        if not self.complete:
            raise TruncatedTable(f"{what} needs a complete table "
                                 f"(built with max_length={self.max_length})")


def enumerate_cosets(cartan: CartanMatrix, k_set, max_length: int | None = None,
                     limit: int = DEFAULT_COSET_LIMIT) -> CosetTable:
    """Breadth-first enumeration of W(P_K; G) with minimized words.

    Each new orbit point at depth m records the lexicographic minimum of
    (letter,) + parent_word over every arrival; layers are then sorted by
    word, which is exactly the canonical index order.
    """
    n = cartan.rank
    k_set = frozenset(int(j) for j in k_set)
    if not k_set:
        raise EmptyK("K must be a nonempty subset of the node indices")
    for j in k_set:
        if not 1 <= j <= n:
            raise IndexOutOfRange(f"K contains {j}, outside 1..{n}")
    if max_length is not None and max_length < 0:
        raise OutOfRange(f"max_length must be nonnegative, got {max_length}")

    v0 = tuple(1 if j + 1 in k_set else 0 for j in range(n))
    seen: dict[tuple[int, ...], tuple[int, int]] = {}
    layers: list[list[CosetEntry]] = []
    frontier: dict[tuple[int, ...], tuple[int, ...]] = {v0: ()}
    total = 0
    depth = 0
    while frontier:
        ordered = sorted(frontier.items(), key=lambda kv: kv[1])
        layer = []
        for idx, (vec, word) in enumerate(ordered, start=1):
            layer.append(CosetEntry(depth, idx, word))
            seen[vec] = (depth, idx)
        layers.append(layer)
        total += len(layer)
        if total > limit:
            raise ResourceLimit(f"coset count exceeded limit={limit}")
        if max_length is not None and depth >= max_length:
            break
        nxt: dict[tuple[int, ...], tuple[int, ...]] = {}
        for vec, word in frontier.items():
            for g in range(1, n + 1):
                child = _apply_gen_vec(cartan, g, vec)
                if child in seen or child == vec:
                    continue
                cand_word = (g,) + word
                known = nxt.get(child)
                if known is None or cand_word < known:
                    nxt[child] = cand_word
        frontier = nxt
        depth += 1
    # if the bound was never reached the table is complete despite the cap
    truncated = max_length if (max_length is not None and frontier) else None
    return CosetTable(cartan, k_set, layers, truncated, seen)


def top_element(table: CosetTable) -> tuple[tuple[int, ...], int]:
    """The unique maximal-length representative of a complete table."""
    table.require_complete("top_element")
    top = table.layers[-1]
    if len(top) != 1:
        raise NotFound("table has no unique top element")  # pragma: no cover
    return top[0].word, top[0].m

