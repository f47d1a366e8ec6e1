"""Numerical Weyl groups and minimal coset representative tables.

Simple reflections are integer matrices on the fundamental-weight basis
w_1..w_n: s_i fixes every w_k with k != i and sends w_i to w_i minus row i of
the Cartan matrix read in the weight basis.  Coset enumeration does not use
the matrices: the group acts on weight vectors, one coordinate update per
nonzero Cartan entry.  Left cosets of a parabolic subgroup W(P_K) are the
orbit of v_K = sum of w_j over j in K, whose stabilizer is exactly W(P_K).

The enumeration uses the descent criterion (Casselman, "Machine calculations
in Weyl groups", Invent. Math. 116 (1994); Bjorner-Brenti, GTM 231, 3.4): an
orbit point v has length l(s_g v) = l(v) + 1 exactly when v[g] > 0, and its
descents are its negative coordinates.  So each point of a layer is expanded
only along its ascents, and a child is kept only from the arrival whose
letter g is the child's first negative coordinate.  That letter is the first
letter of the child's lexicographically least reduced word, so the child's
word is (g,) + parent word, every coset is reached once, and a layer built
in (g, parent index) order is already sorted by word.

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


@dataclass(frozen=True, slots=True)
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
                 vector_index: dict[tuple[int, ...], CosetEntry]):
        self.cartan = cartan
        self.k_set = k_set
        self.layers = layers
        self.max_length = max_length
        self._by_vector = vector_index
        # entry -> vector, built by vector() on first use; its size is the
        # table's, not the queries', so clear_caches() keeps it
        self._layer_vectors: list[list[tuple[int, ...]]] | None = None
        # memos of characteristics.py: per target word (and per ancestor of
        # one) its factor masks and columns; two-factor rows per unordered
        # pair of classes; vectors per sorted monomial.  Memo of
        # presentation.py: (expansion matrix, Smith form) per (generator
        # entries, degree)
        self._char_cache: dict = {}
        self._rows: dict = {}
        self._vectors: dict = {}
        self._degrees: dict = {}

    def clear_caches(self) -> None:
        """Empty the memos that queries fill; later queries rebuild them."""
        self._char_cache.clear()
        self._rows.clear()
        self._vectors.clear()
        self._degrees.clear()

    def memo_sizes(self) -> dict[str, int]:
        """Entry counts of the memos that queries fill (see ``clear_caches``)."""
        return {
            "target_words": len(self._char_cache),
            "mask_entries": sum(len(memo["masks"]) for memo in self._char_cache.values()),
            "pair_rows": len(self._rows),
            "monomial_vectors": len(self._vectors),
            "degree_records": len(self._degrees),
        }

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

    def vector(self, entry: CosetEntry) -> tuple[int, ...]:
        """The orbit point (weight vector) of an entry's coset.

        The inverse of ``_by_vector`` is built on first use, one pass per
        table, so enumeration alone never pays for it.
        """
        vectors = self._layer_vectors
        if vectors is None:
            vectors = [[()] * len(layer) for layer in self.layers]
            for v, e in self._by_vector.items():
                vectors[e.m][e.i - 1] = v
            self._layer_vectors = vectors
        return vectors[entry.m][entry.i - 1]

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
        entry = self._by_vector.get(v)
        if entry is None:
            raise NotFound(f"word {tuple(word)} reaches a coset outside the table")
        return entry

    def require_complete(self, what: str = "operation") -> None:
        if not self.complete:
            raise TruncatedTable(f"{what} needs a complete table "
                                 f"(built with max_length={self.max_length})")


def enumerate_cosets(cartan: CartanMatrix, k_set, max_length: int | None = None,
                     limit: int = DEFAULT_COSET_LIMIT) -> CosetTable:
    """Layer-by-layer enumeration of W(P_K; G) with minimized words.

    Layer m + 1 is built letter by letter: for each g, every point of layer
    m with an ascent at g (``vec[g-1] > 0``) gives the child s_g vec, which
    is kept only when g is its first descent (first negative coordinate).
    Its word is (g,) + parent word, and the layer comes out in word order.
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
    if limit < 0:
        raise OutOfRange(f"limit must be nonnegative, got {limit}")

    v0 = tuple(1 if j + 1 in k_set else 0 for j in range(n))
    root = CosetEntry(0, 1, ())
    by_vector: dict[tuple[int, ...], CosetEntry] = {v0: root}
    layers: list[list[CosetEntry]] = [[root]]
    frontier: list[tuple[tuple[int, ...], CosetEntry]] = [(v0, root)]
    total = 1
    truncated = None
    while frontier:
        if total > limit:
            raise ResourceLimit(f"coset count exceeded limit={limit}")
        depth = len(layers)
        if max_length is not None and depth > max_length:
            truncated = max_length
            break
        nxt: list[tuple[tuple[int, ...], CosetEntry]] = []
        for g, row in enumerate(cartan.nonzero_rows, start=1):
            p = g - 1
            for vec, parent in frontier:
                vg = vec[p]
                if vg <= 0:
                    continue
                child = list(vec)
                for r, c in row:
                    child[r] -= c * vg
                # a descent before g means g is not the child's first letter
                if p and min(child[:p]) < 0:
                    continue
                nxt.append((tuple(child),
                            CosetEntry(depth, len(nxt) + 1, (g,) + parent.word)))
        if nxt:
            layers.append([entry for _, entry in nxt])
            by_vector.update(nxt)
            total += len(nxt)
        frontier = nxt
    return CosetTable(cartan, k_set, layers, truncated, by_vector)


def top_element(table: CosetTable) -> tuple[tuple[int, ...], int]:
    """The unique maximal-length representative of a complete table."""
    table.require_complete("top_element")
    top = table.layers[-1]
    if len(top) != 1:
        raise NotFound("table has no unique top element")  # pragma: no cover
    return top[0].word, top[0].m

