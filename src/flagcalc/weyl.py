"""Numerical Weyl groups and minimal coset representative tables.

Simple reflections are integer matrices on the fundamental-weight basis
w_1..w_n: s_i fixes every w_k with k != i and sends w_i to w_i minus row i of
the Cartan matrix read in the weight basis.  Coset enumeration does not use
the matrices: the group acts on weight vectors, one coordinate update per
nonzero Cartan entry; ``element_of_word`` multiplies the matrices apart
from it, so each route checks the other.  ``_letters`` is the one check that
a word's letters lie in 1..rank.  Left cosets of a parabolic subgroup W(P_K)
are the orbit of v_K = sum of w_j over j in K (a table's root entry), whose
stabilizer is exactly W(P_K).

The enumeration uses the descent criterion (Casselman, "Machine calculations
in Weyl groups", Invent. Math. 116 (1994); Bjorner-Brenti, GTM 231, 3.4): an
orbit point v has length l(s_g v) = l(v) + 1 exactly when v[g] > 0, and its
descents are its negative coordinates.  So each point of a layer is expanded
only along its ascents, and a child is kept only from the arrival whose
letter g is the child's first negative coordinate.  That letter is the first
letter of the child's lexicographically least reduced word, so the child's
word is (g,) + parent word, every coset is reached once, and a layer built
in (g, parent index) order is already sorted by word.

A truncated table has one guard, ``layer``: it refuses any length past the
last layer, and every reader of layers, entries or degrees inherits that.
``grassmannian_shape`` is the one type-A Grassmannian check, for the
oracle's partitions and the CLI's ``c<r>`` (which so loads no oracle).

All arithmetic is exact (Python integers); matrices are tuples of row tuples.
"""

from __future__ import annotations

from .cartan import CartanMatrix
from .errors import (EmptyK, IndexOutOfRange, NotFound, NotSingletonK, NotTypeA, OutOfRange,
                     ResourceLimit, TruncatedTable)

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


def _letters(cartan: CartanMatrix, word) -> tuple[int, ...]:
    """The word as a tuple, every letter checked to be a node 1..rank."""
    word = tuple(word)
    n = cartan.rank
    for g in word:
        if not 1 <= g <= n:
            raise IndexOutOfRange(f"letter {g} outside 1..{n}")
    return word


def simple_reflection(cartan: CartanMatrix, i: int) -> Matrix:
    """Matrix of s_i on the weight basis: w_i -> w_i - sum_j c[i][j] w_j."""
    _letters(cartan, (i,))
    n = cartan.rank
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


def element_of_word(cartan: CartanMatrix, word) -> Matrix:
    """Product s_{i_1} o ... o s_{i_m}; the last letter acts first on vectors."""
    mat = identity_matrix(cartan.rank)
    for g in _letters(cartan, word):
        mat = mat_mul(mat, simple_reflection(cartan, g))
    return mat


# ---------------------------------------------------------------------------
# Coset tables.
# ---------------------------------------------------------------------------


class CosetEntry:
    """One minimal coset representative: index (m, i), minimized word, orbit point,
    and ``parent``, the entry of ``word[1:]`` (None at the root).  ``masks`` and
    ``rows`` are the word's product memo (see characteristics.py), None until used."""

    __slots__ = ("m", "i", "word", "vector", "parent", "masks", "rows")

    def __init__(self, m: int, i: int, word: tuple[int, ...], vector: tuple[int, ...],
                 parent: CosetEntry | None = None):
        self.m, self.i, self.word, self.vector, self.parent = m, i, word, vector, parent
        self.masks = self.rows = None

    def __eq__(self, other):  # equality and hashing never read the orbit point, parent or memo
        return (type(other) is CosetEntry and other.m == self.m and other.i == self.i
                and other.word == self.word)

    def __hash__(self):
        return hash((self.m, self.i, self.word))

    def __repr__(self):
        return f"CosetEntry(m={self.m}, i={self.i}, word={self.word})"


class CosetTable:
    """Ordered minimal coset representatives of W(P_K) in W(G).

    Layer m holds the length-m representatives sorted by their minimized words;
    ``betti[m]`` is the layer size, and the table indexes their orbit points itself.  A
    table cut below its top is truncated: ``layer`` refuses any length past its last
    layer (the one truncation guard), ``require_complete`` any full-space operation.
    """

    def __init__(self, cartan: CartanMatrix, k_set: frozenset[int],
                 layers: list[list[CosetEntry]], max_length: int | None):
        self.cartan = cartan
        self.k_set = k_set
        self.layers = layers
        self.max_length = max_length
        self._by_vector = {e.vector: e for layer in layers for e in layer}
        # memos besides each entry's masks and rows: each monomial prefix's
        # node (characteristics.py); each degree record (presentation.py)
        self._vectors: dict = {}
        self._degrees: dict = {}

    def clear_caches(self) -> None:
        """Empty the memos that queries fill; later queries rebuild them."""
        for e in self.entries():
            e.masks = e.rows = None
        self._vectors.clear()
        self._degrees.clear()

    def memo_sizes(self) -> dict[str, int]:
        """Entry counts of the memos that queries fill (see ``clear_caches``)."""
        return {
            "target_words": sum(1 for e in self.entries() if e.masks or e.rows),
            "mask_entries": sum(len(e.masks) for e in self.entries() if e.masks),
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

    def layer(self, m: int) -> list[CosetEntry]:
        if m < 0 or m >= len(self.layers):
            if m > 0 and not self.complete:
                raise TruncatedTable(f"length {m} beyond max_length={self.max_length}")
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
        word = _letters(self.cartan, word)
        v = self.layers[0][0].vector
        for g in reversed(word):
            v = _apply_gen_vec(self.cartan, g, v)
        entry = self._by_vector.get(v)
        if entry is None:
            raise NotFound(f"word {word} reaches a coset outside the table")
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
    Its word is (g,) + parent word, its ``parent`` that entry; layers are in word order.
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
    root = CosetEntry(0, 1, (), v0)
    layers: list[list[CosetEntry]] = [[root]]
    frontier = [root]
    total = 1
    truncated = None
    while frontier:
        if total > limit:
            raise ResourceLimit(f"coset count exceeded limit={limit}")
        depth = len(layers)
        if max_length is not None and depth > max_length:
            # a next layer exists exactly when some point still has an ascent
            truncated = max_length if any(max(e.vector) > 0 for e in frontier) else None
            break
        nxt: list[CosetEntry] = []
        for g, row in enumerate(cartan.nonzero_rows, start=1):
            p = g - 1
            for parent in frontier:
                vec = parent.vector
                vg = vec[p]
                if vg <= 0:
                    continue
                child = list(vec)
                for r, c in row:
                    child[r] -= c * vg
                # a descent before g means g is not the child's first letter
                if p and min(child[:p]) < 0:
                    continue
                nxt.append(CosetEntry(depth, len(nxt) + 1, (g,) + parent.word, tuple(child),
                                      parent))
        if nxt:
            layers.append(nxt)
            total += len(nxt)
        frontier = nxt
    return CosetTable(cartan, k_set, layers, truncated)


def top_element(table: CosetTable) -> tuple[tuple[int, ...], int]:
    """The unique maximal-length representative of a complete table."""
    table.require_complete("top_element")
    top = table.layers[-1][0]
    return top.word, top.m


def grassmannian_shape(table: CosetTable) -> tuple[int, int]:
    """(k, n-k) for a type-A table with singleton K; errors otherwise.  A_n is
    the path: row i of ``nonzero_rows`` is -1, 2, -1 at i-1, i, i+1, clipped."""
    n = table.cartan.rank
    if any(row != tuple((j, c) for j, c in ((i - 1, -1), (i, 2), (i + 1, -1)) if 0 <= j < n)
           for i, row in enumerate(table.cartan.nonzero_rows)):
        raise NotTypeA("table was not built from a type-A Cartan matrix")
    if len(table.k_set) != 1:
        raise NotSingletonK(f"K = {sorted(table.k_set)} is not a single node")
    k = next(iter(table.k_set))
    return k, n + 1 - k

