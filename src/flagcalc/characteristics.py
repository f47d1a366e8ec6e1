"""Structure matrices, the triangular elimination operator, and characteristics.

The characteristic number of a Schubert-class monomial against a target class
w is an integer-valued functional of w's minimized word: build the strictly
upper-triangular structure matrix A_w from negated Cartan entries along the
word, attach to every factor class u the sum of squarefree monomials x_I over
the position subsets I of w's word whose subword multiplies to u, multiply
the factors, and collapse the product with the elimination rules

    i)   for a single variable, c * x_1 evaluates to c (for no variable,
         the constant c evaluates to c);
    ii)  anything free of the top variable evaluates to 0;
    iii) h * x_m^r  ->  h * (a_{1,m} x_1 + ... + a_{m-1,m} x_{m-1})^(r-1)
         with the top row and column of A deleted.

The rules compute the integral of the word's Bott-Samelson ring
Z[x_1..x_m]/(x_k^2 - x_k L_k), L_k = a_{1,k} x_1 + ... + a_{k-1,k} x_{k-1}:
the coefficient of x_1...x_m in its squarefree basis (Duan, Adv. Math. 180
(2003); Duan, Invent. Math. 159 (2005)).  The one kernel,
``_top_coefficient``, works in that basis: each extra factor x_d fills one
hole of the support, with the weight of each hole read from the word's
resolvent M_w = (I - A_w)^-1 (one lookup per hole, less one product per
higher hole), and states that can no longer fill their highest hole are
pruned, so no power of L_k is expanded (the argument is in
``triangular_operator``).

``triangular_operator`` applies the functional to an explicitly expanded
polynomial.  The product engine applies it to two factors only: the
structure constant c^w_{u,v} is the functional of w's word on the product
of the two mask sums, x_a x_b = x_{a|b} times one multiplier per position
of a & b.  The row of constants of a pair {u, v} is the Schubert-basis
vector of the monomial s_u s_v, memoized per table among the monomial
vectors, and is one pass over the layer l(u) + l(v) (``_row``): each target
reads the masks of u, the longer class, and builds v's only where u has
one.  Since |a| + |b| = l(w), a mask pair with no shared position is the
full monomial and counts 1, and one with a single shared position d fills
its one hole h with M_w[h][d] when h < d (0 otherwise); only the pairs with
two or more shared positions, grouped by a & b, call the kernel.  A longer
monomial is folded one factor at a time, each prefix memoized on the
shorter prefix's memo node and the next factor, and all the readers of
products read from the same rows.  The entry of each target word
and of each ancestor of one memoizes the rows of M_w and every class's masks
as bitmasks, each built from the parent word's in the coset tree
(``_word_rows``, ``class_factor_masks``): row s of a word is row s - 1 of
its parent, the same array, and only row 0 is new.
"""

from __future__ import annotations

from array import array
from collections import namedtuple

from .cartan import CartanMatrix
from .errors import DegreeMismatch, NotFound
from .weyl import CosetEntry, CosetTable, _apply_gen_vec, _letters


class StructureMatrix(namedtuple("StructureMatrix", "rows")):
    """Strictly upper-triangular integer matrix attached to a minimized word."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.rows)


def structure_matrix(cartan: CartanMatrix, word) -> StructureMatrix:
    """A_w as dense rows: a_{s,t} = -c[i_s][i_t] for s < t, zero elsewhere."""
    word = _letters(cartan, word)
    c = cartan.entries
    return StructureMatrix(tuple(tuple(-c[g - 1][h - 1] if s < t else 0
                                       for t, h in enumerate(word))
                                 for s, g in enumerate(word)))


def triangular_operator(a: StructureMatrix, h) -> int:
    """Evaluate the elimination functional on an expanded polynomial.

    ``h`` is an exponent dict {exps: coef} of degree m in m variables where
    m = a.size; anything else is a DegreeMismatch.  Only the entries of
    ``a.rows`` above the diagonal are read.

    Rules i-iii are the definition, and they compute the coefficient of
    x_1...x_m in the squarefree basis of the Bott-Samelson ring
    Z[x_1..x_m]/(x_k^2 - x_k L_k), L_k = a_{1,k} x_1 + ... + a_{k-1,k} x_{k-1}
    (Duan, "The degree of a Schubert variety", Adv. Math. 180 (2003); Duan,
    "Multiplicative rule of Schubert classes", Invent. Math. 159 (2005)).
    Rule iii is the relation x_m^r = x_m L_m^(r-1); a product g x_m with g
    free of x_m is (g reduced) x_m, so peeling x_m leaves the functional of
    the smaller matrix; and no degree-m squarefree monomial misses x_m
    (rule ii).  The coefficient is computed without expanding any power of
    L_k.  A monomial x^e is the squarefree x_K over its support K times one
    multiplier x_d for each exponent e_d beyond the first.  Since
    x_d x_K = L_d x_K for d in K, a multiplier is a sum over the holes h of
    K below d: x_{K+h} times the weight W(h) of the chains
    d > c_1 > ... > c_q > h through positions of K, each chain weighing
    a_{c_1,d} a_{c_2,c_1} ... a_{h,c_q}.  The chains from h up to d through
    any positions sum to the entry M[h][d] of the resolvent
    M = (I - A)^-1 = I + A + A^2 + ..., and splitting such a chain at its
    highest hole h' gives the first-passage identity

        M[h][d] = W(h) + sum over holes h' with h < h' of W(h') M[h][h'],

    so, the holes taken from the highest down, each W(h) is one lookup less
    one product per higher hole.  Each multiplier fills one hole below it,
    in descending order, so a state can end full only while its j-th
    highest hole lies below its j-th next multiplier, for every j.  Filling
    a hole keeps the holes above it, so the holes are tried from the highest
    down until one lies above the multiplier as many places on: when the
    multiplier after d lies below the highest hole, only that hole is
    filled, with the one lookup W = M[high][d].

    On a reduced word, column t of M is the positive inversion root
    beta_t = s_{i_1}...s_{i_{t-1}}(alpha_{i_t}) written along the word,
    beta_t = sum over s of M[s][t] alpha_{i_s}, with
    s_i(alpha_j) = alpha_j - c[i][j] alpha_i (the roots of Billey's formula,
    Duke Math. J. 96 (1999)).  Each entry above the diagonal pairs two
    non-proportional roots, so it lies in -3..3 (within 1 on the
    simply-laced types, 2 on B, C and F4, 3 on G2), and the coset tree keeps
    M's rows as signed bytes (a Cartan matrix of infinite type can leave
    them, and its rows stay Python integers).  ``a`` here is any matrix, so
    M is built by back-substitution in Python integers.
    """
    m = a.size
    # {descending multipliers: {support: coefficient}}
    groups: dict = {}
    for e, c in h.items():
        e = tuple(e)
        if len(e) != m or sum(e) != m or min(e, default=0) < 0:
            raise DegreeMismatch(f"term {e} is not degree {m} in {m} variables")
        if not c:
            continue
        support = sum(1 << d for d, x in enumerate(e) if x)
        mults = tuple(d for d in range(m - 1, -1, -1) for _ in range(e[d] - 1))
        states = groups.setdefault(mults, {})
        states[support] = states.get(support, 0) + c
    resolvent: list = []
    for s in range(m - 1, -1, -1):
        row = a.rows[s]
        resolvent = [_first_row([(t - s - 1, row[t]) for t in range(s + 1, m) if row[t]],
                                resolvent)] + resolvent
    return sum(_top_coefficient(states, mults, resolvent)
               for mults, states in groups.items())


def _first_row(coefficients, rows: list) -> list:
    """Row 0 of M = (I - A)^-1 from its rows 1.. (``rows``): e_0 plus x * rows[k]
    for each (k, x) = (s - 1, a_{0,s}).  Row s keeps M[s][t] at index m-1-t,
    so it is m - s long."""
    row = [0] * len(rows) + [1]
    for k, x in coefficients:
        below = rows[k]
        row[:len(below)] = [y + x * z for y, z in zip(row, below)]
    return row


def _top_coefficient(states: dict, mults, rows) -> int:
    """Coefficient of x_1...x_m in sum c x_K x_{d_1}...x_{d_r} (see triangular_operator).

    ``states`` maps a support bitmask K (bit d for x_{d+1}) to its
    coefficient c; ``mults`` are the multiplier positions d_1 >= d_2 >= ...,
    each inside every K; ``rows`` are the resolvent's, m in all, row h
    holding M[h][t] at index m-1-t.  A hole's weight W is filled in from
    the highest hole down, ``done`` holding (m-1-h', W(h')) of the higher
    holes h' with a nonzero weight.  ``mults`` is extended by -1, below
    every hole, so the last hole always ends the tries.
    """
    top = len(rows) - 1
    full = (1 << len(rows)) - 1
    n = len(mults)
    mults = (*mults, -1)
    for t in range(n):
        d = mults[t]
        col = top - d
        nxt: dict = {}
        for support, c in states.items():
            if not c:
                continue
            holes = full ^ support
            h = holes.bit_length() - 1
            if h > d:
                continue
            done: list = []
            j = t + 1
            while True:
                row = rows[h]
                x = row[col]
                for q, y in done:
                    x -= y * row[q]
                if x:
                    key = support | 1 << h
                    nxt[key] = nxt.get(key, 0) + c * x
                if h > mults[j]:  # the holes below h may no longer be filled
                    break
                if x:
                    done.append((top - h, x))
                holes ^= 1 << h
                h = holes.bit_length() - 1
                j += 1
        if not nxt:
            return 0
        states = nxt
    return states.get(full, 0)


# ---------------------------------------------------------------------------
# Characteristics.
# ---------------------------------------------------------------------------


class SchubertExpansion(namedtuple("SchubertExpansion", "degree terms")):
    """Linear combination of Schubert classes of one common degree; ``terms``
    is (((m, i), coef), ...)."""

    __slots__ = ()

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {idx: c for idx, c in self.terms}


def class_factor_masks(table: CosetTable, w: CosetEntry, u: CosetEntry) -> tuple[int, ...]:
    """Position subsets of w's word whose subword equals u in the Weyl group.

    Returned as ascending bitmasks over the m positions (bit q for letter
    w.word[q]).  They follow from the coset tree.  The invariant relied on is
    that ``w.parent``, of word w.word[1:], is the table entry of s_g w for
    g = w.word[0], which ``enumerate_cosets`` guarantees.  A subset either
    skips position 0, and is then a subset of the parent's word spelling u,
    or uses it, and the rest spells s_g u.  The latter happens exactly when g
    is a left descent of u, i.e. vec(u)[g-1] < 0, and then s_g u is again a
    table entry.  So

        masks(w, u) = {x << 1 : x in masks(parent, u)}
                      + {x << 1 | 1 : x in masks(parent, s_g u)}  (g descent of u)

    with masks(w, 1) = {0}, masks(w, u) empty when l(w) < l(u), and, when
    l(w) = l(u), the full set if w is u and nothing otherwise.  This is the
    deletion/contraction of subword complexes (Knutson-Miller, "Subword
    complexes in Coxeter groups", Adv. Math. 184 (2004)); the subsets are the
    L(u, w) of Duan's product formula (Duan, "Multiplicative rule of Schubert
    classes", Invent. Math. 159 (2005)).  The ``parent`` chain is walked in a loop
    and every ancestor's masks are memoized on it, in ``masks`` by (m, i);
    Python recursion only follows u -> s_g u, so its depth is at most l(u).
    """
    masks = w.masks
    if masks is None:
        masks = w.masks = {}
    key = (u.m, u.i)
    got = masks.get(key)
    if got is not None:
        return got
    t = u.m
    if w.m <= t or not t:  # u = 1 has the empty subset; l(w) = l(u) the full one if w is u
        got = masks[key] = ((1 << t) - 1,) if not t or (w.m, w.i) == key else ()
        return got
    cartan, by_vector = table.cartan, table._by_vector
    # walk down to the first ancestor whose masks are known or of length l(u)
    chain, node = [w], w
    while True:
        node = node.parent
        if node.m == t:
            got = ((1 << t) - 1,) if (node.m, node.i) == key else ()
            break
        if node.masks is None:
            node.masks = {}
        got = node.masks.get(key)
        if got is not None:
            break
        chain.append(node)
    # and back up, each word's masks from its parent's
    uvec = u.vector
    for node in reversed(chain):
        g = node.word[0]
        out = [x << 1 for x in got]
        if uvec[g - 1] < 0:
            su = by_vector[_apply_gen_vec(cartan, g, uvec)]
            out += [x << 1 | 1 for x in class_factor_masks(table, node.parent, su)]
            out.sort()
        got = node.masks[key] = tuple(out)
    return got


def _word_rows(table: CosetTable, w: CosetEntry) -> list:
    """M_w's memoized rows, as signed bytes (as a list past -128..127, which
    only a Cartan matrix of infinite type reaches): the parent chain is
    walked down in a loop to the first word with rows (the root's are
    empty), then back up, as in ``class_factor_masks``.  A word's rows are
    its parent's, the same arrays, after one new row 0 from
    a_{0,s} = -c[i_0][i_s] (``_first_row``)."""
    chain, node = [], w
    while node.m and node.rows is None:
        chain.append(node)
        node = node.parent
    rows = node.rows if node.m else []
    nonzero = table.cartan.nonzero_rows
    for node in reversed(chain):
        word = node.word
        coefficients = []  # (s - 1, a_{0,s}), each letter's positions found by tuple.index
        for j, c in nonzero[word[0] - 1]:
            s = 0
            for _ in range(word.count(j + 1) - (j + 1 == word[0])):
                s = word.index(j + 1, s + 1)
                coefficients.append((s - 1, -c))
        row = _first_row(coefficients, rows)
        try:
            row = array("b", row)
        except OverflowError:  # only a Cartan matrix of infinite type gets here
            pass
        rows = node.rows = [row] + rows
    return rows


class _Prefix:
    """A monomial prefix's memo node: its vector.  Longer prefixes are keyed
    on the node, which hashes by identity and is held by the memo itself."""

    __slots__ = ("vector",)

    def __init__(self, vector: dict):
        self.vector = vector


def _row(table: CosetTable, u: CosetEntry, v: CosetEntry) -> _Prefix:
    """The memo node of s_u s_v, its vector {(m, i): c^w_{u,v}} over layer l(u) + l(v).
    u is the longer class, the larger (m, i), as every caller passes it; the
    mask pairs that skip the kernel are described in the module docstring.
    """
    key = ((u.m, u.i), (v.m, v.i))
    node = table._vectors.get(key)
    if node is not None:
        return node
    ku, kv = key
    vector = {}
    for w in table.layer(u.m + v.m):
        masks_u = w.masks.get(ku) if w.masks else None
        if masks_u is None:
            masks_u = class_factor_masks(table, w, u)
        if not masks_u:
            continue
        masks_v = w.masks.get(kv)
        if masks_v is None:
            masks_v = class_factor_masks(table, w, v)
        if not masks_v:
            continue
        rows = w.rows or _word_rows(table, w)
        top = w.m - 1
        full = (1 << w.m) - 1
        c = 0
        groups: dict = {}
        for a in masks_u:
            for b in masks_v:
                shared = a & b
                if not shared:  # a | b is full: x_1...x_m
                    c += 1
                elif shared & (shared - 1):
                    states = groups.setdefault(shared, {})
                    states[a | b] = states.get(a | b, 0) + 1
                else:  # one multiplier d, one hole h
                    h = (full ^ (a | b)).bit_length() - 1
                    d = shared.bit_length() - 1
                    if h < d:
                        c += rows[h][top - d]
        for shared, states in groups.items():
            mults = []  # the shared positions, highest first: one step per set bit
            while shared:
                mults.append(shared.bit_length() - 1)
                shared ^= 1 << mults[-1]
            c += _top_coefficient(states, mults, rows)
        if c:
            vector[(w.m, w.i)] = c
    node = table._vectors[key] = _Prefix(vector)
    return node


def _check_entries(table: CosetTable, entries) -> None:
    """NotFound for a class not the table's entry at its (m, i), in word or orbit point."""
    for u in entries:
        own = table.entry(u.m, u.i)
        if own is not u and (own.word != u.word or own.vector != u.vector):
            raise NotFound(f"{u!r} is not an entry of this table")


def monomial_vector(table: CosetTable, classes) -> dict:
    """Schubert-basis vector {(m, i): coefficient} of the product of the classes.

    Identity factors are ignored.  The factors are sorted largest class first
    and folded one at a time through the two-factor rows; every prefix's
    vector is memoized on the table, so monomials that share a prefix share
    its work.  The returned dict is the memo entry: do not mutate it.
    """
    factors = sorted((u for u in classes if u.m > 0), key=lambda u: (u.m, u.i), reverse=True)
    _check_entries(table, factors)
    if len(factors) < 2:
        return {(u.m, u.i): 1 for u in factors} or {(0, 1): 1}
    node = _row(table, factors[0], factors[1])
    for g in factors[2:]:
        gk = (g.m, g.i)
        key = (node, *gk)
        nxt = table._vectors.get(key)
        if nxt is None:
            vec: dict = {}
            for k, a in node.vector.items():  # a memoized row is read by its key, no call
                row = table._vectors.get((k, gk)) or _row(table, table.entry(*k), g)
                for idx, c in row.vector.items():
                    vec[idx] = vec.get(idx, 0) + a * c
            nxt = table._vectors[key] = _Prefix({idx: c for idx, c in vec.items() if c})
        node = nxt
    return node.vector


def characteristic(table: CosetTable, w: CosetEntry, classes) -> int:
    """Coefficient of s_w in the product of the given Schubert classes.

    ``classes`` is an iterable of coset entries u_1..u_k of total length l(w);
    zero-length (identity) factors are allowed and ignored.  w and every
    class must be entries of this table (else NotFound).
    """
    classes = tuple(classes)  # an iterator would be used up by the degree check
    total = sum(u.m for u in classes)
    if total != w.m:
        raise DegreeMismatch(f"classes have total degree {total}, target has length {w.m}")
    _check_entries(table, (w,))
    return monomial_vector(table, classes).get((w.m, w.i), 0)


def multiply_schubert(table: CosetTable, u: CosetEntry, v: CosetEntry) -> SchubertExpansion:
    """Full expansion s_u * s_v = sum of c^w_{u,v} s_w over length l(u)+l(v)."""
    return SchubertExpansion(u.m + v.m, tuple(sorted(monomial_vector(table, (u, v)).items())))
