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
``_top_coefficient``, works in that basis: each extra factor x_d is a
downward chain sweep over A's columns that fills one hole of the support,
and states that can no longer fill their highest hole are pruned, so no
power of L_k is expanded (the argument is in ``triangular_operator``).

``triangular_operator`` applies the functional to an explicitly expanded
polynomial.  The product engine applies it to two factors only: the
structure constant c^w_{u,v} is the functional of w's word on the product
of the two mask sums, x_a x_b = x_{a|b} times one multiplier per position
of a & b.  The row of constants of a pair {u, v} is the Schubert-basis
vector of the monomial s_u s_v, memoized per table among the monomial
vectors.  A longer monomial is folded one factor at a time, each prefix
memoized on the shorter prefix's memo node and the next factor, and all the
readers of products read from the same rows.  The entry of each target word
and of each ancestor of one memoizes the nonzero entries of A_w's columns
and every class's masks as bitmasks, each built from the parent word's in
the coset tree (``_prepend_letter``, ``class_factor_masks``).
"""

from __future__ import annotations

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
    """A_w as dense rows: ``_prepend_letter`` folded over the word, zero elsewhere."""
    word = _letters(cartan, word)
    columns: list = []
    for s in range(len(word) - 1, -1, -1):
        columns = _prepend_letter(cartan, word[s:], columns)
    rows = [[0] * len(word) for _ in word]
    for t, column in enumerate(columns):
        for r, x in column:
            rows[-1 - r][t] = x
    return StructureMatrix(tuple(map(tuple, rows)))


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
    x_d x_K = L_d x_K for d in K, a multiplier is one downward sweep from d:
    a chain d > c_1 > ... > c_q through positions of K carries the weight
    a_{c_1,d} a_{c_2,c_1} ... a_{h,c_q} and ends at a hole h of K, giving
    x_{K+h}.  Each multiplier fills one hole below it and the multipliers
    are taken in descending order, so a state whose highest hole is not
    below the next multiplier is dropped, and a sweep stops at the lowest
    hole, or at the highest hole when the multiplier after it lies below
    that hole (then only that hole may still be filled).
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
    rows = a.rows
    columns = [tuple((m - 1 - s, rows[s][t]) for s in range(t) if rows[s][t]) for t in range(m)]
    return sum(_top_coefficient(states, mults, columns)
               for mults, states in groups.items())


def _top_coefficient(states: dict, mults, columns) -> int:
    """Coefficient of x_1...x_m in sum c x_K x_{d_1}...x_{d_r} (see triangular_operator).

    ``states`` maps a support bitmask K (bit d for x_{d+1}) to its
    coefficient c; ``mults`` are the multiplier positions d_1 >= d_2 >= ...,
    each inside every K; ``columns[j]``, one per position (m in all), holds
    the nonzero (r, a_{s+1,j+1}), s < j, the row from the word's end, r = m-1-s.
    ``weight[r]`` is the summed weight of the chains that have reached
    position m-1-r.
    """
    top = len(columns) - 1
    full = (1 << len(columns)) - 1
    n = len(mults)
    for t in range(n):
        d = mults[t]
        after = mults[t + 1] if t + 1 < n else -1
        nxt: dict = {}
        for support, c in states.items():
            holes = full ^ support
            high = holes.bit_length() - 1
            if high > d:
                continue
            low = high if high > after else (holes & -holes).bit_length() - 1
            stop = top - low
            weight = [0] * (stop + 1)
            weight[top - d] = c
            for r in range(top - d, stop + 1):
                x = weight[r]
                if not x:
                    continue
                j = top - r
                if support >> j & 1:
                    for q, y in columns[j]:
                        if q <= stop:
                            weight[q] += x * y
                else:
                    key = support | 1 << j
                    nxt[key] = nxt.get(key, 0) + x
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


def _pair_constant(table: CosetTable, w: CosetEntry, u: CosetEntry, v: CosetEntry) -> int:
    """c^w_{u,v}: the operator of w's word on the product of the two mask sums.

    x_a x_b = x_{a|b} times one multiplier per position of a & b, so the
    products are grouped by their shared positions and each group is one
    call of the squarefree kernel.
    """
    masks_u = class_factor_masks(table, w, u)
    masks_v = class_factor_masks(table, w, v)
    if not masks_u or not masks_v:
        return 0
    groups: dict = {}
    for a in masks_u:
        for b in masks_v:
            states = groups.setdefault(a & b, {})
            states[a | b] = states.get(a | b, 0) + 1
    columns = w.columns or _word_columns(table, w)
    total = 0
    for shared, states in groups.items():
        mults = []  # the shared positions, highest first: one step per set bit
        while shared:
            mults.append(shared.bit_length() - 1)
            shared ^= 1 << mults[-1]
        total += _top_coefficient(states, mults, columns)
    return total


def _prepend_letter(cartan: CartanMatrix, word: tuple[int, ...], columns: list) -> list:
    """A_word's columns from the columns of word[1:]: the one writer of the entry convention.

    columns[t] holds the nonzero (r, a_{s+1,t+1}), the row counted from the
    word's end, r = m-1-s.  So column t - 1 of word[1:] is column t of word,
    and only a_{1,t+1} = -c[g][i_{t+1}], g = word[0], adds (m-1, a_{1,t+1})
    to the columns whose letter is joined to g.  The table memo takes this
    step once per word of the coset tree; ``structure_matrix`` folds it.
    """
    joined = dict(cartan.nonzero_rows[word[0] - 1])
    r = len(columns)
    out = [()]
    for h, column in zip(word[1:], columns):
        c = joined.get(h - 1)
        out.append(column + ((r, -c),) if c else column)
    return out


def _word_columns(table: CosetTable, w: CosetEntry) -> list:
    """A_w's memoized columns: the parent chain is walked down in a loop to the
    first word with columns (the root's are empty), then back up, each word's
    columns from its parent's, as in ``class_factor_masks``."""
    chain, node = [], w
    while node.m and node.columns is None:
        chain.append(node)
        node = node.parent
    columns = node.columns if node.m else []
    for node in reversed(chain):
        columns = node.columns = _prepend_letter(table.cartan, node.word, columns)
    return columns


class _Prefix:
    """A monomial prefix's memo node: its vector.  Longer prefixes are keyed
    on the node, which hashes by identity and is held by the memo itself."""

    __slots__ = ("vector",)

    def __init__(self, vector: dict):
        self.vector = vector


def _row(table: CosetTable, u: CosetEntry, v: CosetEntry) -> _Prefix:
    """The memo node of s_u s_v, its vector {(m, i): c^w_{u,v}} over layer l(u) + l(v).
    u is the longer class, the larger (m, i), as every caller passes it."""
    key = ((u.m, u.i), (v.m, v.i))
    node = table._vectors.get(key)
    if node is None:
        node = table._vectors[key] = _Prefix({(w.m, w.i): c for w in table.layer(u.m + v.m)
                                              if (c := _pair_constant(table, w, u, v))})
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
        key = (node, g.m, g.i)
        nxt = table._vectors.get(key)
        if nxt is None:
            vec: dict = {}
            for (m, i), a in node.vector.items():
                for idx, c in _row(table, table.entry(m, i), g).vector.items():
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
