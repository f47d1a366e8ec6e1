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
vectors.  A longer monomial is folded one factor at a time from its longest
memoized prefix, and ``characteristic``, ``multiply_schubert`` and the
presentation's expansion matrices all read from the same rows.  Per target
word the table memoizes the nonzero entries of A_w's columns and every
class's masks as bitmasks; a word's masks are built from its parent word's
in the coset tree (``class_factor_masks``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import CartanMatrix
from .errors import DegreeMismatch
from .weyl import CosetEntry, CosetTable, _apply_gen_vec, _letters


@dataclass(frozen=True)
class StructureMatrix:
    """Strictly upper-triangular integer matrix attached to a minimized word."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.rows)


def structure_matrix(cartan: CartanMatrix, word) -> StructureMatrix:
    """A_w as dense rows: the entries of ``_sparse_columns``, zero elsewhere."""
    word = _letters(cartan, word)
    rows = [[0] * len(word) for _ in word]
    for t, column in enumerate(_sparse_columns(cartan, word)):
        for s, x in column:
            rows[s][t] = x
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
    columns = [tuple((s, rows[s][t]) for s in range(t) if rows[s][t]) for t in range(m)]
    full = (1 << m) - 1
    return sum(_top_coefficient(states, mults, columns, full)
               for mults, states in groups.items())


def _top_coefficient(states: dict, mults, columns, full: int) -> int:
    """Coefficient of x_1...x_m in sum c x_K x_{d_1}...x_{d_r} (see triangular_operator).

    ``states`` maps a support bitmask K (bit d for x_{d+1}) to its
    coefficient c; ``mults`` are the multiplier positions d_1 >= d_2 >= ...,
    each inside every K; ``columns[j]`` holds the nonzero (s, a_{s+1,j+1})
    with s < j.  ``weight[j]`` is the summed weight of the chains that have
    reached position j.
    """
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
            weight = [0] * (d + 1)
            weight[d] = c
            for j in range(d, low - 1, -1):
                x = weight[j]
                if not x:
                    continue
                if support >> j & 1:
                    for s, y in columns[j]:
                        if s >= low:
                            weight[s] += x * y
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


@dataclass(frozen=True)
class SchubertExpansion:
    """Linear combination of Schubert classes of one common degree."""

    degree: int
    terms: tuple[tuple[tuple[int, int], int], ...]  # (((m, i), coef), ...)

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {idx: c for idx, c in self.terms}


def class_factor_masks(table: CosetTable, w: CosetEntry, u: CosetEntry) -> tuple[int, ...]:
    """Position subsets of w's word whose subword equals u in the Weyl group.

    Returned as ascending bitmasks over the m positions (bit q for letter
    w.word[q]).  They follow from the coset tree.  The invariant relied on is
    that w.word[1:] is the word of w's parent, the table entry of s_g w for
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
    classes", Invent. Math. 159 (2005)).  The parent chain is walked in a loop
    and every ancestor's masks are memoized; Python recursion only follows
    u -> s_g u, so its depth is at most l(u).
    """
    cache = _word_memo(table, w.word)["masks"]
    key = (u.m, u.i)
    got = cache.get(key)
    if got is not None:
        return got
    t = u.m
    if t == 0:
        got = cache[key] = (0,)
        return got
    if w.m <= t:
        got = cache[key] = ((1 << t) - 1,) if (w.m, w.i) == key else ()
        return got
    cartan = table.cartan
    by_vector = table._by_vector
    # walk down to the first ancestor whose masks are known or of length l(u)
    chain = [(w, cache)]
    node, vec = w, w.vector
    while True:
        vec = _apply_gen_vec(cartan, node.word[0], vec)
        node = by_vector[vec]
        if node.m == t:
            got = ((1 << t) - 1,) if (node.m, node.i) == key else ()
            break
        node_cache = _word_memo(table, node.word)["masks"]
        got = node_cache.get(key)
        if got is not None:
            break
        chain.append((node, node_cache))
    # and back up, each word's masks from its parent's
    parent = node
    uvec = u.vector
    for node, node_cache in reversed(chain):
        g = node.word[0]
        out = [x << 1 for x in got]
        if uvec[g - 1] < 0:
            su = by_vector[_apply_gen_vec(cartan, g, uvec)]
            out += [x << 1 | 1 for x in class_factor_masks(table, parent, su)]
            out.sort()
        got = node_cache[key] = tuple(out)
        parent = node
    return got


def _word_memo(table: CosetTable, word: tuple[int, ...]) -> dict:
    """The table's memo for one target word, created on first use."""
    memo = table._char_cache.get(word)
    if memo is None:
        memo = table._char_cache[word] = {"masks": {}, "columns": None}
    return memo


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
    memo = table._char_cache[w.word]
    columns = memo["columns"]
    if columns is None:
        columns = memo["columns"] = _sparse_columns(table.cartan, w.word)
    full = (1 << w.m) - 1
    total = 0
    for shared, states in groups.items():
        mults = [d for d in range(shared.bit_length() - 1, -1, -1) if shared >> d & 1]
        total += _top_coefficient(states, mults, columns, full)
    return total


def _sparse_columns(cartan: CartanMatrix, word: tuple[int, ...]) -> list:
    """columns[t] = ((s, a_{s+1,t+1}), ...) over the nonzero entries, s ascending.

    a_{s+1,t+1} = -c[i_{s+1}][i_{t+1}], so position s adds an entry only to
    the later columns whose letter is a nonzero column of row i_{s+1}; the
    columns are filled forward from ``nonzero_rows``, one pair per entry.
    This is the one place the entry convention is written: the engine reads
    these columns, and ``structure_matrix`` scatters them into dense rows.
    """
    nonzero = cartan.nonzero_rows
    pending: list[list[tuple[int, int]]] = [[] for _ in range(cartan.rank)]
    columns = []
    for t, g in enumerate(word):
        columns.append(tuple(pending[g - 1]))
        for h, c in nonzero[g - 1]:
            pending[h].append((t, -c))
    return columns


def _row(table: CosetTable, u: CosetEntry, v: CosetEntry) -> dict:
    """{(m, i): c^w_{u,v}} over layer l(u) + l(v), memoized as the vector of s_u s_v."""
    key = ((u.m, u.i), (v.m, v.i))
    if key[0] < key[1]:
        key = (key[1], key[0])
    row = table._vectors.get(key)
    if row is None:
        row = {}
        for w in table.layer(u.m + v.m):
            c = _pair_constant(table, w, u, v)
            if c:
                row[(w.m, w.i)] = c
        table._vectors[key] = row
    return row


def monomial_vector(table: CosetTable, classes) -> dict:
    """Schubert-basis vector {(m, i): coefficient} of the product of the classes.

    Identity factors are ignored.  The factors are sorted largest class first
    and folded one at a time through the two-factor rows; every prefix's
    vector is memoized on the table, so monomials that share a prefix share
    its work.  The returned dict is the memo entry: do not mutate it.
    """
    factors = sorted((u for u in classes if u.m > 0), key=lambda u: (u.m, u.i), reverse=True)
    if not factors:
        return {(0, 1): 1}
    keys = tuple((u.m, u.i) for u in factors)
    if len(keys) == 1:
        return {keys[0]: 1}
    memo = table._vectors
    done = len(keys)
    while done > 2 and keys[:done] not in memo:
        done -= 1
    vec = memo[keys[:done]] if done > 2 else _row(table, factors[0], factors[1])
    for t in range(done, len(keys)):
        g = factors[t]
        nxt: dict = {}
        for (m, i), a in vec.items():
            for idx, c in _row(table, table.entry(m, i), g).items():
                nxt[idx] = nxt.get(idx, 0) + a * c
        vec = {idx: c for idx, c in nxt.items() if c}
        memo[keys[:t + 1]] = vec
    return vec


def characteristic(table: CosetTable, w: CosetEntry, classes) -> int:
    """Coefficient of s_w in the product of the given Schubert classes.

    ``classes`` is a list of coset entries u_1..u_k from the same table with
    total length equal to l(w); zero-length (identity) factors are allowed
    and ignored.
    """
    total = sum(u.m for u in classes)
    if total != w.m:
        raise DegreeMismatch(
            f"classes have total degree {total}, target has length {w.m}"
        )
    return monomial_vector(table, classes).get((w.m, w.i), 0)


def multiply_schubert(table: CosetTable, u: CosetEntry, v: CosetEntry) -> SchubertExpansion:
    """Full expansion s_u * s_v = sum of c^w_{u,v} s_w over length l(u)+l(v)."""
    return SchubertExpansion(u.m + v.m, tuple(sorted(_row(table, u, v).items())))
