"""Structure matrices, the triangular elimination operator, and characteristics.

The characteristic number of a Schubert-class monomial against a target class
w is an integer-valued functional of w's minimized word: build the strictly
upper-triangular structure matrix A_w from negated Cartan entries along the
word, attach to every factor class u the sum of squarefree monomials x_I over
the position subsets I of w's word whose subword multiplies to u, multiply
the factors, and collapse the product with the elimination rules

    i)   for a single variable, c * x_1 evaluates to c;
    ii)  anything free of the top variable evaluates to 0;
    iii) h * x_m^r  ->  h * (a_{1,m} x_1 + ... + a_{m-1,m} x_{m-1})^(r-1)
         with the top row and column of A deleted.

``triangular_operator`` applies the rules to an explicitly expanded
polynomial.  ``characteristic`` evaluates the same functional without ever
expanding the factor product: it keeps the polynomial as a multiset of
multilinear factors, splits each factor by the top variable, and memoizes on
the factor multiset.  Both routes are cross-checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd

from .cartan import CartanMatrix
from .errors import DegreeMismatch, IndexOutOfRange, TruncatedTable
from .polyint import LinearPowerCache
from .weyl import CosetEntry, CosetTable, _apply_gen_vec

_LPC = LinearPowerCache()


@dataclass(frozen=True)
class StructureMatrix:
    """Strictly upper-triangular integer matrix attached to a minimized word."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.rows)

    def column(self, j: int) -> tuple[int, ...]:
        """Entries a_{s,j} for s < j (1-based j): the elimination form for x_j."""
        return tuple(self.rows[s][j - 1] for s in range(j - 1))


def structure_matrix(cartan: CartanMatrix, word) -> StructureMatrix:
    """A_w with a_{s,t} = -c[i_s][i_t] above the diagonal, zero elsewhere."""
    word = tuple(word)
    n = cartan.rank
    for g in word:
        if not 1 <= g <= n:
            raise IndexOutOfRange(f"letter {g} outside 1..{n}")
    m = len(word)
    rows = tuple(
        tuple(-cartan.c(word[s], word[t]) if s < t else 0 for t in range(m))
        for s in range(m)
    )
    return StructureMatrix(rows)


class GradedIntPolynomial:
    """Homogeneous integer polynomial, sparse over exponent tuples."""

    __slots__ = ("num_vars", "degree", "terms")

    def __init__(self, num_vars: int, terms: dict):
        clean = {}
        degree = None
        for exps, coef in terms.items():
            if coef == 0:
                continue
            exps = tuple(exps)
            if len(exps) != num_vars or any(e < 0 for e in exps):
                raise DegreeMismatch(f"bad exponent vector {exps} for {num_vars} variables")
            d = sum(exps)
            if degree is None:
                degree = d
            elif d != degree:
                raise DegreeMismatch("terms do not share one total degree")
            clean[exps] = clean.get(exps, 0) + coef
        self.num_vars = num_vars
        self.degree = degree
        self.terms = {e: c for e, c in clean.items() if c}

    @classmethod
    def squarefree(cls, num_vars: int, positions) -> "GradedIntPolynomial":
        """Monomial x_I for a 1-based position set I."""
        e = [0] * num_vars
        for p in positions:
            e[p - 1] = 1
        return cls(num_vars, {tuple(e): 1})

    def __eq__(self, other):
        return (
            isinstance(other, GradedIntPolynomial)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"GradedIntPolynomial({self.num_vars}, {self.terms!r})"


def triangular_operator(a: StructureMatrix, h) -> int:
    """Evaluate the elimination functional on an expanded polynomial.

    ``h`` is a GradedIntPolynomial (or a raw exponent dict) of degree m in
    m variables where m = a.size; anything else is a DegreeMismatch.
    """
    m = a.size
    if isinstance(h, GradedIntPolynomial):
        if h.num_vars != m:
            raise DegreeMismatch(f"polynomial has {h.num_vars} variables, matrix size {m}")
        if h.degree is not None and h.degree != m:
            raise DegreeMismatch(f"degree {h.degree} != matrix size {m}")
        cur = dict(h.terms)
    else:
        cur = {}
        for e, c in h.items():
            e = tuple(e)
            if len(e) != m or sum(e) != m:
                raise DegreeMismatch(f"term {e} is not degree {m} in {m} variables")
            if c:
                cur[e] = cur.get(e, 0) + c
    for j in range(m, 1, -1):
        v = j - 1
        lcoefs = a.column(j)
        nxt: dict = {}
        for e, c in cur.items():
            r = e[v]
            if r == 0:
                continue
            base = e[:v]
            if r == 1:
                val = nxt.get(base, 0) + c
                if val:
                    nxt[base] = val
                else:
                    del nxt[base]
                continue
            for le, lc in _LPC.power(lcoefs, r - 1).items():
                key = tuple(x + y for x, y in zip(base, le))
                val = nxt.get(key, 0) + c * lc
                if val:
                    nxt[key] = val
                else:
                    del nxt[key]
        cur = nxt
    return cur.get((1,), 0)


# ---------------------------------------------------------------------------
# Factored evaluation of the same functional.
# ---------------------------------------------------------------------------

Form = tuple[tuple[int, int], ...]  # ((bitmask, coef), ...) sorted by mask


def _normalize(terms) -> tuple[int, Form]:
    """Pull out content and sign so equal factors share one memo key."""
    if not terms:
        return 0, ()
    g = 0
    for _, c in terms:
        g = gcd(g, c)
    if terms[0][1] < 0:
        g = -g
    return g, tuple((mask, c // g) for mask, c in terms)


class FactoredEvaluator:
    """Rule-iii elimination on a multiset of multilinear factors.

    A state is the factor multiset of a homogeneous polynomial of degree j in
    the variables x_1..x_j (j is the summed degree), encoded as a sorted
    tuple of (form id << bits | exponent) ints, where ``bits`` is the bit
    length of the word length; no exponent or level exceeds the word length,
    so the fields never overlap.  Splitting every factor
    F = G + x_j*H and distributing the elimination of x_j produces child
    states weighted by binomial coefficients; values are memoized per state,
    and the memo is shared across every characteristic query against the
    same target word.
    """

    def __init__(self, cartan: CartanMatrix, word):
        word = tuple(word)
        self.bits = len(word).bit_length()
        self._forms: list[Form] = []
        self._ids: dict[Form, int] = {}
        self._deg: list[int] = []
        self._supp: list[int] = []
        self._splits: list[dict[int, tuple]] = []
        self._opts: dict = {}
        self.memo: dict = {}
        # interned, content-normalized elimination form per level
        self._level_form: list[tuple[int, int] | None] = [None] * (len(word) + 1)
        # union of elimination-form supports up to each level: a variable
        # missing from every factor and from this mask can never reappear
        self._cover: list[int] = [0] * (len(word) + 1)
        for t, gt in enumerate(word):
            terms = []
            for s in range(t):
                coef = -cartan.c(word[s], gt)
                if coef:
                    terms.append((1 << s, coef))
            supp = 0
            if terms:
                scalar, nf = _normalize(tuple(terms))
                self._level_form[t + 1] = (self.intern(nf), scalar)
                for mask, _ in terms:
                    supp |= mask
            self._cover[t + 1] = self._cover[t] | supp

    def intern(self, form: Form) -> int:
        fid = self._ids.get(form)
        if fid is None:
            fid = len(self._forms)
            self._ids[form] = fid
            self._forms.append(form)
            self._deg.append(form[0][0].bit_count())
            supp = 0
            for mask, _ in form:
                supp |= mask
            self._supp.append(supp)
            self._splits.append({})
        return fid

    def _split(self, fid: int, j: int):
        """F = G + x_j * H with both sides content-normalized and interned.

        Returns (g_id, g_scalar, h_id, h_scalar, h_const); absent pieces are
        id None, and a constant derivative is reported through h_const.
        """
        got = self._splits[fid].get(j)
        if got is not None:
            return got
        vbit = 1 << (j - 1)
        g_terms = []
        h_terms = []
        for mask, c in self._forms[fid]:
            if mask & vbit:
                h_terms.append((mask ^ vbit, c))
            else:
                g_terms.append((mask, c))
        g_id = g_scalar = None
        if g_terms:
            g_scalar, nf = _normalize(tuple(g_terms))
            g_id = self.intern(nf)
        h_id = h_scalar = h_const = None
        if h_terms:
            if len(h_terms) == 1 and h_terms[0][0] == 0:
                h_const = h_terms[0][1]
            else:
                h_scalar, nf = _normalize(tuple(h_terms))
                h_id = self.intern(nf)
        result = (g_id, g_scalar, h_id, h_scalar, h_const)
        self._splits[fid][j] = result
        return result

    def _build_options(self, fid: int, exp: int, j: int):
        """Choices (r, scalar, additions) for one factor power at level j."""
        g_id, g_scalar, h_id, h_scalar, h_const = self._split(fid, j)
        opts = []
        for r in range(exp + 1):
            if r > 0 and h_id is None and h_const is None:
                continue
            if r < exp and g_id is None:
                continue
            scalar = comb(exp, r)
            adds = []
            if r < exp:
                scalar *= g_scalar ** (exp - r)
                adds.append((g_id, exp - r))
            if r > 0:
                if h_const is not None:
                    scalar *= h_const ** r
                else:
                    scalar *= h_scalar ** r
                    adds.append((h_id, r))
            opts.append((r, scalar, tuple(adds)))
        return tuple(opts)

    def evaluate(self, state) -> int:
        """Value of a factor-multiset state; packed key entries (fid << bits | exp)."""
        memo = self.memo
        got = memo.get(state)
        if got is not None:
            return got
        bits = self.bits
        low = (1 << bits) - 1
        deg = self._deg
        j = 0
        for packed in state:
            j += (packed & low) * deg[packed >> bits]
        if j == 1:
            val = 0
            if len(state) == 1 and state[0] & low == 1:
                if self._forms[state[0] >> bits] == ((1, 1),):
                    val = 1
            memo[state] = val
            return val
        ocache = self._opts
        # factors with a single admissible split (typically: the top variable
        # does not occur in them) form a fixed prefix of every child state;
        # only genuinely branching factors enter the product below
        base_r = 0
        base_scalar = 1
        fixed_adds: list = []
        var_opts = []
        for packed in state:
            okey = (packed << bits) | j
            opts = ocache.get(okey)
            if opts is None:
                opts = self._build_options(packed >> bits, packed & low, j)
                ocache[okey] = opts
            if not opts:
                memo[state] = 0
                return 0
            if len(opts) == 1:
                r, s, a = opts[0]
                base_r += r
                base_scalar *= s
                fixed_adds.extend(a)
            else:
                var_opts.append(opts)
        level = self._level_form[j]
        l_id = l_scalar = None
        if level is not None:
            l_id, l_scalar = level
        supp = self._supp
        uncovered = ((1 << (j - 1)) - 1) & ~self._cover[j - 1]
        evaluate = self.evaluate
        # the fixed prefix is shared by every child: pack and sort it once
        prefix: list = []
        prefix_supp = 0
        fixed_adds.sort()
        cur_fid = -1
        for fid, e in fixed_adds:
            if fid == cur_fid:
                prefix[-1] += e
            else:
                prefix.append((fid << bits) | e)
                prefix_supp |= supp[fid]
                cur_fid = fid
        combos = [(base_r, base_scalar, ())]
        for opts in var_opts:
            combos = [
                (big_r + r, scalar * s, extras + a)
                for big_r, scalar, extras in combos
                for r, s, a in opts
            ]
        total = 0
        for big_r, scalar, extras in combos:
            if big_r == 0:
                continue
            if big_r > 1:
                if l_id is None:
                    continue
                if l_scalar != 1:
                    scalar *= l_scalar ** (big_r - 1)
                extras = extras + ((l_id, big_r - 1),)
            lst = prefix.copy()
            child_supp = prefix_supp
            for fid, e in extras:
                child_supp |= supp[fid]
                packed = (fid << bits) | e
                for ii in range(len(lst)):
                    f2 = lst[ii] >> bits
                    if f2 == fid:
                        lst[ii] += e
                        break
                    if f2 > fid:
                        lst.insert(ii, packed)
                        break
                else:
                    lst.append(packed)
            # every variable below the new level must stay reachable, either
            # inside a surviving factor or through a future elimination form
            if uncovered & ~child_supp:
                continue
            child = tuple(lst)
            v = memo.get(child)
            if v is None:
                v = evaluate(child)
            if v:
                total += scalar * v
        memo[state] = total
        return total


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


def _word_cache(table: CosetTable, word) -> dict:
    cache = table._char_cache.get(word)
    if cache is None:
        cache = {
            "eval": FactoredEvaluator(table.cartan, word),
            "masks": {},
        }
        table._char_cache[word] = cache
    return cache


def class_factor_masks(table: CosetTable, w: CosetEntry, u: CosetEntry) -> tuple[int, ...]:
    """Position subsets of w's word whose subword equals u in the Weyl group.

    Returned as ascending bitmasks over the m positions.  The search walks
    w's word from right to left, prepending letters to a partial product x
    that must stay a reduced right factor of u, i.e. l(u x^-1) = l(u) - l(x).
    It carries the single weight-coordinate vector z = x u^-1 rho.  By the
    length criterion l(v s_g) < l(v) iff v(a_g) < 0 (Humphreys, Reflection
    Groups and Coxeter Groups, 1.6-1.7), applied to v = u x^-1, the letter g
    may be prepended iff z_g = <v^-1 rho, a_g^vee> < 0, and z then becomes
    s_g z.  A branch that picks l(u) positions has v = 1, so it spells a
    reduced word of u and needs no final comparison.
    """
    cache = _word_cache(table, w.word)["masks"]
    key = (u.m, u.i)
    got = cache.get(key)
    if got is not None:
        return got
    cartan = table.cartan
    word = w.word
    t = u.m
    z0 = (1,) * cartan.rank
    for g in u.word:
        z0 = _apply_gen_vec(cartan, g, z0)
    out: list[int] = []

    def rec(end: int, depth: int, z, mask: int) -> None:
        if depth == t:
            out.append(mask)
            return
        # positions 0..q-1 must leave room for the t - depth - 1 letters still to pick
        for q in range(end - 1, t - depth - 2, -1):
            g = word[q]
            if z[g - 1] < 0:
                rec(q, depth + 1, _apply_gen_vec(cartan, g, z), mask | (1 << q))

    rec(len(word), 0, z0, 0)
    masks = tuple(sorted(out))
    cache[key] = masks
    return masks


def characteristic(table: CosetTable, w: CosetEntry, classes) -> int:
    """Coefficient of s_w in the product of the given Schubert classes.

    ``classes`` is a list of coset entries u_1..u_k from the same table with
    total length equal to l(w); zero-length (identity) factors are allowed
    and ignored.
    """
    factors = [u for u in classes if u.m > 0]
    total = sum(u.m for u in factors)
    if total != w.m:
        raise DegreeMismatch(
            f"classes have total degree {total}, target has length {w.m}"
        )
    if w.m == 0:
        return 1
    if not table.complete and w.m > table.max_length:
        raise TruncatedTable(f"target length {w.m} beyond max_length={table.max_length}")
    cache = _word_cache(table, w.word)
    evaluator: FactoredEvaluator = cache["eval"]
    parts: dict = {}
    for u in factors:
        masks = class_factor_masks(table, w, u)
        if not masks:
            return 0
        form = tuple((mask, 1) for mask in masks)
        fid = evaluator.intern(form)
        parts[fid] = parts.get(fid, 0) + 1
    state = tuple(sorted((fid << evaluator.bits) | e for fid, e in parts.items()))
    return evaluator.evaluate(state)


def multiply_schubert(table: CosetTable, u: CosetEntry, v: CosetEntry) -> SchubertExpansion:
    """Full expansion s_u * s_v = sum of c^w_{u,v} s_w over length l(u)+l(v)."""
    degree = u.m + v.m
    if not table.complete and degree > table.max_length:
        raise TruncatedTable(
            f"product degree {degree} beyond max_length={table.max_length}"
        )
    terms = []
    for w in table.layer(degree):
        c = characteristic(table, w, [u, v])
        if c:
            terms.append(((degree, w.i), c))
    return SchubertExpansion(degree, tuple(terms))
