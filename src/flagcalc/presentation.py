"""Ring presentations of H*(G/P) and Schubert polynomials.

Everything is degree-by-degree integer lattice work, on one algorithm: the
Smith normal form of ``intlinalg``.  The expansion matrix of degree m writes
each monomial in the chosen generators as an integer vector over the
Schubert basis of that degree (read from ``monomial_vector``).  Its Smith
form decides which generators are chosen (a class is adjoined when its unit
vector is not in the lattice of the rows), checks that they span the full
lattice (``SNFResult.spans``), gives the kernel, in which the relations are
a degreewise-minimal generating set, and inverts the matrix into the
Schubert polynomials.

The three steps read one record per degree: the expansion matrix in a given
generator set and its Smith form, memoized on the table (``_degree``), so
the transforms replayed by one step are there for the next.  Readers share
the record and must not mutate it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .characteristics import monomial_vector
from .errors import NonSurjective, OutOfRange
from .intlinalg import SNFResult, _combine, smith_normal_form
from .weyl import CosetEntry, CosetTable


@dataclass(frozen=True)
class GeneratorSet:
    """Special Schubert classes chosen as ring generators, ascending degree."""

    entries: tuple[CosetEntry, ...]

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(e.m for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def names(self) -> tuple[str, ...]:
        return tuple(f"y{i + 1}" for i in range(len(self.entries)))


@dataclass(frozen=True)
class ExpansionMatrix:
    """Rows: generator monomials of one degree; columns: Schubert classes.

    ``beta`` is the number of Schubert classes of the degree, also when no
    monomial has that degree and there are no rows.
    """

    degree: int
    monomials: tuple[tuple[int, ...], ...]
    rows: tuple[tuple[int, ...], ...]
    beta: int

    @property
    def b(self) -> int:
        return len(self.monomials)


@dataclass(frozen=True)
class Relation:
    """One relation polynomial: sorted ((exponents, coefficient), ...)."""

    degree: int
    terms: tuple[tuple[tuple[int, ...], int], ...]


@dataclass(frozen=True)
class Presentation:
    generators: GeneratorSet
    relations: tuple[Relation, ...]
    bound: int


@dataclass(frozen=True)
class SchubertPolynomial:
    """Polynomial in the generators mapping exactly onto one Schubert class."""

    degree: int
    index: int
    terms: tuple[tuple[tuple[int, ...], int], ...]


def monomial_basis(degrees, m: int) -> list[tuple[int, ...]]:
    """Exponent vectors of weighted degree m, in descending lexicographic order
    (each exponent runs down from its largest value, so nothing is sorted)."""
    partial = [((), m)]
    for d in degrees:
        partial = [(p + (e,), left - e * d)
                   for p, left in partial for e in range(left // d, -1, -1)]
    return [p for p, left in partial if left == 0]


def expansion_matrix(table: CosetTable, gens: GeneratorSet, m: int) -> ExpansionMatrix:
    """The b(m) x beta(m) integer matrix of pi_m on the monomial basis."""
    if m < 0:
        raise OutOfRange(f"degree must be nonnegative, got {m}")
    # the layer first: past a truncated bound it refuses before the basis is built
    layer = table.layer(m)
    monomials = tuple(monomial_basis(gens.degrees, m))
    rows = []
    for exps in monomials:
        classes = [g for g, e in zip(gens.entries, exps) for _ in range(e)]
        vec = monomial_vector(table, classes)
        rows.append(tuple(vec.get((m, w.i), 0) for w in layer))
    return ExpansionMatrix(m, monomials, tuple(rows), len(layer))


def _degree(table: CosetTable, gens: GeneratorSet, m: int) -> tuple[ExpansionMatrix, SNFResult]:
    """The expansion matrix of degree m in ``gens`` and its Smith form, memoized."""
    key = (gens.entries, m)
    record = table._degrees.get(key)
    if record is None:
        matrix = expansion_matrix(table, gens, m)
        record = table._degrees[key] = (matrix, smith_normal_form(matrix.rows))
    return record


def find_generators(table: CosetTable, max_degree: int | None = None) -> GeneratorSet:
    """Minimal special Schubert classes spanning every degree up to the bound.

    Degree by degree, the Smith form of the expansion matrix in the
    generators found so far tells whether their monomials span the Schubert
    lattice.  While they do not, the basis classes are scanned in index
    order and each one whose unit vector is not in the lattice of the rows
    is adjoined, its unit vector appended and the Smith form taken again
    (only the first form of a degree is the table's degree record).
    The lattice only grows, so a class passed over stays inside it and the
    scan goes on from the next index.
    """
    if max_degree is None:
        table.require_complete("find_generators without explicit max_degree")
        max_degree = table.top_length
    if max_degree < 0:
        raise OutOfRange(f"max_degree must be nonnegative, got {max_degree}")
    table.layer(max_degree)  # past a truncated bound: refused before any degree
    chosen: list[CosetEntry] = []
    # the layers above the top are empty and need no generator
    for m in range(1, min(max_degree, table.top_length) + 1):
        matrix, snf = _degree(table, GeneratorSet(tuple(chosen)), m)
        beta = matrix.beta
        rows = matrix.rows
        for i in range(beta):
            if snf.spans(beta):
                break
            unit = tuple(1 if j == i else 0 for j in range(beta))
            if not snf.contains(unit):
                chosen.append(table.entry(m, i + 1))
                rows = (*rows, unit)
                snf = smith_normal_form(rows)
    return GeneratorSet(tuple(chosen))


def generator_set_from_words(table: CosetTable, words) -> GeneratorSet:
    """Build a GeneratorSet from explicit class words, ascending degree.

    find_generators makes one canonical choice; this constructor admits any
    other valid system of special Schubert classes (the spanning checks in
    find_relations and schubert_polynomials still apply).
    """
    entries = [table.lookup_word(w) for w in words]
    entries.sort(key=lambda e: (e.m, e.i))
    return GeneratorSet(tuple(entries))


def _relation_multiples(relations, degrees, m: int, index_of: dict):
    """{monomial * f} for known relations f, as sparse (index, coef) vectors over B(m)."""
    out = []
    for rel in relations:
        for mono in monomial_basis(degrees, m - rel.degree):
            out.append([(index_of[tuple(x + y for x, y in zip(exps, mono))], coef)
                        for exps, coef in rel.terms])
    return out


def _relation_terms(vec, monomials):
    """Terms in canonical monomial order, sign fixed so the leader is positive."""
    terms = [(monomials[i], c) for i, c in enumerate(vec) if c]
    if terms[0][1] < 0:
        terms = [(e, -c) for e, c in terms]
    return tuple(terms)


def find_relations(table: CosetTable, gens: GeneratorSet,
                   max_degree: int | None = None) -> Presentation:
    """Degreewise-minimal generating set of the relation ideal up to a bound.

    At each degree one Smith normal form P @ M @ Q = D of the expansion
    matrix checks that the generators span the Schubert basis (a degree
    with Schubert classes but no monomial is not spanned) and gives the
    kernel lattice (the trailing rows of P).  Each multiple z of a
    lower-degree relation is written in that basis as z @ P^-1, whose
    leading ``rank`` entries must vanish and whose trailing entries are its
    unique kernel coordinates (no lattice solve is needed).  The quotient's
    minimal generators (one per nontrivial invariant factor of the
    inclusion, found through a second Smith normal form) are adjoined as
    new relations.
    """
    if max_degree is None:
        table.require_complete("find_relations without explicit max_degree")
        max_degree = table.top_length
    if max_degree < 0:
        raise OutOfRange(f"max_degree must be nonnegative, got {max_degree}")
    degrees = gens.degrees
    relations: list[Relation] = []
    # above top + (largest generator degree) every monomial is a generator
    # times a monomial above the top, which is already in the ideal: the
    # relation multiples span each such degree and nothing is adjoined
    last = min(max_degree, table.top_length + max(degrees, default=0))
    for m in range(1, last + 1):
        # one SNF gives both the surjectivity check and the left kernel
        # (for beta == 0 it is P = I with rank 0: every monomial is a relation)
        matrix, snf = _degree(table, gens, m)
        monomials = matrix.monomials
        b = matrix.b
        index_of = {e: i for i, e in enumerate(monomials)}
        if not snf.spans(matrix.beta):
            raise NonSurjective(f"generators do not span the Schubert basis at degree {m}")
        rank = snf.rank
        kernel = snf.p[rank:]
        if not kernel:
            continue
        old = _relation_multiples(relations, degrees, m, index_of)
        # rows of a unimodular P, or unimodular combinations of them: never zero
        new_vecs = kernel
        if old:
            # coordinates of the old sublattice inside the kernel lattice
            p_inv = snf.p_inv
            coords = []
            for z in old:
                y = _combine(((c, p_inv[k]) for k, c in z), b)
                if any(y[:rank]):
                    raise NonSurjective(
                        f"degree-{m} relation multiple escapes the kernel lattice"
                    )  # pragma: no cover
                coords.append(y[rank:])
            res = smith_normal_form(coords)
            diag = res.diagonal
            # primed kernel basis rows (Q^-1 @ kernel) whose invariant
            # factor is not 1
            new_vecs = [_combine(zip(res.q_inv[idx], kernel), b) for idx in range(len(kernel))
                        if idx >= len(diag) or diag[idx] != 1]
        batch = [Relation(m, _relation_terms(vec, monomials)) for vec in new_vecs]
        batch.sort(key=lambda r: r.terms[0][0], reverse=True)
        relations.extend(batch)
    return Presentation(gens, tuple(relations), max_degree)


def schubert_polynomials(table: CosetTable, gens: GeneratorSet, m: int) -> list[SchubertPolynomial]:
    """One polynomial per degree-m Schubert class, verified by re-expansion."""
    if table.complete and m > table.top_length:
        return []  # an empty layer; its monomial basis may be huge
    matrix, snf = _degree(table, gens, m)
    beta = matrix.beta
    if not snf.spans(beta):
        raise NonSurjective(f"expansion matrix not onto at degree {m}")
    p, q = snf.p, snf.q
    # coefficients of the polynomials over the monomial basis: Q @ P[:beta]
    coeff = [_combine(zip(q[i], p), matrix.b) for i in range(beta)]
    out = []
    for i in range(beta):
        # verify pi(G) = s_{m,i+1} exactly, by re-expansion through the matrix
        image = _combine(zip(coeff[i], matrix.rows), beta)
        expected = [1 if col == i else 0 for col in range(beta)]
        if image != expected:
            raise NonSurjective(
                f"diagonalization did not invert the expansion at degree {m}"
            )  # pragma: no cover
        terms = tuple(
            (matrix.monomials[r], coeff[i][r]) for r in range(matrix.b) if coeff[i][r]
        )
        out.append(SchubertPolynomial(m, i + 1, terms))
    return out
