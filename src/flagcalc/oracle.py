"""Independent type-A validation path.

Grassmannian Schubert classes are classically indexed by partitions in a
k x (n-k) box, and the structure constants are Littlewood-Richardson
coefficients.  This module recomputes both from first principles (skew
tableau enumeration with a lattice-word check), completely independently of
the elimination-operator route, so the two can be compared triple by triple.
"""

from __future__ import annotations

from itertools import combinations

from .cartan import builtin_cartan
from .errors import NotSingletonK, NotTypeA, OutOfRange
from .weyl import CosetEntry, CosetTable

Partition = tuple[int, ...]


def normalize_partition(parts) -> Partition:
    """Drop trailing zeros; reject increasing or negative part lists."""
    parts = tuple(int(p) for p in parts)
    for a, b in zip(parts, parts[1:]):
        if b > a:
            raise OutOfRange(f"not weakly decreasing: {parts}")
    if parts and parts[-1] < 0:
        raise OutOfRange(f"negative part in {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def grassmannian_shape(table: CosetTable) -> tuple[int, int]:
    """(k, n-k) for a type-A table with singleton K; errors otherwise."""
    n = table.cartan.rank
    expected = builtin_cartan("A", n)
    if table.cartan.entries != expected.entries:
        raise NotTypeA("table was not built from a type-A Cartan matrix")
    if len(table.k_set) != 1:
        raise NotSingletonK(f"K = {sorted(table.k_set)} is not a single node")
    k = next(iter(table.k_set))
    return k, n + 1 - k


def word_to_permutation(word, n: int) -> tuple[int, ...]:
    """One-line permutation of 1..n for a word in the simple transpositions.

    The last letter acts first, matching the composition convention used for
    reflection matrices.
    """
    perm = list(range(1, n + 1))
    for g in word:
        perm[g - 1], perm[g] = perm[g], perm[g - 1]
    return tuple(perm)


def coset_to_partition(table: CosetTable, entry: CosetEntry) -> Partition:
    """Partition of the Grassmannian Schubert class behind a coset entry."""
    k, width = grassmannian_shape(table)
    n = table.cartan.rank + 1
    perm = word_to_permutation(entry.word, n)
    lam = []
    for i in range(1, k + 1):
        lam.append(perm[k - i] - (k + 1 - i))
    lam = normalize_partition(lam)
    if lam and lam[0] > width:
        raise OutOfRange(f"partition {lam} escapes the {k}x{width} box")
    return lam


def partition_to_entry(table: CosetTable, lam) -> CosetEntry:
    """Inverse of coset_to_partition, by scanning the degree layer."""
    lam = normalize_partition(lam)
    size = sum(lam)
    for entry in table.layer(size):
        if coset_to_partition(table, entry) == lam:
            return entry
    raise OutOfRange(f"no class for partition {lam}")


def lr_coefficient(lam, mu, nu) -> int:
    """Littlewood-Richardson coefficient c^nu_{lam,mu} by brute enumeration.

    Counts semistandard skew tableaux of shape nu/lam and content mu whose
    reverse reading word is a lattice word.  Size or containment mismatches
    simply yield 0, the count of an empty set.
    """
    lam, mu, nu = normalize_partition(lam), normalize_partition(mu), normalize_partition(nu)
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    rows = len(nu)
    lam_pad = lam + (0,) * (rows - len(lam))
    if len(lam) > rows or any(lam_pad[i] > nu[i] for i in range(rows)):
        return 0
    if not mu:
        return 1 if lam == nu else 0
    values = len(mu)
    # cells in reverse reading order: rows top to bottom, right to left
    cells = []
    for r in range(rows):
        for c in range(nu[r] - 1, lam_pad[r] - 1, -1):
            cells.append((r, c))
    grid = [[0] * nu[r] for r in range(rows)]
    counts = [0] * (values + 1)
    total = 0

    def fill(pos: int) -> None:
        nonlocal total
        if pos == len(cells):
            total += 1
            return
        r, c = cells[pos]
        lo = 1
        hi = values
        if c + 1 < nu[r] and grid[r][c + 1]:
            hi = min(hi, grid[r][c + 1])  # weakly increasing along the row
        if r > 0 and c < nu[r - 1] and grid[r - 1][c]:
            lo = max(lo, grid[r - 1][c] + 1)  # strictly increasing down columns
        for v in range(lo, hi + 1):
            if counts[v] >= mu[v - 1]:
                continue
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue  # lattice word prefix condition
            counts[v] += 1
            grid[r][c] = v
            fill(pos + 1)
            grid[r][c] = 0
            counts[v] -= 1

    fill(0)
    return total


def pieri(lam, r: int, box: tuple[int, int]):
    """Column-class Pieri step: add r boxes to lam, no two in one row.

    Returns the sorted list of resulting partitions inside the k x (n-k) box.
    """
    k, width = box
    lam = normalize_partition(lam)
    if not 1 <= r <= k:
        raise OutOfRange(f"column class index {r} outside 1..{k}")
    lam_pad = list(lam) + [0] * (k - len(lam))
    out = set()
    for rows in combinations(range(k), r):
        nu = lam_pad[:]
        for i in rows:
            nu[i] += 1
        if nu[0] > width:
            continue
        if all(nu[i] >= nu[i + 1] for i in range(k - 1)):
            out.add(normalize_partition(nu))
    return sorted(out, reverse=True)


def borel_inverse_components(k: int, n: int):
    """Degree n-k+1 .. n components of the inverse of 1 + c_1 + ... + c_k.

    Each component is a sparse polynomial over exponent tuples in c_1..c_k,
    built by the recursion inv[j] = -sum_i c_i * inv[j-i].  Every term of
    exponent e has the sign (-1)^|e|, so no sum cancels and no zero is kept.
    """
    if not 1 <= k < n:
        raise OutOfRange(f"need 1 <= k < n, got k={k} n={n}")
    zero = (0,) * k
    inv: list[dict] = [{zero: 1}]
    for j in range(1, n + 1):
        acc: dict = {}
        for i in range(1, min(j, k) + 1):
            for exps, coef in inv[j - i].items():
                e = list(exps)
                e[i - 1] += 1
                key = tuple(e)
                acc[key] = acc.get(key, 0) - coef
        inv.append(acc)
    return [inv[j] for j in range(n - k + 1, n + 1)]
