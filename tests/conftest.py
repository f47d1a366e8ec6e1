import io
import json
import pathlib
import sys
from dataclasses import dataclass

import pytest

from flagcalc import builtin_cartan, enumerate_cosets

DATA = pathlib.Path(__file__).parent / "data"


def load_data(name):
    with open(DATA / name) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Reference helpers, independent of the code under test: the Hermite normal
# form decides lattice membership and equality, and ``poly_mul`` multiplies
# sparse polynomials {exponent tuple: nonzero coefficient}.
# ---------------------------------------------------------------------------


def hnf_rows(rows, cols: int | None = None) -> list[list[int]]:
    """Canonical row-style Hermite normal form of the lattice spanned by rows.

    Pivots are positive, entries above each pivot reduced to 0 <= x < pivot;
    two row sets span the same lattice iff their forms are equal lists.
    """
    if cols is None:
        cols = len(rows[0]) if rows else 0
    work = [list(r) for r in rows if any(r)]
    basis: list[list[int]] = []
    for col in range(cols):
        carrier = None
        rest = []
        for r in work:
            if r[col]:
                if carrier is None:
                    carrier = r
                else:
                    a, b = carrier[col], r[col]
                    while b:
                        qq = a // b
                        carrier, r = r, [x - qq * y for x, y in zip(carrier, r)]
                        a, b = carrier[col], r[col]
                    if any(r):
                        rest.append(r)
            else:
                if any(r):
                    rest.append(r)
        if carrier is not None:
            if carrier[col] < 0:
                carrier = [-x for x in carrier]
            basis.append(carrier)
        work = rest
    # reduce above pivots; ascending order so later steps cannot disturb
    # columns already canonicalized (they only touch columns further right)
    for idx in range(len(basis)):
        pivot_col = next(c for c in range(cols) if basis[idx][c])
        pv = basis[idx][pivot_col]
        for up in range(idx):
            k = basis[up][pivot_col] // pv
            if k:
                basis[up] = [a - k * b for a, b in zip(basis[up], basis[idx])]
    return basis


def lattice_contains(hnf_basis: list[list[int]], vec) -> bool:
    """Membership of a vector in the row lattice given by its HNF basis."""
    v = list(vec)
    for row in hnf_basis:
        pivot_col = next((c for c in range(len(row)) if row[c]), None)
        if pivot_col is None:
            continue
        if v[pivot_col] % row[pivot_col]:
            return False
        k = v[pivot_col] // row[pivot_col]
        if k:
            v = [a - k * b for a, b in zip(v, row)]
    return not any(v)


def lattice_equal(rows_a, rows_b, cols: int) -> bool:
    return hnf_rows(rows_a, cols) == hnf_rows(rows_b, cols)


def poly_mul(a: dict, b: dict) -> dict:
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            v = out.get(e, 0) + ca * cb
            if v:
                out[e] = v
            else:
                del out[e]
    return out


# ---------------------------------------------------------------------------
# An in-process CLI runner: ``CliRunner().invoke(main, args, input=...)``
# runs ``main`` with stdin, stdout and stderr swapped for memory buffers and
# returns what it wrote and how it exited.
# ---------------------------------------------------------------------------


class _Capture(io.StringIO):
    """One stream's buffer; every write also goes to the shared output."""

    def __init__(self, output: io.StringIO):
        super().__init__()
        self.output = output

    def write(self, text):
        self.output.write(text)
        return super().write(text)


@dataclass
class CliResult:
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved in the order written
    exception: BaseException | None

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode()


class CliRunner:
    def invoke(self, main, args=(), input: str | None = None) -> CliResult:
        output = io.StringIO()
        out, err = _Capture(output), _Capture(output)
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(input or ""), out, err
        exception = None
        try:
            main(args=list(args))
            exit_code = 0
        except SystemExit as exc:
            exit_code = exc.code or 0
            exception = exc if exit_code else None
        except Exception as exc:
            exception, exit_code = exc, 1
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        return CliResult(exit_code, out.getvalue(), err.getvalue(), output.getvalue(),
                         exception)


@pytest.fixture(scope="session")
def g94():
    """Grassmannian G_{9,4}: type A8, K={4}, 126 classes."""
    return enumerate_cosets(builtin_cartan("A", 8), {4})


@pytest.fixture(scope="session")
def g94_len8():
    return enumerate_cosets(builtin_cartan("A", 8), {4}, max_length=8)


@pytest.fixture(scope="session")
def g42():
    return enumerate_cosets(builtin_cartan("A", 3), {2})


@pytest.fixture(scope="session")
def g52():
    return enumerate_cosets(builtin_cartan("A", 4), {2})


@pytest.fixture(scope="session")
def g63():
    return enumerate_cosets(builtin_cartan("A", 5), {3})


@pytest.fixture(scope="session")
def b2t():
    return enumerate_cosets(builtin_cartan("B", 2), {1, 2})


@pytest.fixture(scope="session")
def g2t():
    return enumerate_cosets(builtin_cartan("G", 2), {1, 2})


@pytest.fixture(scope="session")
def e6p2():
    """E6 modulo the parabolic subgroup of node 2; 72 classes, top degree 21."""
    return enumerate_cosets(builtin_cartan("E", 6), {2})


@pytest.fixture(scope="session")
def cp3():
    return enumerate_cosets(builtin_cartan("A", 3), {1})
