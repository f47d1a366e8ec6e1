"""Command-line interface.

Subcommands mirror the library: decompose (coset tables), char and multiply
(characteristic numbers and basis expansions), present and schubpoly (ring
presentations and Schubert polynomials), oracle (type-A cross-validation),
and batch (one query per stdin line, one result line each).

Exit codes: 0 success, 1 computation error, 2 usage error, 3 resource limit.

Each command imports the library modules it calls, so a process loads only
what its command needs.
"""

from __future__ import annotations

import csv as _csv
import io
import json
import re
import shlex
import sys
from typing import TYPE_CHECKING

import click

from . import __version__
from .errors import DegreeMismatch, FlagcalcError, OutOfRange, ResourceLimit

if TYPE_CHECKING:
    from .cartan import CartanMatrix
    from .presentation import GeneratorSet
    from .weyl import CosetEntry, CosetTable


def _fail(exc: FlagcalcError) -> None:
    click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
    sys.exit(3 if isinstance(exc, ResourceLimit) else 1)


def group_options(f):
    f = click.option("--group", "group_label", metavar="NAME",
                     help="Builtin group, e.g. A8, E6, G2.")(f)
    f = click.option("--cartan-file", type=click.Path(exists=True, dir_okay=False),
                     help="JSON file {\"rank\": n, \"entries\": [[...]]} .")(f)
    f = click.option("--k", "k_spec", metavar="K", required=True,
                     help="Parabolic subset: comma-separated nodes, or 'all'.")(f)
    f = click.option("--max-len", type=int, default=None,
                     help="Truncate the coset table at this length.")(f)
    f = click.option("--limit", type=int, default=None,
                     help="Refuse enumerations beyond this many cosets.")(f)
    return f


def _resolve_cartan(group_label, cartan_file) -> CartanMatrix:
    if (group_label is None) == (cartan_file is None):
        raise click.UsageError("provide exactly one of --group or --cartan-file")
    from .cartan import from_json, parse_group_label
    if group_label is not None:
        return parse_group_label(group_label)
    with open(cartan_file) as fh:
        return from_json(json.load(fh))


def _resolve_k(k_spec: str, rank: int) -> frozenset[int]:
    if k_spec.strip().lower() == "all":
        return frozenset(range(1, rank + 1))
    # nodes are comma separated; spaces may pad a node, not split one
    nodes = [x.split() for x in k_spec.split(",")]
    try:
        if any(len(x) != 1 for x in nodes):
            raise ValueError
        return frozenset(int(x[0]) for x in nodes)
    except ValueError:
        raise click.UsageError(f"cannot parse K specifier {k_spec!r}")


def _load_table(group_label, cartan_file, k_spec, max_len, limit) -> CosetTable:
    from .weyl import enumerate_cosets
    cartan = _resolve_cartan(group_label, cartan_file)
    k_set = _resolve_k(k_spec, cartan.rank)
    kwargs = {} if limit is None else {"limit": limit}
    return enumerate_cosets(cartan, k_set, max_len, **kwargs)


def _echo_table(table: CosetTable, fmt: str) -> None:
    """Write a coset table one layer at a time.

    json is the ``coset-table/1`` document exactly as ``json.dumps`` prints
    it, and csv exactly what ``csv.writer`` writes, built without holding a
    dict per entry.
    """
    if fmt == "json":
        head = json.dumps({
            "schema": "coset-table/1",
            "group": table.cartan.label or table.cartan.to_json(),
            "cartan": table.cartan.to_json(),
            "K": sorted(table.k_set),
            "max_length": table.max_length,
        })
        click.echo(head[:-1] + ', "entries": [', nl=False)
        sep = ""
        for layer in table.layers:
            click.echo(sep + ", ".join(
                f'{{"m": {e.m}, "i": {e.i}, "word": [{", ".join(map(str, e.word))}]}}'
                for e in layer), nl=False)
            sep = ", "
        click.echo("]}")
    elif fmt == "csv":
        buf = io.StringIO()
        writer = _csv.writer(buf)
        writer.writerow(["m", "i", "word"])
        for layer in table.layers:
            writer.writerows((e.m, e.i, " ".join(map(str, e.word))) for e in layer)
            click.echo(buf.getvalue(), nl=False)
            buf.seek(0)
            buf.truncate()
    else:
        for layer in table.layers[1:]:
            click.echo("\n".join(f"w_{{{e.m},{e.i}}} = [{', '.join(map(str, e.word))}]"
                                  for e in layer))


_TOKEN_RE = re.compile(
    r"(c\d+|y\d+|\[[\d,\s]*\]|\(\s*\d+\s*,\s*\d+\s*\)|part:[\d,]+)(?:[\^x](\d+))?"
)


def parse_classes(table: CosetTable, spec: str) -> list[CosetEntry]:
    """Expand a class-monomial specifier into a list of table entries.

    Factors are whitespace separated; each is c<r> (type-A single-K column
    class), y<d> (d-th canonical generator), [i,j,...] (word), (m,i) (index)
    or part:a,b,... (type-A partition), optionally raised with ^e (x e is
    accepted as an alternate power spelling).
    """
    out: list[CosetEntry] = []
    degree = 0
    rest = spec.strip()
    pos = 0
    while pos < len(rest):
        if rest[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(rest, pos)
        if not match:
            raise click.UsageError(f"cannot parse class specifier at {rest[pos:]!r}")
        entry = _resolve_class(table, match.group(1))
        # a power with more digits than the longest length + 1 reads as
        # that length + 1, which the degree check refuses all the same; so
        # a power too long for int() never reaches it
        cap = table.top_length + 1
        digits = (match.group(2) or "1").lstrip("0")
        power = cap if len(digits) > len(str(cap)) else int(digits or "0")
        # refuse an impossible degree before building the list, so a huge
        # power costs nothing; a zero-length factor is the unit, kept once
        degree += entry.m * power
        if degree > table.top_length:
            raise DegreeMismatch(f"classes have total degree at least {degree}, "
                                 f"beyond the table's longest length {table.top_length}")
        out.extend([entry] * (power if entry.m else min(power, 1)))
        pos = match.end()
    if not out:
        raise click.UsageError("empty class specifier")
    return out


def _int(text: str) -> int:
    """A number of the class grammar; one too long for int() is a usage error."""
    try:
        return int(text)
    except ValueError:
        raise click.UsageError(
            f"a number of {len(text.strip())} digits in a class specifier is too long")


def _resolve_class(table: CosetTable, token: str) -> CosetEntry:
    """One class from a single token of ``parse_classes``' grammar, unpowered."""
    match = _TOKEN_RE.fullmatch(token.strip())
    if not match:
        raise click.UsageError(f"cannot parse class {token!r}")
    if match.group(2):
        raise click.UsageError(f"{token!r} is a power; a single class is expected")
    token = match.group(1)
    if token.startswith("c"):
        r = _int(token[1:])
        if len(table.k_set) != 1:
            raise click.UsageError("c<r> shorthand needs a singleton K")
        k = next(iter(table.k_set))
        if not 1 <= r <= k:
            raise click.UsageError(f"c{r} outside 1..{k}")
        return table.lookup_word(tuple(range(k - r + 1, k + 1)))
    if token.startswith("y"):
        from .presentation import find_generators
        d = _int(token[1:])
        if d < 1:
            raise click.UsageError(f"y{d}: generators are numbered from 1")
        bound = table.top_length if table.complete else table.max_length
        for md in range(1, bound + 1):
            gens = find_generators(table, md)
            if len(gens) >= d:
                return gens.entries[d - 1]
        raise click.UsageError(f"table has fewer than {d} generators")
    if token.startswith("["):
        # letters are comma separated; spaces may pad a letter, not split one
        letters = [x.split() for x in token[1:-1].split(",")]
        if any(len(x) > 1 for x in letters):
            raise click.UsageError(f"cannot parse word {token!r}: separate letters by commas")
        return table.lookup_word([_int(x[0]) for x in letters if x])
    if token.startswith("part:"):
        from .oracle import partition_to_entry
        parts = [_int(x) for x in token[5:].split(",") if x]
        return partition_to_entry(table, parts)
    m, i = (_int(x) for x in token[1:-1].split(","))
    return table.entry(m, i)


def _resolve_target(table: CosetTable, spec: str) -> CosetEntry:
    spec = spec.strip()
    if spec == "top":
        from .weyl import top_element
        word, length = top_element(table)
        return table.entry(length, 1)
    return _resolve_class(table, spec)


class _Main(click.Group):
    """The top-level group: a domain error from any command goes to ``_fail``."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except FlagcalcError as exc:
            _fail(exc)


@click.group(cls=_Main)
@click.version_option(__version__)
def main() -> None:
    """Exact Schubert calculus on flag manifolds from Cartan matrix data."""


@main.command()
@group_options
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]),
              default="text")
def decompose(group_label, cartan_file, k_spec, max_len, limit, fmt):
    """Enumerate minimal coset representatives with minimized words."""
    _echo_table(_load_table(group_label, cartan_file, k_spec, max_len, limit), fmt)


@main.command()
@group_options
@click.option("--w", "w_spec", default="top", metavar="CLASS",
              help="Target class: top, (m,i), [word], c<r>, y<d>.")
@click.option("--classes", "classes_spec", required=True, metavar="MONOMIAL",
              help="Whitespace-separated class factors, e.g. \"c1^3 c2^2\".")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]),
              default="text")
def char(group_label, cartan_file, k_spec, max_len, limit,
         w_spec, classes_spec, fmt):
    """Characteristic number of a Schubert-class monomial against a class."""
    from .characteristics import characteristic
    table = _load_table(group_label, cartan_file, k_spec, max_len, limit)
    w = _resolve_target(table, w_spec)
    classes = parse_classes(table, classes_spec)
    value = characteristic(table, w, classes)
    if fmt == "json":
        click.echo(json.dumps({
            "schema": "characteristic/1",
            "w": {"m": w.m, "i": w.i, "word": list(w.word)},
            "classes": classes_spec,
            "value": value,
        }))
    elif fmt == "csv":
        click.echo("classes,value")
        click.echo(f"\"{classes_spec}\",{value}")
    else:
        click.echo(f"{classes_spec} = {value}")


@main.command()
@group_options
@click.option("--u", "u_spec", required=True, metavar="CLASS")
@click.option("--v", "v_spec", required=True, metavar="CLASS")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]),
              default="text")
def multiply(group_label, cartan_file, k_spec, max_len, limit,
             u_spec, v_spec, fmt):
    """Expand the product of two Schubert classes in the Schubert basis."""
    from .characteristics import multiply_schubert
    table = _load_table(group_label, cartan_file, k_spec, max_len, limit)
    u = _resolve_class(table, u_spec)
    v = _resolve_class(table, v_spec)
    expansion = multiply_schubert(table, u, v)
    if fmt == "json":
        terms = [
            {"m": m, "i": i, "word": list(table.entry(m, i).word), "coef": c}
            for (m, i), c in expansion.terms
        ]
        click.echo(json.dumps({
            "schema": "expansion/1",
            "degree": expansion.degree,
            "terms": terms,
        }))
    elif fmt == "csv":
        click.echo("m,i,coef")
        for (m, i), c in expansion.terms:
            click.echo(f"{m},{i},{c}")
    else:
        if not expansion.terms:
            click.echo("0")
        for (m, i), c in expansion.terms:
            word = table.entry(m, i).word
            click.echo(f"w_{{{m},{i}}} [{', '.join(map(str, word))}]: {c}")


def _poly_text(terms, names) -> str:
    chunks = []
    for exps, coef in terms:
        factors = []
        for idx, e in enumerate(exps):
            if e == 1:
                factors.append(names[idx])
            elif e > 1:
                factors.append(f"{names[idx]}^{e}")
        mono = "*".join(factors) if factors else "1"
        if coef == 1:
            body = mono
        elif coef == -1:
            body = f"-{mono}"
        else:
            body = f"{coef}*{mono}"
        if chunks and not body.startswith("-"):
            chunks.append(f"+ {body}")
        elif chunks:
            chunks.append(f"- {body[1:]}")
        else:
            chunks.append(body)
    return " ".join(chunks) if chunks else "0"


def _presentation_json(gens: GeneratorSet, relations, bound: int) -> dict:
    return {
        "schema": "presentation/1",
        "generators": [{"degree": e.m, "word": list(e.word)} for e in gens.entries],
        "relations": [
            {
                "degree": rel.degree,
                "terms": [{"exps": list(exps), "coef": coef} for exps, coef in rel.terms],
            }
            for rel in relations
        ],
        "bound": bound,
    }


@main.command()
@group_options
@click.option("--max-deg", type=int, default=None,
              help="Certify the presentation up to this degree (default: top).")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def present(group_label, cartan_file, k_spec, max_len, limit, max_deg, fmt):
    """Generators and relations of the intersection ring, degree-bounded."""
    from .presentation import find_generators, find_relations
    table = _load_table(group_label, cartan_file, k_spec, max_len, limit)
    bound = max_deg if max_deg is not None else table.top_length
    gens = find_generators(table, bound)
    pres = find_relations(table, gens, bound)
    if fmt == "json":
        click.echo(json.dumps(_presentation_json(gens, pres.relations, bound)))
        return
    names = gens.names()
    click.echo("generators:")
    for name, e in zip(names, gens.entries):
        click.echo(f"  {name} = s_{{{e.m},{e.i}}} [{', '.join(map(str, e.word))}]")
    click.echo(f"relations (complete through degree {bound}):")
    if not pres.relations:
        click.echo("  none")
    for rel in pres.relations:
        click.echo(f"  degree {rel.degree}: {_poly_text(rel.terms, names)}")


@main.command()
@group_options
@click.option("--deg", type=int, required=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def schubpoly(group_label, cartan_file, k_spec, max_len, limit, deg, fmt):
    """Schubert polynomials of every class in one degree."""
    from .presentation import find_generators, schubert_polynomials
    table = _load_table(group_label, cartan_file, k_spec, max_len, limit)
    if deg < 0:
        raise OutOfRange(f"--deg must be nonnegative, got {deg}")
    gens = find_generators(table, deg)
    polys = schubert_polynomials(table, gens, deg)
    if fmt == "json":
        click.echo(json.dumps({
            "schema": "schubert-polynomials/1",
            "degree": deg,
            "generators": [{"degree": e.m, "word": list(e.word)} for e in gens.entries],
            "polynomials": [
                {
                    "index": sp.index,
                    "terms": [{"exps": list(exps), "coef": coef}
                              for exps, coef in sp.terms],
                }
                for sp in polys
            ],
        }))
        return
    names = gens.names()
    for sp in polys:
        click.echo(f"G_{{{deg},{sp.index}}} = {_poly_text(sp.terms, names)}")


@main.group()
def oracle() -> None:
    """Independent type-A validation tools."""


@oracle.command()
@click.option("--lam", required=True, metavar="PARTS")
@click.option("--mu", required=True, metavar="PARTS")
@click.option("--nu", required=True, metavar="PARTS")
def lr(lam, mu, nu):
    """Littlewood-Richardson coefficient by brute tableau enumeration."""
    from .oracle import lr_coefficient

    def parse(s):
        try:
            return tuple(int(x) for x in s.split(",") if x)
        except ValueError:
            raise click.UsageError(f"cannot parse partition {s!r}")
    click.echo(str(lr_coefficient(parse(lam), parse(mu), parse(nu))))


@oracle.command()
@group_options
def crosscheck(group_label, cartan_file, k_spec, max_len, limit):
    """Compare every pairwise product against the Littlewood-Richardson rule."""
    from .characteristics import multiply_schubert
    from .oracle import coset_to_partition, lr_coefficient
    table = _load_table(group_label, cartan_file, k_spec, max_len, limit)
    entries = list(table.entries())
    checked = 0
    for a, u in enumerate(entries):
        for v in entries[a:]:
            if u.m + v.m > table.top_length:
                continue
            expansion = multiply_schubert(table, u, v).as_dict()
            lam, mu = coset_to_partition(table, u), coset_to_partition(table, v)
            for w in table.layer(u.m + v.m):
                nu = coset_to_partition(table, w)
                expected = lr_coefficient(lam, mu, nu)
                got = expansion.get((w.m, w.i), 0)
                checked += 1
                if expected != got:
                    click.echo(
                        f"MISMATCH at {lam} * {mu} -> {nu}: "
                        f"characteristic {got}, oracle {expected}"
                    )
                    sys.exit(1)
    click.echo(f"PASS ({checked} coefficients compared)")


@main.command()
def batch():
    """Run one query per stdin line (char, multiply, oracle lr), one line out."""
    failures = 0
    for line in sys.stdin:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            main.main(args=shlex.split(line), standalone_mode=False)
        except (FlagcalcError, click.ClickException, SystemExit) as exc:
            if isinstance(exc, SystemExit) and not exc.code:
                continue
            failures += 1
            click.echo(f"error: {exc}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
