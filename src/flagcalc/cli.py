"""Command-line interface.

Subcommands mirror the library: decompose (coset tables), char and multiply
(characteristic numbers and basis expansions), present and schubpoly (ring
presentations and Schubert polynomials), oracle (type-A cross-validation),
and batch (one query per stdin line, one result line each).

Exit codes: 0 success, 1 computation error, 2 usage error, 3 resource limit.

Each command imports the library modules it calls, so a process loads only
what its command needs.  char, multiply, present and schubpoly print through
one writer, ``_emit``: the only reader of their --format and the only place
they load json.  decompose streams its own json and csv, layer by layer.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import __version__
from .errors import DegreeMismatch, FlagcalcError, NotCartan, OutOfRange, ResourceLimit


class _Usage(Exception):
    """A usage error; ``main`` prints it under ``exc.parser``'s usage."""


class _Parser(argparse.ArgumentParser):
    """A parser whose errors raise ``_Usage``."""

    def error(self, message):
        exc = _Usage(message)
        exc.parser = self
        raise exc


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
        raise _Usage(f"cannot parse K specifier {k_spec!r}")


def _load_table(a: argparse.Namespace):
    from .cartan import from_json, parse_group_label
    from .weyl import enumerate_cosets
    if a.group is not None:
        cartan = parse_group_label(a.group)
    elif not (os.path.isfile(a.cartan_file) and os.access(a.cartan_file, os.R_OK)):
        raise _Usage(f"--cartan-file {a.cartan_file!r} is not a readable file")
    else:
        import json
        with open(a.cartan_file) as fh:
            try:
                obj = json.load(fh)
            except ValueError as exc:
                raise NotCartan(f"{a.cartan_file} is not JSON: {exc}") from None
        cartan = from_json(obj)
    k_set = _resolve_k(a.k, cartan.rank)
    kwargs = {} if a.limit is None else {"limit": a.limit}
    return enumerate_cosets(cartan, k_set, a.max_len, **kwargs)


_TOKEN_RE = re.compile(
    r"(c\d+|y\d+|\[[\d,\s]*\]|\(\s*\d+\s*,\s*\d+\s*\)|part:[\d,]+)(?:[\^x](\d+))?"
)


def parse_classes(table, spec: str) -> list:
    """Expand a class-monomial specifier into a list of table entries.

    Factors are whitespace separated; each is c<r> (type-A single-K column
    class), y<d> (d-th canonical generator), [i,j,...] (word), (m,i) (index)
    or part:a,b,... (type-A partition), optionally raised with ^e (x e is
    accepted as an alternate power spelling).  Unit factors add no entry.
    """
    rest = spec.strip()
    if not rest:
        raise _Usage("empty class specifier")
    out = []
    degree = 0
    pos = 0
    while pos < len(rest):
        if rest[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(rest, pos)
        if not match:
            raise _Usage(f"cannot parse class specifier at {rest[pos:]!r}")
        entry = _resolve_class(table, match.group(1))
        # a power with more digits than the longest length + 1 reads as
        # that length + 1, which the degree check refuses all the same; so
        # a power too long for int() never reaches it
        cap = table.top_length + 1
        digits = (match.group(2) or "1").lstrip("0")
        power = cap if len(digits) > len(str(cap)) else int(digits or "0")
        # refuse an impossible degree before building the list, so a huge
        # power costs nothing
        degree += entry.m * power
        if degree > table.top_length:
            raise DegreeMismatch(f"classes have total degree at least {degree}, "
                                 f"beyond the table's longest length {table.top_length}")
        out.extend([entry] * (power if entry.m else 0))
        pos = match.end()
    return out


def _int(text: str) -> int:
    """A number of the class grammar; one too long for int() is a usage error."""
    try:
        return int(text)
    except ValueError:
        raise _Usage(
            f"a number of {len(text.strip())} digits in a class specifier is too long")


def _resolve_class(table, token: str):
    """One class from a single token of ``parse_classes``' grammar, unpowered."""
    match = _TOKEN_RE.fullmatch(token.strip())
    if not match:
        raise _Usage(f"cannot parse class {token!r}")
    if match.group(2):
        raise _Usage(f"{token!r} is a power; a single class is expected")
    token = match.group(1)
    if token.startswith("c"):
        from .weyl import grassmannian_shape  # refused off G(k, n) as part: is
        r = _int(token[1:])
        k = grassmannian_shape(table)[0]
        if not 1 <= r <= k:
            raise _Usage(f"c{r} outside 1..{k}")
        return table.lookup_word(tuple(range(k - r + 1, k + 1)))
    if token.startswith("y"):
        from .presentation import find_generators
        d = _int(token[1:])
        if d < 1:
            raise _Usage(f"y{d}: generators are numbered from 1")
        # one bound past the table: TruncatedTable if cut, else nothing new
        for md in range(1, table.top_length + 2):
            gens = find_generators(table, md)
            if len(gens) >= d:
                return gens.entries[d - 1]
        raise _Usage(f"table has fewer than {d} generators")
    if token.startswith("["):
        # one letter between commas, spaces only padding it; a blank word is the unit
        letters = [x.split() for x in token[1:-1].split(",")] if token[1:-1].strip() else []
        if any(len(x) != 1 for x in letters):
            raise _Usage(f"cannot parse word {token!r}: separate letters by commas")
        return table.lookup_word([_int(x[0]) for x in letters])
    if token.startswith("part:"):
        from .oracle import partition_to_entry
        parts = token[5:].split(",")
        if not all(parts):
            raise _Usage(f"cannot parse class {token!r}")
        return partition_to_entry(table, [_int(x) for x in parts])
    m, i = (_int(x) for x in token[1:-1].split(","))
    return table.entry(m, i)


def decompose(a: argparse.Namespace) -> None:
    """Enumerate minimal coset representatives with minimized words."""
    # one layer at a time: json is the coset-table/1 document exactly as
    # json.dumps prints it, csv exactly what csv.writer writes, and neither
    # holds a dict per entry
    table = _load_table(a)
    if a.format == "json":
        import json
        head = json.dumps({
            "schema": "coset-table/1",
            "group": table.cartan.label or table.cartan.to_json(),
            "cartan": table.cartan.to_json(),
            "K": sorted(table.k_set),
            "max_length": table.max_length,
        })
        sys.stdout.write(head[:-1] + ', "entries": [')
        sep = ""
        for layer in table.layers:
            sys.stdout.write(sep + ", ".join(
                f'{{"m": {e.m}, "i": {e.i}, "word": [{", ".join(map(str, e.word))}]}}'
                for e in layer))
            sep = ", "
        print("]}")
    elif a.format == "csv":
        import csv
        writer = csv.writer(sys.stdout)
        writer.writerow(["m", "i", "word"])
        for layer in table.layers:
            writer.writerows((e.m, e.i, " ".join(map(str, e.word))) for e in layer)
    else:
        for layer in table.layers[1:]:
            print("\n".join(f"w_{{{e.m},{e.i}}} = [{', '.join(map(str, e.word))}]"
                             for e in layer))


def _emit(a: argparse.Namespace, doc: dict, text: list[str], csv: list[str] | None = None) -> None:
    """Print a result in its --format: ``doc`` as json.dumps prints it, or the
    lines of ``text`` or ``csv``, none for an empty list; only JSON loads json."""
    if a.format == "json":
        import json
        print(json.dumps(doc))
    else:
        lines = csv if a.format == "csv" else text
        if lines:
            print("\n".join(lines))


def char(a: argparse.Namespace) -> None:
    """Characteristic number of a Schubert-class monomial against a class."""
    from .characteristics import characteristic
    table = _load_table(a)
    if a.w.strip() == "top":
        from .weyl import top_element
        w = table.entry(top_element(table)[1], 1)
    else:
        w = _resolve_class(table, a.w)
    classes = parse_classes(table, a.classes)
    value = characteristic(table, w, classes)
    _emit(a, {"schema": "characteristic/1", "w": {"m": w.m, "i": w.i, "word": list(w.word)},
              "classes": a.classes, "value": value},
          [f"{a.classes} = {value}"], ["classes,value", f"\"{a.classes}\",{value}"])


def multiply(a: argparse.Namespace) -> None:
    """Expand the product of two Schubert classes in the Schubert basis."""
    from .characteristics import multiply_schubert
    table = _load_table(a)
    u = _resolve_class(table, a.u)
    v = _resolve_class(table, a.v)
    expansion = multiply_schubert(table, u, v)
    terms = [(m, i, table.entry(m, i).word, c) for (m, i), c in expansion.terms]
    _emit(a, {"schema": "expansion/1", "degree": expansion.degree,
              "terms": [{"m": m, "i": i, "word": list(w), "coef": c} for m, i, w, c in terms]},
          [f"w_{{{m},{i}}} [{', '.join(map(str, w))}]: {c}" for m, i, w, c in terms] or ["0"],
          ["m,i,coef", *(f"{m},{i},{c}" for m, i, _, c in terms)])


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


def _generators_doc(gens) -> list[dict]:
    return [{"degree": e.m, "word": list(e.word)} for e in gens.entries]


def _terms_doc(terms) -> list[dict]:
    return [{"exps": list(exps), "coef": coef} for exps, coef in terms]


def present(a: argparse.Namespace) -> None:
    """Generators and relations of the intersection ring, degree-bounded."""
    from .presentation import find_generators, find_relations
    table = _load_table(a)
    if a.max_deg is not None and a.max_deg < 0:
        raise OutOfRange(f"--max-deg must be nonnegative, got {a.max_deg}")
    bound = a.max_deg if a.max_deg is not None else table.top_length
    gens = find_generators(table, bound)
    pres = find_relations(table, gens, bound)
    names = gens.names()
    _emit(a, {"schema": "presentation/1", "generators": _generators_doc(gens),
              "relations": [{"degree": rel.degree, "terms": _terms_doc(rel.terms)}
                            for rel in pres.relations],
              "bound": bound},
          ["generators:",
           *(f"  {name} = s_{{{e.m},{e.i}}} [{', '.join(map(str, e.word))}]"
             for name, e in zip(names, gens.entries)),
           f"relations (complete through degree {bound}):",
           *([f"  degree {rel.degree}: {_poly_text(rel.terms, names)}"
              for rel in pres.relations] or ["  none"])])


def schubpoly(a: argparse.Namespace) -> None:
    """Schubert polynomials of every class in one degree."""
    from .presentation import find_generators, schubert_polynomials
    table = _load_table(a)
    deg = a.deg
    if deg < 0:
        raise OutOfRange(f"--deg must be nonnegative, got {deg}")
    gens = find_generators(table, deg)
    polys = schubert_polynomials(table, gens, deg)
    _emit(a, {"schema": "schubert-polynomials/1", "degree": deg,
              "generators": _generators_doc(gens),
              "polynomials": [{"index": sp.index, "terms": _terms_doc(sp.terms)}
                              for sp in polys]},
          [f"G_{{{deg},{sp.index}}} = {_poly_text(sp.terms, gens.names())}" for sp in polys])


def lr(a: argparse.Namespace) -> None:
    """Littlewood-Richardson coefficient by brute tableau enumeration."""
    from .oracle import lr_coefficient

    def parse(s):
        try:
            return tuple(int(x) for x in s.split(",")) if s else ()
        except ValueError:
            raise _Usage(f"cannot parse partition {s!r}")
    print(lr_coefficient(parse(a.lam), parse(a.mu), parse(a.nu)))


def crosscheck(a: argparse.Namespace) -> int | None:
    """Compare every pairwise product against the Littlewood-Richardson rule."""
    from .characteristics import multiply_schubert
    from .oracle import coset_to_partition, lr_coefficient
    table = _load_table(a)
    entries = list(table.entries())
    parts = {e: coset_to_partition(table, e) for e in entries}
    checked = 0
    for idx, u in enumerate(entries):
        for v in entries[idx:]:
            if u.m + v.m > table.top_length:
                continue
            expansion = multiply_schubert(table, u, v).as_dict()
            lam, mu = parts[u], parts[v]
            for w in table.layer(u.m + v.m):
                nu = parts[w]
                expected = lr_coefficient(lam, mu, nu)
                got = expansion.get((w.m, w.i), 0)
                checked += 1
                if expected != got:
                    print(f"MISMATCH at {lam} * {mu} -> {nu}: "
                          f"characteristic {got}, oracle {expected}")
                    return 1
    print(f"PASS ({checked} coefficients compared)")


def batch(a: argparse.Namespace) -> None:
    """Run one query per stdin line (char, multiply, oracle lr), one line out."""
    import shlex
    failures = 0
    for line in sys.stdin:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            try:
                argv = shlex.split(line)
            except ValueError as exc:  # e.g. an unclosed quote
                raise _Usage(exc)
            if argv[:1] == ["batch"]:  # it would read the rest of this batch's stdin
                raise _Usage("batch cannot run inside batch")
            failures += bool(_run(a.top, argv))
        except (_Usage, SystemExit) as exc:
            if not isinstance(exc, SystemExit) or exc.code:
                failures += 1
                print(getattr(exc, "line", f"error: {exc}"))
        # each answer leaves at once, for a caller that waits for it
        sys.stdout.flush()
    sys.exit(1 if failures else 0)


def _parser(prog: str) -> argparse.ArgumentParser:
    """The command line: one subcommand per function above."""
    table = _Parser(add_help=False)
    source = table.add_mutually_exclusive_group(required=True)
    source.add_argument("--group", metavar="NAME", help="Builtin group, e.g. A8, E6, G2.")
    source.add_argument("--cartan-file", metavar="FILE",
                        help='JSON file {"rank": n, "entries": [[...]]} .')
    table.add_argument("--k", required=True, metavar="K",
                       help="Parabolic subset: comma-separated nodes, or 'all'.")
    table.add_argument("--max-len", type=int, metavar="INTEGER",
                       help="Truncate the coset table at this length.")
    table.add_argument("--limit", type=int, metavar="INTEGER",
                       help="Refuse enumerations beyond this many cosets.")

    # no parser takes an abbreviated option: --form is not --format
    def command(group, func, *formats, parents=(table,)):
        p = group.add_parser(func.__name__, parents=parents, help=func.__doc__,
                             description=func.__doc__, allow_abbrev=False)
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        p.set_defaults(run=func, parser=p)
        return p

    top = _Parser(prog=prog, description=main.__doc__, allow_abbrev=False)
    top.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = top.add_subparsers(metavar="COMMAND", required=True)
    command(commands, decompose, "text", "json", "csv")
    p = command(commands, char, "text", "json", "csv")
    p.add_argument("--w", default="top", metavar="CLASS",
                   help="Target class: top, (m,i), [word], c<r>, y<d>.")
    p.add_argument("--classes", required=True, metavar="MONOMIAL",
                   help='Whitespace-separated class factors, e.g. "c1^3 c2^2".')
    p = command(commands, multiply, "text", "json", "csv")
    p.add_argument("--u", required=True, metavar="CLASS")
    p.add_argument("--v", required=True, metavar="CLASS")
    p = command(commands, present, "text", "json")
    p.add_argument("--max-deg", type=int, metavar="INTEGER",
                   help="Certify the presentation up to this degree (default: top).")
    p = command(commands, schubpoly, "text", "json")
    p.add_argument("--deg", type=int, required=True, metavar="INTEGER")
    doc = "Independent type-A validation tools."
    tools = commands.add_parser("oracle", help=doc, description=doc, allow_abbrev=False)
    tools = tools.add_subparsers(metavar="COMMAND", required=True)
    p = command(tools, lr, parents=())
    for name in ("--lam", "--mu", "--nu"):
        p.add_argument(name, required=True, metavar="PARTS")
    command(tools, crosscheck)
    command(commands, batch, parents=()).set_defaults(top=top)
    return top


def _run(parser: argparse.ArgumentParser, argv: list[str]) -> int | None:
    """Parse one command line, run it and return its status; a domain error
    exits 1 or 3, and the SystemExit carries its stderr line as ``line``."""
    a = parser.parse_args(argv)
    try:
        return a.run(a)
    except _Usage as exc:
        exc.parser = a.parser
        raise
    except FlagcalcError as exc:
        stop = SystemExit(3 if isinstance(exc, ResourceLimit) else 1)
        stop.line = f"error: {type(exc).__name__}: {exc}"
        print(stop.line, file=sys.stderr)
        raise stop


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Exact Schubert calculus on flag manifolds from Cartan matrix data."""
    parser = _parser(prog_name or "flagcalc")
    try:
        status = _run(parser, sys.argv[1:] if args is None else list(args))
        sys.stdout.flush()
    except _Usage as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"{exc.parser.prog}: error: {exc}", file=sys.stderr)
        sys.exit(2)
    except BrokenPipeError:
        # the reader stopped early (``| head``): end quietly, like a filter
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status or 0)


if __name__ == "__main__":
    main()
