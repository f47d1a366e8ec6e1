"""The benchmark's workloads: characteristics, present and cli-cold.

A workload turns a seed into a plan: plain JSON data naming every input, so
that the same seed always gives the same inputs.  ``prepare(plan)`` builds,
on freshly enumerated tables, the operations of one pass.  Every pass of a
run does the same work, so passes can be compared and their median taken;
the seed decides the order of the work and, for cli-cold, the parameters of
the small queries.  Each operation carries its own check, which the runner
calls after the pass, outside the timed region.

Library functions are looked up through their modules at call time, so the
traced run's wrappers (tracing.install) are the names every call resolves.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

from flagcalc import cartan, characteristics as ch, intlinalg, oracle, presentation as pr, weyl

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Op:
    """One timed operation: ``call()`` runs it, ``check(result)`` judges it."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def _table(series: str, rank: int, k_set) -> weyl.CosetTable:
    return weyl.enumerate_cosets(cartan.builtin_cartan(series, rank), set(k_set))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _golden_order(root: str, name: str) -> list[dict]:
    """Golden top-degree table, in the acceptance suite's degree-sorted order."""
    with open(os.path.join(root, "tests", "data", name)) as fh:
        rows = json.load(fh)["entries"]
    return sorted(rows, key=lambda row: sum(int(r) * e for r, e in row["exps"].items()
                                            if r != "1"))


def _mono_spec(exps: dict) -> str:
    return " ".join(f"c{r}^{e}" for r, e in sorted(exps.items(), key=lambda kv: int(kv[0])))


def _column_classes(table: weyl.CosetTable) -> dict[int, weyl.CosetEntry]:
    k = next(iter(table.k_set))
    return {r: table.lookup_word(tuple(range(k - r + 1, k + 1))) for r in range(1, k + 1)}


def _lr_expansion(table, u, v) -> dict:
    """s_u * s_v in a type-A Grassmannian, by the Littlewood-Richardson oracle."""
    lam, mu = oracle.coset_to_partition(table, u), oracle.coset_to_partition(table, v)
    out = {}
    for w in table.layer(u.m + v.m):
        c = oracle.lr_coefficient(lam, mu, oracle.coset_to_partition(table, w))
        if c:
            out[(w.m, w.i)] = c
    return out


def presentation_sound_and_complete(table, gens, relations, bound: int) -> bool:
    """Acceptance criterion 8 through ``bound``.

    ``relations`` is a list of (degree, ((exps, coef), ...)).  Sound: every
    relation maps to zero.  Complete: in each degree the quotient of the
    monomial lattice by the ideal is free of rank beta(m).
    """
    degrees = gens.degrees
    for m in range(1, bound + 1):
        matrix = pr.expansion_matrix(table, gens, m)
        index = {e: i for i, e in enumerate(matrix.monomials)}
        for deg, terms in relations:
            if deg != m:
                continue
            image = [0] * matrix.beta
            for exps, coef in terms:
                image = [a + coef * b for a, b in zip(image, matrix.rows[index[exps]])]
            if any(image):
                return False
        rows = []
        for deg, terms in relations:
            if deg > m:
                continue
            for shift in pr.monomial_basis(degrees, m - deg):
                row = [0] * len(index)
                for exps, coef in terms:
                    row[index[tuple(x + y for x, y in zip(exps, shift))]] = coef
                rows.append(row)
        beta = len(table.layer(m))
        if rows:
            diag = [d for d in intlinalg.smith_normal_form(rows).diagonal if d]
            if any(d != 1 for d in diag) or len(index) - len(diag) != beta:
                return False
        elif len(index) != beta:
            return False
    return True


def polynomials_reexpand(table, gens, m: int, polys) -> bool:
    """Each polynomial ((exps, coef), ...) maps exactly onto its Schubert class."""
    matrix = pr.expansion_matrix(table, gens, m)
    if len(polys) != matrix.beta:
        return False
    index = {e: i for i, e in enumerate(matrix.monomials)}
    for k, terms in enumerate(polys):
        image = [0] * matrix.beta
        for exps, coef in terms:
            image = [a + coef * b for a, b in zip(image, matrix.rows[index[exps]])]
        if image != [1 if col == k else 0 for col in range(matrix.beta)]:
            return False
    return True


class Workload:
    """Defaults: nothing run once per run, no known-defect probes."""

    name = ""
    children_rss = False  # peak_rss_mb from the CLI children, not the worker

    def once(self, plan: dict) -> list[Op]:
        """Operations run once per run, after the passes: timed and checked."""
        return []

    def probes(self, plan: dict) -> list[Op]:
        """Known-defect queries run once per run: reported, not counted."""
        return []

    def layer_totals(self, result) -> dict:
        """Span totals an operation brought back from another process."""
        return {}


class Verified:
    """Remembers results already checked, so an identical repeat is not re-checked."""

    def __init__(self):
        self._ok: dict[str, Any] = {}

    def __call__(self, label: str, canonical, verify: Callable[[], bool]) -> bool:
        if label in self._ok and self._ok[label] == canonical:
            return True
        if verify():
            self._ok[label] = canonical
            return True
        return False


# ---------------------------------------------------------------------------
# char-batch: windows of the G(4,9) golden table, plus the CP^n long-word slice
# ---------------------------------------------------------------------------

class CharBatch(Workload):
    """Characteristic numbers against the top class, each window on a fresh table.

    The windows are fixed contiguous runs of the degree-sorted golden order of
    G_{9,4} (acceptance criterion 1), so the monomials of a window share the
    evaluator memo as they do in the full table.  The slice asks h^n = 1 on
    CP^n = A_n/P_1 for 56 <= n <= 63; the same query for 64 <= n <= 71 is a
    known defect (6-bit state packing), run once per run as a probe.
    """

    name = "char-batch"
    # (101, 104) builds the largest memo; it opens every pass, so that the
    # peak RSS does not depend on what the seed put before it
    WINDOWS = [(101, 104), (72, 76), (84, 88), (94, 101)]
    SLICE = range(56, 64)
    PROBE = range(64, 72)

    def __init__(self, root: str, **_):
        self.root = root

    def plan(self, seed: int) -> dict:
        rng = _rng(self.name, seed)
        order = _golden_order(self.root, "g94_characteristics.json")
        first, *rest = [{"kind": "window", "rows": order[a:b]} for a, b in self.WINDOWS]
        rest += [{"kind": "cpn", "n": n} for n in self.SLICE]
        rng.shuffle(rest)
        return {"blocks": [first, *rest]}

    def prepare(self, plan: dict) -> list[Op]:
        ops = []
        for block in plan["blocks"]:
            if block["kind"] == "window":
                ops += self._window(block["rows"])
            else:
                ops.append(self._cpn(block["n"]))
        return ops

    def probes(self, plan: dict) -> list[Op]:
        return [self._cpn(n) for n in self.PROBE]

    def _window(self, rows) -> list[Op]:
        table = _table("A", 8, {4})
        top = table.entry(table.top_length, 1)
        classes = _column_classes(table)
        ops = []
        for row in rows:
            mono = [classes[int(r)] for r, e in row["exps"].items() for _ in range(e)]
            ops.append(Op(f"G(4,9) {_mono_spec(row['exps'])}",
                          lambda mono=mono: ch.characteristic(table, top, mono),
                          lambda got, want=row["value"]: got == want))
        return ops

    def _cpn(self, n: int) -> Op:
        table = _table("A", n, {1})
        top = table.entry(n, 1)
        h = table.lookup_word([1])
        return Op(f"CP^{n} h^{n}", lambda: ch.characteristic(table, top, [h] * n),
                  lambda got: got == 1)


# ---------------------------------------------------------------------------
# products: pair products of G(4,8), checked against Littlewood-Richardson
# ---------------------------------------------------------------------------

class Products(Workload):
    """``multiply_schubert`` on the pairs of non-identity classes of G_{8,4}.

    One pass multiplies, on a fresh table, every pair whose product has
    degree at most DEGREE (401 of the 1272 pairs), in a seeded order and
    orientation; each expansion is compared with the LR oracle.
    """

    name = "products"
    DEGREE = 11

    def __init__(self, **_):
        self._expected: dict = {}
        self._verified = Verified()
        self._ref = None

    def plan(self, seed: int) -> dict:
        rng = _rng(self.name, seed)
        table = _table("A", 7, {4})
        entries = [e for e in table.entries() if e.m > 0]
        pairs = []
        for a, u in enumerate(entries):
            for v in entries[a:]:
                if u.m + v.m <= self.DEGREE:
                    pair = [[u.m, u.i], [v.m, v.i]]
                    if rng.random() < 0.5:
                        pair.reverse()
                    pairs.append(pair)
        rng.shuffle(pairs)
        return {"pairs": pairs}

    def prepare(self, plan: dict) -> list[Op]:
        table = _table("A", 7, {4})
        ops = []
        for u, v in plan["pairs"]:
            label = f"G(4,8) {tuple(u)}*{tuple(v)}"
            ops.append(Op(label,
                          lambda u=u, v=v: ch.multiply_schubert(table, table.entry(*u),
                                                                table.entry(*v)),
                          lambda got, u=u, v=v, label=label: self._check(label, u, v, got)))
        return ops

    def _check(self, label, u, v, got) -> bool:
        canonical = (got.degree, got.terms)

        def verify():
            if self._ref is None:
                self._ref = _table("A", 7, {4})
            key = (tuple(u), tuple(v))
            if key not in self._expected:
                self._expected[key] = _lr_expansion(self._ref, self._ref.entry(*u),
                                                    self._ref.entry(*v))
            return got.degree == u[0] + v[0] and got.as_dict() == self._expected[key]
        return self._verified(label, canonical, verify)


# ---------------------------------------------------------------------------
# present: generators, relations and Schubert polynomials
# ---------------------------------------------------------------------------

class Present(Workload):
    """find_generators, find_relations, schubert_polynomials on three spaces.

    The full flags B3/T (through degree 7) and A4/T (through degree 6) are
    where the integer lattice layer does most of the work; E6/P2 through
    degree 9 is acceptance criterion 8/9's parabolic case.  The inputs are
    fixed; the seed orders the spaces.
    """

    name = "present"
    SPACES = [
        {"space": "B3/T", "series": "B", "rank": 3, "k": [1, 2, 3], "bound": 7,
         "poly_degrees": list(range(1, 8))},
        {"space": "A4/T", "series": "A", "rank": 4, "k": [1, 2, 3, 4], "bound": 6,
         "poly_degrees": list(range(1, 7))},
        {"space": "E6/P2", "series": "E", "rank": 6, "k": [2], "bound": 9,
         "poly_degrees": [8, 9]},
    ]

    def __init__(self, **_):
        self._verified = Verified()

    def plan(self, seed: int) -> dict:
        spaces = [dict(s) for s in self.SPACES]
        _rng(self.name, seed).shuffle(spaces)
        return {"spaces": spaces}

    def prepare(self, plan: dict) -> list[Op]:
        return [self._op(spec) for spec in plan["spaces"]]

    def _op(self, spec: dict) -> Op:
        table = _table(spec["series"], spec["rank"], spec["k"])
        bound = spec["bound"]

        def call():
            gens = pr.find_generators(table, bound)
            pres = pr.find_relations(table, gens, bound)
            polys = {m: pr.schubert_polynomials(table, gens, m) for m in spec["poly_degrees"]}
            return gens, pres, polys

        def check(result) -> bool:
            gens, pres, polys = result
            relations = [(r.degree, r.terms) for r in pres.relations]
            poly_terms = {m: [sp.terms for sp in ps] for m, ps in polys.items()}
            canonical = ([e.word for e in gens.entries], relations, poly_terms)
            return self._verified(spec["space"], canonical, lambda: (
                presentation_sound_and_complete(table, gens, relations, bound)
                and all(polynomials_reexpand(table, gens, m, terms)
                        for m, terms in poly_terms.items())))
        return Op(f"present {spec['space']} through degree {bound}", call, check)


# ---------------------------------------------------------------------------
# cli-cold: one cold CLI process at a time
# ---------------------------------------------------------------------------

@dataclass
class CliRun:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    trace: dict | None

    def __str__(self):
        err = self.stderr.strip().splitlines()
        return f"exit {self.returncode}: {err[-1] if err else self.stdout[:120]!r}"


class CliCold(Workload):
    """Cold ``python -m flagcalc.cli`` processes, started one at a time.

    A pass runs every command of the plan once: the README's command forms,
    ``decompose`` on D6/T, a cold E6/P2 ``char`` query, and small seeded
    queries.  The ROADMAP's cold ``char ... y1^21`` call (about 7 s) and the
    E6/T ``decompose`` run once per run, after the passes.  Each process is
    checked against the documented output, or against the library (for
    outputs the README does not spell out) and the LR oracle.  In the traced
    run every command goes through cli_shim.py instead, which installs the
    layer wrappers and writes its span totals at exit.
    """

    name = "cli-cold"
    children_rss = True
    # golden G(4,9) monomials (degree-sorted positions) that cost under 50 ms
    # when evaluated cold
    CHEAP_G94 = [72, 87, 96, 98]
    ONCE = [
        ["char", "--group", "E6", "--k", "2", "--w", "top", "--classes", "y1^21"],
        ["decompose", "--group", "E6", "--k", "all", "--format", "csv"],
    ]

    def __init__(self, root: str, trace: bool = False, scratch: str | None = None, **_):
        self.root = root
        self.trace = trace
        self.scratch = scratch
        self._runs = 0
        self._verified = Verified()
        self._refs: dict = {}
        self.env = dict(os.environ)
        self.env.pop("FLAGCALC_CACHE_DIR", None)
        self.env["PYTHONPATH"] = os.path.join(root, "src")

    # -- plan ---------------------------------------------------------------

    def plan(self, seed: int) -> dict:
        rng = _rng(self.name, seed)
        cmds = [
            ["decompose", "--group", "D6", "--k", "all", "--format", "json"],
            ["char", "--group", "E6", "--k", "2", "--w", "(16,1)", "--classes", "y1^16"],
            ["char", "--group", "A8", "--k", "4", "--w", "top", "--classes", "c4^5"],
            ["multiply", "--group", "A3", "--k", "2", "--u", "[2]", "--v", "[2]",
             "--format", "json"],
            ["present", "--group", "E6", "--k", "2", "--max-deg", "9", "--format", "json"],
            ["schubpoly", "--group", "E6", "--k", "2", "--deg", "9", "--format", "json"],
            ["schubpoly", "--group", "A3", "--k", "2", "--deg", "2", "--format", "json"],
            ["oracle", "lr", "--lam", "2,1", "--mu", "2,1", "--nu", "3,2,1"],
            ["oracle", "crosscheck", "--group", "A5", "--k", "3"],
        ]
        order = _golden_order(self.root, "g94_characteristics.json")
        idx = rng.choice(self.CHEAP_G94)
        cmds.append(["char", "--group", "A8", "--k", "4", "--w", "top",
                     "--classes", _mono_spec(order[idx]["exps"])])
        g94 = _table("A", 8, {4})
        small = [e for e in g94.entries() if 1 <= e.m <= 3]
        e6p2 = _table("E", 6, {2})
        low = [e for e in e6p2.entries() if 1 <= e.m <= 4]
        for _ in range(1):
            u, v = rng.choice(small), rng.choice(small)
            cmds.append(["multiply", "--group", "A8", "--k", "4",
                         "--u", f"[{','.join(map(str, u.word))}]",
                         "--v", f"[{','.join(map(str, v.word))}]", "--format", "csv"])
            cmds.append(["oracle", "lr", *self._lr_args(rng)])
            m = rng.randint(3, 8)
            b = rng.randint(0, m // 3)
            target = rng.choice(e6p2.layer(m))
            classes = " ".join(f"y{d}^{e}" for d, e in ((1, m - 3 * b), (2, b)) if e)
            cmds.append(["char", "--group", "E6", "--k", "2", "--w",
                         f"({target.m},{target.i})", "--classes", classes])
            u, v = rng.choice(low), rng.choice(low)
            cmds.append(["multiply", "--group", "E6", "--k", "2", "--u", f"({u.m},{u.i})",
                         "--v", f"({v.m},{v.i})", "--format", "json"])
        rng.shuffle(cmds)
        return {"commands": cmds}

    @staticmethod
    def _lr_args(rng) -> list[str]:
        """``--lam --mu --nu`` with |nu| = |lam| + |mu|, parts at most 4."""
        def part(size):
            parts, left = [], size
            while left:
                p = rng.randint(1, min(left, parts[-1] if parts else 4))
                parts.append(p)
                left -= p
            return ",".join(map(str, parts))
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        return ["--lam", part(a), "--mu", part(b), "--nu", part(a + b)]

    # -- running ------------------------------------------------------------

    def prepare(self, plan: dict) -> list[Op]:
        return [self._op(cmd) for cmd in plan["commands"]]

    def once(self, plan: dict) -> list[Op]:
        return [self._op(cmd) for cmd in self.ONCE]

    def probes(self, plan: dict) -> list[Op]:
        return [self._op(["char", "--group", "A64", "--k", "1", "--classes", "[1]^64"])]

    def _op(self, cmd: list[str]) -> Op:
        return Op("flagcalc " + " ".join(cmd), lambda: self._run(cmd),
                  lambda got: self._check(cmd, got))

    def _run(self, cmd: list[str]) -> CliRun:
        env = self.env
        if self.trace:
            self._runs += 1
            spans = os.path.join(self.scratch, f"spans-{self._runs}.json")
            argv = [sys.executable, os.path.join(HERE, "cli_shim.py"), *cmd]
            env = dict(env, PERFBENCH_SPANS=spans)
        else:
            argv = [sys.executable, "-m", "flagcalc.cli", *cmd]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=self.root, env=env, capture_output=True,
                              text=True, timeout=150)
        wall = time.perf_counter() - t0
        trace = None
        if self.trace and os.path.exists(spans):
            with open(spans) as fh:
                trace = json.load(fh)
            os.remove(spans)
        return CliRun(proc.returncode, proc.stdout, proc.stderr, wall, trace)

    def layer_totals(self, run: CliRun) -> dict:
        """Span totals of one traced process, with the cli layer's own share."""
        if not run.trace:
            return {}
        totals = dict(run.trace["totals"])
        totals["cli.calls"] = 1
        totals["cli.import_s"] = run.trace["import_s"]
        totals["cli.self_s"] = run.trace["main_s"] - run.trace["outer_s"]
        totals["cli.start_s"] = run.wall_s - run.trace["total_s"]
        return totals

    # -- checking -----------------------------------------------------------

    def _ref(self, series: str, rank: int, k) -> weyl.CosetTable:
        key = (series, rank, tuple(k))
        if key not in self._refs:
            self._refs[key] = _table(series, rank, k)
        return self._refs[key]

    def _check(self, cmd: list[str], got: CliRun) -> bool:
        if got.returncode != 0:
            return False
        label = " ".join(cmd)
        return self._verified(label, got.stdout, lambda: self._verify(cmd, got.stdout))

    def _verify(self, cmd: list[str], out: str) -> bool:
        opts = dict(zip(cmd[1::1], cmd[2::1]))
        sub = cmd[0]
        if sub == "oracle":
            if cmd[1] == "crosscheck":
                return out.startswith("PASS (") and out.rstrip().endswith("coefficients compared)")
            lam, mu, nu = (tuple(int(x) for x in opts[f].split(",")) for f in
                           ("--lam", "--mu", "--nu"))
            return out.strip() == str(oracle.lr_coefficient(lam, mu, nu))
        series, rank = opts["--group"][0], int(opts["--group"][1:])
        k = list(range(1, rank + 1)) if opts["--k"] == "all" else [int(opts["--k"])]
        table = self._ref(series, rank, k)
        if sub == "decompose":
            want = [(e.m, e.i, list(e.word)) for e in table.entries()]
            if opts["--format"] == "csv":
                rows = list(csv.reader(io.StringIO(out)))
                got = [(int(m), int(i), [int(x) for x in w.split()]) for m, i, w in rows[1:]]
                return rows[0] == ["m", "i", "word"] and got == want
            obj = json.loads(out)
            got = [(e["m"], e["i"], e["word"]) for e in obj["entries"]]
            return obj["schema"] == "coset-table/1" and got == want
        if sub == "char":
            spec = opts["--classes"]
            if spec == "y1^21":
                return out.strip() == "y1^21 = 151164"  # README
            if spec == "c4^5":
                return out.strip() == "c4^5 = 1"  # README
            if series == "A":
                golden = {_mono_spec(row["exps"]): row["value"]
                          for row in _golden_order(self.root, "g94_characteristics.json")}
                return out.strip() == f"{spec} = {golden[spec]}"
            return out.strip() == f"{spec} = {self._char_value(table, opts)}"
        if sub == "multiply":
            u, v = (self._entry(table, opts[f]) for f in ("--u", "--v"))
            if series == "A":
                want = _lr_expansion(table, u, v)
            else:
                want = ch.multiply_schubert(table, u, v).as_dict()
            if opts["--format"] == "csv":
                rows = list(csv.reader(io.StringIO(out)))
                got = {(int(m), int(i)): int(c) for m, i, c in rows[1:]}
                return rows[0] == ["m", "i", "coef"] and got == want
            obj = json.loads(out)
            got = {(t["m"], t["i"]): t["coef"] for t in obj["terms"]}
            return obj["degree"] == u.m + v.m and got == want
        obj = json.loads(out)
        gens = pr.generator_set_from_words(table, [g["word"] for g in obj["generators"]])
        if sub == "present":
            relations = [(r["degree"], tuple((tuple(t["exps"]), t["coef"]) for t in r["terms"]))
                         for r in obj["relations"]]
            return presentation_sound_and_complete(table, gens, relations, obj["bound"])
        polys = [tuple((tuple(t["exps"]), t["coef"]) for t in p["terms"])
                 for p in obj["polynomials"]]
        return polynomials_reexpand(table, gens, obj["degree"], polys)

    @staticmethod
    def _entry(table, spec: str):
        if spec.startswith("["):
            return table.lookup_word([int(x) for x in spec[1:-1].split(",") if x])
        m, i = (int(x) for x in spec[1:-1].split(","))
        return table.entry(m, i)

    def _char_value(self, table, opts) -> int:
        """The library's value of an E6/P2 query ``--w (m,i) --classes "y1^a y2^b"``."""
        gens = pr.find_generators(table, 3).entries
        classes = []
        for token in opts["--classes"].split():
            d, e = token[1:].split("^")
            classes += [gens[int(d) - 1]] * int(e)
        return ch.characteristic(table, self._entry(table, opts["--w"]), classes)


# ---------------------------------------------------------------------------
# characteristics: char-batch and products in one pass
# ---------------------------------------------------------------------------

class Characteristics(Workload):
    """The evaluator (char-batch) and the pair route (products) in one pass.

    The two run as one workload so that each run can be 30 s long: on a
    shared machine whose speed drifts, four workloads of 20 s each spread
    too far from run to run.  The traced run still tells the two layers
    apart: ``characteristics.eval`` for the windows, ``characteristics.masks``
    for the products.
    """

    name = "characteristics"

    def __init__(self, root: str, **_):
        self.parts = (CharBatch(root=root), Products())

    def plan(self, seed: int) -> dict:
        return {part.name: part.plan(seed) for part in self.parts}

    def prepare(self, plan: dict) -> list[Op]:
        return [op for part in self.parts for op in part.prepare(plan[part.name])]

    def probes(self, plan: dict) -> list[Op]:
        return [op for part in self.parts for op in part.probes(plan[part.name])]


WORKLOADS = {cls.name: cls for cls in (Characteristics, Present, CliCold)}
