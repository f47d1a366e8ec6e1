import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import flagcalc
from flagcalc import builtin_cartan, enumerate_cosets
from flagcalc.cartan import from_json
from flagcalc.cli import main

from conftest import CliRunner, load_data

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def runner():
    return CliRunner()


def test_decompose_text_matches_golden(runner):
    result = runner.invoke(main, ["decompose", "--group", "A8", "--k", "4",
                                  "--max-len", "8"])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    golden = load_data("g94_coset_words.json")
    expected = [f"w_{{{m},{i}}} = [{', '.join(map(str, w))}]"
                for m, i, w in golden["entries"]]
    assert lines == expected


def test_decompose_json_schema(runner, tmp_path):
    result = runner.invoke(main, ["decompose", "--group", "A3", "--k", "2",
                                  "--format", "json"])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert list(obj) == ["schema", "group", "cartan", "K", "max_length", "entries"]
    assert obj["schema"] == "coset-table/1"
    assert obj["group"] == "A3"
    assert obj["cartan"] == {"rank": 3, "entries": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]}
    assert obj["K"] == [2]
    assert obj["max_length"] is None
    assert obj["entries"][0] == {"m": 0, "i": 1, "word": []}
    assert len(obj["entries"]) == 6
    result = runner.invoke(main, ["decompose", "--group", "A3", "--k", "2",
                                  "--max-len", "2", "--format", "json"])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["max_length"] == 2
    assert [e["m"] for e in obj["entries"]] == [0, 1, 2, 2]
    # an unlabelled matrix is reported as the matrix itself
    g2 = {"rank": 2, "entries": [[2, -1], [-3, 2]]}
    path = tmp_path / "g2.json"
    path.write_text(json.dumps(g2))
    result = runner.invoke(main, ["decompose", "--cartan-file", str(path),
                                  "--k", "1", "--format", "json"])
    assert result.exit_code == 0, result.output
    obj = json.loads(result.output)
    assert obj["group"] == g2
    assert obj["cartan"] == g2
    assert obj["max_length"] is None
    assert len(obj["entries"]) == 6


def test_decompose_negative_max_len_exits_one(runner):
    result = runner.invoke(main, ["decompose", "--group", "A3", "--k", "2",
                                  "--max-len", "-3", "--format", "json"])
    assert result.exit_code == 1
    assert "OutOfRange" in result.output


def test_decompose_negative_limit_exits_one(runner):
    result = runner.invoke(main, ["decompose", "--group", "A3", "--k", "2",
                                  "--limit", "-1", "--format", "json"])
    assert result.exit_code == 1
    assert "OutOfRange" in result.output
    assert "ResourceLimit" not in result.output


@pytest.mark.parametrize("args", [
    ["present", "--group", "A3", "--k", "2", "--max-deg", "-3"],
    ["present", "--group", "A3", "--k", "2", "--max-deg", "-1", "--format", "json"],
    ["schubpoly", "--group", "A3", "--k", "2", "--deg", "-2"],
])
def test_negative_degree_exits_one(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert "OutOfRange" in result.output
    assert "relations" not in result.output


def test_schubpoly_negative_degree_names_the_option(runner):
    result = runner.invoke(main, ["schubpoly", "--group", "A3", "--k", "2", "--deg", "-1"])
    assert result.exit_code == 1
    assert "error: OutOfRange: --deg must be nonnegative, got -1" in result.output
    assert "max_degree" not in result.output


def test_present_negative_degree_names_the_option(runner):
    result = runner.invoke(main, ["present", "--group", "A3", "--k", "2", "--max-deg", "-3"])
    assert result.exit_code == 1
    assert result.stderr == "error: OutOfRange: --max-deg must be nonnegative, got -3\n"
    assert result.stdout == ""


def test_decompose_csv(runner):
    result = runner.invoke(main, ["decompose", "--group", "A3", "--k", "2",
                                  "--format", "csv"])
    lines = result.output.strip().splitlines()
    assert lines[0] == "m,i,word"
    assert len(lines) == 7


def test_decompose_determinism(runner):
    args = ["decompose", "--group", "G2", "--k", "1,2"]
    assert runner.invoke(main, args).output == runner.invoke(main, args).output


def test_char_degree_mismatch_exits_one(runner):
    result = runner.invoke(main, ["char", "--group", "A8", "--k", "4",
                                  "--w", "top", "--classes", "c1^3 c2^2"])
    assert result.exit_code == 1
    assert "DegreeMismatch" in result.output
    # a ^0 factor is the unit class, of degree 0, as (0,1) is
    for classes in ("c1^0", "(0,1)"):
        result = runner.invoke(main, ["char", "--group", "A3", "--k", "2",
                                      "--w", "top", "--classes", classes])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == ("error: DegreeMismatch: classes have total degree 0, "
                                 "target has length 4\n")


def test_char_partition_outside_the_box_exits_one(runner):
    # part:3 does not fit the 2x2 box of G(2,4), so it names no class
    result = runner.invoke(main, ["char", "--group", "A3", "--k", "2",
                                  "--w", "top", "--classes", "part:3"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "error: OutOfRange: no class for partition (3,)\n"


def test_char_small_value(runner):
    result = runner.invoke(main, ["char", "--group", "A3", "--k", "2",
                                  "--w", "top", "--classes", "c2^2"])
    assert result.exit_code == 0
    assert result.output.strip() == "c2^2 = 1"


def test_char_long_word(runner):
    # top class of CP^64: a target word of length 64
    result = runner.invoke(main, ["char", "--group", "A64", "--k", "1",
                                  "--classes", "[1]^64"])
    assert result.exit_code == 0, result.output
    assert result.output.strip() == "[1]^64 = 1"


def test_char_class_specifier_forms(runner):
    # five spellings of the same degree-4 monomial c1^2 * c2
    for spec in ["c1^2 c2", "[2] [2] [1,2]", "(1,1)^2 (2,1)", "part:1 part:1 part:1,1",
                 "y1^2 y2"]:
        result = runner.invoke(main, ["char", "--group", "A3", "--k", "2",
                                      "--w", "top", "--classes", spec])
        assert result.exit_code == 0, (spec, result.output)
        assert result.output.strip().endswith("= 1"), spec


def test_char_csv(runner):
    result = runner.invoke(main, ["char", "--group", "A3", "--k", "2",
                                  "--w", "top", "--classes", "c2^2",
                                  "--format", "csv"])
    assert result.output.splitlines() == ["classes,value", "\"c2^2\",1"]


def test_char_json(runner):
    result = runner.invoke(main, ["char", "--group", "A3", "--k", "2",
                                  "--w", "(2,1)", "--classes", "c1^2",
                                  "--format", "json"])
    obj = json.loads(result.output)
    assert obj["schema"] == "characteristic/1"
    assert obj["value"] == 1


def test_multiply_json(runner):
    result = runner.invoke(main, ["multiply", "--group", "A3", "--k", "2",
                                  "--u", "[2]", "--v", "[2]", "--format", "json"])
    obj = json.loads(result.output)
    assert obj["schema"] == "expansion/1"
    assert obj["terms"] == [
        {"m": 2, "i": 1, "word": [1, 2], "coef": 1},
        {"m": 2, "i": 2, "word": [3, 2], "coef": 1},
    ]


def test_present_json_schema(runner):
    result = runner.invoke(main, ["present", "--group", "A3", "--k", "2",
                                  "--format", "json"])
    obj = json.loads(result.output)
    assert obj["schema"] == "presentation/1"
    assert [g["degree"] for g in obj["generators"]] == [1, 2]
    assert [r["degree"] for r in obj["relations"]] == [3, 4]
    assert obj["bound"] == 4
    for rel in obj["relations"]:
        for term in rel["terms"]:
            assert set(term) == {"exps", "coef"}


def test_schubpoly_text(runner):
    result = runner.invoke(main, ["schubpoly", "--group", "A3", "--k", "2",
                                  "--deg", "2"])
    lines = result.output.strip().splitlines()
    assert lines == ["G_{2,1} = y2", "G_{2,2} = y1^2 - y2"]


def test_oracle_lr(runner):
    result = runner.invoke(main, ["oracle", "lr", "--lam", "2,1",
                                  "--mu", "2,1", "--nu", "3,2,1"])
    assert result.output.strip() == "2"


def test_oracle_lr_negative_part_exits_one(runner):
    result = runner.invoke(main, ["oracle", "lr", "--lam", "2,-1", "--mu", "1", "--nu", "2"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "error: OutOfRange: negative part in (2, -1)\n"


def _skew_degree_one_products(monkeypatch):
    """Add 1 to every coefficient of a degree-1 by degree-1 product."""
    from flagcalc import characteristics
    real = characteristics.multiply_schubert

    def skewed(table, u, v):
        e = real(table, u, v)
        if u.m == v.m == 1:
            e = characteristics.SchubertExpansion(
                e.degree, tuple((idx, c + 1) for idx, c in e.terms))
        return e
    monkeypatch.setattr(characteristics, "multiply_schubert", skewed)


@pytest.mark.parametrize("args, skew, code, stdout, stderr", [
    (["--group", "A5", "--k", "3"], False, 0, "PASS (228 coefficients compared)\n", ""),
    (["--group", "A5", "--k", "3"], True, 1,
     "MISMATCH at (1,) * (1,) -> (1, 1): characteristic 2, oracle 1\n", ""),
    (["--group", "E6", "--k", "2"], False, 1, "",
     "error: NotTypeA: table was not built from a type-A Cartan matrix\n"),
    (["--group", "A5", "--k", "1,2"], False, 1, "",
     "error: NotSingletonK: K = [1, 2] is not a single node\n"),
], ids=["pass", "mismatch", "not-type-a", "not-singleton-k"])
def test_oracle_crosscheck(runner, monkeypatch, args, skew, code, stdout, stderr):
    if skew:
        _skew_degree_one_products(monkeypatch)
    result = runner.invoke(main, ["oracle", "crosscheck", *args])
    assert result.exit_code == code
    assert result.stdout == stdout
    assert result.stderr == stderr


def test_char_x_power_spelling(runner):
    result = runner.invoke(main, ["char", "--group", "A8", "--k", "4",
                                  "--w", "top", "--classes", "[4]x5 c3^5"])
    assert result.exit_code == 0
    assert result.output.strip().endswith("= 119")  # c1^5 c3^5 at the top degree


def test_decompose_f4_csv(runner):
    result = runner.invoke(main, ["decompose", "--group", "F4", "--k", "all",
                                  "--format", "csv"])
    assert result.exit_code == 0
    assert len(result.output.strip().splitlines()) == 1 + 1152  # header + entries


def test_multiply_g94_words(runner):
    result = runner.invoke(main, ["multiply", "--group", "A8", "--k", "4",
                                  "--u", "[3,4]", "--v", "[5,4]", "--format", "json"])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["degree"] == 4
    # s_(1,1) * s_(2) = s_(2,1,1) + s_(3,1)
    assert obj["terms"] == [
        {"m": 4, "i": 2, "word": [2, 3, 5, 4], "coef": 1},
        {"m": 4, "i": 3, "word": [3, 6, 5, 4], "coef": 1},
    ]


def test_batch_mode(runner):
    lines = "\n".join([
        "char --group A3 --k 2 --w top --classes c2^2",
        "# a comment",
        "oracle lr --lam 1 --mu 1 --nu 2",
    ])
    result = runner.invoke(main, ["batch"], input=lines + "\n")
    assert result.exit_code == 0
    assert result.output.strip().splitlines() == ["c2^2 = 1", "1"]


def test_batch_reports_errors(runner):
    result = runner.invoke(main, ["batch"],
                           input="char --group A3 --k 2 --w top --classes c1\n")
    assert result.exit_code == 1
    assert "error" in result.output


def test_usage_errors_exit_two(runner):
    result = runner.invoke(main, ["decompose", "--k", "2"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["decompose", "--group", "A3", "--k", "2",
                                  "--cartan-file", "pyproject.toml"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["char", "--group", "A3", "--k", "2",
                                  "--w", "top", "--classes", "z9"])
    assert result.exit_code == 2


@pytest.mark.parametrize("args", [
    ["decompose", "--group", "A3"],
    ["decompose", "--group", "A3", "--k", "2", "--format", "xml"],
    ["decompose", "--group", "A3", "--k", "2", "--form", "json"],
    ["decompose", "--group", "A3", "--k", "2", "--max-len", "x"],
    ["decompose", "--group", "A3", "--k", "2", "--limit", "x"],
    ["schubpoly", "--group", "A3", "--k", "2", "--deg", "x"],
    ["frobnicate"],
    ["oracle", "frobnicate"],
    [],
])
def test_parser_usage_errors_exit_two(runner, args):
    # the wording is free; the exit code, an empty stdout and no traceback are not
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr
    assert isinstance(result.exception, SystemExit)


def test_cartan_file_must_be_a_readable_file(runner, tmp_path):
    for path in (tmp_path / "missing.json", tmp_path):
        result = runner.invoke(main, ["decompose", "--cartan-file", str(path), "--k", "1"])
        assert result.exit_code == 2, (path, result.output)
        assert result.stdout == ""
        assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("content", ["not json", "5", '{"entries": 5}', '{"entries": [5]}'])
def test_malformed_cartan_file_is_refused(runner, tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    result = runner.invoke(main, ["decompose", "--cartan-file", str(path), "--k", "1"])
    assert result.exit_code == 1, result.output
    assert result.stdout == ""
    assert result.stderr.startswith("error: NotCartan:")
    assert "Traceback" not in result.stderr
    assert isinstance(result.exception, SystemExit)


def test_batch_malformed_cartan_file_is_one_error_line(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    lines = f"decompose --cartan-file {path} --k 1\noracle lr --lam 1 --mu 1 --nu 2\n"
    result = runner.invoke(main, ["batch"], input=lines)
    assert result.exit_code == 1
    assert result.stdout == "error: 1\n1\n"


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert result.stdout == "flagcalc, version 0.1.0\n"


@pytest.mark.parametrize("cmd", [
    [], ["decompose"], ["char"], ["multiply"], ["present"], ["schubpoly"],
    ["oracle"], ["oracle", "lr"], ["oracle", "crosscheck"], ["batch"],
])
def test_every_command_has_help(runner, cmd):
    result = runner.invoke(main, [*cmd, "--help"])
    assert result.exit_code == 0, result.output
    assert result.stdout and not result.stderr


def test_batch_usage_error_is_one_line_and_later_lines_run(runner):
    lines = "\n".join([
        "char --group A3 --k 2 --w top --classes c2^2",
        "char --group A3 --k 2 --classes c2^2 --format xml",
        "decompose --k 2",
        "oracle lr --lam 1 --mu 1 --nu 2",
    ])
    result = runner.invoke(main, ["batch"], input=lines + "\n")
    assert result.exit_code == 1
    out = result.stdout.splitlines()
    assert len(out) == 4, out
    assert out[0] == "c2^2 = 1" and out[3] == "1"
    assert out[1].startswith("error: ") and out[2].startswith("error: ")


def test_batch_unclosed_quote_is_one_error_line(runner):
    lines = 'char --group A3 --k 2 --classes "c2^2\noracle lr --lam 1 --mu 1 --nu 2\n'
    result = runner.invoke(main, ["batch"], input=lines)
    assert result.exit_code == 1
    assert result.stdout == "error: No closing quotation\n1\n"
    assert isinstance(result.exception, SystemExit)


def test_resource_limit_exits_three(runner):
    result = runner.invoke(main, ["decompose", "--group", "A4", "--k", "all",
                                  "--limit", "10"])
    assert result.exit_code == 3


def test_cartan_file_input(runner, tmp_path):
    path = tmp_path / "g2.json"
    path.write_text(json.dumps({"rank": 2, "entries": [[2, -1], [-3, 2]]}))
    result = runner.invoke(main, ["decompose", "--cartan-file", str(path),
                                  "--k", "1,2", "--format", "csv"])
    assert result.exit_code == 0
    assert len(result.output.strip().splitlines()) == 1 + 12


def test_help_lists_documented_flags(runner):
    for cmd, flags in [
        ("decompose", ["--group", "--cartan-file", "--k", "--max-len", "--format",
                       "--limit"]),
        ("char", ["--w", "--classes", "--format"]),
        ("multiply", ["--u", "--v", "--format"]),
        ("present", ["--max-deg", "--format"]),
        ("schubpoly", ["--deg", "--format"]),
    ]:
        result = runner.invoke(main, [cmd, "--help"])
        for flag in flags:
            assert flag in result.output, (cmd, flag)


@pytest.mark.parametrize("label,k_set,max_len", [
    ("A3", {2}, None), ("F4", {1, 2, 3, 4}, None), ("D4", {1, 2, 3, 4}, 5), ("G2-file", {1}, None),
])
def test_decompose_streams_full_documents(runner, tmp_path, label, k_set, max_len):
    # the streamed json and csv are byte for byte json.dumps of the whole
    # coset-table/1 document and csv.writer over every entry
    if label == "G2-file":
        doc = {"rank": 2, "entries": [[2, -1], [-3, 2]]}
        path = tmp_path / "g2.json"
        path.write_text(json.dumps(doc))
        cm, source = from_json(doc), ["--cartan-file", str(path)]
    else:
        cm, source = builtin_cartan(label[0], int(label[1:])), ["--group", label]
    table = enumerate_cosets(cm, k_set, max_len)
    args = ["decompose", *source, "--k", ",".join(map(str, sorted(k_set)))]
    if max_len is not None:
        args += ["--max-len", str(max_len)]
    expected_json = json.dumps({
        "schema": "coset-table/1",
        "group": cm.label or cm.to_json(),
        "cartan": cm.to_json(),
        "K": sorted(k_set),
        "max_length": table.max_length,
        "entries": [{"m": e.m, "i": e.i, "word": list(e.word)} for e in table.entries()],
    }) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["m", "i", "word"])
    for e in table.entries():
        writer.writerow([e.m, e.i, " ".join(map(str, e.word))])
    for fmt, expected in (("json", expected_json), ("csv", buf.getvalue())):
        result = runner.invoke(main, [*args, "--format", fmt])
        assert result.exit_code == 0, result.output
        assert result.stdout_bytes == expected.encode(), fmt


@pytest.mark.parametrize("args", [
    ["decompose", "--group", "D4", "--k", "all", "--format", "json"],
    ["char", "--group", "A8", "--k", "4", "--w", "top", "--classes", "c4^5"],
])
def test_cold_commands_load_only_their_modules(args):
    code = (
        "import sys\n"
        "from flagcalc.cli import main\n"
        "try:\n"
        "    main(args=sys.argv[1:], prog_name='flagcalc')\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('flagcalc'))),"
        " file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.split())
    assert "flagcalc.weyl" in loaded
    assert not loaded & {"flagcalc.presentation", "flagcalc.intlinalg", "flagcalc.oracle"}


@pytest.mark.parametrize("args, absent", [
    (["--version"], {"click"}),
    (["char", "--group", "A8", "--k", "4", "--w", "top", "--classes", "c4^5"],
     {"click", "csv", "shlex"}),
])
def test_cold_commands_skip_unused_imports(args, absent):
    code = (
        "import sys\n"
        "from flagcalc.cli import main\n"
        "try:\n"
        "    main(args=sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "print(' '.join(sorted(sys.modules)), file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() in ("flagcalc, version 0.1.0", "c4^5 = 1")
    assert not set(proc.stderr.split()) & absent


def test_package_exports_unchanged():
    assert sorted(flagcalc.__all__) == [
        "CartanMatrix", "CosetEntry", "CosetTable", "DegreeMismatch", "EmptyK",
        "FlagcalcError", "GeneratorSet", "IndexOutOfRange",
        "InvalidSeriesRank", "NonSurjective", "NotCartan", "NotFound", "NotSingletonK",
        "NotTypeA", "OutOfRange", "Presentation", "ResourceLimit", "SchubertExpansion",
        "SchubertPolynomial", "StructureMatrix", "TruncatedTable",
        "borel_inverse_components", "builtin_cartan", "cartan", "characteristic",
        "characteristics", "coset_to_partition", "element_of_word", "enumerate_cosets",
        "errors", "expansion_matrix", "find_generators", "find_relations",
        "generator_set_from_words", "intlinalg", "lr_coefficient",
        "multiply_schubert", "oracle", "parse_group_label", "partition_to_entry", "pieri",
        "presentation", "schubert_polynomials", "simple_reflection",
        "smith_normal_form", "structure_matrix", "top_element", "triangular_operator",
        "validate", "weyl",
    ]
    for name in flagcalc.__all__:
        assert getattr(flagcalc, name) is not None, name


def test_generator_zero_is_usage_error(runner):
    # y0 used to wrap around to the last degree-1 generator
    result = runner.invoke(main, ["char", "--group", "A3", "--k", "all",
                                  "--classes", "y0 y1 y2 y2 y3 y3"])
    assert result.exit_code == 2
    assert "y0" in result.output


def test_oracle_lr_bad_partition_is_usage_error(runner):
    result = runner.invoke(main, ["oracle", "lr", "--lam", "2,x", "--mu", "1", "--nu", "3"])
    assert result.exit_code == 2
    assert "2,x" in result.output


def test_single_class_power_is_usage_error(runner):
    # --u/--v/--w take one class; a power used to end in a ValueError traceback
    result = runner.invoke(main, ["multiply", "--group", "A3", "--k", "2",
                                  "--u", "c1^2", "--v", "[2]"])
    assert result.exit_code == 2
    assert "c1^2" in result.output


def test_unparsable_single_class_is_usage_error(runner):
    result = runner.invoke(main, ["char", "--group", "A3", "--k", "2",
                                  "--w", "junk", "--classes", "[2]"])
    assert result.exit_code == 2
    assert "junk" in result.output


def test_huge_power_refused_before_expansion(runner):
    # the degree check comes before the factor list is built, so this power
    # is refused at once instead of raising MemoryError
    result = runner.invoke(main, ["char", "--group", "A3", "--k", "2",
                                  "--classes", "c1^99999999999"])
    assert result.exit_code == 1
    assert "DegreeMismatch" in result.output
    assert not isinstance(result.exception, MemoryError)
    # the unit class adds no degree; any power of it is one factor
    result = runner.invoke(main, ["char", "--group", "A3", "--k", "2", "--w", "[]",
                                  "--classes", "[]^99999999999"])
    assert result.exit_code == 0
    assert result.output.strip() == "[]^99999999999 = 1"


def test_spaces_inside_a_word_letter_are_usage_error(runner):
    # '[1 2]' used to lose its space and become the one-letter word [12]
    result = runner.invoke(main, ["multiply", "--group", "A12", "--k", "1",
                                  "--u", "[1 2]", "--v", "[1]"])
    assert result.exit_code == 2
    assert "[1 2]" in result.output
    # spaces around a comma only pad the letters
    padded = runner.invoke(main, ["multiply", "--group", "A3", "--k", "2",
                                  "--u", "[ 1 , 2 ]", "--v", "[2]"])
    plain = runner.invoke(main, ["multiply", "--group", "A3", "--k", "2",
                                 "--u", "[1,2]", "--v", "[2]"])
    assert padded.exit_code == plain.exit_code == 0
    assert padded.output == plain.output


def test_overlong_numbers_in_class_tokens(runner):
    # past 4300 digits int() refuses a string; these used to end in a
    # ValueError traceback
    big = "9" * 5000
    result = runner.invoke(main, ["char", "--group", "A3", "--k", "2",
                                  "--classes", f"c1^{big}"])
    assert result.exit_code == 1
    assert "DegreeMismatch" in result.output
    result = runner.invoke(main, ["char", "--group", "A3", "--k", "2", "--w", "[]",
                                  "--classes", f"[]^{big}"])
    assert result.exit_code == 0
    assert result.output.strip().endswith(" = 1")
    for option in ("--u", "--v"):
        other = "--v" if option == "--u" else "--u"
        result = runner.invoke(main, ["multiply", "--group", "A3", "--k", "2",
                                      option, f"[{big}]", other, "[2]"])
        assert result.exit_code == 2
        assert "5000 digits" in result.output
    result = runner.invoke(main, ["char", "--group", "A3", "--k", "2",
                                  "--classes", f"({big},1)"])
    assert result.exit_code == 2


def test_spaces_inside_a_node_number_are_usage_error(runner):
    # '--k 1 2' used to lose its space and become the single node 12
    result = runner.invoke(main, ["decompose", "--group", "A12", "--k", "1 2",
                                  "--max-len", "1"])
    assert result.exit_code == 2
    assert "'1 2'" in result.output
    # spaces around a comma only pad the nodes
    padded = runner.invoke(main, ["decompose", "--group", "A12", "--k", " 1 , 2 ",
                                  "--max-len", "1"])
    plain = runner.invoke(main, ["decompose", "--group", "A12", "--k", "1,2",
                                 "--max-len", "1"])
    assert padded.exit_code == plain.exit_code == 0
    assert padded.output == plain.output == "w_{1,1} = [1]\nw_{1,2} = [2]\n"


@pytest.mark.parametrize("args, expected", [
    # a table cut exactly at its top length is complete
    (["char", "--group", "A3", "--k", "1", "--max-len", "3", "--w", "top",
      "--classes", "c1^3"], "c1^3 = 1\n"),
    (["multiply", "--group", "A3", "--k", "2", "--u", "[1,2]", "--v", "[3,2]"], "0\n"),
    (["multiply", "--group", "A3", "--k", "2", "--u", "[2]", "--v", "[2]", "--format", "csv"],
     "m,i,coef\n2,1,1\n2,2,1\n"),
    (["schubpoly", "--group", "A3", "--k", "2", "--deg", "2", "--format", "json"],
     '{"schema": "schubert-polynomials/1", "degree": 2, "generators": '
     '[{"degree": 1, "word": [2]}, {"degree": 2, "word": [1, 2]}], "polynomials": '
     '[{"index": 1, "terms": [{"exps": [0, 1], "coef": 1}]}, '
     '{"index": 2, "terms": [{"exps": [2, 0], "coef": 1}, {"exps": [0, 1], "coef": -1}]}]}\n'),
    # the README's example: positive terms after the first and coefficients above 1
    (["present", "--group", "E6", "--k", "2", "--max-deg", "9"],
     "generators:\n"
     "  y1 = s_{1,1} [2]\n"
     "  y2 = s_{3,1} [3, 4, 2]\n"
     "  y3 = s_{4,1} [1, 3, 4, 2]\n"
     "  y4 = s_{6,1} [1, 3, 6, 5, 4, 2]\n"
     "relations (complete through degree 9):\n"
     "  degree 6: y1^6 - 2*y1^3*y2 + 3*y1^2*y3 - y2^2 - 2*y4\n"
     "  degree 8: y1^8 + 3*y1^4*y3 - 6*y1^2*y2^2 - 3*y1^2*y4 + 6*y1*y2*y3 - 3*y3^2\n"
     "  degree 9: y1^3*y2^2 + 3*y1*y3^2 - 2*y2^3 - 2*y2*y4\n"),
    # a ^0 factor adds nothing, so the monomial is the unit class
    (["char", "--group", "A3", "--k", "2", "--w", "(0,1)", "--classes", "c1^0"],
     "c1^0 = 1\n"),
    # two generators in degrees 1 and 2, and no relation through degree 2
    (["present", "--group", "A3", "--k", "2", "--max-deg", "2"],
     "generators:\n"
     "  y1 = s_{1,1} [2]\n"
     "  y2 = s_{2,1} [1, 2]\n"
     "relations (complete through degree 2):\n"
     "  none\n"),
], ids=["char-cut-at-top", "multiply-zero", "multiply-csv", "schubpoly-json", "present-e6-p2",
        "char-power-zero", "present-no-relations"])
def test_command_stdout(runner, args, expected):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert result.stdout == expected


@pytest.mark.parametrize("args", [
    ["char", "--group", "A8", "--k", "4", "--max-len", "5", "--w", "(6,1)",
     "--classes", "c1^6"],
    ["char", "--group", "A8", "--k", "4", "--max-len", "5", "--w", "(5,1)",
     "--classes", "part:3,3"],
    ["schubpoly", "--group", "A8", "--k", "4", "--max-len", "5", "--deg", "7"],
    # the d-th generator lies past the bound, or there is none
    ["char", "--group", "A8", "--k", "4", "--max-len", "2", "--w", "(2,1)",
     "--classes", "y3"],
    ["char", "--group", "E6", "--k", "2", "--max-len", "5", "--w", "(5,1)",
     "--classes", "y4"],
])
def test_lengths_past_a_truncated_bound_are_refused(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: TruncatedTable: length ")


@pytest.mark.parametrize("k, classes, message", [
    ("2", " ", "empty class specifier"),
    ("2", "c3", "c3 outside 1..2"),
    ("2", "y3", "table has fewer than 3 generators"),
])
def test_class_specifier_usage_errors(runner, k, classes, message):
    result = runner.invoke(main, ["char", "--group", "A3", "--k", k, "--classes", classes])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.endswith(f"error: {message}\n")


_NOT_TYPE_A = "error: NotTypeA: table was not built from a type-A Cartan matrix\n"


@pytest.mark.parametrize("args, stderr", [
    (["char", "--group", "A3", "--k", "1,2", "--classes", "c1"],
     "error: NotSingletonK: K = [1, 2] is not a single node\n"),
    (["multiply", "--group", "E6", "--k", "2", "--u", "c1", "--v", "c2"], _NOT_TYPE_A),
    (["char", "--group", "B3", "--k", "3", "--w", "(4,1)", "--classes", "c1 c3"], _NOT_TYPE_A),
    (["char", "--group", "G2", "--k", "2", "--w", "top", "--classes", "c2 c1^3"], _NOT_TYPE_A),
], ids=["A3-two-nodes", "E6", "B3", "G2"])
def test_column_classes_off_a_grassmannian_are_refused(runner, args, stderr):
    # c<r> names a class of G(k, n) only, and is refused elsewhere as part: is
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == stderr


@pytest.mark.parametrize("args, expected", [
    (["schubpoly", "--group", "A3", "--k", "2", "--deg", "99999999"], ""),
    (["present", "--group", "A3", "--k", "2", "--max-deg", "99999999"],
     "generators:\n"
     "  y1 = s_{1,1} [2]\n"
     "  y2 = s_{2,1} [1, 2]\n"
     "relations (complete through degree 99999999):\n"
     "  degree 3: y1^3 - 2*y1*y2\n"
     "  degree 4: y1^2*y2 - y2^2\n"),
])
def test_degree_bound_far_above_the_top(args, expected):
    # both commands used to walk every degree up to the bound
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "flagcalc.cli", *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_reader_closing_the_pipe_ends_quietly():
    # a reader that stops early (``| head``) ends the command with exit 1
    # and nothing on stderr; D6 full flags print far more than a pipe holds
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen([sys.executable, "-m", "flagcalc.cli", "decompose",
                             "--group", "D6", "--k", "all"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert stderr == b""
