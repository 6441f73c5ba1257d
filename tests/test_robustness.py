"""Error paths, exactness guards, and off-plane (dimension != 2) behavior."""

import contextlib
import random
import time
from fractions import Fraction

import pytest

from gerstenhaber import (
    ArityError,
    BasisTerm,
    BlockSystem,
    Cochain,
    Deformation,
    DimensionMismatchError,
    Membership,
    Polynomial,
    SemigroupSpec,
    SubgroupReport,
    delta_via_bracket,
    hochschild_delta,
    solve_delta,
)
from gerstenhaber.axioms import LawResult
from gerstenhaber.sexpr import ORDER_LIMIT, SexprError, parse_sexpr, print_document
from gerstenhaber.starproduct import obstruction
from gerstenhaber import cli
from gerstenhaber.cli import main
from test_cli_fuzz import WALL_BOUND_S


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        Polynomial(2, {(1, 0): 0.5})
    with pytest.raises(TypeError):
        Cochain(2, {BasisTerm(2, (0, 0), ()): 0.5})


def test_basis_term_immutable():
    t = BasisTerm(2, (1, 0), ((0, 1),))
    with pytest.raises(AttributeError):
        t.x_part = (0, 0)
    c = Cochain.single(t)
    with pytest.raises(AttributeError):
        c.dimension = 3


HALF_PI = Cochain(2, {BasisTerm(2, (0, 0), ((1, 0), (0, 1))): Fraction(1, 2)})
VECTOR_FIELD = Cochain(2, {BasisTerm(2, (1, 0), ((0, 1),)): 1})


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: SemigroupSpec(dimension=0, generators=()), DimensionMismatchError, "dimension must be positive"),
        (
            lambda: SemigroupSpec(dimension=2, generators=((1, 0, 0),)),
            DimensionMismatchError,
            r"generator \(1, 0, 0\) has length 3, expected 2",
        ),
        (lambda: SemigroupSpec(2, [[1, 0]], 0), ValueError, "search_cap must be positive"),
        (lambda: Deformation(3, (HALF_PI,)), DimensionMismatchError, "deformation cochain dimension mismatch"),
        (
            lambda: Deformation(dimension=2, cochains=(HALF_PI, VECTOR_FIELD)),
            ArityError,
            "deformation cochains must have arity 2",
        ),
    ],
    ids=["spec-dimension", "spec-generator-length", "spec-search-cap", "deformation-dimension", "deformation-arity"],
)
def test_record_validation(make, error, message):
    with pytest.raises(error, match=f"^{message}$") as raised:
        make()
    assert type(raised.value) is error


# Each record: its class, positional arguments (defaults left out), every
# field as constructed, one field changed, and whether it is hashable and
# refuses assignment.
RECORDS = [
    (
        SemigroupSpec,
        (2, [[1, 0], (1, 0), (0, 1)]),
        {"dimension": 2, "generators": ((0, 1), (1, 0)), "search_cap": 32},  # sorted, without repeats
        {"search_cap": 5},
        True,
    ),
    (Membership, ("yes", (2, 1)), {"status": "yes", "certificate": (2, 1)}, {"status": "no"}, True),
    (Membership, ("no",), {"status": "no", "certificate": None}, {"certificate": ()}, True),
    (
        SubgroupReport,
        (2, ((0, -1),), "no", 3, (((0, -1), (0, 1)),), ((0, -1), (0, 1))),
        {
            "dimension": 2,
            "generators": ((0, -1),),
            "is_subgroup": "no",
            "samples_run": 3,
            "sample_failures": (((0, -1), (0, 1)),),
            "counterexample": ((0, -1), (0, 1)),
        },
        {"counterexample": None},
        True,
    ),
    (Deformation, (2, (HALF_PI,)), {"dimension": 2, "cochains": (HALF_PI,)}, {"cochains": (HALF_PI, HALF_PI)}, True),
    (
        BlockSystem,
        ((5, 9), ({7: 1}, {7: -1})),
        {"slots2": (5, 9), "columns": ({7: 1}, {7: -1})},
        {"columns": ({7: 1},)},
        True,
    ),
    (LawResult, ("law", True, 4), {"name": "law", "ok": True, "checks": 4, "witness": None}, {"ok": False}, False),
]


@pytest.mark.parametrize(
    "cls, args, fields, changed, frozen",
    RECORDS,
    ids=[f"{r[0].__name__}-{len(r[1])}" for r in RECORDS],
)
def test_record_construction_equality_hash_and_assignment(cls, args, fields, changed, frozen):
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(fields, args)))
    for record in (by_position, by_keyword):
        assert {name: getattr(record, name) for name in fields} == fields
    assert by_position == by_keyword and not by_position != by_keyword
    assert by_position != cls(**{**fields, **changed})
    assert by_position != tuple(fields.values())
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(by_position) == f"{cls.__name__}({shown})"
    name, value = next(iter(changed.items()))
    if not frozen:
        with pytest.raises(TypeError, match="unhashable"):
            hash(by_position)
        setattr(by_position, name, value)
        assert getattr(by_position, name) == value and by_position != by_keyword
        return
    if cls is BlockSystem:  # its columns are dicts
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(by_position)
    else:
        assert hash(by_position) == hash(by_keyword)
        assert len({by_position, by_keyword}) == 1
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(by_position, name, value)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(by_position, name)
    with pytest.raises(AttributeError):
        by_position.extra = 1
    assert by_position == by_keyword


def test_semigroup_spec_keeps_its_lattice_basis_and_hull_out_of_equality():
    spec = SemigroupSpec(2, ((1, 0), (0, -1)))
    fresh = SemigroupSpec(2, ((0, -1), (1, 0), (1, 0)))
    assert spec._basis is spec._basis and spec._hull is spec._hull
    assert spec == fresh and hash(spec) == hash(fresh) and repr(spec) == repr(fresh)


def test_dimension_three_coboundary_routes_agree():
    rng = random.Random(5)
    for _ in range(30):
        pairs = []
        for _ in range(rng.randint(1, 3)):
            arity = rng.randint(0, 2)
            x = tuple(rng.randint(0, 2) for _ in range(3))
            slots = tuple(tuple(rng.randint(0, 1) for _ in range(3)) for _ in range(arity))
            pairs.append(
                (BasisTerm(3, x, slots), Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 2)))
            )
        f = Cochain(3, pairs)
        assert hochschild_delta(f) == delta_via_bracket(f)
        assert hochschild_delta(hochschild_delta(f)).is_zero


def test_block_solve_is_dimension_generic():
    rng = random.Random(6)
    solved = 0
    for _ in range(20):
        pairs = []
        for _ in range(2):
            x = tuple(rng.randint(0, 2) for _ in range(3))
            slots = tuple(tuple(rng.randint(0, 1) for _ in range(3)) for _ in range(2))
            pairs.append((BasisTerm(3, x, slots), Fraction(rng.choice([-2, -1, 1, 2]))))
        y = Cochain(3, pairs)
        b = hochschild_delta(y)
        if b.is_zero:
            continue
        x = solve_delta(b)
        assert hochschild_delta(x) == b
        solved += 1
    assert solved > 5


def test_parser_rejects_garbage_without_crashing():
    rng = random.Random(99)
    alphabet = "()0123456789-/term cochain poly \n;"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        try:
            parse_sexpr(text)
        except SexprError:
            pass  # every rejection must be the typed error, never a crash


def test_cli_apply_arity_mismatch_exits_one(tmp_path, capsys):
    c = tmp_path / "c.sexp"
    c.write_text("(cochain 2 (term 1 (0 0) (1 0)))", encoding="utf-8")
    code = main(["apply", str(c)])
    capsys.readouterr()
    assert code == 1


def test_cli_filtration_literal_mixed_weights_exits_one(tmp_path, capsys):
    c = tmp_path / "c.sexp"
    c.write_text(
        "(cochain 2 (term 1 (0 0) (1 0)) (term 1 (1 0) (0 0)))", encoding="utf-8"
    )
    code = main(["filtration", str(c), "--mode=literal"])
    capsys.readouterr()
    assert code == 1


def test_cli_missing_file_exits_one(capsys):
    code = main(["delta", "/nonexistent/path.sexp"])
    capsys.readouterr()
    assert code == 1


def test_cli_unknown_law_exits_one(capsys):
    code = main(["verify-axioms", "--law", "no-such-law"])
    err = capsys.readouterr().err
    assert code == 1
    assert "no-such-law" in err


def test_cli_verify_axioms_json(capsys):
    import json

    code = main(["--json", "verify-axioms", "--seed", "1", "--trials", "2",
                 "--law", "leibniz-consistency"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "report"
    assert ["seed", 1] in payload["body"]


def test_parser_handles_nesting_beyond_the_recursion_limit():
    depth = 100_000
    node = parse_sexpr("(" * depth + "x" + ")" * depth)
    for _ in range(depth):
        assert isinstance(node, tuple) and len(node) == 1
        node = node[0]
    assert node == "x"


def _run_cli(*args, stdin=None):
    import os
    import subprocess
    import sys

    import gerstenhaber

    src = os.path.dirname(os.path.dirname(os.path.abspath(gerstenhaber.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "gerstenhaber.cli", *args],
        capture_output=True, text=True, env=env, timeout=120, input=stdin,
    )


@pytest.mark.parametrize("command", ["bigrade", "bracket", "mc-solve"])
def test_cli_deep_nesting_exits_one_without_traceback(tmp_path, command):
    depth = 100_000
    unclosed = tmp_path / "unclosed.sexp"
    unclosed.write_text("(" * depth, encoding="utf-8")
    balanced = tmp_path / "balanced.sexp"
    balanced.write_text(
        "(cochain 2 (term 1 (0 0) " + "(" * depth + ")" * depth + "))", encoding="utf-8"
    )
    for path, head, tail in (
        (unclosed, f"error: line 1, column {depth}: ", "unexpected end of input inside list"),
        # The offending node is shown depth-bounded, on one short line.
        (balanced, "error: index (((", "...),),),),),),) is not 2 integers"),
    ):
        if command == "bracket":
            args = ["bracket", str(path), str(path)]
        elif command == "mc-solve":
            args = ["mc-solve", "--pi1", str(path), "--order", "2"]
        else:
            args = [command, str(path)]
        result = _run_cli(*args)
        assert result.returncode == 1
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        (line,) = result.stderr.splitlines()
        assert line.startswith(head) and line.endswith(tail) and len(line) < 100


@pytest.mark.parametrize("coefficient", ["²1", "1/²"])
def test_cli_superscript_digit_coefficient_is_not_rational(tmp_path, coefficient):
    """str.isdigit accepts '²' but int() does not; such a token is a symbol."""
    path = tmp_path / "c.sexp"
    path.write_text(f"(cochain 2 (term {coefficient} (0 0)))", encoding="utf-8")
    result = _run_cli("bigrade", str(path))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        f"error: term coefficient '{coefficient}' is not rational"
    ]


@pytest.mark.parametrize(
    "coefficient, digits",
    [("7" * 5000, 5000), ("-" + "7" * 4301, 4301), ("1/" + "3" * 4400, 4400), ("9" * 4500 + "/7", 4500)],
    ids=["integer", "negative", "denominator", "numerator"],
)
def test_cli_overlong_integer_literal_is_refused_with_its_position(tmp_path, coefficient, digits):
    """int() refuses numerals over 4300 digits (Python's default limit); the
    parser refuses them first, naming the token's line and column."""
    path = tmp_path / "c.sexp"
    path.write_text(f"(cochain 2\n  (term {coefficient} (0 0)))", encoding="utf-8")
    result = _run_cli("bigrade", str(path))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        f"error: line 2, column 9: integer literal of {digits} digits exceeds the limit of 4300"
    ]


@pytest.mark.parametrize(
    "text, message",
    [
        ("(cochain 2\n  (term 1 (" + "9" * 100_000 + " 0)))\n",
         "line 2, column 12: integer literal of 100000 digits exceeds the limit of 4300"),
        ("(cochain 2" + "\n  (term 1 (1 2)" * 50_000, "line 50001, column 3: unexpected end of input inside list"),
    ],
    ids=["long-index-numeral", "unclosed-records"],
)
def test_cli_printer_layout_lookalike_is_refused_with_its_position(tmp_path, text, message):
    """Documents in nearly the printer's layout: a 100 000-digit index entry,
    and 50 000 records left open.  The one-pass reader neither backtracks
    nor hides the position the token parser reports."""
    path = tmp_path / "c.sexp"
    path.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    result = _run_cli("bigrade", str(path))
    assert time.perf_counter() - start < WALL_BOUND_S
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"error: {message}"]


def test_integer_literal_at_the_digit_limit_parses():
    assert parse_sexpr("(term " + "7" * 4300 + ")") == ("term", int("7" * 4300))
    assert parse_sexpr("(term 1/" + "3" * 4300 + ")") == ("term", Fraction(1, int("3" * 4300)))


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["sexpr", "json"])
@pytest.mark.parametrize(
    "term, digits",
    [("7" * 3000 + " (1 0) (0 1)", 6000), ("1/" + "7" * 3000 + " (1 0) (0 1)", 6000)],
    ids=["numerator", "denominator"],
)
def test_cli_overlong_output_integer_is_refused_naming_the_limit(tmp_path, json_flag, term, digits):
    """A product of two 3000-digit integers has 6000 digits, past what str()
    converts by default (4300 digits); printing refuses it in the parser's
    wording."""
    path = tmp_path / "c.sexp"
    path.write_text(f"(cochain 2 (term {term}))", encoding="utf-8")
    result = _run_cli(*json_flag, "cup", str(path), str(path))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        f"error: output integer of {digits} digits exceeds the limit of 4300"
    ]


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["sexpr", "json"])
def test_cli_overlong_exponent_is_refused_by_the_exponent_budget(tmp_path, json_flag):
    """A 4300-digit exponent is refused when the document is read, in one line
    that gives its size in bits rather than its digits."""
    path = tmp_path / "c.sexp"
    path.write_text("(cochain 2 (term 1 (" + "9" * 4300 + " 0)))", encoding="utf-8")
    result = _run_cli(*json_flag, "cup", str(path), str(path))
    assert result.returncode == 1
    assert result.stdout == ""
    bits = int("9" * 4300).bit_length()
    assert result.stderr.splitlines() == [
        f"error: exponent of {bits} bits exceeds the exponent budget of 65535"
    ]


def test_cli_reads_standard_input_once_for_two_dashes(tmp_path):
    """``bracket - -`` brackets the piped cochain with itself."""
    text = "(cochain 2 (term 1/3 (1 0) (1 0) (0 1)) (term -2 (0 1) (0 1) (1 0)))"
    path = tmp_path / "f.sexp"
    path.write_text(text, encoding="utf-8")
    piped = _run_cli("bracket", "-", "-", stdin=text)
    from_files = _run_cli("bracket", str(path), str(path))
    assert piped.returncode == from_files.returncode == 0
    assert piped.stderr == ""
    assert piped.stdout == from_files.stdout
    assert "(term" in piped.stdout


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        ("(cochain 2\r(term 1/0 (0 0)))", 1, 18, "rational with zero denominator"),
        ("(cochain 2\r\n(term 1/0 (0 0)))", 2, 7, "rational with zero denominator"),
        ("(cochain 2\n(term 1/0 (0 0)))", 2, 7, "rational with zero denominator"),
        ("(poly 2 (term 1 (0 0))) (1 0)", 1, 25, "unexpected trailing content '('"),
        ("(poly 2 (term 1 (0 0)))\n(1 0)", 2, 1, "unexpected trailing content '('"),
        ("(poly 2 (term 1 (0 0))) ()", 1, 25, "unexpected trailing content '('"),
        ("(1 0) (1 0)", 1, 7, "unexpected trailing content '('"),
        ("(poly 2 (term 1 (1 0))))", 1, 24, "unexpected trailing content ')'"),
        ("(cochain 2 (term 1 (0 " + "7" * 4301 + ")))", 1, 23, "integer literal of 4301 digits exceeds the limit of 4300"),
        ("(cochain 2 (term 1 (0 0)\n (1 1/0)))", 2, 5, "rational with zero denominator"),
        ("(cochain 2 (term 1 (0 0)\n\t(1\r1/0)))", 2, 5, "rational with zero denominator"),
        ("(cochain 2 (term 1 (0 0) (1 ;c\n 1/0)))", 2, 2, "rational with zero denominator"),
        ("(cochain 2 (term 1 (0 0) (1 0)", 1, 12, "unexpected end of input inside list"),
        ("(cochain 2 (term 1 (0 0) (1 0", 1, 26, "unexpected end of input inside list"),
    ],
    ids=["CR", "CRLF", "LF", "trailing-index", "trailing-index-next-line", "trailing-empty-list",
         "index-then-index", "trailing-paren", "overlong-numeral-in-index", "index-after-newline",
         "tab-and-cr-in-index", "comment-in-index", "unclosed-after-index", "unclosed-index"],
)
def test_cli_and_parser_report_the_same_error_position(tmp_path, text, line, column, message):
    """Files and standard input reach the parser untranslated, so a lone CR
    counts as one column on every route, not as a line end.  An index list,
    read as one token, or token by token when it holds a long numeral, a
    signed entry, another blank or a comment, moves no error."""
    with pytest.raises(SexprError) as err:
        parse_sexpr(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"line {line}, column {column}: {message}"
    path = tmp_path / "c.sexp"
    path.write_bytes(text.encode("utf-8"))
    for result in (_run_cli("bigrade", str(path)), _run_cli("bigrade", "-", stdin=text)):
        assert result.returncode == 1
        assert result.stderr.splitlines() == [f"error: {err.value}"]


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify-axioms", "--trials=-3"], "--trials must be at least 1"),
        (
            ["mc-solve", "--pi1", "DOC", "--order", "2", "--check-assoc", "--assoc-trials", "0"],
            "--assoc-trials must be at least 1",
        ),
        (["mc-solve", "--pi1", "DOC", "--order", "0"], "--order must be at least 1"),
        (["mc-solve", "--pi1", "DOC", "--order", "2", "--slot-cap=-1"], "--slot-cap must be at least 0"),
        (["mc-solve", "--pi1", "DOC", "--order", "2", "--gen=0,-1", "--cap=0"], "--cap must be at least 1"),
        (["member", "--weight=-1,-1", "--gen=-1,-1", "--cap=0"], "--cap must be at least 1"),
        (["ideal-member", "DOC", "--gen=-1,-1", "--cap=0"], "--cap must be at least 1"),
        (["ideal-member", "DOC", "--gen=-1,-1", "--fold=0"], "--fold must be at least 1"),
        (["project", "DOC", "--gen=-1,-1", "--cap=-2"], "--cap must be at least 1"),
    ],
    ids=lambda value: value.split()[0] if isinstance(value, str) else None,  # name the flag
)
def test_cli_refuses_counts_below_one(tmp_path, args, message):
    """Budget and count flags are refused before any work, naming the flag.
    The document does not exist, so a refusal that came after reading it
    would report the missing file instead."""
    missing = str(tmp_path / "missing.sexp")
    result = _run_cli(*(missing if a == "DOC" else a for a in args))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize(
    "args, message",
    [
        ([], "gerst: the following arguments are required: command"),
        (["nosuch"], "gerst: argument command: invalid choice: 'nosuch' (choose from "),
        (["delta"], "gerst delta: the following arguments are required: cochain"),
        (["mc-solve", "--order", "abc", "--pi1", "x"], "gerst mc-solve: argument --order: invalid int value: 'abc'"),
        (["filtration", "x", "--mode", "bad"], "gerst filtration: argument --mode: invalid choice: 'bad' (choose from "),
        (["delta", "x", "--bogus"], "gerst: unrecognized arguments: --bogus"),
    ],
    ids=["no-command", "unknown-command", "missing-positional", "non-int", "bad-choice", "unknown-flag"],
)
def test_cli_malformed_command_line_exits_one_on_one_line(args, message):
    """A command line argparse cannot parse is a parse failure like any other:
    exit code 1 and one ``error:`` line naming the program and subcommand,
    not a usage block and exit code 2."""
    result = _run_cli(*args)
    assert result.returncode == 1
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "args, built",
    [
        (["delta", "missing.sexp"], ["delta"]),
        (["--json", "--json", "theta", "--help"], ["theta"]),
        (["--help", "delta"], None),
        (["--js", "delta"], None),
        (["nosuch"], None),
        ([], None),
    ],
    ids=["command", "json-then-help", "help-first", "abbreviated-json", "unknown", "none"],
)
def test_cli_builds_only_the_subcommand_that_runs(monkeypatch, capsys, args, built):
    """The parser gets only the subcommand argparse will run; with no command,
    an unknown one or an option other than --json before it, every subcommand
    (None), so usage and choice lists are those of the whole table."""
    seen, build_parser = [], cli.build_parser

    def build(command=None):
        parser = build_parser(command)
        seen.append(list(parser._subparsers._group_actions[0].choices))
        return parser

    monkeypatch.setattr(cli, "build_parser", build)
    with contextlib.suppress(SystemExit):
        main(args)
    assert seen == [built or [name for name, *_ in cli._COMMANDS]]


CONSTANT_BIVECTOR = "(cochain 2(term 1 (0 0) (1 0) (0 1)) (term -1 (0 0) (0 1) (1 0)))"
P1 = Cochain(2, {BasisTerm(2, (0, 0), ((1, 0), (0, 1))): Fraction(1, 2),
                 BasisTerm(2, (0, 0), ((0, 1), (1, 0))): Fraction(-1, 2)})
STRAY = Cochain(2, {BasisTerm(2, (0, 0), ((1, 0), (1, 0), (1, 0))): 1})
# A 3-cochain with a nonzero coboundary: what a bracket bug would add to an obstruction.
NOT_CLOSED = Cochain(2, {BasisTerm(2, (0, 0), ((2, 0), (1, 1), (1, 0))): 1})


@pytest.mark.parametrize(
    "command, operand",
    [("star-apply", "f"), ("star-apply", "g"), ("assoc-defect", "h")],
)
def test_cli_star_operand_of_another_dimension_exits_one(tmp_path, command, operand):
    """Every operand of a star product is checked against the deformation's
    dimension before any product, and the one-line message names it."""
    deformation = tmp_path / "def.sexp"
    deformation.write_text(print_document(Deformation(2, (P1,))), encoding="utf-8")
    paths = []
    for name in ("f", "g", "h") if command == "assoc-defect" else ("f", "g"):
        path = tmp_path / f"{name}.sexp"
        path.write_text("(poly 1 (term 1 (2)))" if name == operand else "(poly 2 (term 1 (2 1)))", encoding="utf-8")
        paths.append(str(path))
    result = _run_cli(command, "--deformation", str(deformation), *paths)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"error: operand {operand} dimension 1 does not match deformation dimension 2"]


def _delta_adding(extra_for):
    """``hochschild_delta`` plus ``extra_for(c)``: a broken engine for the solver."""

    def broken(c):
        return hochschild_delta(c) + extra_for(c)

    return broken


@pytest.mark.parametrize(
    "attr, broken, gen, message",
    [
        (
            "obstruction",
            lambda d, k: obstruction(d, k) + (NOT_CLOSED if k == 3 else Cochain.zero(2)),
            [],
            "order-3 obstruction is not closed in bigrade block ((-4, -1), (4, 1)); bracket engine bug",
        ),
        (
            "hochschild_delta",
            _delta_adding(lambda c: STRAY if c.arities() == (2,) and c != P1 else Cochain.zero(2)),
            [],
            "order-2 block solve failed verification in bigrade block ((-3, 0), (3, 0))",
        ),
        (
            "in_ideal",
            lambda c, spec, fold: Membership("no"),
            ["--gen=-1,-1"],
            "order-2 coefficient escaped the 2-fold ideal: no",
        ),
    ],
    ids=["not-closed", "solve-unverified", "escaped-ideal"],
)
def test_cli_solver_self_check_failure_exits_two(tmp_path, capsys, monkeypatch, attr, broken, gen, message):
    """A failed self-check of the solver names its order, and the first
    bigrade block where the check fails, on one stderr line and exits 2, the
    verification-failure code, without a traceback."""
    pi1 = tmp_path / "pi1.sexp"
    pi1.write_text(CONSTANT_BIVECTOR, encoding="utf-8")
    monkeypatch.setattr(f"gerstenhaber.starproduct.{attr}", broken)
    code = main(["mc-solve", "--pi1", str(pi1), "--order", "3", *gen])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("order", [ORDER_LIMIT, ORDER_LIMIT + 1])
def test_cli_refuses_an_order_no_reader_accepts(tmp_path, capsys, monkeypatch, order):
    """``--order`` past ``ORDER_LIMIT``, above which no reader accepts a
    deformation document, is refused before the solver runs: exit 1 and one
    line naming the flag and the limit.  ``ORDER_LIMIT`` itself reaches it."""
    pi1 = tmp_path / "pi1.sexp"
    pi1.write_text(CONSTANT_BIVECTOR, encoding="utf-8")
    orders = []

    def solver(pi1, order, **options):
        orders.append(order)
        raise ValueError("solver reached")

    monkeypatch.setattr("gerstenhaber.cli.solve_maurer_cartan", solver)
    code = main(["mc-solve", "--pi1", str(pi1), "--order", str(order)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    if order > ORDER_LIMIT:
        assert orders == []
        assert captured.err == f"error: --order must be at most {ORDER_LIMIT}\n"
    else:
        assert orders == [order]
        assert captured.err == "error: solver reached\n"


def test_cli_failed_associativity_check_prints_no_document(tmp_path, capsys, monkeypatch):
    pi1 = tmp_path / "pi1.sexp"
    pi1.write_text(CONSTANT_BIVECTOR, encoding="utf-8")
    monkeypatch.setattr("gerstenhaber.cli.associativity_defect",
                        lambda d, f, g, h: {2: Polynomial(2, {(0, 0): 1})})
    code = main(["mc-solve", "--pi1", str(pi1), "--order", "2", "--check-assoc"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "associativity check failed; solver output is inconsistent\n"


# Each fault in a term record and the exact line it is reported with.  A
# cochain term's faults are reported term by term, its indices' form before
# their signs; a polynomial's signs are checked after every term's form.
COCHAIN_WITH_ONE_TERM = "(cochain 2 (term 1 (0 0) (1 0)))"
POLY_WITH_ONE_TERM = "(poly 2 (term 1 (1 0)))"


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("bigrade", "(cochain 2 (term 1 (0 0) (1 -1)))", "exponent index must be nonnegative, got (1, -1)"),
        ("bigrade", "(cochain 2 (term 1 (0 -3)))", "exponent index must be nonnegative, got (0, -3)"),
        ("bigrade", "(cochain 2 (term 1 (0 0) (1 0 0)))", "index (1, 0, 0) is not 2 integers"),
        ("bigrade", "(cochain 2 (term 1 (0 1/2)))", "index (0, Fraction(1, 2)) is not 2 integers"),
        ("bigrade", "(cochain 2 (term 1 (0 x)))", "index (0, 'x') is not 2 integers"),
        ("bigrade", "(cochain 2 (term 1 (0 (1))))", "index (0, (1,)) is not 2 integers"),
        ("bigrade", "(cochain 2 (term 1 (0 0) 5))", "expected a list for index, got 5"),
        ("bigrade", "(cochain 2 (term x (0 0)))", "term coefficient 'x' is not rational"),
        ("bigrade", "(cochain 2 (term 1))", "malformed term ('term', 1)"),
        ("bigrade", "(cochain 2 term)", "expected a list for term, got 'term'"),
        ("bigrade", "(cochain 2 (term 1 (-1 0) (0 0 0)))", "index (0, 0, 0) is not 2 integers"),
        ("bigrade", "(cochain 2 (term 1 (0 0) (-1 0) (1/2 0)))", "index (Fraction(1, 2), 0) is not 2 integers"),
        ("bigrade", "(cochain 2 (term 1 (0 0)) (term 1 (0 -1)) (term 1 (0 0 0)))",
         "exponent index must be nonnegative, got (0, -1)"),
        ("bigrade", "(cochain 0 (term 1 ()))", "dimension must be a positive integer, got 0"),
        ("bigrade", "(cochain 0 (term 1 (0)))", "index (0,) is not 0 integers"),
        ("bigrade", "(cochain 0)", "dimension must be a positive integer, got 0"),
        ("bigrade", "(cochain -1 (term 1 ()))", "index () is not -1 integers"),
        ("apply", "(poly 2 (term 1 (-1 0)))", "exponent index must be nonnegative, got (-1, 0)"),
        ("apply", "(poly 2 (term 1 (0 0) (1 1)))", "polynomial terms carry exactly one index"),
        ("apply", "(poly 2 (term 1 (-1 0)) (term 1 (0 0) (1 1)))", "polynomial terms carry exactly one index"),
        ("apply", "(poly 2 (term 1 (-1 0)) (term 1 (0 0 0)))", "index (0, 0, 0) is not 2 integers"),
        ("apply", "(poly 0 (term 1 ()) (term 1 () ()))", "polynomial terms carry exactly one index"),
        ("star-apply", "(deformation 2 (order 2) (pk 1 (term 1 (0 0) (-1 0))))",
         "exponent index must be nonnegative, got (-1, 0)"),
        ("star-apply", "(deformation 2 (order 2) (pk 2 (term 1 (0 0) (1))))", "index (1,) is not 2 integers"),
        # Index lists: a numeral too long to be read as part of an index-list
        # token, the first exponent past the budget, a record's faults in the
        # same order as above, an index repeated after it was refused, and an
        # entry that equals an integer without being one.
        ("bigrade", "(cochain 2 (term 1 (0 0) (123456 0)))", "exponent 123456 exceeds the exponent budget of 65535"),
        ("bigrade", "(cochain 2 (term 1 (0 0) (65536 0)))", "exponent 65536 exceeds the exponent budget of 65535"),
        ("bigrade", "(cochain 1 (term 1 (0) (65535) (65536)))", "exponent 65536 exceeds the exponent budget of 65535"),
        ("bigrade", "(cochain 2 (term 1 (0 0) (70000 0) (65536 1)))",
         "exponent 70000 exceeds the exponent budget of 65535"),
        ("bigrade", "(cochain 2 (term 1 (65536 0) (-1 0)))", "exponent index must be nonnegative, got (-1, 0)"),
        ("bigrade", "(cochain 2 (term 1 (0 0) (65536 0) (0 0 0)))", "index (0, 0, 0) is not 2 integers"),
        ("bigrade", "(cochain 2 (term 1 ()))", "index () is not 2 integers"),
        ("bigrade", "(cochain 2 (term 1 ( )))", "index () is not 2 integers"),
        ("bigrade", "(cochain 2 (term 1 (+1 -1)))", "exponent index must be nonnegative, got (1, -1)"),
        ("bigrade", "(cochain 2 (term 1 (0 0)) (term 1 (0 0) (1 -1)) (term 1 (1 -1)))",
         "exponent index must be nonnegative, got (1, -1)"),
        ("bigrade", "(cochain 2 (term 1 (0 1)) (term 1 (0 1/1)))", "index (0, Fraction(1, 1)) is not 2 integers"),
        ("apply", "(poly 2 (term 1 (65536 0)) (term 1 (-1 0)))", "exponent index must be nonnegative, got (-1, 0)"),
        ("apply", "(poly 2 (term 1 (65536 0)) (term 1 (0 0 0)))", "index (0, 0, 0) is not 2 integers"),
        ("apply", "(poly 2 (term 1 (65536 0)) (term 1 (70000 0)))", "exponent 65536 exceeds the exponent budget of 65535"),
    ],
)
def test_cli_term_fault_is_reported_on_one_line(tmp_path, capsys, command, text, message):
    bad = tmp_path / "bad.sexp"
    bad.write_text(text, encoding="utf-8")
    cochain = tmp_path / "c.sexp"
    cochain.write_text(COCHAIN_WITH_ONE_TERM, encoding="utf-8")
    poly = tmp_path / "p.sexp"
    poly.write_text(POLY_WITH_ONE_TERM, encoding="utf-8")
    argv = {
        "bigrade": ["bigrade", str(bad)],
        "apply": ["apply", str(cochain), str(bad)],
        "star-apply": ["star-apply", "--deformation", str(bad), str(poly), str(poly)],
    }[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "atom, message",
    [
        ("1/0", "rational with zero denominator"),
        ("7" * 5000, "integer literal of 5000 digits exceeds the limit of 4300"),
        ("1/" + "3" * 4400, "integer literal of 4400 digits exceeds the limit of 4300"),
    ],
    ids=["zero-denominator", "overlong-integer", "overlong-denominator"],
)
def test_a_repeated_bad_atom_is_reported_where_it_first_occurs(tmp_path, capsys, atom, message):
    text = f"(cochain 2\n  (term 1 (0 0))\n  (term {atom} (1 0))\n  (term {atom} (0 1)))"
    with pytest.raises(SexprError) as err:
        parse_sexpr(text)
    assert (err.value.line, err.value.column) == (3, 9)
    path = tmp_path / "c.sexp"
    path.write_text(text, encoding="utf-8")
    assert main(["bigrade", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line 3, column 9: {message}\n"


@pytest.mark.parametrize(
    "raised, line",
    [
        (MemoryError(), "error: out of memory"),
        (RecursionError("maximum recursion depth exceeded"), "error: maximum recursion depth exceeded"),
    ],
    ids=["memory", "recursion"],
)
def test_cli_resource_exhaustion_exits_one_on_one_line(tmp_path, capsys, monkeypatch, raised, line):
    """Running out of memory or stack ends in one ``error:`` line and exit
    code 1, not a traceback."""
    path = tmp_path / "c.sexp"
    path.write_text(COCHAIN_WITH_ONE_TERM, encoding="utf-8")

    def exhausted(args):
        raise raised

    monkeypatch.setattr("gerstenhaber.cli._cmd_delta", exhausted)
    assert main(["delta", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{line}\n"
