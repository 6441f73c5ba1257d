"""Error paths, exactness guards, and off-plane (dimension != 2) behavior."""

import random
from fractions import Fraction

import pytest

from gerstenhaber import (
    BasisTerm,
    Cochain,
    Membership,
    Polynomial,
    SemigroupSpec,
    delta_via_bracket,
    hochschild_delta,
    solve_delta,
)
from gerstenhaber.sexpr import SexprError, parse_sexpr
from gerstenhaber.cli import main


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


def test_semigroup_spec_validation():
    with pytest.raises(Exception):
        SemigroupSpec(dimension=2, generators=((1, 0, 0),))
    with pytest.raises(ValueError):
        SemigroupSpec(dimension=2, generators=((1, 0),), search_cap=0)
    spec = SemigroupSpec(dimension=2, generators=((1, 0), (1, 0), (0, 1)))
    assert spec.generators == ((0, 1), (1, 0))  # deduplicated, sorted


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


def test_integer_literal_at_the_digit_limit_parses():
    assert parse_sexpr("(term " + "7" * 4300 + ")") == ("term", int("7" * 4300))
    assert parse_sexpr("(term 1/" + "3" * 4300 + ")") == ("term", Fraction(1, int("3" * 4300)))


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["sexpr", "json"])
@pytest.mark.parametrize(
    "term, digits",
    [("7" * 3000 + " (1 0) (0 1)", 6000), ("1/" + "7" * 3000 + " (1 0) (0 1)", 6000), ("1 (" + "9" * 4300 + " 0)", 4301)],
    ids=["numerator", "denominator", "exponent"],
)
def test_cli_overlong_output_integer_is_refused_naming_the_limit(tmp_path, json_flag, term, digits):
    """A product of two 3000-digit integers has 6000 digits, and a sum of two
    4300-digit exponents 4301, past what str() converts by default (4300
    digits); printing refuses them in the parser's wording."""
    path = tmp_path / "c.sexp"
    path.write_text(f"(cochain 2 (term {term}))", encoding="utf-8")
    result = _run_cli(*json_flag, "cup", str(path), str(path))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        f"error: output integer of {digits} digits exceeds the limit of 4300"
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


@pytest.mark.parametrize("newline", ["\r", "\r\n", "\n"], ids=["CR", "CRLF", "LF"])
def test_cli_and_parser_report_the_same_error_position(tmp_path, newline):
    """Files and standard input reach the parser untranslated, so a lone CR
    counts as one column on every route, not as a line end."""
    text = f"(cochain 2{newline}(term 1/0 (0 0)))"
    with pytest.raises(SexprError) as err:
        parse_sexpr(text)
    if newline == "\r":
        assert (err.value.line, err.value.column) == (1, 18)
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


CONSTANT_BIVECTOR = "(cochain 2 (term 1 (0 0) (1 0) (0 1)) (term -1 (0 0) (0 1) (1 0)))"
P1 = Cochain(2, {BasisTerm(2, (0, 0), ((1, 0), (0, 1))): Fraction(1, 2),
                 BasisTerm(2, (0, 0), ((0, 1), (1, 0))): Fraction(-1, 2)})
STRAY = Cochain(2, {BasisTerm(2, (0, 0), ((1, 0), (1, 0), (1, 0))): 1})


def _delta_adding(extra_for):
    """``hochschild_delta`` plus ``extra_for(c)``: a broken engine for the solver."""

    def broken(c):
        return hochschild_delta(c) + extra_for(c)

    return broken


@pytest.mark.parametrize(
    "attr, broken, gen, message",
    [
        (
            "hochschild_delta",
            _delta_adding(lambda c: c if c.arities() == (3,) else Cochain.zero(2)),
            [],
            "order-2 obstruction is not closed; bracket engine bug",
        ),
        (
            "hochschild_delta",
            _delta_adding(lambda c: STRAY if c.arities() == (2,) and c != P1 else Cochain.zero(2)),
            [],
            "order-2 block solve failed verification",
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
    """A failed self-check of the solver names its order on one stderr line
    and exits 2, the verification-failure code, without a traceback."""
    pi1 = tmp_path / "pi1.sexp"
    pi1.write_text(CONSTANT_BIVECTOR, encoding="utf-8")
    monkeypatch.setattr(f"gerstenhaber.starproduct.{attr}", broken)
    code = main(["mc-solve", "--pi1", str(pi1), "--order", "3", *gen])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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
