import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerstenhaber import (
    BasisTerm,
    Cochain,
    Deformation,
    Polynomial,
    bracket,
    hochschild_delta,
    solve_maurer_cartan,
)
from gerstenhaber.axioms import random_cochain, random_polynomial
from gerstenhaber.cli import main
from gerstenhaber.sexpr import SexprError, parse_document, parse_sexpr, print_document


def term(x_part, *slots):
    return BasisTerm(2, x_part, slots)


BIVECTOR_TEXT = "(cochain 2 (term 1 (0 0) (1 0) (0 1)) (term -1 (0 0) (0 1) (1 0)))"


# -- parsing -------------------------------------------------------------------


def test_parse_antisymmetric_bivector():
    c = parse_document(BIVECTOR_TEXT)
    assert c == Cochain(2, {term((0, 0), (1, 0), (0, 1)): 1, term((0, 0), (0, 1), (1, 0)): -1})


def test_parse_scaling_field():
    c = parse_document("(cochain 2 (term 1 (1 0) (1 0)))")
    assert c == Cochain(2, {term((1, 0), (1, 0)): 1})


def test_parse_rational_coefficients():
    c = parse_document("(cochain 2 (term -3/2 (0 0) (1 0)))")
    assert c == Cochain(2, {term((0, 0), (1, 0)): Fraction(-3, 2)})


def test_parse_polynomial_document():
    p = parse_document("(poly 2 (term 1/2 (2 0)) (term -1 (0 1)))")
    assert p == Polynomial(2, {(2, 0): Fraction(1, 2), (0, 1): -1})


def test_syntax_error_carries_position():
    with pytest.raises(SexprError) as err:
        parse_sexpr("(cochain 2\n  (term 1 (0 0))")
    assert "line" in str(err.value) and "column" in str(err.value)
    with pytest.raises(SexprError):
        parse_sexpr("(poly 2) trailing")
    with pytest.raises(SexprError):
        parse_sexpr("(term 1/0 (0 0))")


# Token separators: blanks, a lone CR (one column, not a line end), CRLF and
# comments, which run to the next LF.
SEPARATORS = (" ", "\t", "  \t ", "\r", "\r\n", "\n\t", " ; note (\r\n", ";;)\n")


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_error_position_is_the_offending_token(seed, data):
    printed = print_document(random_cochain(random.Random(seed)))
    tokens = printed.replace("(", " ( ").replace(")", " ) ").split()
    seps = data.draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(tokens) + 1,
                              max_size=len(tokens) + 1))
    pieces = [seps[0]]  # pieces[2k + 1] is tokens[k]; separators around them
    for token, sep in zip(tokens, seps[1:]):
        pieces += [token, sep]
    # Insert after the separator that follows `where` tokens; after the last
    # one the atom trails the document.
    where = data.draw(st.integers(0, len(tokens)))
    before = "".join(pieces[: 2 * where + 1])
    text = before + "1/0 " + "".join(pieces[2 * where + 1:])
    with pytest.raises(SexprError) as err:
        parse_sexpr(text)
    lines = before.split("\n")
    assert (err.value.line, err.value.column) == (len(lines), len(lines[-1]) + 1)
    if where == len(tokens):
        assert str(err.value).endswith("unexpected trailing content '1/0'")
    else:
        assert str(err.value).endswith("rational with zero denominator")


def test_dimension_mismatch_in_document():
    with pytest.raises(Exception):
        parse_document("(cochain 2 (term 1 (0 0 0)))")


def test_comments_and_whitespace_ignored():
    text = "; a comment\n(cochain 2 ; inline\n (term 1 (0 0)))"
    assert parse_document(text) == Cochain(2, {term((0, 0)): 1})


# -- printing and round trips ---------------------------------------------------


def test_print_emits_canonical_order():
    c = Cochain(2, {term((0, 0), (0, 1), (1, 0)): -1, term((0, 0), (1, 0), (0, 1)): 1})
    text = print_document(c)
    # canonical order sorts slot lists lexicographically, whatever the input order
    assert text == "(cochain 2\n  (term -1 (0 0) (0 1) (1 0))\n  (term 1 (0 0) (1 0) (0 1)))"
    assert print_document(parse_document(BIVECTOR_TEXT)) == text


def test_roundtrip_500_random_cochains():
    rng = random.Random(20250809)
    for _ in range(500):
        c = random_cochain(rng)
        assert parse_document(print_document(c)) == c


def test_roundtrip_polynomials():
    rng = random.Random(97)
    for _ in range(100):
        p = random_polynomial(rng)
        assert parse_document(print_document(p)) == p


def test_roundtrip_deformation():
    d = solve_maurer_cartan(parse_document(BIVECTOR_TEXT), 3)
    assert parse_document(print_document(d)) == d


def test_roundtrip_report_document():
    doc = ("report", 2, ("law", "jacobi-identity", "pass", 100))
    assert parse_document(print_document(doc)) == doc


def test_print_refuses_a_value_that_is_not_a_document():
    with pytest.raises(TypeError, match="not a document: BasisTerm"):
        print_document(term((0, 0), (1, 0)))


def test_print_deterministic():
    rng = random.Random(89)
    c = random_cochain(rng)
    assert print_document(c) == print_document(c)


# -- CLI ------------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def test_cli_bracket_eigenvalue(files, capsys):
    h1 = files("h1.sexp", "(cochain 2 (term 1 (1 0) (1 0)))")
    t = files("t.sexp", "(cochain 2 (term 1 (2 0) (1 0)))")
    code, out, _ = run_cli(capsys, "bracket", h1, t)
    assert code == 0
    assert parse_document(out) == parse_document("(cochain 2 (term 1 (2 0) (1 0)))")


def test_cli_cup_and_delta_and_apply(files, capsys):
    left = files("a.sexp", "(cochain 2 (term 1 (1 0) (1 0)))")
    right = files("b.sexp", "(cochain 2 (term 1 (0 0) (0 1)))")
    code, out, _ = run_cli(capsys, "cup", left, right)
    assert code == 0
    assert parse_document(out) == parse_document("(cochain 2 (term 1 (1 0) (1 0) (0 1)))")

    field = files("c.sexp", "(cochain 2 (term 1 (0 0) (1 1)))")
    code, out, _ = run_cli(capsys, "delta", field)
    assert code == 0
    assert parse_document(out) == parse_document(
        "(cochain 2 (term -1 (0 0) (1 0) (0 1)) (term -1 (0 0) (0 1) (1 0)))"
    )

    square = files("u.sexp", "(poly 2 (term 1 (2 0)))")
    code, out, _ = run_cli(capsys, "apply", left, square)
    assert code == 0
    assert parse_document(out) == Polynomial(2, {(2, 0): 2})


def test_cli_weight_and_bigrade(files, capsys):
    c = files("c.sexp", BIVECTOR_TEXT)
    code, out, _ = run_cli(capsys, "weight", c)
    assert code == 0
    doc = parse_document(out)
    assert doc[0] == "report"
    assert doc[2][0] == "weight" and doc[2][1] == (-1, -1)

    code, out, _ = run_cli(capsys, "bigrade", c)
    assert code == 0
    doc = parse_document(out)
    assert doc[2][:3] == ("bigrade", (-1, -1), (1, 1))


def test_cli_member_and_certificate(capsys):
    code, out, _ = run_cli(capsys, "member", "--weight=-3,-3", "--gen=-1,-1")
    assert code == 0
    doc = parse_document(out)
    assert ("member", "yes") in doc[2:]
    assert ("certificate", 3) in doc[2:]

    code, out, _ = run_cli(capsys, "member", "--weight=-1,0", "--gen=-1,-1")
    assert code == 0
    assert ("member", "no") in parse_document(out)[2:]


def test_cli_member_inconclusive_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "member", "--weight=40,0", "--gen=1,0", "--gen=-1,0", "--cap=5"
    )
    assert code == 3
    assert ("member", "inconclusive") in parse_document(out)[2:]


def test_cli_project(files, capsys):
    c = files(
        "c.sexp",
        "(cochain 2 (term 1 (0 0) (0 0) (0 0)) (term 1 (0 0) (1 0) (0 1)))",
    )
    code, out, _ = run_cli(capsys, "project", c, "--gen=-1,-1")
    assert code == 0
    doc = parse_document(out)
    assert ("member", "no") in doc[2:]
    projection = next(entry for entry in doc[2:] if entry[0] == "projection")
    assert projection[1:] == (("term", 1, (0, 0), (1, 0), (0, 1)),)


def test_cli_project_names_the_undecided_weight(files, capsys):
    # (1, 0) is a member; (40, 0) needs 40 generator uses, beyond the cap of 3
    c = files("c.sexp", "(cochain 2 (term 1 (1 0)) (term 1 (40 0)))")
    code, out, err = run_cli(capsys, "project", c, "--gen=1,0", "--gen=-1,0", "--cap=3")
    assert code == 3
    assert out == ""
    assert err == "inconclusive: membership of weight (40, 0) undecided within search cap 3\n"


def test_cli_ideal_member(files, capsys):
    c = files("c.sexp", "(cochain 2 (term 1 (0 0) (1 1) (1 1)))")  # weight (-2,-2)
    code, out, _ = run_cli(capsys, "ideal-member", c, "--gen=-1,-1", "--fold=2")
    assert code == 0
    assert ("ideal-member", "yes") in parse_document(out)[2:]


def test_cli_theta_and_split(files, capsys):
    c = files("c.sexp", "(cochain 2 (term 1 (1 0) (0 1)))")
    code, out, _ = run_cli(capsys, "theta", c, "--indices=1")
    assert code == 0
    assert parse_document(out) == Cochain(2, {term((1, 0), (0, 1)): -1})

    code, out, _ = run_cli(capsys, "theta-split", c, "--indices=1")
    assert code == 0
    doc = parse_document(out)
    plus = next(e for e in doc[2:] if e[0] == "plus")
    minus = next(e for e in doc[2:] if e[0] == "minus")
    assert plus[1:] == ()
    assert minus[1:] == (("term", 1, (1, 0), (0, 1)),)


def test_cli_filtration(files, capsys):
    c = files("c.sexp", BIVECTOR_TEXT)
    code, out, _ = run_cli(capsys, "filtration", c)
    assert code == 0
    doc = parse_document(out)
    assert ("index", (-1, -1), (1, 1)) in doc[2:]

    code, out, _ = run_cli(capsys, "filtration", c, "--alpha=-1,-1:1,1", "--mode=literal")
    assert code == 0
    assert ("contains", "yes") in parse_document(out)[2:]


def test_cli_mc_solve_star_apply_assoc(files, capsys, tmp_path):
    pi1 = files("pi1.sexp", BIVECTOR_TEXT)
    code, out, _ = run_cli(
        capsys, "mc-solve", "--pi1", pi1, "--order", "3", "--check-assoc", "--seed", "9"
    )
    assert code == 0
    deformation = parse_document(out)
    assert deformation.order == 3
    deformation_path = tmp_path / "def.sexp"
    deformation_path.write_text(out, encoding="utf-8")

    x1 = files("x1.sexp", "(poly 2 (term 1 (1 0)))")
    x2 = files("x2.sexp", "(poly 2 (term 1 (0 1)))")
    code, out, _ = run_cli(capsys, "star-apply", "--deformation", str(deformation_path), x1, x2)
    assert code == 0
    doc = parse_document(out)
    tpows = {e[1]: e[2:] for e in doc[2:] if e[0] == "tpow"}
    assert tpows[0] == (("term", 1, (1, 1)),)
    assert tpows[1] == (("term", Fraction(1, 2), (0, 0)),)

    code, out, _ = run_cli(
        capsys,
        "assoc-defect",
        "--deformation",
        str(deformation_path),
        "--expect-zero",
        x1,
        x2,
        x1,
    )
    assert code == 0
    assert ("zero", "yes") in parse_document(out)[2:]


def test_cli_assoc_defect_detects_broken_deformation(files, capsys):
    # hand-built deformation with the order-2 coefficient removed
    d = solve_maurer_cartan(parse_document(BIVECTOR_TEXT), 2)
    broken = Deformation(dimension=2, cochains=(d.coefficient(1), Cochain.zero(2)))
    path = files("broken.sexp", print_document(broken))
    f = files("f.sexp", "(poly 2 (term 1 (2 0)))")
    g = files("g.sexp", "(poly 2 (term 1 (0 2)))")
    h = files("h.sexp", "(poly 2 (term 1 (1 1)))")
    code, out, _ = run_cli(
        capsys, "assoc-defect", "--deformation", path, "--expect-zero", f, g, h
    )
    assert code == 2
    assert ("zero", "no") in parse_document(out)[2:]


def test_cli_parse_error_exit_code(files, capsys):
    bad = files("bad.sexp", "(cochain 2 (term 1 (0 0)")
    code, _, err = run_cli(capsys, "delta", bad)
    assert code == 1
    assert "error" in err


def test_cli_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(BIVECTOR_TEXT))
    code, out, _ = run_cli(capsys, "weight", "-")
    assert code == 0
    assert parse_document(out)[0] == "report"


def test_cli_json_mirror(files, capsys):
    c = files("c.sexp", "(cochain 2 (term 1/2 (1 0) (1 0)))")
    code, out, _ = run_cli(capsys, "--json", "theta", c, "--indices=2")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "cochain"
    assert payload["dimension"] == 2
    assert payload["body"] == [["term", "1/2", [1, 0], [1, 0]]]


def test_cli_output_determinism(files, capsys):
    c = files("c.sexp", BIVECTOR_TEXT)
    code1, out1, _ = run_cli(capsys, "bigrade", c)
    code2, out2, _ = run_cli(capsys, "bigrade", c)
    assert (code1, out1) == (code2, out2)

    code1, out1, _ = run_cli(capsys, "verify-axioms", "--seed", "3", "--trials", "3",
                             "--law", "cup-associativity")
    code2, out2, _ = run_cli(capsys, "verify-axioms", "--seed", "3", "--trials", "3",
                             "--law", "cup-associativity")
    assert (code1, out1) == (code2, out2)


GOLDEN_MC_SOLVE_ORDER3 = (
    "(deformation 2\n"
    "  (order 3)\n"
    "  (pk 1 (term -1/2 (0 0) (0 1) (1 0)) (term 1/2 (0 0) (1 0) (0 1)))\n"
    "  (pk 2 (term 1/8 (0 0) (0 2) (2 0)) (term -1/4 (0 0) (1 1) (1 1))"
    " (term 1/8 (0 0) (2 0) (0 2)))\n"
    "  (pk 3 (term -1/48 (0 0) (0 3) (3 0)) (term 1/16 (0 0) (1 2) (2 1))"
    " (term -1/16 (0 0) (2 1) (1 2)) (term 1/48 (0 0) (3 0) (0 3))))\n"
)


def test_cli_mc_solve_golden_bytes(files, capsys):
    """The zero-free-variable gauge makes solver output reproducible byte for byte;
    for the constant symplectic bivector it is the exponential series."""
    pi1 = files("pi1.sexp", BIVECTOR_TEXT)
    code, out, _ = run_cli(capsys, "mc-solve", "--pi1", pi1, "--order", "3")
    assert code == 0
    assert out == GOLDEN_MC_SOLVE_ORDER3


def test_cli_verify_axioms_full_run(capsys):
    code, out, _ = run_cli(capsys, "verify-axioms", "--seed", "42", "--trials", "100")
    assert code == 0
    doc = parse_document(out)
    assert ("seed", 42) in doc[2:] and ("trials", 100) in doc[2:]
    laws = {e[1]: e[2] for e in doc[2:] if e[0] == "law"}
    for wanted in (
        "jacobi-identity",
        "vector-field-leibniz",
        "weight-additivity",
        "semigroup-closure",
        "delta-squared-zero",
        "delta-bracket-agreement",
    ):
        assert laws[wanted] == "pass"
    assert all(v == "pass" for v in laws.values())


def test_cli_verify_axioms_small(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify-axioms",
        "--seed",
        "42",
        "--trials",
        "5",
        "--law",
        "cup-associativity",
        "--law",
        "delta-bracket-agreement",
        "--law",
        "subgroup-criterion",
    )
    assert code == 0
    doc = parse_document(out)
    assert ("seed", 42) in doc[2:]
    laws = {e[1]: e for e in doc[2:] if e[0] == "law"}
    assert laws["cup-associativity"][2] == "pass"
    assert laws["delta-bracket-agreement"][2] == "pass"
    # the subgroup law always reports the violating pair for the ray candidate
    witness = laws["subgroup-criterion"][4]
    assert witness[0] == "witness" and witness[1] == (1, 0) and witness[2] == (-1, 0)


@pytest.mark.parametrize(
    "attr, broken, failed, digest",
    [
        (
            "bracket",
            lambda f, g: bracket(f, g) * 2,
            {"evaluation-coherence": 1, "weight-eigenvalue": 2},
            "7bc7e3b5392b4fd2b9b6cd9762ac7fdfa31a545c8d564aad10c2e89de68123b7",
        ),
        (
            "hochschild_delta",
            lambda f: hochschild_delta(f) + f,
            {
                "delta-squared-zero": 0,
                "delta-bracket-agreement": 1,
                "mc-order-correctness": 2,
                "moyal-agreement": 3,
            },
            "c155e2b5214b0b9f43dbccf7f10ed5d0aea83d570fbd6064482b034777c30f07",
        ),
    ],
)
def test_cli_verify_axioms_reports_broken_operation(capsys, monkeypatch, attr, broken, failed, digest):
    """A wrong operation fails the laws that detect it, each with its check
    count and witness; the whole report is pinned byte for byte."""
    monkeypatch.setattr(f"gerstenhaber.axioms.{attr}", broken)
    code, out, _ = run_cli(capsys, "verify-axioms", "--seed", "3", "--trials", "8")
    assert code == 2
    laws = [e for e in parse_document(out)[2:] if e[0] == "law"]
    assert {e[1]: e[3] for e in laws if e[2] == "fail"} == failed
    assert all(e[4][0] == "counterexample" for e in laws if e[2] == "fail")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Degree 8 to 10 operands with pairwise coprime denominators up to ~10^6
# (1000003 and 999983 are prime), so products and derivatives of them carry
# large numerators and reduce nontrivially.
EVAL_F = "(poly 2 (term 3/7 (8 0)) (term -5/11 (3 6)) (term 2 (0 9)) (term 13/1000003 (5 5)))"
EVAL_G = "(poly 2 (term -1/6 (1 8)) (term 7/999983 (9 1)) (term 4/9 (4 4)))"
EVAL_H = "(poly 2 (term 1/2 (2 7)) (term -3/5 (6 2)) (term 1 (10 0)))"
X1_BIVECTOR_TEXT = "(cochain 2 (term 1 (1 0) (1 0) (0 1)) (term -1 (1 0) (0 1) (1 0)))"


def test_cli_evaluation_golden_bytes(files, capsys):
    """``star-apply`` and ``assoc-defect`` output under the order-4 deformation
    of the ``x1`` bivector is pinned byte for byte on degree 8+ operands.
    The second ``assoc-defect`` run drops the order-2 coefficient, so its
    defect is a nonzero series rather than ``(zero yes)``."""
    pi1 = files("pi1.sexp", X1_BIVECTOR_TEXT)
    code, solved, _ = run_cli(capsys, "mc-solve", "--pi1", pi1, "--order", "4")
    assert code == 0
    deformation = files("def.sexp", solved)
    d = parse_document(solved)
    broken = Deformation(dimension=2, cochains=(d.coefficient(1), Cochain.zero(2), *d.cochains[2:]))
    broken_path = files("broken.sexp", print_document(broken))
    f, g, h = files("f.sexp", EVAL_F), files("g.sexp", EVAL_G), files("h.sexp", EVAL_H)
    runs = {
        "star-apply": ["star-apply", "--deformation", deformation, f, g],
        "assoc-defect": ["assoc-defect", "--deformation", deformation, f, g, h],
        "assoc-defect broken": ["assoc-defect", "--deformation", broken_path, f, g, h],
    }
    outputs = {}
    for name, argv in runs.items():
        code, outputs[name], _ = run_cli(capsys, *argv)
        assert code == 0
    assert ("zero", "yes") in parse_document(outputs["assoc-defect"])[2:]
    assert ("zero", "no") in parse_document(outputs["assoc-defect broken"])[2:]
    assert {name: hashlib.sha256(out.encode()).hexdigest() for name, out in outputs.items()} == {
        "star-apply": "76acf83cb4ea8006eeeccc4486b6a47a7c465f98685b97d56fa40e8388fc1c72",
        "assoc-defect": "0f2dc5828c997c3b310ea166d20d2d5062b5ac44926643f1e5f5d171d154a7d4",
        "assoc-defect broken": "a161caa56e5cc40c62fdbb0cc28684c45333614d9d26f12579c704c79bbc9b17",
    }


X1X2_BIVECTOR_TEXT = "(cochain 2 (term 1 (1 1) (1 0) (0 1)) (term -1 (1 1) (0 1) (1 0)))"


@pytest.mark.parametrize(
    "bivector, args, digest",
    [
        (X1X2_BIVECTOR_TEXT, ["--order", "5"], "43d8f656cf591961e1717eaa6a7e1b0b9fe6d1b139d2bc682855085d5c354254"),
        (
            X1_BIVECTOR_TEXT,
            ["--order", "6", "--gen=0,-1"],
            "5d21364fb63f64304c853fce57cb91c9e95f33d7d31b840afa9855a724a3777a",
        ),
    ],
    ids=["x1x2-order5", "x1-order6-ideal"],
)
def test_cli_mc_solve_golden_digests(files, capsys, bivector, args, digest):
    """Solver output is pinned byte for byte past the orders the closed-form
    tests reach: the coboundary blocks, the elimination and the free-variable
    gauge all shape these bytes."""
    pi1 = files("pi1.sexp", bivector)
    code, out, _ = run_cli(capsys, "mc-solve", "--pi1", pi1, *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
