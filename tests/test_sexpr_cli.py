import hashlib
import json
import os
import random
from fractions import Fraction
from itertools import chain

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
from gerstenhaber.axioms import _fail, random_cochain, random_polynomial
from gerstenhaber.cli import main
from gerstenhaber.cochains import _indices
from gerstenhaber.sexpr import SexprError, Terms, format_sexpr, parse_document, parse_sexpr, print_document


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
SEPARATORS = (" ", "  ", "\t", "  \t ", "\r", "\r\n", "\n", "\n\t", " ; note (\r\n", ";;)\n")
# Other spellings of a nonnegative integer: a sign, leading zeros.
PREFIXES = ("", "", "+", "0", "0000")


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_error_position_is_the_offending_token(seed, data):
    """The printed cochain, respaced and its integers respelled, reads as
    printed (inside an index list too), and an atom inserted anywhere is
    reported at its own line and column."""
    c = random_cochain(random.Random(seed))
    printed = print_document(c)
    tokens = printed.replace("(", " ( ").replace(")", " ) ").split()
    prefixes = data.draw(st.lists(st.sampled_from(PREFIXES), min_size=len(tokens), max_size=len(tokens)))
    tokens = [prefix + t if t.isdecimal() else t for prefix, t in zip(prefixes, tokens)]
    seps = data.draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(tokens) + 1,
                              max_size=len(tokens) + 1))
    pieces = [seps[0]]  # pieces[2k + 1] is tokens[k]; separators around them
    for token, sep in zip(tokens, seps[1:]):
        pieces += [token, sep]
    respelled = "".join(pieces)
    assert parse_sexpr(respelled) == parse_sexpr(printed)
    assert parse_document(respelled) == c
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


def _record(coeff: tuple, indices) -> str:
    """A term record; the coefficient ``(n, d)`` is written unreduced, or as an integer when d is 1."""
    n, d = coeff
    text = str(n) if d == 1 else f"{n}/{d}"
    return f"(term {text} " + " ".join("(" + " ".join(map(str, i)) + ")" for i in indices) + ")"


@st.composite
def term_records(draw, arities, dimension=None):
    """A dimension, and ``(coefficient, indices)`` records drawn from a small pool
    of keys, so keys repeat; some records are followed by their negation."""
    if dimension is None:
        dimension = draw(st.integers(1, 3))
    entry = st.integers(0, 3)
    index = st.tuples(*[entry] * dimension)
    keys = draw(st.lists(st.integers(*arities).flatmap(lambda p: st.tuples(*[index] * (p + 1))),
                         min_size=1, max_size=6))
    coeff = st.tuples(st.integers(-12, 12), st.sampled_from((1, 1, 2, 3, 4, 6, 9, 10)))
    records = []
    for key, (n, d), cancel in draw(st.lists(st.tuples(st.sampled_from(keys), coeff, st.booleans()),
                                              max_size=25)):
        records.append(((n, d), key))
        if cancel:
            records.append(((-n, d), key))
    return dimension, records


@settings(max_examples=200, deadline=None)
@given(term_records((0, 3)))
def test_parsed_cochain_equals_the_constructed_one(drawn):
    """The parser builds the same store as the public constructor from the
    same terms, with duplicates summed, cancelled terms dropped and mixed
    denominators brought to one; printing is a fixed point of parse∘print."""
    dimension, records = drawn
    text = f"(cochain {dimension} " + " ".join(_record(c, key) for c, key in records) + ")"
    expected = Cochain(dimension, [(BasisTerm(dimension, key[0], key[1:]), Fraction(*c)) for c, key in records])
    parsed = parse_document(text)
    assert parsed == expected
    printed = print_document(parsed)
    assert print_document(parse_document(printed)) == printed


@settings(max_examples=200, deadline=None)
@given(term_records((0, 0)))
def test_parsed_polynomial_equals_the_constructed_one(drawn):
    dimension, records = drawn
    text = f"(poly {dimension} " + " ".join(_record(c, key) for c, key in records) + ")"
    expected = Polynomial(dimension, [(key[0], Fraction(*c)) for c, key in records])
    parsed = parse_document(text)
    assert parsed == expected
    printed = print_document(parsed)
    assert print_document(parse_document(printed)) == printed


def _largest_exponent(value) -> int:
    """The largest exponent in the terms of a cochain or polynomial; 0 for none."""
    if isinstance(value, Polynomial):
        return max((max(e) for e, _ in value.items()), default=0)
    return max((max(chain(t.x_part, *t.slots)) for t, _ in value.items()), default=0)


@st.composite
def documents(draw):
    """A cochain, polynomial or deformation built by the public constructors
    from records with repeated and cancelling terms, and the text of those
    records as a document."""
    kind = draw(st.sampled_from(("cochain", "poly", "deformation")))
    if kind == "poly":
        dimension, records = draw(term_records((0, 0)))
        value = Polynomial(dimension, [(key[0], Fraction(*c)) for c, key in records])
        return value, f"(poly {dimension} " + " ".join(_record(c, key) for c, key in records) + ")"
    if kind == "cochain":
        dimension, records = draw(term_records((0, 3)))
        orders = [records]
    else:
        dimension = draw(st.integers(1, 3))
        orders = [draw(term_records((2, 2), dimension))[1] for _ in range(draw(st.integers(1, 3)))]
    cochains = tuple(
        Cochain(dimension, [(BasisTerm(dimension, key[0], key[1:]), Fraction(*c)) for c, key in records])
        for records in orders
    )
    bodies = [" ".join(_record(c, key) for c, key in records) for records in orders]
    if kind == "cochain":
        return cochains[0], f"(cochain {dimension} {bodies[0]})"
    pks = " ".join(f"(pk {k} {body})" for k, body in enumerate(bodies, 1))
    return Deformation(dimension=dimension, cochains=cochains), f"(deformation {dimension} (order {len(orders)}) {pks})"


@settings(max_examples=200, deadline=None)
@given(documents())
def test_print_then_parse_is_the_identity(drawn):
    """``parse_document(print_document(x)) == x`` for values built from records
    with repeated terms.  The reader gives the records' text the exponent
    bound the constructor gives the records, and the printed value the
    largest exponent of its terms."""
    value, records_text = drawn
    text = print_document(value)
    reread = parse_document(text)
    assert reread == value
    assert print_document(reread) == text
    read = parse_document(records_text)
    assert read == value
    if isinstance(value, Deformation):
        pairs = list(zip(value.cochains, read.cochains, reread.cochains))
    else:
        pairs = [(value, read, reread)]
    for built, from_records, from_print in pairs:
        assert from_records._bound == built._bound
        assert from_print._bound == _largest_exponent(built) <= built._bound


def test_a_cochain_node_shows_and_compares_its_terms():
    """A law's failure message shows the witness cochain's term records, and
    nodes of equal cochains are equal."""
    c = Cochain(2, {term((0, 1), (1, 0)): Fraction(1, 2), term((2, 0), (0, 0), (1, 1)): 3})
    witness = _fail("law", 1, c).witness
    assert repr(witness) == (
        "('counterexample', ('cochain', 2, Terms((term 1/2 (0 1) (1 0)) (term 3 (2 0) (0 0) (1 1)))))"
    )
    assert witness == _fail("law", 1, parse_document(print_document(c))).witness
    assert witness != _fail("law", 1, 2 * c).witness


def render_unmemoised(node) -> str:
    """``format_sexpr`` with no memo: every atom, list and term record rendered where it stands."""

    def records(terms):
        for key in terms.keys:
            indices = ("(" + " ".join(map(str, index)) + ")" for index in _indices(terms.dimension, key))
            yield f"(term {Fraction(terms.num[key], terms.den)} " + " ".join(indices) + ")"

    def items(n):
        out = []
        for x in n:
            if isinstance(x, Terms):
                out.extend(records(x))
            elif isinstance(x, tuple):
                out.append("(" + " ".join(items(x)) + ")")
            else:
                out.append(str(x))
        return out

    if not isinstance(node, tuple):
        return str(node)
    head = [str(x) for x in node if not isinstance(x, (tuple, Terms))]
    return "\n  ".join(["(" + " ".join(head), *items([x for x in node if isinstance(x, (tuple, Terms))])]) + ")"


MEMO_TERMS = Terms(Cochain(2, {term((0, 1), (1, 0)): Fraction(1, 2), term((2, 0), (0, 0), (1, 1)): 3}))
# Small ranges, so equal lists recur; bools, Fractions and ints compare equal to each other.
NODE_ATOMS = st.one_of(
    st.integers(-2, 2), st.booleans(), st.fractions(-2, 2, max_denominator=3),
    st.sampled_from(("bigrade", "x", "-")), st.just(MEMO_TERMS),
)
NODES = st.recursive(
    NODE_ATOMS | st.lists(st.integers(-2, 2) | st.booleans(), max_size=3).map(tuple),
    lambda children: st.lists(children, max_size=4).map(tuple),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(NODES)
def test_int_list_memo_prints_what_an_unmemoised_renderer_prints(node):
    assert format_sexpr(node) == render_unmemoised(node)


def test_int_list_memo_never_shares_text_between_equal_lists_of_other_types():
    """``(1,) == (True,)`` as dict keys, and so is ``(1, 2) == (Fraction(1), 2)``."""
    node = ("report", 2, (1,), (True,), (1, True), ((True,), (1,)), (1, 2), (Fraction(1), 2), (True, 1), (1,))
    assert format_sexpr(node) == render_unmemoised(node) == (
        "(report 2\n  (1)\n  (True)\n  (1 True)\n  ((True) (1))\n  (1 2)\n  (1 2)\n  (True 1)\n  (1))"
    )


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


def test_cli_project_names_the_smallest_undecided_weight(files, capsys):
    # Over (1, 0) and (-1, 0), capped at 3: (1, 0) is a member, (0, 5) is outside
    # the span, and (30, 0) and (40, 0) are undecided; the message names (30, 0).
    c = files("c.sexp", "(cochain 2 (term 1 (40 0)) (term 1 (0 5)) (term 1 (30 0)) (term 1 (1 0)))")
    code, out, err = run_cli(capsys, "project", c, "--gen=1,0", "--gen=-1,0", "--cap=3")
    assert (code, out) == (3, "")
    assert err == "inconclusive: membership of weight (30, 0) undecided within search cap 3\n"


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


# operation name, its broken stand-in, the laws it fails with their check
# counts, and the sha256 of the seed-3, 8-trial report
BROKEN_OPERATIONS = [
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
]


@pytest.mark.parametrize("attr, broken, failed, digest", BROKEN_OPERATIONS)
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


@pytest.mark.parametrize("usable", [1, 2])
def test_cli_verify_axioms_broken_operation_digests_on_one_and_two_cpus(capsys, monkeypatch, usable):
    """The same reports whether the law suites run in one process or are
    shared with a forked child (``run_laws`` forks only where two CPUs are usable)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(usable)), raising=False)
    for case in BROKEN_OPERATIONS:
        with monkeypatch.context() as m:
            test_cli_verify_axioms_reports_broken_operation(capsys, m, *case)


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
