"""``--json`` output is what ``json.dumps(..., indent=2)`` writes for the JSON mirror.

``sexpr.format_json`` writes the text in one walk of a node.  ``json_tree``
below is the reference: it builds the mirror as a tree of lists and dicts,
term records from the same renderer as the s-expression's, for the standard
``json`` encoder to write.  Every document the golden, large-document,
evaluation and fuzz cases print is checked against it, through ``cli.main``
with ``format_json`` wrapped, and so are a law-failure report, the zero
cochain and random report-shaped nodes.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gerstenhaber import Cochain, sexpr
from gerstenhaber.axioms import random_cochain, random_polynomial
from gerstenhaber.cli import main
from gerstenhaber.operations import bracket
from gerstenhaber.sexpr import Terms, _decimal, _Records, format_json, to_node

from test_cli_fuzz import DOCUMENTS, SUBCOMMANDS, fuzz_dir, run_bounded  # noqa: F401 (fixture)
from test_cli_golden import (  # noqa: F401 (fixtures)
    BIG_CASES,
    CASES,
    EVAL_CASES,
    big_path,
    eval_paths,
    paths,
)


def json_tree(document):
    """JSON mirror of the s-expression: same nesting, rationals as strings."""
    node = to_node(document)
    records = _Records(list)

    def items(n) -> list:
        out = []
        for x in n:
            if isinstance(x, Terms):
                out.extend(["term", c, *indices] for c, indices in records(x))
            elif isinstance(x, tuple):
                out.append(items(x))
            elif isinstance(x, Fraction):
                out.append(_decimal(x))
            else:
                if isinstance(x, int):
                    _decimal(x)  # json.dumps converts it the same way; refuse here, naming the limit
                out.append(x)
        return out

    return {"kind": node[0], "dimension": node[1], "body": items(node[2:])}


def check(document) -> str:
    """``format_json(document)``, asserted equal to the reference text; a
    refusal must be the reference's, word for word."""
    try:
        expected = json.dumps(json_tree(document), indent=2)
    except ValueError as err:
        with pytest.raises(ValueError) as refused:
            format_json(document)
        assert str(refused.value) == str(err)
        raise
    text = format_json(document)
    assert text == expected
    return text


@pytest.fixture
def checked(monkeypatch):
    """Wraps the ``format_json`` that ``cli.main`` calls; yields the documents it wrote."""
    written = []

    def wrapper(document):
        written.append(document)
        return check(document)

    monkeypatch.setattr(sexpr, "format_json", wrapper)
    return written


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_documents(paths, checked, capsys, case):
    main(["--json", *(arg.format(**paths) for arg in CASES[case])])
    assert capsys.readouterr().err == ""
    assert len(checked) == 1


@pytest.mark.parametrize("case", sorted(BIG_CASES))
def test_large_documents(big_path, checked, capsys, case):
    assert main(["--json", *(arg.format(big=big_path) for arg in BIG_CASES[case])]) == 0
    assert capsys.readouterr().err == ""
    assert len(checked) == 1


@pytest.mark.parametrize("case", sorted(EVAL_CASES))
def test_evaluation_documents(eval_paths, checked, capsys, case):
    assert main(["--json", *(arg.format(**eval_paths) for arg in EVAL_CASES[case])]) == 0
    assert capsys.readouterr().err == ""
    assert len(checked) == 1


@pytest.mark.parametrize("strategy", sorted(DOCUMENTS))
@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_fuzzed_documents(fuzz_dir, checked, command, strategy):
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(DOCUMENTS[strategy])
    def run(text):
        with open(fuzz_dir["doc"], "w", encoding="utf-8") as handle:
            handle.write(text)
        code, _, err = run_bounded(["--json", *(arg.format(**fuzz_dir) for arg in SUBCOMMANDS[command])])
        assert code in (0, 1, 2, 3) and "Traceback" not in err

    run()


def test_law_failure_report_with_cochain_witnesses(checked, capsys, monkeypatch):
    monkeypatch.setattr("gerstenhaber.axioms.bracket", lambda f, g: bracket(f, g) * 2)
    assert main(["--json", "verify-axioms", "--seed", "3", "--trials", "8"]) == 2
    (report,) = checked
    failed = [law for law in report[2:] if law[0] == "law" and law[2] == "fail"]
    assert failed and all(isinstance(law[4][1][2], Terms) for law in failed)
    assert json.loads(capsys.readouterr().out)["body"][2][0] == "law"


def test_zero_cochain_has_an_empty_body():
    assert check(Cochain.zero(2)) == '{\n  "kind": "cochain",\n  "dimension": 2,\n  "body": []\n}'


def test_overlong_integer_is_refused_naming_the_limit():
    with pytest.raises(ValueError, match="output integer of 5001 digits exceeds the limit of"):
        check(("report", 2, ("seed", 10**5000)))


@st.composite
def terms(draw):
    """A ``Terms`` of a random store in dimension 1 to 3, all of its keys or some."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    dimension = draw(st.integers(1, 3))
    store = random_cochain(rng, dimension, max_terms=6) if draw(st.booleans()) else random_polynomial(rng, dimension)
    store = store * draw(st.fractions(max_denominator=10**9))
    if draw(st.booleans()):
        return Terms(store)
    return Terms(store, sorted(draw(st.sets(st.sampled_from(sorted(store._num))))) if store._num else [])


HEADS = st.sampled_from(["weight", "bigrade", "member", "yes", "inconclusive", "jacobi-identity", "pass", "cumulative"])
ATOMS = st.one_of(st.integers(-(10**30), 10**30), st.fractions(), HEADS, terms())
NODES = st.recursive(ATOMS, lambda children: st.lists(children, max_size=4).map(tuple), max_leaves=12)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 3), st.lists(NODES, max_size=5))
def test_report_shaped_nodes(dimension, items):
    check(("report", dimension, *items))
