"""Malformed, deep and oversized documents end in a documented exit code.

Hypothesis feeds every subcommand that reads a document, in each document
position, short random texts over the s-expression alphabet, token soups
under a well-formed header, deep nesting and huge integers.  Every run must
return an exit code in 0..3, write at most one line to stderr and raise
nothing out of ``main`` (a traceback, in a ``gerst`` process), all within a
wall-time bound.
"""

import contextlib
import io
import signal
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gerstenhaber.cli import main
from gerstenhaber.sexpr import ORDER_LIMIT

# Seconds one run may take; each fuzzed document is tiny, so a run that
# takes longer is doing work the document's size does not justify.
WALL_BOUND_S = 10

VALID = {
    "cochain": "(cochain 2 (term 1 (0 0) (1 0) (0 1)) (term -1 (0 0) (0 1) (1 0)))",
    "poly": "(poly 2 (term 1 (2 1)) (term -1/2 (0 3)))",
    "deformation": "(deformation 2 (order 2) (pk 1 (term 1/2 (0 0) (1 0) (0 1)) (term -1/2 (0 0) (0 1) (1 0))))",
}

# id -> argv; {doc} is the fuzzed document, the other braces valid documents.
SUBCOMMANDS = {
    "cup": ["cup", "{doc}", "{cochain}"],
    "bracket": ["bracket", "{cochain}", "{doc}"],
    "delta": ["delta", "{doc}"],
    "apply-cochain": ["apply", "{doc}", "{poly}", "{poly}"],
    "apply-poly": ["apply", "{cochain}", "{poly}", "{doc}"],
    "weight": ["weight", "{doc}"],
    "bigrade": ["bigrade", "{doc}"],
    "ideal-member": ["ideal-member", "{doc}", "--gen=-1,-1"],
    "project": ["project", "{doc}", "--gen=-1,-1", "--gen=0,-1"],
    "theta": ["theta", "{doc}", "--indices=1"],
    "theta-split": ["theta-split", "{doc}", "--indices=2"],
    "filtration": ["filtration", "{doc}"],
    "filtration-alpha": ["filtration", "{doc}", "--alpha=-1,-1:1,1", "--mode=literal"],
    "mc-solve": ["mc-solve", "--pi1", "{doc}", "--order", "2", "--check-assoc", "--assoc-trials", "1"],
    "star-apply-deformation": ["star-apply", "--deformation", "{doc}", "{poly}", "{poly}"],
    "star-apply-poly": ["star-apply", "--deformation", "{deformation}", "{doc}", "{poly}"],
    "assoc-defect-deformation": ["assoc-defect", "--deformation", "{doc}", "{poly}", "{poly}", "{poly}"],
    "assoc-defect-poly": ["assoc-defect", "--deformation", "{deformation}", "{poly}", "{doc}", "{poly}"],
}

KINDS = ("cochain", "poly", "deformation", "report")
ATOMS = ("(", ")", "term", "pk", "order", *KINDS, "0", "1", "2", "3", "-1", "1/2", "-3/4", "1/0", "x")
NUMERAL = st.one_of(st.integers(-3, 3).map(str), st.sampled_from(["1/2", "-2/3", "0/5", "+1"]))

# Up to 60 characters of the s-expression alphabet.
CHARACTERS = st.text(alphabet="() \n\t;-+/0123456789" + "cochainpolytermdefrk", max_size=60)
# Atoms under a header that passes the document check.
TOKENS = st.builds(
    lambda kind, dimension, body: f"({kind} {dimension} {' '.join(body)})",
    st.sampled_from(KINDS),
    st.integers(-1, 3),
    st.lists(st.one_of(st.sampled_from(ATOMS), NUMERAL), max_size=24),
)


def _terms(indices):
    return st.lists(
        st.builds(lambda c, idx: f"(term {c} {' '.join(idx)})", NUMERAL, st.lists(indices, min_size=1, max_size=3)),
        max_size=3,
    )


INDEX = st.lists(st.integers(-1, 3).map(str), min_size=1, max_size=3).map(lambda xs: "(" + " ".join(xs) + ")")
# Term records of every kind with small numerals: mostly well formed.
RECORDS = st.one_of(
    st.builds(lambda kind, n, terms: f"({kind} {n} {' '.join(terms)})", st.sampled_from(["cochain", "poly"]),
              st.integers(1, 2), _terms(INDEX)),
    st.builds(lambda order, k, terms: f"(deformation 2 (order {order}) (pk {k} {' '.join(terms)}))",
              st.integers(-1, 4), st.integers(-1, 4), _terms(INDEX)),
)
DEPTH = st.integers(1, 100_000)
DEEP = st.one_of(
    DEPTH.map(lambda d: "(" * d + ")" * d),
    DEPTH.map(lambda d: "(" * d),
    DEPTH.map(lambda d: f"(cochain 2 (term 1 {'(' * d}0 0{')' * d}))"),
    DEPTH.map(lambda d: f"(poly 2 (term {'(' * d}1{')' * d} (0 0)))"),
)
HUGE_INT = st.one_of(st.integers(19, 5000).map(lambda k: "9" * k), st.just(str(2**64)), st.just(str(2**63 - 1)))
HUGE = st.builds(
    lambda template, big: template.format(big=big),
    st.sampled_from([
        "(cochain {big})",
        "(poly {big})",
        "(cochain 2 (term {big} (0 0) (1 0)))",
        "(cochain 2 (term 1/{big} (0 0) (1 0) (0 1)))",
        "(cochain 2 (term 1 ({big} 0) (0 1)))",
        "(cochain 2 (term 1 (0 0) (0 {big}) (1 0)))",
        "(poly 2 (term {big} (1 1)))",
        "(poly 2 (term 1 ({big} 0)))",
        "(deformation 2 (order {big}))",
        "(deformation 2 (order {big}) (pk 1 (term 1 (0 0) (1 0) (0 1))))",
        "(deformation 2 (order 2) (pk {big} (term 1 (0 0) (1 0) (0 1))))",
        "(deformation {big} (order 1))",
        "(report {big})",
    ]),
    HUGE_INT,
)
DOCUMENTS = {"characters": CHARACTERS, "tokens": TOKENS, "records": RECORDS, "deep": DEEP, "huge": HUGE}


class WallBoundExceeded(BaseException):
    """Raised by the timer; a BaseException, so ``main`` cannot report it as a usage error."""


def _interrupt(signum, frame):
    raise WallBoundExceeded


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, text in VALID.items():
        path = root / f"{name}.sexp"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    paths["doc"] = str(root / "doc.sexp")
    return paths


def run_bounded(argv):
    """``main(argv)``'s exit code, stdout and stderr, interrupted past the wall bound."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _interrupt)
    signal.setitimer(signal.ITIMER_REAL, WALL_BOUND_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except WallBoundExceeded:
        pytest.fail(f"{argv[0]} ran past {WALL_BOUND_S} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < WALL_BOUND_S
    return code, out.getvalue(), err.getvalue()


FUZZ_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.mark.parametrize("strategy", sorted(DOCUMENTS))
@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_cli_survives_fuzzed_documents(fuzz_dir, command, strategy):
    @FUZZ_SETTINGS
    @given(DOCUMENTS[strategy])
    def run(text):
        with open(fuzz_dir["doc"], "w", encoding="utf-8") as handle:
            handle.write(text)
        code, _, err = run_bounded([arg.format(**fuzz_dir) for arg in SUBCOMMANDS[command]])
        assert code in (0, 1, 2, 3)
        assert err == "" or (err.count("\n") == 1 and err.endswith("\n"))
        assert "Traceback" not in err

    run()


@pytest.mark.parametrize("order", [ORDER_LIMIT, ORDER_LIMIT + 1, 2**64])
def test_deformation_order_past_the_limit_is_refused_before_any_work(fuzz_dir, order):
    """A short document may not declare an order that costs work its size does
    not justify; at the limit, the orders without terms evaluate to nothing."""
    with open(fuzz_dir["doc"], "w", encoding="utf-8") as handle:
        handle.write(f"(deformation 2 (order {order}) (pk 1 (term 1 (0 0) (1 0) (0 1))))")
    code, out, err = run_bounded(["star-apply", "--deformation", fuzz_dir["doc"], fuzz_dir["poly"], fuzz_dir["poly"]])
    if order <= ORDER_LIMIT:
        assert (code, err) == (0, "")
        assert out.startswith(f"(report 2\n  (order {order})\n  (tpow 0 ")
    else:
        assert (code, out) == (1, "")
        assert err == f"error: deformation order {order} exceeds the limit of {ORDER_LIMIT}\n"


@pytest.mark.parametrize("argv, code, out, err", [
    (["theta", "--indices=1"], 0, "(cochain 18446744073709551616)\n", ""),
    (["project", "--gen=1,0"], 1, "", "error: generator (1, 0) has length 2, expected 18446744073709551616\n"),
    (["filtration"], 1, "", "error: the zero cochain has no filtration index\n"),
    (["filtration", "--alpha=0,0:0,0", "--mode=literal"], 1, "",
     "error: filtration index ((0, 0), (0, 0)) does not match dimension 18446744073709551616\n"),
], ids=["theta", "project", "filtration", "filtration-alpha"])
def test_zero_cochain_of_huge_dimension_through_the_grading_commands(fuzz_dir, argv, code, out, err):
    """A zero cochain may declare a dimension too large to lay out a mask or a
    grade for; each grading command answers it at once."""
    with open(fuzz_dir["doc"], "w", encoding="utf-8") as handle:
        handle.write("(cochain 18446744073709551616)")
    assert run_bounded([argv[0], fuzz_dir["doc"], *argv[1:]]) == (code, out, err)
