"""Packed term keys and the exponent budget.

A cochain term's store key is one int of fixed-width fields, and a
polynomial term's key is that of the arity-0 term with its exponent.
Decoding must invert encoding, integer order must be the canonical term
order, every field up to ``EXPONENT_BUDGET`` must survive the kernels'
shifts, and an exponent past the budget, read or computed, must be refused
rather than carried into a neighbouring field.
"""

import os
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerstenhaber import BasisTerm, Cochain, InconclusiveMembershipError, Polynomial, SemigroupSpec
from gerstenhaber.cochains import EXPONENT_BUDGET, ExponentBudgetError, _fields, _indices, _pack_term
from gerstenhaber.grading import decompose_by_bigrade, decompose_by_weight, project_subalgebra, theta_apply
from gerstenhaber.operations import bracket, cup, hochschild_delta, insert
from gerstenhaber.sexpr import parse_document, print_document
from gerstenhaber.starproduct import solve_delta

SRC = Path(__file__).resolve().parent.parent / "src"

FIELD = st.one_of(st.integers(0, 3), st.integers(0, EXPONENT_BUDGET), st.just(EXPONENT_BUDGET))


def indices_of(dimension):
    index = st.tuples(*[FIELD] * dimension)
    return st.integers(0, 4).flatmap(lambda arity: st.tuples(*[index] * (arity + 1)))


TERMS = st.integers(1, 3).flatmap(lambda n: st.lists(indices_of(n), min_size=1, max_size=8))


def canonical(indices):
    """BasisTerm.sort_key flattened: arity, then the x-part, then the slots."""
    return (len(indices) - 1, *[e for index in indices for e in index])


@settings(max_examples=200, deadline=None)
@given(TERMS)
def test_packing_round_trips_and_orders_like_the_canonical_order(terms):
    n = len(terms[0][0])
    keys = [_pack_term(indices) for indices in terms]
    for indices, key in zip(terms, keys):
        assert _indices(n, key) == indices
    assert sorted(keys) == [_pack_term(t) for t in sorted(terms, key=canonical)]
    assert [a < b for a, b in zip(keys, keys[1:])] == [
        canonical(a) < canonical(b) for a, b in zip(terms, terms[1:])
    ]


EXPONENTS = st.integers(1, 3).flatmap(lambda n: st.lists(st.tuples(*[FIELD] * n), min_size=1, max_size=8, unique=True))


@settings(max_examples=200, deadline=None)
@given(EXPONENTS)
def test_polynomial_keys_are_arity_0_cochain_keys_in_tuple_order(exponents):
    n = len(exponents[0])
    p = Polynomial(n, {e: i + 1 for i, e in enumerate(exponents)})
    assert p._num == Cochain(n, {BasisTerm(n, e, ()): i + 1 for i, e in enumerate(exponents)})._num
    for e in exponents:
        assert Polynomial._key(n, Polynomial._raw_key(e, n)) == e
    assert [e for e, _ in p.items()] == sorted(exponents)
    assert sorted(p._num) == [_pack_term((e,)) for e in sorted(exponents)]


def test_polynomial_coefficient_of_an_impossible_exponent_is_zero():
    p = Polynomial(2, {(1, 0): 5, (0, EXPONENT_BUDGET): 7})
    assert p.coefficient((1, 0)) == 5 and p.coefficient([0, EXPONENT_BUDGET]) == 7
    # (0, 65536) would pack to the key of (1, 0) if its field carried.
    for expo in [(0, EXPONENT_BUDGET + 1), (-1, 0), (1, -1), (1,), (1, 0, 0), (), (0, 2**70)]:
        assert p.coefficient(expo) == 0


def test_polynomial_budget_is_checked_at_construction_and_in_products():
    at = Polynomial.monomial(2, (EXPONENT_BUDGET, 0))
    assert list(at.items()) == [((EXPONENT_BUDGET, 0), 1)]
    with pytest.raises(ExponentBudgetError, match="exponent 65536 exceeds the exponent budget of 65535"):
        Polynomial.monomial(2, (0, EXPONENT_BUDGET + 1))
    half = Polynomial.monomial(2, (32768, 0))
    assert list((half * Polynomial.monomial(2, (32767, 1))).items()) == [((EXPONENT_BUDGET, 1), 1)]
    with pytest.raises(ExponentBudgetError, match="product result exponent bound 65536 exceeds"):
        half * half
    with pytest.raises(ExponentBudgetError, match="apply result exponent bound 65536 exceeds"):
        Cochain(2, {BasisTerm(2, (0, 0), ((1, 0),)): 1}).apply([at])
    assert at.derive((EXPONENT_BUDGET + 1, 0)).is_zero
    assert list(at.derive((EXPONENT_BUDGET, 0)).items()) == [((0, 0), factorial(EXPONENT_BUDGET))]


SMALL = st.integers(0, 2)


def small_cochains(arity):
    term = st.builds(
        lambda x, slots: BasisTerm(2, x, slots), st.tuples(SMALL, SMALL), st.tuples(*[st.tuples(SMALL, SMALL)] * arity)
    )
    return st.lists(st.tuples(term, st.integers(-3, 3)), max_size=3).map(lambda p: Cochain(2, p))


CAPPED_FIELD = st.one_of(st.integers(0, 3), st.integers(0, 16000))
WIDE_INDICES = st.integers(1, 3).flatmap(lambda n: st.lists(st.tuples(*[CAPPED_FIELD] * n), min_size=1, max_size=4))
GENERATORS = st.sampled_from((((0, -1), (-1, 0)), ((1, 0),), ((1, -1), (-1, 1))))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2).flatmap(small_cochains), st.integers(1, 2).flatmap(small_cochains), small_cochains(2),
       WIDE_INDICES, GENERATORS)
def test_carried_bound_covers_every_result_exponent(f, g, y, indices, generators):
    """``_bound`` is at least every field of every key, within the budget, for
    what the reader and each operation return: the grading trusts it to sum
    slots without a carry."""
    n = len(indices[0])
    wide = Cochain(n, {BasisTerm(n, indices[0], indices[1:]): 3})
    results = [parse_document(print_document(f)), parse_document(print_document(wide)), cup(f, g), bracket(f, g),
               insert(g, 1, f), hochschild_delta(f), f + g, f * Fraction(1, 3), -g, wide + wide, -wide, wide * 5,
               cup(wide, wide), theta_apply(wide, (1,)), solve_delta(hochschild_delta(y)),
               *decompose_by_bigrade(f).values(), *decompose_by_weight(wide).values()]
    try:
        results.append(project_subalgebra(f, SemigroupSpec(2, generators, search_cap=4)))
    except InconclusiveMembershipError:
        pass
    for result in results:
        assert result._bound <= EXPONENT_BUDGET
        assert all(max(_fields(key)[1:]) <= result._bound for key in result._num)


SMALL_POLYNOMIAL = st.lists(st.tuples(st.tuples(SMALL, SMALL), st.integers(-3, 3)), max_size=3).map(
    lambda p: Polynomial(2, p)
)


@settings(max_examples=60, deadline=None)
@given(SMALL_POLYNOMIAL, SMALL_POLYNOMIAL, st.tuples(SMALL, SMALL), small_cochains(2))
def test_carried_bound_covers_every_polynomial_exponent(u, v, a, f):
    for result in (u * v, u + v, u - v, u * Fraction(1, 3), u.derive(a), f.apply([u, v])):
        top = max((max(e) for e, _ in result.items()), default=0)
        assert top <= result._bound <= EXPONENT_BUDGET


def test_constructor_refuses_an_exponent_past_the_budget():
    at = BasisTerm(2, (EXPONENT_BUDGET, 0), ((0, EXPONENT_BUDGET),))
    past = BasisTerm(2, (0, 0), ((EXPONENT_BUDGET + 1, 0),))
    c = Cochain(2, {at: 3})
    assert list(c.items()) == [(at, 3)]
    assert c.coefficient(at) == 3 and c.coefficient(past) == 0
    with pytest.raises(ExponentBudgetError, match="exponent 65536 exceeds the exponent budget of 65535"):
        Cochain(2, {past: 1})


def test_operations_refuse_a_result_bound_past_the_budget():
    half = Cochain(2, {BasisTerm(2, (32768, 0), ((1, 0),)): 1})
    rest = Cochain(2, {BasisTerm(2, (32767, 0), ()): 1})
    assert list(cup(half, rest).items()) == [(BasisTerm(2, (EXPONENT_BUDGET, 0), ((1, 0),)), 1)]
    for operation in (cup, bracket):
        with pytest.raises(ExponentBudgetError, match="result exponent bound 65536 exceeds"):
            operation(half, half)
    # A preimage slot may take a whole slot total, the sum of three target slots.
    wide = Cochain(2, {BasisTerm(2, (0, 0), ((40000, 0), (40000, 0), (0, 0))): 1})
    with pytest.raises(ExponentBudgetError, match="preimage exponent bound 80000 exceeds"):
        solve_delta(wide)


def _run_cli(tmp_path, *documents_and_args):
    paths = []
    for i, arg in enumerate(documents_and_args):
        if arg.startswith("("):
            path = tmp_path / f"c{i}.sexp"
            path.write_text(arg, encoding="utf-8")
            arg = str(path)
        paths.append(arg)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, "-m", "gerstenhaber.cli", *paths], capture_output=True, text=True, env=env, timeout=60
    )


def test_cli_exponent_at_the_budget_survives_the_kernels(tmp_path):
    """Every bit of a full x-part field sits next to the sentinel and the slot
    fields; delta, cup and bracket keep it there."""
    top = "(cochain 2 (term 1 (65535 65535) (0 2)))"
    result = _run_cli(tmp_path, "delta", top)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "(cochain 2\n  (term -2 (65535 65535) (0 1) (0 1)))\n"
    result = _run_cli(tmp_path, "cup", "(cochain 2 (term 1 (65535 0) (0 65535)))", "(cochain 2 (term 2 (0 0) (0 0)))")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "(cochain 2\n  (term 2 (65535 0) (0 65535) (0 0)))\n"
    # [x1 d2, x1^65534 d1] = -x1^65534 d2; both compositions hold x1^65535 d1 d2, which cancels.
    result = _run_cli(tmp_path, "bracket", "(cochain 2 (term 1 (1 0) (0 1)))", "(cochain 2 (term 1 (65534 0) (1 0)))")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "(cochain 2\n  (term -1 (65534 0) (0 1)))\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["delta", "(cochain 2 (term 1 (65536 0)))"], "exponent 65536 exceeds the exponent budget of 65535"),
        (["delta", "(cochain 2 (term 1 (0 0) (0 0) (0 65536)))"], "exponent 65536 exceeds the exponent budget of 65535"),
        (["cup", "(cochain 2 (term 1 (65535 0)))", "(cochain 2 (term 1 (1 0)))"],
         "cup result exponent bound 65536 exceeds the exponent budget of 65535"),
        (["bracket", "(cochain 2 (term 1 (0 0) (40000 0)))", "(cochain 2 (term 1 (30000 0)))"],
         "bracket result exponent bound 70000 exceeds the exponent budget of 65535"),
    ],
    ids=["x-part", "slot", "cup", "bracket"],
)
def test_cli_refuses_past_the_budget_in_one_line(tmp_path, args, message):
    result = _run_cli(tmp_path, *args)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"error: {message}"]


# 1 (x) 1, the plain product as an arity-2 cochain: every exponent bound is 0.
PRODUCT_DEFORMATION = "(deformation 2 (order 1) (pk 1 (term 1 (0 0) (0 0) (0 0))))"
ONE = "(poly 2 (term 1 (0 0)))"


@pytest.mark.parametrize(
    "args, stdout",
    [
        (["apply", "(cochain 2 (term 3 (0 0) (0 0)))", "(poly 2 (term 1 (65535 65535)))"],
         "(poly 2\n  (term 3 (65535 65535)))\n"),
        (["star-apply", "--deformation", PRODUCT_DEFORMATION, "(poly 2 (term 1/2 (0 65535)))", ONE],
         "(report 2\n  (order 1)\n  (tpow 0 (term 1/2 (0 65535)))\n  (tpow 1 (term 1/2 (0 65535))))\n"),
        (["assoc-defect", "--deformation", PRODUCT_DEFORMATION, ONE, "(poly 2 (term 1 (65535 0)))", ONE],
         "(report 2\n  (order 1)\n  (zero yes))\n"),
    ],
    ids=["apply", "star-apply", "assoc-defect"],
)
def test_cli_polynomial_exponent_at_the_budget_is_accepted(tmp_path, args, stdout):
    result = _run_cli(tmp_path, *args)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == stdout


@pytest.mark.parametrize(
    "args, message",
    [
        (["apply", "(cochain 2 (term 1 (0 0)))", "(poly 2 (term 1 (0 65536)))"],
         "exponent 65536 exceeds the exponent budget of 65535"),
        (["star-apply", "--deformation", PRODUCT_DEFORMATION, ONE, "(poly 2 (term 1 (1 0)) (term 1 (65536 0)))"],
         "exponent 65536 exceeds the exponent budget of 65535"),
        (["assoc-defect", "--deformation", PRODUCT_DEFORMATION, "(poly 2 (term 1 (65536 0)))", ONE, ONE],
         "exponent 65536 exceeds the exponent budget of 65535"),
        (["star-apply", "--deformation", PRODUCT_DEFORMATION, "(poly 2 (term 1 (40000 0)))",
          "(poly 2 (term 1 (0 30000)))"],
         "product result exponent bound 70000 exceeds the exponent budget of 65535"),
        (["apply", "(cochain 2 (term 1 (0 0) (1 0)))", "(poly 2 (term 1 (65535 0)))"],
         "apply result exponent bound 65536 exceeds the exponent budget of 65535"),
    ],
    ids=["apply", "star-apply", "assoc-defect", "product-bound", "apply-bound"],
)
def test_cli_refuses_a_polynomial_past_the_budget_in_one_line(tmp_path, args, message):
    result = _run_cli(tmp_path, *args)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"error: {message}"]
