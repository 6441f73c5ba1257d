"""The grouped evaluation kernel against a term-by-term reference.

``Cochain.apply`` groups the terms of an arity-p cochain by their slots
1..p-1, sums ``c x^a d^(s_p) u_p`` over each group without multiplying, and
multiplies each group's sum by the derivatives of the other arguments once.
``star_series`` shares one derivative table per distinct argument across
every order and pair.  ``reference_apply`` below evaluates one term at a
time with its own product and derivative, as the kernel did before grouping,
so every result must be equal to it, store for store.
"""

from fractions import Fraction
from math import perm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerstenhaber import BasisTerm, Cochain, Deformation, Polynomial
from gerstenhaber.cochains import (
    _WIDTH,
    ArityError,
    DimensionMismatchError,
    ExponentBudgetError,
    EXPONENT_BUDGET,
    _unpack_index,
    _within_budget,
)
from gerstenhaber.starproduct import associativity_defect, star_apply, star_series

SETTINGS = settings(max_examples=120, deadline=None)


def _reference_product(f, g) -> dict:
    acc: dict = {}
    for k1, c1 in f:
        for k2, c2 in g:
            k = k1 + k2
            acc[k] = acc.get(k, 0) + c1 * c2
    return acc


def _reference_derive(terms, a: int, n: int) -> list:
    orders = _unpack_index(n, a)
    mask = (1 << _WIDTH * n) - 1
    out = []
    for key, c in terms:
        for e, order in zip(_unpack_index(n, key & mask), orders):
            if e < order:
                break
            c *= perm(e, order)
        else:
            out.append((key - a, c))
    return out


def reference_apply(c: Cochain, args) -> Polynomial:
    """``c(args)``, one product per term and slot: x^a, then times each slot's derivative."""
    p, n = len(args), c.dimension
    width = _WIDTH * n
    bound = _within_budget(c._bound + sum(u._bound for u in args), "apply result exponent bound")
    sentinel = 1 << width
    numerators = [[(k ^ sentinel, v) for k, v in u._num.items()] for u in args]
    d = prod((u._den for u in args), start=c._den)
    shifts = [width * i for i in range(p - 1, -1, -1)]
    mask = sentinel - 1
    acc: dict = {}
    for key, coeff in c._num.items():
        value = {key >> width * p: coeff}
        for shift, num in zip(shifts, numerators):
            value = _reference_product(value.items(), _reference_derive(num, key >> shift & mask, n))
        for k, v in value.items():
            acc[k] = acc.get(k, 0) + v
    return Polynomial._reduced(n, acc, d, bound)


# Pairwise coprime denominators: a result's common denominator is a product
# of several of them, and reducing it is real work.
COEFF = st.builds(Fraction, st.integers(-40, 40).filter(bool), st.sampled_from([1, 2, 3, 5, 7, 11, 13, 17]))


def exponents(n, top):
    return st.tuples(*[st.integers(0, top)] * n)


@st.composite
def cochain_and_args(draw, n=None, arity=None):
    """A cochain whose terms share slots from a small pool, so groups have many
    terms, and arguments with their own coprime denominators."""
    n = draw(st.integers(1, 3)) if n is None else n
    p = draw(st.integers(0, 3)) if arity is None else arity
    pool = draw(st.lists(exponents(n, 3), min_size=1, max_size=3, unique=True))
    terms = st.tuples(
        st.builds(lambda x, slots: BasisTerm(n, x, slots), exponents(n, 2), st.tuples(*[st.sampled_from(pool)] * p)),
        COEFF,
    )
    c = Cochain(n, draw(st.lists(terms, max_size=12)))
    args = [Polynomial(n, draw(st.lists(st.tuples(exponents(n, 4), COEFF), max_size=5))) for _ in range(p)]
    return c, args


@SETTINGS
@given(cochain_and_args())
def test_apply_equals_the_term_by_term_reference(case):
    c, args = case
    assert c.apply(args) == reference_apply(c, args)


@SETTINGS
@given(cochain_and_args())
def test_apply_with_one_polynomial_in_several_slots(case):
    c, args = case
    if args:
        args[-1] = args[0]  # the same object in the first and the last slot
        if len(args) == 3:
            args[1] = args[0]
    assert c.apply(args) == reference_apply(c, args)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.data())
def test_zero_cochain_applies_to_zero(n, p, data):
    args = [Polynomial(n, data.draw(st.lists(st.tuples(exponents(n, 3), COEFF), max_size=3))) for _ in range(p)]
    assert Cochain.zero(n).apply(args).is_zero


@st.composite
def cancelling_groups(draw):
    """A cochain of arity 1 to 3 in which whole groups sum to zero.

    The last argument is the monomial ``x^m``.  A term ``c x^a (x) .. (x) d^s``
    sends it to ``c perm(m, s) x^(a + m - s)``, so the term with x-part
    ``a + t`` and last slot ``s + t``, coefficient ``-c perm(m, s) / perm(m, s + t)``,
    cancels it.  Other terms keep some groups nonzero.
    """
    n = draw(st.integers(1, 3))
    p = draw(st.integers(1, 3))
    m = draw(exponents(n, 4))
    lead = st.tuples(*[exponents(n, 2)] * (p - 1))
    coefficients: dict = {}

    def add(term, c):
        coefficients[term] = coefficients.get(term, 0) + c

    for _ in range(draw(st.integers(1, 4))):
        slots, x, c = draw(lead), draw(exponents(n, 2)), draw(COEFF)
        s = tuple(draw(st.integers(0, e)) for e in m)
        t = tuple(draw(st.integers(0, e - si)) for e, si in zip(m, s))
        if not any(t):
            continue  # the pair would be one term
        lifted = tuple(a + b for a, b in zip(s, t))
        ratio = Fraction(prod(map(perm, m, s)), prod(map(perm, m, lifted)))
        add(BasisTerm(n, x, (*slots, s)), c)
        add(BasisTerm(n, tuple(a + b for a, b in zip(x, t)), (*slots, lifted)), -c * ratio)
    other = st.builds(lambda x, slots: BasisTerm(n, x, slots), exponents(n, 2), st.tuples(*[exponents(n, 2)] * p))
    extra = draw(st.lists(st.tuples(other, COEFF), max_size=3))
    for term, c in extra:
        add(term, c)
    args = [Polynomial(n, draw(st.lists(st.tuples(exponents(n, 3), COEFF), max_size=3))) for _ in range(p - 1)]
    return Cochain(n, coefficients), [*args, Polynomial.monomial(n, m, draw(COEFF))], not extra


@SETTINGS
@given(cancelling_groups())
def test_groups_whose_linear_sum_cancels(case):
    c, args, only_pairs = case
    value = c.apply(args)
    assert value == reference_apply(c, args)
    if only_pairs:
        assert value.is_zero


def test_a_shared_prefix_group_is_multiplied_once_with_its_x_parts():
    """Two terms of one group with different x-parts and last slots: their
    sum is ``x1 d1 v + d1^2 v`` times ``d1 u``; neither x-part may be lost."""
    n = 1
    c = Cochain(n, {BasisTerm(n, (1,), ((1,), (1,))): 1, BasisTerm(n, (0,), ((1,), (2,))): Fraction(1, 2)})
    u = Polynomial(n, {(2,): 1})
    v = Polynomial(n, {(3,): 1, (1,): 5})
    # x (2x)(3x^2 + 5) + 1/2 (2x)(6x) = 6x^4 + 10x^2 + 6x^2
    assert c.apply([u, v]) == Polynomial(n, {(4,): 6, (2,): 16}) == reference_apply(c, [u, v])


def test_two_groups_are_kept_apart():
    """Terms with different slot-1 fields multiply by different derivatives of ``u``."""
    n = 1
    c = Cochain(n, {BasisTerm(n, (0,), ((1,), (0,))): 1, BasisTerm(n, (0,), ((2,), (0,))): 1})
    u, v = Polynomial(n, {(3,): 1}), Polynomial(n, {(0,): 1})
    assert c.apply([u, v]) == Polynomial(n, {(2,): 3, (1,): 6}) == reference_apply(c, [u, v])


def test_apply_keeps_its_refusals():
    c = Cochain(2, {BasisTerm(2, (0, 0), ((1, 0),)): 1})
    x = Polynomial.variable(2, 1)
    with pytest.raises(ArityError, match="^term of arity 1 applied to 2 arguments$"):
        c.apply([x, x])
    with pytest.raises(DimensionMismatchError, match="^argument dimension 3 does not match cochain dimension 2$"):
        c.apply([Polynomial.variable(3, 1)])
    at = Polynomial.monomial(2, (EXPONENT_BUDGET, 0))
    with pytest.raises(ExponentBudgetError, match="^apply result exponent bound 65536 exceeds the exponent budget of 65535$"):
        c.apply([at])
    pair = Deformation(2, (Cochain(2, {BasisTerm(2, (0, 0), ((1, 0), (0, 1))): 1}),))
    with pytest.raises(ExponentBudgetError, match="^apply result exponent bound 65536 exceeds the exponent budget of 65535$"):
        star_apply(pair, at, Polynomial.constant(2, 1))  # the plain product is within the budget


# -- star_series with shared tables against per-call apply ----------------------


def reference_series(deformation, fs, gs):
    n, order = deformation.dimension, deformation.order
    out: dict = {}
    for i, fi in fs.items():
        for j, gj in gs.items():
            if i + j > order:
                continue
            out[i + j] = out.get(i + j, Polynomial.zero(n)) + fi * gj
            for k in range(1, order - i - j + 1):
                out[i + j + k] = out.get(i + j + k, Polynomial.zero(n)) + deformation.coefficient(k).apply([fi, gj])
    return {k: v for k, v in sorted(out.items()) if not v.is_zero}


@st.composite
def series_case(draw):
    n = draw(st.integers(1, 3))
    order = draw(st.integers(1, 3))
    cochains = []
    for _ in range(order):
        c, _ = draw(cochain_and_args(n, 2))
        cochains.append(c)
    polys = st.lists(st.tuples(exponents(n, 4), COEFF), max_size=4).map(lambda t: Polynomial(n, t))
    series = st.dictionaries(st.integers(0, order), polys, min_size=1, max_size=3)
    fs = draw(series)
    # The same objects, equal values in new objects, or other polynomials.
    how = draw(st.sampled_from(["same", "equal", "other"]))
    if how == "same":
        gs = fs
    elif how == "equal":
        gs = {k: Polynomial(n, dict(v.items())) for k, v in fs.items()}
    else:
        gs = draw(series)
    return Deformation(n, tuple(cochains)), fs, gs


@SETTINGS
@given(series_case())
def test_star_series_with_shared_tables_equals_per_call_apply(case):
    deformation, fs, gs = case
    assert star_series(deformation, fs, gs) == reference_series(deformation, fs, gs)


@pytest.mark.parametrize("operand", ["f", "g"])
def test_star_series_checks_both_series_at_the_boundary(operand):
    deformation = Deformation(2, (Cochain(2, {BasisTerm(2, (0, 0), ((1, 0), (0, 1))): 1}),))
    good, bad = {0: Polynomial.variable(2, 1)}, {0: Polynomial.variable(1, 1)}
    fs, gs = (bad, good) if operand == "f" else (good, bad)
    with pytest.raises(DimensionMismatchError, match=f"^operand {operand} dimension 1 does not match deformation dimension 2$"):
        star_series(deformation, fs, gs)


@pytest.mark.parametrize("operand", ["f", "g", "h"])
def test_associativity_defect_names_the_wrong_operand(operand):
    deformation = Deformation(2, (Cochain(2, {BasisTerm(2, (0, 0), ((1, 0), (0, 1))): 1}),))
    triple = {name: Polynomial.variable(1 if name == operand else 2, 1) for name in "fgh"}
    with pytest.raises(DimensionMismatchError, match=f"^operand {operand} dimension 1 does not match deformation dimension 2$"):
        associativity_defect(deformation, *triple.values())
