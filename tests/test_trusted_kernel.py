"""The trusted construction path gives the same values as the validating one.

Operations build their results without revalidating terms derived from
valid terms.  For random valid operands, every result must equal its rebuild
through the public constructors, hold only nonzero ``Fraction``
coefficients, and list its terms strictly increasing in the canonical key.
The public constructors must still reject invalid input.
"""

from fractions import Fraction
from itertools import product
from math import comb, gcd, perm
from struct import Struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerstenhaber import BasisTerm, Cochain, Polynomial
from gerstenhaber.cochains import (
    EXPONENT_BUDGET,
    ArityError,
    DimensionMismatchError,
    ExponentBudgetError,
    index_add,
    index_splits,
    leibniz_split,
)
from gerstenhaber.grading import (
    SemigroupSpec,
    decompose_by_bigrade,
    decompose_by_weight,
    project_subalgebra,
    theta_apply,
    theta_split,
)
from gerstenhaber.operations import (
    bracket,
    cup,
    delta_via_bracket,
    hochschild_delta,
    insert,
)
from gerstenhaber.starproduct import solve_delta
from oracle_sympy import cochain_eval, expr_to_poly, poly_to_expr

DIM = 2
SETTINGS = settings(max_examples=60, deadline=None)

EXPONENT = st.tuples(*[st.integers(0, 2)] * DIM)
COEFF = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4))
SCALAR = st.one_of(st.integers(-2, 2), st.fractions(min_value=-2, max_value=2, max_denominator=3))


def terms_of_arity(arity):
    return st.builds(lambda x, slots: BasisTerm(DIM, x, slots), EXPONENT, st.tuples(*[EXPONENT] * arity))


def cochains_of_arity(arity):
    return st.lists(st.tuples(terms_of_arity(arity), COEFF), max_size=3).map(lambda p: Cochain(DIM, p))


ANY_COCHAIN = st.lists(
    st.tuples(st.integers(0, 2).flatmap(terms_of_arity), COEFF), max_size=3
).map(lambda p: Cochain(DIM, p))
POLYNOMIAL = st.lists(st.tuples(EXPONENT, COEFF), max_size=3).map(lambda p: Polynomial(DIM, p))


def assert_canonical(value):
    """Equal to its validating rebuild, Fraction coefficients, strictly sorted keys."""
    pairs = list(value.items())
    for _, c in pairs:
        assert type(c) is Fraction and c != 0
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1
    if isinstance(value, Cochain):
        rebuilt = Cochain(
            value.dimension, [(BasisTerm(t.dimension, t.x_part, t.slots), c) for t, c in pairs]
        )
        keys = [t.sort_key for t, _ in pairs]
        for t, _ in pairs:
            assert type(t.x_part) is tuple and all(type(s) is tuple for s in t.slots)
    else:
        rebuilt = Polynomial(value.dimension, pairs)
        keys = [e for e, _ in pairs]
        assert all(type(e) is tuple for e in keys)
    assert rebuilt == value
    assert all(a < b for a, b in zip(keys, keys[1:]))


@SETTINGS
@given(ANY_COCHAIN, ANY_COCHAIN, SCALAR)
def test_cochain_arithmetic_and_products(f, g, s):
    for result in (cup(f, g), bracket(f, g), f + g, f - g, -f, f * s, s * f):
        assert_canonical(result)
    for result in (hochschild_delta(f), delta_via_bracket(f), theta_apply(f, (1,))):
        assert_canonical(result)
    for part in (*f.components_by_arity().values(), *decompose_by_weight(f).values(),
                 *decompose_by_bigrade(f).values()):
        assert_canonical(part)


@SETTINGS
@given(st.integers(1, 2).flatmap(cochains_of_arity), st.integers(0, 2).flatmap(cochains_of_arity),
       st.integers(1, 2))
def test_insertion(f, g, k):
    if f.is_zero or k > f.homogeneous_arity():
        k = 1
    assert_canonical(insert(f, k, g))


def shift(e, c):
    """``c`` with ``x^e`` multiplied into every term's x-part."""
    return cup(Cochain.single(BasisTerm(DIM, e, ())), c)


@SETTINGS
@given(st.integers(1, 2).flatmap(cochains_of_arity), st.integers(0, 2).flatmap(cochains_of_arity),
       st.integers(1, 2), EXPONENT, cochains_of_arity(2))
def test_outer_x_part_passes_through_the_cached_kernels(f, g, k, e, y):
    """Multiplying every x-part by ``x^e`` commutes with the kernels, so their caches key on slots."""
    if f.is_zero or k > f.homogeneous_arity():
        k = 1
    assert insert(shift(e, f), k, g) == shift(e, insert(f, k, g))
    assert hochschild_delta(shift(e, f)) == shift(e, hochschild_delta(f))
    b = hochschild_delta(y)
    assert solve_delta(shift(e, b)) == shift(e, solve_delta(b))


@SETTINGS
@given(POLYNOMIAL, POLYNOMIAL, SCALAR, EXPONENT)
def test_polynomial_arithmetic(u, v, s, a):
    for result in (u * v, u + v, u - v, -u, u * s, s * u, u.derive(a)):
        assert_canonical(result)


@SETTINGS
@given(st.integers(0, 2).flatmap(
    lambda p: st.tuples(cochains_of_arity(p), st.lists(POLYNOMIAL, min_size=p, max_size=p))
))
def test_apply(case):
    f, args = case
    assert_canonical(f.apply(args))


# -- the integer kernel of apply and Polynomial.__mul__ against sympy -----------

# Pairwise coprime denominators up to ~10^6 (the large ones are primes), so a
# result's common denominator is a product of several of them and every
# output coefficient needs a real reduction.
BIG_COEFF = st.builds(
    Fraction,
    st.integers(-10**6, 10**6).filter(bool),
    st.sampled_from([1, 2, 3, 7, 999983, 999979, 1000003, 999961]),
)
LOW_EXPONENT = st.tuples(*[st.integers(0, 3)] * DIM)
# Degree 8 or more: at least one term of total degree 8 to 12.
HIGH_EXPONENT = st.integers(8, 12).flatmap(lambda d: st.integers(0, d).map(lambda a: (a, d - a)))
HIGH_POLYNOMIAL = st.tuples(
    st.tuples(HIGH_EXPONENT, BIG_COEFF), st.lists(st.tuples(LOW_EXPONENT | HIGH_EXPONENT, BIG_COEFF), max_size=3)
).map(lambda p: Polynomial(DIM, [p[0], *p[1]]))
SLOT = st.tuples(*[st.integers(0, 4)] * DIM)


def big_cochains(arity):
    term = st.builds(lambda x, slots: BasisTerm(DIM, x, slots), LOW_EXPONENT, st.tuples(*[SLOT] * arity))
    return st.lists(st.tuples(term, BIG_COEFF), max_size=3).map(lambda p: Cochain(DIM, p))


def assert_matches_oracle(result, expr):
    assert_canonical(result)
    # == on the stores compares each Fraction's numerator and denominator,
    # so an unreduced coefficient fails here even where sympy reduces it.
    assert result == expr_to_poly(expr)


KERNEL_SETTINGS = settings(max_examples=40, deadline=None)


@KERNEL_SETTINGS
@given(st.integers(0, 2).flatmap(
    lambda p: st.tuples(big_cochains(p), st.lists(HIGH_POLYNOMIAL, min_size=p, max_size=p))
))
def test_apply_matches_oracle_on_large_denominators(case):
    f, args = case
    assert_matches_oracle(f.apply(args), cochain_eval(f, [poly_to_expr(u) for u in args]))


@KERNEL_SETTINGS
@given(HIGH_POLYNOMIAL, BIG_COEFF, LOW_EXPONENT, SLOT, SLOT, st.integers(0, 3))
def test_apply_cancels_to_zero(u, c, x, s1, s2, arity):
    """An antisymmetric bivector vanishes on equal arguments, the zero
    cochain on any number of arguments."""
    pair = Cochain(DIM, [(BasisTerm(DIM, x, (s1, s2)), c), (BasisTerm(DIM, x, (s2, s1)), -c)])
    assert_matches_oracle(pair.apply([u, u]), 0)
    assert_matches_oracle(Cochain.zero(DIM).apply([u] * arity), 0)


@KERNEL_SETTINGS
@given(HIGH_POLYNOMIAL, HIGH_POLYNOMIAL, BIG_COEFF, HIGH_EXPONENT)
def test_polynomial_product_matches_oracle(u, v, c, e):
    assert_matches_oracle(u * v, poly_to_expr(u) * poly_to_expr(v))
    # The cross terms of (u + m)(u - m) cancel inside one product.
    m = Polynomial.monomial(DIM, e, c)
    assert_matches_oracle((u + m) * (u - m), poly_to_expr(u) ** 2 - poly_to_expr(m) ** 2)
    assert_matches_oracle(u * Polynomial.zero(DIM), 0)


# -- the integer cochain operations against a Fraction-accumulating reference ---


def _summed(contributions):
    """A cochain from ``(term, Fraction)`` contributions, added one Fraction at a time."""
    acc = {}
    for term, value in contributions:
        acc[term] = acc.get(term, Fraction(0)) + value
    return Cochain(DIM, acc)


def _sign(exponent):
    return -1 if exponent % 2 else 1


def splits_reference(a, parts):
    """Every tuple of ``parts`` indices summing to ``a`` componentwise, with the
    product over coordinates of the multinomial ``a_i! / (b_1_i! ... b_parts_i!)``.

    Each piece but the last runs over the box below what the earlier pieces
    left, and the last piece takes the rest; the multinomial is a product of
    binomials.  Splits are listed by their entries read coordinate by
    coordinate, ``(b_1_1, ..., b_parts_1, b_1_2, ...)``.
    """
    n = len(a)

    def tuples(rest, count):
        if count == 0:
            if not any(rest):
                yield ()
            return
        if count == 1:
            yield (rest,)
            return
        for piece in product(*[range(e + 1) for e in rest]):
            for tail in tuples(tuple(r - b for r, b in zip(rest, piece)), count - 1):
                yield (piece,) + tail

    def multinomial(pieces):
        coeff = 1
        for i in range(n):
            left = a[i]
            for piece in pieces:
                coeff *= comb(left, piece[i])
                left -= piece[i]
        return coeff

    found = [(pieces, multinomial(pieces)) for pieces in tuples(tuple(a), parts)]
    return sorted(found, key=lambda split: [piece[i] for i in range(n) for piece in split[0]])


def _index_splits_as_pieces(a, parts):
    """``index_splits`` of the index ``a``, each block of 16-bit fields read
    back as its ``parts`` pieces."""
    n = len(a)
    fields = Struct(f">{n * parts}H")
    packed = int.from_bytes(Struct(f">{n}H").pack(*a), "big")
    return [
        (tuple(zip(*[iter(fields.unpack(block.to_bytes(2 * n * parts, "big")))] * n)), coeff)
        for block, coeff in index_splits(n, packed, parts)
    ]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_index_splits_match_the_brute_force_reference(n):
    """The packed split table lists every split, with its multinomial, in the
    reference's order, for entries 0 to 4 and 0 to 4 parts; ``leibniz_split``
    reads its 2-splits back as index pairs."""
    for a in product(range(5), repeat=n):
        for parts in range(5):
            assert _index_splits_as_pieces(a, parts) == splits_reference(a, parts), (a, parts)
        assert list(leibniz_split(a)) == [(b, rest, coeff) for (b, rest), coeff in splits_reference(a, 2)]


@pytest.mark.parametrize(
    "a, error",
    [((-1, 0), ValueError), ((0, 1.5), ValueError), ((EXPONENT_BUDGET + 1,), ExponentBudgetError)],
)
def test_leibniz_split_refuses_an_invalid_index(a, error):
    with pytest.raises(error):
        leibniz_split(a)


def _insertions(tf, k, tg, scale):
    """``tg`` substituted into slot ``k`` of ``tf``, by the Leibniz rule written out.

    ``d^a`` of ``x^b0 (d^s1 u1) ... (d^sq uq)`` is the sum over splits
    ``(c0, c1, ..., cq)`` of ``a`` of the multinomial coefficient times
    ``perm(b0, c0) x^(b0 - c0) (d^(s1 + c1) u1) ... (d^(sq + cq) uq)``;
    ``math.perm(b, c)`` is 0 for ``c > b``, which drops the split.
    """
    head, tail = tf.slots[: k - 1], tf.slots[k:]
    for pieces, multinomial in splits_reference(tf.slots[k - 1], tg.arity + 1):
        falling = 1
        for b, c in zip(tg.x_part, pieces[0]):
            falling *= perm(b, c)
        if falling:
            x_part = index_add(tf.x_part, tuple(a - b for a, b in zip(tg.x_part, pieces[0])))
            middle = tuple(map(index_add, tg.slots, pieces[1:]))
            yield BasisTerm(DIM, x_part, head + middle + tail), scale * multinomial * falling


def cup_reference(f, g):
    return _summed(
        (BasisTerm(DIM, index_add(tf.x_part, tg.x_part), tf.slots + tg.slots), cf * cg)
        for tf, cf in f.items() for tg, cg in g.items()
    )


def insert_reference(f, k, g):
    return _summed(
        item for tf, cf in f.items() for tg, cg in g.items() for item in _insertions(tf, k, tg, cf * cg)
    )


def bracket_reference(f, g):
    def contributions():
        for tf, cf in f.items():
            for tg, cg in g.items():
                p, q = tf.arity, tg.arity
                for k in range(1, p + 1):
                    yield from _insertions(tf, k, tg, _sign((k - 1) * (q - 1)) * cf * cg)
                for k in range(1, q + 1):
                    sign = -_sign((p - 1) * (q - 1) + (k - 1) * (p - 1))
                    yield from _insertions(tg, k, tf, sign * cf * cg)

    return _summed(contributions())


def delta_reference(f):
    """The coboundary from its defining sum, one Leibniz split at a time.

    ``(delta f)(u0, ..., up) = u0 f(u1, ..., up)
    + sum_k (-1)^k f(u0, ..., u(k-1) uk, ..., up) + (-1)^(p+1) f(u0, ..., u(p-1)) up``;
    on a basis term the outer summands add an identity slot, and ``d^s`` of
    the product ``u(k-1) uk`` splits slot ``k`` into two pieces.
    """
    zero = (0,) * DIM

    def contributions():
        for t, c in f.items():
            p, x, slots = t.arity, t.x_part, t.slots
            yield BasisTerm(DIM, x, (zero,) + slots), c
            yield BasisTerm(DIM, x, slots + (zero,)), _sign(p + 1) * c
            for k in range(1, p + 1):
                for (b, rest), binomial in splits_reference(slots[k - 1], 2):
                    yield BasisTerm(DIM, x, slots[: k - 1] + (b, rest) + slots[k:]), _sign(k) * binomial * c

    return _summed(contributions())


@KERNEL_SETTINGS
@given(st.integers(0, 2).flatmap(big_cochains), st.integers(0, 2).flatmap(big_cochains), st.integers(1, 2))
def test_operations_match_fraction_reference(f, g, k):
    """Both operands carry large pairwise coprime denominators, so the common
    denominator of a result is the product of the operands' lcms."""
    cases = [
        (cup(f, g), cup_reference(f, g)),
        (bracket(f, g), bracket_reference(f, g)),
        (hochschild_delta(f), delta_reference(f)),
    ]
    p = f.arities()[0] if not f.is_zero else 1
    if p >= 1:
        k = min(k, p)
        cases.append((insert(f, k, g), insert_reference(f, k, g)))
    for result, expected in cases:
        assert_canonical(result)
        assert result == expected


@KERNEL_SETTINGS
@given(big_cochains(1), st.integers(0, 2).flatmap(big_cochains))
def test_operations_cancel_to_zero(x, f):
    """The bracket of a vector field with itself and delta(delta(f)) vanish
    after every contribution has been added."""
    for result, expected in (
        (bracket(x, x), bracket_reference(x, x)),
        (hochschild_delta(hochschild_delta(f)), delta_reference(delta_reference(f))),
    ):
        assert_canonical(result)
        assert result == expected
        assert result.is_zero


def test_apply_and_product_refusals_keep_their_messages():
    c = Cochain.single(BasisTerm(DIM, (0, 0), ((1, 0),)))
    x = Polynomial.variable(DIM, 1)
    cases = [
        (lambda: c.apply([1]), TypeError, "apply expects Polynomial arguments"),
        (
            lambda: c.apply([Polynomial.variable(3, 1)]),
            DimensionMismatchError,
            "argument dimension 3 does not match cochain dimension 2",
        ),
        (lambda: c.apply([x, x]), ArityError, "term of arity 1 applied to 2 arguments"),
        (lambda: x * Polynomial.variable(3, 1), DimensionMismatchError, "polynomial dimensions differ: 2 vs 3"),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message


def test_public_constructors_still_validate():

    with pytest.raises(ValueError):
        Polynomial(2, {(-1, 0): 1})
    with pytest.raises(ValueError):
        BasisTerm(2, (0, 0), ((0, -1),))
    with pytest.raises(ValueError):
        BasisTerm(2, (1.0, 0), ())
    with pytest.raises(DimensionMismatchError):
        BasisTerm(2, (0, 0, 0), ())
    with pytest.raises(DimensionMismatchError):
        Polynomial(2, {(1,): 1})
    with pytest.raises(TypeError):
        Polynomial(2, {(1, 0): 0.5})
    with pytest.raises(TypeError):
        Cochain(2, {BasisTerm(2, (0, 0), ()): 0.5})
    with pytest.raises(TypeError):
        Cochain(2, {(0, 0): 1})
    with pytest.raises(DimensionMismatchError):
        Cochain(2, {BasisTerm(3, (0, 0, 0), ()): 1})
    with pytest.raises(DimensionMismatchError):
        Polynomial.variable(2, 1) + Polynomial.variable(3, 1)
    with pytest.raises(DimensionMismatchError):
        Polynomial.variable(2, 1).derive((1,))
    with pytest.raises(TypeError):
        Polynomial.variable(2, 1) * 0.5


def test_polynomial_and_cochain_do_not_mix():
    p = Polynomial.variable(2, 1)
    c = Cochain.single(BasisTerm(2, (1, 0), ()))
    with pytest.raises(TypeError):
        p + c
    with pytest.raises(TypeError):
        c + p
    with pytest.raises(TypeError):
        p - c
    with pytest.raises(TypeError):
        p * c
    assert p != c and Polynomial.zero(2) != Cochain.zero(2)


# -- the store invariant: one reduced form per value ----------------------------

HALF_PLANE = SemigroupSpec(dimension=DIM, generators=((0, -1), (-1, 0)))
NONZERO_SCALAR = SCALAR.filter(bool)


def assert_reduced_store(value):
    """Denominator >= 1 and coprime to the numerators, no zero numerator, and
    ``coefficient()`` agreeing with ``items()``."""
    num, d = value._num, value._den
    assert type(d) is int and d >= 1
    assert all(type(c) is int and c for c in num.values())
    assert gcd(d, *num.values()) == 1
    pairs = list(value.items())
    assert len(pairs) == len(num)
    for key, c in pairs:
        assert value.coefficient(key) == c
    assert_canonical(value)


def assert_same_value(a, b):
    assert a == b and hash(a) == hash(b)


def assert_routes_agree(f, g, s):
    """The same value reached by different routes has the same store and hash."""
    assert_same_value((f + g) - g, f)
    assert_same_value((g + f) - g, f)  # shared keys come first in g's order
    assert_same_value((f * s) * (1 / Fraction(s)), f)
    assert_same_value(type(f)(f.dimension, list(f.items())[::-1]), f)


@SETTINGS
@given(st.integers(1, 2).flatmap(cochains_of_arity), st.integers(0, 2).flatmap(cochains_of_arity),
       ANY_COCHAIN, st.integers(1, 2), NONZERO_SCALAR, cochains_of_arity(2))
def test_cochain_results_are_reduced_stores(f, g, h, k, s, y):
    if f.is_zero or k > f.homogeneous_arity():
        k = 1
    results = [
        cup(f, h), insert(f, k, g), bracket(f, h), bracket(h, h), hochschild_delta(h),
        f + h, f - h, h * s, s * h, -h, theta_apply(h, (1,)), *theta_split(h, (1, 2)),
        project_subalgebra(h, HALF_PLANE), solve_delta(hochschild_delta(y)),
        *h.components_by_arity().values(), *decompose_by_weight(h).values(),
        *decompose_by_bigrade(h).values(),
    ]
    for result in results:
        assert_reduced_store(result)
        assert_routes_agree(result, h, s)


@SETTINGS
@given(POLYNOMIAL, POLYNOMIAL, NONZERO_SCALAR, EXPONENT,
       st.integers(0, 2).flatmap(lambda p: st.tuples(cochains_of_arity(p), st.lists(POLYNOMIAL, min_size=p, max_size=p))))
def test_polynomial_results_are_reduced_stores(u, v, s, a, case):
    f, args = case
    for result in (u * v, u + v, u - v, u * s, -u, u.derive(a), f.apply(args)):
        assert_reduced_store(result)
        assert_routes_agree(result, v, s)
