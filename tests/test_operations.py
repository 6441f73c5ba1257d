import random

import pytest

from gerstenhaber import (
    BasisTerm,
    Cochain,
    Polynomial,
    bracket,
    cup,
    delta_via_bracket,
    hochschild_delta,
    insert,
    multiplication_cochain,
    scaling_field,
)
from gerstenhaber.cochains import ArityError
from gerstenhaber.operations import _insert_term
from gerstenhaber.starproduct import solve_maurer_cartan
from gerstenhaber.axioms import (
    random_cochain,
    random_homogeneous_cochain,
    random_polynomial,
    random_vector_field,
)

from oracle_sympy import X, bracket_eval, cochain_eval, delta_eval, exprs_equal, poly_to_expr


def term(x_part, *slots):
    return BasisTerm(2, x_part, slots)


def single(x_part, *slots):
    return Cochain.single(term(x_part, *slots))


M = multiplication_cochain(2)


# -- cup ---------------------------------------------------------------------


def test_cup_on_basis_terms():
    f = single((1, 0), (1, 0))  # x1 d1
    g = single((0, 0), (0, 1))  # d2
    assert cup(f, g) == single((1, 0), (1, 0), (0, 1))


def test_cup_unit():
    rng = random.Random(3)
    one = Cochain.single(term((0, 0)))
    for _ in range(20):
        f = random_cochain(rng)
        assert cup(one, f) == f
        assert cup(f, one) == f


def test_cup_scalar_factor_is_scaling_field():
    x1 = single((1, 0))
    d1 = single((0, 0), (1, 0))
    h1 = cup(x1, d1)
    assert h1 == scaling_field(2, 1)
    # evaluation identity checked on all monomials of degree <= 2
    for expo in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
        u = Polynomial.monomial(2, expo)
        assert h1.apply([u]) == Polynomial.monomial(2, expo, expo[0])


def test_cup_evaluation_identity_random():
    rng = random.Random(5)
    for _ in range(30):
        p, q = rng.randint(0, 2), rng.randint(0, 2)
        f = random_homogeneous_cochain(rng, arity=p, max_terms=2)
        g = random_homogeneous_cochain(rng, arity=q, max_terms=2)
        args = [random_polynomial(rng, max_degree=2, max_terms=2) for _ in range(p + q)]
        left = cup(f, g).apply(args)
        right = f.apply(args[:p]) * g.apply(args[p:])
        assert left == right


def test_cup_associative_random():
    rng = random.Random(7)
    for _ in range(40):
        f, g, h = (random_cochain(rng) for _ in range(3))
        assert cup(cup(f, g), h) == cup(f, cup(g, h))


# -- insert ------------------------------------------------------------------


def test_insert_constant_coefficient_composition():
    d1 = single((0, 0), (1, 0))
    d2 = single((0, 0), (0, 1))
    assert insert(d1, 1, d2) == single((0, 0), (1, 1))


def test_insert_with_coefficients():
    # (x2 d1) o1 (x1 d2) = x2 d2 + x1 x2 d1 d2
    f = single((0, 1), (1, 0))
    g = single((1, 0), (0, 1))
    expected = Cochain(2, {term((0, 1), (0, 1)): 1, term((1, 1), (1, 1)): 1})
    result = insert(f, 1, g)
    assert result == expected
    # both sides evaluated symbolically on monomials of degree <= 3
    for e1 in range(3):
        for e2 in range(3 - e1):
            u = X[0] ** e1 * X[1] ** e2
            nested = cochain_eval(f, [cochain_eval(g, [u])])
            assert exprs_equal(cochain_eval(result, [u]), nested)


def test_insert_identity_slot():
    rng = random.Random(9)
    identity = single((0, 0), (0, 0))
    for _ in range(20):
        f = random_homogeneous_cochain(rng, arity=1)
        assert insert(f, 1, identity) == f


def test_insert_arity_zero_consumes_slot():
    f = single((0, 0), (1, 0), (0, 1))  # d1 (x) d2
    g = single((2, 0))  # x1^2
    result = insert(f, 1, g)
    assert result == Cochain(2, {term((1, 0), (0, 1)): 2})


def test_inner_terms_differing_only_in_slots_share_one_insertion_entry():
    """The insertion table keys on the receiving slot, the inner x-part and
    the inner arity, not on the inner term's slots."""
    f = single((1, 0), (2, 1))
    g = Cochain(2, {term((1, 1), (1, 0), (0, 2)): 1, term((1, 1), (0, 3), (2, 0)): 3})
    _insert_term.cache_clear()
    result = insert(f, 1, g)
    assert _insert_term.cache_info().currsize == 1
    assert result == insert(f, 1, single((1, 1), (1, 0), (0, 2))) + 3 * insert(f, 1, single((1, 1), (0, 3), (2, 0)))


def test_x1x2_solve_keeps_the_insertion_table_small():
    """One entry per distinct (slot field, x-part, arity): an ``x1*x2`` solve
    to order 6 adds 160, where one entry per inner slot block added 708."""
    x1x2 = Cochain(2, {term((1, 1), (1, 0), (0, 1)): 1, term((1, 1), (0, 1), (1, 0)): -1})
    _insert_term.cache_clear()
    solve_maurer_cartan(x1x2, 6)
    assert _insert_term.cache_info().currsize <= 200


def test_insert_position_validation():
    f = single((0, 0), (1, 0))
    with pytest.raises(ArityError):
        insert(f, 2, f)
    with pytest.raises(ArityError):
        insert(single((0, 0)), 1, f)
    mixed = single((0, 0), (1, 0)) + single((0, 0))
    with pytest.raises(ArityError):
        insert(mixed, 1, f)


# -- bracket -----------------------------------------------------------------


def test_bracket_weight_eigenvalue_example():
    t = single((2, 0), (1, 0))
    assert bracket(scaling_field(2, 1), t) == t  # eigenvalue 2 - 1 = 1


def test_bracket_scaling_fields_commute():
    for i in (1, 2):
        for j in (1, 2):
            assert bracket(scaling_field(2, i), scaling_field(2, j)).is_zero


def test_bracket_rotation_pair():
    f = single((1, 0), (0, 1))  # x1 d2
    g = single((0, 1), (1, 0))  # x2 d1
    expected = Cochain(2, {term((1, 0), (1, 0)): 1, term((0, 1), (0, 1)): -1})
    assert bracket(f, g) == expected


def test_bracket_matches_nested_symbolic_evaluation():
    rng = random.Random(11)
    for _ in range(30):
        p = rng.randint(0, 2)
        q = rng.randint(max(0, 1 - p), 2)
        f = random_homogeneous_cochain(rng, arity=p, max_terms=2)
        g = random_homogeneous_cochain(rng, arity=q, max_terms=2)
        exprs = [poly_to_expr(random_polynomial(rng, max_degree=2, max_terms=2)) for _ in range(p + q - 1)]
        ours = cochain_eval(bracket(f, g), exprs)
        theirs = bracket_eval(f, g, p, q, exprs)
        assert exprs_equal(ours, theirs)


def test_bracket_graded_antisymmetry():
    rng = random.Random(13)
    for _ in range(40):
        p, q = rng.randint(0, 3), rng.randint(0, 3)
        f = random_homogeneous_cochain(rng, arity=p, max_terms=3)
        g = random_homogeneous_cochain(rng, arity=q, max_terms=3)
        sign = -1 if ((p + 1) * (q + 1)) % 2 else 1
        assert bracket(f, g) == bracket(g, f) * (-sign)


def test_jacobi_small_sample():
    rng = random.Random(17)
    for _ in range(15):
        arities = [rng.randint(0, 2) for _ in range(3)]
        f, g, h = (random_homogeneous_cochain(rng, arity=p, max_terms=2) for p in arities)
        p, q, r = arities
        sgn = lambda e: -1 if e % 2 else 1
        total = (
            bracket(f, bracket(g, h)) * sgn((p + 1) * (r + 1))
            + bracket(g, bracket(h, f)) * sgn((q + 1) * (p + 1))
            + bracket(h, bracket(f, g)) * sgn((r + 1) * (q + 1))
        )
        assert total.is_zero


def test_vector_field_leibniz_rule():
    rng = random.Random(19)
    for _ in range(30):
        chi = random_vector_field(rng)
        f = random_homogeneous_cochain(rng, max_terms=3)
        g = random_homogeneous_cochain(rng, max_terms=3)
        assert bracket(chi, cup(f, g)) == cup(bracket(chi, f), g) + cup(f, bracket(chi, g))


# -- coboundary --------------------------------------------------------------


def test_delta_vanishes_on_arity_zero():
    rng = random.Random(23)
    for _ in range(20):
        c = random_homogeneous_cochain(rng, arity=0)
        assert hochschild_delta(c).is_zero


def test_delta_of_multiplication_is_zero():
    assert hochschild_delta(M).is_zero
    assert delta_via_bracket(M).is_zero


def test_delta_of_second_order_field():
    c = single((0, 0), (1, 1))  # d1 d2 as a 1-cochain
    expected = Cochain(2, {term((0, 0), (1, 0), (0, 1)): -1, term((0, 0), (0, 1), (1, 0)): -1})
    assert hochschild_delta(c) == expected
    assert delta_via_bracket(c) == expected


def test_delta_matches_defining_sum_symbolically():
    rng = random.Random(29)
    for _ in range(25):
        p = rng.randint(0, 2)
        f = random_homogeneous_cochain(rng, arity=p, max_terms=2)
        exprs = [poly_to_expr(random_polynomial(rng, max_degree=2, max_terms=2)) for _ in range(p + 1)]
        ours = cochain_eval(hochschild_delta(f), exprs)
        assert exprs_equal(ours, delta_eval(f, p, exprs))


def test_delta_two_routes_agree_on_200_random_cochains():
    rng = random.Random(31)
    for _ in range(200):
        f = random_cochain(rng)
        assert hochschild_delta(f) == delta_via_bracket(f)


def test_delta_squared_zero():
    rng = random.Random(37)
    for _ in range(60):
        f = random_cochain(rng)
        assert hochschild_delta(hochschild_delta(f)).is_zero
