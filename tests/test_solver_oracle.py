"""External validation of the star-product solver.

Two oracles that share nothing with the solver's own engines: the
closed-form exponential series for the constant symplectic structure
(coefficients derived here from binomials), and literal sympy evaluation of
the deformed product, including an associativity check carried out entirely
in sympy.
"""

import random
from fractions import Fraction
from math import comb, factorial

import sympy

from gerstenhaber import (
    BasisTerm,
    Cochain,
    Polynomial,
    hochschild_delta,
    solve_maurer_cartan,
    star_apply,
)
from gerstenhaber.axioms import random_polynomial

from oracle_sympy import X, derive_expr, exprs_equal, poly_to_expr


def constant_bivector():
    return Cochain(
        2, {BasisTerm(2, (0, 0), ((1, 0), (0, 1))): 1, BasisTerm(2, (0, 0), ((0, 1), (1, 0))): -1}
    )


def exponential_term(k):
    """Order-k coefficient of the exponential bidifferential series.

    (1/k!)(1/2)^k L^k with L^k(f,g) = sum_j (-1)^j C(k,j)
    (d1^(k-j) d2^j f)(d1^j d2^(k-j) g).
    """
    scale = Fraction(1, factorial(k) * 2**k)
    terms = {}
    for j in range(k + 1):
        coeff = scale * comb(k, j) * (-1) ** j
        terms[BasisTerm(2, (0, 0), ((k - j, j), (j, k - j)))] = coeff
    return Cochain(2, terms)


def test_solver_reproduces_exponential_series_through_order_sixteen():
    deformation = solve_maurer_cartan(constant_bivector(), 16)
    for k in range(1, 17):
        expected = exponential_term(k)
        assert deformation.coefficient(k) == expected
        assert hochschild_delta(deformation.coefficient(k) - expected).is_zero


def _star_order_sympy(deformation, F, G):
    """Deformed product of two sympy expressions, one expression per order."""
    out = {0: sympy.expand(F * G)}
    for k in range(1, deformation.order + 1):
        total = sympy.Integer(0)
        for t, c in deformation.coefficient(k).items():
            piece = sympy.Rational(c.numerator, c.denominator)
            for var, e in zip(X, t.x_part):
                piece *= var**e
            piece *= derive_expr(F, t.slots[0]) * derive_expr(G, t.slots[1])
            total += piece
        out[k] = sympy.expand(total)
    return out


def _star_series_sympy(deformation, FS, GS):
    out = {}
    order = deformation.order
    for i, Fi in FS.items():
        for j, Gj in GS.items():
            if i + j > order:
                continue
            for k, val in _star_order_sympy(deformation, Fi, Gj).items():
                if i + j + k <= order:
                    out[i + j + k] = sympy.expand(out.get(i + j + k, sympy.Integer(0)) + val)
    return out


def linear_bivector():
    return Cochain(
        2, {BasisTerm(2, (1, 0), ((1, 0), (0, 1))): 1, BasisTerm(2, (1, 0), ((0, 1), (1, 0))): -1}
    )


def test_star_apply_matches_sympy_evaluation():
    deformation = solve_maurer_cartan(linear_bivector(), 4)
    rng = random.Random(55)
    for _ in range(12):
        f = random_polynomial(rng, max_degree=3)
        g = random_polynomial(rng, max_degree=3)
        ours = star_apply(deformation, f, g)
        theirs = _star_order_sympy(deformation, poly_to_expr(f), poly_to_expr(g))
        for k in range(deformation.order + 1):
            mine = poly_to_expr(ours.get(k, Polynomial.zero(2)))
            assert exprs_equal(mine, theirs.get(k, sympy.Integer(0)))


def test_associativity_verified_entirely_in_sympy():
    deformation = solve_maurer_cartan(linear_bivector(), 4)
    rng = random.Random(57)
    for _ in range(5):
        F, G, H = (poly_to_expr(random_polynomial(rng, max_degree=2)) for _ in range(3))
        left = _star_series_sympy(deformation, _star_series_sympy(deformation, {0: F}, {0: G}), {0: H})
        right = _star_series_sympy(deformation, {0: F}, _star_series_sympy(deformation, {0: G}, {0: H}))
        for k in range(deformation.order + 1):
            assert exprs_equal(left.get(k, sympy.Integer(0)), right.get(k, sympy.Integer(0)))
