"""Exact elimination checked against sympy's reduced row echelon form.

The reference solution is read off ``Matrix.rref`` of the augmented matrix
with every free variable set to zero; the system is inconsistent exactly
when the augmented column holds a pivot.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gerstenhaber.linsolve import solve_particular, solve_unique

# Mostly zeros, like the coboundary blocks the solver hands over.
ENTRY = st.sampled_from([0, 0, 0, 0, 0, 1, -1, 2, -3])
VALUE = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def tall_systems(draw):
    """A sparse integer matrix with at least as many rows as columns, and a rational y."""
    cols = draw(st.integers(1, 6))
    rows = draw(st.integers(cols, 3 * cols))
    matrix = [[draw(ENTRY) for _ in range(cols)] for _ in range(rows)]
    y = [draw(VALUE) for _ in range(cols)]
    return matrix, y


def _times(matrix, y):
    return [sum((a * v for a, v in zip(row, y)), Fraction(0)) for row in matrix]


def _reference(matrix, rhs):
    """(solution with free variables zero or None, rank) from sympy's rref."""
    cols = len(matrix[0])
    augmented = sympy.Matrix(
        [[*row, sympy.Rational(b.numerator, b.denominator)] for row, b in zip(matrix, rhs)]
    )
    reduced, pivots = augmented.rref()
    if cols in pivots:
        return None, len(pivots) - 1
    solution = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        value = reduced[r, cols]
        solution[c] = Fraction(int(value.p), int(value.q))
    return solution, len(pivots)


def _assert_same(got, expected):
    assert got == expected
    if got is not None:
        assert all(type(v) is Fraction for v in got)


@settings(max_examples=150, deadline=None)
@given(tall_systems())
def test_consistent_rhs_matches_sympy_rref(system):
    matrix, y = system
    rhs = _times(matrix, y)
    expected, rank = _reference(matrix, rhs)
    assert expected is not None
    _assert_same(solve_particular(matrix, rhs), expected)
    _assert_same(solve_unique(matrix, rhs), expected if rank == len(y) else None)


@settings(max_examples=150, deadline=None)
@given(tall_systems(), st.data())
def test_perturbed_rhs_inconsistent_exactly_when_sympy_pivots_augmented_column(system, data):
    matrix, y = system
    rhs = _times(matrix, y)
    rhs[data.draw(st.integers(0, len(rhs) - 1))] += data.draw(VALUE.filter(bool))
    expected, rank = _reference(matrix, rhs)
    _assert_same(solve_particular(matrix, rhs), expected)
    unique = expected if expected is not None and rank == len(y) else None
    _assert_same(solve_unique(matrix, rhs), unique)


@settings(max_examples=100, deadline=None)
@given(tall_systems(), st.data())
def test_solve_unique_none_on_rank_deficient_input(system, data):
    matrix, y = system
    # Repeat a column: the rank is below the column count for every rhs.
    source = data.draw(st.integers(0, len(y) - 1))
    matrix = [row + [row[source]] for row in matrix]
    rhs = _times(matrix, y + [Fraction(1)])
    assert solve_unique(matrix, rhs) is None
    _assert_same(solve_particular(matrix, rhs), _reference(matrix, rhs)[0])


def test_free_variables_pinned_to_zero():
    # x0 + x1 = 2, x2 free: the pivot is x0.
    assert solve_particular([[1, 1, 0], [2, 2, 0]], [2, 4]) == [2, 0, 0]


def test_empty_system():
    assert solve_particular([], []) == []
    assert solve_unique([], []) is None


@pytest.mark.parametrize("solve", [solve_particular, solve_unique])
@pytest.mark.parametrize("matrix, rhs", [([[1, 0], [0, 1]], [1]), ([[1, 0]], [1, 2]), ([], [1])])
def test_size_mismatch_raises(solve, matrix, rhs):
    with pytest.raises(ValueError, match="sizes differ"):
        solve(matrix, rhs)
