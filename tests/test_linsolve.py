"""Exact elimination checked against sympy's reduced row echelon form.

The reference solution is read off ``Matrix.rref`` of the augmented matrix
with every free variable set to zero; the system is inconsistent exactly
when the augmented column holds a pivot.  Entries are small integers (the
coboundary blocks), large integers (row growth and content reduction in the
integer elimination) or fractions (the semigroup hull systems).
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


def _particular(matrix, rhs):
    """``solve_particular`` on the sparse rows of a dense matrix."""
    return solve_particular([[(j, v) for j, v in enumerate(row) if v] for row in matrix], rhs, len(matrix[0]) if matrix else 0)


def _rational(v):
    return sympy.Rational(v.numerator, v.denominator)


def _reference(matrix, rhs):
    """(solution with free variables zero or None, rank) from sympy's rref."""
    cols = len(matrix[0])
    augmented = sympy.Matrix([[*map(_rational, row), _rational(b)] for row, b in zip(matrix, rhs)])
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
    _assert_same(_particular(matrix, rhs), expected)
    _assert_same(solve_unique(matrix, rhs), expected if rank == len(y) else None)


@settings(max_examples=150, deadline=None)
@given(tall_systems(), st.data())
def test_perturbed_rhs_inconsistent_exactly_when_sympy_pivots_augmented_column(system, data):
    matrix, y = system
    rhs = _times(matrix, y)
    rhs[data.draw(st.integers(0, len(rhs) - 1))] += data.draw(VALUE.filter(bool))
    expected, rank = _reference(matrix, rhs)
    _assert_same(_particular(matrix, rhs), expected)
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
    _assert_same(_particular(matrix, rhs), _reference(matrix, rhs)[0])


# Large integers make the integer row operations grow their rows, so the
# content gcd taken when a row is stored has something to remove.
BIG_ENTRY = st.one_of(st.just(0), st.integers(-10**6, 10**6))
FRACTION_ENTRY = st.one_of(st.just(0), st.fractions(min_value=-50, max_value=50, max_denominator=97))
ENTRIES = {"small": ENTRY, "big": BIG_ENTRY, "fraction": FRACTION_ENTRY}


@st.composite
def systems(draw, entry):
    """Any shape, wide ones included, so the rank may be below the column count."""
    cols = draw(st.integers(1, 5))
    rows = draw(st.integers(1, 2 * cols + 1))
    matrix = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    y = [draw(VALUE) for _ in range(cols)]
    return matrix, y


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_consistent_systems_match_sympy_rref(kind, data):
    matrix, y = data.draw(systems(ENTRIES[kind]))
    rhs = _times(matrix, y)
    expected, rank = _reference(matrix, rhs)
    _assert_same(_particular(matrix, rhs), expected)
    unique = solve_unique(matrix, rhs)
    assert (unique is None) == (rank < len(y))
    _assert_same(unique, expected if rank == len(y) else None)


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_inconsistent_rhs_gives_none(kind, data):
    """A row that combines other rows, with its right-hand side off by a nonzero amount."""
    matrix, y = data.draw(systems(ENTRIES[kind]))
    rhs = _times(matrix, y)
    weights = [data.draw(st.integers(-3, 3)) for _ in matrix]
    combined = [sum(w * row[j] for w, row in zip(weights, matrix)) for j in range(len(y))]
    at = data.draw(st.integers(0, len(matrix)))
    matrix.insert(at, combined)
    rhs.insert(at, sum(w * b for w, b in zip(weights, rhs)) + data.draw(VALUE.filter(bool)))
    assert _reference(matrix, rhs)[0] is None
    assert _particular(matrix, rhs) is None
    assert solve_unique(matrix, rhs) is None


@pytest.mark.parametrize("kind", ["small", "big"])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_row_permutation_leaves_solution_unchanged(kind, data):
    """The solution does not depend on the order of the rows, consistent or
    not; the coboundary solve reduces its rows in the order that fills in least."""
    cols = data.draw(st.integers(1, 6))
    matrix = [[data.draw(ENTRIES[kind]) for _ in range(cols)] for _ in range(data.draw(st.integers(cols, 3 * cols)))]
    rhs = _times(matrix, [data.draw(VALUE) for _ in range(cols)])
    if data.draw(st.booleans()):  # often inconsistent, sometimes not
        rhs = [b + data.draw(st.sampled_from([0, 0, 1, Fraction(-1, 2)])) for b in rhs]
    order = data.draw(st.permutations(range(len(matrix))))
    expected = _particular(matrix, rhs)
    _assert_same(expected, _reference(matrix, rhs)[0])
    _assert_same(_particular([matrix[i] for i in order], [rhs[i] for i in order]), expected)


def test_free_variables_pinned_to_zero():
    # x0 + x1 = 2, x2 free: the pivot is x0.
    assert solve_particular([[(0, 1), (1, 1)], [(0, 2), (1, 2)]], [2, 4], 3) == [2, 0, 0]


def test_empty_system():
    assert solve_particular([], [], 0) == []
    assert solve_particular([], [], 2) == [0, 0]
    assert solve_particular([[]], [1], 2) is None  # 0 = 1
    assert solve_unique([], []) is None


@pytest.mark.parametrize("solve", [pytest.param(_particular, id="solve_particular"), solve_unique])
@pytest.mark.parametrize("matrix, rhs", [([[1, 0], [0, 1]], [1]), ([[1, 0]], [1, 2]), ([], [1])])
def test_size_mismatch_raises(solve, matrix, rhs):
    with pytest.raises(ValueError, match="sizes differ"):
        solve(matrix, rhs)
