"""Exact linear algebra over the rationals.

Sparse exact elimination on integers: each row, right-hand side included,
is scaled by the lcm of its own denominators to a ``{column: int}`` dict and
reduced against the echelon rows found so far with integer row operations.
Echelon rows are stored primitive (divided by the gcd of their entries) with
a positive pivot.  Back-substitution runs in ``Fraction``s and sets every
free variable to zero.  The pivot columns of any echelon form are those of
the reduced row echelon form, so the solution is the reduced-echelon
particular solution; callers rely on that for reproducible output.
``pivot_columns`` finds them from the columns, with the same ``_reduce``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Optional, Sequence


def _reduce(row: dict[int, int], echelon: dict[int, dict[int, int]]) -> Optional[int]:
    """Reduce the integer ``row`` (consumed) against ``echelon``, which maps each
    lead (smallest key) to a primitive row positive there; store what is left
    the same way and return its lead, or None when nothing is left."""
    while row:
        lead = min(row)
        pivot_row = echelon.get(lead)
        if pivot_row is None:
            content = gcd(*row.values())
            if row[lead] < 0:
                content = -content
            echelon[lead] = {j: v // content for j, v in row.items()}
            return lead
        # row * (p/g) - (a/g) * pivot_row clears column lead.
        p, a = pivot_row[lead], row[lead]
        g = gcd(p, a)
        p, a = p // g, a // g
        if p != 1:
            row = {j: v * p for j, v in row.items()}
        for j, v in pivot_row.items():
            w = row.get(j, 0) - a * v
            if w:
                row[j] = w
            else:
                del row[j]
    return None


def _eliminate(
    matrix: Sequence[Sequence], rhs: Sequence
) -> Optional[tuple[list[Fraction], int]]:
    """The solution with free variables zero and the rank; None when inconsistent.

    Entries are ``int`` or ``Fraction``; both have ``numerator`` and ``denominator``.
    """
    if len(matrix) != len(rhs):
        raise ValueError("matrix and right-hand side sizes differ")
    n = len(matrix[0]) if matrix else 0
    echelon: dict[int, dict[int, int]] = {}  # pivot column -> primitive row, positive there
    for coeffs, b in zip(matrix, rhs):
        entries = [(j, v) for j, v in enumerate(coeffs) if v]
        if b:
            entries.append((n, b))  # the right-hand side sits in column n
        scale = lcm(*[v.denominator for _, v in entries])
        if _reduce({j: v.numerator * (scale // v.denominator) for j, v in entries}, echelon) == n:
            return None  # 0 = nonzero: inconsistent
    solution = [Fraction(0)] * n
    for lead in sorted(echelon, reverse=True):
        row = echelon[lead]
        value = Fraction(row.get(n, 0))
        for j, v in row.items():
            if lead < j < n and solution[j]:
                value -= v * solution[j]
        solution[lead] = value / row[lead]
    return solution, len(echelon)


def pivot_columns(columns: Sequence[Mapping[int, int]]) -> tuple[tuple[int, int], ...]:
    """The pivot columns j of ``{row: int}`` columns (those outside the span of the
    columns before them), each with the lead row of its remainder; the matrix on
    the pivot columns and those rows is nonsingular."""
    echelon: dict[int, dict[int, int]] = {}  # lead row -> primitive remainder
    return tuple((j, lead) for j, column in enumerate(columns) if (lead := _reduce(dict(column), echelon)) is not None)


def solve_particular(
    matrix: Sequence[Sequence], rhs: Sequence
) -> Optional[list[Fraction]]:
    """Solve ``matrix @ x = rhs`` exactly; None when inconsistent.

    Returns the reduced-echelon particular solution with all free variables
    set to zero.
    """
    solved = _eliminate(matrix, rhs)
    return None if solved is None else solved[0]


def solve_unique(matrix: Sequence[Sequence], rhs: Sequence) -> Optional[list[Fraction]]:
    """Solve ``matrix @ x = rhs`` when the solution is unique; else None."""
    solved = _eliminate(matrix, rhs)
    if not matrix or solved is None or solved[1] < len(matrix[0]):
        return None
    return solved[0]
