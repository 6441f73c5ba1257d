"""Exact linear algebra over the rationals.

One sparse exact elimination on integers: each row is given as its nonzero
``(column, value)`` pairs; with its right-hand side it is scaled by the lcm
of its own denominators to a ``{column: int}`` dict and reduced against the
echelon rows found so far with integer row operations.  Echelon rows are
stored primitive (divided by the gcd of their entries) with a positive
pivot.  Back-substitution runs in ``Fraction``s and sets every free variable
to zero.  The pivot columns of any echelon form are those of the reduced row
echelon form, so the solution is the reduced-echelon particular solution
whatever the row order; callers rely on that for reproducible output.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

Row = Sequence[tuple[int, object]]  # nonzero (column, value) pairs, values int or Fraction


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


def _eliminate(rows: Sequence[Row], rhs: Sequence, n: int) -> Optional[tuple[list[Fraction], int]]:
    """The solution of the ``n``-column system with free variables zero and the
    rank; None when inconsistent.

    Entries are ``int`` or ``Fraction``; both have ``numerator`` and ``denominator``.
    """
    if len(rows) != len(rhs):
        raise ValueError("matrix and right-hand side sizes differ")
    echelon: dict[int, dict[int, int]] = {}  # pivot column -> primitive row, positive there
    for row, b in zip(rows, rhs):
        entries = [*row, (n, b)] if b else row  # the right-hand side sits in column n
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


def solve_particular(rows: Sequence[Row], rhs: Sequence, n: int) -> Optional[list[Fraction]]:
    """Solve the sparse ``n``-column system ``rows @ x = rhs`` exactly; None when
    inconsistent.

    Returns the reduced-echelon particular solution with all free variables
    set to zero.
    """
    solved = _eliminate(rows, rhs, n)
    return None if solved is None else solved[0]


def solve_unique(matrix: Sequence[Sequence], rhs: Sequence) -> Optional[list[Fraction]]:
    """Solve the dense system ``matrix @ x = rhs`` when the solution is unique; else None."""
    n = len(matrix[0]) if matrix else 0
    solved = _eliminate([[(j, v) for j, v in enumerate(coeffs) if v] for coeffs in matrix], rhs, n)
    if not matrix or solved is None or solved[1] < n:
        return None
    return solved[0]
