"""Exact linear algebra over the rationals.

Sparse exact elimination: rows are ``{column: Fraction}`` dicts, each row is
reduced against the echelon rows found so far, and back-substitution sets
every free variable to zero.  The pivot columns of any echelon form are those
of the reduced row echelon form, so the solution is the reduced-echelon
particular solution; callers rely on that for reproducible output.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence


def _eliminate(
    matrix: Sequence[Sequence], rhs: Sequence
) -> Optional[tuple[list[Fraction], int]]:
    """The solution with free variables zero and the rank; None when inconsistent."""
    if len(matrix) != len(rhs):
        raise ValueError("matrix and right-hand side sizes differ")
    n = len(matrix[0]) if matrix else 0
    echelon: dict[int, dict[int, Fraction]] = {}  # pivot column -> row with 1 there
    for coeffs, b in zip(matrix, rhs):
        row = {j: Fraction(v) for j, v in enumerate(coeffs) if v}
        if b:
            row[n] = Fraction(b)  # the right-hand side sits in column n
        while row:
            lead = min(row)
            pivot_row = echelon.get(lead)
            if pivot_row is None:
                break
            factor = row[lead]
            for j, v in pivot_row.items():
                w = row.get(j, 0) - factor * v
                if w:
                    row[j] = w
                else:
                    del row[j]
        if not row:
            continue
        if lead == n:
            return None  # 0 = nonzero: inconsistent
        inv = 1 / row[lead]
        echelon[lead] = {j: v * inv for j, v in row.items()}
    solution = [Fraction(0)] * n
    for lead in sorted(echelon, reverse=True):
        row = echelon[lead]
        solution[lead] = row.get(n, Fraction(0)) - sum(
            v * solution[j] for j, v in row.items() if lead < j < n
        )
    return solution, len(echelon)


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
