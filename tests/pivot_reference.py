"""The column-pivot block solve, kept as the reference for ``solve_delta``.

A block's pivot columns come from reducing the ``build_block`` columns in
order: a column outside the span of those before it is a pivot, paired with
the lead row of its remainder.  These are the pivot columns of the reduced
row echelon form, and the square system on them and their rows is
nonsingular; solving it densely, every other variable zero, gives the
reduced-echelon particular solution that ``solve_delta`` computes by one
sparse row elimination.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from gerstenhaber import Cochain, CoboundaryError, build_block, decompose_by_bigrade, hochschild_delta
from gerstenhaber.cochains import _WIDTH, _pack, _within_budget
from gerstenhaber.grading import _buckets
from gerstenhaber.linsolve import _reduce, solve_unique


def pivot_columns(columns):
    """The pivot columns j of ``{row: int}`` columns, each with the lead row of its remainder."""
    echelon = {}  # lead row -> primitive remainder
    return tuple((j, lead) for j, column in enumerate(columns) if (lead := _reduce(dict(column), echelon)) is not None)


@lru_cache(maxsize=None)
def block_pivots(slot_total):
    return pivot_columns(build_block(slot_total).columns)


def reference_solve_delta(target: Cochain) -> Cochain:
    """The preimage from each block's square system; ``CoboundaryError`` names
    the smallest bigrade where its coboundary misses the target."""
    n = target.dimension
    width = _WIDTH * n
    slots3, num = (1 << 3 * width) - 1, target._num
    solution: dict[int, Fraction] = {}
    bound = 0
    for (down, up), keys in _buckets(target, True).items():
        component = {key & slots3: num[key] for key in keys}
        x_part = tuple((d + u) // 2 for d, u in zip(down, up))
        slot_total = tuple((u - d) // 2 for d, u in zip(down, up))
        bound = max(bound, _within_budget(max(*x_part, *slot_total), "preimage exponent bound"))
        block, pivots = build_block(slot_total), block_pivots(slot_total)
        if not pivots:
            continue
        square = [[block.columns[c].get(row, 0) for c, _ in pivots] for _, row in pivots]
        x = solve_unique(square, [component.get(row, 0) for _, row in pivots])
        assert x is not None, f"singular pivot system for slot total {slot_total}"
        top = _pack(x_part, 1) << (2 * width)
        solution.update((top | block.slots2[c], v) for (c, _), v in zip(pivots, x) if v)
    d = lcm(*[v.denominator for v in solution.values()])
    preimage = Cochain._reduced(n, {key: v.numerator * (d // v.denominator) for key, v in solution.items()}, d * target._den, bound)
    wrong = hochschild_delta(preimage) - target
    if not wrong.is_zero:
        raise CoboundaryError(min(decompose_by_bigrade(wrong)))
    return preimage
