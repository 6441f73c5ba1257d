"""Order-by-order star products on the plane.

A truncated deformation of the polynomial product is a list of arity-2
cochains ``p_1 .. p_N``; the deformed product is

    f * g = f g + sum_k t^k p_k(f, g),

and associativity through order N is equivalent to the coboundary equations
``delta p_k = B_k`` with ``B_k = 1/2 sum_{i+j=k} [p_i, p_j]``.  The solver
builds each ``B_k`` and inverts the coboundary on the finite bigrade blocks
it touches: the coboundary preserves the bigrade, and a fixed bigrade pins
both the x-exponent and the total slot order, leaving finitely many basis
terms per arity.  The coboundary carries the x-exponent through, so a
block's sparse columns depend only on its slot total.  Each block's sparse
rows are reduced exactly, free variables pinned to zero, so the output is a
deterministic function of the input (no cocycle is ever added); one
coboundary checks it.

Conventions: callers hand the solver a Poisson bivector ``pi1`` and the head
coefficient is ``p_1 = pi1 / 2``; all reported cochains are the ``p_k``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Mapping, Optional

from .cochains import (
    _WIDTH,
    ArityError,
    Cochain,
    DimensionMismatchError,
    Index,
    Polynomial,
    _Memo,
    _Record,
    _derivatives,
    _fields,
    _pack,
    _within_budget,
    index_splits,
)
from .grading import SemigroupSpec, _buckets, in_ideal, in_subalgebra
from .linsolve import solve_particular
from .operations import _delta_term, bracket, hochschild_delta

HALF = Fraction(1, 2)


class CoboundaryError(Exception):
    """A 3-cochain block is not in the image of the coboundary."""

    def __init__(self, bigrade):
        super().__init__(f"no preimage under the coboundary in bigrade block {bigrade}")
        self.bigrade = bigrade


class SlotOrderCapError(RuntimeError):
    """An obstruction term exceeded the configured slot-order growth cap."""


class SelfCheckError(AssertionError):
    """One of the solver's own checks failed at some order: an engine bug."""


class Deformation(_Record):
    """Truncated deformation: ``cochains[k-1]`` is the coefficient of t^k."""

    _names = ("dimension", "cochains")

    def __init__(self, dimension: int, cochains: tuple[Cochain, ...]):
        for c in cochains:
            if c.dimension != dimension:
                raise DimensionMismatchError("deformation cochain dimension mismatch")
            if not c.is_zero and c.arities() != (2,):
                raise ArityError("deformation cochains must have arity 2")
        self._set(dimension, cochains)

    @property
    def order(self) -> int:
        return len(self.cochains)

    def coefficient(self, k: int) -> Cochain:
        if not 1 <= k <= self.order:
            raise ValueError(f"order {k} out of range 1..{self.order}")
        return self.cochains[k - 1]


def obstruction(deformation: Deformation, k: int) -> Cochain:
    """The arity-3 term ``1/2 sum_{i+j=k, i,j>=1} [p_i, p_j]``.

    The bracket is symmetric on arity-2 cochains, so this is computed as
    ``sum_{i<j} [p_i, p_j] + 1/2 [p_(k/2), p_(k/2)]``, one bracket per pair.
    Needs ``p_1 .. p_(k-1)``; well-defined for ``k`` up to order + 1.
    """
    if k < 1:
        raise ValueError("order must be at least 1")
    if k - 1 > deformation.order:
        raise ValueError(
            f"obstruction at order {k} needs cochains up to order {k - 1}, "
            f"deformation stops at {deformation.order}"
        )
    total = Cochain.zero(deformation.dimension)
    for i in range(1, (k + 1) // 2):
        total = total + bracket(deformation.coefficient(i), deformation.coefficient(k - i))
    if k % 2 == 0:
        middle = deformation.coefficient(k // 2)
        total = total + bracket(middle, middle) * HALF
    return total


class BlockSystem(_Record):
    """The coboundary from arity-2 to arity-3 slot lists of one slot total.

    The coboundary keeps a term's x-part, so every bigrade block with this
    slot total has these columns.  Slot lists are packed slot blocks (see
    ``cochains``), whose integer order is the order of the lists and is the
    row order.  ``columns[c]`` is the coboundary of ``slots2[c]``: integer
    coefficients (structure constants) keyed by arity-3 slot list.
    """

    _names = ("slots2", "columns")

    def __init__(self, slots2: tuple[int, ...], columns: tuple[dict[int, int], ...]):
        self._set(slots2, columns)


@lru_cache(maxsize=None)
def build_block(slot_total: Index) -> BlockSystem:
    """The sparse coboundary columns of the sorted two-slot splits of ``slot_total``."""
    if any(s < 0 for s in slot_total):
        raise ValueError(f"invalid slot total {slot_total}: entries must be nonnegative")
    n = len(slot_total)
    slots2 = tuple(sorted(pieces for pieces, _ in index_splits(n, _pack(slot_total), 2)))
    columns = tuple(dict(_delta_term(n, slots, 2)) for slots in slots2)
    return BlockSystem(slots2, columns)


def solve_delta(target: Cochain) -> Cochain:
    """Exact preimage of an arity-3 cochain under the coboundary.

    Reduces each bigrade block's sparse rows, the ``build_block`` columns
    transposed, in decreasing row order (increasing order takes many times
    the reduction steps), and takes the reduced-echelon particular solution,
    free variables zero, so the result is deterministic.  An inconsistent
    block gets no terms.  Raises ``CoboundaryError`` naming the first block
    where the preimage's coboundary misses the target.
    """
    if target.is_zero:
        return Cochain.zero(target.dimension)
    if target.arities() != (3,):
        raise ArityError("solve_delta expects an arity-3 cochain")
    n = target.dimension
    width = _WIDTH * n
    slots3, num = (1 << 3 * width) - 1, target._num
    # Each block is solved on the integer numerators; the solution is over
    # the target's denominator times the lcm of the blocks' denominators.
    solution: dict[int, Fraction] = {}
    bound = 0
    for (down, up), keys in _buckets(target, True).items():
        component = {key & slots3: num[key] for key in keys}
        x_part = tuple((d + u) // 2 for d, u in zip(down, up))
        slot_total = tuple((u - d) // 2 for d, u in zip(down, up))
        # A preimage's slots split the slot total, so its exponents are at most these.
        bound = max(bound, _within_budget(max(*x_part, *slot_total), "preimage exponent bound"))
        block = build_block(slot_total)
        rows: dict[int, list[tuple[int, int]]] = {}
        for c, column in enumerate(block.columns):
            for key, v in column.items():
                rows.setdefault(key, []).append((c, v))
        keys = sorted(rows, reverse=True)
        x = solve_particular([rows[key] for key in keys], [component.get(key, 0) for key in keys], len(block.columns))
        if x is None:
            continue  # inconsistent: the check below names the first such block
        top = _pack(x_part, 1) << (2 * width)  # the sentinel and x-part of an arity-2 key
        # Blocks have distinct bigrades, so their basis terms never overlap.
        solution.update((top | slots, v) for slots, v in zip(block.slots2, x) if v)
    d = lcm(*[v.denominator for v in solution.values()])
    num = {key: v.numerator * (d // v.denominator) for key, v in solution.items()}
    preimage = Cochain._reduced(n, num, d * target._den, bound)
    # The coboundary keeps bigrades, so only a block with no preimage differs.
    wrong = hochschild_delta(preimage) - target
    if not wrong.is_zero:
        raise CoboundaryError(_first_bigrade(wrong))
    return preimage


def _first_bigrade(c: Cochain) -> tuple[Index, Index]:
    """The smallest bigrade of the terms of a nonzero cochain."""
    return next(iter(_buckets(c, True)))


def _max_slot_order(c: Cochain) -> int:
    """The largest total order of one slot over the terms of ``c``."""
    n = c.dimension
    return max(
        (sum(fields[i : i + n]) for fields in map(_fields, c._num) for i in range(1 + n, len(fields), n)),
        default=0,
    )


def solve_maurer_cartan(
    pi1: Cochain,
    order: int,
    delta_spec: Optional[SemigroupSpec] = None,
    slot_order_cap: int = 64,
) -> Deformation:
    """Extend a Poisson bivector on the plane to a star product of given order.

    ``pi1`` must be an arity-2 cochain in dimension 2 whose half is closed
    (automatic for antisymmetric first-order bivectors).  Each higher
    coefficient solves ``delta p_k = B_k``; when ``delta_spec`` is given,
    ``pi1`` must lie in its weight subalgebra and every higher coefficient is
    verified to lie in the 2-fold ideal. Raises ``SlotOrderCapError`` instead
    of silently truncating when obstruction terms outgrow ``slot_order_cap``,
    and ``SelfCheckError`` when a block solve or the ideal check fails.
    """
    if pi1.dimension != 2:
        raise DimensionMismatchError(
            "the coboundary-inversion guarantee is specific to dimension 2"
        )
    if order < 1:
        raise ValueError("order must be at least 1")
    if not pi1.is_zero and pi1.arities() != (2,):
        raise ArityError("the Poisson bivector must have arity 2")
    p1 = pi1 * HALF
    if not hochschild_delta(p1).is_zero:
        raise ValueError("the bivector is not a cocycle: delta(pi1/2) != 0")
    if delta_spec is not None:
        decision = in_subalgebra(pi1, delta_spec)
        if not decision.is_yes:
            raise ValueError(
                f"pi1 is not in the weight subalgebra of {delta_spec.generators}: {decision.status}"
            )
    cochains = [p1]
    partial = Deformation(dimension=2, cochains=(p1,))
    for k in range(2, order + 1):
        b_k = obstruction(partial, k)
        if _max_slot_order(b_k) > slot_order_cap:
            raise SlotOrderCapError(
                f"slot order of the order-{k} obstruction exceeds cap {slot_order_cap}"
            )
        try:
            p_k = solve_delta(b_k)
        except CoboundaryError as err:
            # In dimension 2 every closed 3-cochain is exact, so either way this is an engine bug.
            closure = hochschild_delta(b_k)
            if closure.is_zero:
                raise SelfCheckError(f"order-{k} block solve failed verification in bigrade block {err.bigrade}") from err
            block = _first_bigrade(closure)
            raise SelfCheckError(f"order-{k} obstruction is not closed in bigrade block {block}; bracket engine bug") from err
        if delta_spec is not None and not b_k.is_zero:
            decision = in_ideal(p_k, delta_spec, fold=2)
            if not decision.is_yes:
                raise SelfCheckError(
                    f"order-{k} coefficient escaped the 2-fold ideal: {decision.status}"
                )
        cochains.append(p_k)
        partial = Deformation(dimension=2, cochains=tuple(cochains))
    return partial


TSeries = dict[int, Polynomial]


def star_apply(deformation: Deformation, f: Polynomial, g: Polynomial) -> TSeries:
    """The deformed product of two polynomials, by power of the parameter.

    Order 0 is the plain product; order k is ``p_k(f, g)``; zero coefficients
    are dropped.
    """
    return star_series(deformation, {0: f}, {0: g})


def _check_operands(n: int, **series: Mapping[int, Polynomial]) -> None:
    """Refuse a series coefficient whose dimension is not ``n``, naming its operand."""
    for name, coefficients in series.items():
        for u in coefficients.values():
            if u.dimension != n:
                raise DimensionMismatchError(f"operand {name} dimension {u.dimension} does not match deformation dimension {n}")


def star_series(deformation: Deformation, fs: Mapping[int, Polynomial], gs: Mapping[int, Polynomial]) -> TSeries:
    """Star product of two truncated series, truncated at the deformation order.

    Both series must have the deformation's dimension.  Each distinct coefficient
    gets one derivative table per call, keyed by value and shared by every ``k``
    and pair: ``Cochain._apply`` evaluates each ``p_k(f_i, g_j)`` with them.
    """
    n = deformation.dimension
    _check_operands(n, f=fs, g=gs)
    order = deformation.order
    tables = _Memo(_derivatives)
    zero = Polynomial.zero(n)
    out: dict[int, Polynomial] = {}
    for i, fi in fs.items():
        for j, gj in gs.items():
            base = i + j
            if base > order:
                continue
            out[base] = out.get(base, zero) + fi * gj
            pair, pair_tables = [fi, gj], [tables[fi], tables[gj]]
            for k in range(1, order - base + 1):
                out[base + k] = out.get(base + k, zero) + deformation.coefficient(k)._apply(pair, pair_tables)
    return {k: v for k, v in sorted(out.items()) if not v.is_zero}


def associativity_defect(
    deformation: Deformation, f: Polynomial, g: Polynomial, h: Polynomial
) -> TSeries:
    """``(f * g) * h - f * (g * h)`` through the deformation order.

    Identically empty exactly when the deformation is associative to that
    order.
    """
    _check_operands(deformation.dimension, f={0: f}, g={0: g}, h={0: h})
    left = star_series(deformation, star_apply(deformation, f, g), {0: h})
    right = star_series(deformation, {0: f}, star_apply(deformation, g, h))
    zero = Polynomial.zero(deformation.dimension)
    defect = {k: left.get(k, zero) - right.get(k, zero) for k in sorted(set(left) | set(right))}
    return {k: v for k, v in defect.items() if not v.is_zero}
