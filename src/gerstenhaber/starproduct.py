"""Order-by-order star products on the plane.

A truncated deformation of the polynomial product is a list of arity-2
cochains ``p_1 .. p_N``; the deformed product is

    f * g = f g + sum_k t^k p_k(f, g),

and associativity through order N is equivalent to the coboundary equations
``delta p_k = B_k`` with ``B_k = 1/2 sum_{i+j=k} [p_i, p_j]``.  The solver
builds each ``B_k``, checks it is closed, and inverts the coboundary on the
finite bigrade blocks it touches: the coboundary preserves the bigrade, and
a fixed bigrade pins both the x-exponent and the total slot order, leaving
finitely many basis terms per arity.  The coboundary carries the x-exponent
through, so a block's matrix depends only on its slot total and is built
once per slot total from slot lists.  Block systems are solved by exact
rational elimination with free variables pinned to zero, so the output is a
deterministic function of the input (no cocycle is ever added).

Conventions: callers hand the solver a Poisson bivector ``pi1`` and the head
coefficient is ``p_1 = pi1 / 2``; all reported cochains are the ``p_k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Mapping, Optional

from .cochains import (
    ArityError,
    Cochain,
    DimensionMismatchError,
    Index,
    Polynomial,
    index_splits,
)
from .grading import SemigroupSpec, _bigrade, in_ideal, in_subalgebra
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


@dataclass(frozen=True)
class Deformation:
    """Truncated deformation: ``cochains[k-1]`` is the coefficient of t^k."""

    dimension: int
    cochains: tuple[Cochain, ...]

    def __post_init__(self):
        for c in self.cochains:
            if c.dimension != self.dimension:
                raise DimensionMismatchError("deformation cochain dimension mismatch")
            if not c.is_zero and c.arities() != (2,):
                raise ArityError("deformation cochains must have arity 2")

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


@dataclass(frozen=True)
class BlockSystem:
    """The coboundary from arity-2 to arity-3 slot lists of one slot total.

    The coboundary keeps a term's x-part, so every bigrade block with this
    slot total has this matrix.  ``matrix[r][c]`` is the coefficient of the
    arity-3 slot list in row ``r`` in the coboundary of ``slots2[c]``;
    entries are integers (structure constants).  ``row_of`` maps each
    arity-3 slot list to its row, in row order.
    """

    slot_total: Index
    slots2: tuple[tuple[Index, ...], ...]
    row_of: dict[tuple[Index, ...], int]
    matrix: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def build_block(slot_total: Index) -> BlockSystem:
    """The coboundary matrix on the sorted two- and three-slot splits of ``slot_total``."""
    if any(s < 0 for s in slot_total):
        raise ValueError(f"invalid slot total {slot_total}: entries must be nonnegative")
    n = len(slot_total)
    slots2 = tuple(sorted(pieces for pieces, _ in index_splits(slot_total, 2)))
    slots3 = sorted(pieces for pieces, _ in index_splits(slot_total, 3))
    row_of = {slots: r for r, slots in enumerate(slots3)}
    matrix = [[0] * len(slots2) for _ in slots3]
    for c, slots in enumerate(slots2):
        for image, coeff in _delta_term(n, slots):
            matrix[row_of[image]][c] = coeff
    return BlockSystem(slot_total, slots2, row_of, tuple(map(tuple, matrix)))


def solve_delta(target: Cochain) -> Cochain:
    """Exact preimage of an arity-3 cochain under the coboundary.

    Decomposes by bigrade and solves each block system; raises
    ``CoboundaryError`` naming the first offending block when some component
    is not a coboundary.  The returned preimage is the reduced-echelon
    particular solution in every block (free variables zero), making the
    result deterministic.
    """
    if target.is_zero:
        return Cochain.zero(target.dimension)
    if target.arities() != (3,):
        raise ArityError("solve_delta expects an arity-3 cochain")
    components: dict[tuple[Index, Index], dict] = {}
    for (x_part, slots), num in target._num.items():
        components.setdefault(_bigrade(x_part, slots), {})[slots] = num
    # Each block is solved on the integer numerators; the solution is over
    # the target's denominator times the lcm of the blocks' denominators.
    solution: dict[tuple, Fraction] = {}
    # Sorted, so CoboundaryError names the same first block on every run.
    for bigrade, component in sorted(components.items()):
        down, up = bigrade
        x_part = tuple((d + u) // 2 for d, u in zip(down, up))
        block = build_block(tuple((u - d) // 2 for d, u in zip(down, up)))
        rhs = [0] * len(block.row_of)
        for slots, num in component.items():
            rhs[block.row_of[slots]] = num
        x = solve_particular(block.matrix, rhs)
        if x is None:
            raise CoboundaryError(bigrade)
        # Blocks have distinct bigrades, so their basis terms never overlap.
        solution.update(((x_part, slots), v) for slots, v in zip(block.slots2, x) if v)
    d = lcm(*[v.denominator for v in solution.values()])
    num = {key: v.numerator * (d // v.denominator) for key, v in solution.items()}
    return Cochain._reduced(target.dimension, num, d * target._den)


def _max_slot_order(c: Cochain) -> int:
    return max((sum(s) for _, slots in c._num for s in slots), default=0)


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
    and ``SelfCheckError`` when one of the checks after each order fails.
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
        if not hochschild_delta(b_k).is_zero:
            raise SelfCheckError(f"order-{k} obstruction is not closed; bracket engine bug")
        p_k = solve_delta(b_k)
        if hochschild_delta(p_k) != b_k:
            raise SelfCheckError(f"order-{k} block solve failed verification")
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


def star_series(deformation: Deformation, fs: Mapping[int, Polynomial], gs: Mapping[int, Polynomial]) -> TSeries:
    """Star product of two truncated series, truncated at the deformation order."""
    n = deformation.dimension
    order = deformation.order
    out: dict[int, Polynomial] = {}
    for i, fi in fs.items():
        if fi.dimension != n:
            raise DimensionMismatchError("series coefficient dimension mismatch")
        for j, gj in gs.items():
            base = i + j
            if base > order:
                continue
            plain = fi * gj
            if not plain.is_zero:
                out[base] = out.get(base, Polynomial.zero(n)) + plain
            for k in range(1, order - base + 1):
                value = deformation.coefficient(k).apply([fi, gj])
                if not value.is_zero:
                    out[base + k] = out.get(base + k, Polynomial.zero(n)) + value
    return {k: v for k, v in sorted(out.items()) if not v.is_zero}


def associativity_defect(
    deformation: Deformation, f: Polynomial, g: Polynomial, h: Polynomial
) -> TSeries:
    """``(f * g) * h - f * (g * h)`` through the deformation order.

    Identically empty exactly when the deformation is associative to that
    order.
    """
    left = star_series(deformation, star_apply(deformation, f, g), {0: h})
    right = star_series(deformation, {0: f}, star_apply(deformation, g, h))
    n = deformation.dimension
    out: dict[int, Polynomial] = {}
    for k in set(left) | set(right):
        value = left.get(k, Polynomial.zero(n)) - right.get(k, Polynomial.zero(n))
        if not value.is_zero:
            out[k] = value
    return dict(sorted(out.items()))
