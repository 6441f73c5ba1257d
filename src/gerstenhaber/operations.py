"""Cup product, slot insertion, Gerstenhaber bracket, Hochschild coboundary.

The bracket is assembled from a single insertion primitive: substituting an
arity-q cochain into one slot of an arity-p cochain gives an arity-(p+q-1)
cochain, with the substituted slot's derivative expanded over the inserted
operator's x-part and slots by the generalized Leibniz rule.  The coboundary
is implemented twice on purpose: directly from its defining sum, and as
``-bracket(f, m)`` where ``m`` is the multiplication cochain; agreement of
the two code paths is one of the verified laws.

Insertion and coboundary structure constants are integers.  Each operation
turns its operands' coefficients into integer numerators over one common
denominator (``cochains._numerators``), adds ``numerator x structure
constant`` into a dict keyed on raw ``(x_part, slots)`` tuples, and builds
one ``BasisTerm`` and one reduced ``Fraction`` per nonzero output term
(``Cochain._over``).  Every term here is built from valid terms, so no
result is validated again.

Both operations carry the outer term's x-part through unchanged, so it stays
out of the cached kernels: ``_insert_term`` keys on the receiving slot and
the inserted term, ``_delta_term`` on a slot list, and callers add it back.
"""

from __future__ import annotations

from functools import lru_cache
from math import perm
from operator import gt
from typing import Iterator

from .cochains import (
    BasisTerm,
    Cochain,
    DimensionMismatchError,
    ArityError,
    Index,
    _numerators,
    index_add,
    index_splits,
    index_sub,
    leibniz_split,
    zero_index,
)

def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


def _check_dims(f: Cochain, g: Cochain) -> None:
    if f.dimension != g.dimension:
        raise DimensionMismatchError(
            f"cochain dimensions differ: {f.dimension} vs {g.dimension}"
        )


def multiplication_cochain(dimension: int) -> Cochain:
    """The 2-cochain sending a pair of polynomials to their product."""
    zero = zero_index(dimension)
    return Cochain.single(BasisTerm(dimension, zero, (zero, zero)))


def cup(f: Cochain, g: Cochain) -> Cochain:
    """Cup product: x-exponents add, slot lists concatenate.

    On arguments it evaluates the first factor on the leading slots and the
    second on the trailing slots, multiplying the results.
    """
    _check_dims(f, g)
    fs, d1 = _numerators(f._terms)
    gs, d2 = _numerators(g._terms)
    acc: dict[tuple, int] = {}
    for tf, cf in fs:
        for tg, cg in gs:
            key = (index_add(tf.x_part, tg.x_part), tf.slots + tg.slots)
            acc[key] = acc.get(key, 0) + cf * cg
    return Cochain._over(f.dimension, acc, d1 * d2)


@lru_cache(maxsize=200_000)
def _insert_term(a: Index, tg: BasisTerm) -> tuple[tuple[Index, tuple[Index, ...], int], ...]:
    """Apply ``d^a`` to the output of basis term ``tg``.

    The derivative distributes over ``tg``'s x-part and each of its slot
    outputs; the x-part absorbs part of it with falling-factorial
    coefficients.  Returns (what is left of ``tg``'s x-part, ``tg``'s
    differentiated slots, integer multiplicity) triples.  Only ``c0 <= b0``
    is subtracted, so every index stays nonnegative.
    """
    b0 = tg.x_part
    # Distinct splits give distinct triples, so nothing needs merging.
    out = []
    for pieces, mult in index_splits(a, tg.arity + 1):
        c0 = pieces[0]
        if any(map(gt, c0, b0)):
            continue
        fall = mult
        for b, c in zip(b0, c0):
            fall *= perm(b, c)
        out.append((index_sub(b0, c0), tuple(map(index_add, tg.slots, pieces[1:])), fall))
    return tuple(out)


def _inserted(tf: BasisTerm, k: int, tg: BasisTerm) -> Iterator[tuple[tuple, int]]:
    """``tg`` substituted into slot ``k`` (1-based) of ``tf``.

    Yields raw ``(x_part, slots)`` keys with integer structure constants.
    """
    head, tail = tf.slots[: k - 1], tf.slots[k:]
    for x_left, middle, mult in _insert_term(tf.slots[k - 1], tg):
        yield (index_add(tf.x_part, x_left), head + middle + tail), mult


def insert(f: Cochain, k: int, g: Cochain) -> Cochain:
    """Composition of ``f`` with ``g`` substituted into slot ``k`` (1-based).

    Requires arity-homogeneous operands with ``1 <= k <= arity(f)``.
    Inserting an arity-0 cochain substitutes its polynomial value and
    consumes the slot.
    """
    _check_dims(f, g)
    if f.is_zero or g.is_zero:
        return Cochain.zero(f.dimension)
    p = f.homogeneous_arity()
    g.homogeneous_arity()  # homogeneity check only; any arity is legal, including 0
    if p < 1:
        raise ArityError("insertion needs at least one slot in the outer cochain")
    if not 1 <= k <= p:
        raise ArityError(f"slot position {k} out of range 1..{p}")
    fs, d1 = _numerators(f._terms)
    gs, d2 = _numerators(g._terms)
    acc: dict[tuple, int] = {}
    for tf, cf in fs:
        for tg, cg in gs:
            scale = cf * cg
            for key, structure in _inserted(tf, k, tg):
                acc[key] = acc.get(key, 0) + scale * structure
    return Cochain._over(f.dimension, acc, d1 * d2)


def bracket(f: Cochain, g: Cochain) -> Cochain:
    """Gerstenhaber bracket, extended bilinearly over arity components.

    For arity-homogeneous ``f`` of arity p and ``g`` of arity q:

        [f, g] = sum_k (-1)^((k-1)(q-1)) f o_k g
                 - (-1)^((p-1)(q-1)) sum_k (-1)^((k-1)(p-1)) g o_k f
    """
    _check_dims(f, g)
    fs, d1 = _numerators(f._terms)
    gs, d2 = _numerators(g._terms)
    acc: dict[tuple, int] = {}
    for tf, cf in fs:
        for tg, cg in gs:
            p, q = tf.arity, tg.arity
            scale = cf * cg
            for k in range(1, p + 1):
                s = scale * _sign((k - 1) * (q - 1))
                for key, structure in _inserted(tf, k, tg):
                    acc[key] = acc.get(key, 0) + s * structure
            swap = -scale * _sign((p - 1) * (q - 1))
            for k in range(1, q + 1):
                s = swap * _sign((k - 1) * (p - 1))
                for key, structure in _inserted(tg, k, tf):
                    acc[key] = acc.get(key, 0) + s * structure
    return Cochain._over(f.dimension, acc, d1 * d2)


@lru_cache(maxsize=200_000)
def _delta_term(n: int, slots: tuple[Index, ...]) -> tuple[tuple[tuple[Index, ...], int], ...]:
    """Coboundary of a basis term with these slots, straight from the defining sum.

    The outer summands prepend and append an identity slot; the k-th inner
    summand splits slot k over two arguments with binomial coefficients and
    sign (-1)^k.  Every summand keeps the x-part, so this returns slot lists.
    """
    p = len(slots)
    zero = zero_index(n)
    acc: dict[tuple[Index, ...], int] = {}

    def add(image: tuple[Index, ...], c: int) -> None:
        acc[image] = acc.get(image, 0) + c

    add((zero,) + slots, 1)
    add(slots + (zero,), _sign(p + 1))
    for k in range(1, p + 1):
        sk = _sign(k)
        for b, rest, coeff in leibniz_split(slots[k - 1]):
            add(slots[: k - 1] + (b, rest) + slots[k:], sk * coeff)
    return tuple(item for item in acc.items() if item[1])


def hochschild_delta(f: Cochain) -> Cochain:
    """Hochschild coboundary, raising arity by one; linear in ``f``."""
    terms, d = _numerators(f._terms)
    acc: dict[tuple, int] = {}
    for t, c in terms:
        for slots, structure in _delta_term(f.dimension, t.slots):
            key = (t.x_part, slots)
            acc[key] = acc.get(key, 0) + c * structure
    return Cochain._over(f.dimension, acc, d)


def delta_via_bracket(f: Cochain) -> Cochain:
    """The coboundary as ``-[f, m]``; an independent route to hochschild_delta."""
    return -bracket(f, multiplication_cochain(f.dimension))
