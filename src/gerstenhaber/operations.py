"""Cup product, slot insertion, Gerstenhaber bracket, Hochschild coboundary.

The bracket is assembled from a single insertion primitive: substituting an
arity-q cochain into one slot of an arity-p cochain gives an arity-(p+q-1)
cochain, with the substituted slot's derivative expanded over the inserted
operator's x-part and slots by the generalized Leibniz rule.  The coboundary
is implemented twice on purpose: directly from its defining sum, and as
``-bracket(f, m)`` where ``m`` is the multiplication cochain; agreement of
the two code paths is one of the verified laws.

Insertion and coboundary structure constants are integers.  Each operation
reads its operands' integer numerators straight from the store, adds
``numerator x structure constant`` into a dict keyed on raw ``(x_part,
slots)`` tuples, and hands that dict and the product of the operands'
denominators to ``Cochain._reduced``; no ``BasisTerm`` or ``Fraction`` is
built per term.  Every term here is built from valid terms, so no result is
validated again.

Both operations carry the outer term's x-part through unchanged, so it stays
out of the cached kernels: ``_insert_term`` keys on the receiving slot and
the inserted term's x-part and slots, ``_delta_term`` on a slot list, and
callers add the x-part back, once per group of terms that share it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as _cartesian
from math import comb, perm

from .cochains import (
    BasisTerm,
    Cochain,
    ArityError,
    Index,
    index_add,
    index_splits,
    index_sub,
    leibniz_split,
    zero_index,
)

def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


def multiplication_cochain(dimension: int) -> Cochain:
    """The 2-cochain sending a pair of polynomials to their product."""
    zero = zero_index(dimension)
    return Cochain.single(BasisTerm(dimension, zero, (zero, zero)))


def cup(f: Cochain, g: Cochain) -> Cochain:
    """Cup product: x-exponents add, slot lists concatenate.

    On arguments it evaluates the first factor on the leading slots and the
    second on the trailing slots, multiplying the results.
    """
    f._check_same_dimension(g)
    gs = g._num.items()
    acc: dict[tuple, int] = {}
    for (xf, sf), cf in f._num.items():
        for (xg, sg), cg in gs:
            key = (index_add(xf, xg), sf + sg)
            acc[key] = acc.get(key, 0) + cf * cg
    return Cochain._reduced(f.dimension, acc, f._den * g._den)


@lru_cache(maxsize=200_000)
def _insert_term(a: Index, b0: Index, slots: tuple[Index, ...]) -> tuple[tuple[Index, tuple], ...]:
    """Apply ``d^a`` to the output of the basis term ``x^b0 d^s1 (x) ... (x) d^sq``.

    The derivative distributes over the x-part and each slot output.  The
    x-part's share ``c0`` runs over the box ``0 <= c0 <= min(a, b0)`` with
    coefficient ``binom(a, c0) perm(b0, c0)``, and only ``a - c0`` is split
    among the slots, so every split enumerated contributes.  Returns
    ``(x_left, ((differentiated slots, integer multiplicity), ...))`` with
    one group per ``x_left = b0 - c0``.
    """
    out = []
    for c0 in _cartesian(*[range(min(ai, bi) + 1) for ai, bi in zip(a, b0)]):
        rest = index_sub(a, c0)
        splits = index_splits(rest, len(slots))
        if not splits:
            continue  # an arity-0 term takes no derivative beyond its x-part
        scale = 1
        for ai, bi, ci in zip(a, b0, c0):
            scale *= comb(ai, ci) * perm(bi, ci)
        # Distinct splits give distinct slot lists, so nothing needs merging.
        middles = tuple((tuple(map(index_add, slots, pieces)), scale * mult) for pieces, mult in splits)
        out.append((index_sub(b0, c0), middles))
    return tuple(out)


def _add_inserted(acc: dict, f_key: tuple, k: int, g_key: tuple, scale: int) -> None:
    """Add ``scale`` times the term ``g_key`` substituted into slot ``k`` (1-based)
    of the term ``f_key`` into ``acc``, keyed on raw ``(x_part, slots)`` pairs."""
    xf, sf = f_key
    head, tail = sf[: k - 1], sf[k:]
    for x_left, middles in _insert_term(sf[k - 1], *g_key):
        x = index_add(xf, x_left)
        for middle, mult in middles:
            key = (x, head + middle + tail)
            acc[key] = acc.get(key, 0) + scale * mult


def insert(f: Cochain, k: int, g: Cochain) -> Cochain:
    """Composition of ``f`` with ``g`` substituted into slot ``k`` (1-based).

    Requires arity-homogeneous operands with ``1 <= k <= arity(f)``.
    Inserting an arity-0 cochain substitutes its polynomial value and
    consumes the slot.
    """
    f._check_same_dimension(g)
    if f.is_zero or g.is_zero:
        return Cochain.zero(f.dimension)
    p = f.homogeneous_arity()
    g.homogeneous_arity()  # homogeneity check only; any arity is legal, including 0
    if p < 1:
        raise ArityError("insertion needs at least one slot in the outer cochain")
    if not 1 <= k <= p:
        raise ArityError(f"slot position {k} out of range 1..{p}")
    gs = g._num.items()
    acc: dict[tuple, int] = {}
    for tf, cf in f._num.items():
        for tg, cg in gs:
            _add_inserted(acc, tf, k, tg, cf * cg)
    return Cochain._reduced(f.dimension, acc, f._den * g._den)


def bracket(f: Cochain, g: Cochain) -> Cochain:
    """Gerstenhaber bracket, extended bilinearly over arity components.

    For arity-homogeneous ``f`` of arity p and ``g`` of arity q:

        [f, g] = sum_k (-1)^((k-1)(q-1)) f o_k g
                 - (-1)^((p-1)(q-1)) sum_k (-1)^((k-1)(p-1)) g o_k f
    """
    f._check_same_dimension(g)
    gs = g._num.items()
    acc: dict[tuple, int] = {}
    for tf, cf in f._num.items():
        p = len(tf[1])
        for tg, cg in gs:
            q = len(tg[1])
            scale = cf * cg
            for k in range(1, p + 1):
                _add_inserted(acc, tf, k, tg, scale * _sign((k - 1) * (q - 1)))
            swap = -scale * _sign((p - 1) * (q - 1))
            for k in range(1, q + 1):
                _add_inserted(acc, tg, k, tf, swap * _sign((k - 1) * (p - 1)))
    return Cochain._reduced(f.dimension, acc, f._den * g._den)


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
    acc: dict[tuple, int] = {}
    for (x_part, slots), c in f._num.items():
        for image, structure in _delta_term(f.dimension, slots):
            key = (x_part, image)
            acc[key] = acc.get(key, 0) + c * structure
    return Cochain._reduced(f.dimension, acc, f._den)


def delta_via_bracket(f: Cochain) -> Cochain:
    """The coboundary as ``-[f, m]``; an independent route to hochschild_delta."""
    return -bracket(f, multiplication_cochain(f.dimension))
