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
``numerator x structure constant`` into a dict keyed on packed term keys
(see ``cochains``), and hands that dict and the product of the operands'
denominators to ``Cochain._reduced``; no ``BasisTerm`` or ``Fraction`` is
built per term.  Every term here is built from valid terms, so no result is
validated again.  Each operation first checks, in O(1), that its operands'
exponent bounds keep every field of its result within the exponent budget.

A packed key holds fixed-width fields, so term surgery is integer
arithmetic: with ``width`` bits per index, the slots after slot ``k`` of an
arity-p key are its low ``width * (p - k)`` bits, slot ``k`` the next
``width`` bits, and the sentinel, x-part and earlier slots the rest.  Adding
two field groups adds their indices.  Each operation splits its operands'
keys once per call.

Both operations carry the outer term's x-part through unchanged, so it stays
out of the cached kernels: ``_insert_term`` keys on the receiving slot and
the inserted term's x-part and slot block, ``_delta_term`` on a slot block,
and callers add the x-part back, once per group of terms that share it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as _cartesian
from math import comb, perm

from .cochains import (
    _WIDTH,
    BasisTerm,
    Cochain,
    ArityError,
    _pack,
    _unpack_index,
    _within_budget,
    index_splits,
    zero_index,
)

def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


def multiplication_cochain(dimension: int) -> Cochain:
    """The 2-cochain sending a pair of polynomials to their product."""
    zero = zero_index(dimension)
    return Cochain.single(BasisTerm(dimension, zero, (zero, zero)))


def _split_terms(c: Cochain, width: int) -> list[tuple]:
    """``(key, arity, x-part, slot block, numerator)`` of each term, x-part and
    slot block packed; ``width`` is the bits of one index."""
    out = []
    for key, num in c._num.items():
        low = key.bit_length() - width - 1  # bits of the slot block
        out.append((key, low // width, (key >> low) ^ (1 << width), key & ((1 << low) - 1), num))
    return out


def _result_bound(f: Cochain, g: Cochain, what: str) -> int:
    return _within_budget(f._bound + g._bound, f"{what} result exponent bound")


def cup(f: Cochain, g: Cochain) -> Cochain:
    """Cup product: x-exponents add, slot lists concatenate.

    On arguments it evaluates the first factor on the leading slots and the
    second on the trailing slots, multiplying the results.
    """
    f._check_same_dimension(g)
    bound = _result_bound(f, g, "cup")
    width = _WIDTH * f.dimension
    gs = [(width * q, xg, sg, cg) for _, q, xg, sg, cg in _split_terms(g, width)]
    acc: dict[int, int] = {}
    for kf, cf in f._num.items():
        x_low = kf.bit_length() - 1 - width  # the lowest bit of f's x-part
        for gslots, xg, sg, cg in gs:
            key = (kf << gslots) + (xg << (x_low + gslots)) | sg
            acc[key] = acc.get(key, 0) + cf * cg
    return Cochain._reduced(f.dimension, acc, f._den * g._den, bound)


@lru_cache(maxsize=200_000)
def _insert_term(n: int, a: int, b0: int, slots: int, q: int) -> tuple[tuple[int, tuple], ...]:
    """Apply ``d^a`` to the output of the basis term ``x^b0 d^s1 (x) ... (x) d^sq``.

    Indices are packed in dimension ``n``; ``slots`` is the block of the q
    slots.  The derivative distributes over the x-part and each slot output.
    The x-part's share ``c0`` runs over the box ``0 <= c0 <= min(a, b0)``
    with coefficient ``binom(a, c0) perm(b0, c0)``, and only ``a - c0`` is
    split among the slots, so every split enumerated contributes.  Returns
    ``(x_left, ((differentiated slot block, integer multiplicity), ...))``
    with one group per ``x_left = b0 - c0``.
    """
    a_index, b_index = _unpack_index(n, a), _unpack_index(n, b0)
    out = []
    for c0 in _cartesian(*[range(min(ai, bi) + 1) for ai, bi in zip(a_index, b_index)]):
        packed_c0 = _pack(c0)
        splits = index_splits(n, a - packed_c0, q)
        if not splits:
            continue  # an arity-0 term takes no derivative beyond its x-part
        scale = 1
        for ai, bi, ci in zip(a_index, b_index, c0):
            scale *= comb(ai, ci) * perm(bi, ci)
        # Distinct splits give distinct slot blocks, so nothing needs merging.
        middles = tuple((slots + pieces, scale * mult) for pieces, mult in splits)
        out.append((b0 - packed_c0, middles))
    return tuple(out)


def _add_inserted(acc: dict, n: int, width: int, kf: int, p: int, k: int, g_term: tuple, scale: int) -> None:
    """Add ``scale`` times the term ``g_term`` (as ``_split_terms`` gives it)
    substituted into slot ``k`` (1-based) of the arity-p key ``kf`` into ``acc``."""
    _, q, xg, sg, _ = g_term
    low = width * (p - k)  # bits of the slots after slot k
    tail = kf & ((1 << low) - 1)
    # The sentinel, f's x-part and the slots before k, moved up past g's slots.
    head = (kf >> (low + width)) << (low + width * q)
    x_shift = width * (p + q - 1)
    for x_left, middles in _insert_term(n, (kf >> low) & ((1 << width) - 1), xg, sg, q):
        base = head + (x_left << x_shift) | tail
        for middle, mult in middles:
            key = base | middle << low
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
    bound = _result_bound(f, g, "insertion")
    n = f.dimension
    width = _WIDTH * n
    gs = _split_terms(g, width)
    acc: dict[int, int] = {}
    for kf, cf in f._num.items():
        for tg in gs:
            _add_inserted(acc, n, width, kf, p, k, tg, cf * tg[4])
    return Cochain._reduced(n, acc, f._den * g._den, bound)


def bracket(f: Cochain, g: Cochain) -> Cochain:
    """Gerstenhaber bracket, extended bilinearly over arity components.

    For arity-homogeneous ``f`` of arity p and ``g`` of arity q:

        [f, g] = sum_k (-1)^((k-1)(q-1)) f o_k g
                 - (-1)^((p-1)(q-1)) sum_k (-1)^((k-1)(p-1)) g o_k f
    """
    f._check_same_dimension(g)
    bound = _result_bound(f, g, "bracket")
    n = f.dimension
    width = _WIDTH * n
    gs = _split_terms(g, width)
    acc: dict[int, int] = {}
    for tf in _split_terms(f, width):
        kf, p, _, _, cf = tf
        for tg in gs:
            kg, q, _, _, cg = tg
            scale = cf * cg
            for k in range(1, p + 1):
                _add_inserted(acc, n, width, kf, p, k, tg, scale * _sign((k - 1) * (q - 1)))
            swap = -scale * _sign((p - 1) * (q - 1))
            for k in range(1, q + 1):
                _add_inserted(acc, n, width, kg, q, k, tf, swap * _sign((k - 1) * (p - 1)))
    return Cochain._reduced(n, acc, f._den * g._den, bound)


@lru_cache(maxsize=200_000)
def _delta_term(n: int, slots: int, p: int) -> tuple[tuple[int, int], ...]:
    """Coboundary of a basis term whose p slots pack into ``slots``, from the defining sum.

    The outer summands prepend and append an identity slot; the k-th inner
    summand splits slot k over two arguments with binomial coefficients and
    sign (-1)^k.  Every summand keeps the x-part, so this returns packed
    blocks of p + 1 slots.
    """
    width = _WIDTH * n
    acc: dict[int, int] = {}

    def add(image: int, c: int) -> None:
        acc[image] = acc.get(image, 0) + c

    add(slots, 1)  # a zero slot prepended: the block is unchanged below it
    add(slots << width, _sign(p + 1))
    for k in range(1, p + 1):
        sk = _sign(k)
        low = width * (p - k)
        head = (slots >> (low + width)) << (low + 2 * width)
        tail = slots & ((1 << low) - 1)
        for pieces, coeff in index_splits(n, (slots >> low) & ((1 << width) - 1), 2):
            add(head | pieces << low | tail, sk * coeff)
    return tuple(item for item in acc.items() if item[1])


def hochschild_delta(f: Cochain) -> Cochain:
    """Hochschild coboundary, raising arity by one; linear in ``f``."""
    n = f.dimension
    width = _WIDTH * n
    acc: dict[int, int] = {}
    for key, c in f._num.items():
        low = key.bit_length() - width - 1  # bits of the slot block
        top = (key >> low) << (low + width)  # the sentinel and x-part, past one more slot
        for image, structure in _delta_term(n, key & ((1 << low) - 1), low // width):
            image |= top
            acc[image] = acc.get(image, 0) + c * structure
    return Cochain._reduced(n, acc, f._den, f._bound)


def delta_via_bracket(f: Cochain) -> Cochain:
    """The coboundary as ``-[f, m]``; an independent route to hochschild_delta."""
    return -bracket(f, multiplication_cochain(f.dimension))
