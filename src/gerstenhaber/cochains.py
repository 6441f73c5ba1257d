"""Exact sparse model of polydifferential operators on polynomial algebras.

The coefficient field is the rationals (``fractions.Fraction``), so every
computation in this package is exact: ``==`` on two values decides equality
of the mathematical objects they represent.

Three layers:

* ``Polynomial`` -- sparse multivariate polynomial, exponent tuple -> coefficient.
* ``BasisTerm``  -- one monomial operator ``x^(a0) d^(a1) (x) ... (x) d^(ap)``
  acting on ``p`` polynomial arguments (the ``slots``).
* ``Cochain``    -- finite rational combination of basis terms; the arity-p
  part is a p-multilinear map from polynomials to polynomials.

All three are immutable and hashable, and are stored in canonical form.
``Polynomial`` and ``Cochain`` share one store, ``_TermStore``: a dict from
raw keys (an exponent tuple; an ``(x_part, slots)`` pair) to nonzero integer
numerators, over one positive denominator coprime to the numerators' gcd.
Equal values therefore have equal stores.  ``items()`` lists the terms in the
canonical order (arity, then the x-exponent, then the slot list) with
reduced ``Fraction`` coefficients; it, ``coefficient()`` and printing are the
only places that build ``BasisTerm``s and ``Fraction``s from the store.

Validation happens at the input boundary only.  The public constructors
``Polynomial(...)``, ``BasisTerm(...)`` and ``Cochain(...)`` check the
dimension, index lengths, integer and nonnegative index entries, exact
coefficient types and term types and dimensions.  The package's own
operations -- ``Polynomial.__mul__``, ``Cochain.apply``, the arithmetic
operators, the cochain operations in ``operations`` and the decompositions
in ``grading`` -- add integer numerators keyed on raw keys and build their
results with ``_TermStore._reduced``, which skips those checks.  They take
only keys derived from valid keys -- sums of nonnegative indices,
differences that cannot go negative, concatenated slot lists -- so their
results satisfy the same invariant.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product as _cartesian
from math import factorial, gcd, lcm, perm
from operator import add as _add, sub as _sub
from typing import Iterable, Iterator, Mapping, Sequence, Union

Index = tuple[int, ...]
Scalar = Union[int, Fraction]

_ZERO = Fraction(0)


class DimensionMismatchError(ValueError):
    """Objects of different ambient dimension were combined."""


class ArityError(ValueError):
    """An operation's arity precondition was violated."""


def zero_index(dimension: int) -> Index:
    return (0,) * dimension


def index_add(a: Index, b: Index) -> Index:
    return tuple(map(_add, a, b))


def index_sub(a: Index, b: Index) -> Index:
    return tuple(map(_sub, a, b))


def _check_dimension(dimension: int) -> None:
    if not isinstance(dimension, int) or dimension < 1:
        raise DimensionMismatchError(f"dimension must be a positive integer, got {dimension!r}")


def _check_index(a: Sequence[int], dimension: int, *, nonnegative: bool) -> Index:
    a = tuple(a)
    if len(a) != dimension:
        raise DimensionMismatchError(f"index {a} has length {len(a)}, expected {dimension}")
    for entry in a:
        if not isinstance(entry, int):
            raise ValueError(f"index entries must be integers, got {entry!r}")
        if nonnegative and entry < 0:
            raise ValueError(f"exponent index must be nonnegative, got {a}")
    return a


def _product(f, g) -> dict[Index, int]:
    """The product of two ``(exponent, int)`` term lists, summed per exponent."""
    acc: dict[Index, int] = {}
    for e1, c1 in f:
        for e2, c2 in g:
            e = index_add(e1, e2)
            acc[e] = acc.get(e, 0) + c1 * c2
    return acc


def _derive_terms(terms, a: Index) -> list:
    """``d^a`` of ``(exponent, integer numerator)`` pairs."""
    out = []
    for e, c in terms:
        factor = 1
        for ei, ai in zip(e, a):
            if ei < ai:
                break
            factor *= perm(ei, ai)
        else:
            out.append((index_sub(e, a), c * factor))
    return out


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficients must be exact rationals, got {type(value).__name__}")


class _TermStore:
    """Sparse "key -> exact coefficient" store shared by Polynomial and Cochain.

    A value is ``_num``, a dict from raw keys to nonzero integer numerators,
    over one denominator ``_den``.  A raw key is the exponent tuple of a
    ``Polynomial`` term and the ``(x_part, slots)`` pair of a ``Cochain``
    term.  The store is always reduced: ``_den >= 1`` and ``_den`` is coprime
    to the gcd of the numerators, so each value has exactly one form, ``==``
    compares dicts and equal values hash alike.

    Operations read and write this form directly.  The public constructor
    validates every key and coefficient; ``_reduced`` takes integer
    numerators keyed on raw keys built from valid keys, drops zeros and
    divides out common factors; ``_raw`` takes a form that is already
    reduced.  Keys, ``Fraction`` coefficients and the canonical term order
    are built only where a value is looked at: ``items()``,
    ``coefficient()`` and printing.
    """

    __slots__ = ("dimension", "_num", "_den")
    _order = None  # sort key of raw keys in canonical order; None: the raw key itself

    def __init__(self, dimension: int, terms=()):
        _check_dimension(dimension)
        acc: dict = {}
        for key, coeff in terms.items() if isinstance(terms, Mapping) else terms:
            key = self._check_key(key, dimension)
            value = _as_fraction(coeff)
            acc[key] = value if (old := acc.get(key)) is None else old + value
        acc = {k: c for k, c in acc.items() if c}
        # Over the lcm of reduced denominators the numerators share no factor with it.
        d = lcm(*[c.denominator for c in acc.values()])
        self._set(dimension, {k: c.numerator * (d // c.denominator) for k, c in acc.items()}, d)

    def _set(self, dimension: int, num: dict, d: int) -> None:
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", d)

    @classmethod
    def _raw(cls, dimension: int, num: dict, d: int):
        """The value ``num[k] / d`` of a reduced form with no zero numerator; nothing is checked."""
        self = object.__new__(cls)
        self._set(dimension, num, d)
        return self

    @classmethod
    def _reduced(cls, dimension: int, num: dict, d: int):
        """The value ``num[k] / d`` for raw keys built from valid keys and ``d >= 1``.

        Zero numerators are dropped and the common factor of ``d`` and the
        numerators is divided out.
        """
        num = {k: c for k, c in num.items() if c}
        if d != 1:
            g = gcd(d, *num.values())
            if g != 1:
                d //= g
                num = {k: c // g for k, c in num.items()}
        return cls._raw(dimension, num, d)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, dimension: int):
        return cls(dimension)

    def _sorted_items(self) -> list[tuple]:
        """``(raw key, Fraction)`` pairs in canonical order."""
        num, d = self._num, self._den
        return [(k, Fraction(num[k], d)) for k in sorted(num, key=self._order)]

    def items(self) -> Iterator[tuple]:
        """``(key, Fraction)`` pairs in canonical order."""
        key, n = self._key, self.dimension
        return ((key(n, k), c) for k, c in self._sorted_items())

    def coefficient(self, key) -> Fraction:
        c = self._num.get(self._raw_key(key, self.dimension))
        return _ZERO if c is None else Fraction(c, self._den)

    @property
    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.dimension == other.dimension
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self):
        return hash((self.dimension, self._den, frozenset(self._num.items())))

    def _check_same_dimension(self, other: _TermStore) -> None:
        if self.dimension != other.dimension:
            raise DimensionMismatchError(
                f"{type(self).__name__.lower()} dimensions differ: {self.dimension} vs {other.dimension}"
            )

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check_same_dimension(other)
        d1, d2 = self._den, other._den
        d = lcm(d1, d2)
        s1, s2 = d // d1, d // d2
        acc = dict(self._num) if s1 == 1 else {k: c * s1 for k, c in self._num.items()}
        for k, c in other._num.items():
            acc[k] = acc.get(k, 0) + c * s2
        return self._reduced(self.dimension, acc, d)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._raw(self.dimension, {k: -c for k, c in self._num.items()}, self._den)

    def __mul__(self, scalar):
        s = _as_fraction(scalar)
        a = s.numerator
        return self._reduced(self.dimension, {k: c * a for k, c in self._num.items()}, self._den * s.denominator)

    def __rmul__(self, scalar):
        return self.__mul__(scalar)


class Polynomial(_TermStore):
    """Sparse polynomial over the rationals in ``dimension`` variables.

    Terms map exponent tuples to nonzero coefficients; the zero polynomial
    stores no terms.  Instances are immutable.
    """

    __slots__ = ()
    _key = staticmethod(lambda dimension, expo: expo)
    _raw_key = staticmethod(lambda expo, dimension: tuple(expo))

    @staticmethod
    def _check_key(expo: Sequence[int], dimension: int) -> Index:
        return _check_index(expo, dimension, nonnegative=True)

    @classmethod
    def constant(cls, dimension: int, value: Scalar) -> Polynomial:
        return cls(dimension, {zero_index(dimension): value})

    @classmethod
    def variable(cls, dimension: int, i: int) -> Polynomial:
        """The coordinate polynomial ``x_i`` (1-based index)."""
        if not 1 <= i <= dimension:
            raise ValueError(f"variable index {i} out of range 1..{dimension}")
        expo = [0] * dimension
        expo[i - 1] = 1
        return cls(dimension, {tuple(expo): 1})

    @classmethod
    def monomial(cls, dimension: int, expo: Sequence[int], coeff: Scalar = 1) -> Polynomial:
        return cls(dimension, {tuple(expo): coeff})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return super().__mul__(other)
        self._check_same_dimension(other)
        product = _product(self._num.items(), other._num.items())
        return Polynomial._reduced(self.dimension, product, self._den * other._den)

    def derive(self, a: Sequence[int]) -> Polynomial:
        """Apply the mixed partial derivative ``d^a = d1^(a1) ... dn^(an)``."""
        a = _check_index(a, self.dimension, nonnegative=True)
        return Polynomial._reduced(self.dimension, dict(_derive_terms(self._num.items(), a)), self._den)

    def __repr__(self):
        if not self._num:
            return "0"
        parts = []
        for e, c in self._sorted_items():
            factors = [f"x{i + 1}^{p}" if p > 1 else f"x{i + 1}" for i, p in enumerate(e) if p]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return " + ".join(parts)


class BasisTerm:
    """One monomial polydifferential operator ``x^(x_part) d^(s1) (x) ... (x) d^(sp)``.

    ``slots`` may be empty (an arity-0 operator is a monomial of the algebra
    itself) and may contain the zero multi-index: a ``d^0`` slot acts as the
    identity on its argument, and is distinct from the slot being absent.
    """

    __slots__ = ("dimension", "x_part", "slots")

    def __init__(self, dimension: int, x_part: Sequence[int], slots: Iterable[Sequence[int]] = ()):
        _check_dimension(dimension)
        x_part = _check_index(x_part, dimension, nonnegative=True)
        slots = tuple(_check_index(s, dimension, nonnegative=True) for s in slots)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "x_part", x_part)
        object.__setattr__(self, "slots", slots)

    @classmethod
    def _trusted(cls, dimension: int, x_part: Index, slots: tuple[Index, ...]) -> BasisTerm:
        """A term from indices derived from valid terms' indices; nothing is checked."""
        self = object.__new__(cls)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "x_part", x_part)
        object.__setattr__(self, "slots", slots)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("BasisTerm is immutable")

    @property
    def arity(self) -> int:
        return len(self.slots)

    @property
    def sort_key(self):
        return (len(self.slots), self.x_part, self.slots)

    def __eq__(self, other):
        return (
            isinstance(other, BasisTerm)
            and self.dimension == other.dimension
            and self.x_part == other.x_part
            and self.slots == other.slots
        )

    def __hash__(self):
        return hash((self.dimension, self.x_part, self.slots))

    def __repr__(self):
        factors = []
        if any(self.x_part):
            factors.append(f"x^{self.x_part}")
        factors.extend(f"d^{s}" for s in self.slots)
        return "(x)".join(factors) if factors else "1"


class Cochain(_TermStore):
    """Finite rational combination of basis terms, kept in canonical form.

    Construction merges duplicate terms, drops zero coefficients and orders
    terms deterministically, so ``==`` decides mathematical equality.
    """

    __slots__ = ()
    # The canonical order is BasisTerm.sort_key: (arity, x_part, slots).
    _order = staticmethod(lambda raw: (len(raw[1]), raw))
    _key = staticmethod(lambda dimension, raw: BasisTerm._trusted(dimension, *raw))
    _raw_key = staticmethod(
        lambda term, dimension: (term.x_part, term.slots)
        if isinstance(term, BasisTerm) and term.dimension == dimension
        else None
    )

    @staticmethod
    def _check_key(term: BasisTerm, dimension: int) -> tuple[Index, tuple[Index, ...]]:
        if not isinstance(term, BasisTerm):
            raise TypeError(f"cochain terms must be BasisTerm, got {type(term).__name__}")
        if term.dimension != dimension:
            raise DimensionMismatchError(
                f"term dimension {term.dimension} does not match cochain dimension {dimension}"
            )
        return term.x_part, term.slots

    @classmethod
    def single(cls, term: BasisTerm, coeff: Scalar = 1) -> Cochain:
        return cls(term.dimension, {term: coeff})

    def arities(self) -> tuple[int, ...]:
        return tuple(sorted({len(slots) for _, slots in self._num}))

    def homogeneous_arity(self) -> int:
        """Arity of an arity-homogeneous nonzero cochain."""
        arities = self.arities()
        if len(arities) != 1:
            raise ArityError(f"cochain is not arity-homogeneous (arities {arities})")
        return arities[0]

    def components_by_arity(self) -> dict[int, Cochain]:
        buckets: dict[int, dict] = {}
        for key, c in self._num.items():
            buckets.setdefault(len(key[1]), {})[key] = c
        return {p: Cochain._reduced(self.dimension, part, self._den) for p, part in sorted(buckets.items())}

    def apply(self, args: Sequence[Polynomial]) -> Polynomial:
        """Evaluate on a tuple of polynomials, one per slot.

        Every term must have arity ``len(args)``; the zero cochain accepts
        any argument count.
        """
        for u in args:
            if not isinstance(u, Polynomial):
                raise TypeError("apply expects Polynomial arguments")
            if u.dimension != self.dimension:
                raise DimensionMismatchError(
                    f"argument dimension {u.dimension} does not match cochain dimension {self.dimension}"
                )
        p = len(args)
        for _, slots in self._num:
            if len(slots) != p:
                raise ArityError(f"term of arity {len(slots)} applied to {p} arguments")
        # Integer numerators throughout, over the product of the denominators.
        d = self._den
        numerators = []
        for u in args:
            numerators.append(list(u._num.items()))
            d *= u._den
        derived: list[dict] = [{} for _ in args]  # per argument: slot -> its derivative
        acc: dict[Index, int] = {}
        for (x_part, slots), coeff in self._num.items():
            value = {x_part: coeff}
            for slot, num, cache in zip(slots, numerators, derived):
                du = cache.get(slot)
                if du is None:
                    du = cache[slot] = _derive_terms(num, slot)
                value = _product(value.items(), du)
            for e, c in value.items():
                acc[e] = acc.get(e, 0) + c
        return Polynomial._reduced(self.dimension, acc, d)

    def __repr__(self):
        if not self._num:
            return "0"
        return " + ".join(repr(t) if c == 1 else f"{c}*{t!r}" for t, c in self.items())


@lru_cache(maxsize=None)
def _int_compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """Ordered compositions of ``total`` into ``parts`` nonnegative integers."""
    if parts == 0:
        return ((),) if total == 0 else ()
    if parts == 1:
        return ((total,),)
    out = []
    for first in range(total + 1):
        for rest in _int_compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def index_splits(a: Index, parts: int) -> tuple[tuple[tuple[Index, ...], int], ...]:
    """Ordered splits of a multi-index into ``parts`` pieces, with coefficients.

    Yields every tuple ``(b_1, ..., b_parts)`` of multi-indices summing to
    ``a`` componentwise, paired with the product over coordinates of the
    multinomial coefficient ``a_i! / (b_1_i! ... b_parts_i!)``.  This is the
    expansion rule for a mixed partial of a ``parts``-fold product.
    """
    n = len(a)
    if parts == 0:
        return (((), 1),) if not any(a) else ()
    per_dim = [_int_compositions(a[i], parts) for i in range(n)]
    out = []
    for combo in _cartesian(*per_dim):
        pieces = tuple(tuple(combo[i][j] for i in range(n)) for j in range(parts))
        coeff = 1
        for i in range(n):
            c = factorial(a[i])
            for v in combo[i]:
                c //= factorial(v)
            coeff *= c
        out.append((pieces, coeff))
    return tuple(out)


def leibniz_split(a: Sequence[int]) -> tuple[tuple[Index, Index, int], ...]:
    """All two-piece splits of ``a`` with binomial coefficients.

    ``d^a(u v) = sum coeff * (d^b u)(d^(a-b) v)`` over the returned triples
    ``(b, a - b, coeff)``.
    """
    a = tuple(a)
    return tuple((pieces[0], pieces[1], coeff) for pieces, coeff in index_splits(a, 2))
