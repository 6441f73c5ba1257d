"""Exact sparse model of polydifferential operators on polynomial algebras.

The coefficient field is the rationals (``fractions.Fraction``), so every
computation in this package is exact: ``==`` on two values decides equality
of the mathematical objects they represent.

Three layers:

* ``Polynomial`` -- sparse multivariate polynomial, exponent -> coefficient;
  the arity-0 cochains, ``C^0(A, A) = A``.
* ``BasisTerm``  -- one monomial operator ``x^(a0) d^(a1) (x) ... (x) d^(ap)``
  acting on ``p`` polynomial arguments (the ``slots``).
* ``Cochain``    -- finite rational combination of basis terms; the arity-p
  part is a p-multilinear map from polynomials to polynomials.

All three are immutable and hashable, and are stored in canonical form.
``Polynomial`` and ``Cochain`` share one store, ``_TermStore``: a dict from
raw keys to nonzero integer numerators, over one positive denominator
coprime to the numerators' gcd.  Equal values therefore have equal stores.
A raw key is one ``int`` that packs a term: fixed ``_WIDTH``-bit fields, high
to low, hold a sentinel 1, the x-part and slots 1..p, each index with its
first coordinate highest; a polynomial term is the arity-0 term with its
exponent.  The arity is read off ``bit_length()``, and integer order is the
canonical order (arity, then the x-exponent, then the slot list), so sorting
the keys sorts the terms.  ``items()`` lists the terms in that order with
reduced ``Fraction`` coefficients; it and ``coefficient()`` are the only
places that build index tuples and ``Fraction``s from the store.  The
printer in ``sexpr`` reads the keys' field groups and the numerators
directly.

Every exponent is at most ``EXPONENT_BUDGET``, the largest field value, so
no field carries into its neighbour.  The constructors and the document
reader refuse larger exponents, and each value carries an upper bound of
its exponents that every operation checks, in O(1), for its result before
packing a key; a refusal raises ``ExponentBudgetError``.

Validation happens at the input boundary only.  The public constructors
``Polynomial(...)``, ``BasisTerm(...)`` and ``Cochain(...)`` check the
dimension, index lengths, integer and nonnegative index entries, exact
coefficient types and term types and dimensions, and hand their terms to
``_integer_form``; the document reader in ``sexpr`` makes the same checks
once per distinct index and builds raw keys directly.  Both bring their
summed coefficients over one denominator with ``_over_lcm``.  The package's own
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
from itertools import chain, product as _cartesian
from math import factorial, gcd, lcm, perm, prod
from operator import add as _add
from struct import Struct
from typing import Iterable, Iterator, Mapping, Sequence, Union

Index = tuple[int, ...]
Scalar = Union[int, Fraction]

_ZERO = Fraction(0)

# Bits per exponent field of a packed cochain key; "H" below is a 16-bit field.
_WIDTH = 16
EXPONENT_BUDGET = (1 << _WIDTH) - 1


class DimensionMismatchError(ValueError):
    """Objects of different ambient dimension were combined."""


class ArityError(ValueError):
    """An operation's arity precondition was violated."""


class ExponentBudgetError(ValueError):
    """An exponent, given or possible in a result, exceeds ``EXPONENT_BUDGET``."""


def _within_budget(bound: int, what: str) -> int:
    """``bound``, refused when it exceeds the exponent budget."""
    if bound > EXPONENT_BUDGET:
        # An exponent read from a document may be too long for str().
        value = bound if bound.bit_length() <= 64 else f"of {bound.bit_length()} bits"
        raise ExponentBudgetError(f"{what} {value} exceeds the exponent budget of {EXPONENT_BUDGET}")
    return bound


@lru_cache(maxsize=None)
def _fields_struct(count: int) -> Struct:
    return Struct(f">{count}H")


class _Memo(dict):
    """``compute(key)`` for each key, computed at the key's first lookup."""

    __slots__ = ("compute",)

    def __init__(self, compute):
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


class _Record:
    """A value record: the constructor stores the fields named in ``_names``,
    in order, with ``_set``; ``==``, ``hash`` and ``repr`` read them, and
    assigning or deleting an attribute is refused.  Other attributes
    (``cached_property``) may live in ``__dict__`` too."""

    _names: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        self.__dict__.update(zip(self._names, values))

    def _values(self) -> tuple:
        return tuple(self.__dict__[name] for name in self._names)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = (f"{name}={value!r}" for name, value in zip(self._names, self._values()))
        return f"{type(self).__name__}({', '.join(shown)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _pack(fields: Iterable[int], key: int = 0) -> int:
    """``key`` followed by ``fields`` as ``_WIDTH``-bit fields, high to low; each within the budget."""
    for field in fields:
        key = key << _WIDTH | field
    return key


def _fields(key: int) -> tuple[int, ...]:
    """The fields of a packed key, high to low: the sentinel 1, the x-part, the slots."""
    count = (key.bit_length() + _WIDTH - 1) // _WIDTH
    return _fields_struct(count).unpack(key.to_bytes(count * _WIDTH // 8, "big"))


def _pack_term(indices: Sequence[Index]) -> int:
    """The packed key of the term with x-part ``indices[0]`` and slots ``indices[1:]``."""
    return _pack(chain.from_iterable(indices), 1)


def _indices(n: int, key: int) -> tuple[Index, ...]:
    """The x-part and the slots of a packed key, in dimension ``n``."""
    fields = iter(_fields(key))
    next(fields)  # the sentinel
    return tuple(zip(*[fields] * n))


def _unpack_index(n: int, packed: int) -> Index:
    """The index of ``n`` coordinates packed into one field group."""
    return _fields_struct(n).unpack(packed.to_bytes(n * _WIDTH // 8, "big"))


def zero_index(dimension: int) -> Index:
    return (0,) * dimension


def index_add(a: Index, b: Index) -> Index:
    return tuple(map(_add, a, b))


def _check_dimension(dimension: int) -> None:
    if not isinstance(dimension, int) or dimension < 1:
        raise DimensionMismatchError(f"dimension must be a positive integer, got {dimension!r}")


def _check_index(a: Sequence[int], dimension: int) -> Index:
    a = tuple(a)
    if len(a) != dimension:
        raise DimensionMismatchError(f"index {a} has length {len(a)}, expected {dimension}")
    for entry in a:
        if not isinstance(entry, int):
            raise ValueError(f"index entries must be integers, got {entry!r}")
        if entry < 0:
            raise ValueError(f"exponent index must be nonnegative, got {a}")
    return a


def _product(f, g, acc: dict[int, int]) -> dict[int, int]:
    """``acc`` plus the product of two ``(polynomial key, int)`` term lists; ``g``'s
    keys come without their sentinel, so adding keys adds exponents."""
    for k1, c1 in f:
        for k2, c2 in g:
            k = k1 + k2
            acc[k] = acc.get(k, 0) + c1 * c2
    return acc


def _derivatives(u: Polynomial) -> _Memo:
    """The derivative table of ``u``: packed order ``a`` -> ``d^a u`` as ``(key
    without sentinel, integer numerator)`` pairs over ``u``'s denominator, made
    at the order's first lookup; ``u``'s keys are unpacked once, here."""
    n = u.dimension
    mask = (1 << _WIDTH * n) - 1
    terms = [(k & mask, _unpack_index(n, k & mask), c) for k, c in u._num.items()]

    def derive(a: int) -> list:
        orders = _unpack_index(n, a)
        out = []
        for key, expo, c in terms:
            for e, order in zip(expo, orders):
                if e < order:
                    break
                c *= perm(e, order)
            else:
                out.append((key - a, c))
        return out

    return _Memo(derive)


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficients must be exact rationals, got {type(value).__name__}")


def _integer_form(pairs) -> tuple[dict, int, int]:
    """The reduced form of ``(indices, int or Fraction)`` pairs of checked
    nonnegative indices, and the largest exponent in them.

    Each term is packed as it comes, refused past the exponent budget.
    Duplicate keys are summed, then brought over one denominator by
    ``_over_lcm``.  The public constructors build their values here.
    """
    acc: dict = {}
    bound = 0
    for indices, value in pairs:
        top = max(map(max, indices))
        if top > bound:
            bound = _within_budget(top, "exponent")
        key = _pack_term(indices)
        acc[key] = value if (old := acc.get(key)) is None else old + value
    return *_over_lcm(acc), bound


def _over_lcm(acc: dict) -> tuple[dict, int]:
    """Integer numerators of ``key -> int or Fraction`` over the lcm of the
    reduced denominators, zeros dropped; the numerators share no factor with it.
    A zero's denominator is 1, so it leaves the lcm alone."""
    d = lcm(*{c.denominator for c in acc.values()})
    return {k: m for k, c in acc.items() if (m := c.numerator * (d // c.denominator))}, d


class _TermStore:
    """Sparse "key -> exact coefficient" store shared by Polynomial and Cochain.

    A value is ``_num``, a dict from raw keys to nonzero integer numerators,
    over one denominator ``_den``.  A raw key is the packed int of a term;
    a ``Polynomial`` term is packed as the arity-0 term with its exponent.
    The store is always reduced: ``_den >= 1`` and ``_den`` is coprime to
    the gcd of the numerators, so each value has exactly one form, ``==``
    compares dicts and equal values hash alike.  ``_bound`` is at least
    every exponent in the keys, within the exponent budget.

    Operations read and write this form directly.  The public constructor
    validates every key and coefficient; ``_reduced`` takes integer
    numerators keyed on raw keys built from valid keys, drops zeros and
    divides out common factors; ``_raw`` takes a form that is already
    reduced.  Keys, ``Fraction`` coefficients and the canonical term order
    are built only where a value is looked at: ``items()``,
    ``coefficient()`` and printing.
    """

    __slots__ = ("dimension", "_num", "_den", "_bound")

    def __init__(self, dimension: int, terms=()):
        _check_dimension(dimension)
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        self._set(dimension, *_integer_form((self._checked_indices(t, dimension), _as_fraction(c)) for t, c in pairs))

    def _set(self, dimension: int, num: dict, d: int, bound: int) -> None:
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", d)
        object.__setattr__(self, "_bound", bound)

    @classmethod
    def _raw(cls, dimension: int, num: dict, d: int, bound: int):
        """The value ``num[k] / d`` of a reduced form with no zero numerator and
        no exponent above ``bound``; nothing is checked."""
        self = object.__new__(cls)
        self._set(dimension, num, d, bound)
        return self

    @classmethod
    def _reduced(cls, dimension: int, num: dict, d: int, bound: int):
        """The value ``num[k] / d`` for raw keys built from valid keys, with no
        exponent above ``bound``, and ``d >= 1``.

        Zero numerators are dropped and the common factor of ``d`` and the
        numerators is divided out.
        """
        num = {k: c for k, c in num.items() if c}
        if d != 1:
            g = gcd(d, *num.values())
            if g != 1:
                d //= g
                num = {k: c // g for k, c in num.items()}
        return cls._raw(dimension, num, d, bound)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, dimension: int):
        return cls(dimension)

    def items(self) -> Iterator[tuple]:
        """``(key, Fraction)`` pairs in canonical order; one ``Fraction`` per distinct numerator."""
        key, n, num, d = self._key, self.dimension, self._num, self._den
        fractions = _Memo(lambda m: Fraction(m, d))
        for k in sorted(num):
            yield key(n, k), fractions[num[k]]

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
        return self._reduced(self.dimension, acc, d, max(self._bound, other._bound))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._raw(self.dimension, {k: -c for k, c in self._num.items()}, self._den, self._bound)

    def __mul__(self, scalar):
        s = _as_fraction(scalar)
        a = s.numerator
        num = {k: c * a for k, c in self._num.items()}
        return self._reduced(self.dimension, num, self._den * s.denominator, self._bound)

    def __rmul__(self, scalar):
        return self.__mul__(scalar)


class Polynomial(_TermStore):
    """Sparse polynomial over the rationals in ``dimension`` variables.

    Terms map exponent tuples to nonzero coefficients, stored as arity-0
    cochain terms; the zero polynomial stores no terms.  Instances are immutable.
    """

    __slots__ = ()
    _key = staticmethod(lambda dimension, key: _indices(dimension, key)[0])

    @staticmethod
    def _raw_key(expo, dimension: int):
        """The key of the exponent ``expo``, or None where no term can have it."""
        expo = tuple(expo)
        if len(expo) == dimension and all(isinstance(e, int) and 0 <= e <= EXPONENT_BUDGET for e in expo):
            return _pack_term((expo,))

    _checked_indices = staticmethod(lambda expo, dimension: (_check_index(expo, dimension),))

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
        bound = _within_budget(self._bound + other._bound, "product result exponent bound")
        sentinel = 1 << _WIDTH * self.dimension
        product = _product(self._num.items(), [(k ^ sentinel, c) for k, c in other._num.items()], {})
        return Polynomial._reduced(self.dimension, product, self._den * other._den, bound)

    def derive(self, a: Sequence[int]) -> Polynomial:
        """Apply the mixed partial derivative ``d^a = d1^(a1) ... dn^(an)``."""
        n = self.dimension
        a = _check_index(a, n)
        if max(a) > EXPONENT_BUDGET:  # past every exponent
            return Polynomial.zero(n)
        sentinel = 1 << _WIDTH * n
        return Polynomial._reduced(n, {k | sentinel: c for k, c in _derivatives(self)[_pack(a)]}, self._den, self._bound)

    def __repr__(self):
        if not self._num:
            return "0"
        parts = []
        for e, c in self.items():
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
        self._set(dimension, _check_index(x_part, dimension), tuple(_check_index(s, dimension) for s in slots))

    def _set(self, dimension: int, x_part: Index, slots: tuple[Index, ...]) -> None:
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "x_part", x_part)
        object.__setattr__(self, "slots", slots)

    @classmethod
    def _trusted(cls, dimension: int, x_part: Index, slots: tuple[Index, ...]) -> BasisTerm:
        """A term from indices derived from valid terms' indices; nothing is checked."""
        self = object.__new__(cls)
        self._set(dimension, x_part, slots)
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

    @staticmethod
    def _key(dimension: int, key: int) -> BasisTerm:
        x_part, *slots = _indices(dimension, key)
        return BasisTerm._trusted(dimension, x_part, tuple(slots))

    @staticmethod
    def _raw_key(term: BasisTerm, dimension: int):
        """The packed key of ``term``, or None where no term of this cochain can equal it."""
        if not isinstance(term, BasisTerm) or term.dimension != dimension:
            return None
        indices = (term.x_part, *term.slots)
        return _pack_term(indices) if max(map(max, indices)) <= EXPONENT_BUDGET else None

    @staticmethod
    def _checked_indices(term: BasisTerm, dimension: int) -> tuple[Index, ...]:
        if not isinstance(term, BasisTerm):
            raise TypeError(f"cochain terms must be BasisTerm, got {type(term).__name__}")
        if term.dimension != dimension:
            raise DimensionMismatchError(
                f"term dimension {term.dimension} does not match cochain dimension {dimension}"
            )
        return (term.x_part, *term.slots)

    @classmethod
    def single(cls, term: BasisTerm, coeff: Scalar = 1) -> Cochain:
        return cls(term.dimension, {term: coeff})

    def arities(self) -> tuple[int, ...]:
        width = _WIDTH * self.dimension
        return tuple(sorted({k.bit_length() // width - 1 for k in self._num}))

    def homogeneous_arity(self) -> int:
        """Arity of an arity-homogeneous nonzero cochain."""
        arities = self.arities()
        if len(arities) != 1:
            raise ArityError(f"cochain is not arity-homogeneous (arities {arities})")
        return arities[0]

    def components_by_arity(self) -> dict[int, Cochain]:
        width = _WIDTH * self.dimension
        buckets: dict[int, dict] = {}
        for key, c in self._num.items():
            buckets.setdefault(key.bit_length() // width - 1, {})[key] = c
        n, d, bound = self.dimension, self._den, self._bound
        return {p: Cochain._reduced(n, part, d, bound) for p, part in sorted(buckets.items())}

    def apply(self, args: Sequence[Polynomial]) -> Polynomial:
        """Evaluate on a tuple of polynomials, one per slot.

        Every term must have arity ``len(args)``; the zero cochain accepts
        any argument count.  This cochain's exponent bound plus the arguments'
        must be within the budget, a conservative check: derivatives lower exponents.
        Each argument gets a fresh ``_derivatives`` table, and ``_apply`` evaluates.
        """
        for u in args:
            if not isinstance(u, Polynomial):
                raise TypeError("apply expects Polynomial arguments")
            if u.dimension != self.dimension:
                raise DimensionMismatchError(
                    f"argument dimension {u.dimension} does not match cochain dimension {self.dimension}"
                )
        p = len(args)
        for arity in self.arities():
            if arity != p:
                raise ArityError(f"term of arity {arity} applied to {p} arguments")
        return self._apply(args, [_derivatives(u) for u in args])

    def _apply(self, args: Sequence[Polynomial], tables: Sequence[_Memo]) -> Polynomial:
        """``apply`` given each argument's ``_derivatives`` table; only the bound is checked.
        Over the product of the denominators, each group of terms with equal slots
        1..p-1 sums ``c x^a d^(s_p) u_p`` (the x-part shifts keys), then multiplies
        that sum by ``d^(s_1) u_1 ... d^(s_(p-1)) u_(p-1)`` once."""
        bound = _within_budget(self._bound + sum(u._bound for u in args), "apply result exponent bound")
        d = prod((u._den for u in args), start=self._den)
        p = len(args)
        if not p:
            return Polynomial._reduced(self.dimension, self._num, d, bound)
        width = _WIDTH * self.dimension
        mask, lead_mask = (1 << width) - 1, (1 << width * (p - 1)) - 1  # one slot, slots 1..p-1
        groups: dict[int, dict[int, int]] = {}
        for key, coeff in self._num.items():
            acc = groups.setdefault(key >> width & lead_mask, {})
            x = key >> width * p  # the sentinel and the x-part: a polynomial key
            for k, c in tables[-1][key & mask]:
                acc[k + x] = acc.get(k + x, 0) + coeff * c
        if p == 1:  # one group, no product
            return Polynomial._reduced(self.dimension, groups.get(0, {}), d, bound)
        total: dict[int, int] = {}
        shifts = range(width * (p - 2), 0, -width)  # of slots 1..p-2 in a group key
        for lead, acc in groups.items():
            value = [(k, c) for k, c in acc.items() if c]
            for shift, table in zip(shifts, tables):
                value = _product(value, table[lead >> shift & mask], {}).items()
            _product(value, tables[p - 2][lead & mask], total)
        return Polynomial._reduced(self.dimension, total, d, bound)

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
def index_splits(n: int, a: int, parts: int) -> tuple[tuple[int, int], ...]:
    """Ordered splits of the packed index ``a`` of dimension ``n`` into
    ``parts`` pieces, each split packed into one slot block, with coefficients.

    Each pair is ``(block, coeff)``: the pieces ``b_1, ..., b_parts`` sum to
    ``a`` componentwise and fill ``parts`` consecutive slot fields, ``b_1``
    highest, so adding the block to a block of ``parts`` slots shifts each
    slot by its piece.  ``coeff`` is the product over coordinates of the
    multinomial ``a_i! / (b_1_i! ... b_parts_i!)``: this is the expansion rule
    for a mixed partial of a ``parts``-fold product.  Splits come in the order
    of the coordinates' compositions, the first coordinate outermost.
    """
    totals = _unpack_index(n, a)
    top = prod(map(factorial, totals))  # divided by a split's entry factorials: the multinomials' product
    return tuple(
        (_pack(chain.from_iterable(zip(*combo))), top // prod(map(factorial, chain.from_iterable(combo))))
        for combo in _cartesian(*[_int_compositions(total, parts) for total in totals])
    )


def leibniz_split(a: Sequence[int]) -> tuple[tuple[Index, Index, int], ...]:
    """All two-piece splits of ``a`` with binomial coefficients.

    ``d^a(u v) = sum coeff * (d^b u)(d^(a-b) v)`` over the returned triples
    ``(b, a - b, coeff)``.  ``a`` must have nonnegative integer entries within
    the exponent budget.
    """
    n = len(a)
    a = _check_index(a, n)
    _within_budget(max(a, default=0), "exponent")
    width = _WIDTH * n
    return tuple(
        (_unpack_index(n, block >> width), _unpack_index(n, block & (1 << width) - 1), coeff)
        for block, coeff in index_splits(n, _pack(a), 2)
    )
