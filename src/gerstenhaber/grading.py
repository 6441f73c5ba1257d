"""Weight and bigrade decompositions, semigroup subalgebras, involutions, filtration.

Bracketing with the commuting vector fields ``x_i d_i`` scales a basis term
by the integer vector ``x_part - sum(slots)``; that vector is the term's
*weight*, and the *bigrade* pairs it with ``x_part + sum(slots)``.  Direct
sums of weight spaces over an additive semigroup of weights are closed under
the cup product, the bracket and the coboundary, which is what the
membership, projection, ideal, involution and filtration operations in this
module compute with.

Semigroup membership in Z^n is decided by an exhaustive bounded search with
certificates.  The answer is three-valued: a negative is only reported when
the search space is provably exhausted, which happens exactly when the
origin is outside the convex hull of the generators (then any representation
has a certified length bound, read off the hull's exact minimum-norm point,
which Wolfe's nearest-point algorithm finds).  Otherwise a search that hits
the cap reports ``inconclusive`` rather than guessing.

The grading works once per distinct value, not once per term.  ``_buckets``
groups the terms of a cochain by weight or bigrade; a term's slot sum is one
remainder of its packed key, while the exponent bound rules out a carry, and
each distinct field group is spread and each distinct grade read back once
per call.  The report groups, ``weights_of``, the filtration, the subalgebra
tests and the star-product solver's block split all read it.  The distinct
weights of a cochain share one breadth-first membership search, whose length
limits are integer dot products.  The parity involution signs a term by the
low bits of its selected fields, with no grade built at all.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from operator import mul
from struct import Struct
from typing import Iterable, Optional, Sequence

from .cochains import (
    _WIDTH,
    EXPONENT_BUDGET,
    BasisTerm,
    Cochain,
    DimensionMismatchError,
    Index,
    _fields_struct,
    _Memo,
    _Record,
    _pack,
    index_add,
    zero_index,
)
from .linsolve import solve_unique

YES = "yes"
NO = "no"
INCONCLUSIVE = "inconclusive"


class InconclusiveMembershipError(Exception):
    """A definite semigroup decision was required but the search cap bound."""


def weight_of(term: BasisTerm) -> Index:
    """x-exponent minus the sum of slot orders, an integer vector."""
    return tuple(x - sum(s) for x, *s in zip(term.x_part, *term.slots))


def bigrade_of(term: BasisTerm) -> tuple[Index, Index]:
    """The pair (x_part - sum(slots), x_part + sum(slots))."""
    return weight_of(term), tuple(x + sum(s) for x, *s in zip(term.x_part, *term.slots))


@lru_cache(maxsize=None)
def _spread_layout(n: int) -> tuple[Struct, Struct, int]:
    """The unsigned and the signed 64-bit fields of a spread grade in
    dimension ``n``, and 2^63 in each field."""
    wide = Struct(f">{n}Q")
    return wide, Struct(f">{n}q"), int.from_bytes(wide.pack(*[1 << 63] * n), "big")


def _buckets(c: Cochain, bigrade: bool) -> dict[tuple, list[int]]:
    """Each weight, or bigrade, of the terms of ``c``, increasing: a dict from
    the grade to the packed keys of its terms in canonical order.

    Terms are bucketed by grades in spread form: one int with a signed
    64-bit field per coordinate, high to low, so a sum of field groups is a
    sum of ints and integer order is the order of the grade tuples.  A term
    reads two spread ints, its x-part ``x`` and ``up``, the x-part plus the
    slot sum; its weight is ``x + x - up``, and its bigrade is coded as the
    weight shifted above ``up``, which is nonnegative.

    As ``2**width`` is 1 modulo ``mask = 2**width - 1``, a packed key modulo
    ``mask`` is the sum of its field groups: ``1 + up`` for the sentinel 1,
    added field by field.  That is exact when every field sum stays below
    ``EXPONENT_BUDGET``, which ``(arity + 1) * _bound + 1`` below it
    guarantees for every term, so ``up`` then takes one big-int remainder.
    Otherwise each slot is spread and summed.  Each distinct x-part and
    ``up`` (or slot) is spread, and each distinct grade read back as a
    tuple, once per call.
    """
    if c.is_zero:  # its dimension may be too large to lay out
        return {}
    n = c.dimension
    width = _WIDTH * n
    mask, narrow, (wide, signed, half) = (1 << width) - 1, _fields_struct(n), _spread_layout(n)
    spread = _Memo(lambda group: int.from_bytes(wide.pack(*narrow.unpack(group.to_bytes(width // 8, "big"))), "big"))
    arity = (max(c._num).bit_length() - 1) // width - 1  # the largest
    cast_out = (arity + 1) * c._bound + 1 < EXPONENT_BUDGET
    high = 64 * n  # a bigrade's code: its weight above its up, which is nonnegative
    buckets: dict = {}
    for key in sorted(c._num):
        shift = key.bit_length() - 1 - width
        x = spread[key >> shift & mask]
        if cast_out:
            up = spread[key % mask - 1]
        else:
            up = x + sum(spread[key >> at & mask] for at in range(0, shift, width))
        code = (x + x - up) << high | up if bigrade else x + x - up
        buckets.setdefault(code, []).append(key)
    # Plus 2^63 in every field, each signed field reads as a nonnegative one;
    # flipping each field's top bit then leaves its 64-bit two's complement.
    grade = _Memo(lambda code: signed.unpack(((code + half) ^ half).to_bytes(8 * n, "big")))
    if bigrade:
        below = (1 << high) - 1
        return {(grade[code >> high], grade[code & below]): found for code, found in sorted(buckets.items())}
    return {grade[code]: found for code, found in sorted(buckets.items())}


def weights_of(c: Cochain) -> set[Index]:
    """The set of weights of the terms of ``c``."""
    return set(_buckets(c, False))


def weight_groups(c: Cochain) -> list[tuple[Index, list[int]]]:
    """``decompose_by_weight`` as each weight's packed term keys in ``c``, for printing."""
    return list(_buckets(c, False).items())


def bigrade_groups(c: Cochain) -> list[tuple[tuple[Index, Index], list[int]]]:
    """``decompose_by_bigrade`` as each bigrade's packed term keys in ``c``, for printing."""
    return list(_buckets(c, True).items())


def _decompose(c: Cochain, bigrade: bool) -> dict:
    n, num, d, bound = c.dimension, c._num, c._den, c._bound
    buckets = _buckets(c, bigrade)
    return {g: Cochain._reduced(n, {k: num[k] for k in keys}, d, bound) for g, keys in buckets.items()}


def decompose_by_weight(c: Cochain) -> dict[Index, Cochain]:
    return _decompose(c, False)


def decompose_by_bigrade(c: Cochain) -> dict[tuple[Index, Index], Cochain]:
    return _decompose(c, True)


def scaling_field(dimension: int, i: int) -> Cochain:
    """The vector field ``x_i d_i`` whose brackets read off weights (1-based i)."""
    _check_indices((i,), dimension)
    e = tuple(1 if j == i - 1 else 0 for j in range(dimension))
    return Cochain.single(BasisTerm(dimension, e, (e,)))


# ---------------------------------------------------------------------------
# Finitely generated additive semigroups of Z^n
# ---------------------------------------------------------------------------


def _check_vector(v: Sequence[int], dimension: int, what: str) -> Index:
    """``v`` as a tuple, refused unless it is ``dimension`` integers."""
    v = tuple(v)
    if len(v) != dimension:
        raise DimensionMismatchError(f"{what} {v} has length {len(v)}, expected {dimension}")
    if not all(isinstance(entry, int) for entry in v):
        raise ValueError(f"{what} {v} must have integer entries")
    return v


class SemigroupSpec(_Record):
    """Additive subsemigroup of Z^n given by generators.

    Membership means a nonempty nonnegative integer combination of the
    generators; the zero vector belongs only if the generators can cancel.
    ``search_cap`` bounds the total number of generator uses the membership
    search will try.  The generators, integer vectors, are kept sorted and
    without repeats.  The lattice basis and the convex hull's minimum-norm
    point depend only on the generators; each is computed on first use, the
    point by ``_min_norm_hull_point``, and kept on the spec.
    """

    _names = ("dimension", "generators", "search_cap")

    def __init__(self, dimension: int, generators: Iterable[Sequence[int]], search_cap: int = 32):
        if dimension < 1:
            raise DimensionMismatchError("dimension must be positive")
        gens = [_check_vector(g, dimension, "generator") for g in generators]
        if not isinstance(search_cap, int):
            raise ValueError(f"search_cap {search_cap} must be an integer")
        if search_cap < 1:
            raise ValueError("search_cap must be positive")
        self._set(dimension, tuple(sorted(set(gens))), search_cap)

    @cached_property
    def _basis(self) -> list[list[int]]:
        """Integer echelon basis of the subgroup the generators span."""
        return _lattice_basis(self.generators, self.dimension)

    @cached_property
    def _hull(self) -> tuple[tuple[Fraction, ...], Fraction]:
        """Minimum-norm point of the generators' convex hull and its squared norm."""
        return _min_norm_hull_point(self.generators)

    @cached_property
    def _hull_limit(self) -> Optional[tuple[tuple[int, ...], int]]:
        """The length bound ``<a, w> / |w|^2`` as an integer vector ``v`` and a
        positive integer ``d`` with ``<a, w> / |w|^2 == <a, v> / d``; None
        when the origin is in the hull, which bounds no length."""
        w, wsq = self._hull
        if not wsq:
            return None
        scale = lcm(*(x.denominator for x in w))
        return tuple(int(x * scale) * wsq.denominator for x in w), scale * wsq.numerator


class Membership(_Record):
    """Three-valued decision with an optional certificate.

    A ``yes`` carries generator multiplicities (aligned with the spec's
    sorted generators) witnessing the membership.
    """

    _names = ("status", "certificate")

    def __init__(self, status: str, certificate: Optional[tuple[int, ...]] = None):
        self._set(status, certificate)

    @property
    def is_yes(self) -> bool:
        return self.status == YES

    @property
    def is_no(self) -> bool:
        return self.status == NO


def _min_norm_hull_point(
    generators: tuple[Index, ...],
) -> tuple[tuple[Fraction, ...], Fraction]:
    """Exact minimum-norm point of the convex hull of the generators and its
    squared norm, zero when the origin lies in the hull, i.e. the generators
    cancel: P. Wolfe's nearest-point algorithm ("Finding the nearest point in
    a polytope", Math. Programming 11, 1976) in ``Fraction``s.  The point is
    a positive combination of a *corral* of affinely independent generators,
    at first one of least norm.  It moves toward the corral's affine minimum
    until a weight reaches zero and that generator leaves; at the minimum
    ``x``, the generator least in ``<x, g>`` joins while that is below ``|x|^2``.
    """
    def dot(p, q):
        return sum(map(mul, p, q))

    corral, weights = [min(generators, key=lambda g: dot(g, g))], [Fraction(1)]
    while True:
        # The affine minimum: weights summing to 1 whose point is orthogonal to each corral[j] - corral[0].
        directions = [[q - b for q, b in zip(g, corral[0])] for g in corral[1:]]
        affine = solve_unique([[1] * len(corral)] + [[dot(p, d) for p in corral] for d in directions],
                              [1] + [0] * len(directions))
        if affine is None:
            raise ArithmeticError(f"corral {corral} is affinely dependent")
        # An entering generator's affine weight is positive, so w - a > 0 wherever a <= 0.
        steps = [w / (w - a) for w, a in zip(weights, affine) if a <= 0]
        if steps:  # as far toward the affine minimum as the weights stay nonnegative
            theta = min(steps)
            weights = [w + theta * (a - w) for w, a in zip(weights, affine)]
            corral, weights = [p for p, w in zip(corral, weights) if w], [w for w in weights if w]
            continue
        x = tuple(dot(affine, column) for column in zip(*corral))
        entering = min(generators, key=lambda g: dot(x, g))
        if dot(x, entering) >= (sq := dot(x, x)):  # x is optimal, the origin included
            return x, sq
        corral, weights = corral + [entering], affine + [Fraction(0)]


def semigroup_member(spec: SemigroupSpec, a: Sequence[int], min_count: int = 1) -> Membership:
    """Decide whether ``a`` is a sum of at least ``min_count`` generators.

    Breadth-first over representation length.  Two negatives are provable: a
    target outside the integer span of the generators, and, when the origin
    is outside the convex hull of the generators, a search exhausted below
    the length bound ``<a, w> / |w|^2`` given by the hull's minimum-norm
    point ``w``.  Otherwise a cap-bound search is reported as inconclusive.
    """
    a = _check_vector(a, spec.dimension, "target")
    if min_count < 1:
        raise ValueError("min_count must be at least 1")
    return _memberships(spec, (a,), min_count)[a]


def _memberships(spec: SemigroupSpec, targets: Iterable[Index], min_count: int) -> dict[Index, Membership]:
    """``semigroup_member`` of each of the distinct ``targets``, from one search.

    The span and hull refusals are made per target; the others share one
    breadth-first search over representation length, which holds one level
    at a time and stops once every target is decided: at the first level of
    at least ``min_count`` generators that holds it, or at its own length
    limit.
    """
    decided: dict[Index, Membership] = {}
    pending: dict[Index, tuple[int, bool]] = {}  # target -> its length limit, and whether a miss proves NO
    gens = spec.generators
    for a in targets:
        if not gens or not _in_lattice(a, spec._basis):
            decided[a] = Membership(NO)
            continue
        hull = spec._hull_limit
        if hull:
            vector, den = hull
            dot = sum(map(mul, a, vector))
            limit = dot // den if dot >= 0 else -1
            if limit < min_count:
                decided[a] = Membership(NO)
                continue
            pending[a] = min(limit, spec.search_cap), limit <= spec.search_cap
        else:
            pending[a] = spec.search_cap, False
    if not pending:
        return decided

    m = len(gens)
    level: dict[Index, tuple[int, ...]] = {zero_index(spec.dimension): (0,) * m}
    steps = 0
    while pending:
        steps += 1
        nxt: dict[Index, tuple[int, ...]] = {}
        for vec, counts in level.items():
            for gi, g in enumerate(gens):
                nv = index_add(vec, g)
                if nv not in nxt:
                    nxt[nv] = counts[:gi] + (counts[gi] + 1,) + counts[gi + 1:]
        level = nxt
        for a, (limit, provable) in list(pending.items()):
            if steps >= min_count and a in level:
                decided[a] = Membership(YES, level[a])
            elif steps == limit:
                decided[a] = Membership(NO if provable else INCONCLUSIVE)
            else:
                continue
            del pending[a]
    return decided


def _combine_statuses(statuses: Iterable[str]) -> str:
    worst = YES
    for s in statuses:
        if s == NO:
            return NO
        if s == INCONCLUSIVE:
            worst = INCONCLUSIVE
    return worst


def _weight_statuses(
    c: Cochain, spec: SemigroupSpec, min_count: int, weights: Optional[dict] = None
) -> list[tuple[Index, str]]:
    """Each distinct weight of ``c`` in sorted order, with its membership
    status; ``weights`` are the weight buckets of ``c`` when already made."""
    if c.dimension != spec.dimension:
        raise DimensionMismatchError("cochain and semigroup dimensions differ")
    if weights is None:
        weights = _buckets(c, False)
    decided = _memberships(spec, weights, min_count)
    return [(w, decided[w].status) for w in weights]


def in_subalgebra(c: Cochain, spec: SemigroupSpec) -> Membership:
    """Whether every weight component of ``c`` has weight in the semigroup."""
    return Membership(_combine_statuses(s for _, s in _weight_statuses(c, spec, 1)))


def project_subalgebra(c: Cochain, spec: SemigroupSpec) -> Cochain:
    """Keep exactly the weight components with weight in the semigroup.

    Raises ``InconclusiveMembershipError`` when some component cannot be
    decided within the search cap; an undecided component is never silently
    kept or dropped.
    """
    buckets = _buckets(c, False)
    kept = []
    for w, status in _weight_statuses(c, spec, 1, buckets):
        if status == INCONCLUSIVE:
            raise InconclusiveMembershipError(
                f"membership of weight {w} undecided within search cap {spec.search_cap}"
            )
        if status == YES:
            kept.extend(buckets[w])
    num = c._num
    return Cochain._reduced(c.dimension, {key: num[key] for key in kept}, c._den, c._bound)


def in_ideal(c: Cochain, spec: SemigroupSpec, fold: int = 2) -> Membership:
    """Whether every weight of ``c`` is a sum of at least ``fold`` semigroup elements.

    A weight is a ``fold``-fold sum of members exactly when it is a sum of at
    least ``fold`` generators: any representation that long can be grouped
    into ``fold`` nonempty batches.
    """
    if fold < 1:
        raise ValueError("fold must be at least 1")
    return Membership(_combine_statuses(s for _, s in _weight_statuses(c, spec, fold)))


# ---------------------------------------------------------------------------
# Parity involutions
# ---------------------------------------------------------------------------


def _check_indices(indices: Sequence[int], dimension: int) -> tuple[int, ...]:
    idx = tuple(indices)
    if not idx:
        raise ValueError("index set must be nonempty")
    if len(set(idx)) != len(idx):
        raise ValueError(f"index set {idx} has repeats")
    for i in idx:
        if not 1 <= i <= dimension:
            raise ValueError(f"coordinate index {i} out of range 1..{dimension}")
    return idx


def theta_apply(c: Cochain, indices: Sequence[int]) -> Cochain:
    """Sign each term by the parity of its weight summed over ``indices`` (1-based).

    A slot's orders enter the weight negated, which keeps their parity, so
    the sign is the parity of the selected coordinates over all of a term's
    field groups: of the low bits of those fields in its packed key.
    """
    n = c.dimension
    idx = _check_indices(indices, n)
    if c.is_zero:  # its dimension may be too large to lay out
        return c
    width = _WIDTH * n
    selected = _pack(int(i in idx) for i in range(1, n + 1))
    # Per key length, the low bits of the selected fields in every group below the sentinel.
    masks = _Memo(lambda length: sum(selected << shift for shift in range(0, length - 1, width)))
    out = {key: -num if (key & masks[key.bit_length()]).bit_count() & 1 else num for key, num in c._num.items()}
    return Cochain._raw(n, out, c._den, c._bound)


def theta_split(c: Cochain, indices: Sequence[int]) -> tuple[Cochain, Cochain]:
    """Split into the fixed and anti-fixed parts of the parity involution.

    Returns ``(plus, minus)`` with ``plus + minus == c``, the plus part fixed
    by ``theta_apply`` and the minus part negated by it.
    """
    half = Fraction(1, 2)
    image = theta_apply(c, indices)
    return (c + image) * half, (c - image) * half


def even_weight_sum(indices: Sequence[int], weight: Sequence[int]) -> bool:
    """Whether the selected weight coordinates sum to an even number."""
    return sum(weight[i - 1] for i in indices) % 2 == 0


# ---------------------------------------------------------------------------
# Subgroup / complement criterion
# ---------------------------------------------------------------------------


class SubgroupReport(_Record):
    """Outcome of checking a candidate weight subgroup against its complement.

    The candidate set is the monoid generated by ``generators`` (it always
    contains the zero weight, as any subgroup must).  ``is_subgroup`` is the
    decision whether that set is a subgroup; ``counterexample``, when
    present, is a pair ``(h, k)`` with ``h`` in the candidate, ``k`` outside,
    and ``h + k`` back inside, witnessing that products and brackets of the
    candidate's cochains with complement cochains escape the complement.
    ``sample_failures`` lists sampled cochain-level closure violations.
    """

    _names = ("dimension", "generators", "is_subgroup", "samples_run", "sample_failures", "counterexample")

    def __init__(
        self,
        dimension: int,
        generators: tuple[Index, ...],
        is_subgroup: str,  # yes / no / inconclusive
        samples_run: int,
        sample_failures: tuple[tuple[Index, Index], ...],
        counterexample: Optional[tuple[Index, Index]],
    ):
        self._set(dimension, generators, is_subgroup, samples_run, sample_failures, counterexample)

    @property
    def consistent(self) -> bool:
        """Whether the observations match the subgroup criterion both ways."""
        if self.is_subgroup == YES:
            return not self.sample_failures and self.counterexample is None
        if self.is_subgroup == NO:
            return self.counterexample is not None
        return False


def _lattice_basis(vectors: Sequence[Index], n: int) -> list[list[int]]:
    """Integer echelon basis of the subgroup generated by the vectors."""
    rows = [list(v) for v in vectors if any(v)]
    basis: list[list[int]] = []
    for col in range(n):
        while True:
            rows = [r for r in rows if any(r)]
            nonzero = [r for r in rows if r[col]]
            if len(nonzero) <= 1:
                break
            nonzero.sort(key=lambda r: abs(r[col]))
            head = nonzero[0]
            for r in nonzero[1:]:
                q = r[col] // head[col]
                if q:
                    for i in range(n):
                        r[i] -= q * head[i]
        pivot = next((r for r in rows if r[col]), None)
        if pivot is not None:
            basis.append(pivot)
            rows = [r for r in rows if r is not pivot]
    return basis


def _in_lattice(v: Index, basis: Sequence[Sequence[int]]) -> bool:
    residue = list(v)
    for row in basis:
        lead = next(i for i, x in enumerate(row) if x)
        if residue[lead] % row[lead]:
            return False
        q = residue[lead] // row[lead]
        if q:
            for i in range(len(residue)):
                residue[i] -= q * row[i]
    return not any(residue)


def _window(dimension: int) -> list[Index]:
    """Every vector with entries in -3..3, by increasing taxicab norm."""
    from itertools import product

    vectors = [tuple(v) for v in product(range(-3, 4), repeat=dimension)]
    vectors.sort(key=lambda v: (sum(abs(x) for x in v), v))
    return vectors


def subgroup_complement_check(
    spec: SemigroupSpec, *, trials: int = 20, seed: int = 0
) -> SubgroupReport:
    """Check the two-sided subgroup criterion for a candidate weight set.

    The candidate is a subgroup exactly when every generator's negative is
    again a member; in that case the candidate coincides with the generated
    lattice and membership is decided exactly by integer echelon reduction.
    For the forward direction the check builds random weight-homogeneous
    cochains with weights inside the candidate and in its complement, and
    verifies cup products (both orders) and brackets stay in the
    complement's span.  For the converse it searches a small weight window
    for an explicit violation ``h + k`` back in the candidate.
    """
    from . import axioms
    from .operations import bracket, cup
    import random

    def candidate_status(v: Index) -> str:
        return semigroup_member(spec, v).status if any(v) else YES

    negatives = (candidate_status(tuple(-x for x in g)) for g in spec.generators)
    is_subgroup = _combine_statuses(negatives) if spec.generators else NO

    if is_subgroup == YES:

        def status(v: Index) -> str:
            return YES if _in_lattice(v, spec._basis) else NO

    else:
        status = candidate_status

    window = _window(spec.dimension)
    outside = [v for v in window if status(v) == NO]

    counterexample = None
    for h in window:
        if status(h) != YES:
            continue
        for k in outside:
            if status(index_add(h, k)) == YES:
                counterexample = (h, k)
                break
        if counterexample:
            break

    rng = random.Random(seed)
    failures: list[tuple[Index, Index]] = []
    samples_run = 0
    if spec.generators and outside:
        for _ in range(trials):
            counts = [rng.randint(0, 2) for _ in spec.generators]
            if not any(counts):
                counts[rng.randrange(len(counts))] = 1
            h = zero_index(spec.dimension)
            for g, c in zip(spec.generators, counts):
                for _ in range(c):
                    h = index_add(h, g)
            k = rng.choice(outside)
            phi = axioms.random_weight_homogeneous(rng, spec.dimension, h)
            psi = axioms.random_weight_homogeneous(rng, spec.dimension, k)
            samples_run += 1
            results = (cup(phi, psi), cup(psi, phi), bracket(phi, psi))
            weights = set().union(*map(weights_of, results))
            if any(status(w) == YES for w in weights):
                failures.append((h, k))

    return SubgroupReport(
        dimension=spec.dimension,
        generators=spec.generators,
        is_subgroup=is_subgroup,
        samples_run=samples_run,
        sample_failures=tuple(failures),
        counterexample=counterexample,
    )


# ---------------------------------------------------------------------------
# Filtration by bigrade pairs
# ---------------------------------------------------------------------------

LITERAL = "literal"
CUMULATIVE = "cumulative"


def _check_mode(mode: str) -> str:
    if mode not in (LITERAL, CUMULATIVE):
        raise ValueError(f"mode must be '{LITERAL}' or '{CUMULATIVE}', got {mode!r}")
    return mode


def validate_filtration_index(alpha, dimension: int) -> tuple[Index, Index]:
    """An index is a pair (a, b) of integer vectors with a <= b lexicographically."""
    a, b = alpha
    a, b = tuple(a), tuple(b)
    if len(a) != dimension or len(b) != dimension:
        raise DimensionMismatchError(f"filtration index {alpha} does not match dimension {dimension}")
    if not a <= b:
        raise ValueError(f"filtration index {alpha} violates a <= b (lexicographic)")
    return a, b


def filtration_contains(c: Cochain, alpha, mode: str = CUMULATIVE) -> bool:
    """Whether every term of ``c`` lies in the stage indexed by ``alpha``.

    ``literal`` reads the stage as: weight equal to the first component and
    second bigrade component between the two, lexicographically.
    ``cumulative`` reads it as: bigrade at most ``alpha`` in the pair order
    (lexicographic on the first component, ties broken by the second); this
    is the reading under which the stages are monotone in the index, and is
    the default.
    """
    mode = _check_mode(mode)
    a, b = validate_filtration_index(alpha, c.dimension)
    bigrades = _buckets(c, True)
    if mode == LITERAL:
        return all(down == a and a <= up <= b for down, up in bigrades)
    return all(bigrade <= (a, b) for bigrade in bigrades)


def filtration_index(c: Cochain, mode: str = CUMULATIVE) -> tuple[Index, Index]:
    """The least stage containing ``c``; the zero cochain has none."""
    mode = _check_mode(mode)
    if c.is_zero:
        raise ValueError("the zero cochain has no filtration index")
    bigrades = _buckets(c, True)  # increasing
    top = next(reversed(bigrades))
    if mode == LITERAL and next(iter(bigrades))[0] != top[0]:
        raise ValueError(
            "cochain mixes weights and is contained in no literal filtration stage"
        )
    return top
