import random
from fractions import Fraction
from math import comb
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gerstenhaber import (
    BasisTerm,
    Cochain,
    InconclusiveMembershipError,
    Membership,
    SemigroupSpec,
    bigrade_of,
    bracket,
    cup,
    decompose_by_bigrade,
    decompose_by_weight,
    hochschild_delta,
    in_ideal,
    in_subalgebra,
    multiplication_cochain,
    project_subalgebra,
    semigroup_member,
    subgroup_complement_check,
    theta_apply,
    theta_split,
    weight_of,
)
from gerstenhaber import grading
from gerstenhaber.cochains import EXPONENT_BUDGET
from gerstenhaber.grading import (
    filtration_contains,
    filtration_index,
    even_weight_sum,
)
from gerstenhaber.axioms import (
    random_cochain,
    random_weight_homogeneous,
)


def term(x_part, *slots):
    return BasisTerm(2, x_part, slots)


def single(x_part, *slots):
    return Cochain.single(term(x_part, *slots))


M = multiplication_cochain(2)
PI1 = Cochain(2, {term((0, 0), (1, 0), (0, 1)): 1, term((0, 0), (0, 1), (1, 0)): -1})


# -- weights and bigrades ----------------------------------------------------


def test_weight_of_multiplication_is_zero():
    assert weight_of(next(iter(dict(M.items())))) == (0, 0)


def test_weight_of_bivector_term():
    assert weight_of(term((0, 0), (1, 0), (0, 1))) == (-1, -1)


def test_weight_componentwise():
    assert weight_of(term((2, 0), (1, 0))) == (1, 0)


def test_bigrade_examples():
    assert bigrade_of(term((1, 1), (1, 0), (0, 1))) == ((0, 0), (2, 2))
    assert bigrade_of(term((3, 1))) == ((3, 1), (3, 1))


def test_bigrade_first_component_is_weight():
    rng = random.Random(41)
    for _ in range(30):
        c = random_cochain(rng)
        for t, _ in c.items():
            assert bigrade_of(t)[0] == weight_of(t)


def test_decompositions_partition():
    rng = random.Random(43)
    for _ in range(30):
        c = random_cochain(rng)
        total = Cochain.zero(2)
        for part in decompose_by_weight(c).values():
            total = total + part
        assert total == c
        total = Cochain.zero(2)
        for part in decompose_by_bigrade(c).values():
            total = total + part
        assert total == c


ENTRY = st.one_of(st.integers(0, 3), st.sampled_from((65534, 65535)), st.integers(0, 65535))


@st.composite
def wide_cochains(draw):
    """A cochain of dimension 1 to 3 whose exponents reach the budget and whose
    slot sums reach several times it, so weights go far below zero."""
    n = draw(st.integers(1, 3))
    index = st.tuples(*[ENTRY] * n)
    terms = draw(st.lists(st.tuples(index, st.lists(index, max_size=5)), min_size=1, max_size=8))
    return Cochain(n, {BasisTerm(n, x, slots): 1 for x, slots in terms})


@settings(max_examples=150, deadline=None)
@given(wide_cochains())
# Two terms of one weight, stored out of canonical order.
@example(Cochain(1, {BasisTerm(1, (2,), ((1,),)): 1, BasisTerm(1, (1,), ()): 1}))
@example(Cochain.zero(2))
def test_grade_groups_list_each_term_under_its_grade(c):
    """The report groups list every term once, under ``weight_of`` or
    ``bigrade_of`` of its basis term, grades increasing and terms in
    canonical order; ``weights_of`` is the set of the terms' weights, and
    ``theta_apply`` signs each term by its weight."""
    n = c.dimension
    assert grading.weights_of(c) == {weight_of(t) for t, _ in c.items()}
    for groups, grade_of in ((grading.weight_groups(c), weight_of), (grading.bigrade_groups(c), bigrade_of)):
        assert [grade for grade, _ in groups] == sorted({grade_of(t) for t, _ in c.items()})
        assert sorted(key for _, keys in groups for key in keys) == sorted(c._num)
        for grade, keys in groups:
            assert keys == sorted(keys)
            assert {grade_of(Cochain._key(n, key)) for key in keys} == {grade}
    assert list(decompose_by_weight(c)) == [w for w, _ in grading.weight_groups(c)]
    signs = {t: -1 if weight_of(t)[0] % 2 else 1 for t, _ in c.items()}
    assert theta_apply(c, (1,)) == Cochain(n, {t: signs[t] * coeff for t, coeff in c.items()})


def buckets_term_by_term(c, bigrade):
    """``grading._buckets`` built from ``weight_of`` or ``bigrade_of`` of each term."""
    grade_of = bigrade_of if bigrade else weight_of
    found = {}
    for key in sorted(c._num):
        found.setdefault(grade_of(Cochain._key(c.dimension, key)), []).append(key)
    return [(grade, found[grade]) for grade in sorted(found)]


def casts_out(c):
    """Whether ``_buckets`` reads each term's slot sum off its key modulo ``2**width - 1``."""
    arity = max(len(t.slots) for t, _ in c.items())
    return (arity + 1) * c._bound + 1 < EXPONENT_BUDGET


def assert_buckets_match_term_by_term(c):
    loose = Cochain._raw(c.dimension, c._num, c._den, EXPONENT_BUDGET)  # never cast out
    for bigrade in (False, True):
        expected = buckets_term_by_term(c, bigrade)
        assert list(grading._buckets(c, bigrade).items()) == expected
        assert list(grading._buckets(loose, bigrade).items()) == expected


@st.composite
def cochains_near_the_guard(draw):
    """A cochain of dimension 1 to 3 and arity 0 to 4 whose ``_bound`` is the
    largest at which ``_buckets`` casts out, or one more; each field is small,
    anything up to the bound, or the bound itself, so field sums reach the
    largest the guard allows."""
    n, arity = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    bound = (EXPONENT_BUDGET - 2) // (arity + 1) + draw(st.integers(0, 1))
    entry = st.one_of(st.integers(0, 3), st.integers(0, bound), st.just(bound))
    index = st.tuples(*[entry] * n)
    top = ((bound,) * n, ((bound,) * n,) * arity)  # pins the bound and the arity
    terms = draw(st.lists(st.tuples(index, st.lists(index, max_size=arity)), max_size=6))
    return Cochain(n, {BasisTerm(n, x, slots): 1 for x, slots in [top, *terms]})


@settings(max_examples=150, deadline=None)
@given(cochains_near_the_guard())
def test_buckets_match_term_by_term_on_both_sides_of_the_guard(c):
    """Both ways of summing slots give each term's own weight and bigrade, with
    its keys in canonical order, on either side of the guard and under a bound
    too loose to cast out."""
    assert_buckets_match_term_by_term(c)


def guard_cochain(n, x, *slots):
    return Cochain(n, {BasisTerm(n, x, slots): 1, BasisTerm(n, (0,) * n, ((1,) * n,) * len(slots)): 1})


@pytest.mark.parametrize(
    "c, cast_out",
    [
        # (arity + 1) * bound + 1 == 65534: cast out, each field sum at most 65534.
        (guard_cochain(1, (65533,)), True),
        (guard_cochain(2, (65533, 65533)), True),
        (guard_cochain(3, (0, 5041, 5041), *[(5041, 5041, 5041)] * 12), True),
        # == 65535: summed slot by slot.  In dimension 1 the sum 1 + x + slots
        # would be 2**16 - 1 itself, which reads back as 0 under the modulus.
        (guard_cochain(1, (65534,)), False),
        (guard_cochain(1, (32767,), (32767,)), False),
        (guard_cochain(2, (32767, 32767), (32767, 32767)), False),
        (guard_cochain(1, (9362,), *[(9362,)] * 6), False),
        # Smaller bounds, inside the guard.
        (guard_cochain(1, (32766,), (32766,)), True),
        (guard_cochain(3, (21844, 0, 21844), (21844, 21844, 0), (0, 1, 21844)), True),
        # Far past the guard: field sums carry into the neighbouring field.
        (guard_cochain(2, (40000, 40000), (40000, 40000), (65535, 65535)), False),
        # Arity 0 only.
        (Cochain(2, {BasisTerm(2, (i, j), ()): 1 for i in (0, 7, 65533) for j in (0, 65533)}), True),
    ],
)
def test_buckets_at_the_guard(c, cast_out):
    assert casts_out(c) == cast_out
    assert_buckets_match_term_by_term(c)


# -- semigroup membership ----------------------------------------------------


def test_single_generator_ray():
    spec = SemigroupSpec(dimension=2, generators=((-1, -1),))
    hit = semigroup_member(spec, (-3, -3))
    assert hit.is_yes and hit.certificate == (3,)
    assert semigroup_member(spec, (-1, 0)).is_no


def test_cancelling_pair_reaches_origin():
    spec = SemigroupSpec(dimension=2, generators=((1, 0), (-1, 0)))
    hit = semigroup_member(spec, (0, 0))
    assert hit.is_yes
    assert sum(hit.certificate) == 2  # one of each generator


def test_membership_requires_nonempty_sum():
    spec = SemigroupSpec(dimension=2, generators=((-1, -1),))
    assert semigroup_member(spec, (0, 0)).is_no


def test_inconclusive_when_cap_binds_with_cancellation():
    spec = SemigroupSpec(dimension=2, generators=((1, 0), (-1, 0)), search_cap=5)
    assert semigroup_member(spec, (40, 0)).status == "inconclusive"


def test_no_when_target_outside_integer_span():
    # cancellation blocks the half-space bound, but the span refutes exactly
    spec = SemigroupSpec(dimension=2, generators=((1, 0), (-1, 0)), search_cap=5)
    assert semigroup_member(spec, (0, 5)).is_no
    even = SemigroupSpec(dimension=2, generators=((2, 0), (-2, 0)), search_cap=5)
    assert semigroup_member(even, (3, 0)).is_no


def test_no_when_half_space_bound_exhausts_below_cap():
    # bound = <a, w>/|w|^2 stays tiny, so a miss is a proof
    spec = SemigroupSpec(dimension=2, generators=((2, 1), (1, 2)), search_cap=1000)
    assert semigroup_member(spec, (3, 3)).is_yes
    assert semigroup_member(spec, (4, 4)).is_no


def test_min_count_for_ideal_queries():
    spec = SemigroupSpec(dimension=2, generators=((-1, -1),))
    assert semigroup_member(spec, (-2, -2), min_count=2).is_yes
    assert semigroup_member(spec, (-1, -1), min_count=2).is_no


def test_subalgebra_membership_and_projection():
    spec = SemigroupSpec(dimension=2, generators=((-1, -1),))
    assert in_subalgebra(PI1, spec).is_yes
    assert in_subalgebra(M, spec).is_no
    mixed = M + single((0, 0), (1, 0), (0, 1))
    assert project_subalgebra(mixed, spec) == single((0, 0), (1, 0), (0, 1))
    assert project_subalgebra(project_subalgebra(mixed, spec), spec) == project_subalgebra(
        mixed, spec
    )


def test_projection_propagates_inconclusive():
    spec = SemigroupSpec(dimension=2, generators=((1, 0), (-1, 0)), search_cap=3)
    far = single((30, 0), (0, 0), (0, 0))
    with pytest.raises(InconclusiveMembershipError):
        project_subalgebra(far, spec)


SMALL = st.tuples(st.integers(0, 3), st.integers(0, 3))
SMALL_COCHAIN = st.lists(
    st.tuples(
        st.integers(0, 2).flatmap(lambda k: st.tuples(SMALL, st.tuples(*[SMALL] * k))),
        st.integers(-3, 3),
    ),
    max_size=12,
).map(lambda pairs: Cochain(2, [(BasisTerm(2, x, slots), c) for (x, slots), c in pairs]))
SMALL_SPEC = st.builds(
    lambda gens, cap: SemigroupSpec(dimension=2, generators=tuple(gens), search_cap=cap),
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=4),
    st.integers(3, 8),
)


def combined_status(statuses):
    if "no" in statuses:
        return "no"
    return "inconclusive" if "inconclusive" in statuses else "yes"


@settings(max_examples=80, deadline=None)
@given(SMALL_COCHAIN, SMALL_SPEC, st.integers(1, 3))
def test_weight_pass_matches_per_component_reference(c, spec, fold):
    components = decompose_by_weight(c)
    plain = {w: semigroup_member(spec, w).status for w in components}
    folded = [semigroup_member(spec, w, min_count=fold).status for w in components]
    assert list(grading._weight_statuses(c, spec, fold)) == list(zip(components, folded))
    assert in_subalgebra(c, spec).status == combined_status(plain.values())
    assert in_ideal(c, spec, fold=fold).status == combined_status(folded)
    if "inconclusive" in plain.values():
        with pytest.raises(InconclusiveMembershipError):
            project_subalgebra(c, spec)
    else:
        expected = Cochain.zero(2)
        for w, part in components.items():
            if plain[w] == "yes":
                expected = expected + part
        assert project_subalgebra(c, spec) == expected


def test_generator_invariants_computed_once_per_spec(monkeypatch):
    calls = []
    for name in ("_min_norm_hull_point", "_lattice_basis"):
        original = getattr(grading, name)
        monkeypatch.setattr(grading, name, lambda *a, _n=name, _f=original: calls.append(_n) or _f(*a))
    spec = SemigroupSpec(dimension=2, generators=((-1, 0), (0, -1), (1, -2)))
    c = Cochain(2, {term((i, j), (2, 3)): 1 for i in range(5) for j in range(5)})
    assert len(decompose_by_weight(c)) >= 20
    project_subalgebra(c, spec)
    in_subalgebra(c, spec)
    in_ideal(c, spec, fold=2)
    assert sorted(calls) == ["_lattice_basis", "_min_norm_hull_point"]


def search_per_target(spec, a, min_count):
    """``semigroup_member`` as one breadth-first search for ``a`` alone, to its own limit."""
    gens = spec.generators
    if not gens or not grading._in_lattice(a, spec._basis):
        return Membership("no")
    w, wsq = spec._hull
    if wsq:
        bound = sum(Fraction(x) * y for x, y in zip(a, w)) / wsq
        limit = int(bound) if bound >= 0 else -1
        if limit < min_count:
            return Membership("no")
        provable, limit = limit <= spec.search_cap, min(limit, spec.search_cap)
    else:
        provable, limit = False, spec.search_cap
    level = {(0,) * spec.dimension: (0,) * len(gens)}
    for steps in range(1, limit + 1):
        nxt = {}
        for vec, counts in level.items():
            for gi, g in enumerate(gens):
                nv = tuple(v + x for v, x in zip(vec, g))
                if nv not in nxt:
                    nxt[nv] = counts[:gi] + (counts[gi] + 1,) + counts[gi + 1:]
        level = nxt
        if steps >= min_count and a in level:
            return Membership("yes", level[a])
    return Membership("no" if provable else "inconclusive")


def test_shared_membership_search_matches_a_search_per_target():
    """One search for many targets gives each target's own status and certificate,
    in dimensions 1-3, for ``min_count`` 1-3, with and without cancelling generators."""
    rng = random.Random(89)
    seen = set()
    for trial in range(270):
        n, min_count, cancelling = 1 + trial % 3, 1 + trial // 3 % 3, trial // 9 % 3 == 0
        gens = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        if cancelling:  # the origin lies in the hull: no length bound, a capped miss is undecided
            gens.append(tuple(-x for x in gens[0]))
        spec = SemigroupSpec(n, gens, search_cap=rng.randint(1, 6))
        targets = {tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(12)}
        shared = grading._memberships(spec, targets, min_count)
        assert set(shared) == targets
        for a in targets:
            expected = search_per_target(spec, a, min_count)
            assert shared[a] == expected
            assert semigroup_member(spec, a, min_count) == expected
            seen.add((n, min_count, cancelling, expected.status))
    assert {(n, k) for n, k, _, _ in seen} == {(n, k) for n in (1, 2, 3) for k in (1, 2, 3)}
    assert {status for *_, status in seen} == {"yes", "no", "inconclusive"}
    assert {status for _, _, cancelling, status in seen if cancelling} == {"yes", "no", "inconclusive"}


def test_shared_membership_search_decides_no_targets_without_work():
    spec = SemigroupSpec(2, ((1, 0), (-1, 0)), search_cap=3)
    assert grading._memberships(spec, (), 1) == {}
    assert "_basis" not in vars(spec) and "_hull" not in vars(spec)


def test_integer_hull_limit_is_the_fraction_length_bound():
    """``_hull_limit`` gives each target the length limit of the ``Fraction``
    bound ``<a, w> / |w|^2``, in dimensions 1-3, negative bounds included;
    generators that cancel have none."""
    rng = random.Random(97)
    seen = set()
    for trial in range(300):
        n = 1 + trial % 3
        gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        if trial % 5 == 0:  # the origin lies in the hull
            gens.append(tuple(-x for x in gens[0]))
        spec = SemigroupSpec(n, gens)
        w, wsq = spec._hull
        if not wsq:
            assert spec._hull_limit is None
            seen.add("cancelling")
            continue
        vector, den = spec._hull_limit
        assert den > 0 and all(type(v) is int for v in vector)
        for _ in range(30):
            a = tuple(rng.randint(-9, 9) for _ in range(n))
            bound = sum(Fraction(x) * y for x, y in zip(a, w)) / wsq
            dot = sum(x * y for x, y in zip(a, vector))
            assert (dot // den if dot >= 0 else -1) == (int(bound) if bound >= 0 else -1)
            seen.add("negative" if bound < 0 else "whole" if bound.denominator == 1 else "fractional")
    assert seen == {"cancelling", "negative", "whole", "fractional"}


def full_hull_point(generators):
    """``_min_norm_hull_point`` by enumeration: every affinely independent
    subset of at most n + 1 generators is tried, and the least projection of
    the origin that lands in its simplex kept."""
    n = len(generators[0])
    best = best_sq = None
    for size in range(1, min(len(generators), n + 1) + 1):
        for subset in combinations(generators, size):
            rows = [[Fraction(1)] * size]
            rhs = [Fraction(1)]
            for j in range(1, size):
                direction = [subset[j][i] - subset[0][i] for i in range(n)]
                rows.append([Fraction(sum(p[i] * direction[i] for i in range(n))) for p in subset])
                rhs.append(Fraction(0))
            weights = grading.solve_unique(rows, rhs)
            if weights is None or any(w < 0 for w in weights):
                continue
            point = tuple(sum((w * p[i] for w, p in zip(weights, subset)), Fraction(0)) for i in range(n))
            sq = sum((v * v for v in point), Fraction(0))
            if best_sq is None or sq < best_sq:
                best, best_sq = point, sq
    return best, best_sq


def pointed_cone(rng, n, size):
    """``size`` distinct generators in dimension ``n`` with first coordinate 1..3
    and the others +-2..6: the origin is outside their hull."""
    gens = set()
    while len(gens) < size:
        gens.add((rng.randint(1, 3),) + tuple(rng.choice((-1, 1)) * rng.randint(2, 6) for _ in range(n - 1)))
    return tuple(sorted(gens))


def assert_hull_point_is_the_enumerated_one(gens):
    got = grading._min_norm_hull_point(gens)
    assert got == full_hull_point(gens)
    point, sq = got
    assert all(type(v) is Fraction for v in point) and type(sq) is Fraction
    return got


def test_hull_point_matches_the_full_enumeration():
    """Wolfe's search finds exactly the point and squared norm of the full
    enumeration, in dimensions 1-4 on up to 10 generators: with opposite,
    zero, collinear and duplicate-direction generators, and pointed cones."""
    rng = random.Random(113)
    seen = set()
    for trial in range(240):
        n, kind = 1 + trial % 4, trial // 4 % 5
        gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, 8))]
        if kind == 0:  # an opposite pair: the origin lies in the hull
            gens.append(tuple(-2 * x for x in gens[0]))
        elif kind == 1:  # two more generators in the direction of the first
            gens += [tuple(3 * x for x in gens[0]), tuple(2 * x for x in gens[0])]
        elif kind == 2:  # the origin is a generator
            gens.append((0,) * n)
        elif kind == 3:  # collinear generators off the origin
            step = tuple(rng.randint(-2, 2) for _ in range(n))
            gens += [tuple(x + k * y for x, y in zip(gens[0], step)) for k in (1, 2)]
        gens = tuple(sorted(set(gens)))
        if kind == 4:
            gens = pointed_cone(rng, n, rng.randint(1, 3 if n == 1 else 10))  # dimension 1 has only 3
        point, sq = assert_hull_point_is_the_enumerated_one(gens)
        seen.add((n, "origin" if not sq else "away"))
    assert seen == {(n, side) for n in (1, 2, 3, 4) for side in ("origin", "away")}


@pytest.mark.parametrize(
    "gens, point",
    [
        (((0, 0), (1, 2), (3, -1)), (0, 0)),  # a zero generator
        (((1, 0), (-1, 0), (0, 1)), (0, 0)),  # the origin on an edge of the hull
        (((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0)),
        (((1, 1), (2, 2), (3, 3)), (1, 1)),  # collinear through the origin
        (((-1, -1), (1, 1), (2, 2)), (0, 0)),
        (((1, 0), (1, 1), (1, 2)), (1, 0)),  # collinear off the origin
        (((1, -1), (1, 1), (2, -2), (2, 2)), (1, 0)),  # duplicate directions
        (((1, 2), (2, 1)), (Fraction(3, 2), Fraction(3, 2))),  # an edge's interior
        (((1, 0, 1), (0, 1, 1), (-1, -1, 1)), (0, 0, 1)),  # a facet's interior
    ],
)
def test_hull_point_of_degenerate_specs(gens, point):
    assert assert_hull_point_is_the_enumerated_one(tuple(sorted(gens))) == (point, sum(x * x for x in point))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=10, unique=True)
    )
)
def test_hull_point_matches_the_full_enumeration_on_drawn_specs(gens):
    assert_hull_point_is_the_enumerated_one(tuple(sorted(gens)))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("size", [24, 32, 64])
def test_hull_search_solves_few_systems_on_pointed_cones(monkeypatch, n, size):
    """On a pointed cone, where no exit at the origin applies, the search
    solves at most n + 1 systems per generator; the subset enumeration solves
    one per subset of up to n + 1, 12 950 on 24 generators in dimension 3."""
    gens = pointed_cone(random.Random(131 * n + size), n, size)
    calls = []
    solve = grading.solve_unique
    monkeypatch.setattr(grading, "solve_unique", lambda rows, rhs: calls.append(1) or solve(rows, rhs))
    point, sq = grading._min_norm_hull_point(gens)
    assert sq and sq == sum(x * x for x in point)
    assert all(sum(x * g for x, g in zip(point, gen)) >= sq for gen in gens)  # no generator is nearer
    assert len(calls) <= (n + 1) * size


def test_hull_search_raises_when_a_corral_has_no_affine_minimum(monkeypatch):
    monkeypatch.setattr(grading, "solve_unique", lambda rows, rhs: None)
    with pytest.raises(ArithmeticError, match="affinely dependent"):
        grading._min_norm_hull_point(((1, 0), (0, 1)))


def test_hull_search_stops_at_the_origin(monkeypatch):
    """On 32 generators in dimension 3 holding an opposite pair, the search
    reaches the origin within one system per generator and per pair, not one
    per subset of up to four."""
    rng = random.Random(127)
    gens = {(1, 2, -1), (-1, -2, 1)}
    while len(gens) < 32:
        gens.add(tuple(rng.randint(-3, 3) for _ in range(3)))
    gens = tuple(sorted(gens))
    calls = []
    solve = grading.solve_unique
    monkeypatch.setattr(grading, "solve_unique", lambda rows, rhs: calls.append(1) or solve(rows, rhs))
    assert grading._min_norm_hull_point(gens) == ((0, 0, 0), 0)
    # The full enumeration solves one system per subset of 1 to 4 generators: 41448.
    assert len(calls) <= 32 + comb(32, 2) < sum(comb(32, k) for k in range(1, 5)) == 41448


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: semigroup_member(SemigroupSpec(2, [(0.5, 1)]), (1, 2)), r"generator \(0.5, 1\)"),
        (lambda: SemigroupSpec(2, [("1", 0)]), r"generator \('1', 0\)"),
        (lambda: semigroup_member(SemigroupSpec(2, [(1, 0)]), (0.5, 0)), r"target \(0.5, 0\)"),
    ],
    ids=["float-generator", "str-generator", "float-target"],
)
def test_non_integer_semigroup_input_is_refused(make, message):
    with pytest.raises(ValueError, match=f"^{message} must have integer entries$"):
        make()


@pytest.mark.parametrize("cap, shown", [(2.5, "2.5"), (Fraction(5, 2), "5/2")], ids=["float", "fraction"])
def test_non_integer_search_cap_is_refused(cap, shown):
    # Accepted, such a cap never ends the search for (0, -1), outside the semigroup.
    with pytest.raises(ValueError, match=f"^search_cap {shown} must be an integer$"):
        semigroup_member(SemigroupSpec(2, [(1, 0), (-1, 0), (0, 1)], search_cap=cap), (0, -1))


def test_ideal_membership_examples():
    spec = SemigroupSpec(dimension=2, generators=((-1, -1),))
    w2 = random_weight_homogeneous(random.Random(1), 2, (-2, -2))
    w1 = random_weight_homogeneous(random.Random(2), 2, (-1, -1))
    assert in_ideal(w2, spec, fold=2).is_yes
    assert in_ideal(w1, spec, fold=2).is_no


def test_ideal_equals_subalgebra_iff_sum_stable():
    stable = SemigroupSpec(dimension=2, generators=((1, 0), (-1, 0), (0, 1), (0, -1)))
    rng = random.Random(47)
    for _ in range(25):
        w = (rng.randint(-3, 3), rng.randint(-3, 3))
        member = semigroup_member(stable, w).is_yes
        ideal = semigroup_member(stable, w, min_count=2).is_yes
        assert member and ideal  # the whole lattice, with cancellation available
    unstable = SemigroupSpec(dimension=2, generators=((-1, -1),))
    assert semigroup_member(unstable, (-1, -1)).is_yes
    assert not semigroup_member(unstable, (-1, -1), min_count=2).is_yes


def test_ideal_absorption_sampled():
    spec = SemigroupSpec(dimension=2, generators=((0, -1),))
    rng = random.Random(53)
    for _ in range(25):
        f = random_weight_homogeneous(rng, 2, (0, -2))
        g = random_weight_homogeneous(rng, 2, (0, -1))
        for result in (cup(f, g), cup(g, f), bracket(f, g)):
            if not result.is_zero:
                assert in_ideal(result, spec, fold=2).is_yes


# -- closure of weight subalgebras under all three operations -----------------


def test_weight_additivity_and_closure():
    rng = random.Random(59)
    for gens in (((-1, -1),), ((0, -1),), ((1, 0), (-1, 0))):
        spec = SemigroupSpec(dimension=2, generators=gens)
        for _ in range(25):
            wa = gens[rng.randrange(len(gens))]
            wb = gens[rng.randrange(len(gens))]
            f = random_weight_homogeneous(rng, 2, wa)
            g = random_weight_homogeneous(rng, 2, wb)
            target = tuple(x + y for x, y in zip(wa, wb))
            for result in (cup(f, g), bracket(f, g)):
                assert set(decompose_by_weight(result)) <= {target}
                if not result.is_zero:
                    assert in_subalgebra(result, spec).is_yes
            df = hochschild_delta(f)
            assert set(decompose_by_weight(df)) <= {wa}


# -- involutions --------------------------------------------------------------


def test_theta_sign_examples():
    c = single((1, 0), (0, 1))  # x1 d2, weight (1, -1)
    assert theta_apply(c, (1,)) == -c
    assert theta_apply(c, (1, 2)) == c


def test_theta_involution_random():
    rng = random.Random(61)
    for _ in range(30):
        c = random_cochain(rng)
        for idx in ((1,), (2,), (1, 2)):
            assert theta_apply(theta_apply(c, idx), idx) == c
            plus, minus = theta_split(c, idx)
            assert plus + minus == c
            assert theta_apply(plus, idx) == plus
            assert theta_apply(minus, idx) == -minus
            for w in decompose_by_weight(plus):
                assert even_weight_sum(idx, w)


def test_theta_is_algebra_automorphism():
    rng = random.Random(67)
    for _ in range(25):
        f, g = random_cochain(rng, max_terms=3), random_cochain(rng, max_terms=3)
        for idx in ((1,), (2,), (1, 2)):
            tf, tg = theta_apply(f, idx), theta_apply(g, idx)
            assert theta_apply(cup(f, g), idx) == cup(tf, tg)
            assert theta_apply(bracket(f, g), idx) == bracket(tf, tg)


def test_theta_plus_part_is_delta_closed():
    rng = random.Random(71)
    for _ in range(25):
        plus, _ = theta_split(random_cochain(rng), (1, 2))
        image = hochschild_delta(plus)
        assert theta_apply(image, (1, 2)) == image


def test_theta_signs_each_term_by_its_weight_parity():
    """Terms built from a few field groups, so that groups repeat within and
    across terms, of arity 0-3 in dimension 3, with exponents up to the budget."""
    rng = random.Random(97)
    entries = (0, 1, 2, 3, 65534, 65535)
    subsets = [idx for k in (1, 2, 3) for idx in combinations((1, 2, 3), k)]
    for _ in range(40):
        groups = [tuple(rng.choice(entries) for _ in range(3)) for _ in range(3)]
        terms = {
            BasisTerm(3, rng.choice(groups), tuple(rng.choice(groups) for _ in range(rng.randint(0, 3)))):
                rng.choice((-2, -1, 1, Fraction(1, 3)))
            for _ in range(10)
        }
        c = Cochain(3, terms)
        for idx in subsets + list(permutations((1, 2, 3))):
            odd = {t for t in terms if sum(weight_of(t)[i - 1] for i in idx) % 2}
            assert theta_apply(c, idx) == Cochain(3, {t: -v if t in odd else v for t, v in terms.items()})


def test_theta_invalid_indices():
    c = single((0, 0), (1, 0))
    with pytest.raises(ValueError):
        theta_apply(c, ())
    with pytest.raises(ValueError):
        theta_apply(c, (3,))
    with pytest.raises(ValueError):
        theta_apply(c, (1, 1))


# -- subgroup criterion --------------------------------------------------------


def test_full_lattice_passes_trivially():
    spec = SemigroupSpec(dimension=2, generators=((1, 0), (-1, 0), (0, 1), (0, -1)))
    report = subgroup_complement_check(spec, trials=5, seed=0)
    assert report.is_subgroup == "yes"
    assert report.counterexample is None
    assert report.samples_run == 0  # complement is empty in the search window


def test_even_lattice_passes():
    spec = SemigroupSpec(dimension=2, generators=((2, 0), (-2, 0), (0, 1), (0, -1)))
    report = subgroup_complement_check(spec, trials=10, seed=1)
    assert report.is_subgroup == "yes"
    assert report.counterexample is None
    assert report.samples_run > 0 and not report.sample_failures
    assert report.consistent


def test_positive_ray_yields_counterexample():
    spec = SemigroupSpec(dimension=2, generators=((1, 0),))
    report = subgroup_complement_check(spec, trials=10, seed=2)
    assert report.is_subgroup == "no"
    assert report.counterexample == ((1, 0), (-1, 0))
    assert report.consistent


# -- filtration ----------------------------------------------------------------


def test_multiplication_in_zero_stage():
    assert filtration_contains(M, ((0, 0), (0, 0)), mode="cumulative")
    assert filtration_contains(M, ((0, 0), (0, 0)), mode="literal")


def test_bivector_stage_is_least():
    c = single((0, 0), (1, 0), (0, 1))
    alpha = ((-1, -1), (1, 1))
    assert filtration_contains(c, alpha, mode="cumulative")
    assert filtration_index(c, mode="cumulative") == alpha
    assert filtration_index(c, mode="literal") == alpha


def test_zero_cochain_has_no_index():
    with pytest.raises(ValueError):
        filtration_index(Cochain.zero(2))


def test_filtration_product_rule_sampled():
    rng = random.Random(73)
    for _ in range(30):
        a = (rng.randint(-2, 2), rng.randint(-2, 2))
        b = (rng.randint(-2, 2), rng.randint(-2, 2))
        f = random_weight_homogeneous(rng, 2, a)
        g = random_weight_homogeneous(rng, 2, b)
        alpha, beta = filtration_index(f), filtration_index(g)
        target = (
            tuple(x + y for x, y in zip(alpha[0], beta[0])),
            tuple(x + y for x, y in zip(alpha[1], beta[1])),
        )
        for result in (cup(f, g), bracket(f, g)):
            if not result.is_zero:
                assert filtration_contains(result, target)
                # brute-force bigrade bookkeeping agrees with the containment
                for bg in decompose_by_bigrade(result):
                    assert bg <= target
        df = hochschild_delta(f)
        if not df.is_zero:
            assert filtration_contains(df, alpha)


def test_cumulative_monotonicity():
    rng = random.Random(79)
    for _ in range(30):
        c = random_cochain(rng)
        if c.is_zero:
            continue
        alpha = filtration_index(c)
        beta = (alpha[0], tuple(x + y for x, y in zip(alpha[1], (0, 1))))
        gamma = (tuple(x + y for x, y in zip(alpha[0], (1, 0))), tuple(x + y for x, y in zip(alpha[1], (1, 0))))
        for bigger in (beta, gamma):
            assert alpha <= bigger
            assert filtration_contains(c, bigger, mode="cumulative")


def test_literal_mode_monotonicity_gap():
    alpha = ((0, 0), (0, 0))
    beta = ((0, 1), (0, 1))
    assert alpha < beta
    assert filtration_contains(M, alpha, mode="literal")
    assert not filtration_contains(M, beta, mode="literal")
    assert filtration_contains(M, beta, mode="cumulative")


def test_delta_preserves_bigrade():
    rng = random.Random(83)
    for _ in range(30):
        c = random_cochain(rng)
        for t, _ in c.items():
            bg = bigrade_of(t)
            for s, _ in hochschild_delta(Cochain.single(t)).items():
                assert bigrade_of(s) == bg



@settings(max_examples=150, deadline=None)
@given(wide_cochains())
def test_filtration_reads_the_bigrades_of_the_terms(c):
    """``filtration_index`` and ``filtration_contains`` agree with ``bigrade_of``
    read term by term, in both modes."""
    bigrades = {bigrade_of(t) for t, _ in c.items()}
    top = max(bigrades)
    assert filtration_index(c) == top
    if len({down for down, _ in bigrades}) == 1:
        assert filtration_index(c, mode="literal") == top
    else:
        with pytest.raises(ValueError, match="mixes weights"):
            filtration_index(c, mode="literal")
    for alpha in (*bigrades, (top[0], top[0]), (min(bigrades)[0], top[1])):
        if not alpha[0] <= alpha[1]:
            continue
        a, b = alpha
        assert filtration_contains(c, alpha) == all(bg <= alpha for bg in bigrades)
        assert filtration_contains(c, alpha, mode="literal") == all(
            down == a and a <= up <= b for down, up in bigrades
        )


def test_zero_cochain_of_huge_dimension_is_graded_without_laying_it_out():
    """A zero cochain may declare a dimension no mask or tuple could hold;
    every grading operation answers it without one."""
    n = 2**64
    zero = Cochain.zero(n)
    spec = SemigroupSpec(n, ())
    assert theta_apply(zero, (1, n)) == zero
    assert theta_split(zero, (2,)) == (zero, zero)
    assert project_subalgebra(zero, spec) == zero
    assert in_subalgebra(zero, spec).is_yes and in_ideal(zero, spec, fold=3).is_yes
    assert grading.weight_groups(zero) == grading.bigrade_groups(zero) == []
    assert grading.weights_of(zero) == set()
    assert decompose_by_weight(zero) == decompose_by_bigrade(zero) == {}
    with pytest.raises(ValueError, match="the zero cochain has no filtration index"):
        filtration_index(zero)
