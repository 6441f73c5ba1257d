import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerstenhaber import (
    BasisTerm,
    Cochain,
    CoboundaryError,
    Deformation,
    Polynomial,
    SemigroupSpec,
    associativity_defect,
    bigrade_of,
    bracket,
    build_block,
    decompose_by_bigrade,
    hochschild_delta,
    in_ideal,
    obstruction,
    solve_delta,
    solve_maurer_cartan,
    star_apply,
    weight_of,
)
from gerstenhaber.cochains import ArityError, DimensionMismatchError, _indices
from gerstenhaber.linsolve import solve_particular, solve_unique
from gerstenhaber.axioms import random_homogeneous_cochain, random_polynomial
from pivot_reference import block_pivots, reference_solve_delta


def term(x_part, *slots):
    return BasisTerm(2, x_part, slots)


def constant_bivector():
    return Cochain(2, {term((0, 0), (1, 0), (0, 1)): 1, term((0, 0), (0, 1), (1, 0)): -1})


def linear_bivector():
    return Cochain(2, {term((1, 0), (1, 0), (0, 1)): 1, term((1, 0), (0, 1), (1, 0)): -1})


X1 = Polynomial.variable(2, 1)
X2 = Polynomial.variable(2, 2)


# -- obstruction ---------------------------------------------------------------


def test_obstruction_first_order_is_zero():
    d = Deformation(dimension=2, cochains=(constant_bivector() * Fraction(1, 2),))
    assert obstruction(d, 1).is_zero


def test_obstruction_second_order_is_half_self_bracket():
    p1 = constant_bivector() * Fraction(1, 2)
    d = Deformation(dimension=2, cochains=(p1,))
    assert obstruction(d, 2) == bracket(p1, p1) * Fraction(1, 2)
    assert not obstruction(d, 2).is_zero


def test_obstruction_of_zero_deformation():
    d = Deformation(dimension=2, cochains=(Cochain.zero(2),))
    assert obstruction(d, 2).is_zero


def test_obstruction_needs_lower_orders():
    d = Deformation(dimension=2, cochains=(constant_bivector() * Fraction(1, 2),))
    with pytest.raises(ValueError):
        obstruction(d, 3)


def x1x2_bivector():
    return Cochain(2, {term((1, 1), (1, 0), (0, 1)): 1, term((1, 1), (0, 1), (1, 0)): -1})


def _seeded_deformation(seed, order):
    rng = random.Random(seed)
    return Deformation(
        dimension=2,
        cochains=tuple(random_homogeneous_cochain(rng, arity=2, max_terms=3) for _ in range(order)),
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: solve_maurer_cartan(constant_bivector(), 7),
        lambda: solve_maurer_cartan(linear_bivector(), 7),
        # k = 8 for x1*x2 would need p_7, a half-minute solve; its obstructions stop at k = 6.
        lambda: solve_maurer_cartan(x1x2_bivector(), 5),
        lambda: _seeded_deformation(17, 7),
    ],
    ids=["constant", "x1", "x1*x2", "seeded"],
)
def test_obstruction_equals_literal_half_sum(make):
    """One bracket per pair {i, j} gives the literal 1/2 sum_{i+j=k} [p_i, p_j]."""
    d = make()
    for k in range(1, d.order + 2):
        literal = Cochain.zero(2)
        for i in range(1, k):
            literal = literal + bracket(d.coefficient(i), d.coefficient(k - i))
        assert obstruction(d, k) == literal * Fraction(1, 2)


def test_obstructions_closed_for_solver_output():
    d = solve_maurer_cartan(constant_bivector(), 4)
    for k in range(2, 5):
        assert hochschild_delta(obstruction(d, k)).is_zero


# -- blocks --------------------------------------------------------------------


def slot_list(block, arity):
    """The slots of a packed dimension-2 slot block: those of the key with x-part zero."""
    return _indices(2, (1 << 32 * (arity + 1)) | block)[1:]


def test_block_composition_count():
    block = build_block((2, 2))
    assert len(block.slots2) == 9  # ordered pairs summing to (2, 2)
    indices = [(a, b) for a in range(3) for b in range(3)]
    slots3 = {(s, t, (2 - s[0] - t[0], 2 - s[1] - t[1]))
              for s in indices for t in indices if s[0] + t[0] <= 2 and s[1] + t[1] <= 2}
    assert len(slots3) == 36  # ordered triples summing to (2, 2)
    assert len(block.columns) == 9
    for column in block.columns:
        assert column and {slot_list(s, 3) for s in column} <= slots3
    # One 2-cocycle in the block, so the coboundary has rank 9 - 1; the
    # reference's pivots and their rows carry a nonsingular square system.
    pivots = block_pivots((2, 2))
    assert len(pivots) == 8
    assert {slot_list(row, 3) for _, row in pivots} <= slots3
    square = [[block.columns[c].get(row, 0) for c, _ in pivots] for _, row in pivots]
    assert solve_unique(square, [0] * 8) == [0] * 8
    # The sparse rows have the same rank: the cocycle is the one free variable.
    keys = sorted({s for column in block.columns for s in column}, reverse=True)
    rows = [[(c, column[key]) for c, column in enumerate(block.columns) if key in column] for key in keys]
    assert solve_particular(rows, [0] * len(rows), 9) == [0] * 9
    free = set(range(9)) - {c for c, _ in pivots}
    assert len(free) == 1
    solution = solve_particular(rows, [sum(v for c, v in row if c in free) for row in rows], 9)
    assert solution is not None and all(v == 0 for c, v in enumerate(solution) if c in free)


def test_diagonal_block_is_single_term():
    block = build_block((0, 0))  # the slot total of every bigrade (w, w)
    assert [slot_list(s, 2) for s in block.slots2] == [((0, 0), (0, 0))]


def test_block_columns_are_coboundary_coordinates():
    block = build_block((1, 1))
    for x_part in ((0, 0), (3, 1)):
        for c, slots in enumerate(block.slots2):
            image = hochschild_delta(Cochain.single(term(x_part, *slot_list(slots, 2))))
            column = [(term(x_part, *slot_list(s, 3)), v) for s, v in block.columns[c].items()]
            assert all(v for _, v in column)
            assert image == Cochain(2, column)


def test_negative_slot_total_rejected():
    with pytest.raises(ValueError):
        build_block((-1, 0))


# -- solve_delta ---------------------------------------------------------------


def test_solve_delta_zero():
    assert solve_delta(Cochain.zero(2)).is_zero


def test_solve_delta_roundtrip_random():
    rng = random.Random(101)
    found_nonzero = 0
    for _ in range(40):
        y = random_homogeneous_cochain(rng, arity=2, max_terms=3)
        b = hochschild_delta(y)
        if b.is_zero:
            continue
        found_nonzero += 1
        x = solve_delta(b)
        assert hochschild_delta(x) == b
    assert found_nonzero > 20


def test_solve_delta_rejects_non_coboundary():
    rng = random.Random(103)
    y = random_homogeneous_cochain(rng, arity=2, max_terms=3)
    b = hochschild_delta(y)
    while b.is_zero:
        y = random_homogeneous_cochain(rng, arity=2, max_terms=3)
        b = hochschild_delta(y)
    # perturb single arity-3 terms until the block system becomes inconsistent
    corrupted = None
    for t, _ in b.items():
        candidate = b + Cochain(2, {t: Fraction(1, 3)})
        try:
            solve_delta(candidate)
        except CoboundaryError as err:
            corrupted = err.bigrade
            break
    assert corrupted == bigrade_of(t)


# Not closed, so not coboundaries: each alone makes its block inconsistent.
NOT_EXACT = term((0, 0), (2, 0), (1, 1), (1, 0))  # bigrade ((-4, -1), (4, 1))
NOT_EXACT_LATER = term((1, 0), (2, 0), (1, 1), (1, 0))  # bigrade ((-3, -1), (5, 1))


def test_solve_delta_names_an_inconsistent_block_after_a_consistent_one():
    exact = hochschild_delta(Cochain.single(term((0, 0), (3, 0), (2, 1))))
    assert max(decompose_by_bigrade(exact)) < bigrade_of(NOT_EXACT)
    with pytest.raises(CoboundaryError) as caught:
        solve_delta(exact + Cochain.single(NOT_EXACT))
    assert caught.value.bigrade == bigrade_of(NOT_EXACT) == ((-4, -1), (4, 1))


def test_solve_delta_names_the_smaller_of_two_inconsistent_blocks():
    assert bigrade_of(NOT_EXACT) < bigrade_of(NOT_EXACT_LATER)
    exact = hochschild_delta(Cochain.single(term((0, 0), (3, 0), (2, 1))))
    target = Cochain.single(NOT_EXACT_LATER) + exact + Cochain(2, {NOT_EXACT: Fraction(-2, 3)})
    with pytest.raises(CoboundaryError) as caught:
        solve_delta(target)
    assert caught.value.bigrade == bigrade_of(NOT_EXACT)


# -- solve_delta against the column-pivot reference ----------------------------

COEFFICIENT = st.fractions(min_value=-4, max_value=4, max_denominator=6)
X_PART = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def slot_lists(draw, slot_total, arity):
    """An ordered list of ``arity`` slots summing to ``slot_total``."""
    slots, left = [], slot_total
    for _ in range(arity - 1):
        slot = tuple(draw(st.integers(0, r)) for r in left)
        slots.append(slot)
        left = tuple(r - s for r, s in zip(left, slot))
    return (*slots, left)


@st.composite
def block_cochains(draw, slot_total):
    """An arity-2 cochain in the blocks of ``slot_total`` at one or two x-parts."""
    pairs = [
        (term(x_part, *draw(slot_lists(slot_total, 2))), draw(COEFFICIENT))
        for x_part in draw(st.lists(X_PART, min_size=1, max_size=2))
        for _ in range(draw(st.integers(1, 4)))
    ]
    return Cochain(2, pairs)


SLOT_TOTAL = st.tuples(st.integers(0, 8), st.integers(0, 8))


@pytest.mark.parametrize("slot_total", [(a, b) for a in range(9) for b in range(9)], ids=lambda t: f"{t[0]}-{t[1]}")
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_solve_delta_matches_column_pivot_reference(slot_total, data):
    """Closed targets, the coboundaries of random 2-cochains in this slot
    total (and maybe one more), give exactly the reference preimage; a
    perturbed target raises where the reference does, naming its bigrade."""
    y = data.draw(block_cochains(slot_total))
    if data.draw(st.booleans()):
        y = y + data.draw(block_cochains(data.draw(SLOT_TOTAL)))
    target = hochschild_delta(y)
    assert solve_delta(target) == reference_solve_delta(target)
    noise = term(data.draw(X_PART), *data.draw(slot_lists(data.draw(st.sampled_from([slot_total, (8, 8)])), 3)))
    perturbed = target + Cochain(2, {noise: data.draw(COEFFICIENT.filter(bool))})
    try:
        expected = reference_solve_delta(perturbed)
    except CoboundaryError as err:
        with pytest.raises(CoboundaryError) as caught:
            solve_delta(perturbed)
        assert caught.value.bigrade == err.bigrade
    else:
        assert hochschild_delta(perturbed).is_zero  # only a closed target is exact
        assert solve_delta(perturbed) == expected


def test_solve_delta_requires_arity_three():
    with pytest.raises(ArityError):
        solve_delta(Cochain.single(term((0, 0), (1, 0))))


def test_solve_delta_deterministic():
    rng = random.Random(107)
    y = random_homogeneous_cochain(rng, arity=2, max_terms=3)
    b = hochschild_delta(y)
    assert solve_delta(b) == solve_delta(b)


# -- the full recursion ---------------------------------------------------------


def test_solver_applies_the_coboundary_once_per_order(monkeypatch):
    """No closedness check of the obstruction on the success path: the only
    coboundaries are that of p_1 and the check of each p_k inside solve_delta."""
    arities = []

    def counting(c):
        arities.append(c.arities())
        return hochschild_delta(c)

    monkeypatch.setattr("gerstenhaber.starproduct.hochschild_delta", counting)
    d = solve_maurer_cartan(linear_bivector(), 5)
    assert all(not d.coefficient(k).is_zero for k in range(1, 6))
    assert arities == [(2,)] * 5


def test_constant_symplectic_solves_to_order_four():
    d = solve_maurer_cartan(constant_bivector(), 4)
    for k in range(2, 5):
        assert hochschild_delta(d.coefficient(k)) == obstruction(d, k)
        weights = {weight_of(t) for t, _ in d.coefficient(k).items()}
        assert weights <= {(-k, -k)}


def test_zero_bivector_gives_zero_deformation():
    d = solve_maurer_cartan(Cochain.zero(2), 3)
    assert all(d.coefficient(k).is_zero for k in range(1, 4))


def test_linear_bivector_confined_to_ideal():
    spec = SemigroupSpec(dimension=2, generators=((0, -1),))
    d = solve_maurer_cartan(linear_bivector(), 4, delta_spec=spec)
    for k in range(2, 5):
        assert in_ideal(d.coefficient(k), spec, fold=2).is_yes
        weights = {weight_of(t) for t, _ in d.coefficient(k).items()}
        assert weights <= {(0, -k)}


def test_solver_requires_dimension_two():
    pi1 = Cochain(3, {BasisTerm(3, (0, 0, 0), ((1, 0, 0), (0, 1, 0))): 1})
    with pytest.raises(DimensionMismatchError):
        solve_maurer_cartan(pi1, 2)


def test_solver_rejects_non_cocycle():
    # second-order slots break the cocycle condition
    bad = Cochain(2, {term((0, 0), (2, 0), (0, 1)): 1})
    with pytest.raises(ValueError):
        solve_maurer_cartan(bad, 2)


def test_solver_rejects_bivector_outside_subalgebra():
    spec = SemigroupSpec(dimension=2, generators=((-1, -1),))
    with pytest.raises(ValueError):
        solve_maurer_cartan(linear_bivector(), 2, delta_spec=spec)


def test_solver_gauge_deterministic():
    assert solve_maurer_cartan(constant_bivector(), 3) == solve_maurer_cartan(
        constant_bivector(), 3
    )


def test_obstruction_weights_are_order_fold_sums():
    d = solve_maurer_cartan(linear_bivector(), 4)
    base = {(0, -1)}
    for k in range(2, 5):
        b_k = obstruction(d, k)
        for w in {weight_of(t) for t, _ in b_k.items()}:
            assert w == (0, -k)  # k-fold sum of the bivector's single weight


# -- the deformed product --------------------------------------------------------


def test_star_canonical_commutation():
    d = solve_maurer_cartan(constant_bivector(), 3)
    left = star_apply(d, X1, X2)
    right = star_apply(d, X2, X1)
    orders = sorted(set(left) | set(right))
    commutator = {
        k: left.get(k, Polynomial.zero(2)) - right.get(k, Polynomial.zero(2)) for k in orders
    }
    commutator = {k: v for k, v in commutator.items() if not v.is_zero}
    assert commutator == {1: Polynomial.constant(2, 1)}


def test_star_order_zero_is_plain_product():
    d = solve_maurer_cartan(linear_bivector(), 3)
    rng = random.Random(109)
    for _ in range(10):
        f, g = random_polynomial(rng), random_polynomial(rng)
        series = star_apply(d, f, g)
        assert series.get(0, Polynomial.zero(2)) == f * g


def test_star_with_constant_argument():
    d = solve_maurer_cartan(constant_bivector(), 3)
    one = Polynomial.constant(2, 1)
    rng = random.Random(113)
    for _ in range(10):
        g = random_polynomial(rng)
        assert star_apply(d, one, g) == ({0: g} if not g.is_zero else {})
        assert star_apply(d, g, one) == ({0: g} if not g.is_zero else {})


def test_associativity_defect_vanishes_for_solver_output():
    d = solve_maurer_cartan(constant_bivector(), 3)
    rng = random.Random(127)
    for _ in range(20):
        f, g, h = (random_polynomial(rng, max_degree=3) for _ in range(3))
        assert associativity_defect(d, f, g, h) == {}


def test_zeroing_a_coefficient_breaks_associativity_by_the_obstruction():
    d = solve_maurer_cartan(constant_bivector(), 2)
    broken = Deformation(dimension=2, cochains=(d.coefficient(1), Cochain.zero(2)))
    b2 = obstruction(d, 2)
    rng = random.Random(131)
    saw_nonzero = False
    for _ in range(10):
        f, g, h = (random_polynomial(rng, max_degree=2) for _ in range(3))
        defect = associativity_defect(broken, f, g, h)
        assert set(defect) <= {2}
        expected = b2.apply([f, g, h])
        observed = defect.get(2, Polynomial.zero(2))
        assert observed == expected
        saw_nonzero = saw_nonzero or not expected.is_zero
    assert saw_nonzero


def test_order_zero_defect_always_zero():
    d = Deformation(dimension=2, cochains=(constant_bivector() * Fraction(1, 2),))
    rng = random.Random(137)
    for _ in range(10):
        f, g, h = (random_polynomial(rng) for _ in range(3))
        defect = associativity_defect(d, f, g, h)
        assert 0 not in defect
