"""Seeded randomized verification of the algebra's defining laws.

Every law suite draws bounded random cochains from a seeded generator
(arity at most 3, exponents at most 3, slot orders at most 2, at most 4
terms), checks an exact identity, and reports the number of checks plus a
witness document on failure.  The CLI's ``verify-axioms`` subcommand and the
acceptance tests both run these suites; determinism comes from the seed, so
a reported counterexample can always be replayed.
"""

from __future__ import annotations

import os
import random
from contextlib import suppress
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .cochains import (
    BasisTerm,
    Cochain,
    Polynomial,
    _Record,
    _int_compositions,
    index_add,
    leibniz_split,
    zero_index,
)
from .grading import (
    SemigroupSpec,
    bigrade_of,
    decompose_by_bigrade,
    decompose_by_weight,
    even_weight_sum,
    filtration_contains,
    filtration_index,
    in_ideal,
    in_subalgebra,
    scaling_field,
    semigroup_member,
    subgroup_complement_check,
    theta_apply,
    theta_split,
    weight_of,
    weights_of,
)
from .operations import (
    _sign,
    bracket,
    cup,
    delta_via_bracket,
    hochschild_delta,
    multiplication_cochain,
)
from .starproduct import obstruction, solve_maurer_cartan, associativity_defect
from .sexpr import cochain_to_node

# ---------------------------------------------------------------------------
# Random generators (all bounds per the desk-scale sampling policy above)
# ---------------------------------------------------------------------------


def random_fraction(rng: random.Random) -> Fraction:
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    return Fraction(num, rng.randint(1, 3))


def random_exponent(rng: random.Random, dim: int, max_total: int) -> tuple[int, ...]:
    total = rng.randint(0, max_total)
    return rng.choice(_int_compositions(total, dim))


def random_basis_term(rng: random.Random, dim: int, arity: int) -> BasisTerm:
    x_part = random_exponent(rng, dim, 3)
    slots = tuple(random_exponent(rng, dim, 2) for _ in range(arity))
    return BasisTerm(dim, x_part, slots)


def random_homogeneous_cochain(
    rng: random.Random, dim: int = 2, arity: Optional[int] = None, max_terms: int = 4
) -> Cochain:
    if arity is None:
        arity = rng.randint(0, 3)
    pairs = []
    for _ in range(rng.randint(1, max_terms)):
        pairs.append((random_basis_term(rng, dim, arity), random_fraction(rng)))
    return Cochain(dim, pairs)


def random_cochain(rng: random.Random, dim: int = 2, max_terms: int = 4) -> Cochain:
    pairs = []
    for _ in range(rng.randint(1, max_terms)):
        pairs.append((random_basis_term(rng, dim, rng.randint(0, 3)), random_fraction(rng)))
    return Cochain(dim, pairs)


def random_polynomial(
    rng: random.Random, dim: int = 2, max_degree: int = 3, max_terms: int = 3
) -> Polynomial:
    pairs = []
    for _ in range(rng.randint(1, max_terms)):
        pairs.append((random_exponent(rng, dim, max_degree), random_fraction(rng)))
    return Polynomial(dim, pairs)


def random_vector_field(rng: random.Random, dim: int = 2) -> Cochain:
    """Arity-1 cochain whose slots are single first derivatives."""
    pairs = []
    for _ in range(rng.randint(1, 2)):
        axis = rng.randrange(dim)
        direction = tuple(1 if j == axis else 0 for j in range(dim))
        pairs.append(
            (BasisTerm(dim, random_exponent(rng, dim, 2), (direction,)), random_fraction(rng))
        )
    return Cochain(dim, pairs)


def random_weight_homogeneous(rng: random.Random, dim: int, weight: Sequence[int]) -> Cochain:
    """Nonzero cochain all of whose terms carry the given weight."""
    weight = tuple(weight)
    terms = {}
    for _ in range(rng.randint(1, 2)):
        arity = rng.randint(1, 3)
        total = tuple(max(0, -w) + rng.randint(0, 2) for w in weight)
        x_part = index_add(weight, total)
        per_dim = [rng.choice(_int_compositions(total[i], arity)) for i in range(dim)]
        slots = tuple(tuple(per_dim[i][j] for i in range(dim)) for j in range(arity))
        terms[BasisTerm(dim, x_part, slots)] = random_fraction(rng)
    return Cochain(dim, terms)


# ---------------------------------------------------------------------------
# Law harness
# ---------------------------------------------------------------------------


class LawResult(_Record):
    """One law's outcome and the s-expression node of its witness, if any;
    unlike the other records, its fields may be reassigned."""

    _names = ("name", "ok", "checks", "witness")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, name: str, ok: bool, checks: int, witness: Optional[tuple] = None):
        self._set(name, ok, checks, witness)


Law = Callable[[random.Random, int], LawResult]
Suite = Callable[[str, random.Random, int], LawResult]
Trial = Callable[[random.Random], Optional[tuple]]

# (name, law) in report order.  Each law is appended by its decorator where it
# is defined; run_laws reads this at call time, so a caller may replace it.
ALL_LAWS: tuple[tuple[str, Law], ...] = ()


def _law_rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _fail(name: str, checks: int, *parts) -> LawResult:
    """A failed result whose witness lists ``parts``; cochains print as documents."""
    nodes = tuple(cochain_to_node(p) if isinstance(p, Cochain) else p for p in parts)
    return LawResult(name, False, checks, ("counterexample",) + nodes)


def _law(name: str) -> Callable[[Suite], Law]:
    """Register a law suite under ``name``; its body is called as ``body(name, rng, trials)``."""

    def register(body: Suite) -> Law:
        global ALL_LAWS

        def law(rng: random.Random, trials: int) -> LawResult:
            return body(name, rng, trials)

        ALL_LAWS += ((name, law),)
        return law

    return register


def _each_trial(name: str) -> Callable[[Trial], Law]:
    """Register a law that checks one identity per trial.

    ``trial(rng)`` draws its inputs and returns ``None`` when the identity
    holds, or else the witness parts of the violation (possibly none).  The
    suite stops at the first violation, reporting the trials run so far.
    """

    def register(trial: Trial) -> Law:
        @_law(name)
        def law(name: str, rng: random.Random, trials: int) -> LawResult:
            for i in range(trials):
                parts = trial(rng)
                if parts is not None:
                    return _fail(name, i + 1, *parts)
            return LawResult(name, True, trials)

        return law

    return register


# -- core model laws --------------------------------------------------------


@_each_trial("canonical-form")
def law_canonical_form(rng: random.Random) -> Optional[tuple]:
    c = random_cochain(rng)
    # split every coefficient in two, shuffle, rebuild: same canonical form
    pairs = []
    for t, coeff in c.items():
        cut = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        pairs.append((t, cut))
        pairs.append((t, coeff - cut))
    rng.shuffle(pairs)
    rebuilt = Cochain(c.dimension, pairs)
    if rebuilt != c or Cochain(c.dimension, dict(c.items())) != c:
        return (c,)
    rejoined = Cochain.zero(c.dimension)
    for part in c.components_by_arity().values():
        rejoined = rejoined + part
    if rejoined != c:
        return (c,)
    args = [random_polynomial(rng) for _ in range(3)]
    homog = random_homogeneous_cochain(rng, arity=3)
    return (homog,) if homog.apply(args) != Cochain(2, dict(homog.items())).apply(args) else None


@_each_trial("canonical-congruence")
def law_canonical_congruence(rng: random.Random) -> Optional[tuple]:
    a = random_cochain(rng)
    b = random_cochain(rng)
    s = random_fraction(rng)
    if (a + b) * s != a * s + b * s or a + b != b + a or a - a != Cochain.zero(2):
        return (a, b)
    return None


@_each_trial("apply-multilinearity")
def law_apply_multilinearity(rng: random.Random) -> Optional[tuple]:
    p = rng.randint(1, 3)
    f = random_homogeneous_cochain(rng, arity=p)
    args = [random_polynomial(rng, max_degree=2) for _ in range(p)]
    j = rng.randrange(p)
    u = random_polynomial(rng, max_degree=2)
    v = random_polynomial(rng, max_degree=2)
    s, t = random_fraction(rng), random_fraction(rng)
    mixed = list(args)
    mixed[j] = u * s + v * t
    left = f.apply(mixed)
    with_u = list(args)
    with_u[j] = u
    with_v = list(args)
    with_v[j] = v
    right = f.apply(with_u) * s + f.apply(with_v) * t
    return (f,) if left != right else None


@_each_trial("leibniz-consistency")
def law_leibniz_consistency(rng: random.Random) -> Optional[tuple]:
    u = random_polynomial(rng, max_degree=3)
    v = random_polynomial(rng, max_degree=3)
    a = random_exponent(rng, 2, 3)
    total = Polynomial.zero(2)
    for b, rest, coeff in leibniz_split(a):
        total = total + u.derive(b) * v.derive(rest) * coeff
    return () if total != (u * v).derive(a) else None


# -- Gerstenhaber structure laws ---------------------------------------------


@_each_trial("cup-associativity")
def law_cup_associativity(rng: random.Random) -> Optional[tuple]:
    f, g, h = (random_cochain(rng) for _ in range(3))
    return (f, g, h) if cup(cup(f, g), h) != cup(f, cup(g, h)) else None


@_each_trial("bracket-antisymmetry")
def law_bracket_antisymmetry(rng: random.Random) -> Optional[tuple]:
    p, q = rng.randint(0, 3), rng.randint(0, 3)
    f = random_homogeneous_cochain(rng, arity=p)
    g = random_homogeneous_cochain(rng, arity=q)
    return (f, g) if bracket(f, g) != bracket(g, f) * -_sign((p + 1) * (q + 1)) else None


@_each_trial("jacobi-identity")
def law_jacobi_identity(rng: random.Random) -> Optional[tuple]:
    arities = [rng.randint(0, 3) for _ in range(3)]
    f, g, h = (random_homogeneous_cochain(rng, arity=p, max_terms=3) for p in arities)
    p, q, r = arities
    total = (
        bracket(f, bracket(g, h)) * _sign((p + 1) * (r + 1))
        + bracket(g, bracket(h, f)) * _sign((q + 1) * (p + 1))
        + bracket(h, bracket(f, g)) * _sign((r + 1) * (q + 1))
    )
    return (f, g, h) if not total.is_zero else None


@_law("delta-squared-zero")
def law_delta_squared(name: str, rng: random.Random, trials: int) -> LawResult:
    if not hochschild_delta(multiplication_cochain(2)).is_zero:
        return _fail(name, 0, multiplication_cochain(2))
    for i in range(trials):
        f = random_cochain(rng)
        if not hochschild_delta(hochschild_delta(f)).is_zero:
            return _fail(name, i + 1, f)
    return LawResult(name, True, trials + 1)


@_each_trial("delta-bracket-agreement")
def law_delta_bracket_agreement(rng: random.Random) -> Optional[tuple]:
    f = random_cochain(rng)
    return (f,) if hochschild_delta(f) != delta_via_bracket(f) else None


@_each_trial("vector-field-leibniz")
def law_vector_field_leibniz(rng: random.Random) -> Optional[tuple]:
    chi = random_vector_field(rng)
    f = random_homogeneous_cochain(rng, max_terms=3)
    g = random_homogeneous_cochain(rng, max_terms=3)
    lhs = bracket(chi, cup(f, g))
    rhs = cup(bracket(chi, f), g) + cup(f, bracket(chi, g))
    return (chi, f, g) if lhs != rhs else None


def _bracket_eval_direct(f: Cochain, g: Cochain, p: int, q: int, args: list[Polynomial]) -> Polynomial:
    """Right-hand side of the bracket's defining sum, evaluated on arguments
    without forming the bracket cochain (independent of the insertion engine)."""
    total = Polynomial.zero(f.dimension)
    for k in range(1, p + 1):
        inner = g.apply(args[k - 1 : k - 1 + q])
        outer = f.apply(args[: k - 1] + [inner] + args[k - 1 + q :])
        total = total + outer * _sign((k - 1) * (q - 1))
    swap = -_sign((p - 1) * (q - 1))
    for k in range(1, q + 1):
        inner = f.apply(args[k - 1 : k - 1 + p])
        outer = g.apply(args[: k - 1] + [inner] + args[k - 1 + p :])
        total = total + outer * (swap * _sign((k - 1) * (p - 1)))
    return total


@_each_trial("evaluation-coherence")
def law_evaluation_coherence(rng: random.Random) -> Optional[tuple]:
    p = rng.randint(0, 2)
    q = rng.randint(max(0, 1 - p), 2)
    f = random_homogeneous_cochain(rng, arity=p, max_terms=2)
    g = random_homogeneous_cochain(rng, arity=q, max_terms=2)
    args = [random_polynomial(rng, max_degree=2, max_terms=2) for _ in range(p + q - 1)]
    via_cochain = bracket(f, g).apply(args)
    direct = _bracket_eval_direct(f, g, p, q, args)
    return (f, g) if via_cochain != direct else None


# -- grading laws ------------------------------------------------------------


@_law("weight-eigenvalue")
def law_weight_eigenvalue(name: str, rng: random.Random, trials: int) -> LawResult:
    checks = 0
    for i in range(trials):
        t = random_basis_term(rng, 2, rng.randint(0, 3))
        c = Cochain.single(t)
        w = weight_of(t)
        for axis in (1, 2):
            checks += 1
            if bracket(scaling_field(2, axis), c) != c * w[axis - 1]:
                return _fail(name, checks, c)
    h1, h2 = scaling_field(2, 1), scaling_field(2, 2)
    if not bracket(h1, h2).is_zero or not bracket(h1, h1).is_zero:
        return _fail(name, checks, h1)
    return LawResult(name, True, checks + 2)


@_each_trial("weight-additivity")
def law_weight_additivity(rng: random.Random) -> Optional[tuple]:
    a = (rng.randint(-2, 2), rng.randint(-2, 2))
    b = (rng.randint(-2, 2), rng.randint(-2, 2))
    f = random_weight_homogeneous(rng, 2, a)
    g = random_weight_homogeneous(rng, 2, b)
    target = index_add(a, b)
    for result in (cup(f, g), bracket(f, g)):
        if weights_of(result) - {target}:
            return (f, g)
    return (f,) if weights_of(hochschild_delta(f)) - {a} else None


@_each_trial("delta-preserves-bigrade")
def law_delta_preserves_bigrade(rng: random.Random) -> Optional[tuple]:
    c = random_cochain(rng)
    for t, _ in c.items():
        bg = bigrade_of(t)
        image = hochschild_delta(Cochain.single(t))
        if any(bigrade_of(s) != bg for s, _ in image.items()):
            return (Cochain.single(t),)
    return None


@_each_trial("decomposition-partition")
def law_decomposition_partition(rng: random.Random) -> Optional[tuple]:
    c = random_cochain(rng)
    total_w = Cochain.zero(2)
    for w, part in decompose_by_weight(c).items():
        if weights_of(part) != {w}:
            return (c,)
        total_w = total_w + part
    total_b = Cochain.zero(2)
    for bg, part in decompose_by_bigrade(c).items():
        if {bigrade_of(t) for t, _ in part.items()} != {bg}:
            return (c,)
        if weights_of(part) != {bg[0]}:
            return (c,)
        total_b = total_b + part
    return (c,) if total_w != c or total_b != c else None


_THETA_SETS = ((1,), (2,), (1, 2))


@_law("theta-involution")
def law_theta_involution(name: str, rng: random.Random, trials: int) -> LawResult:
    checks = 0
    for i in range(trials):
        c = random_cochain(rng)
        for idx in _THETA_SETS:
            checks += 1
            if theta_apply(theta_apply(c, idx), idx) != c:
                return _fail(name, checks, c)
            plus, minus = theta_split(c, idx)
            if plus + minus != c:
                return _fail(name, checks, c)
            if theta_apply(plus, idx) != plus or theta_apply(minus, idx) != -minus:
                return _fail(name, checks, c)
            if any(not even_weight_sum(idx, w) for w in weights_of(plus)):
                return _fail(name, checks, plus)
    return LawResult(name, True, checks)


@_law("theta-automorphism")
def law_theta_automorphism(name: str, rng: random.Random, trials: int) -> LawResult:
    checks = 0
    for i in range(trials):
        f = random_cochain(rng, max_terms=3)
        g = random_cochain(rng, max_terms=3)
        for idx in _THETA_SETS:
            checks += 1
            tf, tg = theta_apply(f, idx), theta_apply(g, idx)
            if theta_apply(cup(f, g), idx) != cup(tf, tg):
                return _fail(name, checks, f, g)
            if theta_apply(bracket(f, g), idx) != bracket(tf, tg):
                return _fail(name, checks, f, g)
    return LawResult(name, True, checks)


@_law("theta-split-table")
def law_theta_split_table(name: str, rng: random.Random, trials: int) -> LawResult:
    checks = 0
    for i in range(trials):
        idx = _THETA_SETS[i % len(_THETA_SETS)]
        plus_f, minus_f = theta_split(random_cochain(rng, max_terms=3), idx)
        plus_g, minus_g = theta_split(random_cochain(rng, max_terms=3), idx)
        table = (
            (plus_f, plus_g, 1),
            (plus_f, minus_g, -1),
            (minus_f, plus_g, -1),
            (minus_f, minus_g, 1),
        )
        for a, b, expected in table:
            for op in (cup, bracket):
                checks += 1
                result = op(a, b)
                if theta_apply(result, idx) != result * expected:
                    return _fail(name, checks, a, b)
        checks += 1
        delta_plus = hochschild_delta(plus_f)
        if theta_apply(delta_plus, idx) != delta_plus:
            return _fail(name, checks, plus_f)
    return LawResult(name, True, checks)


_SAMPLE_SEMIGROUPS = (
    ((-1, -1),),
    ((0, -1),),
    ((1, 0), (-1, 0)),
)


def _random_semigroup_weight(
    rng: random.Random, spec: SemigroupSpec, min_count: int = 1
) -> tuple[int, ...]:
    count = rng.randint(min_count, 3)
    total = zero_index(spec.dimension)
    for _ in range(count):
        total = index_add(total, rng.choice(spec.generators))
    return total


@_law("semigroup-closure")
def law_semigroup_closure(name: str, rng: random.Random, trials: int) -> LawResult:
    checks = 0
    for gens in _SAMPLE_SEMIGROUPS:
        spec = SemigroupSpec(dimension=2, generators=gens)
        for _ in range(trials):
            f = random_weight_homogeneous(rng, 2, _random_semigroup_weight(rng, spec))
            g = random_weight_homogeneous(rng, 2, _random_semigroup_weight(rng, spec))
            if not in_subalgebra(f, spec).is_yes:
                return _fail(name, checks, f)
            for result in (cup(f, g), bracket(f, g), hochschild_delta(f)):
                checks += 1
                if not result.is_zero and not in_subalgebra(result, spec).is_yes:
                    return _fail(name, checks, f, g)
    return LawResult(name, True, checks)


@_law("ideal-absorption")
def law_ideal_absorption(name: str, rng: random.Random, trials: int) -> LawResult:
    checks = 0
    for gens in _SAMPLE_SEMIGROUPS:
        spec = SemigroupSpec(dimension=2, generators=gens)
        for _ in range(trials):
            f = random_weight_homogeneous(
                rng, 2, _random_semigroup_weight(rng, spec, min_count=2)
            )
            g = random_weight_homogeneous(rng, 2, _random_semigroup_weight(rng, spec))
            if not in_ideal(f, spec, fold=2).is_yes:
                return _fail(name, checks, f)
            for result in (cup(f, g), cup(g, f), bracket(f, g)):
                checks += 1
                if not result.is_zero and not in_ideal(result, spec, fold=2).is_yes:
                    return _fail(name, checks, f, g)
    return LawResult(name, True, checks)


@_law("ideal-sum-criterion")
def law_ideal_sum_criterion(name: str, rng: random.Random, trials: int) -> LawResult:
    """2-fold ideal equals the subalgebra exactly when the semigroup is sum-stable."""
    stable = SemigroupSpec(dimension=2, generators=((1, 0), (-1, 0), (0, 1), (0, -1)))
    checks = 0
    for _ in range(trials):
        w = _random_semigroup_weight(rng, stable)
        checks += 1
        member = semigroup_member(stable, w)
        ideal = semigroup_member(stable, w, min_count=2)
        if not (member.is_yes and ideal.is_yes):
            return _fail(name, checks, ("weight",) + w)
    unstable = SemigroupSpec(dimension=2, generators=((-1, -1),))
    checks += 2
    if not semigroup_member(unstable, (-1, -1)).is_yes:
        return _fail(name, checks)
    if not semigroup_member(unstable, (-1, -1), min_count=2).is_no:
        return _fail(name, checks)
    return LawResult(name, True, checks)


@_law("subgroup-criterion")
def law_subgroup_criterion(name: str, rng: random.Random, trials: int) -> LawResult:
    lattice = SemigroupSpec(dimension=2, generators=((2, 0), (-2, 0), (0, 1), (0, -1)))
    ray = SemigroupSpec(dimension=2, generators=((1, 0),))
    good = subgroup_complement_check(lattice, trials=max(trials // 4, 5), seed=rng.randrange(2**30))
    bad = subgroup_complement_check(ray, trials=max(trials // 4, 5), seed=rng.randrange(2**30))
    checks = good.samples_run + bad.samples_run + 2
    if good.is_subgroup != "yes" or not good.consistent:
        return _fail(name, checks, ("candidate", "lattice"))
    if bad.is_subgroup != "no" or not bad.consistent or bad.counterexample is None:
        return _fail(name, checks, ("candidate", "ray"))
    h, k = bad.counterexample
    return LawResult(name, True, checks, ("witness", h, k, index_add(h, k)))


@_each_trial("filtration-product-rule")
def law_filtration_product_rule(rng: random.Random) -> Optional[tuple]:
    a = (rng.randint(-2, 2), rng.randint(-2, 2))
    b = (rng.randint(-2, 2), rng.randint(-2, 2))
    f = random_weight_homogeneous(rng, 2, a)
    g = random_weight_homogeneous(rng, 2, b)
    alpha = filtration_index(f)
    beta = filtration_index(g)
    target = (index_add(alpha[0], beta[0]), index_add(alpha[1], beta[1]))
    for result in (cup(f, g), bracket(f, g)):
        if not result.is_zero and not filtration_contains(result, target):
            return (f, g)
    df = hochschild_delta(f)
    return (f,) if not df.is_zero and not filtration_contains(df, alpha) else None


@_each_trial("filtration-monotonicity")
def law_filtration_monotonicity(rng: random.Random) -> Optional[tuple]:
    c = random_cochain(rng)
    if c.is_zero:
        return None
    alpha = filtration_index(c)
    bumps = (
        (alpha[0], index_add(alpha[1], (1, 0))),
        (index_add(alpha[0], (1, 0)), index_add(alpha[1], (1, 0))),
        (alpha[0], index_add(alpha[1], (0, 2))),
    )
    for beta in bumps:
        if not alpha <= beta or not filtration_contains(c, beta):
            return (c,)
    return (c,) if not filtration_contains(c, alpha) else None


@_law("filtration-literal-gap")
def law_filtration_literal_gap(name: str, rng: random.Random, trials: int) -> LawResult:
    """The printed, weight-pinning reading of the stages is not monotone."""
    m = multiplication_cochain(2)
    alpha = ((0, 0), (0, 0))
    beta = ((0, 1), (0, 1))
    ok = (
        alpha < beta
        and filtration_contains(m, alpha, mode="literal")
        and not filtration_contains(m, beta, mode="literal")
        and filtration_contains(m, beta, mode="cumulative")
    )
    if not ok:
        return _fail(name, 1, m)
    return LawResult(name, True, 1, ("witness", ("alpha",) + alpha, ("beta",) + beta))


# -- star-product laws -------------------------------------------------------


def _bivector(x_part: tuple[int, int]) -> Cochain:
    """``x^x_part (d_1 ^ d_2)``: the constant bivector at (0, 0), the linear one at (1, 0)."""
    return Cochain(
        2,
        {
            BasisTerm(2, x_part, ((1, 0), (0, 1))): 1,
            BasisTerm(2, x_part, ((0, 1), (1, 0))): -1,
        },
    )


@_law("mc-order-correctness")
def law_mc_order_correctness(name: str, rng: random.Random, trials: int) -> LawResult:
    deformation = solve_maurer_cartan(_bivector((0, 0)), order=3)
    checks = 0
    for k in range(2, 4):
        checks += 2
        b_k = obstruction(deformation, k)
        if not hochschild_delta(b_k).is_zero:
            return _fail(name, checks, ("order", k))
        if hochschild_delta(deformation.coefficient(k)) != b_k:
            return _fail(name, checks, ("order", k))
    again = solve_maurer_cartan(_bivector((0, 0)), order=3)
    checks += 1
    if again != deformation:
        return _fail(name, checks, ("order", 0))
    return LawResult(name, True, checks)


@_law("mc-ideal-confinement")
def law_mc_ideal_confinement(name: str, rng: random.Random, trials: int) -> LawResult:
    spec = SemigroupSpec(dimension=2, generators=((0, -1),))
    deformation = solve_maurer_cartan(_bivector((1, 0)), order=3, delta_spec=spec)
    checks = 0
    for k in range(2, 4):
        checks += 1
        if not in_ideal(deformation.coefficient(k), spec, fold=2).is_yes:
            return _fail(name, checks, ("order", k))
    return LawResult(name, True, checks)


@_law("star-associativity")
def law_star_associativity(name: str, rng: random.Random, trials: int) -> LawResult:
    deformation = solve_maurer_cartan(_bivector((0, 0)), order=3)
    rounds = min(max(trials // 10, 3), 10)
    for i in range(rounds):
        f, g, h = (random_polynomial(rng, max_degree=3) for _ in range(3))
        if associativity_defect(deformation, f, g, h):
            return _fail(name, i + 1)
    return LawResult(name, True, rounds)


@_law("moyal-agreement")
def law_moyal_agreement(name: str, rng: random.Random, trials: int) -> LawResult:
    deformation = solve_maurer_cartan(_bivector((0, 0)), order=2)
    eighth = Fraction(1, 8)
    moyal_p2 = Cochain(
        2,
        {
            BasisTerm(2, (0, 0), ((2, 0), (0, 2))): eighth,
            BasisTerm(2, (0, 0), ((1, 1), (1, 1))): -2 * eighth,
            BasisTerm(2, (0, 0), ((0, 2), (2, 0))): eighth,
        },
    )
    b2 = obstruction(deformation, 2)
    solver_p2 = deformation.coefficient(2)
    ok = (
        hochschild_delta(moyal_p2) == b2
        and hochschild_delta(solver_p2) == b2
        and hochschild_delta(solver_p2 - moyal_p2).is_zero
    )
    return LawResult(name, True, 3) if ok else _fail(name, 3, solver_p2)


def run_laws(seed: int, trials: int, names: Optional[Sequence[str]] = None) -> list[LawResult]:
    """Run the law suites with per-law derived seeds; deterministic in (seed, trials).

    Each suite draws only from its own ``_law_rng``, so it may run in ``_share_out``'s
    forked child; one whose result did not come back (it raised, or the child died)
    runs here in report order, raising what a one-process run raises."""
    wanted = None if names is None else set(names)
    selected = tuple((n, law) for n, law in ALL_LAWS if wanted is None or n in wanted)
    done = _share_out(seed, trials, selected)
    return [done[i] if i in done else law(_law_rng(seed, name), trials) for i, (name, law) in enumerate(selected)]


def _share_out(seed: int, trials: int, selected: tuple) -> dict[int, LawResult]:
    """The results, by index, of suites claimed from a pipe here and in one forked child
    (which stops once orphaned); none on one CPU or if ``os.pipe`` or ``os.fork`` fails."""
    import pickle
    import signal

    def claim(claims: int, done: dict) -> dict[int, LawResult]:
        while parent in (os.getpid(), os.getppid()) and (record := os.read(claims, 2)):
            i = int.from_bytes(record, "little")
            with suppress(Exception):  # run_laws replays it in report order
                done[i] = selected[i][1](_law_rng(seed, selected[i][0]), trials)
        return done

    parent, fds = os.getpid(), []
    try:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        if min(cpus or 1, len(selected)) < 2:
            return {}
        fds += os.pipe()
        os.write(fds[1], b"".join(i.to_bytes(2, "little") for i in range(len(selected))))
        os.close(fds.pop())
        fds += os.pipe()
        pid = os.fork()
    except (AttributeError, OSError):
        for fd in fds:
            os.close(fd)
        return {}
    claims, back, out = fds
    if pid == 0:  # never returns: no inherited stdio flushed, no exit handlers run
        try:
            os.close(back)
            os.write(out, pickle.dumps(claim(claims, {})))
        finally:
            os._exit(0)
    os.close(out)
    results, done = os.fdopen(back, "rb"), {}
    try:
        with suppress(Exception):  # the child was killed or could not send all its results
            claim(claims, done)
            done.update(pickle.load(results))
    finally:  # the child has sent its results or is of no more use
        results.close(), os.close(claims)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    return done
