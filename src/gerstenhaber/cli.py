"""Command-line frontend.

Reads s-expression documents from files (or standard input for ``-``),
dispatches to the library, and writes one document to standard output; the
global ``--json`` flag switches to the JSON mirror of the same structure.

Exit codes: 0 success, 1 parse or precondition failure, 2 verification
failure (a law or a requested check is violated), 3 a semigroup membership
decision was required but came back inconclusive.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from functools import lru_cache
from typing import Optional, Sequence

from .cochains import ArityError, Cochain, DimensionMismatchError, Polynomial
from .grading import (
    InconclusiveMembershipError,
    SemigroupSpec,
    decompose_by_bigrade,
    decompose_by_weight,
    filtration_contains,
    filtration_index,
    in_ideal,
    project_subalgebra,
    semigroup_member,
    theta_apply,
    theta_split,
)
from .operations import bracket, cup, hochschild_delta
from .starproduct import (
    CoboundaryError,
    SelfCheckError,
    SlotOrderCapError,
    associativity_defect,
    solve_maurer_cartan,
    star_apply,
)
from . import axioms, sexpr

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_INCONCLUSIVE = 3


@lru_cache(maxsize=1)
def _stdin_text() -> str:
    """Standard input, read once per ``main`` call, so ``-`` may be given twice."""
    if isinstance(sys.stdin, io.TextIOWrapper):
        sys.stdin.reconfigure(newline="")
    return sys.stdin.read()


def _read_text(path: str) -> str:
    # newline="": CR and CRLF reach the parser as written, so an error's line
    # and column are those parse_sexpr gives for the same text.
    if path == "-":
        return _stdin_text()
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return handle.read()


def _load(path: str, kind: str):
    document = sexpr.parse_document(_read_text(path))
    got = sexpr.kind_of(document)
    if got != kind:
        raise ValueError(f"{path}: expected a {kind} document, got {got}")
    return document


def _parse_vector(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers, got {text!r}") from None


def _parse_alpha(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    low, sep, high = text.partition(":")
    if not sep:
        raise ValueError("filtration index must look like 'a1,a2:b1,b2'")
    return _parse_vector(low, "filtration index"), _parse_vector(high, "filtration index")


def _semigroup_from_args(args, dimension: int) -> SemigroupSpec:
    if not args.gen:
        raise ValueError("at least one --gen generator is required")
    return SemigroupSpec(
        dimension=dimension,
        generators=tuple(_parse_vector(g, "--gen") for g in args.gen),
        search_cap=args.cap,
    )


def _require_at_least(count: int, flag: str, minimum: int = 1) -> None:
    """Refuse a budget or count flag before any work, naming the flag."""
    if count < minimum:
        raise ValueError(f"{flag} must be at least {minimum}")


def _report(dimension: int, *body) -> tuple:
    return ("report", dimension) + body


def _poly_terms(p: Polynomial) -> tuple:
    return sexpr.polynomial_to_node(p)[2:]


def _cochain_terms(c: Cochain) -> tuple:
    return sexpr.cochain_to_node(c)[2:]


def _series_body(series: dict[int, Polynomial]) -> tuple:
    return tuple(("tpow", k) + _poly_terms(p) for k, p in sorted(series.items()))


def _membership_body(decision) -> tuple:
    body = [("member", decision.status)]
    if decision.certificate is not None:
        body.append(("certificate",) + decision.certificate)
    return tuple(body)


# ---------------------------------------------------------------------------
# Subcommand handlers; each returns the document to print (None: print
# nothing) and the exit code.
# ---------------------------------------------------------------------------


def _cmd_binary(args, operation) -> tuple:
    left = _load(args.left, "cochain")
    right = _load(args.right, "cochain")
    return operation(left, right), EXIT_OK


def _cmd_delta(args) -> tuple:
    c = _load(args.cochain, "cochain")
    return hochschild_delta(c), EXIT_OK


def _cmd_apply(args) -> tuple:
    c = _load(args.cochain, "cochain")
    polys = [_load(path, "poly") for path in args.args]
    return c.apply(polys), EXIT_OK


def _cmd_weight(args) -> tuple:
    c = _load(args.cochain, "cochain")
    body = tuple(
        ("weight", w) + _cochain_terms(part) for w, part in decompose_by_weight(c).items()
    )
    return _report(c.dimension, *body), EXIT_OK


def _cmd_bigrade(args) -> tuple:
    c = _load(args.cochain, "cochain")
    body = tuple(
        ("bigrade", bg[0], bg[1]) + _cochain_terms(part)
        for bg, part in decompose_by_bigrade(c).items()
    )
    return _report(c.dimension, *body), EXIT_OK


def _cmd_member(args) -> tuple:
    _require_at_least(args.cap, "--cap")
    target = _parse_vector(args.weight, "weight")
    spec = _semigroup_from_args(args, len(target))
    decision = semigroup_member(spec, target, min_count=1)
    code = EXIT_INCONCLUSIVE if decision.status == "inconclusive" else EXIT_OK
    return _report(spec.dimension, *_membership_body(decision)), code


def _cmd_ideal_member(args) -> tuple:
    _require_at_least(args.cap, "--cap")
    _require_at_least(args.fold, "--fold")
    c = _load(args.cochain, "cochain")
    spec = _semigroup_from_args(args, c.dimension)
    decision = in_ideal(c, spec, fold=args.fold)
    code = EXIT_INCONCLUSIVE if decision.status == "inconclusive" else EXIT_OK
    return _report(c.dimension, ("ideal-member", decision.status), ("fold", args.fold)), code


def _cmd_project(args) -> tuple:
    _require_at_least(args.cap, "--cap")
    c = _load(args.cochain, "cochain")
    projected = project_subalgebra(c, _semigroup_from_args(args, c.dimension))
    member = "yes" if projected == c else "no"
    body = (("member", member), ("projection",) + _cochain_terms(projected))
    return _report(c.dimension, *body), EXIT_OK


def _cmd_theta(args) -> tuple:
    c = _load(args.cochain, "cochain")
    indices = _parse_vector(args.indices, "--indices")
    return theta_apply(c, indices), EXIT_OK


def _cmd_theta_split(args) -> tuple:
    c = _load(args.cochain, "cochain")
    indices = _parse_vector(args.indices, "--indices")
    plus, minus = theta_split(c, indices)
    body = (("plus",) + _cochain_terms(plus), ("minus",) + _cochain_terms(minus))
    return _report(c.dimension, *body), EXIT_OK


def _cmd_filtration(args) -> tuple:
    c = _load(args.cochain, "cochain")
    if args.alpha is not None:
        alpha = _parse_alpha(args.alpha)
        verdict = "yes" if filtration_contains(c, alpha, mode=args.mode) else "no"
        return _report(c.dimension, ("mode", args.mode), ("contains", verdict)), EXIT_OK
    index = filtration_index(c, mode=args.mode)
    return _report(c.dimension, ("mode", args.mode), ("index", index[0], index[1])), EXIT_OK


def _cmd_mc_solve(args) -> tuple:
    _require_at_least(args.order, "--order")
    _require_at_least(args.slot_cap, "--slot-cap", 0)
    _require_at_least(args.assoc_trials, "--assoc-trials")
    if args.gen:
        _require_at_least(args.cap, "--cap")
    pi1 = _load(args.pi1, "cochain")
    spec = _semigroup_from_args(args, pi1.dimension) if args.gen else None
    deformation = solve_maurer_cartan(
        pi1, args.order, delta_spec=spec, slot_order_cap=args.slot_cap
    )
    if args.check_assoc:
        rng = axioms._law_rng(args.seed, "mc-solve-check")
        for _ in range(args.assoc_trials):
            triple = [axioms.random_polynomial(rng, pi1.dimension) for _ in range(3)]
            if associativity_defect(deformation, *triple):
                sys.stderr.write("associativity check failed; solver output is inconsistent\n")
                return None, EXIT_VERIFY
    return deformation, EXIT_OK


def _cmd_star_apply(args) -> tuple:
    deformation = _load(args.deformation, "deformation")
    f = _load(args.left, "poly")
    g = _load(args.right, "poly")
    series = star_apply(deformation, f, g)
    return _report(deformation.dimension, ("order", deformation.order), *_series_body(series)), EXIT_OK


def _cmd_assoc_defect(args) -> tuple:
    deformation = _load(args.deformation, "deformation")
    f, g, h = (_load(path, "poly") for path in (args.f, args.g, args.h))
    defect = associativity_defect(deformation, f, g, h)
    body = (("order", deformation.order), ("zero", "yes" if not defect else "no"))
    code = EXIT_VERIFY if args.expect_zero and defect else EXIT_OK
    return _report(deformation.dimension, *body, *_series_body(defect)), code


def _cmd_verify(args) -> tuple:
    _require_at_least(args.trials, "--trials")
    if args.law:
        known = {name for name, _ in axioms.ALL_LAWS}
        unknown = sorted(set(args.law) - known)
        if unknown:
            raise ValueError(f"unknown law(s): {', '.join(unknown)}")
    results = axioms.run_laws(args.seed, args.trials, names=args.law or None)
    body = [("seed", args.seed), ("trials", args.trials)]
    failed = False
    for r in results:
        entry = ("law", r.name, "pass" if r.ok else "fail", r.checks)
        if r.witness is not None:
            entry = entry + (r.witness,)
        body.append(entry)
        failed = failed or not r.ok
    return _report(2, *body), EXIT_VERIFY if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gerst",
        description=(
            "Exact Gerstenhaber algebra of polydifferential operators: cup product, "
            "bracket, Hochschild coboundary, weight subalgebras, and an order-by-order "
            "star-product solver on the plane. Documents are s-expressions; '-' reads "
            "standard input."
        ),
    )
    parser.add_argument("--json", action="store_true", help="emit the JSON mirror of the document")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("cup", lambda a: _cmd_binary(a, cup), "cup product of two cochains")
    p.add_argument("left")
    p.add_argument("right")

    p = add("bracket", lambda a: _cmd_binary(a, bracket), "Gerstenhaber bracket of two cochains")
    p.add_argument("left")
    p.add_argument("right")

    p = add("delta", _cmd_delta, "Hochschild coboundary of a cochain")
    p.add_argument("cochain")

    p = add("apply", _cmd_apply, "evaluate a cochain on polynomial arguments")
    p.add_argument("cochain")
    p.add_argument("args", nargs="*", metavar="poly")

    p = add("weight", _cmd_weight, "weight decomposition of a cochain")
    p.add_argument("cochain")

    p = add("bigrade", _cmd_bigrade, "bigrade decomposition of a cochain")
    p.add_argument("cochain")

    def add_semigroup(p):
        p.add_argument("--gen", action="append", default=[], help="semigroup generator; use --gen=-1,-1")
        p.add_argument("--cap", type=int, default=32, help="search cap on representation length")

    p = add("member", _cmd_member, "semigroup membership of a weight vector")
    p.add_argument("--weight", required=True, help="comma-separated integers; use --weight=-3,-3")
    add_semigroup(p)

    p = add("ideal-member", _cmd_ideal_member, "membership of a cochain in the r-fold ideal")
    p.add_argument("cochain")
    add_semigroup(p)
    p.add_argument("--fold", "-r", type=int, default=2, help="how many semigroup summands")

    p = add("project", _cmd_project, "membership in and projection onto a weight subalgebra")
    p.add_argument("cochain")
    add_semigroup(p)

    p = add("theta", _cmd_theta, "parity involution for a coordinate index set")
    p.add_argument("cochain")
    p.add_argument("--indices", required=True, help="1-based coordinates, e.g. 1,2")

    p = add("theta-split", _cmd_theta_split, "split into involution-even and -odd parts")
    p.add_argument("cochain")
    p.add_argument("--indices", required=True)

    p = add("filtration", _cmd_filtration, "filtration index of, or stage membership for, a cochain")
    p.add_argument("cochain")
    p.add_argument("--mode", choices=("literal", "cumulative"), default="cumulative")
    p.add_argument("--alpha", help="stage index 'a1,a2:b1,b2'; omitted: least stage")

    p = add("mc-solve", _cmd_mc_solve, "solve the star-product recursion from a Poisson bivector")
    p.add_argument("--pi1", required=True, help="cochain document for the bivector")
    p.add_argument("--order", type=int, required=True)
    add_semigroup(p)
    p.add_argument("--slot-cap", type=int, default=64, help="hard cap on slot-order growth")
    p.add_argument("--check-assoc", action="store_true", help="verify associativity of the output")
    p.add_argument("--assoc-trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)

    p = add("star-apply", _cmd_star_apply, "deformed product of two polynomials")
    p.add_argument("--deformation", required=True)
    p.add_argument("left")
    p.add_argument("right")

    p = add("assoc-defect", _cmd_assoc_defect, "associativity defect of a deformation on a triple")
    p.add_argument("--deformation", required=True)
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("--expect-zero", action="store_true", help="exit 2 when the defect is nonzero")

    p = add("verify-axioms", _cmd_verify, "run the seeded law-verification suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--law", action="append", help="restrict to named laws (repeatable)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _stdin_text.cache_clear()
    try:
        document, code = args.handler(args)
        if document is not None:
            if args.json:
                text = json.dumps(sexpr.document_to_json(document), indent=2)
            else:
                text = sexpr.print_document(document)
            sys.stdout.write(text + "\n")
        return code
    except InconclusiveMembershipError as err:
        sys.stderr.write(f"inconclusive: {err}\n")
        return EXIT_INCONCLUSIVE
    except SelfCheckError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_VERIFY
    except (
        sexpr.SexprError,
        DimensionMismatchError,
        ArityError,
        CoboundaryError,
        SlotOrderCapError,
        ValueError,
        OSError,
    ) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
