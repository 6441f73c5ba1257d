"""Command-line frontend.

Reads s-expression documents from files (or standard input for ``-``),
dispatches to the library, and writes one document to standard output, as
an s-expression or, with the global ``--json`` flag, as its JSON mirror: two
writers in ``sexpr``, neither of which loads the ``json`` module.
Each subcommand is registered with its name, help and arguments where its
handler is defined, and the parser adds them in that order.

Exit codes: 0 success, 1 parse or precondition failure (a malformed command
line, running out of memory or stack included), 2 verification failure (a
law or a requested check is violated), 3 a semigroup membership decision was
required but came back inconclusive.
"""

from __future__ import annotations

import argparse
import gc
import io
import sys
from functools import lru_cache
from typing import Optional, Sequence

from .cochains import Polynomial
from .grading import (
    InconclusiveMembershipError,
    SemigroupSpec,
    bigrade_groups,
    filtration_contains,
    filtration_index,
    in_ideal,
    project_subalgebra,
    semigroup_member,
    theta_apply,
    theta_split,
    weight_groups,
)
from .operations import bracket, cup, hochschild_delta
from .starproduct import (
    SelfCheckError,
    SlotOrderCapError,
    associativity_defect,
    solve_maurer_cartan,
    star_apply,
)
from .sexpr import Terms
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


def _series_body(series: dict[int, Polynomial]) -> tuple:
    return tuple(("tpow", k, Terms(p)) for k, p in sorted(series.items()))


class _Parser(argparse.ArgumentParser):
    """Raises a malformed command line as a ``ValueError``: exit 1, one line."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# Subcommand handlers, in ``--help`` order; each returns the document to
# print (None: print nothing) and the exit code.
# ---------------------------------------------------------------------------

_COMMANDS: list[tuple[str, str, str, list]] = []  # name, help, handler name, add_argument calls


def _command(name: str, help_text: str, *positionals: str):
    """Register the decorated handler as subcommand ``name`` with ``positionals``
    and then its ``_arg`` lines.  It is kept by name, so the parser runs what
    the module attribute holds when the parser is built."""

    def register(handler):
        arguments = [((p,), {}) for p in positionals] + getattr(handler, "arguments", [])
        _COMMANDS.append((name, help_text, handler.__name__, arguments))
        return handler

    return register


def _arg(*flags: str, **options):
    """One ``add_argument`` call for the handler below, added in reading order."""

    def declare(handler):
        handler.arguments = [(flags, options), *getattr(handler, "arguments", [])]
        return handler

    return declare


def _semigroup(handler):
    """The ``--gen`` and ``--cap`` options that give a semigroup."""
    handler = _arg("--cap", type=int, default=32, help="search cap on representation length")(handler)
    return _arg("--gen", action="append", default=[], help="semigroup generator; use --gen=-1,-1")(handler)


@_command("cup", "cup product of two cochains", "left", "right")
def _cmd_cup(args) -> tuple:
    return cup(_load(args.left, "cochain"), _load(args.right, "cochain")), EXIT_OK


@_command("bracket", "Gerstenhaber bracket of two cochains", "left", "right")
def _cmd_bracket(args) -> tuple:
    return bracket(_load(args.left, "cochain"), _load(args.right, "cochain")), EXIT_OK


@_command("delta", "Hochschild coboundary of a cochain", "cochain")
def _cmd_delta(args) -> tuple:
    return hochschild_delta(_load(args.cochain, "cochain")), EXIT_OK


@_command("apply", "evaluate a cochain on polynomial arguments", "cochain")
@_arg("args", nargs="*", metavar="poly", help="polynomial document, one per slot")
def _cmd_apply(args) -> tuple:
    c = _load(args.cochain, "cochain")
    polys = [_load(path, "poly") for path in args.args]
    return c.apply(polys), EXIT_OK


@_command("weight", "weight decomposition of a cochain", "cochain")
def _cmd_weight(args) -> tuple:
    c = _load(args.cochain, "cochain")
    body = tuple(("weight", w, Terms(c, keys)) for w, keys in weight_groups(c))
    return ("report", c.dimension, *body), EXIT_OK


@_command("bigrade", "bigrade decomposition of a cochain", "cochain")
def _cmd_bigrade(args) -> tuple:
    c = _load(args.cochain, "cochain")
    body = tuple(("bigrade", down, up, Terms(c, keys)) for (down, up), keys in bigrade_groups(c))
    return ("report", c.dimension, *body), EXIT_OK


@_command("member", "semigroup membership of a weight vector")
@_arg("--weight", required=True, help="comma-separated integers; use --weight=-3,-3")
@_semigroup
def _cmd_member(args) -> tuple:
    _require_at_least(args.cap, "--cap")
    target = _parse_vector(args.weight, "weight")
    spec = _semigroup_from_args(args, len(target))
    decision = semigroup_member(spec, target, min_count=1)
    certificate = () if decision.certificate is None else (("certificate", *decision.certificate),)
    code = EXIT_INCONCLUSIVE if decision.status == "inconclusive" else EXIT_OK
    return ("report", spec.dimension, ("member", decision.status), *certificate), code


@_command("ideal-member", "membership of a cochain in the r-fold ideal", "cochain")
@_semigroup
@_arg("--fold", "-r", type=int, default=2, help="how many semigroup summands")
def _cmd_ideal_member(args) -> tuple:
    _require_at_least(args.cap, "--cap")
    _require_at_least(args.fold, "--fold")
    c = _load(args.cochain, "cochain")
    spec = _semigroup_from_args(args, c.dimension)
    decision = in_ideal(c, spec, fold=args.fold)
    code = EXIT_INCONCLUSIVE if decision.status == "inconclusive" else EXIT_OK
    return ("report", c.dimension, ("ideal-member", decision.status), ("fold", args.fold)), code


@_command("project", "membership in and projection onto a weight subalgebra", "cochain")
@_semigroup
def _cmd_project(args) -> tuple:
    _require_at_least(args.cap, "--cap")
    c = _load(args.cochain, "cochain")
    projected = project_subalgebra(c, _semigroup_from_args(args, c.dimension))
    member = "yes" if projected == c else "no"
    body = (("member", member), ("projection", Terms(projected)))
    return ("report", c.dimension, *body), EXIT_OK


@_command("theta", "parity involution for a coordinate index set", "cochain")
@_arg("--indices", required=True, help="1-based coordinates, e.g. 1,2")
def _cmd_theta(args) -> tuple:
    return theta_apply(_load(args.cochain, "cochain"), _parse_vector(args.indices, "--indices")), EXIT_OK


@_command("theta-split", "split into involution-even and -odd parts", "cochain")
@_arg("--indices", required=True, help="1-based coordinates, e.g. 1,2")
def _cmd_theta_split(args) -> tuple:
    c = _load(args.cochain, "cochain")
    indices = _parse_vector(args.indices, "--indices")
    plus, minus = theta_split(c, indices)
    body = (("plus", Terms(plus)), ("minus", Terms(minus)))
    return ("report", c.dimension, *body), EXIT_OK


@_command("filtration", "filtration index of, or stage membership for, a cochain", "cochain")
@_arg("--mode", choices=("literal", "cumulative"), default="cumulative", help="how a stage index is read; default cumulative")
@_arg("--alpha", help="stage index 'a1,a2:b1,b2'; omitted: least stage")
def _cmd_filtration(args) -> tuple:
    c = _load(args.cochain, "cochain")
    if args.alpha is not None:
        low, sep, high = args.alpha.partition(":")
        if not sep:
            raise ValueError("filtration index must look like 'a1,a2:b1,b2'")
        alpha = _parse_vector(low, "filtration index"), _parse_vector(high, "filtration index")
        verdict = "yes" if filtration_contains(c, alpha, mode=args.mode) else "no"
        return ("report", c.dimension, ("mode", args.mode), ("contains", verdict)), EXIT_OK
    index = filtration_index(c, mode=args.mode)
    return ("report", c.dimension, ("mode", args.mode), ("index", index[0], index[1])), EXIT_OK


@_command("mc-solve", "solve the star-product recursion from a Poisson bivector")
@_arg("--pi1", required=True, help="cochain document for the bivector")
@_arg("--order", type=int, required=True, help=f"highest order of the series, at most {sexpr.ORDER_LIMIT}")
@_semigroup
@_arg("--slot-cap", type=int, default=64, help="hard cap on slot-order growth")
@_arg("--check-assoc", action="store_true", help="verify associativity of the output")
@_arg("--assoc-trials", type=int, default=10, help="random polynomial triples --check-assoc tries")
@_arg("--seed", type=int, default=0, help="seed of the --check-assoc triples")
def _cmd_mc_solve(args) -> tuple:
    _require_at_least(args.order, "--order")
    if args.order > sexpr.ORDER_LIMIT:  # no reader would accept the deformation
        raise ValueError(f"--order must be at most {sexpr.ORDER_LIMIT}")
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


@_command("star-apply", "deformed product of two polynomials", "left", "right")
@_arg("--deformation", required=True, help="deformation document, as mc-solve writes")
def _cmd_star_apply(args) -> tuple:
    deformation = _load(args.deformation, "deformation")
    f, g = (_load(path, "poly") for path in (args.left, args.right))
    series = star_apply(deformation, f, g)
    return ("report", deformation.dimension, ("order", deformation.order), *_series_body(series)), EXIT_OK


@_command("assoc-defect", "associativity defect of a deformation on a triple", "f", "g", "h")
@_arg("--deformation", required=True, help="deformation document, as mc-solve writes")
@_arg("--expect-zero", action="store_true", help="exit 2 when the defect is nonzero")
def _cmd_assoc_defect(args) -> tuple:
    deformation = _load(args.deformation, "deformation")
    f, g, h = (_load(path, "poly") for path in (args.f, args.g, args.h))
    defect = associativity_defect(deformation, f, g, h)
    body = (("order", deformation.order), ("zero", "yes" if not defect else "no"))
    code = EXIT_VERIFY if args.expect_zero and defect else EXIT_OK
    return ("report", deformation.dimension, *body, *_series_body(defect)), code


@_command("verify-axioms", "run the seeded law-verification suites")
@_arg("--seed", type=int, default=0, help="seed of the random trials")
@_arg("--trials", type=int, default=25, help="random trials per law")
@_arg("--law", action="append", help="restrict to named laws (repeatable)")
def _cmd_verify(args) -> tuple:
    _require_at_least(args.trials, "--trials")
    if args.law:
        known = {name for name, _ in axioms.ALL_LAWS}
        unknown = sorted(set(args.law) - known)
        if unknown:
            raise ValueError(f"unknown law(s): {', '.join(unknown)}")
    results = axioms.run_laws(args.seed, args.trials, names=args.law or None)
    body = [("seed", args.seed), ("trials", args.trials)]
    for r in results:
        witness = () if r.witness is None else (r.witness,)
        body.append(("law", r.name, "pass" if r.ok else "fail", r.checks, *witness))
    return ("report", 2, *body), EXIT_OK if all(r.ok for r in results) else EXIT_VERIFY


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``gerst`` parser; with only the subcommand ``command``, when that names one."""
    parser = _Parser(
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
    for name, help_text, handler, arguments in [c for c in _COMMANDS if c[0] == command] or _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=globals()[handler])
        for flags, options in arguments:
            p.add_argument(*flags, **options)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        # argparse runs the first argument after any --json as the subcommand.
        args = build_parser(next((arg for arg in argv if arg != "--json"), None)).parse_args(argv)
        _stdin_text.cache_clear()
        document, code = args.handler(args)
        if document is not None:
            text = sexpr.format_json(document) if args.json else sexpr.print_document(document)
            sys.stdout.write(text + "\n")
        return code
    except InconclusiveMembershipError as err:
        sys.stderr.write(f"inconclusive: {err}\n")
        return EXIT_INCONCLUSIVE
    except SelfCheckError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_VERIFY
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return EXIT_USAGE
    except (ValueError, OSError, SlotOrderCapError, RecursionError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE


def _run() -> int:
    """The ``gerst`` process entry point: ``main`` under a garbage-collection
    policy for one short-lived process.

    The objects alive after imports are frozen out of collection, and the
    young generation is collected every 20000 allocations instead of 700:
    term keys are ints, so few of the objects a command makes can form cycles.
    """
    gc.freeze()
    gc.set_threshold(20000, 10, 10)
    return main()


if __name__ == "__main__":
    sys.exit(_run())
