"""The benchmark's workloads: seeded inputs, fixed job lists, output checks.

``prepare(workload, seed, workdir)`` writes the workload's inputs into
``workdir`` and returns its jobs.  A job is one ``gerst`` command line; its
``check`` takes the job's stdout and exit code and returns ``None`` when the
output is right, else the reason it is wrong.  Every check is computed by the
benchmark's own code (``sexp.py`` here, polynomial arithmetic below), never
by the package under test.

The same seed always gives byte-identical inputs.  Where the seed varies
the data, it varies values and not sizes, so that runs with different seeds
cost about the same (see README.md for the measured spreads).
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Optional

import sexp

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")

# Deformations computed by `gerst mc-solve` on the unit bivectors
# (the solve workload's golden outputs and the eval workload's inputs).
GOLDEN = {
    "const": ("const_order6.sexp", "6a80e2676100f0b0f12b77837c4be620374c43df451549636026a0b7e8696ce8"),
    "x1": ("x1_order6.sexp", "5d21364fb63f64304c853fce57cb91c9e95f33d7d31b840afa9855a724a3777a"),
    "x1x2": ("x1x2_order6.sexp", "7b0902344967aeb835507e256becf2d8c92b46cec8fffd9ed95b398225cd4ddf"),
}
# x-exponent of each bivector x^a (d1 (x) d2 - d2 (x) d1).
BIVECTOR_X = {"const": (0, 0), "x1": (1, 0), "x1x2": (1, 1)}

Check = Callable[[bytes, int], Optional[str]]


@dataclass
class Job:
    name: str
    args: list
    check: Check


class GoldenError(Exception):
    """A stored golden document does not match its recorded sha256."""


def load_golden(key: str) -> str:
    name, digest = GOLDEN[key]
    with open(os.path.join(DATA, name), "rb") as handle:
        data = handle.read()
    if hashlib.sha256(data).hexdigest() != digest:
        raise GoldenError(f"{name} does not match its recorded sha256")
    return data.decode("utf-8")


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    return path


def _fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))


def _index(idx) -> str:
    return "(" + " ".join(str(v) for v in idx) + ")"


def _terms_text(kind: str, terms: dict) -> str:
    body = "".join(
        f"\n  (term {c} {' '.join(_index(i) for i in key)})" for key, c in terms.items()
    )
    return f"({kind} 2{body})\n"


def _parse_output(out: bytes, code: int, kind: str):
    """The parsed document, or a failure reason as a string."""
    if code != 0:
        return f"exit code {code}"
    try:
        node = sexp.parse(out.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as err:
        return f"unparseable output: {err}"
    if not (isinstance(node, tuple) and len(node) >= 2 and node[0] == kind and node[1] == 2):
        return f"expected a {kind} document"
    return node


def _guarded(check: Check) -> Check:
    """A check that reports a malformed output as wrong instead of raising."""

    def guarded(out: bytes, code: int) -> Optional[str]:
        try:
            return check(out, code)
        except (ValueError, TypeError, KeyError, IndexError, GoldenError) as err:
            return f"malformed output ({type(err).__name__}: {err})"

    return guarded


# ---------------------------------------------------------------------------
# solve: mc-solve on rescaled bivectors, checked as p_k(c pi) = c^k p_k(pi)
# ---------------------------------------------------------------------------

# (bivector, order, extra flags).  Orders stay where a round of jobs takes
# seconds, not minutes, so that a run holds several rounds (README.md).
SOLVE_JOBS = (
    ("const", 6, ()),
    ("x1", 5, ("--gen=0,-1",)),
    ("x1x2", 4, ()),
)


def scaled_golden(key: str, order: int, c: Fraction) -> str:
    """The expected canonical mc-solve output for ``c`` times a unit bivector.

    The solver is linear in the obstruction with free variables pinned to
    zero, so ``p_k`` scales by ``c^k``; term order does not depend on
    coefficients, so the canonical text is the golden text with each
    coefficient rescaled and orders above ``order`` dropped.
    """
    node = sexp.parse(load_golden(key))
    entries = []
    for entry in node[3:]:
        k = entry[1]
        if k <= order:
            scale = c ** k
            terms = tuple(("term", t[1] * scale) + tuple(t[2:]) for t in entry[2:])
            entries.append(("pk", k) + terms)
    return sexp.pretty(("deformation", 2, ("order", order)) + tuple(entries)) + "\n"


def _solve_check(key: str, order: int, c: Fraction) -> Check:
    def check(out: bytes, code: int) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        expected = scaled_golden(key, order, c).encode("utf-8")
        if hashlib.sha256(out).digest() != hashlib.sha256(expected).digest():
            return f"output differs from the c^k-rescaled golden {key} (c = {c})"
        return None

    return _guarded(check)


def _prepare_solve(seed: int, workdir: str) -> list:
    rng = random.Random(f"solve:{seed}")
    jobs = []
    for i, (key, order, flags) in enumerate(SOLVE_JOBS):
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 7))
        x = BIVECTOR_X[key]
        pi1 = {(x, (1, 0), (0, 1)): c, (x, (0, 1), (1, 0)): -c}
        path = _write(workdir, f"pi1_{i}.sexp", _terms_text("cochain", pi1))
        args = ["mc-solve", "--pi1", path, "--order", str(order), *flags]
        jobs.append(Job(" ".join(["mc-solve", key, "order", str(order), *flags]), args, _solve_check(key, order, c)))
    return jobs


# ---------------------------------------------------------------------------
# laws: the seeded law suites, checked by every law reporting pass
# ---------------------------------------------------------------------------

# Law-suite seeds whose `verify-axioms --trials 50` times matched within a
# few percent over repeated cold runs.  The suite's cost is dominated by the
# Jacobi law, whose random cochains make it vary fivefold between seeds (4 s
# to 28 s on the reference machine); the benchmark seed picks one of these so
# that runs with different seeds do comparable work.  README.md records the
# survey.
LAW_SEEDS = (5, 6)
LAW_TRIALS = 50


def _laws_check(law_seed: int) -> Check:
    def check(out: bytes, code: int) -> Optional[str]:
        node = _parse_output(out, code, "report")
        if isinstance(node, str):
            return node
        if sexp.entries(node, "seed") != [("seed", law_seed)]:
            return "report does not echo the seed"
        if sexp.entries(node, "trials") != [("trials", LAW_TRIALS)]:
            return "report does not echo the trial count"
        laws = sexp.entries(node, "law")
        if not laws:
            return "no law reported"
        failed = [law[1] for law in laws if law[2] != "pass"]
        if failed:
            return "laws not passing: " + ", ".join(failed)
        return None

    return _guarded(check)


def _prepare_laws(seed: int, workdir: str) -> list:
    law_seed = LAW_SEEDS[random.Random(f"laws:{seed}").randrange(len(LAW_SEEDS))]
    args = ["verify-axioms", "--seed", str(law_seed), "--trials", str(LAW_TRIALS)]
    return [Job(f"verify-axioms seed {law_seed}", args, _laws_check(law_seed))]


# ---------------------------------------------------------------------------
# Polynomial arithmetic for the eval checks (dict: exponent -> Fraction)
# ---------------------------------------------------------------------------


def poly_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for (a1, a2), c in f.items():
        for (b1, b2), d in g.items():
            e = (a1 + b1, a2 + b2)
            out[e] = out.get(e, 0) + c * d
    return {e: c for e, c in out.items() if c}


def poly_add(f: dict, g: dict) -> dict:
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def derive(f: dict, s) -> dict:
    out = {}
    for (a1, a2), c in f.items():
        if a1 >= s[0] and a2 >= s[1]:
            out[(a1 - s[0], a2 - s[1])] = c * (factorial(a1) // factorial(a1 - s[0])) * (
                factorial(a2) // factorial(a2 - s[1])
            )
    return out


def apply_bidifferential(terms: dict, f: dict, g: dict) -> dict:
    """Sum of c x^a (d^s f)(d^t g) over the terms {(a, s, t): c}."""
    out: dict = {}
    df, dg = {}, {}
    for (a, s, t), c in terms.items():
        if s not in df:
            df[s] = derive(f, s)
        if t not in dg:
            dg[t] = derive(g, t)
        out = poly_add(out, poly_mul(poly_mul({a: c}, df[s]), dg[t]))
    return out


def moyal_series(f: dict, g: dict, order: int) -> dict:
    """Closed-form exponential series for the constant bivector with p_1 = pi/2.

    p_k(f, g) = 1/(2^k k!) sum_j C(k, j) (-1)^j (d1^(k-j) d2^j f)(d1^j d2^(k-j) g).
    """
    series = {0: poly_mul(f, g)}
    for k in range(1, order + 1):
        terms = {}
        for j in range(k + 1):
            coeff = Fraction(comb(k, j) * (-1) ** j, 2 ** k * factorial(k))
            terms[((0, 0), (k - j, j), (j, k - j))] = coeff
        series[k] = apply_bidifferential(terms, f, g)
    return {k: p for k, p in series.items() if p}


def deformation_series(text: str, f: dict, g: dict) -> dict:
    """Star product f * g by t-power, evaluated from a deformation document."""
    node = sexp.parse(text)
    series = {0: poly_mul(f, g)}
    for entry in node[3:]:
        series[entry[1]] = apply_bidifferential(sexp.term_map(entry[2:]), f, g)
    return {k: p for k, p in series.items() if p}


# ---------------------------------------------------------------------------
# eval: star-apply and assoc-defect on seeded high-degree polynomials
# ---------------------------------------------------------------------------

# (command, deformation, terms per polynomial).  star-apply takes (f, g),
# assoc-defect takes (f, g, h).  Each polynomial has terms of total degree
# 8 to 14 in a sparsity pattern fixed per job; the seed draws the
# coefficients.  A seeded pattern would let the cost vary by half between
# seeds, because products merge more or fewer terms.
EVAL_JOBS = (
    ("star-apply", "const", 14),
    ("star-apply", "x1", 14),
    ("star-apply", "x1x2", 14),
    ("assoc-defect", "x1", 7),
    ("assoc-defect", "x1x2", 4),
)


def poly_pattern(label: str, size: int) -> list:
    """``size`` distinct exponents of total degree 8 to 14, fixed for ``label``."""
    rng = random.Random(f"pattern:{label}")
    out: list = []
    while len(out) < size:
        d = 8 + len(out) % 7
        a = rng.randint(0, d)
        e = (a, d - a)
        if e not in out:
            out.append(e)
    return out


def _series_check(expected: Callable[[], dict]) -> Check:
    def check(out: bytes, code: int) -> Optional[str]:
        node = _parse_output(out, code, "report")
        if isinstance(node, str):
            return node
        got = {}
        for entry in sexp.entries(node, "tpow"):
            got[entry[1]] = {key[0]: c for key, c in sexp.term_map(entry[2:]).items()}
        if got != expected():
            return "star product differs from the series computed by the benchmark"
        return None

    return _guarded(check)


def _assoc_check(out: bytes, code: int) -> Optional[str]:
    node = _parse_output(out, code, "report")
    if isinstance(node, str):
        return node
    if sexp.entries(node, "zero") != [("zero", "yes")] or sexp.entries(node, "tpow"):
        return "associativity defect is not zero"
    return None


def _prepare_eval(seed: int, workdir: str) -> list:
    rng = random.Random(f"eval:{seed}")
    tampered = set()
    for key in sorted({job[1] for job in EVAL_JOBS}):
        try:
            _write(workdir, f"{key}.sexp", load_golden(key))
        except GoldenError:
            tampered.add(key)
    jobs = []
    for i, (command, key, size) in enumerate(EVAL_JOBS):
        polys = [
            {e: _fraction(rng) for e in poly_pattern(f"{i}:{j}", size)}
            for j in range(2 if command == "star-apply" else 3)
        ]
        paths = [
            _write(workdir, f"{command}_{i}_{j}.sexp", _terms_text("poly", {(e,): c for e, c in p.items()}))
            for j, p in enumerate(polys)
        ]
        args = [command, "--deformation", os.path.join(workdir, f"{key}.sexp"), *paths]
        if command == "assoc-defect":
            args.append("--expect-zero")
            check = _guarded(_assoc_check)
        elif key == "const":
            check = _series_check(lambda f=polys[0], g=polys[1]: moyal_series(f, g, 6))
        else:
            check = _series_check(lambda f=polys[0], g=polys[1], k=key: deformation_series(load_golden(k), f, g))
        if key in tampered:
            check = lambda out, code, k=key: f"input deformation {GOLDEN[k][0]} does not match its recorded sha256"  # noqa: E731
        jobs.append(Job(f"{command} {key}", args, check))
    return jobs


# ---------------------------------------------------------------------------
# docs: large documents through theta, bigrade, project and filtration
# ---------------------------------------------------------------------------

BIG_TERMS = 20_000
MID_TERMS = 3_000
# Semigroup generators for `project`: each has a negative coordinate sum, so
# the origin is outside their convex hull and every membership is decidable.
# The generators and theta's index set are fixed because the cost of
# `project` depends on them; the seed draws the documents.
GENERATORS = ((0, -1), (-1, 0), (-1, -1))
THETA_INDICES = (1, 2)
PROJECT_CAP = 64


def random_cochain(rng: random.Random, count: int, max_x: int, max_slot: int) -> dict:
    """``count`` distinct terms {(x, slot, ...): c} of arity 0 to 3."""
    out: dict = {}
    while len(out) < count:
        arity = rng.randint(0, 3)
        key = ((rng.randint(0, max_x), rng.randint(0, max_x)),) + tuple(
            (rng.randint(0, max_slot), rng.randint(0, max_slot)) for _ in range(arity)
        )
        if key not in out:
            out[key] = _fraction(rng)
    return out


def weight(key) -> tuple:
    x1, x2 = key[0]
    return (x1 - sum(s[0] for s in key[1:]), x2 - sum(s[1] for s in key[1:]))


def bigrade(key) -> tuple:
    w = weight(key)
    x1, x2 = key[0]
    up = (x1 + sum(s[0] for s in key[1:]), x2 + sum(s[1] for s in key[1:]))
    return (w, up)


def semigroup_members(generators, targets) -> set:
    """Targets that are sums of one or more generators (negative-sum generators only)."""
    depth = max((-(a + b) for a, b in targets), default=0)
    members, level = set(), {(0, 0)}
    for _ in range(depth):
        level = {(v[0] + g[0], v[1] + g[1]) for v in level for g in generators}
        members |= level
    return members & set(targets)


def _theta_check(terms: dict, indices: tuple) -> Check:
    def check(out: bytes, code: int) -> Optional[str]:
        node = _parse_output(out, code, "cochain")
        if isinstance(node, str):
            return node
        odd = {key for key in terms if sum(weight(key)[i - 1] for i in indices) % 2}
        expected = {key: -c if key in odd else c for key, c in terms.items()}
        return None if sexp.term_map(node[2:]) == expected else "theta output differs from the sign rule"

    return _guarded(check)


def _bigrade_check(terms: dict) -> Check:
    def check(out: bytes, code: int) -> Optional[str]:
        node = _parse_output(out, code, "report")
        if isinstance(node, str):
            return node
        total: dict = {}
        for entry in sexp.entries(node, "bigrade"):
            part = sexp.term_map(entry[3:])
            if any(bigrade(key) != (entry[1], entry[2]) for key in part):
                return f"a term is filed under the wrong bigrade {entry[1:3]}"
            if total.keys() & part.keys():
                return "a term appears in two components"
            total.update(part)
        return None if total == terms else "bigrade components do not sum to the input"

    return _guarded(check)


def _project_check(terms: dict, generators) -> Check:
    def check(out: bytes, code: int) -> Optional[str]:
        node = _parse_output(out, code, "report")
        if isinstance(node, str):
            return node
        members = semigroup_members(generators, {weight(key) for key in terms})
        expected = {key: c for key, c in terms.items() if weight(key) in members}
        status = "yes" if len(expected) == len(terms) else "no"
        if sexp.entries(node, "member") != [("member", status)]:
            return "wrong subalgebra membership"
        projection = sexp.entries(node, "projection")
        if len(projection) != 1 or sexp.term_map(projection[0][1:]) != expected:
            return "projection differs from the weights the benchmark finds in the semigroup"
        return None

    return _guarded(check)


def _filtration_check(terms: dict) -> Check:
    def check(out: bytes, code: int) -> Optional[str]:
        node = _parse_output(out, code, "report")
        if isinstance(node, str):
            return node
        expected = max(bigrade(key) for key in terms)
        if sexp.entries(node, "index") != [("index",) + expected]:
            return "filtration index is not the largest bigrade"
        return None

    return _guarded(check)


def _prepare_docs(seed: int, workdir: str) -> list:
    rng = random.Random(f"docs:{seed}")
    big = random_cochain(rng, BIG_TERMS, max_x=9, max_slot=6)
    # Slot orders outweigh x-exponents, so most weights lie in the semigroup
    # and `project` adds up many kept components.
    mid = random_cochain(rng, MID_TERMS, max_x=3, max_slot=4)
    big_path = _write(workdir, "big.sexp", _terms_text("cochain", big))
    mid_path = _write(workdir, "mid.sexp", _terms_text("cochain", mid))
    gens = [f"--gen={a},{b}" for a, b in GENERATORS]
    index_arg = ",".join(str(i) for i in THETA_INDICES)
    return [
        Job("theta", ["theta", big_path, f"--indices={index_arg}"], _theta_check(big, THETA_INDICES)),
        Job("bigrade", ["bigrade", big_path], _bigrade_check(big)),
        Job("project", ["project", mid_path, *gens, f"--cap={PROJECT_CAP}"], _project_check(mid, GENERATORS)),
        Job("filtration", ["filtration", mid_path], _filtration_check(mid)),
    ]


PREPARE = {
    "solve": _prepare_solve,
    "laws": _prepare_laws,
    "eval": _prepare_eval,
    "docs": _prepare_docs,
}
WORKLOADS = tuple(PREPARE)


def prepare(workload: str, seed: int, workdir: str) -> list:
    """Write the workload's seeded inputs into ``workdir``; return its jobs."""
    return PREPARE[workload](seed, workdir)
