"""A small reader and printer for the program's s-expression documents.

The benchmark checks outputs with its own code rather than the package's, so
that a defect in the package's parser or printer cannot hide itself.  Only
what the benchmark needs is here: atoms are ints, ``a/b`` rationals and
symbols; the printer reproduces the program's canonical pretty layout (the
head atoms on the first line, each list item on its own indented line).
"""

from __future__ import annotations

import re
from fractions import Fraction

_TOKEN = re.compile(r"[()]|[^\s();]+")
_INT = re.compile(r"[+-]?\d+\Z")
_RATIONAL = re.compile(r"[+-]?\d+/\d+\Z")


def parse(text: str):
    """One s-expression as nested tuples; raises ValueError when malformed."""
    stack: list[list] = [[]]
    for token in _TOKEN.findall(text):
        if token == "(":
            stack.append([])
        elif token == ")":
            if len(stack) == 1:
                raise ValueError("unbalanced ')'")
            done = tuple(stack.pop())
            stack[-1].append(done)
        elif _INT.match(token):
            stack[-1].append(int(token))
        elif _RATIONAL.match(token):
            stack[-1].append(Fraction(token))
        else:
            stack[-1].append(token)
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError("expected exactly one complete s-expression")
    return stack[0][0]


def _flat(node) -> str:
    if isinstance(node, tuple):
        return "(" + " ".join(_flat(x) for x in node) + ")"
    return str(node)


def pretty(node) -> str:
    """The program's canonical layout of a document node."""
    head = [_flat(x) for x in node if not isinstance(x, tuple)]
    body = [_flat(x) for x in node if isinstance(x, tuple)]
    if not body:
        return "(" + " ".join(head) + ")"
    return "\n".join(["(" + " ".join(head)] + ["  " + item for item in body]) + ")"


def term_map(terms) -> dict:
    """``(term c idx...)`` nodes as {(idx, ...): Fraction}; duplicates raise."""
    out: dict = {}
    for t in terms:
        if not (isinstance(t, tuple) and len(t) >= 3 and t[0] == "term"):
            raise ValueError(f"not a term: {t!r}")
        key = tuple(t[2:])
        if key in out:
            raise ValueError(f"repeated term {key}")
        coeff = Fraction(t[1])
        if not coeff:
            raise ValueError(f"zero coefficient in {t!r}")
        out[key] = coeff
    return out


def entries(report, head: str) -> list:
    """The items of a document whose first element is ``head``."""
    return [x for x in report[2:] if isinstance(x, tuple) and x and x[0] == head]
