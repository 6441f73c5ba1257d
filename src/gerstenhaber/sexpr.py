"""S-expression surface syntax for cochains, polynomials, deformations, reports.

Grammar (UTF-8):

    document := "(" kind INT body ")"        kind in {cochain, poly, deformation, report}
    term     := "(" "term" rational index+ ")"
    index    := "(" INT{n} ")"
    rational := INT | INT "/" INT

In a cochain term the first index is the x-exponent and the remaining
indices are the slots, in order; a polynomial term carries exactly one
index.  Printing emits canonical ordering, so parse(print(x)) == x and
printing is deterministic byte for byte.  The JSON encoding mirrors the
s-expression structure one-to-one, with rationals as strings.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from reprlib import repr as _brief  # depth- and length-bounded repr for error messages
from typing import Union

from .cochains import BasisTerm, Cochain, Polynomial
from .starproduct import Deformation

Node = Union[int, Fraction, str, tuple]

KINDS = ("cochain", "poly", "deformation", "report")


class SexprError(ValueError):
    """Parse failure, with 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# A comment, a parenthesis or an atom.  Only space, tab, CR and LF separate
# tokens; every other character (VT, NBSP, ...) is part of an atom.
_TOKEN = re.compile(r";[^\n]*|[()]|[^ \t\r\n();]+")


def _error(message: str, text: str, index: int) -> SexprError:
    """The error at token ``index`` of ``text`` (comments not counted).

    Tokens keep no positions; only a failing parse scans the text again to
    find one.  CR and tab count as one column each.
    """
    tokens = (m for m in _TOKEN.finditer(text) if m.group()[0] != ";")
    pos = next(islice(tokens, index, None)).start()
    line = text.count("\n", 0, pos) + 1
    return SexprError(message, line, pos - text.rfind("\n", 0, pos))


# int() refuses numerals of more than sys.get_int_max_str_digits() digits
# (Python 3.10.7 and later).  That limit is 0 (none) or at least 640, so
# shorter numerals never need the check.
_SAFE_DIGITS = 640
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _check_digits(digits: str, text: str, index: int) -> None:
    limit = _digit_limit()
    if limit and len(digits) > limit:
        raise _error(f"integer literal of {len(digits)} digits exceeds the limit of {limit}", text, index)


def _digit_count(m: int) -> int:
    """Decimal digits of ``m >= 1``, counted without converting it to text."""
    k = (m.bit_length() - 1) * 30102 // 100000 + 1  # a lower bound: log10(2) > 0.30102
    while m >= 10**k:
        k += 1
    return k


def _decimal(value: Union[int, Fraction, str]) -> str:
    """``str(value)``, refusing with the limit named when an integer is too long to print."""
    try:
        return str(value)
    except ValueError:
        digits = max(_digit_count(abs(value.numerator)), _digit_count(value.denominator))
        raise ValueError(
            f"output integer of {digits} digits exceeds the limit of {_digit_limit()}"
        ) from None


def _atom(token: str, text: str, index: int) -> Node:
    # isdecimal, not isdigit: int() rejects superscript digits such as '²'.
    body = token[1:] if token[0] in "+-" else token
    if body.isdecimal():
        if len(body) > _SAFE_DIGITS:
            _check_digits(body, text, index)
        return int(token)
    if "/" in token:
        num, _, den = token.partition("/")
        num_body = num[1:] if num[:1] in "+-" else num
        if num_body.isdecimal() and den.isdecimal():
            if len(token) > _SAFE_DIGITS:
                _check_digits(num_body, text, index)
                _check_digits(den, text, index)
            if int(den) == 0:
                raise _error("rational with zero denominator", text, index)
            return Fraction(int(num), int(den))
    return token


def parse_sexpr(text: str) -> Node:
    """Parse one s-expression; trailing content is an error.

    Iterative, with a stack of open lists, so any nesting depth parses.
    """
    tokens = [token for token in _TOKEN.findall(text) if token[0] != ";"]
    if not tokens:
        raise SexprError("empty input", 1, 1)
    stack: list[tuple[list, int]] = []  # open lists: items, token index of their '('
    for index, token in enumerate(tokens):
        if token == "(":
            stack.append(([], index))
            continue
        if token == ")":
            if not stack:
                raise _error("unexpected ')'", text, index)
            node = tuple(stack.pop()[0])
        else:
            node = _atom(token, text, index)
        if not stack:
            break
        stack[-1][0].append(node)
    else:
        raise _error("unexpected end of input inside list", text, stack[-1][1])
    if index + 1 != len(tokens):
        raise _error(f"unexpected trailing content {tokens[index + 1]!r}", text, index + 1)
    return node


def format_sexpr(node: Node) -> str:
    """Deterministic text for a node, one line per nested top-level item."""

    def flat(n: Node) -> str:
        if isinstance(n, tuple):
            return "(" + " ".join(flat(x) for x in n) + ")"
        return _decimal(n)

    if not isinstance(node, tuple):
        return flat(node)
    head = [flat(x) for x in node if not isinstance(x, tuple)]
    body = [flat(x) for x in node if isinstance(x, tuple)]
    if not body:
        return "(" + " ".join(head) + ")"
    lines = ["(" + " ".join(head)]
    lines.extend("  " + item for item in body)
    return "\n".join(lines) + ")"


@dataclass(frozen=True)
class Document:
    """A typed top-level value: what the CLI reads and writes."""

    kind: str
    dimension: int
    payload: object


def _expect_list(node: Node, what: str) -> tuple:
    if not isinstance(node, tuple):
        raise ValueError(f"expected a list for {what}, got {_brief(node)}")
    return node


def _node_to_index(node: Node, dimension: int) -> tuple[int, ...]:
    node = _expect_list(node, "index")
    if len(node) != dimension or not all(isinstance(v, int) for v in node):
        raise ValueError(f"index {_brief(node)} is not {dimension} integers")
    return tuple(node)


def _node_to_terms(nodes, dimension: int, *, min_indices: int):
    for node in nodes:
        node = _expect_list(node, "term")
        if len(node) < 2 + min_indices or node[0] != "term":
            raise ValueError(f"malformed term {_brief(node)}")
        coeff = node[1]
        if not isinstance(coeff, (int, Fraction)):
            raise ValueError(f"term coefficient {_brief(coeff)} is not rational")
        indices = [_node_to_index(x, dimension) for x in node[2:]]
        yield coeff, indices


def node_to_cochain(node: Node) -> Cochain:
    node = _expect_list(node, "cochain")
    if len(node) < 2 or node[0] != "cochain" or not isinstance(node[1], int):
        raise ValueError(f"malformed cochain document {_brief(node)}")
    dimension = node[1]
    pairs = []
    for coeff, indices in _node_to_terms(node[2:], dimension, min_indices=1):
        pairs.append((BasisTerm(dimension, indices[0], indices[1:]), coeff))
    return Cochain(dimension, pairs)


def cochain_to_node(c: Cochain) -> Node:
    terms = tuple(("term", coeff, x_part) + slots for (x_part, slots), coeff in c._sorted_items())
    return ("cochain", c.dimension) + terms


def node_to_polynomial(node: Node) -> Polynomial:
    node = _expect_list(node, "poly")
    if len(node) < 2 or node[0] != "poly" or not isinstance(node[1], int):
        raise ValueError(f"malformed poly document {_brief(node)}")
    dimension = node[1]
    pairs = []
    for coeff, indices in _node_to_terms(node[2:], dimension, min_indices=1):
        if len(indices) != 1:
            raise ValueError("polynomial terms carry exactly one index")
        pairs.append((indices[0], coeff))
    return Polynomial(dimension, pairs)


def polynomial_to_node(p: Polynomial) -> Node:
    terms = tuple(("term", coeff, e) for e, coeff in p._sorted_items())
    return ("poly", p.dimension) + terms


def node_to_deformation(node: Node) -> Deformation:
    node = _expect_list(node, "deformation")
    if (
        len(node) < 3
        or node[0] != "deformation"
        or not isinstance(node[1], int)
        or not (isinstance(node[2], tuple) and len(node[2]) == 2 and node[2][0] == "order")
    ):
        raise ValueError(f"malformed deformation document {_brief(node)}")
    dimension = node[1]
    order = node[2][1]
    if not isinstance(order, int) or order < 1:
        raise ValueError(f"malformed deformation order {_brief(order)}")
    by_order: dict[int, Cochain] = {}
    for entry in node[3:]:
        entry = _expect_list(entry, "deformation coefficient")
        if len(entry) < 2 or entry[0] != "pk" or not isinstance(entry[1], int):
            raise ValueError(f"malformed deformation coefficient {_brief(entry)}")
        k = entry[1]
        if not 1 <= k <= order or k in by_order:
            raise ValueError(f"deformation coefficient order {k} out of range or repeated")
        by_order[k] = node_to_cochain(("cochain", dimension) + tuple(entry[2:]))
    cochains = tuple(by_order.get(k, Cochain.zero(dimension)) for k in range(1, order + 1))
    return Deformation(dimension=dimension, cochains=cochains)


def deformation_to_node(d: Deformation) -> Node:
    entries = []
    for k in range(1, d.order + 1):
        c = d.coefficient(k)
        if not c.is_zero:
            entries.append(("pk", k) + cochain_to_node(c)[2:])
    return ("deformation", d.dimension, ("order", d.order)) + tuple(entries)


def parse_document(text: str) -> Document:
    node = parse_sexpr(text)
    node = _expect_list(node, "document")
    if len(node) < 2 or node[0] not in KINDS or not isinstance(node[1], int):
        raise ValueError("document must start with a kind and a dimension")
    kind = node[0]
    if kind == "cochain":
        return Document(kind, node[1], node_to_cochain(node))
    if kind == "poly":
        return Document(kind, node[1], node_to_polynomial(node))
    if kind == "deformation":
        return Document(kind, node[1], node_to_deformation(node))
    return Document(kind, node[1], node[2:])


def document_to_node(doc: Document) -> Node:
    if doc.kind == "cochain":
        return cochain_to_node(doc.payload)
    if doc.kind == "poly":
        return polynomial_to_node(doc.payload)
    if doc.kind == "deformation":
        return deformation_to_node(doc.payload)
    if doc.kind == "report":
        return ("report", doc.dimension) + tuple(doc.payload)
    raise ValueError(f"unknown document kind {doc.kind!r}")


def print_document(doc: Document) -> str:
    return format_sexpr(document_to_node(doc))


def node_to_json(node: Node):
    if isinstance(node, tuple):
        return [node_to_json(x) for x in node]
    if isinstance(node, Fraction):
        return _decimal(node)
    if isinstance(node, int):
        _decimal(node)  # json.dumps converts it the same way; refuse here, naming the limit
    return node


def document_to_json(doc: Document):
    """JSON mirror of the s-expression: same nesting, rationals as strings."""
    node = document_to_node(doc)
    return {"kind": doc.kind, "dimension": doc.dimension, "body": node_to_json(node[2:])}


# Text-level round trips for library callers and the tests; the CLI uses its own `_load`.


def parse_cochain(text: str) -> Cochain:
    doc = parse_document(text)
    if doc.kind != "cochain":
        raise ValueError(f"expected a cochain document, got {doc.kind}")
    return doc.payload


def print_cochain(c: Cochain) -> str:
    return print_document(Document("cochain", c.dimension, c))


def parse_polynomial(text: str) -> Polynomial:
    doc = parse_document(text)
    if doc.kind != "poly":
        raise ValueError(f"expected a poly document, got {doc.kind}")
    return doc.payload


def print_polynomial(p: Polynomial) -> str:
    return print_document(Document("poly", p.dimension, p))


def parse_deformation(text: str) -> Deformation:
    doc = parse_document(text)
    if doc.kind != "deformation":
        raise ValueError(f"expected a deformation document, got {doc.kind}")
    return doc.payload


def print_deformation(d: Deformation) -> str:
    return print_document(Document("deformation", d.dimension, d))
