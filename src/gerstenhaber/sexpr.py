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

A ``Cochain``, ``Polynomial`` or ``Deformation`` is its own document; a
report is its node ``("report", dimension, *body)``.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import islice
from reprlib import repr as _brief  # depth- and length-bounded repr for error messages
from typing import Union

from .cochains import Cochain, Polynomial, _check_dimension, _indices, _integer_form
from .starproduct import Deformation

Node = Union[int, Fraction, str, tuple]

KINDS = ("cochain", "poly", "deformation", "report")

# The largest order a deformation document may declare: each order costs a
# cochain, and an evaluation per star product, even without terms.
ORDER_LIMIT = 4096


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
    tokens = _TOKEN.findall(text)
    if ";" in text:
        tokens = [token for token in tokens if token[0] != ";"]
    if not tokens:
        raise SexprError("empty input", 1, 1)
    atoms: dict[str, Node] = {}  # each distinct atom is converted once, at its first occurrence
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
            node = atoms.get(token)
            if node is None:
                node = atoms[token] = _atom(token, text, index)
        if not stack:
            break
        stack[-1][0].append(node)
    else:
        raise _error("unexpected end of input inside list", text, stack[-1][1])
    if index + 1 != len(tokens):
        raise _error(f"unexpected trailing content {tokens[index + 1]!r}", text, index + 1)
    return node


def format_sexpr(node: Node) -> str:
    """Deterministic text for a node, one line per nested top-level item.

    A term record ``("term", coefficient, index, ...)`` is joined in one
    step, and each distinct index is rendered once per call.  Equal indices
    print alike: an int and an equal ``Fraction`` print the same digits.
    """
    rendered: dict[tuple, str] = {}

    def index_text(index: tuple) -> str:
        text = rendered.get(index)
        if text is None:
            text = rendered[index] = flat(index)
        return text

    def flat(n: Node) -> str:
        if not isinstance(n, tuple):
            return _decimal(n)
        if len(n) > 2 and n[0] == "term":
            return "(term " + _decimal(n[1]) + " " + " ".join(map(index_text, n[2:])) + ")"
        return "(" + " ".join(map(flat, n)) + ")"

    if not isinstance(node, tuple):
        return flat(node)
    head = [flat(x) for x in node if not isinstance(x, tuple)]
    body = [flat(x) for x in node if isinstance(x, tuple)]
    if not body:
        return "(" + " ".join(head) + ")"
    lines = ["(" + " ".join(head)]
    lines.extend("  " + item for item in body)
    return "\n".join(lines) + ")"


def _expect_list(node: Node, what: str) -> tuple:
    if not isinstance(node, tuple):
        raise ValueError(f"expected a list for {what}, got {_brief(node)}")
    return node


_is_int = int.__instancecheck__  # isinstance(v, int), for map()


def _term_records(nodes, dimension: int, polynomial: bool):
    """``(indices, coefficient)`` of each term record, checked for form.

    A record is ``("term", rational, index, ...)`` with at least one index,
    exactly one in a polynomial, and an index is a list of ``dimension``
    integers.  A cochain's record is then checked for the dimension and its
    signs; a polynomial's caller checks those once every record is read.
    """
    for node in nodes:
        if not isinstance(node, tuple):
            raise ValueError(f"expected a list for term, got {_brief(node)}")
        if len(node) < 3 or node[0] != "term":
            raise ValueError(f"malformed term {_brief(node)}")
        coeff = node[1]
        if not isinstance(coeff, (int, Fraction)):
            raise ValueError(f"term coefficient {_brief(coeff)} is not rational")
        indices = node[2:]
        for index in indices:
            if not isinstance(index, tuple):
                raise ValueError(f"expected a list for index, got {_brief(index)}")
            if len(index) != dimension or not all(map(_is_int, index)):
                raise ValueError(f"index {_brief(index)} is not {dimension} integers")
        if polynomial:
            if len(indices) != 1:
                raise ValueError("polynomial terms carry exactly one index")
        else:
            if dimension < 1:
                _check_dimension(dimension)
            _check_signs(indices)
        yield indices, coeff


def _check_signs(indices) -> None:
    """Refuse the first of ``indices``, nonempty lists of integers, with a negative entry."""
    if min(map(min, indices), default=0) < 0:
        bad = next(index for index in indices if min(index) < 0)
        raise ValueError(f"exponent index must be nonnegative, got {bad}")


def _node_to_store(node: Node, kind: str, cls):
    """The ``Cochain`` or ``Polynomial`` of a ``cochain`` or ``poly`` document.

    Each term is checked for the exponent budget last: a cochain's one
    after another, a polynomial's once every form, the dimension and every
    sign are checked.
    """
    node = _expect_list(node, kind)
    if len(node) < 2 or node[0] != kind or not isinstance(node[1], int):
        raise ValueError(f"malformed {kind} document {_brief(node)}")
    dimension = node[1]
    records = _term_records(node[2:], dimension, cls is Polynomial)
    if cls is Polynomial:
        records = list(records)
        _check_dimension(dimension)
        _check_signs([indices[0] for indices, _ in records])
    form = _integer_form(records)
    _check_dimension(dimension)
    return cls._raw(dimension, *form)


def _store_to_node(kind: str, value) -> Node:
    n = value.dimension
    return (kind, n) + tuple(("term", coeff) + _indices(n, key) for key, coeff in value._sorted_items())


def cochain_to_node(c: Cochain) -> Node:
    return _store_to_node("cochain", c)


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
    if order > ORDER_LIMIT:
        raise ValueError(f"deformation order {order} exceeds the limit of {ORDER_LIMIT}")
    by_order: dict[int, Cochain] = {}
    for entry in node[3:]:
        entry = _expect_list(entry, "deformation coefficient")
        if len(entry) < 2 or entry[0] != "pk" or not isinstance(entry[1], int):
            raise ValueError(f"malformed deformation coefficient {_brief(entry)}")
        k = entry[1]
        if not 1 <= k <= order or k in by_order:
            raise ValueError(f"deformation coefficient order {k} out of range or repeated")
        by_order[k] = _node_to_store(("cochain", dimension) + tuple(entry[2:]), "cochain", Cochain)
    cochains = tuple(by_order.get(k, Cochain.zero(dimension)) for k in range(1, order + 1))
    return Deformation(dimension=dimension, cochains=cochains)


def deformation_to_node(d: Deformation) -> Node:
    entries = []
    for k in range(1, d.order + 1):
        c = d.coefficient(k)
        if not c.is_zero:
            entries.append(("pk", k) + cochain_to_node(c)[2:])
    return ("deformation", d.dimension, ("order", d.order)) + tuple(entries)


# Each typed kind: its type, node -> value and value -> node.  The converters
# are looked up by name when called, so a wrapper installed on the module
# attribute (the benchmark's tracer) sees every call.
_TYPED = {
    "cochain": (Cochain, lambda node: _node_to_store(node, "cochain", Cochain), lambda c: cochain_to_node(c)),
    "poly": (Polynomial, lambda node: _node_to_store(node, "poly", Polynomial), lambda p: _store_to_node("poly", p)),
    "deformation": (Deformation, lambda node: node_to_deformation(node), lambda d: deformation_to_node(d)),
}


def kind_of(document) -> str:
    """The kind a document prints with: its type's, or a report node's head."""
    if isinstance(document, tuple):
        return document[0]
    for kind, (cls, _, _) in _TYPED.items():
        if type(document) is cls:
            return kind
    raise TypeError(f"not a document: {type(document).__name__}")


def to_node(document) -> Node:
    """The node ``document`` prints as."""
    if isinstance(document, tuple):
        return document
    return _TYPED[kind_of(document)][2](document)


def parse_document(text: str):
    """The document in ``text``: a typed value, or the node of a report."""
    node = _expect_list(parse_sexpr(text), "document")
    if len(node) < 2 or node[0] not in KINDS or not isinstance(node[1], int):
        raise ValueError("document must start with a kind and a dimension")
    if node[0] in _TYPED:
        return _TYPED[node[0]][1](node)
    return node


def print_document(document) -> str:
    return format_sexpr(to_node(document))


def node_to_json(node: Node):
    if isinstance(node, tuple):
        return [node_to_json(x) for x in node]
    if isinstance(node, Fraction):
        return _decimal(node)
    if isinstance(node, int):
        _decimal(node)  # json.dumps converts it the same way; refuse here, naming the limit
    return node


def document_to_json(document):
    """JSON mirror of the s-expression: same nesting, rationals as strings."""
    node = to_node(document)
    return {"kind": node[0], "dimension": node[1], "body": node_to_json(node[2:])}
