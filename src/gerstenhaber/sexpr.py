"""S-expression surface syntax for cochains, polynomials, deformations, reports.

Grammar (UTF-8):

    document := "(" kind INT body ")"        kind in {cochain, poly, deformation, report}
    term     := "(" "term" rational index+ ")"
    index    := "(" INT{n} ")"
    rational := INT | INT "/" INT

In a cochain term the first index is the x-exponent and the remaining
indices are the slots, in order; a polynomial term carries exactly one
index.  Printing emits canonical ordering, so parse(print(x)) == x and
printing is deterministic byte for byte.  The JSON form mirrors the
s-expression one-to-one, rationals as strings, written straight from the node.

A ``Cochain``, ``Polynomial`` or ``Deformation`` is its own document; a
report is its node ``("report", dimension, *body)``.  In these nodes the
term records of a store are one ``Terms`` item, printed straight from the
store's sorted packed keys and numerators.

Reading and printing convert each distinct index once.  The tokenizer takes
an index list of short numerals, such as ``(6 3)``, as one token, which the
atom cache converts once; the reader checks each distinct index once and
packs it into its field group, and a term's key is its groups after the
sentinel.  The printer renders each distinct field group and each distinct
numerator once per document (in JSON, once per indent depth), and each
distinct list of plain ints, such as a grade, once per s-expression.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import islice
from reprlib import repr as _brief  # depth- and length-bounded repr for error messages
from typing import Union

from .cochains import (
    EXPONENT_BUDGET,
    _WIDTH,
    Cochain,
    Polynomial,
    _Memo,
    _check_dimension,
    _over_lcm,
    _pack,
    _unpack_index,
    _within_budget,
)
from .starproduct import Deformation

Node = Union[int, Fraction, str, tuple, "Terms"]

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


# A comment, an index list, a parenthesis or an atom.  Only space, tab, CR
# and LF separate tokens; every other character (VT, NBSP, ...) is part of an
# atom.  An index list is ASCII numerals of at most 5 digits, one space apart,
# as the printer writes them; any other list (a longer numeral, a sign, a
# comment, another blank) is read token by token, with the same result.
_TOKEN = re.compile(r";[^\n]*|\([0-9]{1,5}(?: [0-9]{1,5})*\)|[()]|[^ \t\r\n();]+")


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
    if token[0] == "(":  # an index list
        return tuple(map(int, token[1:-1].split(" ")))
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
    An index-list token is one atom, so each distinct index is converted
    once; trailing content that starts with one is reported as its '('.
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
        trailing = tokens[index + 1]
        trailing = trailing[0] if trailing[0] == "(" else trailing
        raise _error(f"unexpected trailing content {trailing!r}", text, index + 1)
    return node


class Terms:
    """The term records of a store's terms ``keys``, one item of a node.

    ``keys`` are packed keys of ``num``, in canonical (sorted) order; all of
    the store's keys when not given.  A record prints straight from its key
    and numerator: the coefficient is ``num[key] / den`` and the indices are
    the key's field groups.  Only the printers read a ``Terms``; two are
    equal when they hold the same records, and ``repr`` shows the records.
    """

    __slots__ = ("dimension", "num", "den", "keys")

    def __init__(self, store, keys=None):
        self.dimension, self.num, self.den = store.dimension, store._num, store._den
        self.keys = sorted(store._num) if keys is None else keys

    def _pairs(self) -> tuple:
        num, d = self.num, self.den
        return self.dimension, tuple((k, Fraction(num[k], d)) for k in self.keys)

    def __eq__(self, other) -> bool:
        return isinstance(other, Terms) and self._pairs() == other._pairs()

    def __hash__(self) -> int:
        return hash(self._pairs())

    def __repr__(self) -> str:
        records = _Records(_index_text)(self)
        return "Terms(" + " ".join("(term " + c + " " + " ".join(i) + ")" for c, i in records) + ")"


class _Records:
    """Term records as ``(coefficient text, [form of each index])``, each
    distinct field group and each distinct numerator rendered once."""

    def __init__(self, index_form):
        # Per dimension, each field group's form; per denominator, each numerator's text.
        self.groups = _Memo(lambda n: _Memo(lambda group: index_form(_unpack_index(n, group))))
        self.coefficients = _Memo(lambda den: _Memo(lambda m: _decimal(Fraction(m, den))))

    def __call__(self, terms: Terms):
        if not terms.keys:  # a zero value may have any dimension
            return
        n, num = terms.dimension, terms.num
        groups, coefficients = self.groups[n], self.coefficients[terms.den]
        width = _WIDTH * n
        mask = (1 << width) - 1
        for key in terms.keys:
            # Below the sentinel, one field group per index, the x-part highest.
            shifts = range(key.bit_length() - 1 - width, -1, -width)
            yield coefficients[num[key]], [groups[key >> shift & mask] for shift in shifts]


def _index_text(index: tuple) -> str:
    return "(" + " ".join(map(str, index)) + ")"


_only_int = {int}.issuperset  # whether an iterable of types holds no type but int


def format_sexpr(node: Node) -> str:
    """Deterministic text for a node, one line per nested top-level item.

    A ``Terms`` item gives one item per term record.  Equal atoms print
    alike: an int and an equal ``Fraction`` print the same digits.  Each
    distinct list of plain ints (no ``bool``), such as a grade in a report
    head, is rendered once.
    """
    records = _Records(_index_text)
    int_lists: dict[tuple, str] = {}  # only lists of plain ints: (True,) == (1,) prints otherwise

    def items(n) -> list[str]:
        out = []
        for x in n:
            if isinstance(x, Terms):
                out.extend("(term " + c + " " + " ".join(indices) + ")" for c, indices in records(x))
            elif isinstance(x, tuple):
                if _only_int(map(type, x)):
                    text = int_lists.get(x)
                    if text is None:
                        text = int_lists[x] = "(" + " ".join(map(_decimal, x)) + ")"
                else:
                    text = "(" + " ".join(items(x)) + ")"
                out.append(text)
            else:
                out.append(_decimal(x))
        return out

    if not isinstance(node, tuple):
        return _decimal(node)
    head = [_decimal(x) for x in node if not isinstance(x, (tuple, Terms))]
    body = items([x for x in node if isinstance(x, (tuple, Terms))])
    return "\n  ".join(["(" + " ".join(head), *body]) + ")"


def _expect_list(node: Node, what: str) -> tuple:
    if not isinstance(node, tuple):
        raise ValueError(f"expected a list for {what}, got {_brief(node)}")
    return node


_is_int = int.__instancecheck__  # isinstance(v, int), for map()


def _index_group(index: Node, dimension: int) -> int:
    """The field group of a term record's index, checked for form; -1 when
    an entry is negative or past the exponent budget."""
    if not isinstance(index, tuple):
        raise ValueError(f"expected a list for index, got {_brief(index)}")
    if len(index) != dimension or not all(map(_is_int, index)):
        raise ValueError(f"index {_brief(index)} is not {dimension} integers")
    if index and not 0 <= min(index) <= max(index) <= EXPONENT_BUDGET:
        return -1
    return _pack(index)


def _read_terms(nodes, dimension: int, polynomial: bool) -> tuple[dict, int, int]:
    """The reduced form of term records and the largest exponent in them.

    A record is ``("term", rational, index, ...)`` with at least one index,
    exactly one in a polynomial, and an index is a list of ``dimension``
    integers.  Each distinct index object is checked and packed into its
    field group once (the parser gives equal index tokens one object), and a
    record's key is its groups after the sentinel.  A record with a negative
    exponent, or one past the budget, is refused, naming its first negative
    index, else its largest exponent: a cochain's record when it is read,
    a polynomial's once every record's form is checked.
    """
    width = _WIDTH * dimension
    # id of each index object seen -> its field group; ``nodes`` keeps them alive.
    groups: dict[int, int] = {}
    bound = 0
    acc: dict = {}
    refused = []  # the indices of a polynomial's records that are refused
    for node in nodes:
        if not isinstance(node, tuple):
            raise ValueError(f"expected a list for term, got {_brief(node)}")
        if len(node) < 3 or node[0] != "term":
            raise ValueError(f"malformed term {_brief(node)}")
        coeff = node[1]
        if not isinstance(coeff, (int, Fraction)):
            raise ValueError(f"term coefficient {_brief(coeff)} is not rational")
        key = 1
        for index in islice(node, 2, None):
            group = groups.get(id(index))
            if group is None:
                group = groups[id(index)] = _index_group(index, dimension)
                if group > 0:
                    bound = max(bound, *index)
            key = key << width | group  # negative from a -1 group on
        if polynomial:
            if len(node) != 3:
                raise ValueError("polynomial terms carry exactly one index")
        elif dimension < 1:
            _check_dimension(dimension)
        if key < 0:
            if polynomial:
                refused.append(node[2:])
                continue
            _check_signs(node[2:])
            _within_budget(max(map(max, node[2:])), "exponent")
        acc[key] = coeff if (old := acc.get(key)) is None else old + coeff
    if refused:
        _check_signs([indices[0] for indices in refused])
        _within_budget(max(refused[0][0]), "exponent")
    return *_over_lcm(acc), bound


def _check_signs(indices) -> None:
    """Refuse the first of ``indices``, nonempty lists of integers, with a negative entry."""
    if min(map(min, indices), default=0) < 0:
        bad = next(index for index in indices if min(index) < 0)
        raise ValueError(f"exponent index must be nonnegative, got {bad}")


def _node_to_store(node: Node, kind: str, cls):
    """The ``Cochain`` or ``Polynomial`` of a ``cochain`` or ``poly`` document."""
    node = _expect_list(node, kind)
    if len(node) < 2 or node[0] != kind or not isinstance(node[1], int):
        raise ValueError(f"malformed {kind} document {_brief(node)}")
    dimension = node[1]
    form = _read_terms(node[2:], dimension, cls is Polynomial)
    _check_dimension(dimension)
    return cls._raw(dimension, *form)


def _store_to_node(kind: str, value) -> Node:
    return (kind, value.dimension, Terms(value))


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


def _array(texts: list, pad: str) -> str:
    """A JSON array of the item ``texts``, one a line, indented by ``pad``."""
    return "[\n" + pad + (",\n" + pad).join(texts) + "\n" + pad[2:] + "]" if texts else "[]"


def format_json(document) -> str:
    """The JSON mirror of ``document`` as ``json.dumps(mirror, indent=2)``
    writes it, in one walk: an object of the node's kind, dimension and body,
    a list an array, a term record ``["term", coefficient, index, ...]`` and a
    rational a string.  A node's strings are the package's names: no escapes."""
    node = to_node(document)
    # Per indent of a term record's items, its renderer: an index is an array one level deeper.
    records = _Memo(lambda pad: _Records(lambda index: _array([*map(str, index)], pad + "  ")))

    def items(n, pad: str) -> list[str]:  # ``pad``: the indent of the items of ``n``
        out, inner = [], pad + "  "
        for x in n:
            if isinstance(x, Terms):
                head, sep = "[\n" + inner + '"term",\n' + inner + '"', ",\n" + inner
                out.extend(head + c + '"' + sep + sep.join(i) + "\n" + pad + "]" for c, i in records[inner](x))
            elif isinstance(x, tuple):
                out.append(_array(items(x, inner), inner))
            else:
                out.append(_decimal(x) if isinstance(x, int) else '"' + _decimal(x) + '"')
        return out

    body = _array(items(node[2:], "    "), "    ")
    return '{\n  "kind": "' + node[0] + '",\n  "dimension": ' + _decimal(node[1]) + ',\n  "body": ' + body + "\n}"
