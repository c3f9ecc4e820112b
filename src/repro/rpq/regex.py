"""Path regular expression parser.

A regular path query constrains the sequence of edge labels along a
path with a regular expression.  The dialect implemented here covers
what graph query languages (SPARQL property paths, Cypher/GQL path
patterns) and the paper's workloads need:

* ``a`` — match one edge with label ``a``;
* ``.`` or ``_`` — match one edge with any label (the paper's k-hop
  queries are ``. {k}`` in this dialect);
* ``e1/e2`` — concatenation (``/`` is the SPARQL-style separator;
  juxtaposition with whitespace also works);
* ``e1|e2`` — alternation;
* ``e*``, ``e+``, ``e?`` — Kleene closure, one-or-more, optional;
* ``e{m}``, ``e{m,n}`` — bounded repetition;
* parentheses for grouping.

The parser is a hand-written recursive-descent parser producing a small
AST (:class:`RegexNode` subclasses) that the automaton builder and the
logical planner consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

#: Wildcard token matching any edge label.
ANY_LABEL = "."


class RegexSyntaxError(ValueError):
    """Raised when a path expression cannot be parsed."""


# ----------------------------------------------------------------------
# AST
# ----------------------------------------------------------------------
class RegexNode:
    """Base class of path-regex AST nodes."""

    def is_fixed_length(self) -> bool:
        """Whether every string matched by this node has the same length."""
        raise NotImplementedError

    def fixed_length(self) -> Optional[int]:
        """The common length when :meth:`is_fixed_length`, else ``None``."""
        raise NotImplementedError


@dataclass(frozen=True)
class Label(RegexNode):
    """Match a single edge carrying ``name`` (or any edge for ``.``)."""

    name: str

    @property
    def is_wildcard(self) -> bool:
        """Whether this atom matches any label."""
        return self.name == ANY_LABEL

    def is_fixed_length(self) -> bool:
        return True

    def fixed_length(self) -> Optional[int]:
        return 1


@dataclass(frozen=True)
class Concat(RegexNode):
    """Match ``parts`` one after another."""

    parts: Tuple[RegexNode, ...]

    def is_fixed_length(self) -> bool:
        return all(part.is_fixed_length() for part in self.parts)

    def fixed_length(self) -> Optional[int]:
        if not self.is_fixed_length():
            return None
        return sum(part.fixed_length() or 0 for part in self.parts)


@dataclass(frozen=True)
class Union(RegexNode):
    """Match either of ``options``."""

    options: Tuple[RegexNode, ...]

    def is_fixed_length(self) -> bool:
        lengths = {option.fixed_length() for option in self.options
                   if option.is_fixed_length()}
        return (
            len(lengths) == 1
            and all(option.is_fixed_length() for option in self.options)
        )

    def fixed_length(self) -> Optional[int]:
        if not self.is_fixed_length():
            return None
        return self.options[0].fixed_length()


@dataclass(frozen=True)
class Repeat(RegexNode):
    """Match ``inner`` between ``minimum`` and ``maximum`` times.

    ``maximum`` of ``None`` means unbounded (Kleene closure).
    """

    inner: RegexNode
    minimum: int
    maximum: Optional[int]

    def is_fixed_length(self) -> bool:
        return (
            self.maximum is not None
            and self.minimum == self.maximum
            and self.inner.is_fixed_length()
        )

    def fixed_length(self) -> Optional[int]:
        if not self.is_fixed_length():
            return None
        inner_length = self.inner.fixed_length() or 0
        return inner_length * self.minimum


# ----------------------------------------------------------------------
# Tokenizer
# ----------------------------------------------------------------------
_PUNCTUATION = set("()|/*+?{},")


def _tokenize(expression: str) -> List[str]:
    tokens: List[str] = []
    index = 0
    while index < len(expression):
        char = expression[index]
        if char.isspace():
            index += 1
            continue
        if char in _PUNCTUATION:
            tokens.append(char)
            index += 1
            continue
        if char == ".":
            tokens.append(ANY_LABEL)
            index += 1
            continue
        if char == "_":
            # A *bare* underscore is the SPARQL-style wildcard; an
            # underscore followed by an identifier character starts a
            # label (``_foo`` names a label, it is not ``./foo``).  The
            # start set must mirror the continuation set below or
            # leading-underscore labels silently change meaning.
            next_char = expression[index + 1] if index + 1 < len(expression) else ""
            if not (next_char.isalnum() or next_char in set("-_:$")):
                tokens.append(ANY_LABEL)
                index += 1
                continue
        if char.isalnum() or char in "-_:$":
            start = index
            while index < len(expression) and (
                expression[index].isalnum() or expression[index] in "-_:$"
            ):
                index += 1
            tokens.append(expression[start:index])
            continue
        raise RegexSyntaxError(
            f"unexpected character {char!r} at position {index} in {expression!r}"
        )
    return tokens


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
class _Parser:
    def __init__(self, tokens: List[str], source: str) -> None:
        self._tokens = tokens
        self._source = source
        self._position = 0

    def _peek(self) -> Optional[str]:
        if self._position < len(self._tokens):
            return self._tokens[self._position]
        return None

    def _advance(self) -> str:
        token = self._tokens[self._position]
        self._position += 1
        return token

    def _expect(self, token: str) -> None:
        actual = self._peek()
        if actual != token:
            raise RegexSyntaxError(
                f"expected {token!r} but found {actual!r} in {self._source!r}"
            )
        self._advance()

    # union := concat ('|' concat)*
    def parse_union(self) -> RegexNode:
        options = [self.parse_concat()]
        while self._peek() == "|":
            self._advance()
            options.append(self.parse_concat())
        if len(options) == 1:
            return options[0]
        return Union(tuple(options))

    # concat := postfix (('/' postfix) | postfix)*
    def parse_concat(self) -> RegexNode:
        parts = [self.parse_postfix()]
        while True:
            token = self._peek()
            if token == "/":
                self._advance()
                parts.append(self.parse_postfix())
            elif token is not None and token not in ")|":
                parts.append(self.parse_postfix())
            else:
                break
        if len(parts) == 1:
            return parts[0]
        return Concat(tuple(parts))

    # postfix := atom ('*' | '+' | '?' | '{m}' | '{m,n}')*
    def parse_postfix(self) -> RegexNode:
        node = self.parse_atom()
        while True:
            token = self._peek()
            if token == "*":
                self._advance()
                node = Repeat(node, minimum=0, maximum=None)
            elif token == "+":
                self._advance()
                node = Repeat(node, minimum=1, maximum=None)
            elif token == "?":
                self._advance()
                node = Repeat(node, minimum=0, maximum=1)
            elif token == "{":
                node = self._parse_bounds(node)
            else:
                return node

    def _parse_bounds(self, node: RegexNode) -> RegexNode:
        self._expect("{")
        minimum = self._parse_int()
        maximum: Optional[int] = minimum
        if self._peek() == ",":
            self._advance()
            if self._peek() == "}":
                maximum = None
            else:
                maximum = self._parse_int()
        self._expect("}")
        if maximum is not None and maximum < minimum:
            raise RegexSyntaxError(
                f"invalid repetition bounds {{{minimum},{maximum}}} in {self._source!r}"
            )
        return Repeat(node, minimum=minimum, maximum=maximum)

    def _parse_int(self) -> int:
        token = self._peek()
        if token is None or not token.isdigit():
            raise RegexSyntaxError(
                f"expected an integer but found {token!r} in {self._source!r}"
            )
        self._advance()
        return int(token)

    # atom := LABEL | '.' | '(' union ')'
    def parse_atom(self) -> RegexNode:
        token = self._peek()
        if token is None:
            raise RegexSyntaxError(f"unexpected end of expression in {self._source!r}")
        if token == "(":
            self._advance()
            node = self.parse_union()
            self._expect(")")
            return node
        if token in _PUNCTUATION:
            raise RegexSyntaxError(
                f"unexpected token {token!r} in {self._source!r}"
            )
        self._advance()
        return Label(token)

    def finished(self) -> bool:
        return self._position == len(self._tokens)


def parse_path_expression(expression: str) -> RegexNode:
    """Parse ``expression`` into a path-regex AST.

    Raises
    ------
    RegexSyntaxError
        On empty input or malformed syntax.
    """
    tokens = _tokenize(expression)
    if not tokens:
        raise RegexSyntaxError("empty path expression")
    parser = _Parser(tokens, expression)
    node = parser.parse_union()
    if not parser.finished():
        raise RegexSyntaxError(
            f"trailing tokens after position {parser._position} in {expression!r}"
        )
    return node


def unrolled_length(node: RegexNode) -> int:
    """Atom copies in ``node`` once bounded repetitions are unrolled.

    ``e{m}`` and ``e{m,n}`` copy ``e`` ``m`` / ``n`` times into the
    automaton and nested bounds multiply, so this — not the length of
    the text — is what DFA construction costs: ``.{20000}`` is nine
    characters and 20 000 states.  An unbounded tail (``*``, ``+``,
    ``{m,}``) loops over one copy however long the paths it matches, so
    Kleene operators add none.  O(AST): nothing is unrolled to count.
    """
    if isinstance(node, Label):
        return 1
    if isinstance(node, Concat):
        return sum(unrolled_length(part) for part in node.parts)
    if isinstance(node, Union):
        return sum(unrolled_length(option) for option in node.options)
    if isinstance(node, Repeat):
        copies = node.maximum if node.maximum is not None else max(1, node.minimum)
        return copies * unrolled_length(node.inner)
    raise TypeError(f"unknown regex node {node!r}")


def khop_expression(hops: int) -> str:
    """The path expression of a k-hop query: ``.{k}`` (any label, k edges)."""
    if hops < 1:
        raise ValueError("hops must be at least 1")
    return f".{{{hops}}}"
