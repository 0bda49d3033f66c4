"""A small textual DSL for consistency constraints.

Grammar (quantifiers bind as far right as possible; ``implies`` is
right-associative and binds weaker than ``or``, which binds weaker
than ``and``; ``not`` binds tightest)::

    formula     := quantified
    quantified  := ("forall" | "exists") IDENT "in" IDENT
                   ("," quantified | ":" quantified)
                 | implication
    implication := disjunction [ "implies" quantified ]
    disjunction := conjunction ( "or" conjunction )*
    conjunction := negation ( "and" negation )*
    negation    := "not" negation | atom
    atom        := "(" formula ")" | predicate
    predicate   := IDENT "(" [ term ("," term)* ] ")"
    term        := IDENT            -- a bound variable
                 | NUMBER           -- int or float literal
                 | STRING           -- single- or double-quoted literal

Example::

    parse_constraint(
        "adjacent-velocity",
        "forall p1 in location, forall p2 in location : "
        "adjacent(p1, p2) implies velocity_le(p1, p2, 1.5)",
    )
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional

from .ast import (
    And,
    Constraint,
    Existential,
    Formula,
    Implies,
    Literal,
    Not,
    Or,
    Predicate,
    Term,
    Universal,
    Var,
)

__all__ = ["ParseError", "parse_formula", "parse_constraint"]


class ParseError(ValueError):
    """Raised when constraint text cannot be parsed."""


_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<NUMBER>-?\d+(\.\d+)?([eE][-+]?\d+)?)
  | (?P<STRING>'[^']*'|"[^"]*")
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
  | (?P<COLON>:)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"forall", "exists", "in", "implies", "and", "or", "not"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r} at offset {pos}")
        kind = match.lastgroup or ""
        value = match.group()
        pos = match.end()
        if kind == "WS":
            continue
        if kind == "IDENT" and value in _KEYWORDS:
            kind = value.upper()
        tokens.append(_Token(kind, value, match.start()))
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self._text = text
        self._tokens = _tokenize(text)
        self._index = 0

    # -- token plumbing --------------------------------------------------

    def _peek(self) -> _Token:
        return self._tokens[self._index]

    def _advance(self) -> _Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect(self, kind: str) -> _Token:
        token = self._peek()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind} at offset {token.pos}, found "
                f"{token.text or 'end of input'!r}"
            )
        return self._advance()

    def _accept(self, kind: str) -> Optional[_Token]:
        if self._peek().kind == kind:
            return self._advance()
        return None

    # -- grammar ------------------------------------------------------------

    def parse(self) -> Formula:
        formula = self._quantified()
        token = self._peek()
        if token.kind != "EOF":
            raise ParseError(
                f"trailing input at offset {token.pos}: {token.text!r}"
            )
        return formula

    def _quantified(self) -> Formula:
        token = self._peek()
        if token.kind in ("FORALL", "EXISTS"):
            self._advance()
            var = self._expect("IDENT").text
            self._expect("IN")
            ctx_type = self._expect("IDENT").text
            if self._accept("COMMA"):
                body = self._quantified()
                if not isinstance(body, (Universal, Existential)):
                    raise ParseError(
                        "a comma after a quantifier must introduce "
                        "another quantifier"
                    )
            else:
                self._expect("COLON")
                body = self._quantified()
            cls = Universal if token.kind == "FORALL" else Existential
            return cls(var, ctx_type, body)
        return self._implication()

    def _implication(self) -> Formula:
        left = self._disjunction()
        if self._accept("IMPLIES"):
            right = self._quantified()
            return Implies(left, right)
        return left

    def _disjunction(self) -> Formula:
        formula = self._conjunction()
        while self._accept("OR"):
            formula = Or(formula, self._conjunction())
        return formula

    def _conjunction(self) -> Formula:
        formula = self._negation()
        while self._accept("AND"):
            formula = And(formula, self._negation())
        return formula

    def _negation(self) -> Formula:
        if self._accept("NOT"):
            return Not(self._negation())
        return self._atom()

    def _atom(self) -> Formula:
        if self._accept("LPAREN"):
            formula = self._quantified()
            self._expect("RPAREN")
            return formula
        name = self._expect("IDENT").text
        self._expect("LPAREN")
        args: List[Term] = []
        if self._peek().kind != "RPAREN":
            args.append(self._term())
            while self._accept("COMMA"):
                args.append(self._term())
        self._expect("RPAREN")
        return Predicate(name, tuple(args))

    def _term(self) -> Term:
        token = self._peek()
        if token.kind == "IDENT":
            self._advance()
            return Var(token.text)
        if token.kind == "NUMBER":
            self._advance()
            text = token.text
            if re.fullmatch(r"-?\d+", text):
                return Literal(int(text))
            return Literal(float(text))
        if token.kind == "STRING":
            self._advance()
            return Literal(token.text[1:-1])
        raise ParseError(
            f"expected a term at offset {token.pos}, found "
            f"{token.text or 'end of input'!r}"
        )


def parse_formula(text: str) -> Formula:
    """Parse constraint DSL text into a :class:`Formula`."""
    return _Parser(text).parse()


def parse_constraint(name: str, text: str, description: str = "") -> Constraint:
    """Parse DSL text into a named, closed :class:`Constraint`."""
    return Constraint(name=name, formula=parse_formula(text), description=description)
