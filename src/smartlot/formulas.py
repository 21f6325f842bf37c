"""Temporal formula trees, parsing, printing and negation normal form.

The fragment covers the classical connectives plus the two unary temporal
operators F ("eventually") and G ("always").  Formulas are immutable values;
structural equality is used everywhere for deduplication.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

ATOM_RE = re.compile(r"[a-z][a-zA-Z0-9]*")


class FormulaSyntaxError(ValueError):
    """Parse failure with the byte offset and the tokens that were expected."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...]):
        super().__init__(f"{message} at offset {offset} (expected {', '.join(expected)})")
        self.offset = offset
        self.expected = expected


class FormulaDepthError(FormulaSyntaxError):
    """More than MAX_DEPTH operators or parentheses nested in each other."""

    def __init__(self, offset: int):
        super().__init__(f"nesting deeper than {MAX_DEPTH}", offset, ("a shallower formula",))


@dataclass(frozen=True)
class Formula:
    def __str__(self) -> str:
        return pretty(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str

    def __post_init__(self):
        if not ATOM_RE.fullmatch(self.name):
            raise ValueError(f"invalid atom name: {self.name!r}")


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    operand: Formula


@dataclass(frozen=True)
class Always(Formula):
    operand: Formula


# ---------------------------------------------------------------------------
# Lexer / parser
#
# Precedence, tightest first: unary (!, F, G), &, |, -> (right assoc),
# <-> (non-associative: a <-> b <-> c is rejected).
#
# The parser recurses once per unary operator, parenthesis and right operand
# of ->, and so do the printer, the normal form and the prover once per
# level of the tree.  MAX_DEPTH bounds that nesting well below the
# interpreter's recursion limit (a parenthesis costs five parser frames).

MAX_DEPTH = 100

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<iff><->)"
    r"|(?P<implies>->)"
    r"|(?P<not>!)"
    r"|(?P<and>&)"
    r"|(?P<or>\|)"
    r"|(?P<lpar>\()"
    r"|(?P<rpar>\))"
    r"|(?P<eventually>F)"
    r"|(?P<always>G)"
    r"|(?P<atom>[a-z][a-zA-Z0-9]*)"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos, ("token",))
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # operators and parentheses enclosing the next token

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def deeper(self) -> None:
        """Take an operator or "(" whose operand nests one level deeper; the
        caller steps back out with `self.depth -= 1`."""
        offset = self.take()[2]
        if self.depth == MAX_DEPTH:
            raise FormulaDepthError(offset)
        self.depth += 1

    def error(self, expected: tuple[str, ...]):
        kind, value, offset = self.peek()
        what = "end of input" if kind == "eof" else repr(value)
        raise FormulaSyntaxError(f"unexpected {what}", offset, expected)

    def parse(self) -> Formula:
        f = self.iff()
        if self.peek()[0] != "eof":
            self.error(("end of input",))
        return f

    def iff(self) -> Formula:
        left = self.implies()
        if self.peek()[0] == "iff":
            self.take()
            right = self.implies()
            if self.peek()[0] == "iff":
                # chained <-> without parentheses is ambiguous; reject
                self.error(("end of input", ")"))
            return Iff(left, right)
        return left

    def implies(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "implies":
            self.deeper()
            f = Implies(left, self.implies())
            self.depth -= 1
            return f
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek()[0] == "or":
            self.take()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.peek()[0] == "and":
            self.take()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        kind, _, _ = self.peek()
        if kind == "atom":
            return Atom(self.take()[1])
        if kind != "lpar" and kind not in _UNARY:
            self.error(("!", "F", "G", "atom", "("))
        self.deeper()
        if kind == "lpar":
            f = self.iff()
            if self.peek()[0] != "rpar":
                self.error((")",))
            self.take()
        else:
            f = _UNARY[kind](self.unary())
        self.depth -= 1
        return f


_UNARY = {"not": Not, "eventually": Eventually, "always": Always}


def parse(text: str) -> Formula:
    if not text.strip():
        raise FormulaSyntaxError("empty input", 0, ("formula",))
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printing

_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5, Eventually: 5, Always: 5, Atom: 6}


def _render(f: Formula, min_prec: int) -> str:
    prec = _PREC[type(f)]
    if isinstance(f, Atom):
        s = f.name
    elif isinstance(f, Not):
        s = "!" + _render(f.operand, prec)
    elif isinstance(f, Eventually):
        s = "F " + _render(f.operand, prec)
    elif isinstance(f, Always):
        s = "G " + _render(f.operand, prec)
    elif isinstance(f, And):
        s = _render(f.left, prec) + " & " + _render(f.right, prec + 1)
    elif isinstance(f, Or):
        s = _render(f.left, prec) + " | " + _render(f.right, prec + 1)
    elif isinstance(f, Implies):
        # right-associative
        s = _render(f.left, prec + 1) + " -> " + _render(f.right, prec)
    elif isinstance(f, Iff):
        # non-associative: parenthesize nested <-> on both sides
        s = _render(f.left, prec + 1) + " <-> " + _render(f.right, prec + 1)
    else:
        raise TypeError(f"not a formula: {f!r}")
    if prec < min_prec:
        return "(" + s + ")"
    return s


def pretty(f: Formula) -> str:
    """Canonical text with minimal parentheses; round-trips through parse."""
    return _render(f, 0)


# ---------------------------------------------------------------------------
# Normal form and queries


def nnf(f: Formula) -> Formula:
    """Push negations to atoms, eliminating -> and <-> on the way."""
    return _nnf(f, False)


def _nnf(f: Formula, negate: bool) -> Formula:
    if isinstance(f, Atom):
        return Not(f) if negate else f
    if isinstance(f, Not):
        return _nnf(f.operand, not negate)
    if isinstance(f, And):
        cls = Or if negate else And
        return cls(_nnf(f.left, negate), _nnf(f.right, negate))
    if isinstance(f, Or):
        cls = And if negate else Or
        return cls(_nnf(f.left, negate), _nnf(f.right, negate))
    if isinstance(f, Implies):
        if negate:
            return And(_nnf(f.left, False), _nnf(f.right, True))
        return Or(_nnf(f.left, True), _nnf(f.right, False))
    if isinstance(f, Iff):
        if negate:
            return Or(
                And(_nnf(f.left, False), _nnf(f.right, True)),
                And(_nnf(f.left, True), _nnf(f.right, False)),
            )
        return Or(
            And(_nnf(f.left, False), _nnf(f.right, False)),
            And(_nnf(f.left, True), _nnf(f.right, True)),
        )
    if isinstance(f, Eventually):
        cls = Always if negate else Eventually
        return cls(_nnf(f.operand, negate))
    if isinstance(f, Always):
        cls = Eventually if negate else Always
        return cls(_nnf(f.operand, negate))
    raise TypeError(f"not a formula: {f!r}")


def atoms(f: Formula) -> set[str]:
    out: set[str] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            out.add(g.name)
        elif isinstance(g, (Not, Eventually, Always)):
            stack.append(g.operand)
        else:
            stack.append(g.left)
            stack.append(g.right)
    return out


def eventually_atoms(f: Formula) -> set[str]:
    """Atoms that occur somewhere under an F operator."""
    out: set[str] = set()
    stack: list[tuple[Formula, bool]] = [(f, False)]
    while stack:
        g, inside = stack.pop()
        if isinstance(g, Atom):
            if inside:
                out.add(g.name)
        elif isinstance(g, Eventually):
            stack.append((g.operand, True))
        elif isinstance(g, (Not, Always)):
            stack.append((g.operand, inside))
        else:
            stack.append((g.left, inside))
            stack.append((g.right, inside))
    return out


def count_eventually(f: Formula) -> int:
    n = 0
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Eventually):
            n += 1
            stack.append(g.operand)
        elif isinstance(g, (Not, Always)):
            stack.append(g.operand)
        elif not isinstance(g, Atom):
            stack.append(g.left)
            stack.append(g.right)
    return n
