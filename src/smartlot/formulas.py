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
# of ->.  MAX_DEPTH bounds that nesting well below the interpreter's
# recursion limit (a parenthesis costs five parser frames).  A flat & / |
# chain is no nesting to the parser but a tree as deep as it is long; the
# printer, the normal form and the prover's expansion walk it with explicit
# stacks.

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


def pretty(f: Formula) -> str:
    """Canonical text with minimal parentheses; round-trips through parse."""
    # todo holds text and (formula, least precedence that needs no
    # parentheses) pairs; no recursion, so a long & / | chain prints like a
    # short one
    out: list[str] = []
    todo: list = [(f, 0)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        g, min_prec = item
        t = type(g)
        if t is Atom:
            out.append(g.name)
            continue
        prec = _PREC.get(t)
        if prec is None:
            raise TypeError(f"not a formula: {g!r}")
        if prec < min_prec:
            out.append("(")
            todo.append(")")
        if t in _PREFIX:
            out.append(_PREFIX[t])
            todo.append((g.operand, prec))
        elif t is Implies:
            # right-associative
            todo += ((g.right, prec), " -> ", (g.left, prec + 1))
        elif t is Iff:
            # non-associative: parenthesize nested <-> on both sides
            todo += ((g.right, prec + 1), " <-> ", (g.left, prec + 1))
        else:
            todo += ((g.right, prec + 1), _INFIX[t], (g.left, prec))
    return "".join(out)


_PREFIX = {Not: "!", Eventually: "F ", Always: "G "}
_INFIX = {And: " & ", Or: " | "}


# ---------------------------------------------------------------------------
# Normal form and queries


def nnf(f: Formula) -> Formula:
    """Push negations to atoms, eliminating -> and <-> on the way."""
    # todo holds (formula, negate) pairs to normalize and (connective,
    # arity) pairs that combine the last results; no recursion, so a long
    # & / | chain normalizes like a short one
    done: list[Formula] = []
    todo: list[tuple] = [(f, False)]
    while todo:
        g, negate = todo.pop()
        t = type(g)
        if t is type:
            if negate == 2:
                right = done.pop()
                done[-1] = g(done[-1], right)
            else:
                done[-1] = g(done[-1])
        elif t is Atom:
            done.append(Not(g) if negate else g)
        elif t is Not:
            todo.append((g.operand, not negate))
        elif t is And or t is Or:
            todo += ((_DUAL[t] if negate else t, 2), (g.right, negate), (g.left, negate))
        elif t is Eventually or t is Always:
            todo += ((_DUAL[t] if negate else t, 1), (g.operand, negate))
        elif t is Implies:
            if negate:
                todo += ((And, 2), (g.right, True), (g.left, False))
            else:
                todo += ((Or, 2), (g.right, False), (g.left, True))
        elif t is Iff:
            # negated: (l & !r) | (!l & r); else (l & r) | (!l & !r)
            todo += ((Or, 2), (And, 2), (g.right, not negate), (g.left, True),
                     (And, 2), (g.right, negate), (g.left, False))
        else:
            raise TypeError(f"not a formula: {g!r}")
    return done[0]


_DUAL = {And: Or, Or: And, Eventually: Always, Always: Eventually}


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
