"""Temporal formula trees, parsing, printing, negation normal form and atom
queries.

The fragment covers the classical connectives plus the two unary temporal
operators F ("eventually") and G ("always").  Nodes are plain slotted records
that nothing changes after building, as the hash depends on it: a formula is
known by its canonical printed text, so two formulas are equal when they
print alike, which for this printer is when their trees are alike.

One walk, `atoms`, reads all the atoms of a formula, or only those that an
operator of given types encloses: an F, or an F or a G for what the
prover's goal-directed search may still reach.  The spots a formula promises
are read by a walk that also tracks the sign (`promised_atoms`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce

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


class Formula:
    """Base of the formula nodes, plain slotted records.  A formula is known
    by its canonical text (`pretty`), printed once into the `_text` slot,
    unset until then, and compared and hashed as that text, so a long & / |
    chain compares and hashes like a short one.  By convention nothing
    assigns to a node's fields after building it: the hash depends on it."""

    __slots__ = ("_text",)

    def __str__(self) -> str:
        try:
            return self._text
        except AttributeError:
            self._text = text = pretty(self)
            return text

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        return self is other or str(self) == str(other)

    def __hash__(self) -> int:
        return hash(str(self))


@dataclass(slots=True, eq=False)
class Atom(Formula):
    name: str

    def __post_init__(self):
        if not ATOM_RE.fullmatch(self.name):
            raise ValueError(f"invalid atom name: {self.name!r}")


@dataclass(slots=True, eq=False)
class Not(Formula):
    operand: Formula


@dataclass(slots=True, eq=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(slots=True, eq=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(slots=True, eq=False)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(slots=True, eq=False)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(slots=True, eq=False)
class Eventually(Formula):
    operand: Formula


@dataclass(slots=True, eq=False)
class Always(Formula):
    operand: Formula


_UNARY_NODES = (Not, Eventually, Always)


# ---------------------------------------------------------------------------
# Lexer / parser
#
# Precedence, tightest first: unary (!, F, G), &, |, -> (right assoc),
# <-> (non-associative: a <-> b <-> c is rejected).
#
# One `findall` reads the tokens as bare texts.  A character that starts no
# token ends the scan: the pattern's last alternative takes it with the rest
# of the text, so the last token tells at once whether the text holds a bad
# character, and where the first one is.  That error is raised before the
# parser starts, so it wins over any other.  The parser dispatches on the
# token text itself.  It keeps no offsets: one re-scan of the text with the
# same pattern finds the offset of the token an error is raised at.
#
# The parser nests one call per unary operator, parenthesis and right
# operand of ->, and at most two more per parenthesis (the right side of
# <->, an operand of |).  MAX_DEPTH bounds that nesting well below the
# interpreter's recursion limit.  A flat & / | chain is no nesting to the
# parser but a tree as deep as it is long; the printer, the normal form and
# the prover's expansion walk it with explicit stacks.

MAX_DEPTH = 100

# blanks, then a token, or a bad character and all that follows it;
# trailing blanks match nothing
_TOKEN_RE = re.compile(r"\s*(<->|->|[!&|()FG]|[a-z][a-zA-Z0-9]*|\S.*)", re.DOTALL)

_OPERATORS = frozenset(("<->", "->", "!", "&", "|", "(", ")", "F", "G"))
_UNARY = {"!": Not, "F": Eventually, "G": Always}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokens = _TOKEN_RE.findall(text)
        last = tokens[-1]
        if last not in _OPERATORS and not "a" <= last < "{":
            offset = len(text) - len(last)
            raise FormulaSyntaxError(f"unexpected character {last[0]!r}", offset, ("token",))
        tokens.append("")  # end of input
        self.i = 0  # index of the next token
        self.depth = 0  # operators and parentheses enclosing the next token

    def offset(self) -> int:
        """The offset of the next token, for an error."""
        for k, m in enumerate(_TOKEN_RE.finditer(self.text)):
            if k == self.i:
                return m.start(1)
        return len(self.text)  # end of input

    def error(self, expected: tuple[str, ...]):
        token = self.tokens[self.i]
        what = repr(token) if token else "end of input"
        raise FormulaSyntaxError(f"unexpected {what}", self.offset(), expected)

    def deeper(self) -> None:
        """Take an operator or "(" whose operand nests one level deeper; the
        caller steps back out with `self.depth -= 1`."""
        if self.depth == MAX_DEPTH:
            raise FormulaDepthError(self.offset())
        self.i += 1
        self.depth += 1

    def parse(self) -> Formula:
        f = self.expression(1)
        if self.tokens[self.i]:
            self.error(("end of input",))
        return f

    def expression(self, bind: int) -> Formula:
        """A formula whose binary operators bind at least as tightly as
        `bind`: 1 for <-> (a whole formula), 2 for ->, 4 for & (an operand
        of |)."""
        tokens = self.tokens
        f = self.operand()
        while True:
            token = tokens[self.i]
            if token == "&":
                self.i += 1
                f = And(f, self.operand())
            elif token == "|" and bind <= 3:
                self.i += 1
                f = Or(f, self.expression(4))
            elif token == "->" and bind <= 2:
                self.deeper()
                f = Implies(f, self.expression(2))
                self.depth -= 1
            elif token == "<->" and bind == 1:
                self.i += 1
                f = Iff(f, self.expression(2))
                if tokens[self.i] == "<->":
                    # chained <-> without parentheses is ambiguous; reject
                    self.error(("end of input", ")"))
                return f
            else:
                return f

    def operand(self) -> Formula:
        """An atom, a parenthesized formula, or a unary operator and its
        operand."""
        token = self.tokens[self.i]
        if "a" <= token < "{":  # the pattern matched an atom
            self.i += 1
            return _parsed_atom(token)
        if token == "(":
            self.deeper()
            f = self.expression(1)
            if self.tokens[self.i] != ")":
                self.error((")",))
            self.i += 1
        elif token in _UNARY:
            self.deeper()
            f = _UNARY[token](self.operand())
        else:
            self.error(("!", "F", "G", "atom", "("))
        self.depth -= 1
        return f


def _parsed_atom(name: str) -> Atom:
    """An atom whose name the tokenizer has matched against ATOM_RE
    already, built without `Atom.__post_init__` matching it again."""
    atom = object.__new__(Atom)
    atom.name = name
    return atom


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


def conjoin(formulas: list[Formula]) -> Formula:
    """The left-nested conjunction of a non-empty list."""
    return reduce(And, formulas)


def atoms(f: Formula, under: tuple[type, ...] = ()) -> set[str]:
    """The names of f's atoms; given operator types, only those of the
    atoms that such an operator encloses."""
    out: set[str] = set()
    # (formula, whether an operator in `under` encloses it) pairs
    stack: list[tuple[Formula, bool]] = [(f, not under)]
    while stack:
        g, inside = stack.pop()
        t = type(g)
        if t is Atom:
            if inside:
                out.add(g.name)
        elif t in _UNARY_NODES:
            stack.append((g.operand, inside or t in under))
        else:
            stack += ((g.left, inside), (g.right, inside))
    return out


def eventually_atoms(f: Formula) -> set[str]:
    """Atoms that occur somewhere under an F operator."""
    return atoms(f, (Eventually,))


def promised_atoms(f: Formula) -> set[str]:
    """The atoms that occur positively under an F of `nnf(f)`, read in one
    walk that tracks the sign by `nnf`'s rules and builds no formula."""
    out: set[str] = set()
    stack = [(f, False, False)]  # (formula, negated, under an F of the normal form)
    while stack:
        g, negate, inside = stack.pop()
        t = type(g)
        if t is Atom:
            if inside and not negate:
                out.add(g.name)
        elif t in _UNARY_NODES:  # a negated G is an F of the normal form
            stack.append((g.operand, negate != (t is Not), inside or t is (Always if negate else Eventually)))
        else:  # a premise of -> is negated, and each side of <-> takes both signs
            stack += ((g.left, negate != (t is Implies), inside), (g.right, negate, inside))
            if t is Iff:
                stack += ((g.left, not negate, inside), (g.right, not negate, inside))
    return out


def count_eventually(f: Formula) -> int:
    n = 0
    stack = [f]
    while stack:
        g = stack.pop()
        t = type(g)
        n += t is Eventually
        if t in _UNARY_NODES:
            stack.append(g.operand)
        elif t is not Atom:
            stack += (g.left, g.right)
    return n
