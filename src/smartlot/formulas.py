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


class Formula:
    """Base of the formula nodes.  Equality and hashing walk explicit stacks,
    so a long & / | chain compares and hashes like a short one; a node
    stores its hash the first time it is asked for."""

    _hash = None

    def __str__(self) -> str:
        return pretty(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            t = type(a)
            if t is not type(b):
                return False
            if t is Atom:
                if a.name != b.name:
                    return False
            elif t in _UNARY_NODES:
                todo.append((a.operand, b.operand))
            else:
                todo.append((a.right, b.right))
                todo.append((a.left, b.left))
        return True

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            # the preorder of node types and atom names, which fixed arities
            # make unambiguous: equal formulas, and only those, give equal
            # sequences
            seq: list = []
            todo: list[Formula] = [self]
            while todo:
                g = todo.pop()
                t = type(g)
                if t is Atom:
                    seq.append(g.name)
                elif t in _UNARY_NODES:
                    seq.append(t)
                    todo.append(g.operand)
                else:
                    seq.append(t)
                    todo.append(g.right)
                    todo.append(g.left)
            h = hash(tuple(seq))
            object.__setattr__(self, "_hash", h)
        return h


@dataclass(frozen=True, eq=False)
class Atom(Formula):
    name: str

    def __post_init__(self):
        if not ATOM_RE.fullmatch(self.name):
            raise ValueError(f"invalid atom name: {self.name!r}")


@dataclass(frozen=True, eq=False)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True, eq=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Eventually(Formula):
    operand: Formula


@dataclass(frozen=True, eq=False)
class Always(Formula):
    operand: Formula


_UNARY_NODES = (Not, Eventually, Always)


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

# one match per token: blanks, then a token or any other visible character,
# which is an error; trailing blanks match nothing
_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<iff><->)"
    r"|(?P<implies>->)"
    r"|(?P<not>!)"
    r"|(?P<and>&)"
    r"|(?P<or>\|)"
    r"|(?P<lpar>\()"
    r"|(?P<rpar>\))"
    r"|(?P<eventually>F)"
    r"|(?P<always>G)"
    r"|(?P<atom>[a-z][a-zA-Z0-9]*)"
    r"|(?P<bad>\S))"
)


def _tokenize(text: str) -> tuple[list[str], list[str], list[int]]:
    """Token kinds, texts and offsets, ending in an "eof" token."""
    kinds: list[str] = []
    values: list[str] = []
    offsets: list[int] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        pos = m.start(kind)
        if kind == "bad":
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos, ("token",))
        kinds.append(kind)
        values.append(m.group(kind))
        offsets.append(pos)
    kinds.append("eof")
    values.append("")
    offsets.append(len(text))
    return kinds, values, offsets


class _Parser:
    def __init__(self, text: str):
        self.kinds, self.values, self.offsets = _tokenize(text)
        self.i = 0  # index of the next token
        self.depth = 0  # operators and parentheses enclosing the next token

    def deeper(self) -> None:
        """Take an operator or "(" whose operand nests one level deeper; the
        caller steps back out with `self.depth -= 1`."""
        if self.depth == MAX_DEPTH:
            raise FormulaDepthError(self.offsets[self.i])
        self.i += 1
        self.depth += 1

    def error(self, expected: tuple[str, ...]):
        i = self.i
        what = "end of input" if self.kinds[i] == "eof" else repr(self.values[i])
        raise FormulaSyntaxError(f"unexpected {what}", self.offsets[i], expected)

    def parse(self) -> Formula:
        f = self.iff()
        if self.kinds[self.i] != "eof":
            self.error(("end of input",))
        return f

    def iff(self) -> Formula:
        left = self.implies()
        if self.kinds[self.i] == "iff":
            self.i += 1
            right = self.implies()
            if self.kinds[self.i] == "iff":
                # chained <-> without parentheses is ambiguous; reject
                self.error(("end of input", ")"))
            return Iff(left, right)
        return left

    def implies(self) -> Formula:
        left = self.disjunction()
        if self.kinds[self.i] == "implies":
            self.deeper()
            f = Implies(left, self.implies())
            self.depth -= 1
            return f
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        kinds = self.kinds
        while kinds[self.i] == "or":
            self.i += 1
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        kinds = self.kinds
        while kinds[self.i] == "and":
            self.i += 1
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        i = self.i
        kind = self.kinds[i]
        if kind == "atom":
            self.i = i + 1
            return _parsed_atom(self.values[i])
        if kind != "lpar" and kind not in _UNARY:
            self.error(("!", "F", "G", "atom", "("))
        self.deeper()
        if kind == "lpar":
            f = self.iff()
            if self.kinds[self.i] != "rpar":
                self.error((")",))
            self.i += 1
        else:
            f = _UNARY[kind](self.unary())
        self.depth -= 1
        return f


_UNARY = {"not": Not, "eventually": Eventually, "always": Always}


def _parsed_atom(name: str) -> Atom:
    """An atom whose name the tokenizer has matched against ATOM_RE
    already, built without `Atom.__post_init__` matching it again."""
    atom = object.__new__(Atom)
    atom.__dict__["name"] = name
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
    combined = formulas[0]
    for f in formulas[1:]:
        combined = And(combined, f)
    return combined


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
