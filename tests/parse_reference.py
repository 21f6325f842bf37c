"""The formula front end before its one-`findall` tokenizer, kept only as a
test reference.

This is the earlier tokenizer and parser, unchanged: a regex with one named
group per token kind, whose every match yields a kind, a text and an
offset, and a recursive-descent parser over those three parallel lists.
The suite checks that `smartlot.formulas.parse` gives an equal tree, or the
same error with the same offset and expected tokens, on every text it
tries.
"""

from __future__ import annotations

import re

from smartlot.formulas import (
    MAX_DEPTH,
    Always,
    And,
    Atom,
    Eventually,
    Formula,
    FormulaDepthError,
    FormulaSyntaxError,
    Iff,
    Implies,
    Not,
    Or,
)


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
    atom.name = name
    return atom


def parse(text: str) -> Formula:
    if not text.strip():
        raise FormulaSyntaxError("empty input", 0, ("formula",))
    return _Parser(text).parse()
