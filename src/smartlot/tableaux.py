"""Labeled truth-tree prover for the F/G temporal fragment.

Formulas are decomposed into a tree of branches.  Literals carry world
labels: a named label (written ``1.[a]``) marks the specific world introduced
by an F operator, a universal label (written ``1.[x]``) stands for the
current world and every later one, as introduced by G.  A branch closes when
it holds a literal and its negation under unifiable labels.

The expansion reads the parsed formula itself, each part under a sign
(Smullyan's uniform notation): `!` flips the sign; And+, Or- and Implies-
keep both parts on the branch; Or+, And-, Implies+ and Iff split it, left
first, as their negation normal form would; G+ and F- take a universal label
and F+ and G- name a new world.  No normal-form copy of the formula is built:
a part that waits under a universal label is stored as a commitment as it
is, and the realizability check compiles it under the same signs, one node
per subformula and sign, so a nested <-> costs nodes linear in its size.

Because the intended models are linear (a single time line with an
eventually constant tail), label unification alone is not a complete
satisfiability test: two universally labeled literals in sibling scopes both
reach the tail, and disjunctions under G may pick different disjuncts at
different worlds.  Branches that survive unification therefore go through an
exact realizability check, which closes a branch that no sequence of
positions can hold (see "Linear realizability" below).

One expansion yields the finished branches, depth first and left before
right, and builds no display.  Its branches share one literal list and one
commitment list as a trail (as DPLL solvers keep their assignments; Eén &
Sörensson, SAT 2003): a split records only the two lengths, and a branch
drawn later truncates the lists back to them.  The signed formulas left to
expand form a linked list whose rest both sides of a split share, so a
split copies nothing.  Beside the trail an index holds the labels of its
literals by sign and atom, popped with it, so a new literal is checked for
closure against the opposite literals of its own atom alone, and a branch
of n distinct literals costs O(n), not O(n^2).  A yielded literal list is
the trail itself, valid until the next branch is drawn: `build_tree` copies
it into each branch of a list, from which both exports draw the tree row by
row, in branch order (the literals a branch does not share with the one
before, then its own x or o marker), and `is_satisfiable` and `is_valid`
read it in place and stop at the first open branch.
`consequences` drains the expansion for what the decision agent reads from a
tree: whether every branch closes and otherwise the union of the positive
atoms under named labels over the open branches (`open_consequences`).
After the first open branch the expansion then skips every pending branch
that cannot add an atom not found yet (a goal-directed search; Goré,
"Tableau methods for modal and temporal logics", Handbook of Tableau
Methods, 1999).  What a pending part may add is read with `formulas.atoms`:
each of its atoms under a named label, and at the root only those that an F
or a G encloses, once per part and kind of position in an expansion, however
many pending branches hold the part.  As the atoms found only grow, a check
that saw nothing new stays true: the expansion keeps the length of the trail
prefix that holds no atom still to find and the stack nodes that reach none,
so a skipped branch costs about one step, not a rescan of its trail and stack.
`consequences` and `is_satisfiable` take a formula's conjuncts as they are.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple, TypeAlias

from .formulas import (
    Always,
    And,
    Atom,
    Eventually,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    atoms,
    pretty,
)

SATISFIABLE = "Satisfiable"
UNSATISFIABLE = "Unsatisfiable"
VALID = "Valid"
NOT_VALID = "NotValid"

OPEN = "Open"
CLOSED = "Closed"


class WorldLabel(NamedTuple):
    """Position annotation for a literal: a chain of named worlds, optionally
    ending in a universal ("this world and all later ones") step."""

    prefix: tuple[str, ...] = ()
    universal: bool = False

    def render(self) -> str:
        names = self.prefix + ("x",) * self.universal
        return ".".join(f"{i}.[{name}]" for i, name in enumerate(names, 1))

    def unifies(self, other: "WorldLabel") -> bool:
        if self.universal and other.universal:
            # both hold at the constant tail of any linear model
            return True
        if self.universal:
            return other.prefix[: len(self.prefix)] == self.prefix
        if other.universal:
            return self.prefix[: len(other.prefix)] == other.prefix
        return self.prefix == other.prefix


_ROOT = WorldLabel()  # the label of every part at the root
_ROOT_ON = WorldLabel((), True)  # the root and every later world
Literal = tuple[str, str, WorldLabel]  # sign "+"/"-", atom, label
# the labels of a branch's literals by atom: positive ones, then negative
_Index = tuple[dict[str, list[WorldLabel]], dict[str, list[WorldLabel]]]
# signed formulas left to expand, as a linked list (f, neg, label, rest)
_Stack: TypeAlias = "tuple[Formula, bool, WorldLabel, _Stack] | None"


@dataclass
class Branch:
    index: int  # 1-based, depth-first order
    literals: list[Literal]
    status: str  # OPEN / CLOSED
    shared: int  # leading literals taken from the branch it split from


@dataclass
class TruthTree:
    formula: Formula
    branches: list[Branch]

    @property
    def closed(self) -> bool:
        return all(b.status == CLOSED for b in self.branches)

    @property
    def open(self) -> bool:
        return not self.closed


def _world_name(n: int) -> str:
    """The n-th fresh world name: a, b, c, ..., then a1, b1, ...; x is
    reserved for universals."""
    letters = "abcdefghijklmnopqrstuvwyz"
    name = letters[n % len(letters)]
    return name + str(n // len(letters)) if n >= len(letters) else name


def _expand(
    parts: tuple[Formula, ...], found: set[str] | None = None
) -> Iterator[tuple[int, list[Literal], str]]:
    """Yield each finished branch of `conjoin(parts)`, depth first and left
    before right, as (shared, literals, status): `shared` counts the leading
    literals the branch took from the one it split from.

    Every branch works on one literal list and one commitment list, a
    trail.  A pending branch holds its signed formulas left to expand (a
    linked list, `_Stack`, sharing its rest with the branch it split from)
    and the two lengths at its split; drawing it truncates both lists back
    and pops the truncated literals from `held`, the index of the trail's
    labels by sign and atom.  So the yielded literal list is valid until the
    next branch is drawn; a caller that keeps it copies it.

    With `found`, adds to it the positive atoms under named labels of every
    open branch; once one branch is open, a pending branch that cannot add
    one is skipped.  What each pending formula can add is read once, into
    `reach`, keyed by its identity and whether it sits at the root.  As
    `found` only grows, what is seen to add nothing never will: the trail
    prefix up to `scanned` holds no positive named atom outside `found`
    (lowered to a drawn branch's `shared` length when that is shorter), and
    `spent` holds the stack nodes from which nothing new can be reached."""
    literals: list[Literal] = []
    commitments: list[tuple[Formula, tuple[str, ...]]] = []
    held: _Index = ({}, {})
    # the first part heads the stack
    stack: _Stack = None
    for f in reversed(parts):
        stack = (f, False, _ROOT, stack)
    pending = [(stack, 0, 0)]
    fresh = itertools.count()
    reach: dict[tuple[int, bool], set[str]] = {}
    spent: dict[int, tuple] = {}
    scanned = 0
    found_open = False
    while pending:
        stack, shared, committed = pending.pop()
        for sign, atom, _ in literals[shared:]:
            held[sign == "-"][atom].pop()
        del literals[shared:], commitments[committed:]
        if found_open and found is not None:
            scanned = _first_new(literals, min(scanned, shared), found)
            if scanned == shared and not _may_reach(stack, found, reach, spent):
                continue
        status = _branch(stack, literals, held, commitments, pending, fresh)
        if status == OPEN:
            found_open = True
            if found is not None:
                found.update(a for s, a, label in literals[scanned:] if s == "+" and label.prefix)
                scanned = len(literals)
        yield shared, literals, status


def _branch(
    stack: _Stack,
    literals: list[Literal],
    held: _Index,
    commitments: list[tuple[Formula, tuple[str, ...]]],
    pending: list,
    fresh: Iterator[int],
) -> str:
    """Expand one branch to its status; the right side of each split goes on
    `pending` with the lengths of the branch's lists.  A stack node `(f,
    neg, label, rest)` stands for f, or for !f when `neg`, at `label`.  A new
    literal is checked for closure against the labels `held` under its atom
    with the other sign alone."""
    while stack is not None:
        f, neg, label, stack = stack
        t = type(f)
        if t is Not:
            stack = (f.operand, not neg, label, stack)
            continue
        if t is Atom:
            literals.append(("-" if neg else "+", f.name, label))
            same = held[neg].get(f.name)
            if same is None:
                held[neg][f.name] = [label]
            else:
                same.append(label)
            for other in held[not neg].get(f.name, ()):
                if other.unifies(label):
                    return CLOSED
            continue
        if t is And or t is Or or t is Implies:
            # And+, Or- and Implies- keep both parts on the branch
            if (t is And) != neg:
                stack = (f.left, neg != (t is Implies), label, (f.right, neg, label, stack))
                continue
        elif t is Always or t is Eventually:
            # G+ and F- hold at this world and every later one
            if (t is Always) != neg:
                stack = (f.operand, neg, WorldLabel(label.prefix, True) if label.prefix else _ROOT_ON, stack)
                continue
        elif t is not Iff:
            raise TypeError(f"not a formula: {f!r}")
        # the rest split the branch or name a world; under a universal
        # label they wait, as they are, as commitments
        if label.universal:
            commitments.append((Not(f) if neg else f, label.prefix))
        elif t is Always or t is Eventually:
            world = label.prefix + (_world_name(next(fresh)),)
            stack = (f.operand, neg, WorldLabel(world, False), stack)
        elif t is Iff:
            # Iff+ splits into l & r | !l & !r, Iff- into l & !r | !l & r
            right = (f.left, True, label, (f.right, not neg, label, stack))
            pending.append((right, len(literals), len(commitments)))
            stack = (f.left, False, label, (f.right, neg, label, stack))
        else:
            # Or+, And- and Implies+ split, left first
            pending.append(((f.right, neg, label, stack), len(literals), len(commitments)))
            stack = (f.left, neg != (t is Implies), label, stack)
    return OPEN if _realizable(literals, commitments) else CLOSED


def build_tree(f: Formula) -> TruthTree:
    """The whole truth tree: every branch of `f`, depth first."""
    branches = [Branch(i, list(literals), status, shared)
                for i, (shared, literals, status) in enumerate(_expand((f,)), 1)]
    return TruthTree(f, branches)


def is_satisfiable(*parts: Formula) -> str:
    """Of the conjunction of `parts`: whether its expansion has an open
    branch, stopped at the first."""
    return SATISFIABLE if OPEN in map(itemgetter(2), _expand(parts)) else UNSATISFIABLE


def is_valid(f: Formula) -> str:
    return NOT_VALID if OPEN in map(itemgetter(2), _expand((Not(f),))) else VALID


def consequences(*parts: Formula) -> frozenset[str] | None:
    """None when every branch of the expansion of `parts` closes, otherwise
    the union of the atoms `open_consequences` lists; no tree is built."""
    found: set[str] = set()
    statuses = set(map(itemgetter(2), _expand(parts, found)))
    return frozenset(found) if OPEN in statuses else None


def _first_new(literals: list[Literal], start: int, found: set[str]) -> int:
    """The index of the first literal from `start` on that is positive, under
    a named label and of an atom not in `found`, or the trail's length."""
    for i in range(start, len(literals)):
        sign, atom, label = literals[i]
        if sign == "+" and label.prefix and atom not in found:
            return i
    return len(literals)


def _may_reach(
    stack: _Stack,
    found: set[str],
    reach: dict[tuple[int, bool], set[str]],
    spent: dict[int, tuple],
) -> bool:
    """Whether a formula left on a pending branch's stack can still produce a
    positive atom under a named label that is not in `found`.  `reach`
    caches what a stack formula can produce by its identity and whether it
    sits at the root.  `spent` maps the id of each stack node from which
    nothing new can be reached to the node, held so that no later node
    takes its id; a walk stops at the first such node and adds the nodes it
    passed."""
    walked = []
    node = stack
    while node is not None and id(node) not in spent:
        f, _, label, rest = node
        # F and G wait as commitments under the root's universal label, so
        # nothing there reaches a named world
        if label.prefix or not label.universal:
            key = (id(f), not label.prefix)
            atoms_of = reach.get(key)
            if atoms_of is None:
                # at the root only what an F or a G encloses reaches a named world
                atoms_of = reach[key] = atoms(f, (Eventually, Always)) if key[1] else atoms(f)
            if not atoms_of <= found:
                return True
        walked.append(node)
        node = rest
    for node in walked:
        spent[id(node)] = node
    return False


def open_consequences(tree: TruthTree) -> list[tuple[int, set[str]]]:
    """Per open branch: positive atoms introduced under named (F-generated)
    labels.  These are the candidate preference targets."""
    out = []
    for b in tree.branches:
        if b.status != OPEN:
            continue
        introduced = {
            atom for sign, atom, label in b.literals if sign == "+" and label.prefix
        }
        out.append((b.index, introduced))
    return out


# ---------------------------------------------------------------------------
# Linear realizability
#
# A surviving branch supplies exact literals (at a specific named world),
# universal literals (at a world and all later ones), and deferred
# commitments: formulas under a G whose decomposition depends on the world
# (disjunctions and nested F), each holding from its base world on.  The
# branch is realizable when valuations meeting every constraint exist for a
# sequence of positions: the root, each named world once and after its
# parent, and a constant tail state last.  Any other position is free: only
# the universal literals and commitments that reach it constrain it.
#
# Without commitments or a universal literal under a named world, the worlds
# form a forest and the branch is realizable.  Otherwise one pass over the
# literals indexes them for every step below: the exact ones by world, the
# universal ones, and the labels that hold each atom with each value, which
# name the worlds of the precedence edges and the atoms other literals read.
#
# 1. Precedence.  A universal literal from named world P and an opposite
#    exact literal at named world Q clash wherever Q sits at or after P, so Q
#    must come before P.  (Pairs with P at the root, or with Q extending P,
#    already closed by unification.)  These edges join the parent-before-child
#    edges; one topological sort closes a branch whose edges form a cycle,
#    and without commitments an acyclic branch is realizable.
# 2. Constant model.  A valuation meeting every literal, exact ones too, and
#    every commitment at the tail can be taken at every position, so the
#    branch is open.  (It is the degenerate ultimately periodic model of
#    Sistla & Clarke, JACM 1985.)
# 3. Tail.  Every universal literal and every commitment holds at the tail,
#    and there F and G read only the tail itself.  Without a tail valuation
#    the branch closes.  A constant valuation is a tail valuation too, so
#    step 2 may come first.  The check runs before the search sets up, so a
#    branch it closes pays for none of that, and the search starts from the
#    states the check drew: the tail is enumerated once.
# 4. Search.  Positions are added back to front from the tail.  A state is
#    the set of named worlds placed behind a position and the values there
#    of the F and G nodes of the commitments, one per subformula and sign
#    (two copies of one would always take equal values), all that an
#    earlier position reads.  In front of a state goes a free position, a
#    world whose children and precedence successors are all placed or, once
#    all are, the root.  A position enumerates only the atoms of the
#    commitments that reach it.  Each state is expanded once: at most 2^k
#    sets of worlds, not k! orderings (Held & Karp's subset recursion, J.
#    SIAM 1962).
# 5. Leaves.  A leaf world with no universal literal or commitment of its
#    own, whose atoms no other literal and no commitment reads, stays out of
#    the search: in a model its position can be a free one, and a model
#    without it has room for it after its parent, with the next position's
#    valuation plus its own literals.


def _realizable(
    literals: list[Literal], commitments: list[tuple[Formula, tuple[str, ...]]]
) -> bool:
    if not commitments and not any(label.universal and label.prefix for _, _, label in literals):
        # only parent-before-child edges: a forest, so some ordering exists
        return True
    exact: dict[tuple[str, ...], dict[str, bool]] = {}
    universal: list[tuple[tuple[str, ...], str, bool]] = []
    held: dict[tuple[str, bool], set[WorldLabel]] = {}
    for sign, atom, label in literals:
        if label.universal:
            universal.append((label.prefix, atom, sign == "+"))
        else:
            exact.setdefault(label.prefix, {})[atom] = sign == "+"
        held.setdefault((atom, sign == "+"), set()).add(label)
    prefixes = [*exact, *(p for p, _, _ in universal), *(b for _, b in commitments)]
    named_set = {prefix[:i] for prefix in prefixes for i in range(1, len(prefix) + 1)}

    # before[w]: the worlds that must come ahead of w, by name order
    before = {w: {w[:-1]} if len(w) > 1 else set() for w in sorted(named_set)}
    for p, atom, value in universal:
        if p:
            # two universal labels unify, so the opposite ones are exact
            before[p].update(label.prefix for label in held.get((atom, not value), ()) if label.prefix)
    if not _acyclic(list(before), before):
        return False
    if not commitments:
        return True

    compiled = _compile([f for f, _ in commitments])
    reads = {x for t, x, _ in compiled[0] if t is Atom or t is Not}
    # two universal literals that clash close the branch by unification
    tail = {a: v for _, a, v in universal}
    constant = _forced(tail, (pair for world in exact.values() for pair in world.items()))
    if next(_position(compiled, constant, reads, compiled[1], None), None) is not None:
        return True
    states = _position(compiled, tail, reads, compiled[1], None)
    first = next(states, None)
    return first is not None and _search(
        exact, universal, held, commitments, before, compiled, itertools.chain([first], states), reads
    )


def _acyclic(worlds: list[tuple[str, ...]], before: dict) -> bool:
    """Whether some ordering of `worlds` places each after its `before` set."""
    placed: set[tuple[str, ...]] = set()
    left = worlds
    while left:
        ready = [w for w in left if before[w] <= placed]
        if not ready:
            return False
        placed.update(ready)
        left = [w for w in left if w not in placed]
    return True


def _search(
    exact: dict, universal: list, held: dict, commitments: list, before: dict, compiled: tuple,
    tail: Iterator[tuple[bool, ...]], committed: set[str],
) -> bool:
    """Steps 4 and 5, from the tail's states: `tail` yields their F and G
    values, and `committed` holds the commitments' atoms."""
    reads = [atoms(f) for f, _ in commitments]
    bases = list(zip([b for _, b in commitments], compiled[1], reads))
    owners = {p for p, _, _ in universal} | {b for _, b in commitments}

    kept: list[tuple[str, ...]] = []
    parents: set[tuple[str, ...]] = set()
    # an atom held under another label, or with the other value, is read
    read = committed.union(a for (a, v), labels in held.items() if len(labels) > 1 or (a, not v) in held)
    for w in reversed(before):  # children before their parent
        if not read.isdisjoint(exact.get(w, ())) or w in owners or w in parents:
            kept.append(w)
            parents.add(w[:-1])
    # follows[w]: the worlds that must come after w
    follows = {w: {v for v in kept if w in before[v]} for w in kept}
    everyone = frozenset(kept)

    # depth first and lazily: each stack entry yields the states in front of
    # one state, so a model is found without enumerating every valuation;
    # the first yields the tail's
    stack = [zip(itertools.repeat(frozenset()), tail)]
    seen = set()
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
            continue
        if state in seen:
            continue
        seen.add(state)
        placed, later = state
        forced = {a: value for p, a, value in universal if p not in placed}
        needed = [r for b, r, _ in bases if b not in placed]
        reach = set().union(*[names for b, _, names in bases if b not in placed])
        if placed == everyone:
            root = _forced(forced, exact.get((), {}).items())
            if next(_position(compiled, root, reach, needed, later), None) is not None:
                return True
        # a world whose followers are all placed, or a free position
        ready = [w for w in kept if w not in placed and follows[w] <= placed]
        moves = [(placed | {w}, _forced(forced, exact.get(w, {}).items())) for w in ready]
        moves.append((placed, forced))
        successors = [zip(itertools.repeat(after), _position(compiled, here, reach, needed, later))
                      for after, here in moves]
        stack.append(itertools.chain(*successors))
    return False


def _forced(base: dict[str, bool], pairs) -> dict[str, bool] | None:
    """`base` extended by the (atom, value) pairs, or None if two clash."""
    out = dict(base)
    for atom, value in pairs:
        if out.setdefault(atom, value) != value:
            return None
    return out


def _position(compiled, forced, reads, needed, later):
    """Yield, for each valuation of one position that extends `forced` to the
    atoms in `reads` and makes every node in `needed` true, the values there
    of the F and G nodes; nothing when `forced` is None, a clash.  `later`
    holds those values at the next position; at the tail it is None, and F
    and G read the tail alone."""
    if forced is None:
        return
    nodes, _, temporal = compiled
    free = sorted(reads.difference(forced))
    vals = [False] * len(nodes)
    for bits in itertools.product((False, True), repeat=len(free)):
        v = dict(forced)
        v.update(zip(free, bits))
        for i, (t, x, y) in enumerate(nodes):
            if t is Atom:
                vals[i] = v.get(x, False)
            elif t is Not:
                vals[i] = not v.get(x, False)
            elif t is And:
                vals[i] = vals[x] and vals[y]
            elif t is Or:
                vals[i] = vals[x] or vals[y]
            elif later is None:
                vals[i] = vals[x]
            elif t is Eventually:
                vals[i] = vals[x] or later[y]
            else:
                vals[i] = vals[x] and later[y]
        if all(vals[r] for r in needed):
            yield tuple([vals[i] for i in temporal])


def _compile(formulas: list[Formula]) -> tuple[list[tuple], list[int], list[int]]:
    """The nodes of `formulas`, one per distinct subformula and sign, in
    post-order, with the index of each formula and of each F and G node.
    The parts are read under a sign as the expansion reads them: `!` flips
    the sign and makes no node, & | and -> become & or | as their negation
    normal form would, F and G swap under a negative sign, and l <-> r
    becomes l & r | !l & !r, or l & !r | !l & r when negative, over the
    signed nodes of l and r that every other use shares.  A node is
    (type, x, y): an atom or a negated atom has its name as x; & and | have
    the indices of their parts; F and G have the index of their operand and
    their own place among the F and G nodes."""
    # 2 * id(subformula) + sign -> node
    index: dict[int, int] = {}
    nodes: list[tuple] = []
    temporal: list[int] = []
    # the node of each part done, the last on top; each formula leaves one
    results: list[int] = []
    # (formula, negated, whether its parts are done), the first formula on top
    todo = [(f, False, False) for f in reversed(formulas)]
    while todo:
        g, neg, done = todo.pop()
        t = type(g)
        while t is Not:
            g, neg = g.operand, not neg
            t = type(g)
        key = 2 * id(g) + neg
        if key in index:
            results.append(index[key])
            continue
        if t is Atom:
            nodes.append((Not if neg else Atom, g.name, None))
        elif not done:
            todo.append((g, neg, True))
            if t is Iff:
                todo += ((g.right, not neg, False), (g.left, True, False),
                         (g.right, neg, False), (g.left, False, False))
            elif t is Always or t is Eventually:
                todo.append((g.operand, neg, False))
            else:
                todo += ((g.right, neg, False), (g.left, neg != (t is Implies), False))
            continue
        elif t is Iff:
            # the nodes of l, r (negated when neg), !l and !r (or r)
            left, right, not_left, not_right = results[-4:]
            del results[-4:]
            n = len(nodes)
            nodes += ((And, left, right), (And, not_left, not_right), (Or, n, n + 1))
        elif t is Always or t is Eventually:
            temporal.append(len(nodes))
            nodes.append((Always if (t is Always) != neg else Eventually, results.pop(), len(temporal) - 1))
        else:
            # And+, Or- and Implies- conjoin, the rest disjoin
            right = results.pop()
            nodes.append((And if (t is And) != neg else Or, results.pop(), right))
        index[key] = len(nodes) - 1
        results.append(index[key])
    return nodes, results, temporal


# ---------------------------------------------------------------------------
# Export


def export_tree(tree: TruthTree, format: str = "ascii") -> str:
    if format == "ascii":
        return _export_ascii(tree)
    if format == "dot":
        return _export_dot(tree)
    raise ValueError(f"unknown export format: {format!r}")


def _rows(tree: TruthTree) -> Iterator[tuple[int, str, str | None]]:
    """The display rows of `tree` in branch order, as (depth, text, status):
    the root, then per branch each literal it does not share, one level below
    the one before, and a marker row, x or o, that holds the branch's status
    (None on the other rows).  A bare literal root displays its one literal
    itself."""
    f = tree.formula
    yield 0, pretty(f), None
    hidden = int(isinstance(f, Atom) or isinstance(f, Not) and isinstance(f.operand, Atom))
    for b in tree.branches:
        start = max(b.shared, hidden)
        for depth, (sign, atom, label) in enumerate(b.literals[start:], start + 1):
            rendered = label.render()
            text = "!" * (sign == "-") + atom
            yield depth, f"{rendered}: {text}" if rendered else text, None
        yield len(b.literals) + 1 - hidden, "x" if b.status == CLOSED else "o", b.status


def _export_ascii(tree: TruthTree) -> str:
    return "".join(f"{'  ' * depth}{text}\n" for depth, text, _ in _rows(tree))


_DOT_STYLE = {None: "", CLOSED: ", shape=box, peripheries=2", OPEN: ", shape=ellipse"}


def _export_dot(tree: TruthTree) -> str:
    lines = ["digraph truthtree {", "  node [shape=plaintext];"]
    last: list[int] = []  # the id of the latest row at each depth
    for nid, (depth, text, status) in enumerate(_rows(tree)):
        lines.append(f'  n{nid} [label="{text}"{_DOT_STYLE[status]}];')
        if depth:
            # rows come in preorder: the parent is the latest row one level up
            lines.append(f"  n{last[depth - 1]} -> n{nid};")
        del last[depth:]
        last.append(nid)
    lines.append("}")
    return "\n".join(lines) + "\n"
