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
and F+ and G- name a new world.  No normal-form copy of the formula is built;
only a part that waits under a universal label as a commitment is stored in
negation normal form, which the realizability check reads.

Because the intended models are linear (a single time line with an
eventually constant tail), label unification alone is not a complete
satisfiability test: two universally labeled literals in sibling scopes both
reach the tail, and disjunctions under G may pick different disjuncts at
different worlds.  Branches that survive unification therefore go through a
realizability check that searches for an ordering of the introduced worlds,
plus a constant tail state, satisfying every recorded constraint.  A branch
with no such arrangement is closed as well.

The search is exact but pruned in four steps (see "Linear realizability"
below): orderings must respect precedence edges forced by universal vs.
exact literals, and a cycle among them closes the branch; the tail, which
every ordering shares, is checked once up front; a branch whose constraints
one constant valuation meets is open without any ordering; and each position
only enumerates the atoms its duties read.  A branch without deferred
commitments costs one topological sort of its worlds; one that also has no
universal literal under a named world costs nothing, since its worlds form a
forest.

`build_tree` builds every branch, with a display node per step.  The
verdicts `is_satisfiable` and `is_valid` run the same expansion but record
no tree and stop at the first open branch.  `consequences`, the third mode,
records no tree either: it answers what the decision agent reads from one,
whether every branch closes and otherwise the union of the positive atoms
under named labels over the open branches (`open_consequences`).  After the
first open branch it skips every pending branch that cannot add an atom not
found yet (a goal-directed search; Goré, "Tableau methods for modal and
temporal logics", Handbook of Tableau Methods, 1999).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

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
    count_eventually,
    nnf,
    pretty,
)

SATISFIABLE = "Satisfiable"
UNSATISFIABLE = "Unsatisfiable"
VALID = "Valid"
NOT_VALID = "NotValid"

OPEN = "Open"
CLOSED = "Closed"


@dataclass(frozen=True)
class WorldLabel:
    """Position annotation for a literal: a chain of named worlds, optionally
    ending in a universal ("this world and all later ones") step."""

    prefix: tuple[str, ...] = ()
    universal: bool = False

    def render(self) -> str:
        parts = [f"{i + 1}.[{name}]" for i, name in enumerate(self.prefix)]
        if self.universal:
            parts.append(f"{len(self.prefix) + 1}.[x]")
        return ".".join(parts)

    def unifies(self, other: "WorldLabel") -> bool:
        if self.universal and other.universal:
            # both hold at the constant tail of any linear model
            return True
        if self.universal:
            return other.prefix[: len(self.prefix)] == self.prefix
        if other.universal:
            return self.prefix[: len(other.prefix)] == other.prefix
        return self.prefix == other.prefix


Literal = tuple[str, str, WorldLabel]  # sign "+"/"-", atom, label


@dataclass
class TreeNode:
    formula: Formula
    label: WorldLabel
    children: list["TreeNode"] = field(default_factory=list)
    marker: str | None = None  # "x" / "o" on branch leaves

    def text(self) -> str:
        rendered = self.label.render()
        body = pretty(self.formula)
        return f"{rendered}: {body}" if rendered else body


@dataclass
class Branch:
    index: int  # 1-based, depth-first order
    literals: list[Literal]
    status: str  # OPEN / CLOSED
    leaf: TreeNode


@dataclass
class TruthTree:
    root_formula: Formula
    root: TreeNode
    branches: list[Branch]

    @property
    def closed(self) -> bool:
        return all(b.status == CLOSED for b in self.branches)

    @property
    def open(self) -> bool:
        return not self.closed


def _is_literal(f: Formula) -> bool:
    return isinstance(f, Atom) or (isinstance(f, Not) and isinstance(f.operand, Atom))


class _FreshNames:
    """Deterministic a, b, c, ... generator; skips x, reserved for universals."""

    def __init__(self):
        self.n = 0

    def next(self) -> str:
        letters = "abcdefghijklmnopqrstuvwyz"  # no x
        n = self.n
        self.n += 1
        name = letters[n % len(letters)]
        if n >= len(letters):
            name += str(n // len(letters))
        return name


class _Builder:
    """One depth-first expansion, left branch before right.  Built as a tree
    (`tree=True`), it records a display node per step and every branch;
    otherwise it records nothing and stops at the first open branch, unless
    `expand` collects consequences."""

    def __init__(self, f: Formula, tree: bool):
        self.root_formula = f
        self.fresh = _FreshNames()
        self.branches: list[Branch] = []
        self.root = TreeNode(f, WorldLabel()) if tree else None
        # the root node already displays a bare literal formula
        self.literal_root = _is_literal(f)

    def expand(self, collect: set[str] | None = None) -> bool:
        """Whether some branch is open.  With `collect`, adds to it the
        positive atoms under named labels of every open branch; once one
        branch is open, a pending branch that cannot add one is skipped."""
        # pending branches: signed formulas left to expand, literals,
        # commitments and the node the branch continues under; each branch
        # owns its lists
        pending = [([(self.root_formula, False, WorldLabel())], [], [], self.root)]
        found_open = False
        while pending:
            stack, literals, commitments, attach = pending.pop()
            if found_open and collect is not None and not _may_add(stack, literals, collect):
                continue
            if self._branch(stack, literals, commitments, attach, pending) == OPEN:
                found_open = True
                if collect is not None:
                    collect.update(a for s, a, label in literals if s == "+" and label.prefix)
                elif self.root is None:
                    break
        return found_open

    def _branch(
        self,
        stack: list[tuple[Formula, bool, WorldLabel]],
        literals: list[Literal],
        commitments: list[tuple[Formula, tuple[str, ...]]],
        attach: TreeNode | None,
        pending: list,
    ) -> str:
        """Expand one branch to its status; the right side of each split
        goes on `pending` with copies of the branch's lists.  A stack entry
        `(f, neg, label)` stands for f, or for !f when `neg`, at `label`."""
        while stack:
            f, neg, label = stack.pop()
            t = type(f)
            if t is Not:
                stack.append((f.operand, not neg, label))
                continue
            if t is Atom:
                lit = ("-" if neg else "+", f.name, label)
                if attach is not None and not self.literal_root:
                    node = TreeNode(Not(f) if neg else f, label)
                    attach.children.append(node)
                    attach = node
                closes = self._closes(lit, literals)
                literals.append(lit)
                if closes:
                    return self._finish(literals, attach, CLOSED)
                continue
            if t is And or t is Or or t is Implies:
                # And+, Or- and Implies- keep both parts on the branch
                if (t is And) != neg:
                    stack.append((f.right, neg, label))
                    stack.append((f.left, neg != (t is Implies), label))
                    continue
            elif t is Always or t is Eventually:
                # G+ and F- hold at this world and every later one
                if (t is Always) != neg:
                    stack.append((f.operand, neg, WorldLabel(label.prefix, True)))
                    continue
            elif t is not Iff:
                raise TypeError(f"not a formula: {f!r}")
            # the rest split the branch or name a world; under a universal
            # label they wait, in normal form, as commitments
            if label.universal:
                commitments.append((nnf(Not(f)) if neg else nnf(f), label.prefix))
            elif t is Always or t is Eventually:
                world = label.prefix + (self.fresh.next(),)
                stack.append((f.operand, neg, WorldLabel(world, False)))
            elif t is Iff:
                # Iff+ splits into l & r | !l & !r, Iff- into l & !r | !l & r
                right = stack + [(f.right, not neg, label), (f.left, True, label)]
                pending.append((right, list(literals), list(commitments), attach))
                stack.append((f.right, neg, label))
                stack.append((f.left, False, label))
            else:
                # Or+, And- and Implies+ split, left first
                pending.append((stack + [(f.right, neg, label)], list(literals), list(commitments), attach))
                stack.append((f.left, neg != (t is Implies), label))
        status = OPEN if _realizable(literals, commitments) else CLOSED
        return self._finish(literals, attach, status)

    def _closes(self, lit: Literal, previous: list[Literal]) -> bool:
        sign, atom, label = lit
        return any(
            s != sign and a == atom and l.unifies(label) for s, a, l in previous
        )

    def _finish(self, literals: list[Literal], leaf: TreeNode | None, status: str) -> str:
        if leaf is not None:
            leaf.marker = "x" if status == CLOSED else "o"
            self.branches.append(Branch(len(self.branches) + 1, literals, status, leaf))
        return status


def build_tree(f: Formula) -> TruthTree:
    """The whole truth tree: every branch, with a display node per step."""
    builder = _Builder(f, tree=True)
    builder.expand()
    return TruthTree(f, builder.root, builder.branches)


def is_satisfiable(f: Formula) -> str:
    """Decided by the same expansion as `build_tree`, stopped at the first
    open branch, with no tree recorded."""
    return SATISFIABLE if _Builder(f, tree=False).expand() else UNSATISFIABLE


def is_valid(f: Formula) -> str:
    return NOT_VALID if _Builder(Not(f), tree=False).expand() else VALID


def consequences(f: Formula) -> frozenset[str] | None:
    """None when every branch of f's tree closes; otherwise the union of
    `open_consequences(build_tree(f))`, found without building the tree."""
    found: set[str] = set()
    return frozenset(found) if _Builder(f, tree=False).expand(found) else None


def _may_add(
    stack: list[tuple[Formula, bool, WorldLabel]], literals: list[Literal], found: set[str]
) -> bool:
    """Whether a pending branch may hold a positive atom under a named label
    that is not in `found`: one it holds already, or one a formula left on
    its stack can still produce."""
    for sign, atom, label in literals:
        if sign == "+" and label.prefix and atom not in found:
            return True
    for f, _, label in stack:
        if label.prefix:
            reach = atoms(f)
        elif label.universal:
            # F and G wait as commitments under the root's universal label,
            # so nothing there reaches a named world
            continue
        else:
            # at the root only what an F or a G encloses reaches a named world
            reach = _temporal_atoms(f)
        if not reach <= found:
            return True
    return False


def _temporal_atoms(f: Formula) -> set[str]:
    """Atoms that occur under an F or a G."""
    out: set[str] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        t = type(g)
        if t is Eventually or t is Always:
            out |= atoms(g.operand)
        elif t is Not:
            stack.append(g.operand)
        elif t is not Atom:
            stack += (g.left, g.right)
    return out


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
# (disjunctions and nested F).  The branch is realizable when some linear
# arrangement of its worlds, padded with one helper position per F occurring
# inside commitments and ending in a constant tail state, admits valuations
# meeting every constraint.
#
# The search skips only arrangements and valuations that cannot succeed, or
# that a constant model makes unnecessary:
#
# 1. Precedence.  A universal literal from named world P and an opposite
#    exact literal at named world Q clash wherever Q sits at or after P, so Q
#    must come before P.  (Pairs with P at the root, or with Q extending P,
#    already closed by unification.)  These edges join the parent-before-child
#    edges; one topological sort closes a branch whose edges form a cycle.
#    Without commitments there are no duties, so an acyclic branch is
#    realizable at the cost of that one sort.  Otherwise only orderings
#    respecting the edges are enumerated.
# 2. Tail.  Every universal literal and every commitment holds at the
#    constant tail whatever the ordering, and there F and G read only the
#    tail itself.  One search for a tail valuation runs before any ordering;
#    without one the branch closes.
# 3. Constant model.  When the tail check passes, a second one-position check
#    places every literal, exact ones too, at the tail.  A valuation passing
#    it can be taken at every position of any ordering, so the branch is
#    open.  This is only sufficient: without such a valuation the ordering
#    search below runs.  (The constant model is the degenerate ultimately
#    periodic model of Sistla & Clarke, JACM 1985.)
# 4. Reads.  At position i the duties read only the atoms of the commitments
#    based at or before i; only those free atoms are enumerated there.
#
# Commitments are evaluated with explicit frames rather than recursion, so a
# long & / | chain under G is checked like a short one.

_TAIL = ("<tail>",)
_OPPOSITE = {"+": "-", "-": "+"}


def _realizable(
    literals: list[Literal], commitments: list[tuple[Formula, tuple[str, ...]]]
) -> bool:
    if not commitments and not any(label.universal and label.prefix for _, _, label in literals):
        # only parent-before-child edges: a forest, so some ordering exists
        return True
    named_set: set[tuple[str, ...]] = set()
    for prefix in [label.prefix for _, _, label in literals] + [b for _, b in commitments]:
        for i in range(1, len(prefix) + 1):
            named_set.add(prefix[:i])
    named = sorted(named_set)

    # before[w]: the worlds an ordering must place ahead of w
    before = {w: {w[:-1]} if len(w) > 1 else set() for w in named}
    exact: dict[tuple[str, str], list[tuple[str, ...]]] = {}
    for sign, atom, label in literals:
        if label.prefix and not label.universal:
            exact.setdefault((sign, atom), []).append(label.prefix)
    for sign, atom, label in literals:
        if label.prefix and label.universal:
            before[label.prefix].update(exact.get((_OPPOSITE[sign], atom), ()))
    if not _acyclic(named, before):
        return False
    if not commitments:
        return True

    # the tail alone, as a one-position arrangement reached by every
    # universal literal and every commitment
    commit_atoms = [atoms(f) for f, _ in commitments]
    everywhere = WorldLabel((), True)
    tail_literals = [(s, a, everywhere) for s, a, label in literals if label.universal]
    tail_commitments = [(f, ()) for f, _ in commitments]
    if not _check_order([_TAIL], tail_literals, tail_commitments, commit_atoms):
        return False
    # one valuation meeting every literal, exact ones too, and every
    # commitment at a constant tail can hold at every position of any ordering
    constant = [(s, a, everywhere) for s, a, _ in literals]
    if _check_order([_TAIL], constant, tail_commitments, commit_atoms):
        return True

    helpers = sum(count_eventually(f) for f, _ in commitments)
    padding = [("<helper>", str(i)) for i in range(helpers)] + [_TAIL]
    for order in _linear_extensions(named, before):
        positions = [()] + list(order) + padding
        if _check_order(positions, literals, commitments, commit_atoms):
            return True
    return False


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


def _linear_extensions(worlds: list[tuple[str, ...]], before: dict):
    """All orderings of the named worlds that place each world after every
    world in its `before` set (its parent and its precedence edges)."""

    def rec(placed: tuple[tuple[str, ...], ...], left: list[tuple[str, ...]]):
        if not left:
            yield placed
            return
        done = set(placed)
        for w in left:
            if before[w] <= done:
                rest = [v for v in left if v != w]
                yield from rec(placed + (w,), rest)

    yield from rec((), worlds)


def _check_order(
    positions: list[tuple[str, ...]],
    literals: list[Literal],
    commitments: list[tuple[Formula, tuple[str, ...]]],
    commit_atoms: list[set[str]],
) -> bool:
    idx = {w: i for i, w in enumerate(positions)}
    n = len(positions)
    tail_i = n - 1

    def base_index(prefix: tuple[str, ...]) -> int:
        return idx[prefix] if prefix else 0

    # forced[i]: atom -> bool
    forced: list[dict[str, bool]] = [dict() for _ in range(n)]
    for sign, atom, label in literals:
        value = sign == "+"
        if label.universal:
            start = base_index(label.prefix)
            span = range(start, n)
        else:
            span = [idx[label.prefix]]
        for i in span:
            if forced[i].get(atom, value) != value:
                return False
            forced[i][atom] = value

    # duties[i]: formulas that must hold at position i; reads[i]: their atoms
    duties: list[list[Formula]] = [[] for _ in range(n)]
    reads: list[set[str]] = [set() for _ in range(n)]
    for (f, base), names in zip(commitments, commit_atoms):
        for i in range(base_index(base), n):
            duties[i].append(f)
            reads[i] |= names

    def candidate_vals(i: int):
        # atoms no duty reads keep their forced value or stay unset
        free = sorted(reads[i].difference(forced[i]))
        for bits in itertools.product((False, True), repeat=len(free)):
            v = dict(forced[i])
            v.update(zip(free, bits))
            yield v

    # choose valuations back to front so temporal duties can look ahead
    chosen: list[dict[str, bool] | None] = [None] * n

    def holds(f: Formula, i: int) -> bool:
        # frames (formula, position it is read at, part being read): 0 or 1
        # for the sides of & and |, the later position for F and G; a frame
        # is dropped as soon as the part read decides it
        frames: list[tuple[Formula, int, int]] = []
        while True:
            t = type(f)
            if t is Atom:
                value = chosen[i][f.name]
            elif t is Not:
                value = not chosen[i][f.operand.name]
            elif t is And or t is Or:
                frames.append((f, i, 0))
                f = f.left
                continue
            elif t is Eventually or t is Always:
                frames.append((f, i, i))
                f = f.operand
                continue
            else:
                raise TypeError(f"unexpected formula in nnf: {f!r}")
            while frames:
                g, gi, j = frames.pop()
                tg = type(g)
                if value != (tg is And or tg is Always):
                    continue
                if tg is And or tg is Or:
                    if j == 0:
                        frames.append((g, gi, 1))
                        f, i = g.right, gi
                        break
                elif j + 1 < n:
                    frames.append((g, gi, j + 1))
                    f, i = g.operand, j + 1
                    break
            else:
                return value

    def assign(i: int) -> bool:
        if i < 0:
            return True
        for v in candidate_vals(i):
            chosen[i] = v
            if all(holds(f, i) for f in duties[i]) and assign(i - 1):
                return True
        chosen[i] = None
        return False

    # the tail is constant: at tail_i there are no later positions, so
    # F/G duties reduce to evaluation at the tail itself, which `holds`
    # already does when i == tail_i.
    return assign(tail_i)


# ---------------------------------------------------------------------------
# Export


def export_tree(tree: TruthTree, format: str = "ascii") -> str:
    if format == "ascii":
        return _export_ascii(tree)
    if format == "dot":
        return _export_dot(tree)
    raise ValueError(f"unknown export format: {format!r}")


def _export_ascii(tree: TruthTree) -> str:
    # depth first with an explicit stack: a long & chain is a path as deep
    # as the chain
    lines: list[str] = []
    todo = [(tree.root, 0)]
    while todo:
        node, depth = todo.pop()
        lines.append("  " * depth + node.text())
        if node.marker is not None:
            lines.append("  " * (depth + 1) + node.marker)
        todo += [(child, depth + 1) for child in reversed(node.children)]
    return "\n".join(lines) + "\n"


def _export_dot(tree: TruthTree) -> str:
    lines = ["digraph truthtree {", "  node [shape=plaintext];"]
    counter = itertools.count()
    edges: list[str] = []
    # nodes are numbered in preorder; the edge into a node is listed once
    # its whole subtree is done, so (parent id, node) entries are visits and
    # (parent id, node id) entries close the subtree
    todo: list[tuple] = [(None, tree.root)]
    while todo:
        parent, node = todo.pop()
        if isinstance(node, int):
            edges.append(f"  n{parent} -> n{node};")
            continue
        nid = next(counter)
        attrs = [f'label="{node.text()}"']
        if node.marker == "x":
            attrs = [f'label="{node.text()}"', "shape=box", "peripheries=2"]
        elif node.marker == "o":
            attrs = [f'label="{node.text()}"', "shape=ellipse"]
        lines.append(f"  n{nid} [{', '.join(attrs)}];")
        if parent is not None:
            todo.append((parent, nid))
        todo += [(nid, child) for child in reversed(node.children)]
    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
