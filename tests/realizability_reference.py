"""Exhaustive linear-realizability search, kept only as a test reference.

This is the prover's earlier search, unchanged: it tries every ordering of
the named worlds that respects prefix nesting and, at every position, every
valuation of every atom of the branch.  It is slow (k!*2^k) but obviously
exhaustive, so the suite checks that the pruned search in
`smartlot.tableaux` returns the same answer on every branch it decides.
"""

from __future__ import annotations

import itertools

from smartlot.formulas import (
    Always,
    And,
    Atom,
    Eventually,
    Formula,
    Not,
    Or,
    atoms,
    count_eventually,
)
from smartlot.tableaux import Literal


_TAIL = ("<tail>",)


def _realizable(
    literals: list[Literal], commitments: list[tuple[Formula, tuple[str, ...]]]
) -> bool:
    worlds: set[tuple[str, ...]] = {()}
    for _, _, label in literals:
        for i in range(len(label.prefix) + 1):
            worlds.add(label.prefix[:i])
    for _, base in commitments:
        for i in range(len(base) + 1):
            worlds.add(base[:i])

    names: set[str] = set(a for _, a, _ in literals)
    for f, _ in commitments:
        names |= atoms(f)
    atom_list = sorted(names)

    helpers = sum(count_eventually(f) for f, _ in commitments)
    named = sorted(w for w in worlds if w)

    for order in _linear_extensions(named):
        positions: list[tuple[str, ...]] = [()] + list(order)
        positions += [("<helper>", str(i)) for i in range(helpers)]
        positions.append(_TAIL)
        if _check_order(positions, literals, commitments, atom_list):
            return True
    return False


def _linear_extensions(worlds: list[tuple[str, ...]]):
    """All orderings of the named worlds consistent with prefix nesting."""
    if not worlds:
        yield ()
        return
    remaining = list(worlds)

    def rec(placed: tuple[tuple[str, ...], ...], left: list[tuple[str, ...]]):
        if not left:
            yield placed
            return
        for w in left:
            parent = w[:-1]
            if parent == () or parent in placed:
                rest = [v for v in left if v != w]
                yield from rec(placed + (w,), rest)

    yield from rec((), remaining)


def _check_order(
    positions: list[tuple[str, ...]],
    literals: list[Literal],
    commitments: list[tuple[Formula, tuple[str, ...]]],
    atom_list: list[str],
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

    # duties[i]: formulas that must hold at position i
    duties: list[list[Formula]] = [[] for _ in range(n)]
    for f, base in commitments:
        for i in range(base_index(base), n):
            duties[i].append(f)

    def candidate_vals(i: int):
        free = [a for a in atom_list if a not in forced[i]]
        fixed = dict(forced[i])
        for bits in itertools.product((False, True), repeat=len(free)):
            v = dict(fixed)
            v.update(zip(free, bits))
            yield v

    # choose valuations back to front so temporal duties can look ahead
    chosen: list[dict[str, bool] | None] = [None] * n

    def holds(f: Formula, i: int) -> bool:
        if isinstance(f, Atom):
            return chosen[i][f.name]
        if isinstance(f, Not):
            return not holds(f.operand, i)
        if isinstance(f, And):
            return holds(f.left, i) and holds(f.right, i)
        if isinstance(f, Or):
            return holds(f.left, i) or holds(f.right, i)
        if isinstance(f, Eventually):
            return any(holds(f.operand, j) for j in range(i, n))
        if isinstance(f, Always):
            return all(holds(f.operand, j) for j in range(i, n))
        raise TypeError(f"unexpected formula in nnf: {f!r}")

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
