"""The pruned linear-realizability search against the exhaustive one it
replaced, and on the families that made the exhaustive one factorial; the
verdicts, which stop at the first open branch, against the whole trees."""

import random

import pytest

from formula_gen import formula_corpus
from pathcheck import bounded_sat
from realizability_reference import _realizable as exhaustive_realizable
from smartlot import tableaux
from smartlot.formulas import Not, parse, pretty
from smartlot.tableaux import (
    CLOSED,
    NOT_VALID,
    OPEN,
    SATISFIABLE,
    UNSATISFIABLE,
    VALID,
    build_tree,
    is_satisfiable,
    is_valid,
)


@pytest.fixture
def decided(monkeypatch):
    """Record the (literals, commitments) of every branch that reaches the
    realizability check, keyed by the identity of the branch's literal list."""
    calls = {}
    realizable = tableaux._realizable

    def recording(literals, commitments):
        calls[id(literals)] = (literals, list(commitments))
        return realizable(literals, commitments)

    monkeypatch.setattr(tableaux, "_realizable", recording)
    return calls


def assert_branches_agree(f, decided):
    decided.clear()
    tree = build_tree(f)
    for branch in tree.branches:
        call = decided.get(id(branch.literals))
        if call is None:  # closed by unification: no ordering can realize it
            assert branch.status == CLOSED
            assert not exhaustive_realizable(branch.literals, [])
        else:
            expected = OPEN if exhaustive_realizable(*call) else CLOSED
            assert branch.status == expected, (pretty(f), branch.index)
    return tree


def assert_trees_and_verdicts_agree(f, decided):
    """The branches of f and !f against the exhaustive search, and the
    verdicts, which stop at the first open branch, against those trees."""
    tree = assert_branches_agree(f, decided)
    negated = assert_branches_agree(Not(f), decided)
    assert (is_satisfiable(f) == SATISFIABLE) == tree.open, pretty(f)
    assert (is_valid(f) == VALID) == negated.closed, pretty(f)


def nested_conjunction(rng: random.Random) -> str:
    """A conjunction of 1-4 parts shaped F (l & G l), G (l | l) or G F l,
    over literals of three atoms."""

    def lit():
        return rng.choice(["", "!"]) + rng.choice("pqr")

    shapes = [
        lambda: f"F ({lit()} & G {lit()})",
        lambda: f"G ({lit()} | {lit()})",
        lambda: f"G F {lit()}",
    ]
    return " & ".join(rng.choice(shapes)() for _ in range(rng.randint(1, 4)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pruned_search_matches_exhaustive_on_corpus(seed, decided):
    for f in formula_corpus(seed=seed, count=500):
        assert_trees_and_verdicts_agree(f, decided)


def test_pruned_search_matches_exhaustive_on_nested_conjunctions(decided):
    rng = random.Random(5)
    for _ in range(300):
        assert_trees_and_verdicts_agree(parse(nested_conjunction(rng)), decided)


def test_verdict_stops_at_the_first_open_branch(monkeypatch):
    checked = [0]
    realizable = tableaux._realizable

    def counting(literals, commitments):
        checked[0] += 1
        return realizable(literals, commitments)

    monkeypatch.setattr(tableaux, "_realizable", counting)
    f = parse("(a | b) & (c | d) & (e | f) & (g | h)")
    assert len(build_tree(f).branches) == checked[0] == 16
    checked[0] = 0
    assert is_satisfiable(f) == SATISFIABLE
    assert checked[0] == 1
    checked[0] = 0
    assert is_valid(Not(f)) == NOT_VALID
    assert checked[0] == 1


# -- the two families that were factorial in k --------------------------------


def worst_case_family(k: int) -> str:
    # unsatisfiable at the tail alone: x, !x | y and !y meet there
    return " & ".join([f"F a{i}" for i in range(1, k + 1)] + ["G x", "G (!x | y)", "G !y"])


def cyclic_family(k: int) -> str:
    # unsatisfiable through ordering alone: q's world must precede p's and
    # p's world must precede q's
    return " & ".join([f"F a{i}" for i in range(1, k + 1)] + ["F (p & G !q)", "F (q & G !p)"])


@pytest.fixture
def orderings_checked(monkeypatch):
    count = [0]
    check_order = tableaux._check_order

    def counting(*args):
        count[0] += 1
        return check_order(*args)

    monkeypatch.setattr(tableaux, "_check_order", counting)
    return count


def test_worst_case_family_k8_unsat(orderings_checked):
    for k in range(9):
        orderings_checked[0] = 0
        tree = build_tree(parse(worst_case_family(k)))
        assert tree.closed, k
        # one tail check per branch, no ordering enumerated
        assert orderings_checked[0] <= len(tree.branches), k


def test_cyclic_precedence_family_unsat(orderings_checked):
    for k in range(9):
        orderings_checked[0] = 0
        tree = build_tree(parse(cyclic_family(k)))
        assert tree.closed, k
        # closed by the topological sort before any valuation search
        assert orderings_checked[0] == 0, k


@pytest.mark.parametrize("k", [0, 1, 2])
def test_cyclic_precedence_family_matches_oracle(k):
    f = parse(cyclic_family(k))
    assert is_satisfiable(f) == UNSATISFIABLE
    assert bounded_sat(f) is False
    # dropping one of the two crossing worlds breaks the cycle
    g = parse(cyclic_family(k).replace(" & F (q & G !p)", ""))
    assert is_satisfiable(g) == SATISFIABLE
    assert bounded_sat(g) is True
