"""The pruned linear-realizability search against the exhaustive one it
replaced, and on the families that made the exhaustive one factorial; the
verdicts, which stop at the first open branch, against the whole trees; the
signed expansion against the expansion of the negation normal form."""

import random

import pytest

from formula_gen import formula_corpus
from pathcheck import bounded_sat
from realizability_reference import _realizable as exhaustive_realizable
from smartlot import tableaux
from smartlot.formulas import Atom, Not, nnf, parse, pretty
from smartlot.tableaux import (
    CLOSED,
    NOT_VALID,
    OPEN,
    SATISFIABLE,
    UNSATISFIABLE,
    VALID,
    build_tree,
    export_tree,
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


# -- signed expansion and the constant model -----------------------------------


def branch_data(tree):
    return [(b.index, b.literals, b.status) for b in tree.branches]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_signed_expansion_matches_the_normal_form(seed):
    for f in formula_corpus(seed=seed, count=500):
        for g in (f, Not(f)):
            normal = nnf(g)
            tree, normal_tree = build_tree(g), build_tree(normal)
            assert branch_data(tree) == branch_data(normal_tree), pretty(g)
            if isinstance(normal, (Atom, Not)):
                # a bare literal at the root is displayed by the root node
                continue
            below_root = export_tree(tree).splitlines()[1:]
            assert below_root == export_tree(normal_tree).splitlines()[1:], pretty(g)


def test_expansion_normalizes_only_commitments(monkeypatch):
    calls = []
    normalize = tableaux.nnf

    def counting(f):
        calls.append(f)
        return normalize(f)

    monkeypatch.setattr(tableaux, "nnf", counting)
    f = parse("(a -> b) & !(c <-> d)")
    assert is_satisfiable(f) == SATISFIABLE
    assert is_valid(f) == NOT_VALID
    assert len(build_tree(f).branches) == 4
    assert calls == []
    # a signed disjunction under G is normalized once, where it is recorded
    assert is_satisfiable(parse("G !(a & F b)")) == SATISFIABLE
    assert [pretty(g) for g in calls] == ["!(a & F b)"]


@pytest.fixture
def positions_checked(monkeypatch):
    """The number of positions of every `_check_order` call."""
    sizes = []
    check_order = tableaux._check_order

    def recording(positions, *args):
        sizes.append(len(positions))
        return check_order(positions, *args)

    monkeypatch.setattr(tableaux, "_check_order", recording)
    return sizes


def test_constant_model_opens_a_committed_branch(positions_checked):
    f = parse("!a & G (a | F b) & F c")
    assert is_satisfiable(f) == SATISFIABLE
    # the tail check, then the constant model: no ordering is tried
    assert positions_checked == [1, 1]
    assert bounded_sat(f) is True


def test_ordering_search_runs_without_a_constant_model(positions_checked):
    f = parse("a & F !a & G (a | b)")
    assert is_satisfiable(f) == SATISFIABLE
    assert positions_checked[:2] == [1, 1]
    assert max(positions_checked) > 1
    assert bounded_sat(f) is True


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
