"""The linear-realizability search against the exhaustive one it replaced,
and on the families that made that one factorial; the verdicts, which stop
at the first open branch, against the whole trees; the signed expansion
and the signed compile of commitments against those of the negation
normal form."""

import hashlib
import itertools
import random
import sys

import pytest

from formula_gen import formula_corpus
from pathcheck import bounded_sat
from realizability_reference import _realizable as exhaustive_realizable
from smartlot import tableaux
from smartlot.formulas import Atom, Not, atoms, count_eventually, nnf, parse, pretty
from smartlot.tableaux import (
    CLOSED,
    NOT_VALID,
    OPEN,
    SATISFIABLE,
    UNSATISFIABLE,
    VALID,
    build_tree,
    consequences,
    export_tree,
    is_satisfiable,
    is_valid,
)


@pytest.fixture
def decided(monkeypatch):
    """Record copies of the (literals, commitments) of every branch that
    reaches the realizability check, in call order; the expansion reuses
    one literal list for every branch.  The commitments are recorded in
    negation normal form, which is what `realizability_reference` reads."""
    calls = []
    realizable = tableaux._realizable

    def recording(literals, commitments):
        calls.append((list(literals), [(nnf(f), base) for f, base in commitments]))
        return realizable(literals, commitments)

    monkeypatch.setattr(tableaux, "_realizable", recording)
    return calls


def assert_branches_agree(f, decided):
    decided.clear()
    tree = build_tree(f)
    # the calls come in branch order; a branch closed by unification holds
    # a clash, so no call's literals match it
    calls = iter(decided)
    call = next(calls, None)
    for branch in tree.branches:
        if call is None or call[0] != branch.literals:
            # closed by unification: no ordering can realize it
            assert branch.status == CLOSED
            assert not exhaustive_realizable(branch.literals, [])
        else:
            expected = OPEN if exhaustive_realizable(*call) else CLOSED
            assert branch.status == expected, (pretty(f), branch.index)
            call = next(calls, None)
    assert call is None, pretty(f)
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


def test_expansion_builds_no_normal_form():
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is nnf.__code__:
            calls.append(frame.f_locals["f"])

    sys.setprofile(profile)
    try:
        f = parse("(a -> b) & !(c <-> d)")
        assert is_satisfiable(f) == SATISFIABLE
        assert is_valid(f) == NOT_VALID
        assert len(build_tree(f).branches) == 4
        # a signed part under G waits as it is and is compiled by sign; the
        # second has no constant model, so the state search reads it too
        assert is_satisfiable(parse("G !(a & F b)")) == SATISFIABLE
        assert is_satisfiable(parse("G !(a <-> F b) & b & F !b")) == SATISFIABLE
        assert consequences(parse("G (a -> !F b) & F (a & c)")) == {"a", "c"}
    finally:
        sys.setprofile(None)
    assert calls == []


# -- the signed compile against the compile of the normal form ----------------


def holds_at_tail(table, forced) -> bool:
    return next(tableaux._position(table, forced, set(), table[1], None), None) is not None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_signed_compile_matches_the_normal_form(seed):
    # at the tail, under every valuation of its atoms, a formula's signed
    # nodes hold exactly when the nodes of its negation normal form do
    for f in formula_corpus(seed=seed, count=500):
        names = sorted(atoms(f))
        for g in (f, Not(f)):
            signed, normal = tableaux._compile([g]), tableaux._compile([nnf(g)])
            for bits in itertools.product((False, True), repeat=len(names)):
                forced = dict(zip(names, bits))
                assert holds_at_tail(signed, forced) == holds_at_tail(normal, forced), (pretty(g), forced)


def iff_chain(k: int) -> str:
    """a{k-1} <-> (... (a1 <-> a0)...): k atoms, k - 1 nested <->."""
    text = "a0"
    for i in range(1, k):
        text = f"a{i} <-> ({text})"
    return text


def test_iff_chain_compiles_to_nodes_linear_in_its_depth():
    # each nested <-> is read under both signs over the shared signed nodes
    # of its parts: 8k - 9 nodes, where its normal form about doubles per level
    chains = [parse(iff_chain(k)) for k in (2, 4, 8, 16)]
    assert [len(tableaux._compile([g])[0]) for g in chains] == [7, 23, 55, 119]
    assert [len(tableaux._compile([nnf(g)])[0]) for g in chains] == [7, 29, 397, 98_333]
    assert is_satisfiable(parse(f"G ({iff_chain(24)}) & F !a0")) == SATISFIABLE


@pytest.fixture
def evaluations(monkeypatch):
    """The next-position values given to every one-position evaluation:
    None at the tail (the constant model, the tail check and the search's
    first states)."""
    later = []
    position = tableaux._position

    def recording(*args):
        later.append(args[-1])
        return position(*args)

    monkeypatch.setattr(tableaux, "_position", recording)
    return later


def test_constant_model_opens_a_committed_branch(evaluations):
    f = parse("!a & G (a | F b) & F c")
    assert is_satisfiable(f) == SATISFIABLE
    # the constant model alone decides: no tail check, no search
    assert evaluations == [None]
    assert bounded_sat(f) is True


def test_state_search_runs_without_a_constant_model(evaluations):
    f = parse("a & F !a & G (a | b)")
    assert is_satisfiable(f) == SATISFIABLE
    # the constant model, which a and !a leave nothing to evaluate, then
    # the tail check, whose states the search starts from: the tail is
    # enumerated once
    assert evaluations[:2] == [None, None]
    assert evaluations.count(None) == 2
    assert any(later is not None for later in evaluations[2:])
    assert bounded_sat(f) is True


# -- the two families that were factorial in k --------------------------------


def worst_case_family(k: int) -> str:
    # unsatisfiable at the tail alone: x, !x | y and !y meet there
    return " & ".join([f"F a{i}" for i in range(1, k + 1)] + ["G x", "G (!x | y)", "G !y"])


def cyclic_family(k: int) -> str:
    # unsatisfiable through ordering alone: q's world must precede p's and
    # p's world must precede q's
    return " & ".join([f"F a{i}" for i in range(1, k + 1)] + ["F (p & G !q)", "F (q & G !p)"])


def test_worst_case_family_k8_unsat(evaluations):
    for k in range(9):
        evaluations.clear()
        tree = build_tree(parse(worst_case_family(k)))
        assert tree.closed, k
        # at most the constant model and the tail check per branch: no search
        assert all(later is None for later in evaluations), k
        assert len(evaluations) <= 2 * len(tree.branches), k


def test_cyclic_precedence_family_unsat(evaluations):
    for k in range(9):
        evaluations.clear()
        tree = build_tree(parse(cyclic_family(k)))
        assert tree.closed, k
        # closed by the topological sort before any evaluation
        assert evaluations == [], k


def test_branches_and_verdicts_pinned_on_a_corpus():
    # the branch lists of f and !f, both verdicts and the consequences of
    # 1,500 seeded formulas and both families up to k=8, as one digest; a
    # change to the order of the realizability steps must not change it
    formulas = [f for seed in range(3) for f in formula_corpus(seed=seed, count=500)]
    formulas += [parse(family(k)) for family in (worst_case_family, cyclic_family) for k in range(9)]
    digest = hashlib.sha256()
    for f in formulas:
        found = consequences(f)
        digest.update(repr([
            branch_data(build_tree(f)),
            branch_data(build_tree(Not(f))),
            is_satisfiable(f),
            is_valid(f),
            None if found is None else sorted(found),
        ]).encode())
    assert digest.hexdigest() == "f4d3355a67d5f77559735cdc4fc7c92bba7988eef1c6c97e57991c78576410a1"


@pytest.mark.parametrize("k", [0, 1, 2])
def test_cyclic_precedence_family_matches_oracle(k):
    f = parse(cyclic_family(k))
    assert is_satisfiable(f) == UNSATISFIABLE
    assert bounded_sat(f) is False
    # dropping one of the two crossing worlds breaks the cycle
    g = parse(cyclic_family(k).replace(" & F (q & G !p)", ""))
    assert is_satisfiable(g) == SATISFIABLE
    assert bounded_sat(g) is True


# -- the state search: open families, leaves and free positions ---------------


def open_family(k: int) -> str:
    # a satisfiable tail, no constant model, and a world no position can hold
    return " & ".join([f"F a{i}" for i in range(1, k + 1)] + ["G (p | q)", "F (!p & !q)"])


def eventual_family(k: int) -> str:
    # the world of !p needs a later q, which G !q forbids
    return " & ".join([f"F a{i}" for i in range(1, k + 1)] + ["G (p | F q)", "G !q", "F !p"])


def leaf_mix(rng: random.Random) -> str:
    """A conjunction of 2-4 parts over p, q and fresh atoms a0, a1, ...:
    leaves with fresh atoms, leaves whose atom a commitment, another literal
    or the root reads, nested leaves, leaves with a universal literal, and
    worlds that are commitment bases."""
    fresh = (f"a{i}" for i in itertools.count())

    def lit():
        return rng.choice(["", "!"]) + rng.choice("pq")

    shapes = [
        lambda: f"F {next(fresh)}",
        lambda: f"F ({next(fresh)} & {lit()})",
        lambda: f"F ({next(fresh)} & F {next(fresh)})",
        lambda: f"F ({next(fresh)} & G {lit()})",
        lambda: f"F ({lit()} & G ({lit()} | F {lit()}))",
        lambda: f"G ({lit()} | {lit()})",
        lambda: f"G ({lit()} | F {lit()})",
        lambda: f"F ({lit()} & {lit()})",
        lambda: lit(),
    ]
    return " & ".join(rng.choice(shapes)() for _ in range(rng.randint(2, 4)))


def oracle_bits(f) -> int:
    """The bits `bounded_sat` enumerates for f."""
    return len(atoms(f)) * (count_eventually(nnf(f)) + 1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_leaf_rule_matches_exhaustive_on_seeded_branches(seed, decided):
    rng = random.Random(seed)
    for _ in range(60):
        f = parse(leaf_mix(rng))
        tree = assert_branches_agree(f, decided)
        # the oracle's cost doubles with each bit; larger draws are checked
        # against the exhaustive search alone
        if oracle_bits(f) <= 16:
            assert tree.open == bounded_sat(f), pretty(f)


@pytest.mark.parametrize("family", [open_family, eventual_family, cyclic_family])
def test_families_match_exhaustive_and_oracle(family, decided):
    for k in range(4):
        f = parse(family(k))
        assert assert_branches_agree(f, decided).closed, (family.__name__, k)
        if oracle_bits(f) <= 24:
            assert bounded_sat(f) is False, (family.__name__, k)


@pytest.mark.parametrize("family", [open_family, eventual_family])
def test_open_families_decide_at_k12(family, evaluations):
    f = parse(family(12))
    assert is_satisfiable(f) == UNSATISFIABLE
    # the twelve leaves leave the search: a handful of states
    assert len(evaluations) < 10


def test_search_stops_at_the_first_model(monkeypatch):
    drawn = [0]
    position = tableaux._position

    def counting(*args):
        for values in position(*args):
            drawn[0] += 1
            yield values

    monkeypatch.setattr(tableaux, "_position", counting)
    # b and !b leave no constant model, so the search runs; it draws
    # valuations one at a time, not all 2^20 of the chain at the tail
    chain = " | ".join(f"a{i}" for i in range(20))
    assert is_satisfiable(parse(f"G ({chain}) & b & F !b")) == SATISFIABLE
    assert drawn[0] < 10


def test_free_position_between_worlds(decided):
    # the world of x & !b needs a later b, and G !b holds from another
    # world on: only a position between the two worlds, named by no F, can
    # hold b.  realizability_reference places the named worlds and then
    # helper positions, so it has no such position and refutes the branch;
    # a further world, F c, can stand in for it.
    text = "G (!x | F b) & F (x & !b) & F G !b"
    for f, reference in [(parse(text), False), (parse(text + " & F c"), True)]:
        decided.clear()
        assert is_satisfiable(f) == SATISFIABLE
        assert bounded_sat(f) is True
        [call] = decided
        assert exhaustive_realizable(*call) is reference
