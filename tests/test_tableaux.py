import random

import pytest

from formula_gen import formula_corpus
from pathcheck import bounded_sat
from smartlot.fixtures import all_gates, all_spots
from smartlot.formulas import Always, And, Atom, Not, Or, conjoin, nnf, parse
from smartlot.knowledge import SpecStore, Trip, mine_trip, spec_conjuncts
from smartlot.tableaux import (
    CLOSED,
    NOT_VALID,
    OPEN,
    SATISFIABLE,
    UNSATISFIABLE,
    VALID,
    WorldLabel,
    build_tree,
    consequences,
    export_tree,
    is_satisfiable,
    is_valid,
    open_consequences,
)


def literal_set(branch):
    return {(sign, atom, label.render()) for sign, atom, label in branch.literals}


# -- golden trees ------------------------------------------------------------


def test_never_gate_tree():
    tree = build_tree(parse("G !g3 & g3"))
    assert len(tree.branches) == 1
    branch = tree.branches[0]
    assert branch.status == CLOSED
    assert literal_set(branch) == {("-", "g3", "1.[x]"), ("+", "g3", "")}
    assert tree.closed


def test_single_preference_tree():
    tree = build_tree(parse("g2 & (g2 -> F p010)"))
    assert [b.status for b in tree.branches] == [CLOSED, OPEN]
    assert literal_set(tree.branches[0]) == {("+", "g2", ""), ("-", "g2", "")}
    assert literal_set(tree.branches[1]) == {("+", "g2", ""), ("+", "p010", "1.[a]")}


def test_two_preference_tree():
    tree = build_tree(parse("g1 & ((g1 -> F p018) | (g1 -> F p015))"))
    statuses = [b.status for b in tree.branches]
    assert statuses == [CLOSED, OPEN, CLOSED, OPEN]
    assert literal_set(tree.branches[1]) == {("+", "g1", ""), ("+", "p018", "1.[a]")}
    assert literal_set(tree.branches[3]) == {("+", "g1", ""), ("+", "p015", "1.[b]")}


# -- verdicts ---------------------------------------------------------------


def test_never_gate_unsat():
    assert is_satisfiable(parse("G !g3 & g3")) == UNSATISFIABLE


def test_propositional_contradiction():
    assert is_satisfiable(parse("p & !p")) == UNSATISFIABLE


def test_always_implies_eventually():
    f = parse("G p -> F p")
    assert is_satisfiable(f) == SATISFIABLE
    assert is_satisfiable(Not(f)) == UNSATISFIABLE
    assert bounded_sat(f) and not bounded_sat(Not(f))


def test_validity_examples():
    assert is_valid(parse("p | !p")) == VALID
    assert is_valid(parse("p")) == NOT_VALID
    assert is_valid(parse("G p -> p")) == VALID
    assert bounded_sat(parse("!(G p -> p)")) is False


def test_linear_time_cases():
    # these separate tree-shaped from linear-path semantics
    assert is_satisfiable(parse("F G p & G F !p")) == UNSATISFIABLE
    assert is_satisfiable(parse("F G p & F G !p")) == UNSATISFIABLE
    assert is_satisfiable(parse("G (p | q) & F !p & F !q")) == SATISFIABLE
    assert is_satisfiable(parse("F (G p & !q) & F (G q & !p)")) == UNSATISFIABLE


# -- open consequences ------------------------------------------------------


def test_open_consequences_two_preferences():
    tree = build_tree(parse("g1 & ((g1 -> F p018) | (g1 -> F p015))"))
    assert open_consequences(tree) == [(2, {"p018"}), (4, {"p015"})]


def test_open_consequences_single_preference():
    tree = build_tree(parse("g2 & (g2 -> F p010)"))
    assert open_consequences(tree) == [(2, {"p010"})]


def tree_consequences(f):
    """None for a closed tree, else the union of its open consequences."""
    tree = build_tree(f)
    if tree.closed:
        return None
    return frozenset(set().union(*(atoms for _, atoms in open_consequences(tree))))


def test_consequences_examples():
    assert consequences(parse("G !g3 & g3")) is None
    assert consequences(parse("p & q")) == frozenset()
    assert consequences(parse("g1 & ((g1 -> F p018) | (g1 -> F p015))")) == {"p018", "p015"}
    # a preference for another gate leaves a branch open either way
    assert consequences(parse("g2 & (g2 -> F p010) & (g1 -> F p011)")) == {"p010", "p011"}
    assert consequences(parse("g2 & (g2 -> F p010) & G !p011")) == {"p010"}


@pytest.mark.parametrize("seed", range(4))
def test_consequences_match_the_tree_on_a_corpus(seed):
    for f in formula_corpus(seed, 500):
        assert consequences(f) == tree_consequences(f), str(f)


def random_mined_spec(rng: random.Random) -> list:
    """The conjuncts of an arrival on a random store of mined shapes."""
    store = SpecStore()
    gates = all_gates()
    for _ in range(rng.randint(0, 8)):
        trip = Trip("u", rng.choice(gates), rng.choice(all_spots()), rng.choice(gates))
        for formula in mine_trip(trip):
            store.upsert("u", formula)
    for gate in gates:
        if rng.random() < 0.3:
            store.insert("u", Always(Not(Atom(gate))), 1)
    return spec_conjuncts(store, "u", Atom(rng.choice(gates)))


def test_consequences_match_the_tree_on_mined_specs():
    rng = random.Random(5)
    for _ in range(300):
        f = conjoin(random_mined_spec(rng))
        assert consequences(f) == tree_consequences(f), str(f)


def test_consequences_do_not_depend_on_conjunct_order():
    # the decision agent's memo keys a search by its set of conjuncts
    rng = random.Random(9)
    corpus = formula_corpus(seed=21, count=400)
    for i in range(200):
        conjuncts = random_mined_spec(rng) if i % 2 else rng.sample(corpus, rng.randint(2, 4))
        expected = consequences(conjoin(conjuncts))
        for _ in range(3):
            rng.shuffle(conjuncts)
            assert consequences(conjoin(conjuncts)) == expected, conjuncts


def test_open_consequences_no_temporal():
    tree = build_tree(parse("p & q"))
    assert open_consequences(tree) == [(1, set())]


# -- export -----------------------------------------------------------------

NEVER_GATE_ASCII = """\
G !g3 & g3
  1.[x]: !g3
    g3
      x
"""


def test_export_ascii_never_gate():
    tree = build_tree(parse("G !g3 & g3"))
    assert export_tree(tree, "ascii") == NEVER_GATE_ASCII


def test_export_ascii_single_atom():
    tree = build_tree(parse("p"))
    assert export_tree(tree, "ascii") == "p\n  o\n"


def test_export_dot_never_gate():
    tree = build_tree(parse("G !g3 & g3"))
    dot = export_tree(tree, "dot")
    assert dot.startswith("digraph")
    assert dot.count("label=") == 3  # root, universal literal, g3
    assert "peripheries=2" in dot  # closed leaf styled distinctly


def test_export_unknown_format():
    with pytest.raises(ValueError):
        export_tree(build_tree(parse("p")), "svg")


# -- label unification ------------------------------------------------------


def test_label_unification():
    root = WorldLabel()
    named_a = WorldLabel(("a",))
    named_b = WorldLabel(("b",))
    universal = WorldLabel((), True)
    universal_a = WorldLabel(("a",), True)
    assert universal.unifies(root)
    assert universal.unifies(named_a)
    assert universal_a.unifies(WorldLabel(("a", "c")))
    assert not universal_a.unifies(named_b)
    assert named_a.unifies(named_a)
    assert not named_a.unifies(named_b)
    assert universal_a.unifies(universal)  # both reach the constant tail


def test_label_render():
    assert WorldLabel().render() == ""
    assert WorldLabel(("a",)).render() == "1.[a]"
    assert WorldLabel((), True).render() == "1.[x]"
    assert WorldLabel(("a",), True).render() == "1.[a].2.[x]"
    assert WorldLabel(("a", "b")).render() == "1.[a].2.[b]"


# -- properties -------------------------------------------------------------


def test_validity_negation_coherence_random():
    for f in formula_corpus(seed=42, count=300):
        valid = is_valid(f) == VALID
        neg_unsat = is_satisfiable(Not(f)) == UNSATISFIABLE
        assert valid == neg_unsat


def test_oracle_agreement_random():
    for f in formula_corpus(seed=7, count=300):
        assert (is_satisfiable(f) == SATISFIABLE) == bounded_sat(f), str(f)


def test_monotone_closure():
    corpus = formula_corpus(seed=11, count=200)
    unsat = [f for f in corpus if is_satisfiable(f) == UNSATISFIABLE]
    extras = formula_corpus(seed=12, count=len(unsat))
    for f, g in zip(unsat, extras):
        assert is_satisfiable(And(f, g)) == UNSATISFIABLE


def test_determinism():
    f = parse("g1 & ((g1 -> F p018) | (g1 -> F p015))")
    t1, t2 = build_tree(f), build_tree(f)
    assert export_tree(t1, "ascii") == export_tree(t2, "ascii")
    assert [literal_set(b) for b in t1.branches] == [literal_set(b) for b in t2.branches]


def _count_or(f):
    stack, n = [f], 0
    while stack:
        g = stack.pop()
        if isinstance(g, Or):
            n += 1
        if hasattr(g, "left"):
            stack.extend([g.left, g.right])
        elif hasattr(g, "operand"):
            stack.append(g.operand)
    return n


def test_branch_count_bound():
    for f in formula_corpus(seed=13, count=200):
        tree = build_tree(f)
        assert len(tree.branches) <= 2 ** _count_or(nnf(f))
