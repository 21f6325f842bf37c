import hashlib
import importlib.util
import json
import random
from pathlib import Path

import pytest

from formula_gen import formula_corpus
from pathcheck import bounded_sat
from smartlot.fixtures import all_gates, all_spots
from smartlot.formulas import Always, And, Atom, Not, Or, conjoin, nnf, parse, pretty
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


def test_consequences_of_parts_search_as_their_conjunction(monkeypatch):
    # the decision agent hands over the conjuncts of a specification, not
    # their conjunction: the search must reach the same branches with the
    # same literals and commitments, in the same order
    import smartlot.tableaux

    checked = []
    real = smartlot.tableaux._realizable

    def recording(literals, commitments):
        checked.append((list(literals), list(commitments)))
        return real(literals, commitments)

    monkeypatch.setattr(smartlot.tableaux, "_realizable", recording)
    rng = random.Random(17)
    corpus = formula_corpus(seed=23, count=400)
    for i in range(300):
        parts = random_mined_spec(rng) if i % 2 else rng.sample(corpus, rng.randint(1, 4))
        expected = consequences(conjoin(parts))
        joined, checked[:] = list(checked), []
        assert consequences(*parts) == expected, parts
        assert checked == joined, parts
        checked.clear()


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
    # root, universal literal, g3 and the branch's marker; the marker is a
    # row of its own, so that two branches that end at one literal keep two
    assert dot.count("label=") == 4
    assert 'label="x", shape=box, peripheries=2' in dot  # closed marker styled distinctly


def test_export_unknown_format():
    with pytest.raises(ValueError):
        export_tree(build_tree(parse("p")), "svg")


@pytest.mark.parametrize(
    "text, ascii",
    [
        # two splits that hold the same literal stay two sibling nodes
        ("a | a", "a | a\n  a\n    o\n  a\n    o\n"),
        # the literal after a split is shown once under each side
        ("(a | b) & !a", "(a | b) & !a\n  a\n    !a\n      x\n  b\n    !a\n      o\n"),
        # a bare literal root displays its one literal itself
        ("!a", "!a\n  o\n"),
        # a later branch that draws no literal of its own keeps its marker,
        # in branch order under the last literal it shares
        ("q | G F r", "q | G F r\n  q\n    o\n  o\n"),
        (
            "(G F c) | (G (a | b) & G (!a | !b) & G (a | !b) & G (!a | b))",
            "G F c | G (a | b) & G (!a | !b) & G (a | !b) & G (!a | b)\n  o\n  x\n",
        ),
    ],
)
def test_export_ascii_pinned(text, ascii):
    assert export_tree(build_tree(parse(text)), "ascii") == ascii


def test_each_branch_ends_in_its_own_marker_on_a_corpus():
    # the k-th x / o marker of either export is the k-th branch's status,
    # also where a later branch draws no literal of its own
    for f in formula_corpus(23, 600):
        tree = build_tree(f)
        statuses = ["x" if b.status == CLOSED else "o" for b in tree.branches]
        rows = [line.strip() for line in export_tree(tree, "ascii").splitlines()]
        assert [row for row in rows if row in ("x", "o")] == statuses, pretty(f)
        styled = [
            "x" if "peripheries=2" in line else "o"
            for line in export_tree(tree, "dot").splitlines()
            if "peripheries=2" in line or "shape=ellipse" in line
        ]
        assert styled == statuses, pretty(f)


def test_tree_display_and_branches_pinned_on_a_corpus():
    # ASCII and DOT exports and branch lists of 600 seeded formulas, as
    # one digest; a change to the display or to branch order changes it
    digest = hashlib.sha256()
    for f in formula_corpus(23, 600):
        tree = build_tree(f)
        digest.update(export_tree(tree, "ascii").encode())
        digest.update(export_tree(tree, "dot").encode())
        digest.update(repr([(b.index, b.literals, b.status) for b in tree.branches]).encode())
    assert digest.hexdigest() == "a3fe88acc44d05494ac05caad3822731ccc13e7fcde6890d4453e9802149a0d7"


def test_benchmark_proofs_verdicts_match_the_reference_digest():
    # the seed-1 `proofs` workload of perfbench/run.py: its corpus, arrival
    # specs and worst-case family k=1..7, each parsed and proved, hashed as
    # the benchmark hashes its verdicts; perfbench is no package, so its
    # input generator is loaded from its file
    bench = Path(__file__).parent.parent / "perfbench"
    spec = importlib.util.spec_from_file_location("inputs", bench / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    texts = inputs.random_corpus(1, 3000) + [text for text, _ in inputs.arrival_specs(1, 300)]
    texts += inputs.worst_case_family(7)
    verdicts = []
    for text in texts:
        f = parse(text)
        verdicts.append(f"{is_satisfiable(f)} {is_valid(f)}\n")
    reference = json.loads((bench / "reference.json").read_text())["proofs"]["digests"]["verdicts"]
    assert hashlib.sha256("".join(verdicts).encode()).hexdigest() == reference


# -- the literal trail and its closure index ---------------------------------


@pytest.fixture
def unifications(monkeypatch):
    """The number of label unifications the closure check makes."""
    calls = [0]
    unifies = WorldLabel.unifies

    def counting(self, other):
        calls[0] += 1
        return unifies(self, other)

    monkeypatch.setattr(WorldLabel, "unifies", counting)
    return calls


def test_closure_reads_only_the_literals_of_its_atom(unifications):
    # a literal is checked against the literals of its own atom alone, so a
    # chain of distinct atoms unifies no labels, and !a0 at its end one pair
    chain = " & ".join(f"a{i}" for i in range(5000))
    assert is_satisfiable(parse(chain)) == SATISFIABLE
    assert unifications[0] == 0
    assert is_satisfiable(parse(chain + " & !a0")) == UNSATISFIABLE
    assert unifications[0] == 1


def test_tree_branches_are_independent_lists():
    # the expansion reuses one literal list; each branch of a tree owns a copy
    tree = build_tree(parse("(a | b) & (c | d) & !a"))
    rows = [[(sign, atom) for sign, atom, _ in b.literals] for b in tree.branches]
    assert rows == [
        [("+", "a"), ("+", "c"), ("-", "a")],
        [("+", "a"), ("+", "d"), ("-", "a")],
        [("+", "b"), ("+", "c"), ("-", "a")],
        [("+", "b"), ("+", "d"), ("-", "a")],
    ]
    assert [b.shared for b in tree.branches] == [0, 1, 0, 1]
    assert len({id(b.literals) for b in tree.branches}) == 4
    tree.branches[0].literals.clear()
    assert [len(b.literals) for b in tree.branches] == [0, 3, 3, 3]


def test_exports_of_formulas_and_negations_pinned_on_a_corpus():
    # ASCII and DOT exports of f and !f for 1,500 seeded formulas, as one
    # digest, equal to the exports of the expansion that copied its literal
    # and commitment lists at each split
    digest = hashlib.sha256()
    for seed in range(3):
        for f in formula_corpus(seed=seed, count=500):
            for g in (f, Not(f)):
                tree = build_tree(g)
                digest.update(export_tree(tree, "ascii").encode())
                digest.update(export_tree(tree, "dot").encode())
    assert digest.hexdigest() == "e6dba78cdf1d522856fe22734452890729c0f934a93937268289d4a2b7a95f59"


def test_consequences_read_each_pending_formula_once(monkeypatch):
    # 2^12 branches for an arrival at g1: what a pending formula can still
    # produce is read once per formula, not once per pending branch
    import smartlot.tableaux

    walked = []
    real = smartlot.tableaux.atoms

    def recording(f, *under):
        walked.append(id(f))
        return real(f, *under)

    monkeypatch.setattr(smartlot.tableaux, "atoms", recording)
    spec = "g1 & " + " & ".join(f"(g2 -> F p{i})" for i in range(12))
    assert consequences(parse(spec)) == {f"p{i}" for i in range(12)}
    # at most the 12 preferences and their 12 right sides, each once
    assert len(walked) == len(set(walked)) <= 24


def test_consequences_skip_a_pending_branch_in_amortized_constant_time(monkeypatch):
    # after the first open branch, each of the ~k^2/2 pending branches is
    # skipped without rescanning the n-literal trail or the stack below it
    import smartlot.tableaux

    n, k = 2000, 200
    read, walked, checks = [], [], []
    first_new, may_reach = smartlot.tableaux._first_new, smartlot.tableaux._may_reach

    def reading(literals, start, found):
        end = first_new(literals, start, found)
        read.append(end - start)
        return end

    def walking(stack, found, reach, spent):
        checks.append(1)
        node = stack
        while node is not None and id(node) not in spent:
            walked.append(1)
            node = node[3]
        return may_reach(stack, found, reach, spent)

    monkeypatch.setattr(smartlot.tableaux, "_first_new", reading)
    monkeypatch.setattr(smartlot.tableaux, "_may_reach", walking)
    spec = parse(" & ".join([f"a{i}" for i in range(n)] + [f"(x{i} | F y{i})" for i in range(k)]))
    assert consequences(spec) == {f"y{i}" for i in range(k)}
    assert len(checks) >= k * (k - 1) // 2
    # the trail is read about once, and each check walks about one node
    assert sum(read) <= n + 2 * k
    assert len(walked) <= 2 * len(checks)


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
