import pytest

from smartlot.agents import (
    FALLBACK_CANDIDATE,
    NEAREST_FREE,
    NO_SUGGESTION,
    PREFERRED,
    DecisionConfig,
    Followers,
    a3_decide,
)
from smartlot.fixtures import all_spots, parking_fixture
from smartlot.formulas import Formula, parse
from smartlot.knowledge import KnowledgeError, SpecStore, Trip, spec_conjuncts, spec_formula
from smartlot.tableaux import build_tree
from smartlot.worldgraph import GraphError

def kr55_store():
    store = SpecStore()
    store.insert("idKR55", parse("g2 -> F p018"), 7)
    store.insert("idKR55", parse("g2 -> F p015"), 2)
    return store


# -- A2 ----------------------------------------------------------------------


def follow(followers, steps):
    """Trips closed by `(user, node, label)` steps, in closing order."""
    return [t for t in (followers.observe(*step) for step in steps) if t is not None]


def test_a2_lifecycle():
    followers = Followers()
    trips = follow(
        followers,
        [
            ("idKR55", "g2", "G"),
            ("idKR55", "r4", "R"),
            ("idKR55", "p018", "P"),
            ("idKR55", "r5", "R"),
        ],
    )
    assert trips == [] and len(followers) == 1
    assert followers.observe("idKR55", "g2", "G") == Trip("idKR55", "g2", "p018", "g2")
    assert len(followers) == 0


def test_a2_interleaved_users_and_pass_through():
    trips = follow(
        Followers(),
        [
            ("idKR55", "g2", "G"),
            ("idWX11", "g1", "G"),
            ("idKR55", "r4", "R"),
            ("idWX11", "g1", "G"),
            ("idKR55", "p018", "P"),
            ("idKR55", "g1", "G"),
        ],
    )
    assert trips == [
        Trip("idWX11", "g1", None, "g1"),
        Trip("idKR55", "g2", "p018", "g1"),
    ]


def test_a2_last_parking_wins():
    trips = follow(
        Followers(),
        [
            ("idKR55", "g2", "G"),
            ("idKR55", "p018", "P"),
            ("idKR55", "p015", "P"),
            ("idKR55", "g2", "G"),
        ],
    )
    assert [t.parked_spot for t in trips] == ["p015"]


def test_a2_open_trip_is_kept_and_counted():
    followers = Followers()
    trips = follow(
        followers,
        [
            ("idKR55", "g2", "G"),
            ("idKR55", "g2", "G"),
            ("idKR55", "g2", "G"),
            ("idKR55", "p018", "P"),
            ("blocker1", "g1", "G"),
        ],
    )
    assert trips == [Trip("idKR55", "g2", None, "g2")]
    assert len(followers) == 2


def test_a2_returns_a_fresh_trip_each_time():
    followers = Followers()
    steps = [("u", "g2", "G"), ("u", "p018", "P"), ("u", "g2", "G")]
    first, second = follow(followers, steps) + follow(followers, steps)
    assert first == second and first is not second
    first.parked_spot = None
    assert second == Trip("u", "g2", "p018", "g2")


def test_a2_rejects_detection_outside_a_trip():
    followers = Followers()
    with pytest.raises(KnowledgeError):
        followers.observe("idKR55", "r4", "R")
    # a closed trip leaves no follower behind to update
    follow(followers, [("idKR55", "g2", "G"), ("idKR55", "g2", "G")])
    with pytest.raises(KnowledgeError):
        followers.observe("idKR55", "p018", "P")
    assert len(followers) == 0


# -- A3 ----------------------------------------------------------------------


def test_a3_prefers_highest_count():
    decision, removed = a3_decide(kr55_store(), parking_fixture(), "idKR55", "g2")
    assert decision.suggestion == "p018"
    assert decision.rationale == PREFERRED
    assert decision.candidates == (("p018", 7), ("p015", 2))
    assert removed == []
    assert build_tree(spec_formula(kr55_store(), "idKR55", parse("g2"))).open


def decide(rows, gate="g2"):
    """The candidates of an arrival at gate over one user's (formula, r) rows."""
    store = SpecStore()
    for text, r in rows:
        store.insert("u", parse(text), r)
    decision, _ = a3_decide(store, parking_fixture(), "u", gate)
    return decision.candidates


def test_a3_ranking_ties_roads_and_negation_normal_form():
    # equal r breaks by spot id, the road r1 is never a candidate, and
    # `!G !p011` promises p011 as `F p011` does
    rows = [
        ("g2 -> F p018", 3),
        ("g2 -> F p015", 3),
        ("g2 -> F (p010 & r1)", 1),
        ("g2 -> !G !p011", 5),
    ]
    assert decide(rows) == (("p011", 5), ("p015", 3), ("p018", 3), ("p010", 1))


def test_a3_negated_eventually_promises_no_spot():
    # the row at r=9 says never p011, so p011 weighs what `g2 -> F p011` does
    rows = [("g2 -> F p011", 1), ("g2 -> F p015", 2), ("g3 -> !F p011", 9)]
    assert decide(rows) == (("p015", 2), ("p011", 1))
    assert decide([("g2 -> !G !p011", 4)]) == decide([("g2 -> F p011", 4)]) == (("p011", 4),)
    # nor does `F !p011`, which promises only that p011 is free some time
    assert decide([*rows[:2], ("g3 -> F !p011", 9)]) == (("p015", 2), ("p011", 1))


def test_a3_repeated_decision_is_a_fresh_record():
    # a decision is a plain record: changing one changes no later answer
    store, graph = kr55_store(), parking_fixture()
    first, _ = a3_decide(store, graph, "idKR55", "g2")
    proofs = dict(store.proofs)
    again, _ = a3_decide(store, graph, "idKR55", "g2")
    assert again == first and again is not first
    first.suggestion, first.candidates = None, ()
    assert (again.suggestion, again.candidates) == ("p018", (("p018", 7), ("p015", 2)))
    assert store.proofs == proofs
    third, _ = a3_decide(store, graph, "idKR55", "g2")
    assert third == again


def count_searches(monkeypatch) -> list:
    """The conjuncts a3_decide runs each consequence search on, from now on."""
    import smartlot.knowledge

    searched = []
    real = smartlot.knowledge.consequences

    def counting(*parts):
        searched.append(list(parts))
        return real(*parts)

    monkeypatch.setattr(smartlot.knowledge, "consequences", counting)
    return searched


def test_a3_searches_once_on_a_consistent_spec(monkeypatch):
    import smartlot.agents
    import smartlot.tableaux

    def no_tree(f):
        raise AssertionError("a decision builds no truth tree")

    monkeypatch.setattr(smartlot.tableaux, "build_tree", no_tree)
    monkeypatch.setattr(smartlot.agents, "build_tree", no_tree)
    searched = count_searches(monkeypatch)
    decision, removed = a3_decide(kr55_store(), parking_fixture(), "idKR55", "g2")
    assert (decision.suggestion, removed) == ("p018", [])
    assert searched == [spec_conjuncts(kr55_store(), "idKR55", parse("g2"))]


def test_a3_searches_a_repeated_spec_once_per_store(monkeypatch):
    searched = count_searches(monkeypatch)
    store = kr55_store()
    for t in store.triples():
        store.insert("idWX11", t.formula, t.r + 1)
    first, _ = a3_decide(store, parking_fixture(), "idKR55", "g2")
    # the same user again, and another user with the same formulas
    again, _ = a3_decide(store, parking_fixture(), "idKR55", "g2")
    other, _ = a3_decide(store, parking_fixture(), "idWX11", "g2")
    assert len(searched) == 1
    assert first == again and other.candidates == (("p018", 8), ("p015", 3))
    # a fresh store starts cold
    fresh, _ = a3_decide(kr55_store(), parking_fixture(), "idKR55", "g2")
    assert len(searched) == 2 and fresh == first


@pytest.mark.parametrize("k", [4, 16])
def test_a3_search_grows_linearly_with_other_gate_preferences(k, monkeypatch):
    # each stored g2 -> F s is !g2 | F s at a g1 arrival: the tree has
    # 2^k + 1 branches, the consequence search opens one per spot
    import smartlot.tableaux

    calls = []
    real = smartlot.tableaux._realizable

    def counting(literals, commitments):
        calls.append(1)
        return real(literals, commitments)

    monkeypatch.setattr(smartlot.tableaux, "_realizable", counting)
    store = SpecStore()
    spots = all_spots()[:k]
    for spot in spots:
        store.insert("u", parse(f"g2 -> F {spot}"), 1)
    decision, removed = a3_decide(store, parking_fixture(), "u", "g1")
    assert removed == [] and decision.suggestion == spots[0]
    assert decision.candidates == tuple((spot, 1) for spot in spots)
    assert len(calls) <= 2 * k + 2


def test_a3_repeated_decision_neither_sorts_nor_assembles(monkeypatch):
    # the memo key needs only the set of relevant rows; the spot weights
    # need no order
    import smartlot.knowledge

    sorts, assembled = [], []
    real_conjuncts = smartlot.knowledge._conjuncts

    def counting_sorted(rows, **kwargs):
        sorts.append(len(rows))
        return sorted(rows, **kwargs)

    def counting_conjuncts(rows, observation):
        assembled.append(str(observation))
        return real_conjuncts(rows, observation)

    def no_triples(self, user=None):
        raise AssertionError("a decision lists no SpecTriple")

    # a module global `sorted` takes the place of the builtin in every sort
    # the knowledge module makes
    monkeypatch.setattr(smartlot.knowledge, "sorted", counting_sorted, raising=False)
    monkeypatch.setattr(smartlot.knowledge, "_conjuncts", counting_conjuncts)
    monkeypatch.setattr(SpecStore, "triples", no_triples)
    store = kr55_store()
    first, _ = a3_decide(store, parking_fixture(), "idKR55", "g2")
    # a miss sorts the observation and the analyzed rows by shape, for the
    # shape key, and a shape miss sorts the analyzed rows once, to list the
    # conjuncts
    assert first.candidates == (("p018", 7), ("p015", 2))
    assert sorts == [3, 2] and assembled == ["g2"]
    again, _ = a3_decide(store, parking_fixture(), "idKR55", "g2")
    assert again == first
    assert sorts == [3, 2] and assembled == ["g2"]


def test_a3_memo_hit_hashes_no_formula(monkeypatch):
    # rows and memo keys are the store's interned facts, hashed by identity:
    # a repeated decision hashes only its observation, to intern it
    calls = {"__hash__": 0, "__eq__": 0}
    for name in calls:
        real = getattr(Formula, name)

        def counting(self, *args, _name=name, _real=real):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(Formula, name, counting)
    store, graph = kr55_store(), parking_fixture()
    first, _ = a3_decide(store, graph, "idKR55", "g2")
    calls.update({"__hash__": 0, "__eq__": 0})
    again, removed = a3_decide(store, graph, "idKR55", "g2")
    assert calls["__eq__"] == 0 and calls["__hash__"] <= 1
    assert (again, removed) == (first, [])


def test_a3_falls_back_to_next_candidate():
    g = parking_fixture().car_enters("c1", "g2").car_moves("c1", "p018")
    decision, _ = a3_decide(kr55_store(), g, "idKR55", "g2")
    assert decision.suggestion == "p015"
    assert decision.rationale == FALLBACK_CANDIDATE


def test_a3_no_suggestion_when_all_taken():
    g = parking_fixture()
    for car, spot in [("c1", "p018"), ("c2", "p015")]:
        g = g.car_enters(car, "g2").car_moves(car, spot)
    decision, _ = a3_decide(kr55_store(), g, "idKR55", "g2")
    assert decision.suggestion is None
    assert decision.rationale == NO_SUGGESTION


def test_a3_nearest_free_fallback():
    g = parking_fixture()
    for car, spot in [("c1", "p018"), ("c2", "p015")]:
        g = g.car_enters(car, "g2").car_moves(car, spot)
    config = DecisionConfig(fallback_nearest=True)
    decision, _ = a3_decide(kr55_store(), g, "idKR55", "g2", config)
    assert decision.rationale == NEAREST_FREE
    assert decision.suggestion == g.nearest_free_spot("g2")


def test_a3_empty_store():
    decision, removed = a3_decide(SpecStore(), parking_fixture(), "idKR55", "g2")
    assert decision.suggestion is None
    assert decision.rationale == NO_SUGGESTION
    assert decision.candidates == ()
    assert removed == []


def test_a3_resolves_contradiction_first():
    store = kr55_store()
    store.insert("idKR55", parse("G !g2"), 1)
    decision, removed = a3_decide(store, parking_fixture(), "idKR55", "g2")
    assert removed == [parse("G !g2")]
    assert not store.contains("idKR55", parse("G !g2"))
    assert decision.suggestion == "p018"


def test_a3_proves_a_contradicted_spec_once(monkeypatch):
    store = kr55_store()
    store.insert("idKR55", parse("G !g2"), 1)
    contradicted = spec_conjuncts(store, "idKR55", parse("g2"))
    searched = count_searches(monkeypatch)
    _, removed = a3_decide(store, parking_fixture(), "idKR55", "g2")
    assert removed == [parse("G !g2")]
    # once on the contradicted spec, once on each shape of (observation,
    # row) pair in row order (g2 -> F p015 has the shape of g2 -> F p018),
    # once on the repaired spec
    assert searched.count(contradicted) == 1
    pairs = [[parse("g2"), parse("g2 -> F p018")], [parse("G !g2"), parse("g2")]]
    assert searched == [contradicted, *pairs, spec_conjuncts(store, "idKR55", parse("g2"))]


def test_a3_requires_gateway():
    with pytest.raises(GraphError):
        a3_decide(kr55_store(), parking_fixture(), "idKR55", "r1")


def test_a3_ranking_invariant_under_scaling():
    store = kr55_store()
    base, _ = a3_decide(store, parking_fixture(), "idKR55", "g2")
    scaled, _ = a3_decide(store.scale(10), parking_fixture(), "idKR55", "g2")
    assert scaled.suggestion == base.suggestion
    assert scaled.rationale == base.rationale
    assert [s for s, _ in scaled.candidates] == [s for s, _ in base.candidates]


def test_a3_is_pure():
    store = kr55_store()
    g = parking_fixture()
    before_store = store.triples()
    before_graph = g.edges.copy(), g.labels.copy()
    a3_decide(store, g, "idKR55", "g2")
    assert store.triples() == before_store
    assert (g.edges, g.labels) == (before_graph[0], before_graph[1])
