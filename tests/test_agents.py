import pytest

from smartlot.agents import (
    ENTER,
    EXIT,
    FALLBACK_CANDIDATE,
    MOVE,
    NEAREST_FREE,
    NO_SUGGESTION,
    PREFERRED,
    DecisionConfig,
    Followers,
    a1_detect,
    a3_decide,
)
from smartlot.fixtures import all_spots, parking_fixture
from smartlot.formulas import parse
from smartlot.knowledge import KnowledgeError, SpecStore, Trip, spec_formula
from smartlot.tableaux import build_tree
from smartlot.worldgraph import GraphError

def kr55_store():
    store = SpecStore()
    store.insert("idKR55", parse("g2 -> F p018"), 7)
    store.insert("idKR55", parse("g2 -> F p015"), 2)
    return store


# -- A1 ----------------------------------------------------------------------


def test_a1_gate_detection_is_enter_for_absent_car():
    assert a1_detect(parking_fixture(), "g2", "idKR55") == ENTER


def test_a1_gate_detection_is_exit_for_present_car():
    g = parking_fixture().car_enters("idKR55", "g2")
    assert a1_detect(g, "g2", "idKR55") == EXIT


def test_a1_inner_detection_is_move():
    g = parking_fixture().car_enters("idKR55", "g2")
    assert a1_detect(g, "r4", "idKR55") == MOVE


def test_a1_rejects_inner_detection_of_absent_car():
    with pytest.raises(GraphError):
        a1_detect(parking_fixture(), "r4", "idKR55")


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


def count_searches(monkeypatch) -> list:
    """Formulas a3_decide runs the consequence search on, from now on."""
    import smartlot.agents

    searched = []
    real = smartlot.agents.consequences

    def counting(f):
        searched.append(f)
        return real(f)

    monkeypatch.setattr(smartlot.agents, "consequences", counting)
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
    assert searched == [spec_formula(kr55_store(), "idKR55", parse("g2"))]


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


def test_a3_reads_the_sorted_rows_once(monkeypatch):
    # spec_formula needs the sorted rows; the spot weights need no order
    calls = []
    real = SpecStore.triples

    def counting(self, user=None):
        calls.append(user)
        return real(self, user)

    monkeypatch.setattr(SpecStore, "triples", counting)
    decision, _ = a3_decide(kr55_store(), parking_fixture(), "idKR55", "g2")
    assert decision.candidates == (("p018", 7), ("p015", 2))
    assert calls == ["idKR55"]


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
    contradicted = spec_formula(store, "idKR55", parse("g2"))
    searched = count_searches(monkeypatch)
    _, removed = a3_decide(store, parking_fixture(), "idKR55", "g2")
    assert removed == [parse("G !g2")]
    # once on the contradicted spec, once on the repaired one
    assert searched.count(contradicted) == 1
    assert searched == [contradicted, spec_formula(store, "idKR55", parse("g2"))]


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
