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
from smartlot.fixtures import parking_fixture
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


def test_a3_builds_one_tree_on_a_consistent_spec(monkeypatch):
    import smartlot.agents
    import smartlot.tableaux

    built = []
    real = smartlot.tableaux.build_tree

    def counting(f):
        built.append(f)
        return real(f)

    # both bindings; the verdicts build no tree, so they are not counted
    monkeypatch.setattr(smartlot.tableaux, "build_tree", counting)
    monkeypatch.setattr(smartlot.agents, "build_tree", counting)
    decision, removed = a3_decide(kr55_store(), parking_fixture(), "idKR55", "g2")
    assert (decision.suggestion, removed) == ("p018", [])
    assert len(built) == 1


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
    import smartlot.agents
    import smartlot.tableaux

    store = kr55_store()
    store.insert("idKR55", parse("G !g2"), 1)
    contradicted = spec_formula(store, "idKR55", parse("g2"))
    built = []
    real = smartlot.tableaux.build_tree

    def counting(f):
        built.append(f)
        return real(f)

    monkeypatch.setattr(smartlot.tableaux, "build_tree", counting)
    monkeypatch.setattr(smartlot.agents, "build_tree", counting)
    _, removed = a3_decide(store, parking_fixture(), "idKR55", "g2")
    assert removed == [parse("G !g2")]
    assert built.count(contradicted) == 1


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
