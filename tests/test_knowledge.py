import random
from datetime import datetime

import pytest

from smartlot.fixtures import all_gates, all_spots
from smartlot.formulas import FormulaSyntaxError, parse, pretty
from smartlot.knowledge import (
    EventLog,
    EventRecord,
    KnowledgeError,
    SpecStore,
    SpecTriple,
    Trip,
    infer_never_gates,
    mine_trip,
    parse_timestamp,
    resolve_contradiction,
    spec_formula,
)


def ev(user, node, iso):
    return EventRecord(user, node, datetime.fromisoformat(iso))


# -- timestamps --------------------------------------------------------------


def test_parse_timestamp_legacy():
    assert parse_timestamp("t2014.01.28.09.30.15") == datetime(2014, 1, 28, 9, 30, 15)


def test_parse_timestamp_iso():
    assert parse_timestamp("2014-01-28T09:30:15") == datetime(2014, 1, 28, 9, 30, 15)


def test_parse_timestamp_bad():
    with pytest.raises(KnowledgeError):
        parse_timestamp("yesterday")


# -- event log ---------------------------------------------------------------


def test_record_and_filter():
    log = EventLog()
    log.record(ev("idKR55", "g2", "2014-01-28T09:30:00"))
    log.record(ev("idWX11", "g1", "2014-01-28T09:30:05"))
    log.record(ev("idKR55", "p018", "2014-01-28T09:31:00"))
    assert [e.node for e in log.for_user("idKR55")] == ["g2", "p018"]


def test_record_rejects_out_of_order():
    log = EventLog()
    log.record(ev("idKR55", "g2", "2014-01-28T09:30:00"))
    with pytest.raises(KnowledgeError, match="out-of-order"):
        log.record(ev("idKR55", "r4", "2014-01-28T09:29:00"))
    # other users are independent
    log.record(ev("idWX11", "g1", "2014-01-28T09:29:00"))


def test_csv_round_trip():
    log = EventLog()
    log.record(ev("idKR55", "g2", "2014-01-28T09:30:00"))
    log.record(ev("idKR55", "p018", "2014-01-28T09:31:00"))
    again = EventLog.from_csv(log.to_csv())
    assert again.events == log.events


def test_from_csv_normalizes_node_ids():
    known = set(all_spots()) | set(all_gates())
    log = EventLog.from_csv("idKR55,p0018,t2014.01.28.09.30.15\n", known)
    assert log.events == [
        EventRecord("idKR55", "p018", datetime(2014, 1, 28, 9, 30, 15))
    ]


def test_from_csv_errors_carry_line_numbers():
    with pytest.raises(KnowledgeError, match="line 1"):
        EventLog.from_csv("too,few\n")
    with pytest.raises(KnowledgeError, match="line 2"):
        EventLog.from_csv("u,g1,2014-01-28T09:30:00\nu,r1,2014-01-28T09:00:00\n")
    with pytest.raises(KnowledgeError, match="line 1: unknown node"):
        EventLog.from_csv("u,zz9,2014-01-28T09:30:00\n", {"g1"})


# -- spec store --------------------------------------------------------------


def test_upsert_counts():
    store = SpecStore()
    f = parse("g2 -> F p018")
    assert store.upsert("idKR55", f) == 1
    assert store.upsert("idKR55", f) == 2
    assert store.upsert("idWX11", f) == 1  # per-user key


def test_triples_ordering():
    store = SpecStore()
    store.insert("idKR55", parse("g2 -> F p018"), 7)
    store.insert("idKR55", parse("g2 -> F p015"), 2)
    store.insert("idKR55", parse("G !g3"), 2)
    assert [(pretty(t.formula), t.r) for t in store.triples("idKR55")] == [
        ("g2 -> F p018", 7),
        ("G !g3", 2),
        ("g2 -> F p015", 2),
    ]


def test_triples_match_a_global_sort():
    rng = random.Random(11)
    users = ["u1", "u2", "u3"]
    formulas = [parse(t) for t in ("g1 -> F p1", "g2 -> F p2", "G !g3", "g1 -> F p2", "p1")]
    store = SpecStore()
    counts = {}
    for _ in range(600):
        user, f = rng.choice(users), rng.choice(formulas)
        op = rng.choice(("upsert", "insert", "remove"))
        if op == "upsert":
            counts[(user, f)] = store.upsert(user, f)
        elif op == "insert":
            counts[(user, f)] = rng.randrange(1, 4)
            store.insert(user, f, counts[(user, f)])
        elif (user, f) in counts:
            store.remove(user, f)
            del counts[(user, f)]
        expected = sorted(
            (SpecTriple(u, f, r) for (u, f), r in counts.items()),
            key=lambda t: (t.user, -t.r, pretty(t.formula)),
        )
        assert store.triples() == expected
        assert store.triples(user) == [t for t in expected if t.user == user]
        assert store.contains(user, f) == ((user, f) in counts)
        assert len(store) == len(counts)
    assert store.triples("nobody") == []


def test_rows_share_one_canonical_formula_and_its_facts():
    store = SpecStore()
    store.upsert("a", parse("g2 -> F p018"))
    store.insert("b", parse("g2 -> F p018"), 3)
    store.upsert("a", parse("g2 -> F p018"))
    [(fa, ra)] = store.counts("a")
    [(fb, rb)] = store.counts("b")
    assert fa is fb and (ra, rb) == (2, 3)
    facts = store.facts(fa)
    assert facts.formula is fa and facts.text == "g2 -> F p018"
    assert facts.atoms == {"g2", "p018"} and facts.spots == {"p018"}
    [(scaled, r)] = store.scale(2).counts("a")
    assert scaled is fa and r == 4
    assert SpecStore().proofs == {} and store.scale(2).proofs == {}


def test_to_tsv_prints_each_formula_text_once(monkeypatch):
    import smartlot.knowledge

    printed = []
    real = smartlot.knowledge.pretty

    def counting(f):
        printed.append(f)
        return real(f)

    monkeypatch.setattr(smartlot.knowledge, "pretty", counting)
    store = SpecStore()
    for user in ("a", "b", "c"):
        for text in ("g2 -> F p018", "g2 -> F p018", "G !g3"):
            store.upsert(user, parse(text))
    assert len(printed) <= 2  # one per distinct formula, when it is stored
    printed.clear()
    tsv = store.to_tsv()
    assert printed == []
    assert tsv.splitlines()[:2] == ["a\tg2 -> F p018\t2", "a\tG !g3\t1"]


def test_insert_validates_count():
    with pytest.raises(KnowledgeError):
        SpecStore().insert("u", parse("p"), 0)


def test_scale_preserves_order():
    store = SpecStore()
    store.insert("u", parse("g2 -> F p018"), 7)
    store.insert("u", parse("g2 -> F p015"), 2)
    scaled = store.scale(10)
    assert [t.r for t in scaled.triples("u")] == [70, 20]
    assert [t.r for t in store.triples("u")] == [7, 2]  # original intact
    with pytest.raises(KnowledgeError):
        store.scale(0)


def test_tsv_round_trip():
    store = SpecStore()
    store.insert("idKR55", parse("g2 -> F p018"), 7)
    store.insert("idKR55", parse("G !g3"), 1)
    again = SpecStore.from_tsv(store.to_tsv())
    assert again.triples() == store.triples()


def test_from_tsv_too_deep_formula():
    with pytest.raises(FormulaSyntaxError, match="nesting deeper than"):
        SpecStore.from_tsv("u\t" + "!" * 1200 + "a\t1\n")


@pytest.mark.parametrize("n", [500, 5000])
def test_from_tsv_long_chain_round_trips(n):
    # storing a formula hashes and compares it; a flat chain is as deep as
    # it is long
    chain = " | ".join(f"a{i}" for i in range(n))
    text = f"u\t{chain}\t2\nu\tg1 -> F p1\t1\n"
    store = SpecStore.from_tsv(text)
    assert store.to_tsv() == text
    assert SpecStore.from_tsv(store.to_tsv()).to_tsv() == text


def test_from_tsv_bad_line():
    with pytest.raises(KnowledgeError, match="line 1"):
        SpecStore.from_tsv("only two\tfields\n")
    with pytest.raises(KnowledgeError, match="line 2: count must be a positive integer"):
        SpecStore.from_tsv("u\tg1 -> F p1\t3\nu\tg1 -> F p1\tabc\n")
    with pytest.raises(KnowledgeError, match="line 1: count must be a positive integer"):
        SpecStore.from_tsv("u\tg1 -> F p1\t0\n")


# -- mining ------------------------------------------------------------------


def test_mine_parked_trip():
    trip = Trip("idKR55", "g2", parked_spot="p018", exit_gate="g2")
    assert mine_trip(trip) == [parse("g2 -> F p018")]


def test_mine_pass_through_trip():
    assert mine_trip(Trip("idKR55", "g2", exit_gate="g1")) == []


def test_mine_requires_gate():
    with pytest.raises(KnowledgeError):
        mine_trip(Trip("idKR55", ""))


def test_infer_never_gates():
    store = SpecStore()
    used = {"g1", "g2"}
    gates = {"g1", "g2", "g3"}
    added = infer_never_gates(store, "u", 3, used, threshold=3, gates=gates)
    assert added == [parse("G !g3")]
    assert store.contains("u", parse("G !g3"))
    # idempotent, and silent below the threshold
    assert infer_never_gates(store, "u", 3, used, 3, gates) == []
    assert infer_never_gates(SpecStore(), "u", 2, used, 3, gates) == []


# -- specification assembly --------------------------------------------------


def test_spec_formula_never_gate_case():
    store = SpecStore()
    store.insert("idKR55", parse("G !g3"), 1)
    combined = spec_formula(store, "idKR55", parse("g3"))
    assert pretty(combined) == "G !g3 & g3"


def test_spec_formula_preference_case():
    store = SpecStore()
    store.insert("idKR55", parse("g2 -> F p010"), 1)
    combined = spec_formula(store, "idKR55", parse("g2"))
    assert pretty(combined) == "g2 & (g2 -> F p010)"


def test_spec_formula_two_preferences():
    store = SpecStore()
    store.insert("idKR55", parse("g2 -> F p018"), 7)
    store.insert("idKR55", parse("g2 -> F p015"), 2)
    combined = spec_formula(store, "idKR55", parse("g2"))
    assert pretty(combined) == "g2 & (g2 -> F p018) & (g2 -> F p015)"


def test_spec_formula_filters_unrelated():
    store = SpecStore()
    store.insert("idKR55", parse("g1"), 5)  # no shared atom, no eventually
    combined = spec_formula(store, "idKR55", parse("g2"))
    assert pretty(combined) == "g2"


# -- contradiction resolution ------------------------------------------------


def test_resolve_removes_never_gate():
    store = SpecStore()
    store.insert("idKR55", parse("G !g3"), 1)
    store.insert("idKR55", parse("g2 -> F p018"), 7)
    removed = resolve_contradiction(store, "idKR55", parse("g3"))
    assert removed == [parse("G !g3")]
    assert not store.contains("idKR55", parse("G !g3"))
    assert store.contains("idKR55", parse("g2 -> F p018"))


def test_resolve_removes_every_offender():
    store = SpecStore()
    store.insert("u", parse("G !g3"), 4)
    store.insert("u", parse("G !g3 | G !g3"), 1)
    removed = resolve_contradiction(store, "u", parse("g3"))
    assert set(removed) == {parse("G !g3"), parse("G !g3 | G !g3")}
    assert len(store) == 0


def test_resolve_requires_contradiction():
    store = SpecStore()
    store.insert("u", parse("g2 -> F p018"), 1)
    with pytest.raises(KnowledgeError, match="no contradiction"):
        resolve_contradiction(store, "u", parse("g2"))


def test_resolve_joint_only_warns(caplog):
    store = SpecStore()
    store.insert("u", parse("F p1 -> !g2"), 1)
    store.insert("u", parse("F p1"), 1)
    combined = spec_formula(store, "u", parse("g2"))
    from smartlot.tableaux import UNSATISFIABLE, is_satisfiable

    assert is_satisfiable(combined) == UNSATISFIABLE
    with caplog.at_level("WARNING"):
        removed = resolve_contradiction(store, "u", parse("g2"))
    assert removed == []
    assert len(store) == 2
    assert any("joint-only" in r.message for r in caplog.records)


def test_triples_are_frozen():
    t = SpecTriple("u", parse("p"), 1)
    with pytest.raises(AttributeError):
        t.r = 2
