import random
import re
from datetime import datetime

import pytest
from hypothesis import given, settings, strategies as st

from formula_gen import formula_corpus
from mined_referee import mined_closed_form
from smartlot import knowledge
from smartlot.fixtures import all_gates, all_spots
from smartlot.formulas import ATOM_RE, Atom, Formula, FormulaDepthError, FormulaSyntaxError, parse, pretty
from smartlot.knowledge import (
    KnowledgeError,
    SpecStore,
    SpecTriple,
    Trip,
    consult,
    infer_never_gates,
    mine_trip,
    parse_timestamp,
    read_events,
    retract_inconsistent,
    shape_key,
    spec_formula,
)
from smartlot.tableaux import UNSATISFIABLE, consequences, is_satisfiable
from smartlot.worldgraph import GraphError, WorldGraph, is_word, load_graph, save_graph


# -- timestamps --------------------------------------------------------------


def test_parse_timestamp_legacy():
    assert parse_timestamp("t2014.01.28.09.30.15") == datetime(2014, 1, 28, 9, 30, 15)


def test_parse_timestamp_iso():
    assert parse_timestamp("2014-01-28T09:30:15") == datetime(2014, 1, 28, 9, 30, 15)


def test_parse_timestamp_bad():
    with pytest.raises(KnowledgeError):
        parse_timestamp("yesterday")
    with pytest.raises(KnowledgeError, match="unparseable timestamp: 't2014.13.28.09.30.15'"):
        parse_timestamp("t2014.13.28.09.30.15")
    # a local time cannot be ordered against one with an offset
    for text in ("2014-01-28T09:30:15+01:00", "2014-01-28T09:30:15Z"):
        with pytest.raises(KnowledgeError, match="timestamp with a UTC offset"):
            parse_timestamp(text)


def test_parse_timestamp_legacy_takes_ascii_digits_only():
    # Arabic-Indic digits in the year, as the ISO form rejects them too
    for text in ("t\u0662\u0660\u0661\u0664.01.28.09.30.15", "\u0662\u0660\u0661\u0664-01-28T09:30:15"):
        with pytest.raises(KnowledgeError, match="unparseable timestamp"):
            parse_timestamp(text)


_LEGACY = re.compile(r"t([0-9]{4})\.([0-9]{2})\.([0-9]{2})\.([0-9]{2})\.([0-9]{2})\.([0-9]{2})")


def _strip_first(text):
    """The strip-first rule `parse_timestamp` reads by: strip the cell, then
    try the legacy form, then `fromisoformat`; no offset."""
    text = text.strip()
    legacy = _LEGACY.fullmatch(text) if text.startswith("t") else None
    try:
        timestamp = datetime(*map(int, legacy.groups())) if legacy else datetime.fromisoformat(text)
    except ValueError:
        raise KnowledgeError(f"unparseable timestamp: {text!r}") from None
    if timestamp.tzinfo is not None:
        raise KnowledgeError(f"timestamp with a UTC offset: {text!r}")
    return timestamp


_TIMESPECS = ["auto", "hours", "minutes", "seconds", "milliseconds", "microseconds"]


@st.composite
def _timestamp_cells(draw):
    """An ISO stamp (date only, or with a `T` or blank separator and any
    precision), a legacy stamp, an ISO stamp with a `+01:00` or `Z` offset,
    or garbage, each padded by spaces, tabs or no-break spaces."""
    moment = draw(st.datetimes())
    kind = draw(st.sampled_from(["iso", "date", "legacy", "offset", "garbage"]))
    if kind == "iso":
        cell = moment.isoformat(draw(st.sampled_from("T ")), draw(st.sampled_from(_TIMESPECS)))
    elif kind == "date":
        cell = moment.date().isoformat()
    elif kind == "legacy":
        cell = "t{:04d}.{:02d}.{:02d}.{:02d}.{:02d}.{:02d}".format(*moment.timetuple()[:6])
    elif kind == "offset":
        cell = moment.isoformat() + draw(st.sampled_from(["+01:00", "Z"]))
    else:
        cell = draw(st.text(max_size=24) | st.from_regex(r"t?[0-9T:.\- ]{1,26}", fullmatch=True))
    pad = st.text(st.sampled_from(" \t\u00a0"), max_size=3)
    return draw(pad) + cell + draw(pad)


@settings(max_examples=500)
@given(_timestamp_cells())
def test_parse_timestamp_reads_as_the_strip_first_rule(cell):
    try:
        expected = _strip_first(cell)
    except KnowledgeError as err:
        with pytest.raises(KnowledgeError) as got:
            parse_timestamp(cell)
        assert str(got.value) == str(err)
    else:
        assert parse_timestamp(cell) == expected


# -- event feed --------------------------------------------------------------


def test_from_csv_normalizes_node_ids():
    known = set(all_spots()) | set(all_gates())
    text = "idKR55,p0018,t2014.01.28.09.30.15\n\nidKR55, g02 ,2014-01-28T09:31:00\n"
    rows = read_events(text, known)
    assert list(rows) == [(1, "idKR55", "p018"), (3, "idKR55", "g2")]


def test_record_rejects_out_of_order():
    text = (
        "idKR55,g2,2014-01-28T09:30:00\n"
        "idWX11,g1,2014-01-28T09:29:00\n"  # other users are independent
        "idKR55,r4,2014-01-28T09:29:00\n"
    )
    rows = read_events(text, {"g1", "g2", "r4"})
    assert next(rows) == (1, "idKR55", "g2")
    assert next(rows) == (2, "idWX11", "g1")
    with pytest.raises(KnowledgeError, match="line 3: out-of-order timestamp for idKR55"):
        next(rows)


def test_from_csv_errors_carry_line_numbers():
    errors = [
        ("too,few\n", "line 1: expected user,node,timestamp"),
        ("u,g1,2014-01-28T09:30:00\nu,g1,2014-01-28T09:00:00\n", "line 2: out-of-order"),
        ("u,zz9,2014-01-28T09:30:00\n", "line 1: unknown node id 'zz9'"),
        ("u,g1,2014-01-28T09:30:00\n\nu,g1,yesterday\n", "line 3: unparseable timestamp"),
        ('u,g1,"2014-01-28T09:30:00\n"\nu,g1,yesterday\n', "line 3: unparseable timestamp"),
        ('u,g1,2014-01-28T09:30:00\n"v\nx",g1,2014-01-28T09:30:00\n', "line 2: bad user id"),
        # over csv.field_size_limit(), 131,072 characters by default
        ("u,g1,2014-01-28T09:30:00\nu,g1," + "x" * 140_000 + "\n", "line 2: field larger than field limit"),
    ]
    # a node id is read by its ASCII digits alone, of any number of them
    for node in ("g\u00b2", "g\u0661", "g" + "1" * 5000):
        errors.append((f"u,{node},2014-01-28T09:30:00\n", "line 1: unknown node id"))
    # a user id must fit one cell of the knowledge TSV
    for user in ("", " ", "u\tx", "u\nx", "u\rx", "u\u2028x"):
        errors.append((f'"{user}",g1,2014-01-28T09:30:00\n', "line 1: bad user id"))
    for text, error in errors:
        with pytest.raises(KnowledgeError, match=error):
            list(read_events(text, {"g1"}))


# -- spec store --------------------------------------------------------------


@pytest.mark.parametrize(
    "feed, line",
    [
        ("u,g1,2014-01-28T09:30:00\rv,g1,2014-01-28T09:31:00\n", 1),
        ("u,g1,2014-01-28T09:30:00\nu\rx,g1,2014-01-28T09:31:00\n", 2),
        # a row names the line it starts on
        ('u,g1,2014-01-28T09:30:00\n"v\nw",g1,2014-01-28T09:31:00\rx\n', 2),
    ],
    ids=["end-of-row", "in-a-cell", "after-a-quoted-cell"],
)
def test_read_events_names_a_lone_carriage_return(feed, line):
    with pytest.raises(KnowledgeError, match=rf"^line {line}: carriage return outside a quoted cell$"):
        list(read_events(feed, {"g1"}))


# user ids, and whether they are one word of a graph record (`is_word`);
# none starts or ends with a blank, which an event CSV strips
USER_IDS = {
    "u": True,
    "car0001": True,
    "-": True,
    "->x": True,
    "a=b": True,
    'a"b': True,
    "\u00fc": True,
    "": False,
    "a b": False,
    "a\u00a0b": False,
    "a\u3000b": False,
    "a#b": False,
    "a,b": False,
    "#": False,
    "->": False,
    "u\rx": False,
    "u\vx": False,
    "u\x1cx": False,
    "u\x85x": False,
    "u\u2028x": False,
}


@pytest.mark.parametrize("user", list(USER_IDS), ids=[ascii(user) for user in USER_IDS])
def test_a_car_a_feed_user_and_a_tsv_user_follow_one_id_rule(user):
    assert is_word(user) == USER_IDS[user]
    graph = WorldGraph()
    graph.add_node("g1", "G")
    cell = '"' + user.replace('"', '""') + '"'
    bad = f"line 1: bad user id {user!r}: not one word of a graph record"
    readers = [
        (GraphError, f"not one word of a graph record: {user!r}", lambda: graph.enter(user, "g1")),
        (KnowledgeError, bad, lambda: list(read_events(f"{cell},g1,2014-01-28T09:30:00\n", {"g1"}))),
        (KnowledgeError, bad, lambda: SpecStore.from_tsv(f"{user}\tg1 -> F p1\t1\n")),
    ]
    for error, message, read in readers:
        if USER_IDS[user]:
            read()
        else:
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                read()
    assert (graph.car_position(user) == "g1") == USER_IDS[user]


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
            store.remove(user, store.facts(f))
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
    [(fa, ra)] = store.rows("a")
    [(fb, rb)] = store.rows("b")
    assert fa is fb and (ra, rb) == (2, 3)
    facts = store.facts(parse("g2 -> F p018"))
    assert facts is fa and facts.text == "g2 -> F p018"
    assert facts.atoms == {"g2", "p018"} and facts.spots == {"p018"}
    [(scaled, r)] = store.scale(2).rows("a")
    assert scaled is fa and r == 4
    assert SpecStore().proofs == {} and store.scale(2).proofs == {}


@pytest.mark.parametrize(
    "text, spots",
    [
        ("g2 -> F p018", {"p018"}),
        ("G !g2", set()),
        ("!G !p011", {"p011"}),
        ("g3 -> !F p011", set()),
        # G !p010 & F G !p012 and F !p011 in normal form: an F over a
        # negated spot promises only that it is free some time
        ("!(F p010 | G F p012)", set()),
        ("F !p011", set()),
    ],
)
def test_spots_are_read_from_negation_normal_form(text, spots):
    assert SpecStore().facts(parse(text)).spots == spots


def test_to_tsv_prints_each_formula_text_once(monkeypatch):
    # a formula keeps its text once printed (`Formula.__str__`), and the
    # store keys its facts by that text
    import smartlot.formulas

    printed = []
    real = smartlot.formulas.pretty

    def counting(f):
        printed.append(f)
        return real(f)

    monkeypatch.setattr(smartlot.formulas, "pretty", counting)
    formulas = {text: parse(text) for text in ("g2 -> F p018", "G !g3")}
    store = SpecStore()
    for user in ("a", "b", "c"):
        for text in ("g2 -> F p018", "g2 -> F p018", "G !g3"):
            store.upsert(user, formulas[text])
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
    with pytest.raises(FormulaDepthError, match="line 1: nesting deeper than"):
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
    # a count cell holds ASCII digits only, though int() reads all but the
    # superscript
    for r in ("\u0663", "\u00b3", " 3", "+3", "1_0"):
        with pytest.raises(KnowledgeError, match=f"line 1: count must be a positive integer: {re.escape(repr(r))}"):
            SpecStore.from_tsv(f"u\tG !g3\t{r}\n")
    with pytest.raises(KnowledgeError, match="line 2: bad user id ''"):
        SpecStore.from_tsv("u\tg1 -> F p1\t3\n\tg1 -> F p1\t3\n")
    # two texts of one formula are one row; the second would overwrite the first
    with pytest.raises(
        KnowledgeError, match=re.escape("line 2: duplicate row for u: g1 -> F p1 (first on line 1)")
    ):
        SpecStore.from_tsv("u\tg1 -> F p1\t3\nu\t(g1 -> F p1)\t5\n")
    assert len(SpecStore.from_tsv("u\tg1 -> F p1\t3\nv\t(g1 -> F p1)\t5\n")) == 2
    with pytest.raises(FormulaSyntaxError, match="line 2: unexpected end of input at offset 2") as err:
        SpecStore.from_tsv("u\tg1 -> F p1\t3\nu\t(a\t1\n")
    assert err.type is FormulaSyntaxError and err.value.offset == 2


# -- mining ------------------------------------------------------------------


def test_mine_parked_trip():
    trip = Trip("idKR55", "g2", parked_spot="p018", exit_gate="g2")
    assert mine_trip(trip) == [parse("g2 -> F p018")]


def test_mine_shares_one_formula_per_gate_and_spot():
    first = mine_trip(Trip("a", "g2", parked_spot="p018", exit_gate="g2"))
    second = mine_trip(Trip("b", "g2", parked_spot="p018", exit_gate="g1"))
    assert first[0] is second[0]
    assert mine_trip(Trip("a", "g1", parked_spot="p018"))[0] != first[0]


def test_mine_pass_through_trip():
    assert mine_trip(Trip("idKR55", "g2", exit_gate="g1")) == []


def test_mine_requires_gate():
    with pytest.raises(KnowledgeError):
        mine_trip(Trip("idKR55", ""))


def test_infer_never_gates():
    store = SpecStore()
    used = {"g1", "g2"}
    gates = {"g1", "g2", "g3"}
    added = infer_never_gates(store, "u", 3, used, gates)
    assert added == [parse("G !g3")]
    assert store.contains("u", parse("G !g3"))
    # idempotent, and silent on any trip but the third
    assert infer_never_gates(store, "u", 3, used, gates) == []
    for count in (2, 4):
        assert infer_never_gates(SpecStore(), "u", count, used, gates) == []


def test_never_gates_share_one_formula_per_gate():
    # G !g3 is one object wherever it is asserted, so a store finds it by
    # identity
    stores = [SpecStore(), SpecStore()]
    for store, user in zip(stores, ("a", "b")):
        assert infer_never_gates(store, user, 3, {"g1", "g2"}, {"g1", "g2", "g3"}) == [parse("G !g3")]
    [a] = stores[0].triples("a")
    [b] = stores[1].triples("b")
    assert a.formula is b.formula


def count_formula_hashes(monkeypatch) -> list:
    """Python-level Formula.__hash__ calls from now on."""
    calls = []
    real = Formula.__hash__

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Formula, "__hash__", counting)
    return calls


def test_interning_hashes_no_formula(monkeypatch):
    # the store keys its facts by formula text: interning a formula it has
    # not seen hashes a string, not the formula
    store = SpecStore()
    calls = count_formula_hashes(monkeypatch)
    added = infer_never_gates(store, "u", 3, {"g1"}, {"g1", "g2", "g3"})
    assert added == [parse("G !g2"), parse("G !g3")] and calls == []
    assert sorted(facts.text for facts, _ in store.rows("u")) == ["G !g2", "G !g3"]


def test_never_gates_hash_each_formula_once(monkeypatch):
    # a gate's G !gate is interned when the first user asserts it; every
    # later user's assertion looks it up once, to insert it if absent
    store = SpecStore()
    gates = set(all_gates())
    infer_never_gates(store, "first", 3, {"g1"}, gates)
    calls = count_formula_hashes(monkeypatch)
    added = infer_never_gates(store, "u", 3, {"g1"}, gates)
    assert len(added) == len(gates) - 1
    assert len(calls) <= len(added)
    # asserting them again adds nothing, at one lookup per gate
    calls.clear()
    assert infer_never_gates(store, "u", 3, {"g1"}, gates) == []
    assert len(calls) <= len(added)


def test_insert_if_absent_keeps_an_existing_row():
    store = SpecStore()
    store.insert("u", parse("G !g3"), 2)
    assert not store.insert_if_absent("u", parse("G !g3"))
    assert store.insert_if_absent("u", parse("G !g2"))
    assert store.triples("u") == [SpecTriple("u", parse("G !g3"), 2), SpecTriple("u", parse("G !g2"), 1)]


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
    found, removed = consult(store, "idKR55", parse("g3"))
    assert removed == [parse("G !g3")]
    assert not store.contains("idKR55", parse("G !g3"))
    assert store.contains("idKR55", parse("g2 -> F p018"))
    # the repaired spec g3 & (g2 -> F p018) is searched once more
    assert found == {"p018"}


def test_resolve_removes_every_offender():
    store = SpecStore()
    store.insert("u", parse("G !g3"), 4)
    store.insert("u", parse("G !g3 | G !g3"), 1)
    found, removed = consult(store, "u", parse("g3"))
    assert set(removed) == {parse("G !g3"), parse("G !g3 | G !g3")}
    assert len(store) == 0
    assert found == set()


def test_retraction_follows_the_row_order_and_hashes_no_formula(monkeypatch):
    store = SpecStore()
    for text, r in [("G !g3", 1), ("g2 -> F p018", 7), ("G !g3 | G !g3", 4), ("G (!g3 & p1)", 4)]:
        store.insert("u", parse(text), r)
    offenders = [t.formula for t in store.triples("u") if pretty(t.formula) != "g2 -> F p018"]
    calls = count_formula_hashes(monkeypatch)
    removed = retract_inconsistent(store, "u", parse("g3"))
    assert removed == offenders and calls == []
    assert store.triples("u") == [SpecTriple("u", parse("g2 -> F p018"), 7)]


def test_a_second_user_with_the_same_rows_is_retracted_without_a_proof(monkeypatch):
    store = SpecStore()
    rows = [("G !g3", 1), ("g2 -> F p018", 7), ("G !g3 | G !g3", 4), ("G (!g3 & p1)", 4)]
    for user in ("u", "v"):
        for text, r in rows:
            store.insert(user, parse(text), r)
    proved = []
    search = knowledge.consequences

    def counting(*parts):
        proved.append(parts)
        return search(*parts)

    monkeypatch.setattr(knowledge, "consequences", counting)
    offenders = [t.formula for t in store.triples("u") if pretty(t.formula) != "g2 -> F p018"]
    assert retract_inconsistent(store, "u", parse("g3")) == offenders
    # one search per pair, as no two of them have one shape
    assert len(proved) == len(store.proof_shapes) == len(rows)
    assert store.proofs == {}
    # the same rows at the same gate: every verdict comes from the store
    assert retract_inconsistent(store, "v", parse("g3")) == offenders
    assert len(proved) == len(rows)
    assert store.triples("v") == [SpecTriple("v", parse("g2 -> F p018"), 7)]
    # at another gate, g1 and G !g1 are g3 and G !g3 renamed, and each pair
    # is one proved before up to that renaming: no proof either
    store.insert("v", parse("G !g1"), 2)
    assert retract_inconsistent(store, "v", parse("g1")) == [parse("G !g1")]
    assert len(proved) == len(rows)
    # a pair of a new shape is proved
    store.insert("v", parse("G !g1 | F g2"), 1)
    assert retract_inconsistent(store, "v", parse("g1")) == []
    assert len(proved) == len(store.proof_shapes) == len(rows) + 1


def test_resolve_consistent_spec_removes_nothing():
    store = SpecStore()
    store.insert("u", parse("g2 -> F p018"), 1)
    assert consult(store, "u", parse("g2")) == ({"p018"}, [])
    assert store.contains("u", parse("g2 -> F p018")) and len(store) == 1


def test_retraction_on_a_consistent_store_logs_nothing(caplog):
    # the joint-only warning is consult's, which knows the search closed
    store = SpecStore()
    store.insert("u", parse("g2 -> F p018"), 1)
    with caplog.at_level("WARNING"):
        assert retract_inconsistent(store, "u", parse("g2")) == []
    assert caplog.records == []
    assert len(store) == 1


def test_resolve_joint_only_warns(caplog):
    store = SpecStore()
    store.insert("u", parse("F p1 -> !g2"), 1)
    store.insert("u", parse("F p1"), 1)
    combined = spec_formula(store, "u", parse("g2"))
    assert is_satisfiable(combined) == UNSATISFIABLE
    with caplog.at_level("WARNING"):
        found, removed = consult(store, "u", parse("g2"))
    assert (found, removed) == (None, [])
    assert len(store) == 2
    assert any("joint-only" in r.message for r in caplog.records)


DIFF_USERS = ["u1", "u2", "u3"]
DIFF_GATES = ["g1", "g2"]
DIFF_FORMULAS = [f"{g} -> F {s}" for g in DIFF_GATES for s in ("p1", "p2")] + [f"G !{g}" for g in DIFF_GATES]
DIFF_STEP = st.one_of(
    st.tuples(st.just("upsert"), st.sampled_from(DIFF_USERS), st.sampled_from(DIFF_FORMULAS)),
    st.tuples(st.just("insert"), st.sampled_from(DIFF_USERS), st.sampled_from(DIFF_FORMULAS), st.integers(1, 3)),
    st.tuples(st.just("remove"), st.sampled_from(DIFF_USERS), st.sampled_from(DIFF_FORMULAS)),
    st.tuples(st.just("scale"), st.integers(1, 3)),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(DIFF_STEP, st.sampled_from(DIFF_USERS), st.sampled_from(DIFF_GATES)), max_size=20))
def test_memo_agrees_with_an_uncached_search(steps):
    # every formula is parsed afresh, so equal formulas reach the store as
    # distinct objects; the memo, keyed by the store's interned facts, must
    # answer as a fresh store that searches every specification does
    store = SpecStore()
    for step, user, gate in steps:
        op, *args = step
        if op == "scale":
            store = store.scale(args[0])
        elif op == "remove":
            if store.contains(args[0], parse(args[1])):
                store.remove(args[0], store.facts(parse(args[1])))
        else:
            getattr(store, op)(args[0], parse(args[1]), *args[2:])
        fresh = SpecStore.from_tsv(store.to_tsv())
        expected = consequences(spec_formula(fresh, user, Atom(gate)))
        removed = []
        if expected is None:
            removed = retract_inconsistent(fresh, user, Atom(gate))
            expected = consequences(spec_formula(fresh, user, Atom(gate)))
        assert consult(store, user, Atom(gate)) == (expected, removed)
        assert store.to_tsv() == fresh.to_tsv()


# -- referees that name no implementation ------------------------------------

MINED_USERS = ["u0", "u1", "u2"]
MINED_GATES = ["g1", "g2", "g3", "g4"]
MINED_STEP = st.one_of(
    st.tuples(st.just("prefer"), st.sampled_from(MINED_USERS), st.sampled_from(MINED_GATES),
              st.sampled_from(["p1", "p2", "p3", "p4", "p5"])),
    st.tuples(st.just("never"), st.sampled_from(MINED_USERS), st.sampled_from(MINED_GATES)),
    st.tuples(st.just("arrive"), st.sampled_from(MINED_USERS), st.sampled_from(MINED_GATES)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(MINED_STEP, min_size=20, max_size=80))
def test_consult_on_a_mined_store_is_its_closed_form(steps):
    # rows as mining makes them: upserted preferences and never-gates; the
    # store, and so its memos, lives across all of an example's arrivals
    store = SpecStore()
    for op, user, gate, *spot in steps:
        if op == "prefer":
            store.upsert(user, parse(f"{gate} -> F {spot[0]}"))
        elif op == "never":
            store.insert_if_absent(user, parse(f"G !{gate}"))
        else:
            expected = mined_closed_form(store, user, gate)
            assert consult(store, user, Atom(gate)) == expected


# rows mining never makes, over three atoms so that shapes repeat
RETRACTION_FORMS = [
    "{0}", "!{0}", "G !{0}", "{0} -> F {1}", "G (!{0} & {1})", "F {0} & G !{0}",
    "{0} -> F {1} | G {2}", "F ({0} & !{1})", "G ({0} | {1})", "!{0} | F {1}",
]
RETRACTION_ROW = st.builds(
    lambda form, names: parse(form.format(*names)),
    st.sampled_from(RETRACTION_FORMS),
    st.lists(st.sampled_from(["a", "b", "c"]), min_size=3, max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.tuples(st.lists(st.tuples(RETRACTION_ROW, st.integers(1, 3)), max_size=4), RETRACTION_ROW),
    min_size=10, max_size=20,
))
def test_retraction_removes_exactly_the_rows_a_fresh_proof_refutes(rounds):
    # each round adds rows to u and to a new user, searches the new user's
    # specification under the observation (filling the shape memo with
    # specifications), then retracts from u; the memos stay warm across
    # rounds, and each verdict is checked against a proof of the pair alone
    store = SpecStore()
    for i, (rows, observation) in enumerate(rounds):
        for row, r in rows:
            store.insert("u", row, r)
            store.insert(f"v{i}", row, r)
        consult(store, f"v{i}", observation)
        offenders = [t.formula for t in store.triples("u") if is_satisfiable(observation, t.formula) == UNSATISFIABLE]
        assert retract_inconsistent(store, "u", observation) == offenders
        assert not any(store.contains("u", f) for f in offenders)


# -- the shape memo -----------------------------------------------------------


def renamed(f: Formula, rho: dict[str, str]) -> Formula:
    """f with each atom a renamed to rho[a], read back from its text."""
    return parse(ATOM_RE.sub(lambda m: rho[m.group()], pretty(f)))


# the corpus atoms p, q, r, s go to four distinct names drawn from these, so
# a renaming may also permute them
RENAME_POOL = ["p", "q", "r", "s", "g1", "g2", "p018", "x", "aF2"]
SHAPE_CORPUS = formula_corpus(seed=31, count=200)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, len(SHAPE_CORPUS) - 1), min_size=1, max_size=3),
    st.lists(st.sampled_from(RENAME_POOL), min_size=4, max_size=4, unique=True),
    st.randoms(use_true_random=False),
)
def test_the_prover_commutes_with_a_renaming_of_atoms(indices, targets, rng):
    # the premise of the shape memos: for a one-to-one renaming rho,
    # consequences(rho . parts) == rho(consequences(parts)) in any order of
    # the parts, and the verdicts agree
    parts = [SHAPE_CORPUS[i] for i in indices]
    rho = dict(zip("pqrs", targets))
    moved = [renamed(f, rho) for f in parts]
    rng.shuffle(moved)
    found = consequences(*parts)
    assert consequences(*moved) == (None if found is None else {rho[a] for a in found})
    assert is_satisfiable(*moved) == is_satisfiable(*parts)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, len(SHAPE_CORPUS) - 1), min_size=1, max_size=3, unique=True),
    st.lists(st.sampled_from(RENAME_POOL), min_size=4, max_size=4, unique=True),
    st.sampled_from("pqrs"),
)
def test_a_renamed_specification_takes_the_renamed_answer(indices, targets, seen):
    # u holds corpus formulas, v the same renamed; v's arrival reads u's
    # answer from the shape memo, renamed back, and must get what a store
    # with no memo computes
    rho = dict(zip("pqrs", targets))
    store = SpecStore()
    for i in indices:
        store.insert("u", SHAPE_CORPUS[i], 1)
        store.insert("v", renamed(SHAPE_CORPUS[i], rho), 1)
    consult(store, "u", Atom(seen))
    fresh = SpecStore.from_tsv(store.to_tsv())
    assert consult(store, "v", Atom(rho[seen])) == consult(fresh, "v", Atom(rho[seen]))


MINED_GATES = ["g1", "g2", "g3"]
MINED_SPOTS = ["p1", "p2", "p3", "p4"]
MINED_ROWS = [f"{g} -> F {s}" for g in MINED_GATES for s in MINED_SPOTS] + [f"G !{g}" for g in MINED_GATES]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["u1", "u2", "u3", "u4"]), st.sampled_from(MINED_ROWS), st.integers(1, 4)),
        max_size=24,
    ),
    st.lists(st.tuples(st.sampled_from(["u1", "u2", "u3", "u4"]), st.sampled_from(MINED_GATES)), max_size=12),
)
def test_shape_memo_answers_as_a_search_on_random_mined_stores(rows, arrivals):
    # users of one store share answers up to renaming; each answer, and each
    # retraction, must be what a store of that user alone computes afresh
    store = SpecStore()
    for user, text, r in rows:
        store.insert(user, parse(text), r)
    for user, gate in arrivals:
        alone = SpecStore.from_tsv("".join(f"{user}\t{t.formula}\t{t.r}\n" for t in store.triples(user)))
        expected = consequences(*knowledge.spec_conjuncts(alone, user, Atom(gate)))
        removed = []
        if expected is None:
            removed = retract_inconsistent(alone, user, Atom(gate))
            expected = consequences(*knowledge.spec_conjuncts(alone, user, Atom(gate)))
        assert consult(store, user, Atom(gate)) == (expected, removed)
        assert store.to_tsv().count(f"{user}\t") == len(alone)


SHAPE_POOL = ["a", "b", "c", "d"]
SHAPE_FORMS = ["{0}", "G !{0}", "{0} -> F {1}", "{0} & {1} -> F {0}", "F ({0} | {1})", "{0} -> F {1} | G {2}"]


@st.composite
def shaped_parts(draw, names):
    """A list of one to four formulas over `names`, from the forms above."""
    out = []
    for _ in range(draw(st.integers(1, 4))):
        form = draw(st.sampled_from(SHAPE_FORMS))
        out.append(parse(form.format(*(draw(st.sampled_from(names)) for _ in range(3)))))
    return out


def key_of(store: SpecStore, parts: list[Formula]):
    return shape_key([store.facts(f) for f in parts])


@settings(max_examples=300, deadline=None)
@given(
    shaped_parts(SHAPE_POOL),
    st.lists(st.sampled_from(["a", "b", "c", "d", "g1", "p018"]), min_size=4, max_size=4, unique=True),
    st.data(),
)
def test_equal_shape_keys_map_the_texts_onto_each_other(parts, targets, data):
    store = SpecStore()
    rho = dict(zip(SHAPE_POOL, targets))
    # a renamed list in the same order always gets the same key
    assert key_of(store, parts)[0] == key_of(store, [renamed(f, rho) for f in parts])[0]
    # another list, a fresh draw or the renamed copy reordered: an equal key
    # must come with a one-to-one map of the first list's atoms onto the
    # other's that carries its texts onto the other's
    other = data.draw(st.one_of(
        shaped_parts(SHAPE_POOL),
        st.permutations([renamed(f, rho) for f in parts]),
    ))
    (key, numbers), (other_key, other_numbers) = key_of(store, parts), key_of(store, other)
    if key == other_key:
        mapping = dict(zip(numbers, other_numbers))
        assert len(set(mapping.values())) == len(mapping)
        assert sorted(pretty(renamed(f, mapping)) for f in parts) == sorted(map(pretty, other))


@pytest.mark.parametrize(
    "first, second, same",
    [
        (["a -> F b", "c -> F d"], ["a -> F b", "a -> F d"], False),
        (["a -> F b", "a -> F d"], ["c -> F d", "c -> F b"], True),
        (["g1", "g1 -> F p020", "g1 -> F p005"], ["g2", "g2 -> F p018", "g2 -> F p015"], True),
        (["g1", "g2 -> F p020"], ["g1", "g1 -> F p020"], False),
        (["a & b"], ["a & a"], False),
        (["a & b & a"], ["a & b & b"], False),
        (["G !g1"], ["G !g1 | G !g1"], False),
    ],
)
def test_shape_keys_of_examples(first, second, same):
    store = SpecStore()
    assert (key_of(store, map(parse, first))[0] == key_of(store, map(parse, second))[0]) is same


def test_one_proof_per_shape_and_one_clash_proof_per_pair_shape(monkeypatch):
    searched = []
    search = knowledge.consequences
    monkeypatch.setattr(knowledge, "consequences", lambda *p: searched.append(p) or search(*p))
    store = SpecStore()
    spots = all_spots()
    for i, gate in enumerate(["g1", "g2", "g3"]):
        store.insert(f"u{i}", parse(f"{gate} -> F {spots[2 * i]}"), 2)
        store.insert(f"u{i}", parse(f"{gate} -> F {spots[2 * i + 1]}"), 1)
    for i, gate in enumerate(["g1", "g2", "g3"]):
        assert consult(store, f"u{i}", Atom(gate)) == ({spots[2 * i], spots[2 * i + 1]}, [])
    assert len(searched) == 1 and len(store.proofs) == 3 and len(store.proof_shapes) == 1
    # a never-gate at the arrival gate: one search that closes, one search
    # per pair shape (the two preferences share one), and the spec left is
    # the first one, an exact hit
    for i, gate in enumerate(["g1", "g2", "g3"]):
        store.insert(f"u{i}", parse(f"G !{gate}"), 1)
        assert consult(store, f"u{i}", Atom(gate)) == ({spots[2 * i], spots[2 * i + 1]}, [parse(f"G !{gate}")])
    assert len(searched) == 4 and len(store.proof_shapes) == 4
    assert [len(parts) for parts in searched] == [3, 4, 2, 2]


def test_spec_and_pair_shapes_share_one_memo_entry(monkeypatch):
    # the specification g1 & g1 -> F p1 and the retraction pair (g2, g2 -> F
    # p2) have one key, and both store their consequences under it
    searched = []
    search = knowledge.consequences
    monkeypatch.setattr(knowledge, "consequences", lambda *p: searched.append(p) or search(*p))
    store = SpecStore()
    store.insert("u", parse("g1 -> F p1"), 1)
    assert consult(store, "u", Atom("g1")) == ({"p1"}, [])
    [entry] = store.proof_shapes.items()
    store.insert("v", parse("g2 -> F p2"), 2)
    store.insert("v", parse("G !g2"), 1)
    assert consult(store, "v", Atom("g2")) == ({"p2"}, [parse("G !g2")])
    assert store.contains("v", parse("g2 -> F p2"))
    # u's spec, v's spec that closes and the pair (g2, G !g2) are searched;
    # the pair (g2, g2 -> F p2) and the repaired spec read u's entry
    assert searched == [
        (parse("g1"), parse("g1 -> F p1")),
        (parse("G !g2"), parse("g2"), parse("g2 -> F p2")),
        (parse("G !g2"), parse("g2")),
    ]
    assert entry in store.proof_shapes.items() and len(store.proof_shapes) == 3
    # the other way round: the pair (g3, G !g3 | F p3) is searched, and the
    # repaired spec of its shape reads its entry
    store.insert("w", parse("G !g3 | F p3"), 1)
    store.insert("w", parse("G !g3"), 1)
    searched.clear()
    assert consult(store, "w", Atom("g3")) == ({"p3"}, [parse("G !g3")])
    assert searched == [(parse("G !g3"), parse("g3"), parse("G !g3 | F p3")), (parse("g3"), parse("G !g3 | F p3"))]


def test_triples_are_frozen():
    t = SpecTriple("u", parse("p"), 1)
    with pytest.raises(AttributeError):
        t.r = 2


# -- fuzzed input files ------------------------------------------------------

# ASCII digits and digits str.isdigit also accepts: superscript two,
# Arabic-Indic one and eight, fullwidth one
FUZZ_DIGITS = "0123456789\u00b2\u0661\u0668\uff11"
OVERSIZED = "x" * 140_000  # over csv.field_size_limit(), 131,072 by default
FUZZ_NODE_IDS = st.one_of(
    st.builds(str.__add__, st.sampled_from(["g", "p", "r", "c", ""]), st.text(FUZZ_DIGITS, max_size=4)),
    st.just("p" + "1" * 5000),  # past int()'s 4,300-digit limit
)


def assert_names_a_line(err: Exception, text: str) -> None:
    found = re.match(r"line (\d+): ", str(err))
    assert found, err
    assert 1 <= int(found[1]) <= text.count("\n")


# well-formed `k=v` attributes: an empty key or value, a value holding `=`
FUZZ_ATTRS = st.lists(st.sampled_from(["zone=north", "len=", "=4", "k=a=b", "z=\u00b2"]), max_size=2)


@st.composite
def fuzz_lot(draw):
    """A graph file, in any record order, of nodes with ids such as `p0\u00b2`
    or `r\u0661` and attributes, road edges between places, `at` edges out
    of cars (maybe two out of one) to any node, and comments.  At most one
    record is broken: a node gets the unknown label X, or a record gets an
    attribute with no `=` or an arrow that makes it an edge record."""
    ids = st.one_of(st.sampled_from(["g1", "r1", "p1", "p2", "c1", "c2"]), FUZZ_NODE_IDS)
    labeled = st.tuples(ids, st.sampled_from("GRPC"))
    nodes = draw(st.lists(labeled, min_size=2, max_size=6, unique_by=lambda node: node[0]))
    ids = [node for node, _ in nodes]
    cars = [node for node, label in nodes if label == "C"]
    places = [node for node, label in nodes if label != "C"] or ids
    records = [[node, label, *draw(FUZZ_ATTRS)] for node, label in nodes]
    for _ in range(draw(st.integers(0, 3))):
        ends = draw(st.sampled_from(places)), draw(st.sampled_from(places))
        records.append([ends[0], "->", ends[1], "road", *draw(FUZZ_ATTRS)])
    # with no car in the lot, at most one at edge, out of a node that is none
    for _ in range(draw(st.integers(0, 2 if cars else 1))):
        dst = draw(st.sampled_from(places) | st.sampled_from(ids))
        records.append([draw(st.sampled_from(cars or ids)), "->", dst, "at", *draw(st.just([]) | FUZZ_ATTRS)])
    fault = draw(st.one_of(st.none(), st.sampled_from(["X", "north", "->"])))
    if fault:
        broken = draw(st.sampled_from(records))
        if fault == "X" and "->" not in broken:
            broken[1] = fault
        else:
            broken.append(fault)
    lines = [" ".join(record) for record in records] + ["# a comment -> at"] * draw(st.integers(0, 1))
    comments = st.sampled_from(["", " # x -> y at", "# k=v"])
    return ids, "".join(f"{line}{draw(comments)}\n" for line in draw(st.permutations(lines)))


@st.composite
def fuzz_feed(draw, ids):
    """Rows of three cells naming the lot's nodes or others, with at most one
    cell replaced by an oversized one, a bad user id or an earlier timestamp."""
    rows = []
    for minute in range(draw(st.integers(0, 6))):
        node = draw(st.one_of(st.sampled_from(ids), FUZZ_NODE_IDS))
        rows.append([draw(st.sampled_from(["u", "v"])), node, f"2014-01-28T08:{minute:02d}:00"])
    column, value = draw(
        st.sampled_from([(None, None), (0, ""), (0, "u\tx"), (1, OVERSIZED), (2, OVERSIZED), (2, "2014-01-28T07:00:00")])
    )
    if rows and column is not None:
        draw(st.sampled_from(rows))[column] = value
    return "".join(",".join(row) + "\n" for row in rows)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fuzzed_feed_fails_only_with_a_declared_error_naming_its_line(data):
    ids, graph_text = data.draw(fuzz_lot())
    feed = data.draw(fuzz_feed(ids))
    try:
        graph = load_graph(graph_text)
    except GraphError as err:
        assert_names_a_line(err, graph_text)
        return
    try:
        rows = list(read_events(feed, graph.labels))
    except KnowledgeError as err:
        assert_names_a_line(err, feed)
        return
    assert all(node in graph.labels for _, _, node in rows)


@settings(max_examples=300, deadline=None)
@given(fuzz_lot())
def test_fuzzed_lot_fails_only_with_a_declared_error_naming_its_line_or_round_trips(lot):
    _, text = lot
    try:
        graph = load_graph(text)
    except GraphError as err:
        assert_names_a_line(err, text)
        return
    assert load_graph(save_graph(graph)) == graph


# ids, labels, keys and values: maybe empty or `->`, or holding a space, a
# tab, U+0085, `#` or `=`
FUZZ_WORDS = st.just("->") | st.text(st.sampled_from(["p", "1", " ", "\t", "\x85", "#", "="]), max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_built_lot_round_trips_whatever_the_builder_accepts(data):
    """Each node or edge the builder is asked for is either refused with a
    GraphError, leaving the graph as it was, or written back by save_graph."""
    g = WorldGraph()
    attrs = st.dictionaries(FUZZ_WORDS, FUZZ_WORDS, max_size=2)
    for _ in range(data.draw(st.integers(1, 5))):
        before = g.copy()
        try:
            g.add_node(data.draw(FUZZ_WORDS), data.draw(st.sampled_from("GRPC")), data.draw(attrs))
        except GraphError:
            assert g == before
    nodes = sorted(g.labels)
    for _ in range(data.draw(st.integers(0, 4)) if nodes else 0):
        src, dst = data.draw(st.sampled_from(nodes)), data.draw(st.sampled_from(nodes))
        before = g.copy()
        try:
            g.add_edge(src, dst, data.draw(FUZZ_WORDS | st.sampled_from(["road", "at"])), data.draw(attrs))
        except GraphError:
            assert g == before
    assert load_graph(save_graph(g)) == g


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["u", "v", ""]),
            st.one_of(
                st.sampled_from(["g1 -> F p018", "G !g3", "(a", "a &", "!" * 1200 + "a", OVERSIZED]),
                FUZZ_NODE_IDS,
            ),
            st.sampled_from(["1", "3", "0", "-2", "x"]),
        ),
        max_size=5,
    )
)
def test_fuzzed_knowledge_tsv_fails_only_with_a_declared_error_naming_its_line(rows):
    text = "".join("\t".join(cells) + "\n" for cells in rows)
    try:
        store = SpecStore.from_tsv(text)
    except (KnowledgeError, FormulaSyntaxError) as err:
        assert_names_a_line(err, text)
        return
    for triple in store.triples():
        assert is_word(triple.user)
