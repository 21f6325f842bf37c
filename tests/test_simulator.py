import functools
import hashlib
import importlib.util
import re
from collections import deque
from datetime import datetime
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mined_referee import mined_closed_form
from smartlot.agents import DecisionConfig
from smartlot.fixtures import all_gates, parking_fixture
from smartlot.formulas import Always, parse
from smartlot.knowledge import KnowledgeError, SpecStore, read_events
from smartlot.simulator import (
    Detection,
    Scenario,
    ScenarioError,
    TimelineBuilder,
    _route,
    demo_scenario,
    generate,
    never_gate_scenario,
    parse_scenario,
    run,
    serialize_report,
    serialize_scenario,
)
from smartlot.worldgraph import GraphError, WorldGraph, load_graph, save_graph

T0 = datetime(2014, 1, 28, 8, 0, 0)


# -- the worked story --------------------------------------------------------


# sha256 of serialize_report(run(...)) as first recorded; the demo run ends
# with three cars inside, so its `graph:` section lists three `at` edges
PINNED_REPORTS = {
    "generated": (
        lambda: generate(1, 200, 4, 0.5),
        "f989b6ff196f843da65e37d8dfd6592e4659d05d79d74ec716554fceaab3c968",
    ),
    "demo-occupied": (
        lambda: demo_scenario(occupied=("p018", "p015")),
        "e93934d5351b5ed2d47bc0ca74aad73ec706d9d21091826dc20009508c3a63aa",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_report_is_pinned(name):
    make, digest = PINNED_REPORTS[name]
    text = serialize_report(run(make()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    if name == "demo-occupied":
        at_edges = [line for line in text.splitlines() if line.endswith(" at")]
        assert at_edges == ["  blocker1 -> p018 at", "  blocker2 -> p015 at", "  idKR55 -> g2 at"]


def test_demo_builds_preference_counts():
    report = run(demo_scenario())
    triples = report.final_store.triples("idKR55")
    by_formula = {t.formula: t.r for t in triples}
    assert by_formula[parse("g2 -> F p018")] == 7
    assert by_formula[parse("g2 -> F p015")] == 2
    assert report.stats.trips == 9


def test_demo_final_decision_prefers_p018():
    report = run(demo_scenario())
    last = report.decisions[-1]
    assert (last.user, last.gate) == ("idKR55", "g2")
    assert last.suggestion == "p018"
    assert last.rationale == "Preferred"


def test_demo_occupied_falls_back():
    report = run(demo_scenario(occupied=("p018",)))
    last = report.decisions[-1]
    assert last.suggestion == "p015"
    assert last.rationale == "FallbackCandidate"


def test_demo_both_occupied():
    report = run(demo_scenario(occupied=("p018", "p015")))
    last = report.decisions[-1]
    assert last.suggestion is None
    assert last.rationale == "NoSuggestion"


def test_demo_both_occupied_nearest_fallback():
    scenario = demo_scenario(
        occupied=("p018", "p015"), config=DecisionConfig(fallback_nearest=True)
    )
    report = run(scenario)
    last = report.decisions[-1]
    assert last.rationale == "NearestFree"
    assert last.suggestion is not None
    assert report.final_graph.is_free(last.suggestion)


def test_never_gate_contradiction():
    report = run(never_gate_scenario())
    assert report.stats.contradictions_resolved == 1
    assert not report.final_store.contains("idKR55", parse("G !g3"))
    # the mined preferences survive the resolution
    assert report.final_store.contains("idKR55", parse("g2 -> F p018"))
    assert report.final_store.contains("idKR55", parse("g1 -> F p010"))


def record_lookups(monkeypatch) -> list:
    """The formulas that `SpecStore.insert_if_absent` is asked about, in
    order: the one lookup of each never-gate."""
    looked_up = []
    real = SpecStore.insert_if_absent

    def counting(self, user, formula):
        looked_up.append(formula)
        return real(self, user, formula)

    monkeypatch.setattr(SpecStore, "insert_if_absent", counting)
    return looked_up


def test_never_gates_looked_up_once_for_a_user_who_reuses_one_gate(monkeypatch):
    graph = parking_fixture()
    b = TimelineBuilder(graph, T0)
    for _ in range(12):
        b.trip("idKR55", "g2", "p018")
    looked_up = record_lookups(monkeypatch)
    report = run(Scenario(graph, b.detections))
    never = [parse(f"G !{g}") for g in all_gates() if g != "g2"]
    # once, on the third trip; the later trips add no gate
    assert looked_up == never
    assert [t.formula for t in report.final_store.triples() if isinstance(t.formula, Always)] == never


def test_never_gates_not_looked_up_again_after_a_retraction(monkeypatch):
    graph = parking_fixture()
    b = TimelineBuilder(graph, T0)
    for _ in range(3):
        b.trip("idKR55", "g2", "p018")
    b.trip("idKR55", "g1", "p018")
    looked_up = record_lookups(monkeypatch)
    report = run(Scenario(graph, b.detections))
    # the fourth trip enters by g1, which retracts `G !g1`; g3 stays unused
    # and is not looked up again
    assert looked_up == [parse("G !g1"), parse("G !g3")]
    assert report.stats.contradictions_resolved == 1
    assert [t.formula for t in report.final_store.triples() if isinstance(t.formula, Always)] == [parse("G !g3")]


# -- mechanics ---------------------------------------------------------------


def test_empty_timeline():
    report = run(Scenario(parking_fixture(), []))
    assert report.decisions == []
    assert report.stats.trips == 0
    assert report.final_graph == parking_fixture()


def test_cars_in_graph_match_followers():
    scenario = demo_scenario(occupied=("p012",))
    report = run(scenario)
    cars = report.final_graph.nodes_with_label("C")
    assert len(cars) == report.followers_alive
    # idKR55 re-entered at the end and blocker1 never left
    assert cars == ["blocker1", "idKR55"]


def test_suggestions_followed_counted():
    b_scenario = demo_scenario()
    timeline = list(b_scenario.timeline)
    # append a full final trip so the pending entry completes at p018
    from smartlot.simulator import TimelineBuilder, _route

    graph = b_scenario.graph
    last_ts = timeline[-1].timestamp
    b = TimelineBuilder(graph, last_ts)
    b.tick("idKR55", "g2")
    for node in _route(graph, "g2", "p018")[1:]:
        b.tick("idKR55", node)
    for node in _route(graph, "p018", "g2")[1:]:
        b.tick("idKR55", node)
    report = run(Scenario(graph, timeline[:-1] + b.detections))
    assert report.stats.trips == 10
    assert report.stats.suggestions_followed >= 1


def test_unsorted_timeline_rejected():
    g = parking_fixture()
    timeline = [
        Detection(datetime(2014, 1, 28, 9, 0, 0), "u", "g1"),
        Detection(datetime(2014, 1, 28, 8, 0, 0), "u", "g1"),
    ]
    with pytest.raises(ScenarioError, match="not sorted"):
        run(Scenario(g, timeline))


def test_unknown_node_rejected():
    with pytest.raises(ScenarioError, match="unknown node"):
        run(Scenario(parking_fixture(), [Detection(T0, "u", "zz")]))


@pytest.mark.parametrize(
    "user",
    ["", "u\tx", "u\nx", "u\x1cx", "a b", "a#b"],
    ids=["empty", "tab", "newline", "separator", "space", "hash"],
)
def test_user_id_that_does_not_fit_a_tsv_cell_rejected(user):
    with pytest.raises(GraphError, match=f"^not one word of a graph record: {re.escape(repr(user))}$"):
        run(Scenario(parking_fixture(), [Detection(T0, user, "g1")]))


@pytest.mark.parametrize(
    "user, message",
    [("a,b", "not one word of a graph record: 'a,b'"), ("r4", "car id names a node of the lot: r4")],
)
def test_a_user_that_could_not_be_written_back_stops_the_run_at_its_line(user, message):
    # a comma would split the user's timeline cell; r4 is a road of the lot
    scenario = parse_scenario(serialize_scenario(demo_scenario()))
    renamed = [Detection(d.timestamp, user, d.node, d.line) for d in scenario.timeline]
    with pytest.raises(GraphError, match=f"^line 101: {re.escape(message)}$"):
        run(Scenario(scenario.graph, renamed))


def test_gate_detection_of_a_car_the_graph_holds_is_an_entry():
    # the followers see no open trip, so this is an entry, which the graph
    # refuses for a car it already holds
    graph = parking_fixture().car_enters("c1", "g2").car_moves("c1", "p010")
    with pytest.raises(GraphError, match="car already present: c1"):
        run(Scenario(graph, [Detection(T0, "c1", "g1")]))


@pytest.mark.parametrize("users", [1, 4, 12])
def test_run_copies_the_graph_once_and_leaves_the_scenario_alone(users, monkeypatch):
    # read back from its text, so that each detection carries its line
    scenario = parse_scenario(serialize_scenario(generate(3, users, 3, 0.5)))
    before = save_graph(scenario.graph)
    rows = [(d.timestamp, d.user, d.node, d.line) for d in scenario.timeline]
    copies = []
    original = WorldGraph.copy

    def counted(self):
        copies.append(self)
        return original(self)

    monkeypatch.setattr(WorldGraph, "copy", counted)
    report = run(scenario)
    assert len(copies) == 1 and copies[0] is scenario.graph
    assert save_graph(scenario.graph) == before
    assert [(d.timestamp, d.user, d.node, d.line) for d in scenario.timeline] == rows
    assert report.final_graph is not scenario.graph
    assert report.stats.trips == users * 3


def test_run_walks_the_timeline_once():
    class Timeline(list):
        walks = 0

        def __iter__(self):
            self.walks += 1
            return super().__iter__()

    scenario = generate(seed=3, users=4, trips_per_user=3, spot_affinity=0.5)
    scenario.timeline = Timeline(scenario.timeline)
    run(scenario)
    assert scenario.timeline.walks == 1


# a two-spot lot, with a car parked at p1 or, in the last graph, two (line 14)
FUZZ_LOT = (
    "g1 G\nr1 R\np1 P\np2 P\ng1 -> r1 road\nr1 -> g1 road\n"
    "r1 -> p1 road\np1 -> r1 road\nr1 -> p2 road\np2 -> r1 road\n"
)
FUZZ_CARS = ["", "c0 C\nc0 -> p1 at\n", "c0 C\nc9 C\nc0 -> p1 at\nc9 -> p1 at\n"]


@st.composite
def fuzz_rows(draw):
    """Timeline rows in which users u, v and w enter at g1, move about the
    lot competing for its spots and leave, with at most one cell replaced:
    an earlier or offset timestamp, a user id that is empty, holds a tab, a
    space, a no-break space or `#` or names a node or the parked car, or an
    unknown node or a car as node."""
    rows, inside = [], set()
    for minute in range(draw(st.integers(0, 16))):
        user = draw(st.sampled_from(["u", "v", "w"]))
        node = draw(st.sampled_from(["r1", "p1", "p2", "g1"])) if user in inside else "g1"
        if node == "g1":
            inside ^= {user}
        rows.append([f"2014-01-28T08:{20 + minute:02d}:00", user, node])
    column, value = draw(
        st.sampled_from(
            [
                (None, None),
                (0, "2014-01-28T08:00:00"),
                (0, "2014-01-28T08:59:00+01:00"),
                (1, ""),
                (1, "u\tx"),
                (1, "a b"),
                (1, "a\u00a0b"),
                (1, "a#b"),
                (1, "g1"),
                (1, "c0"),
                (2, "zz"),
                (2, "c0"),
            ]
        )
    )
    if rows and column is not None:
        draw(st.sampled_from(rows))[column] = value
    return [",".join(row) + "\n" for row in rows]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FUZZ_CARS), fuzz_rows())
def test_fuzzed_scenario_fails_only_with_a_declared_error_naming_its_line(cars, rows):
    graph = FUZZ_LOT + cars
    first = graph.count("\n") + 2  # the line of the first timeline row
    try:
        report = run(parse_scenario(graph + "timeline:\n" + "".join(rows)))
    except (ScenarioError, KnowledgeError, GraphError) as err:
        found = re.match(r"line (\d+): ", str(err))
        assert found, err
        if "c9" in cars:
            assert str(err) == "line 14: parking place occupied: p1"
        else:
            assert first <= int(found[1]) < first + len(rows)
        return
    # the report's last section is the final graph, each record indented
    section = serialize_report(report).split("\ngraph:\n", 1)[1]
    assert load_graph(section.replace("\n  ", "\n").removeprefix("  ")) == report.final_graph


def edge_scan_route(graph, start, goal):
    """Breadth-first route that rescans the sorted edge list at every node."""
    prev = {start: start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if node == goal:
            path = [node]
            while node != start:
                node = prev[node]
                path.append(node)
            return list(reversed(path))
        for (src, dst), lab in sorted(graph.edges.items()):
            if src == node and lab != "at" and dst not in prev:
                prev[dst] = node
                queue.append(dst)
    return None


def test_routes_match_the_edge_scan():
    graph = parking_fixture().car_enters("c1", "g1").car_moves("c1", "r2")
    nodes = sorted(n for n in graph.labels if graph.labels[n] != "C")
    for start in nodes:
        for goal in nodes:
            expected = edge_scan_route(graph, start, goal)
            if expected is None:
                with pytest.raises(ScenarioError, match="no route"):
                    _route(graph, start, goal)
            else:
                assert _route(graph, start, goal) == expected
    # one successor map serves every route on the graph
    assert graph._roads is graph.road_successors()


# -- scenario text format ----------------------------------------------------


def test_scenario_round_trip():
    scenario = never_gate_scenario()
    again = parse_scenario(serialize_scenario(scenario))
    assert again.graph == scenario.graph
    assert again.timeline == scenario.timeline


def test_parse_scenario_requires_timeline():
    with pytest.raises(ScenarioError, match="timeline"):
        parse_scenario("a R\n")


def test_timeline_line_takes_a_comment():
    s = parse_scenario("g1 G  # the gate\ntimeline:  # detections\n2014-01-28T09:30:15,u1,g1  # in\n")
    assert s.timeline == [Detection(datetime(2014, 1, 28, 9, 30, 15), "u1", "g1")]
    # a commented-out section line is no section
    with pytest.raises(ScenarioError, match="no `timeline:` section"):
        parse_scenario("g1 G\n# timeline:\n")


def test_parse_scenario_line_errors():
    for rows, message in [
        ("not-enough-fields\n", "line 3: expected timestamp,user,node"),
        ("whenever,u,g1\n", "line 3: unparseable timestamp: 'whenever'"),
        ("2014-01-28T08:00:00,u\n", "line 3: expected timestamp,user,node"),
        ("2014-01-28T08:00:00,u,g1,x\n", "line 3: expected timestamp,user,node"),
        ("2014-01-28T08:00:00,u,g1,\n", "line 3: expected timestamp,user,node"),
        ("2014-01-28T08:00:00,u,g1\n# note\nwhenever,u,g1\n", "line 5: unparseable timestamp: 'whenever'"),
        ("2014-01-28T08:00:00+01:00,u,g1\n", "line 3: timestamp with a UTC offset: '2014-01-28T08:00:00+01:00'"),
        (
            "2014-01-28T08:00:00,u,g1\n\n  # c\n 2014-01-28T08:00:01 ,u\t# x\n",
            "line 6: expected timestamp,user,node",
        ),
    ]:
        with pytest.raises(ScenarioError) as err:
            parse_scenario("g1 G\ntimeline:\n" + rows)
        assert str(err.value) == message


# One timeline row's cells in scenario order, after the row
# 2014-01-28T08:00:00,u,g1; then, as first recorded, what `parse_scenario`
# reads of the row (its detections' stamp, user, node and line, or the error)
# and what `read_events` reads of the same cells as a feed row,
# user,node,timestamp (its rows, or the error)
ROW_TABLE = {
    "tab-padded stamp": (
        ["\t2014-01-28T08:00:05", "u", "g1"],
        [("2014-01-28T08:00:05", "u", "g1", 5)],
        [(2, "u", "g1")],
    ),
    "tab-padded cells": (
        ["2014-01-28T08:00:05\t", "\tu\t", "\tg1\t"],
        [("2014-01-28T08:00:05", "u", "g1", 5)],
        [(2, "u", "g1")],
    ),
    "no-break spaces": (
        ["\u00a02014-01-28T08:00:05\u00a0", "u", "g1"],
        [("2014-01-28T08:00:05", "u", "g1", 5)],
        [(2, "u", "g1")],
    ),
    "trailing note": (
        ["2014-01-28T08:00:05", "u", "g1  # note"],
        [("2014-01-28T08:00:05", "u", "g1", 5)],
        "line 2: unknown node id 'g1  # note'",
    ),
    "comma in a note": (
        ["2014-01-28T08:00:05", "u", "g1 # a, b"],
        [("2014-01-28T08:00:05", "u", "g1", 5)],
        "line 2: expected user,node,timestamp",
    ),
    "hash only": (["#"], [], "line 2: expected user,node,timestamp"),
    "whitespace only": ([" \t "], [], "line 2: expected user,node,timestamp"),
    "two cells": (
        ["2014-01-28T08:00:05", "u"],
        "line 5: expected timestamp,user,node",
        "line 2: expected user,node,timestamp",
    ),
    "four cells": (
        ["2014-01-28T08:00:05", "u", "g1", "r1"],
        "line 5: expected timestamp,user,node",
        "line 2: expected user,node,timestamp",
    ),
    "legacy stamp": (
        ["t2014.01.28.09.30.15", "u", "g1"],
        [("2014-01-28T09:30:15", "u", "g1", 5)],
        [(2, "u", "g1")],
    ),
    "padded legacy stamp": (
        [" t2014.01.28.09.30.15\t", "u", "g1"],
        [("2014-01-28T09:30:15", "u", "g1", 5)],
        [(2, "u", "g1")],
    ),
    "offset": (
        ["2014-01-28T08:00:05+01:00", "u", "g1"],
        "line 5: timestamp with a UTC offset: '2014-01-28T08:00:05+01:00'",
        "line 2: timestamp with a UTC offset: '2014-01-28T08:00:05+01:00'",
    ),
    "padded offset": (
        ["\t2014-01-28T08:00:05Z ", "u", "g1"],
        "line 5: timestamp with a UTC offset: '2014-01-28T08:00:05Z'",
        "line 2: timestamp with a UTC offset: '2014-01-28T08:00:05Z'",
    ),
    "padded garbage": (
        [" whenever ", "u", "g1"],
        "line 5: unparseable timestamp: 'whenever'",
        "line 2: unparseable timestamp: 'whenever'",
    ),
}


@pytest.mark.parametrize("name", list(ROW_TABLE))
def test_both_readers_read_a_row_as_pinned(name):
    cells, detections, rows = ROW_TABLE[name]
    scenario = f"g1 G\nr1 R\ntimeline:\n2014-01-28T08:00:00,u,g1\n{','.join(cells)}\n"
    try:
        got = [(d.timestamp.isoformat(), d.user, d.node, d.line) for d in parse_scenario(scenario).timeline[1:]]
    except ScenarioError as err:
        got = str(err)
    assert got == detections
    feed = f"u,g1,2014-01-28T08:00:00\n{','.join(cells[1:] + cells[:1])}\n"
    try:
        got = list(read_events(feed, {"g1", "r1"}))[1:]
    except KnowledgeError as err:
        got = str(err)
    assert got == rows


def _padded(text: str) -> str:
    """The scenario with blanks or a tab around every timeline cell, a
    comment after every row, and a blank line and a comment-only line every
    100 rows."""
    graph, timeline = text.split("timeline:\n", 1)
    out = [graph, "timeline:\n"]
    for n, row in enumerate(timeline.splitlines(), 1):
        ts, user, node = row.split(",")
        out.append(f" {ts}\t,\t{user}  , {node}\t # row {n}\n")
        if n % 100 == 0:
            out.append("\n  # a comment-only line\n")
    return "".join(out)


def _legacy_commented(text: str) -> str:
    """The scenario with each timeline stamp in the legacy form
    t2014.01.28.06.00.00 and a comment holding a comma after every row."""
    graph, timeline = text.split("timeline:\n", 1)
    out = [graph, "timeline:\n"]
    for n, row in enumerate(timeline.splitlines(), 1):
        ts, user, node = row.split(",")
        stamp = "t" + ts.replace("-", ".").replace("T", ".").replace(":", ".")
        out.append(f"{stamp},{user},{node} # row {n}, {ts}\n")
    return "".join(out)


def _rush_text() -> str:
    # perfbench is no package, so its input generator is loaded from its file
    path = Path(__file__).parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.rush_scenario_text(1, drivers=240, trips_per_driver=5)


@functools.cache
def _fleet_text() -> str:
    return serialize_scenario(generate(1, 800, 4, 0.5))


# sha256 over (timestamp, user, node, line) of each parsed detection, as first
# recorded: the benchmark's seed-1 fleet and rush texts, a CRLF copy, a
# padded copy and a legacy-stamped, commented copy of the fleet text
PINNED_TIMELINES = {
    "fleet": (_fleet_text, "e8088e3aef3c3582c6cb66c51be3f7e017421de0aeb20a0ba0c15ee03ba63eb4"),
    "fleet-crlf": (
        lambda: _fleet_text().replace("\n", "\r\n"),
        "e8088e3aef3c3582c6cb66c51be3f7e017421de0aeb20a0ba0c15ee03ba63eb4",
    ),
    "fleet-padded": (
        lambda: _padded(_fleet_text()),
        "e10f3b94808741c15aff80cc1c1c1105bccb9f75bd84f8452aaefc4cd9a8aeba",
    ),
    "fleet-legacy-commented": (
        lambda: _legacy_commented(_fleet_text()),
        "e8088e3aef3c3582c6cb66c51be3f7e017421de0aeb20a0ba0c15ee03ba63eb4",
    ),
    "rush": (_rush_text, "f0ac7b7f5895817f5b54d3ce99aeb634bcc2ac6c9412dea9675a1000296c5b71"),
}


@pytest.mark.parametrize("name", sorted(PINNED_TIMELINES))
def test_parsed_timeline_is_pinned(name):
    make, digest = PINNED_TIMELINES[name]
    h = hashlib.sha256()
    for d in parse_scenario(make()).timeline:
        h.update(f"{d.timestamp.isoformat()}\t{d.user}\t{d.node}\t{d.line}\n".encode())
    assert h.hexdigest() == digest


# sha256 over (user, gate, suggestion, candidates, rationale) of each decision
# of the benchmark's seed-1 fleet and rush runs, as first recorded: the report
# prints only the suggestion's r, this pins the whole ranking
PINNED_DECISIONS = {
    "fleet": (
        _fleet_text,
        DecisionConfig(),
        "0e9a7c619a4a7377f7cdde9905cdfa5959abb25b6c6d6692a301d557063d2532",
    ),
    "rush": (
        _rush_text,
        DecisionConfig(fallback_nearest=True),
        "bfab331833a9d9ad1a0652b5e1d0a7143e727a6403097da9d6e20c60fb576e6f",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_DECISIONS))
def test_decision_records_are_pinned(name):
    make, config, digest = PINNED_DECISIONS[name]
    h = hashlib.sha256()
    for d in run(parse_scenario(make(), config)).decisions:
        h.update(f"{d.user}\t{d.gate}\t{d.suggestion}\t{d.candidates}\t{d.rationale}\n".encode())
    assert h.hexdigest() == digest


# consequence searches of the benchmark's seed-1 fleet and rush runs: one
# per shape of conjunction the store proves, a specification or a
# retraction's (observation, row) pair, where exact keys took 832 and 773
# searches and 278 clash proofs
PINNED_EFFORT = {"fleet": 4, "rush": 42}


@pytest.mark.parametrize("name", sorted(PINNED_EFFORT))
def test_search_effort_is_pinned(name, monkeypatch):
    import smartlot.knowledge
    import smartlot.tableaux

    # every expansion the run makes, and those a consequence search makes:
    # equal counts mean no clash proof or other prover call
    searches, expansions = [], []
    search, expand = smartlot.knowledge.consequences, smartlot.tableaux._expand
    monkeypatch.setattr(smartlot.knowledge, "consequences", lambda *p: searches.append(p) or search(*p))
    monkeypatch.setattr(smartlot.tableaux, "_expand", lambda *a: expansions.append(a) or expand(*a))
    make, config, _ = PINNED_DECISIONS[name]
    report = run(parse_scenario(make(), config))
    assert len(searches) == len(expansions) == PINNED_EFFORT[name]
    assert len(report.decisions) == {"fleet": 3200, "rush": 1200}[name]


# decisions of the seed-1 fleet and rush runs whose arrival contradicts a
# never-gate the driver holds
CONTRADICTED = {"fleet": 0, "rush": 110}


@pytest.mark.parametrize("name", sorted(PINNED_DECISIONS))
def test_seed_1_decisions_keep_the_mined_closed_form(name, monkeypatch):
    import smartlot.agents

    real = smartlot.agents.consult
    answers = []

    def refereed(store, user, observation):
        expected = mined_closed_form(store, user, observation.name)
        answers.append(real(store, user, observation))
        assert answers[-1] == expected, (user, observation)
        return answers[-1]

    monkeypatch.setattr(smartlot.agents, "consult", refereed)
    make, config, _ = PINNED_DECISIONS[name]
    run(parse_scenario(make(), config))
    assert len(answers) == {"fleet": 3200, "rush": 1200}[name]
    assert sum(bool(removed) for _, removed in answers) == CONTRADICTED[name]


def test_parse_scenario_accepts_legacy_timestamps():
    s = parse_scenario("g1 G\ntimeline:\nt2014.01.28.09.30.15,idKR55,g1\n")
    assert s.timeline == [Detection(datetime(2014, 1, 28, 9, 30, 15), "idKR55", "g1")]


# -- determinism -------------------------------------------------------------


def test_report_serialization_deterministic():
    a = serialize_report(run(demo_scenario(occupied=("p018",))))
    b = serialize_report(run(demo_scenario(occupied=("p018",))))
    assert a == b
    assert a.encode() == b.encode()


def test_generated_scenario_deterministic():
    s1 = generate(seed=99, users=4, trips_per_user=3, spot_affinity=0.8)
    s2 = generate(seed=99, users=4, trips_per_user=3, spot_affinity=0.8)
    assert serialize_scenario(s1) == serialize_scenario(s2)
    assert serialize_report(run(s1)) == serialize_report(run(s2))


def test_generated_scenario_runs_clean():
    report = run(generate(seed=5, users=3, trips_per_user=4, spot_affinity=1.0))
    assert report.stats.trips == 12
    assert report.followers_alive == 0
    assert report.final_graph.nodes_with_label("C") == []
    # full affinity means each user's favorite dominates the store
    for user in ("car001", "car002", "car003"):
        assert report.final_store.triples(user)[0].r == 4


def test_generate_validates_params():
    with pytest.raises(ScenarioError):
        generate(seed=1, users=0, trips_per_user=1, spot_affinity=0.5)
    with pytest.raises(ScenarioError):
        generate(seed=1, users=1, trips_per_user=0, spot_affinity=0.5)
    with pytest.raises(ScenarioError):
        generate(seed=1, users=1, trips_per_user=1, spot_affinity=1.5)


def test_report_sections():
    text = serialize_report(run(demo_scenario()))
    assert text.index("decisions:") < text.index("store:") < text.index("stats:") < text.index("graph:")
    assert "  idKR55 @ g2: suggest p018 (Preferred, r=7)" in text
    assert "  idKR55\tg2 -> F p018\t7" in text
