import hashlib
import io
import os
import subprocess
import sys
from datetime import datetime, timedelta
from pathlib import Path

import pytest

from formula_gen import formula_corpus
from smartlot import cli, knowledge
from smartlot.cli import main
from smartlot.fixtures import parking_fixture, parking_fixture_text
from smartlot.formulas import MAX_DEPTH, Always, Not, parse, pretty
from smartlot.knowledge import SpecStore, Trip, mine_trip
from smartlot.simulator import (
    Detection,
    Scenario,
    demo_scenario,
    generate,
    never_gate_scenario,
    run,
    serialize_report,
    serialize_scenario,
)
from smartlot.tableaux import build_tree, export_tree
from smartlot.worldgraph import load_graph, normalize_node_id, save_graph


# -- prove -------------------------------------------------------------------


def test_prove_sat(capsys):
    assert main(["prove", "g2 & (g2 -> F p010)"]) == 0
    assert capsys.readouterr().out == "SAT\n"


def test_prove_unsat(capsys):
    assert main(["prove", "G !g3 & g3"]) == 1
    assert capsys.readouterr().out == "UNSAT\n"


def test_prove_valid(capsys):
    assert main(["prove", "--valid", "G p -> p"]) == 0
    assert capsys.readouterr().out == "VALID\n"
    assert main(["prove", "--valid", "p"]) == 1
    assert capsys.readouterr().out == "NOT VALID\n"


def test_prove_tree_ascii(capsys):
    assert main(["prove", "--tree", "ascii", "G !g3 & g3"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("UNSAT\n")
    assert "1.[x]: !g3" in out


def test_prove_valid_tree_is_the_closed_tree_of_the_negation(capsys):
    assert main(["prove", "--valid", "--tree", "ascii", "p | !p"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["VALID", "!(p | !p)"]
    markers = [line.strip() for line in out if line.strip() in ("x", "o")]
    assert markers and set(markers) == {"x"}


def test_prove_tree_dot(capsys):
    main(["prove", "--tree", "dot", "p | q"])
    assert "digraph" in capsys.readouterr().out


def test_prove_syntax_error(capsys):
    assert main(["prove", "p & & q"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "formula",
    ["!" * 1200 + "a", "(" * 1200 + "a" + ")" * 1200],
    ids=["negations", "parentheses"],
)
def test_prove_too_deep_is_an_input_error(formula, capsys):
    assert main(["prove", formula]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: formula nested too deeply\n"


@pytest.mark.parametrize(
    "formula",
    ["!" * MAX_DEPTH + "a", "(" * MAX_DEPTH + "a" + ")" * MAX_DEPTH, "a -> " * MAX_DEPTH + "a"],
)
def test_prove_at_the_depth_limit(formula, capsys):
    assert main(["prove", formula]) == 0
    assert capsys.readouterr().out == "SAT\n"


@pytest.mark.parametrize(
    "formula",
    ["!" * (MAX_DEPTH + 1) + "a", "(" * (MAX_DEPTH + 1) + "a" + ")" * (MAX_DEPTH + 1), "a -> " * (MAX_DEPTH + 1) + "a"],
)
def test_prove_past_the_depth_limit_is_an_input_error(formula, capsys):
    assert main(["prove", formula]) == 2
    assert capsys.readouterr().err == "error: formula nested too deeply\n"


def test_prove_reports_a_bad_character_after_a_long_chain(capsys):
    # the tokens are read without offsets, and the error still names the
    # exact one
    chain = " & ".join(f"a{i}" for i in range(20000)) + " & ?"
    assert main(["prove", chain]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unexpected character '?' at offset 168890 (expected token)\n"


def stdin(data: bytes, errors: str = "strict") -> io.TextIOWrapper:
    """A UTF-8 text stdin over `data`, with the byte stream `.buffer`."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors=errors)


def test_prove_dash_reads_the_formula_from_stdin(monkeypatch, capsys):
    # a formula too long for one command-line argument comes in on stdin
    chain = " & ".join(f"a{i}" for i in range(20000)) + " & ?"
    monkeypatch.setattr("sys.stdin", stdin(chain.encode()))
    assert main(["prove", "-"]) == 2
    assert capsys.readouterr().err == "error: unexpected character '?' at offset 168890 (expected token)\n"
    monkeypatch.setattr("sys.stdin", stdin(b"G p -> F p\n"))
    assert main(["prove", "--valid", "-"]) == 0
    assert capsys.readouterr().out == "VALID\n"
    monkeypatch.setattr("sys.stdin", stdin(b""))
    assert main(["prove", "-"]) == 2
    assert capsys.readouterr().err == "error: empty input at offset 0 (expected formula)\n"


# a strict stdin (PYTHONIOENCODING=utf-8) and a C.UTF-8 one alike
@pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
def test_prove_dash_names_a_byte_of_stdin_that_is_not_utf8(errors, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", stdin(b"a &\n \xff", errors))
    assert main(["prove", "-"]) == 2
    assert capsys.readouterr().err == "error: <stdin>: line 2: not UTF-8 text (byte 0xff)\n"


def test_prove_names_a_byte_of_the_argument_that_is_not_utf8(capsys):
    # the argument `a & \xff` arrives with its byte as the surrogate U+DCFF
    assert main(["prove", "a & \udcff"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: <argument>: line 1: not UTF-8 text (byte 0xff)\n"


@pytest.mark.parametrize("flags", [[], ["--tree", "dot"], ["--valid"]], ids=["verdict", "tree", "valid"])
@pytest.mark.parametrize("n", [1200, 5000])
@pytest.mark.parametrize("op", ["|", "&"])
def test_prove_flat_chain(op, n, flags, capsys):
    # a flat chain is no nesting to the parser, and gets a verdict
    text = f" {op} ".join(f"a{i}" for i in range(n))
    if "--valid" in flags:
        assert main(["prove", *flags, text]) == 1
        assert capsys.readouterr().out == "NOT VALID\n"
        return
    assert main(["prove", *flags, text]) == 0
    out = capsys.readouterr().out
    tree = export_tree(build_tree(parse(text)), "dot") if flags else ""
    assert out == "SAT\n" + tree


def test_prove_chain_under_always(capsys):
    # the disjunction is a commitment, evaluated by the realizability check
    chain = " | ".join(f"a{i}" for i in range(1200))
    assert main(["prove", f"G ({chain})"]) == 0
    assert capsys.readouterr().out == "SAT\n"
    assert main(["prove", f"G ({chain}) & G !a1199"]) == 0
    assert capsys.readouterr().out == "SAT\n"


def test_prove_1100_worlds_around_an_open_family(capsys):
    # the 1,100 worlds of fresh atoms leave the realizability search, so the
    # clash between G (p | q) and F (!p & !q) is found at once
    worlds = " & ".join(f"F a{i}" for i in range(1100))
    assert main(["prove", f"{worlds} & G (p | q) & F (!p & !q)"]) == 1
    assert capsys.readouterr().out == "UNSAT\n"


def test_prove_matches_the_tree_on_a_corpus(capsys):
    for f in formula_corpus(seed=3, count=80):
        text = pretty(f)
        for valid in (False, True):
            tree = build_tree(Not(f) if valid else f)
            if valid:
                verdict, code = ("NOT VALID", 1) if tree.open else ("VALID", 0)
            else:
                verdict, code = ("SAT", 0) if tree.open else ("UNSAT", 1)
            flags = ["--valid"] if valid else []
            assert main(["prove", *flags, text]) == code, text
            assert capsys.readouterr().out == verdict + "\n", text
            assert main(["prove", *flags, "--tree", "ascii", text]) == code, text
            assert capsys.readouterr().out == verdict + "\n" + export_tree(tree), text


def test_unknown_command_usage_error(capsys):
    assert main(["frobnicate"]) == 2


# -- simulate ----------------------------------------------------------------


def test_simulate_demo_matches_library(capsys):
    assert main(["simulate", "-"]) == 0
    assert capsys.readouterr().out == serialize_report(run(demo_scenario()))


def test_simulate_file_and_output(tmp_path, capsys):
    scenario_file = tmp_path / "s.scenario"
    scenario_file.write_text(serialize_scenario(never_gate_scenario()))
    out_file = tmp_path / "report.txt"
    dot_file = tmp_path / "world.dot"
    assert main(
        ["simulate", str(scenario_file), "-o", str(out_file), "--dot-graph", str(dot_file)]
    ) == 0
    assert capsys.readouterr().out == ""
    assert out_file.read_text() == serialize_report(run(never_gate_scenario()))
    assert dot_file.read_text().startswith("digraph")


def test_simulate_missing_file(capsys):
    assert main(["simulate", "/nonexistent/path.scenario"]) == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_bad_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.scenario"
    bad.write_text("g1 G\ntimeline:\nnope\n")
    assert main(["simulate", str(bad)]) == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("edge", ["g1 -> c1 road", "c1 -> r1 road", "r1 -> g2 at", "c1 -> g1 at len=3"])
def test_simulate_rejects_an_edge_that_a_car_cannot_have(edge, tmp_path, capsys):
    bad = tmp_path / "bad.scenario"
    bad.write_text(parking_fixture_text() + f"c1 C\nc1 -> g1 at\n{edge}\ntimeline:\n")
    assert main(["simulate", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "edge" in captured.err


def one_road_lot(gate, spot):
    return (
        f"{gate} G\nr1 R\n{spot} P\n"
        f"{gate} -> r1 road\nr1 -> {gate} road\nr1 -> {spot} road\n{spot} -> r1 road\n"
    )


# a lot whose gate or spot id is not an atom name, and a trip parked there
NOT_AN_ATOM = {"gate": ("Gate1", "p1"), "spot": ("g1", "P1")}


def parked_trip(gate, spot):
    steps = [(gate, "08:00"), ("r1", "08:01"), (spot, "08:02"), ("r1", "08:20"), (gate, "08:21")]
    return [("u", node, t) for node, t in steps]


@pytest.mark.parametrize("kind", sorted(NOT_AN_ATOM))
def test_simulate_rejects_a_node_id_that_is_not_an_atom(kind, tmp_path, capsys):
    gate, spot = NOT_AN_ATOM[kind]
    scenario = tmp_path / "bad.scenario"
    timeline = "".join(f"2014-01-28T{t}:00,{u},{n}\n" for u, n, t in parked_trip(gate, spot))
    scenario.write_text(one_road_lot(gate, spot) + "timeline:\n" + timeline)
    assert main(["simulate", str(scenario)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line ") and "not an atom name" in captured.err
    assert "Traceback" not in captured.err


# graph records added to the fixture, timeline rows (minute,user,node) and
# the error; the fixture takes lines 1-100, so with no records added the
# first row is line 102
CAR_AT_P010 = "c1 C\nc1 -> p010 at\n"
BAD_TIMELINES = {
    "car-in-graph": (CAR_AT_P010, ["00,c1,g1"], "error: line 104: car already present: c1"),
    "empty-user": ("", ["00,,g1"], "error: line 102: not one word of a graph record: ''"),
    "tab-user": ("", ["00,u\tx,g1"], "error: line 102: not one word of a graph record: 'u\\tx'"),
    "mid-trip": ("", ["00,u,r4"], "error: line 102: user u detected at r4 before entering"),
    "unknown-node": ("", ["00,u,g1", "01,u,zz"], "error: line 103: timeline references unknown node: zz"),
    "unsorted": ("", ["01,u,g1", "00,u,r1"], "error: line 103: timeline not sorted at 2014-01-28T08:00:00"),
    "occupied": (
        CAR_AT_P010,
        ["00,u,g1", "01,u,r1", "02,u,p010"],
        "error: line 106: parking place occupied: p010",
    ),
    "onto-car": (CAR_AT_P010, ["00,u,g1", "01,u,c1"], "error: line 105: cannot move onto a C node: c1"),
    "two-cars-on-a-spot": (
        "c1 C\nc2 C\nc1 -> p010 at\nc2 -> p010 at\n",
        ["00,u,g1"],
        "error: line 104: parking place occupied: p010",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_TIMELINES))
def test_simulate_rejects_a_bad_detection(case, tmp_path, capsys):
    graph, rows, error = BAD_TIMELINES[case]
    timeline = "".join(f"2014-01-28T08:{row[:2]}:00{row[2:]}\n" for row in rows)
    scenario = tmp_path / "bad.scenario"
    scenario.write_text(parking_fixture_text() + graph + "timeline:\n" + timeline)
    assert main(["simulate", str(scenario)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(error)
    assert "Traceback" not in captured.err


# a one-road lot of seven lines, so `timeline:` is line 8
SMALL_LOT = "g1 G\nr1 R\np1 P\ng1 -> r1 road\nr1 -> g1 road\nr1 -> p1 road\np1 -> r1 road\n"


@pytest.mark.parametrize("user", ["a b", "a\u00a0b", "->"], ids=["space", "nbsp", "arrow"])
def test_simulate_rejects_a_user_id_that_is_no_word_of_a_graph_record(user, tmp_path, capsys):
    # the user would stay parked, and the report's graph section would not load back
    rows = [("08:00", "g1"), ("08:01", "r1"), ("08:02", "p1")]
    scenario = tmp_path / "bad.scenario"
    timeline = "".join(f"2014-01-28T{t}:00,{user},{node}\n" for t, node in rows)
    scenario.write_bytes((SMALL_LOT + "timeline:\n" + timeline).encode())
    assert main(["simulate", str(scenario)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line 9: not one word of a graph record: {user!r}\n"


def test_simulate_and_mine_reject_a_utc_offset(tmp_path, capsys):
    graph_file = tmp_path / "world.graph"
    graph_file.write_text(parking_fixture_text())
    rows = [("g1", "08:00:00"), ("r1", "08:01:00+01:00")]
    events_file = tmp_path / "events.csv"
    events_file.write_text("".join(f"u,{node},2014-01-28T{t}\n" for node, t in rows))
    scenario = tmp_path / "offset.scenario"
    scenario.write_text(
        parking_fixture_text() + "timeline:\n" + "".join(f"2014-01-28T{t},u,{node}\n" for node, t in rows)
    )
    for argv, line in (
        (["mine", str(events_file), str(graph_file)], 2),
        (["simulate", str(scenario)], 103),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: line {line}: timestamp with a UTC offset")


def test_simulate_and_mine_reject_a_legacy_timestamp_with_non_ascii_digits(tmp_path, capsys):
    graph_file = tmp_path / "world.graph"
    graph_file.write_text(parking_fixture_text())
    # the year of the second row in Arabic-Indic digits
    rows = [("g1", "t2014.01.28.08.00.00"), ("r1", "t\u0662\u0660\u0661\u0664.01.28.08.01.00")]
    events_file = tmp_path / "events.csv"
    events_file.write_text("".join(f"u,{node},{t}\n" for node, t in rows), encoding="utf-8")
    scenario = tmp_path / "digits.scenario"
    scenario.write_text(
        parking_fixture_text() + "timeline:\n" + "".join(f"{t},u,{node}\n" for node, t in rows),
        encoding="utf-8",
    )
    for argv, line in (
        (["mine", str(events_file), str(graph_file)], 2),
        (["simulate", str(scenario)], 103),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: line {line}: unparseable timestamp")


# -- mine --------------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(NOT_AN_ATOM))
def test_mine_rejects_a_node_id_that_is_not_an_atom(kind, tmp_path, capsys):
    gate, spot = NOT_AN_ATOM[kind]
    graph_file = tmp_path / "world.graph"
    graph_file.write_text(one_road_lot(gate, spot))
    events_file = tmp_path / "events.csv"
    rows = parked_trip(gate, spot)
    events_file.write_text("".join(f"{u},{n},2014-01-28T{t}:00\n" for u, n, t in rows))
    assert main(["mine", str(events_file), str(graph_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line ") and "not an atom name" in captured.err
    assert "Traceback" not in captured.err


def test_mine_command(tmp_path, capsys):
    graph_file = tmp_path / "world.graph"
    graph_file.write_text(parking_fixture_text())
    events_file = tmp_path / "events.csv"
    rows = []
    for i in range(2):
        base = f"2014-01-28T0{8 + i}"
        rows += [
            f"idKR55,g2,{base}:00:00",
            f"idKR55,p0018,{base}:01:00",  # long-form id in the raw feed
            f"idKR55,g2,{base}:30:00",
        ]
    events_file.write_text("\n".join(rows) + "\n")
    assert main(["mine", str(events_file), str(graph_file)]) == 0
    assert capsys.readouterr().out == "idKR55\tg2 -> F p018\t2\n"


def test_mined_tsv_is_pinned(tmp_path):
    # the sha256 of the knowledge TSV mined from this feed, as first recorded
    scenario = generate(1, 200, 4, 0.5)
    graph_file = tmp_path / "world.graph"
    graph_file.write_text(save_graph(scenario.graph))
    events_file = tmp_path / "events.csv"
    events_file.write_text(
        "".join(f"{d.user},{d.node},{d.timestamp.isoformat()}\n" for d in scenario.timeline)
    )
    tsv_file = tmp_path / "knowledge.tsv"
    assert main(["mine", str(events_file), str(graph_file), "-o", str(tsv_file)]) == 0
    digest = hashlib.sha256(tsv_file.read_bytes()).hexdigest()
    assert digest == "55adaf63614ccfc3270369bf37ab0400e3342b9e3c794599adc4feb49df125fd"


def test_mine_equivalent_to_library(tmp_path, capsys):
    graph_file = tmp_path / "world.graph"
    graph_file.write_text(parking_fixture_text())
    events_file = tmp_path / "events.csv"
    events_file.write_text(
        "u,g1,2014-01-28T08:00:00\nu,p010,2014-01-28T08:01:00\nu,g1,2014-01-28T08:30:00\n"
    )
    main(["mine", str(events_file), str(graph_file)])
    cli_out = capsys.readouterr().out

    store = SpecStore()
    for f in mine_trip(Trip("u", "g1", "p010", "g1")):
        store.upsert("u", f)
    assert cli_out == store.to_tsv()


def interleaved_two_drivers():
    """Two drivers whose trips overlap in time, with a pass-through trip."""
    steps = [
        ("A", "g2"), ("B", "g1"), ("A", "r4"), ("B", "r1"), ("A", "p018"),
        ("B", "p010"), ("B", "g1"), ("A", "r5"), ("B", "g1"), ("A", "g2"),
        ("B", "p010"), ("A", "g2"), ("A", "p018"), ("B", "g1"), ("B", "g3"),
        ("A", "g2"), ("B", "g3"), ("A", "g2"), ("A", "p019"), ("A", "g2"),
    ]
    t0 = datetime(2014, 1, 28, 8, 0, 0)
    timeline = [Detection(t0 + timedelta(minutes=i), u, n) for i, (u, n) in enumerate(steps)]
    return Scenario(parking_fixture(), timeline)


@pytest.mark.parametrize(
    "scenario",
    [generate(1, 50, 4, 0.5), interleaved_two_drivers(), demo_scenario(occupied=("p018",))],
    ids=["generated", "interleaved", "open-trips"],
)
def test_mine_matches_simulator_preferences(scenario, tmp_path, capsys):
    graph_file = tmp_path / "world.graph"
    graph_file.write_text(save_graph(scenario.graph))
    events_file = tmp_path / "events.csv"
    events_file.write_text(
        "".join(f"{d.user},{d.node},{d.timestamp.isoformat()}\n" for d in scenario.timeline)
    )
    assert main(["mine", str(events_file), str(graph_file)]) == 0
    mined = capsys.readouterr().out
    report = run(scenario)
    preferences = "".join(
        f"{t.user}\t{pretty(t.formula)}\t{t.r}\n"
        for t in report.final_store.triples()
        if not isinstance(t.formula, Always)
    )
    assert mined == preferences != ""
    assert SpecStore.from_tsv(mined).to_tsv() == mined


def test_mine_rejects_a_feed_that_starts_mid_trip(tmp_path, capsys):
    graph_file = tmp_path / "world.graph"
    graph_file.write_text(parking_fixture_text())
    events_file = tmp_path / "events.csv"
    events_file.write_text(
        "u,r4,2014-01-28T08:00:00\nu,p018,2014-01-28T08:01:00\nu,g2,2014-01-28T08:30:00\n"
    )
    assert main(["mine", str(events_file), str(graph_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 1: ") and "r4" in captured.err


def test_mine_rejects_a_detection_at_a_parked_car(tmp_path, capsys):
    # simulate rejects the same row ("cannot move onto a C node")
    graph_file = tmp_path / "world.graph"
    graph_file.write_text(one_road_lot("g1", "p1") + "c9 C\nc9 -> p1 at\n")
    events_file = tmp_path / "events.csv"
    events_file.write_text(
        "u,g1,2014-01-28T08:00:00\nu,c9,2014-01-28T08:01:00\nu,g1,2014-01-28T08:30:00\n"
    )
    assert main(["mine", str(events_file), str(graph_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2: unknown node id 'c9'\n"


def test_mine_reports_the_first_bad_row(tmp_path, capsys):
    graph_file = tmp_path / "world.graph"
    graph_file.write_text(parking_fixture_text())
    events_file = tmp_path / "events.csv"
    # a mid-trip row comes before a row with a bad timestamp
    events_file.write_text("u,r4,2014-01-28T08:00:00\nv,g1,yesterday\n")
    assert main(["mine", str(events_file), str(graph_file)]) == 2
    assert capsys.readouterr().err.startswith("error: line 1: user u detected at r4")


@pytest.mark.parametrize(
    "user", ['"u\tx"', '""', '"u\nx"', '"a,b"'], ids=["tab", "empty", "newline", "comma"]
)
def test_mine_rejects_a_user_id_that_does_not_fit_a_tsv_cell(user, tmp_path, capsys):
    graph_file = tmp_path / "world.graph"
    graph_file.write_text(parking_fixture_text())
    events_file = tmp_path / "events.csv"
    rows = [("g2", "08:00"), ("p018", "08:01"), ("g2", "08:30")]
    events_file.write_text("".join(f"{user},{node},2014-01-28T{t}:00\n" for node, t in rows))
    out_file = tmp_path / "knowledge.tsv"
    assert main(["mine", str(events_file), str(graph_file), "-o", str(out_file)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: line 1: bad user id")
    assert not out_file.exists()


@pytest.mark.parametrize("user", ["r4", "g2"], ids=["road", "gate"])
def test_mine_rejects_a_user_id_that_names_a_node_of_the_lot(user, tmp_path, capsys):
    # simulate could not enter such a user as a car
    graph_file = tmp_path / "world.graph"
    graph_file.write_text(parking_fixture_text())
    events_file = tmp_path / "events.csv"
    rows = [("g2", "08:00"), ("p018", "08:01"), ("g2", "08:30")]
    events_file.write_text("u,g1,2014-01-28T07:00:00\n" + "".join(
        f"{user},{node},2014-01-28T{t}:00\n" for node, t in rows))
    assert main(["mine", str(events_file), str(graph_file)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: line 2: user id names a node of the lot: {user}\n")


def test_mine_names_a_node_named_user_before_a_row_outside_a_trip(tmp_path, capsys):
    # the user's first row is at no gate, so it opens no trip; the id is
    # what the error names, not the missing entry
    graph_file = tmp_path / "world.graph"
    graph_file.write_text(parking_fixture_text())
    events_file = tmp_path / "events.csv"
    events_file.write_text("u,g1,2014-01-28T07:00:00\nr4,p018,2014-01-28T08:01:00\n")
    assert main(["mine", str(events_file), str(graph_file)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: line 2: user id names a node of the lot: r4\n")


def test_simulate_rejects_a_user_that_names_a_node_of_the_lot(tmp_path, capsys):
    # the demo's user renamed r4, a road: no car, so not "already present"
    scenario = tmp_path / "r4.scenario"
    scenario.write_text(serialize_scenario(demo_scenario()).replace("idKR55", "r4"))
    assert main(["simulate", str(scenario)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: line 101: car id names a node of the lot: r4\n")


def test_mine_writes_nothing_when_a_late_row_is_bad(tmp_path, capsys):
    graph_file = tmp_path / "world.graph"
    graph_file.write_text(parking_fixture_text())
    events_file = tmp_path / "events.csv"
    trips = "".join(
        f"u,g1,2014-01-28T0{h}:00:00\nu,p010,2014-01-28T0{h}:01:00\nu,g1,2014-01-28T0{h}:30:00\n"
        for h in (8, 9)
    )
    events_file.write_text(trips + "u,zz99,2014-01-28T10:00:00\n")
    out_file = tmp_path / "knowledge.tsv"
    assert main(["mine", str(events_file), str(graph_file)]) == 2
    assert main(["mine", str(events_file), str(graph_file), "-o", str(out_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: line 7: unknown node id 'zz99'") == 2
    assert not out_file.exists()


def test_mine_resolves_each_raw_node_id_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counting(raw, known=None):
        calls.append(raw)
        return normalize_node_id(raw, known)

    monkeypatch.setattr(knowledge, "normalize_node_id", counting)
    graph_file = tmp_path / "world.graph"
    graph_file.write_text(one_road_lot("g1", "p18") + "p018 P\nr1 -> p018 road\np018 -> r1 road\n")
    events_file = tmp_path / "events.csv"
    trip = ["g01", "r001", "p0018", "r001", "g01"]
    raws = trip * 3 + ["g1", "r1", "p18", "r1", "g1"]
    events_file.write_text("".join(f"u,{raw},2014-01-28T08:{i:02d}:00\n" for i, raw in enumerate(raws)))
    assert main(["mine", str(events_file), str(graph_file)]) == 0
    # p0018 matches both p018 and p18; the first in sorted order wins
    assert capsys.readouterr().out == "u\tg1 -> F p018\t3\nu\tg1 -> F p18\t1\n"
    assert sorted(calls) == sorted(set(calls)) and set(calls) <= set(raws)


def test_mine_bad_events(tmp_path, capsys):
    graph_file = tmp_path / "world.graph"
    graph_file.write_text(parking_fixture_text())
    events_file = tmp_path / "events.csv"
    events_file.write_text("u,zz99,2014-01-28T08:00:00\n")
    assert main(["mine", str(events_file), str(graph_file)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_mine_names_a_lone_carriage_return(tmp_path, capsys):
    graph_file = tmp_path / "world.graph"
    graph_file.write_text(parking_fixture_text())
    events_file = tmp_path / "events.csv"
    events_file.write_bytes(b"u,g1,2014-01-28T08:00:00\rv,g1,2014-01-28T08:01:00")
    assert main(["mine", str(events_file), str(graph_file)]) == 2
    assert capsys.readouterr().err == "error: line 1: carriage return outside a quoted cell\n"


# -- graph -------------------------------------------------------------------


def test_graph_split_and_glue(tmp_path, capsys):
    graph_file = tmp_path / "world.graph"
    graph_file.write_text(parking_fixture_text())
    prefix = str(tmp_path / "part")
    assert main(["graph", "split", str(graph_file), "-k", "3", "-o", prefix]) == 0
    assert "wrote 3 parts" in capsys.readouterr().out
    parts = [str(tmp_path / f"part-{i}.graph") for i in range(3)]
    merged_file = tmp_path / "merged.graph"
    assert main(["graph", "glue", *parts, "-o", str(merged_file)]) == 0
    assert load_graph(merged_file.read_text()) == parking_fixture()


def test_graph_dot(tmp_path, capsys):
    graph_file = tmp_path / "world.graph"
    graph_file.write_text("g1 G\nr1 R\ng1 -> r1 road\n")
    assert main(["graph", "dot", str(graph_file)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert '"g1" -> "r1"' in out


def test_graph_dot_and_simulate_dot_graph_escape_quotes_and_backslashes(tmp_path, capsys):
    graph_file = tmp_path / "world.graph"
    graph_file.write_text('g1 G\nr"1 R\nr\\2 R\ng1 -> r"1 road\nr"1 -> r\\2 road\n')
    assert main(["graph", "dot", str(graph_file)]) == 0
    out = capsys.readouterr().out
    assert '  "r\\"1" [label="r\\"1 (R)", shape=ellipse];\n' in out
    assert '  "r\\"1" -> "r\\\\2" [label="road"];\n' in out
    scenario = tmp_path / "quote.scenario"
    scenario.write_text(one_road_lot("g1", "p1") + 'timeline:\n2014-01-28T08:00:00,u"x,g1\n')
    dot_file = tmp_path / "world.dot"
    report = tmp_path / "report"
    assert main(["simulate", str(scenario), "-o", str(report), "--dot-graph", str(dot_file)]) == 0
    assert '  "u\\"x" -> "g1" [label="at"];\n' in dot_file.read_text()


def test_graph_outputs_are_utf8_in_an_ascii_locale(tmp_path):
    # every file smartlot writes is UTF-8, as every file it reads, whatever
    # the locale says; split writes its parts and a summary line on stdout
    text = "g1 G\np1 P\nr\u00e9 R\ng1 -> r\u00e9 road\nr\u00e9 -> p1 road\n"
    graph_file = tmp_path / "world.graph"
    graph_file.write_bytes(text.encode())
    env = dict(os.environ, PYTHONUTF8="0", LC_ALL="C", PYTHONPATH=str(Path(cli.__file__).parents[1]))

    def smartlot(*argv):
        argv = [sys.executable, "-m", "smartlot.cli", *argv]
        return subprocess.run(argv, env=env, capture_output=True, timeout=60)

    split = smartlot("graph", "split", str(graph_file), "-k", "2", "-o", str(tmp_path / "part"))
    assert (split.returncode, split.stderr) == (0, b"")
    assert split.stdout == b"wrote 2 parts; border nodes: p1\n"
    parts = [str(tmp_path / f"part-{i}.graph") for i in range(2)]
    glued = smartlot("graph", "glue", *parts, "-o", str(tmp_path / "glued.graph"))
    assert (glued.returncode, glued.stderr) == (0, b"")
    assert (tmp_path / "glued.graph").read_bytes() == text.encode()
    dot = smartlot("graph", "dot", str(graph_file), "-o", str(tmp_path / "world.dot"))
    assert (dot.returncode, dot.stderr) == (0, b"")
    assert '"g1" -> "r\u00e9" [label="road"];'.encode() in (tmp_path / "world.dot").read_bytes()
    assert smartlot("graph", "dot", str(graph_file)).stdout == (tmp_path / "world.dot").read_bytes()


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark spreadsheet tools write


def test_a_leading_byte_order_mark_is_dropped(tmp_path, capsys, monkeypatch):
    graph = parking_fixture_text().encode()
    feed = b"car001,g2,2014-01-28T08:00:00\ncar001,p018,2014-01-28T08:01:00\ncar001,g2,2014-01-28T08:30:00\n"
    scenario = serialize_scenario(demo_scenario()).encode()
    runs = [
        lambda path: main(["mine", path, str(tmp_path / "world.graph")]),
        lambda path: main(["graph", "dot", path]),
        lambda path: main(["simulate", path]),
    ]
    (tmp_path / "world.graph").write_bytes(graph)
    for data, command in zip([feed, graph, scenario], runs):
        outputs = []
        for prefix in (b"", BOM):
            path = tmp_path / "input"
            path.write_bytes(prefix + data)
            assert command(str(path)) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out and outputs[0].err == ""
    monkeypatch.setattr("sys.stdin", stdin(BOM + b"G p -> F p\n"))
    assert main(["prove", "--valid", "-"]) == 0
    assert capsys.readouterr() == ("VALID\n", "")


def test_a_byte_after_a_byte_order_mark_is_named_as_it_is(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin(BOM + b"a\xff"))
    assert main(["prove", "-"]) == 2
    assert capsys.readouterr().err == "error: <stdin>: line 1: not UTF-8 text (byte 0xff)\n"
    path = tmp_path / "world.graph"
    path.write_bytes(BOM + b"g1 G\nr\xff R\n")
    assert main(["graph", "dot", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: line 2: not UTF-8 text (byte 0xff)\n"


def test_graph_split_bad_k(tmp_path, capsys):
    graph_file = tmp_path / "world.graph"
    graph_file.write_text("g1 G\n")
    assert main(["graph", "split", str(graph_file), "-k", "5", "-o", str(tmp_path / "p")]) == 2


# -- demo --------------------------------------------------------------------


def test_demo_prints_scenario(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert out == serialize_scenario(demo_scenario())
    assert "timeline:" in out


# -- errors of the program ---------------------------------------------------


def test_an_internal_error_exits_2_without_a_traceback(monkeypatch, capsys):
    def broken(args):
        raise AttributeError("'NoneType' object has no attribute 'suggestion'")

    monkeypatch.setattr(cli, "cmd_simulate", broken)
    assert main(["simulate", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: internal error: AttributeError: 'NoneType' object has no attribute 'suggestion'\n"
    )


# the file each command reads, with a byte that is not UTF-8 on line 2
NOT_UTF8 = {
    "simulate": (b"g1 G\nr1 R zone=\xff\ng1 -> r1 road\ntimeline:\n", "0xff"),
    "mine-feed": (b"u,g1,2014-01-28T08:00:00\nu,r1,2014-01-28T08:01:00\xc3(\n", "0xc3"),
    "mine-graph": (b"g1 G\nr1 R zone=\xe2\x82\ng1 -> r1 road\n", "0xe2"),
    "graph-dot": (b"g1 G\nr1 R\xff\n", "0xff"),
}


@pytest.mark.parametrize("case", sorted(NOT_UTF8))
def test_a_file_that_is_not_utf8_is_an_input_error_naming_its_line(case, tmp_path, capsys):
    graph_file = tmp_path / "world.graph"
    graph_file.write_text(parking_fixture_text())
    events_file = tmp_path / "events.csv"
    events_file.write_text("u,g1,2014-01-28T08:00:00\n")
    bad = tmp_path / "bad.txt"
    data, byte = NOT_UTF8[case]
    bad.write_bytes(data)
    argv = {
        "simulate": ["simulate", str(bad)],
        "mine-feed": ["mine", str(bad), str(graph_file)],
        "mine-graph": ["mine", str(events_file), str(bad)],
        "graph-dot": ["graph", "dot", str(bad)],
    }[case]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: line 2: not UTF-8 text (byte {byte})\n"


@pytest.mark.parametrize("brk", ["\r", "\u2028"], ids=["cr", "ls"])
def test_a_graph_file_is_split_at_newline_only(tmp_path, capsys, brk):
    graph_file = tmp_path / "world.graph"
    graph_file.write_bytes(f"g1 G\nr1 R zone=a{brk}b\ng1 -> r1 road\n".encode())
    assert main(["graph", "dot", str(graph_file)]) == 2
    assert capsys.readouterr().err == "error: line 2: malformed attribute: 'b'\n"


def test_crlf_files_read_like_lf(tmp_path, capsys):
    scenario = serialize_scenario(demo_scenario(occupied=("p018",)))
    outputs = []
    for name, text in (("lf", scenario), ("crlf", scenario.replace("\n", "\r\n"))):
        path = tmp_path / f"{name}.scenario"
        path.write_bytes(text.encode())
        assert main(["simulate", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
