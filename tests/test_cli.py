from datetime import datetime, timedelta

import pytest

from formula_gen import formula_corpus
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
from smartlot.worldgraph import load_graph, save_graph


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


@pytest.mark.parametrize("edge", ["g1 -> c1 road", "c1 -> r1 road", "r1 -> g2 at"])
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
    assert captured.err.startswith("error: ") and "r4" in captured.err


def test_mine_bad_events(tmp_path, capsys):
    graph_file = tmp_path / "world.graph"
    graph_file.write_text(parking_fixture_text())
    events_file = tmp_path / "events.csv"
    events_file.write_text("u,zz99,2014-01-28T08:00:00\n")
    assert main(["mine", str(events_file), str(graph_file)]) == 2
    assert "line 1" in capsys.readouterr().err


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
