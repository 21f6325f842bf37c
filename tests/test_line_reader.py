"""Every input file is split into lines one way: at "\\n" only, with one
"\\r" before it dropped.  Characters that `str.splitlines` also breaks at
stay inside a record, and an error names the line an editor shows."""

import pytest

from smartlot.fixtures import parking_fixture
from smartlot.formulas import FormulaSyntaxError
from smartlot.knowledge import KnowledgeError, SpecStore, read_events
from smartlot.simulator import ScenarioError, demo_scenario, parse_scenario, run, serialize_scenario
from smartlot.worldgraph import GraphError, at_line, load_graph, numbered_lines, save_graph

# each ends a line for str.splitlines, and none for an editor
LINE_BREAKS = pytest.mark.parametrize(
    "brk",
    ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"],
    ids=["cr", "vt", "ff", "fs", "gs", "rs", "nel", "ls"],
)


def crlf(text: str) -> str:
    return text.replace("\n", "\r\n")


def test_numbered_lines_split_at_newline_only():
    text = "a\r\nb\x85c\r\r\nd\re\n"
    assert list(numbered_lines(text)) == [(1, "a"), (2, "b\x85c\r"), (3, "d\re"), (4, "")]


def test_at_line_keeps_the_type_and_its_fields():
    err = FormulaSyntaxError("unexpected end of input", 2, ("an atom",))
    assert at_line(err, 7) is err
    assert str(err) == "line 7: unexpected end of input at offset 2 (expected an atom)"
    assert (err.offset, err.expected) == (2, ("an atom",))


@LINE_BREAKS
def test_load_graph_names_the_line_an_editor_shows(brk):
    with pytest.raises(GraphError, match=r"^line 2: malformed attribute: 'b'$"):
        load_graph(f"g1 G\nr1 R zone=a{brk}b\ng1 -> r1 road\n")


@LINE_BREAKS
def test_parse_scenario_names_the_line_of_a_graph_record(brk):
    with pytest.raises(GraphError, match=r"^line 2: malformed attribute: 'b'$"):
        parse_scenario(f"g1 G\nr1 R zone=a{brk}b\ng1 -> r1 road\ntimeline:\n")


@LINE_BREAKS
def test_parse_scenario_names_the_line_of_a_timeline_row(brk):
    # both halves would be good rows, but they are one row of five cells
    text = "g1 G\nr1 R\ng1 -> r1 road\ntimeline:\n2014-01-28T08:00:00,u,g1\n"
    text += f"2014-01-28T08:01:00,u,r1{brk}2014-01-28T08:02:00,u,g1\n"
    with pytest.raises(ScenarioError, match=r"^line 6: expected timestamp,user,node$"):
        parse_scenario(text)


@LINE_BREAKS
def test_simulate_names_the_line_of_a_detection(brk):
    text = "g1 G\nr1 R\ng1 -> r1 road\ntimeline:\n\n2014-01-28T08:00:00,u,g1\n"
    text += f"2014-01-28T08:01:00,u{brk}v,g1\n"
    with pytest.raises(GraphError, match=r"^line 7: not one word of a graph record: 'u"):
        run(parse_scenario(text))


@LINE_BREAKS
def test_from_tsv_names_the_line_of_a_row(brk):
    # both halves would be good rows, but they are one row of five cells
    with pytest.raises(KnowledgeError, match=r"^line 2: expected user<TAB>formula<TAB>r$"):
        SpecStore.from_tsv(f"w\tc\t1\nu\ta\t1{brk}v\tb\t1\n")
    # a formula's text may hold any whitespace; this one is two atoms
    with pytest.raises(FormulaSyntaxError, match=r"^line 2: "):
        SpecStore.from_tsv(f"w\tc\t1\nu\ta{brk}b\t1\n")


@LINE_BREAKS
def test_read_events_names_the_line_of_a_row(brk):
    feed = f"u,g1,2014-01-28T09:30:00\nu{brk}x,g1,2014-01-28T09:31:00\n"
    with pytest.raises(KnowledgeError, match=r"^line 2: "):
        list(read_events(feed, {"g1"}))


def test_crlf_graph_scenario_and_tsv_read_like_lf():
    graph = save_graph(parking_fixture())
    assert load_graph(crlf(graph)) == load_graph(graph)
    scenario = serialize_scenario(demo_scenario(occupied=("p018",)))
    assert parse_scenario(crlf(scenario)) == parse_scenario(scenario)
    tsv = run(demo_scenario()).final_store.to_tsv()
    assert SpecStore.from_tsv(crlf(tsv)).to_tsv() == tsv
    feed = "u,g1,2014-01-28T09:30:00\nu,g1,2014-01-28T09:31:00\n"
    assert list(read_events(crlf(feed), {"g1"})) == list(read_events(feed, {"g1"}))


def test_crlf_errors_name_the_same_line():
    with pytest.raises(GraphError, match=r"^line 2: malformed node record: 'b'$"):
        load_graph(crlf("a R\nb\n"))
    with pytest.raises(KnowledgeError, match=r"^line 2: count must be a positive integer: 'x'$"):
        SpecStore.from_tsv(crlf("u\ta\t1\nu\tb\tx\n"))
