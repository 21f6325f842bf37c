import random
import re

import networkx as nx
import pytest

from smartlot.fixtures import all_gates, all_spots, parking_fixture, parking_fixture_text
from smartlot.worldgraph import (
    AT,
    GraphError,
    GraphPartition,
    WorldGraph,
    export_dot,
    glue,
    load_graph,
    normalize_node_id,
    save_graph,
    split,
)


def random_graph(rng, size):
    g = WorldGraph()
    names = []
    for i in range(size):
        label = rng.choice("GRRRPP")
        node = f"{label.lower()}{i:03d}"
        g.add_node(node, label)
        names.append(node)
    for _ in range(size * 2):
        src, dst = rng.choice(names), rng.choice(names)
        if src != dst:
            g.add_edge(src, dst, "road")
    return g


# -- text format -------------------------------------------------------------


def test_fixture_round_trip():
    g = parking_fixture()
    assert load_graph(save_graph(g)) == g


def test_fixture_text_loads():
    g = load_graph(parking_fixture_text())
    assert set(all_gates()) <= g.labels.keys()
    assert set(all_spots()) <= g.labels.keys()
    assert g.label("g2") == "G"
    assert g.label("p018") == "P"


def test_load_forward_edge_reference():
    g = load_graph("a -> b road\na R\nb R\n")
    assert g.edges == {("a", "b"): "road"}


def test_load_attrs():
    g = load_graph("a R zone=north cap=3\nb R\na -> b road len=40\n")
    assert g.node_attrs["a"] == {"zone": "north", "cap": "3"}
    assert g.edge_attrs[("a", "b")] == {"len": "40"}


def test_load_errors_carry_line_numbers():
    with pytest.raises(GraphError, match="line 2"):
        load_graph("a R\nb\n")
    with pytest.raises(GraphError, match="line 3"):
        load_graph("a R\nb R\na -> b\n")
    with pytest.raises(GraphError, match="line 2"):
        load_graph("a R\na P\n")
    with pytest.raises(GraphError, match="line 2: dangling edge endpoint: zz"):
        load_graph("a R\na -> zz road\n")
    # a scenario timeline is comma-separated, so no id holds a comma
    with pytest.raises(GraphError, match="^line 2: not one word of a graph record: 'r,1'$"):
        load_graph("g1 G\nr,1 R\n")


@pytest.mark.parametrize("record", ["Gate1 G", "g-1 G", "P18 P", "1p P"])
def test_gate_and_spot_ids_must_be_atom_names(record):
    with pytest.raises(GraphError, match="line 2: .* not an atom name"):
        load_graph(f"r1 R\n{record}\n")
    # roads and cars are no atoms, so their ids are free
    assert load_graph("Road1 R\nCar-1 C\nCar-1 -> Road1 at\n").label("Car-1") == "C"


def test_save_empty():
    assert save_graph(WorldGraph()) == ""


def test_round_trip_random():
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(2, 40))
        assert load_graph(save_graph(g)) == g


# -- parking transformations -------------------------------------------------


def test_enter_move_exit():
    g0 = parking_fixture()
    g1 = g0.car_enters("idKR55", "g2")
    assert g1.car_position("idKR55") == "g2"
    assert g0.car_position("idKR55") is None  # input untouched
    g2 = g1.car_moves("idKR55", "r4").car_moves("idKR55", "r5")
    g3 = g2.car_moves("idKR55", "p018")
    assert not g3.is_free("p018")
    assert g3.label("idKR55") == "C"
    g4 = g3.car_exits("idKR55")
    assert g4.is_free("p018")
    assert "idKR55" not in g4.labels


def test_enter_errors():
    g = parking_fixture()
    with pytest.raises(GraphError):
        g.car_enters("c1", "r1")  # not a gateway
    with pytest.raises(GraphError):
        g.car_enters("c1", "nowhere")
    g1 = g.car_enters("c1", "g1")
    with pytest.raises(GraphError, match="^car already present: c1$"):
        g1.car_enters("c1", "g2")
    # a car id that names a road, a gate or a spot is no car of the lot
    for node in ("r4", "g2", "p018"):
        with pytest.raises(GraphError, match=f"^car id names a node of the lot: {node}$"):
            g.car_enters(node, "g1")



def test_move_errors():
    g = parking_fixture().car_enters("c1", "g1").car_enters("c2", "g2")
    g = g.car_moves("c1", "p018")
    with pytest.raises(GraphError):
        g.car_moves("c2", "p018")  # occupied
    with pytest.raises(GraphError):
        g.car_moves("c2", "c1")  # cannot sit on a car
    with pytest.raises(GraphError):
        g.car_moves("ghost", "r1")


def test_exit_errors():
    with pytest.raises(GraphError):
        parking_fixture().car_exits("ghost")


def test_is_free_requires_spot():
    with pytest.raises(GraphError):
        parking_fixture().is_free("r1")


# -- indexes and shared attributes --------------------------------------------


def assert_indexes_match_edges(g, cars):
    at = [(src, dst) for (src, dst), lab in g.edges.items() if lab == "at"]
    for car in cars:
        assert g.car_position(car) == next((dst for src, dst in at if src == car), None)
    for spot in g.nodes_with_label("P"):
        assert g.is_free(spot) == all(dst != spot for _, dst in at)


def test_indexes_follow_random_transformations():
    rng = random.Random(29)
    g = parking_fixture()
    gates = g.nodes_with_label("G")
    targets = gates + g.nodes_with_label("R") + g.nodes_with_label("P")
    cars = [f"car{i}" for i in range(6)]
    for _ in range(600):
        before = save_graph(g)
        car = rng.choice(cars)
        op = rng.choice(("enter", "move", "move", "exit"))
        try:
            if op == "enter":
                nxt = g.car_enters(car, rng.choice(gates))
            elif op == "move":
                nxt = g.car_moves(car, rng.choice(targets))
            else:
                nxt = g.car_exits(car)
        except GraphError:
            nxt = g
        assert save_graph(g) == before  # input untouched
        assert_indexes_match_edges(g, cars)
        g = nxt
        assert_indexes_match_edges(g, cars)
        assert_indexes_match_edges(load_graph(save_graph(g)), cars)


def test_loaded_graph_is_indexed():
    g = load_graph("c1 C\ng1 G zone=north\np1 P\nc1 -> p1 at\ng1 -> p1 road\n")
    assert g.car_position("c1") == "p1"
    assert not g.is_free("p1")
    with pytest.raises(TypeError):
        g.node_attrs["g1"]["zone"] = "south"


def test_add_node_checks_the_label_and_the_atom_name():
    g = WorldGraph()
    with pytest.raises(GraphError, match="G node id is not an atom name: 'Gate 1'"):
        g.add_node("Gate 1", "G")
    with pytest.raises(GraphError, match="unknown node label 'Q' for node n"):
        g.add_node("n", "Q")
    assert g == WorldGraph()  # a rejected node adds nothing
    g.add_node("g1", "G", {"zone": "north"})
    g.add_node("r1", "R")
    g.add_edge("g1", "r1", "road")
    assert load_graph(save_graph(g)) == g


@pytest.mark.parametrize(
    "node, attrs",
    [
        ("a b", None),
        ("r#1", None),
        ("", None),
        ("->", None),
        ("r\u2028", None),
        ("r1", {"k=x": "v"}),
        ("r1", {"k": "a b"}),
        ("r1", {"k#": "v"}),
        ("r1", {"k": "v\x1c"}),
    ],
)
def test_add_node_rejects_what_save_graph_cannot_write_back(node, attrs):
    g = WorldGraph()
    with pytest.raises(GraphError, match="not one word of a graph record|attribute key holds '='"):
        g.add_node(node, "R", attrs)
    assert g == WorldGraph()


@pytest.mark.parametrize(
    "label, attrs",
    [("", None), ("a b", None), ("->", None), ("x#", None), ("road", {"k=x": "v"}), ("road", {"k": "\x85"})],
)
def test_add_edge_rejects_what_save_graph_cannot_write_back(label, attrs):
    g = load_graph("a R\nb R\n")
    with pytest.raises(GraphError, match="not one word of a graph record|attribute key holds '='"):
        g.add_edge("a", "b", label, attrs)
    assert g == load_graph("a R\nb R\n")


def test_words_save_graph_writes_back_are_accepted():
    g = WorldGraph()
    g.add_node("Car-1", "C", {"": "", "k": "a=b", "->": "->"})
    g.add_node("r1", "R")
    g.add_edge("r1", "r1", "a=b", {"len": "="})
    g.add_edge("Car-1", "r1", AT)
    assert load_graph(save_graph(g)) == g


def test_edges_are_a_read_only_view():
    g = parking_fixture().car_enters("c1", "g1")
    with pytest.raises(TypeError):
        g.edges[("c1", "r1")] = "at"
    with pytest.raises(TypeError):
        del g.edges[("c1", "g1")]
    assert g.car_position("c1") == "g1" and ("c1", "r1") not in g.edges


def test_steps_on_a_built_graph_keep_edges_and_indexes_agreeing():
    labels = {"c1": "C", "c2": "C", "g1": "G", "r1": "R", "p1": "P", "p2": "P"}
    roads = {("g1", "r1"): "road", ("r1", "p1"): "road", ("r1", "p2"): "road", ("p1", "r1"): "road"}
    g = WorldGraph()
    for node, label in labels.items():
        g.add_node(node, label)
    for (src, dst), label in {**roads, ("c1", "p1"): "at", ("c2", "r1"): "at"}.items():
        g.add_edge(src, dst, label)
    cars = ["c1", "c2", "c3"]
    assert_indexes_match_edges(g, cars)
    for step in (
        lambda: g.move("c2", "p2"),
        lambda: g.enter("c3", "g1"),
        lambda: g.move("c1", "r1"),
        lambda: g.move("c3", "p1"),
        lambda: g.exit("c2"),
    ):
        step()
        assert_indexes_match_edges(g, cars)
        assert {e: lab for e, lab in g.edges.items() if lab != AT} == roads
    assert dict(g.edges) == {**roads, ("c1", "r1"): "at", ("c3", "p1"): "at"}
    assert not g.is_free("p1") and g.is_free("p2")


def test_equality_ignores_stored_empty_attributes():
    g = parking_fixture().car_enters("c1", "g1").car_moves("c1", "r1").car_moves("c1", "p018")
    g = g.car_enters("c2", "g2")
    assert load_graph(save_graph(g)) == g
    bare = load_graph("c1 C\ng1 G\nr1 R\nc1 -> g1 at\ng1 -> r1 road\n")
    empty = WorldGraph()
    for node, label in (("c1", "C"), ("g1", "G"), ("r1", "R")):
        empty.add_node(node, label, {})
    empty.add_edge("c1", "g1", AT, {})
    empty.add_edge("g1", "r1", "road", {})
    assert empty == bare
    assert load_graph(save_graph(bare)) == bare
    assert load_graph("c1 C color=red\ng1 G\nr1 R\nc1 -> g1 at\ng1 -> r1 road\n") != bare


def test_at_edge_with_attributes_rejected():
    g = parking_fixture()
    g.add_node("c1", "C")
    with pytest.raises(GraphError, match="at edge with attributes: c1 -> p018"):
        g.add_edge("c1", "p018", AT, {"len": "3"})
    assert g.car_position("c1") is None and g.is_free("p018")
    with pytest.raises(GraphError, match="at edge with attributes: c1 -> p1"):
        load_graph("c1 C\np1 P\nc1 -> p1 at len=3\n")


def test_attributes_are_read_only_and_shared():
    g = load_graph("g1 G zone=north\nr1 R\ng1 -> r1 road len=40\n")
    with pytest.raises(TypeError):
        g.node_attrs["g1"]["zone"] = "south"
    with pytest.raises(TypeError):
        g.edge_attrs[("g1", "r1")]["len"] = "1"
    h = g.car_enters("c1", "g1").car_moves("c1", "r1")
    assert h.node_attrs["g1"] is g.node_attrs["g1"]
    assert h.edge_attrs[("g1", "r1")] == {"len": "40"}


def test_two_cars_on_one_spot_rejected():
    g = load_graph("c1 C\nc2 C\np1 P\nc1 -> p1 at\n")
    with pytest.raises(GraphError, match="parking place occupied: p1"):
        g.add_edge("c2", "p1", AT)
    assert g.car_position("c2") is None
    with pytest.raises(GraphError, match="^line 5: parking place occupied: p1$"):
        load_graph("c1 C\nc2 C\np1 P\nc1 -> p1 at\nc2 -> p1 at\n")
    g.add_edge("c1", "p1", AT)  # placing a car where it is changes nothing
    copied = g.copy()
    assert not copied.is_free("p1") and copied._occupancy == {"p1"}
    copied.exit("c1")
    assert copied.is_free("p1") and not g.is_free("p1")


def test_second_at_edge_rejected():
    g = parking_fixture().car_enters("c1", "g1")
    with pytest.raises(GraphError, match="second at edge"):
        g.add_edge("c1", "g2", "at")
    assert g.car_position("c1") == "g1"
    assert ("c1", "g2") not in g.edges
    with pytest.raises(GraphError, match="second at edge"):
        load_graph("c1 C\ng1 G\ng2 G\nc1 -> g1 at\nc1 -> g2 at\n")


def test_in_place_steps_match_the_copying_transformations():
    rng = random.Random(37)
    stepped = parking_fixture()
    copied = parking_fixture()
    gates = stepped.nodes_with_label("G")
    targets = gates + stepped.nodes_with_label("R") + stepped.nodes_with_label("P") + ["nowhere"]
    cars = [f"car{i}" for i in range(6)]
    rejected = 0
    for _ in range(1500):
        car = rng.choice(cars)
        op = rng.choice(("enter", "move", "move", "exit"))
        arg = rng.choice(gates + ["r1"]) if op == "enter" else rng.choice(targets)
        before = save_graph(stepped)
        try:
            if op == "enter":
                stepped.enter(car, arg)
            elif op == "move":
                stepped.move(car, arg)
            else:
                stepped.exit(car)
        except GraphError as err:
            rejected += 1
            assert save_graph(stepped) == before  # a rejected step changes nothing
            with pytest.raises(GraphError, match=re.escape(str(err))):
                if op == "enter":
                    copied.car_enters(car, arg)
                elif op == "move":
                    copied.car_moves(car, arg)
                else:
                    copied.car_exits(car)
        else:
            if op == "enter":
                copied = copied.car_enters(car, arg)
            elif op == "move":
                copied = copied.car_moves(car, arg)
            else:
                copied = copied.car_exits(car)
        assert stepped == copied
        assert save_graph(stepped) == save_graph(copied)
        assert stepped._position == copied._position
        assert stepped._occupancy == copied._occupancy
        assert_indexes_match_edges(stepped, cars)
    assert 100 < rejected < 1400


@pytest.mark.parametrize(
    "src, dst, label, message",
    [
        ("g1", "c1", "road", "edge into a car"),
        ("c2", "c1", "at", "edge into a car"),
        ("c1", "r1", "road", "road edge out of a car"),
        ("r1", "g1", "at", "at edge out of a non-car"),
    ],
)
def test_only_a_cars_at_edge_touches_it(src, dst, label, message):
    g = parking_fixture().car_enters("c1", "g1").car_enters("c2", "g2")
    before = save_graph(g)
    with pytest.raises(GraphError, match=message):
        g.add_edge(src, dst, label)
    assert save_graph(g) == before
    text = parking_fixture_text() + f"c1 C\nc2 C\nc1 -> g1 at\n{src} -> {dst} {label}\n"
    with pytest.raises(GraphError, match=message):
        load_graph(text)


# -- nearest free spot -------------------------------------------------------


def nearest_oracle(g, start):
    dg = nx.DiGraph()
    dg.add_nodes_from(g.labels)
    dg.add_edges_from(e for e, lab in g.edges.items() if lab != "at")
    dist = nx.single_source_shortest_path_length(dg, start)
    free = [
        (d, n)
        for n, d in dist.items()
        if g.labels[n] == "P" and g.is_free(n)
    ]
    return min(free)[1] if free else None


def test_nearest_free_from_gate():
    g = parking_fixture()
    assert g.nearest_free_spot("g2") == nearest_oracle(g, "g2")
    assert g.nearest_free_spot("g1") == nearest_oracle(g, "g1")


def test_nearest_skips_occupied():
    g = parking_fixture()
    first = g.nearest_free_spot("g2")
    g = g.car_enters("c1", "g2").car_moves("c1", first)
    second = g.nearest_free_spot("g2")
    assert second != first
    assert second == nearest_oracle(g, "g2")


def test_nearest_none_when_unreachable():
    g = WorldGraph()
    g.add_node("g1", "G")
    g.add_node("p1", "P")
    assert g.nearest_free_spot("g1") is None


def test_nearest_matches_oracle_random():
    rng = random.Random(17)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(3, 60))
        start = rng.choice(sorted(g.labels))
        assert g.nearest_free_spot(start) == nearest_oracle(g, start)


def test_nearest_free_spot_follows_random_transformations():
    rng = random.Random(31)
    g = parking_fixture()
    nodes = sorted(g.labels)
    gates = g.nodes_with_label("G")
    targets = gates + g.nodes_with_label("R") + g.nodes_with_label("P")
    cars = [f"car{i}" for i in range(6)]
    for _ in range(300):
        prev = g
        start = rng.choice(gates)
        assert prev.nearest_free_spot(start) == nearest_oracle(prev, start)
        car = rng.choice(cars)
        op = rng.choice(("enter", "move", "move", "exit", "road", "car road", "at"))
        try:
            if op == "enter":
                g = g.car_enters(car, rng.choice(gates))
            elif op == "move":
                g = g.car_moves(car, rng.choice(targets))
            elif op == "exit":
                g = g.car_exits(car)
            else:
                # in place, on a graph that may share its adjacency with prev
                g = g.car_enters("probe", gates[0]).car_exits("probe")
                if op == "car road":  # a road through a car: gone when it exits
                    g.add_edge(rng.choice(nodes), car, "road")
                    g.add_edge(car, rng.choice(nodes), "road")
                else:
                    g.add_edge(rng.choice(nodes), rng.choice(nodes), AT if op == "at" else "road")
        except GraphError:
            pass
        for start in gates:
            assert g.nearest_free_spot(start) == nearest_oracle(g, start)
        assert prev.nearest_free_spot(start) == nearest_oracle(prev, start)


def test_car_transformations_keep_the_road_adjacency():
    g = parking_fixture()
    g.nearest_free_spot("g1")
    entered = g.car_enters("c1", "g1")
    moved = entered.car_moves("c1", "r1")
    assert entered._roads is g._roads and moved._roads is g._roads
    assert moved.car_exits("c1")._roads is g._roads


# -- split / glue ------------------------------------------------------------


def test_split_fixture():
    g = parking_fixture()
    p = split(g, 3)
    assert len(p.parts) == 3
    # each edge in exactly one part
    assert sum(len(part.edges) for part in p.parts) == len(g.edges)
    # border nodes live in more than one part
    for node in p.border_nodes:
        assert sum(node in part.labels for part in p.parts) > 1
    assert glue(p) == g


def test_split_glue_random():
    rng = random.Random(23)
    for _ in range(10):
        g = random_graph(rng, rng.randrange(2, 200))
        for k in (1, 2, 3, 5):
            if k <= len(g.labels):
                p = split(g, k)
                assert glue(p) == g
                held = {node: sum(node in part.labels for part in p.parts) for node in g.labels}
                assert p.border_nodes == {node for node, parts in held.items() if parts > 1}


def test_split_invalid_k():
    g = parking_fixture()
    with pytest.raises(GraphError):
        split(g, 0)
    with pytest.raises(GraphError):
        split(g, len(g.labels) + 1)


def test_glue_rejects_conflicts():
    a = WorldGraph()
    a.add_node("n", "R")
    b = WorldGraph()
    b.add_node("n", "P")
    with pytest.raises(GraphError, match="conflicting"):
        glue(GraphPartition([a, b], {"n"}))


def test_glue_empty():
    with pytest.raises(GraphError):
        glue(GraphPartition([], set()))


# -- misc --------------------------------------------------------------------


def test_export_dot_shapes():
    g = parking_fixture().car_enters("c1", "g1")
    dot = export_dot(g)
    assert dot.startswith("digraph")
    assert '"c1" -> "g1" [label="at"]' in dot
    assert "doubleoctagon" in dot and "box" in dot


def test_normalize_node_id():
    known = set(all_spots()) | set(all_gates())
    assert normalize_node_id("p0018", known) == "p018"
    assert normalize_node_id("p018", known) == "p018"
    assert normalize_node_id("g02", known) == "g2"
    assert normalize_node_id("other", known) == "other"
    assert normalize_node_id("p0042", set()) == "p42"
    # the digits are ASCII and compared as text, so any length is read
    assert normalize_node_id("p" + "0" * 5000 + "18", known) == "p018"
    for raw in ("p\u00b2", "p\u0661\u0668", "p" + "1" * 5000):
        assert normalize_node_id(raw, known) == raw
    # ties go to the first match in sorted order
    assert normalize_node_id("p18", {"p018", "p0018"}) == "p0018"
