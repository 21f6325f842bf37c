"""Command-line front end: prover, simulator, event mining and graph tools.

Exit codes: 0 success (for `prove`: satisfiable / valid), 1 refuted
(unsatisfiable / not valid), 2 usage or input error, or an internal error
(`error: internal error: <type>: <message>`).  Diagnostics go to
stderr, results to stdout or the chosen output file.
"""

from __future__ import annotations

import argparse
import codecs
import os
import sys
from pathlib import Path

from .agents import DecisionConfig, Followers
from .formulas import FormulaDepthError, FormulaSyntaxError, Not, parse
from .knowledge import KnowledgeError, SpecStore, mine_trip, read_events
from .simulator import (
    ScenarioError,
    demo_scenario,
    parse_scenario,
    run,
    serialize_report,
    serialize_scenario,
)
from .tableaux import SATISFIABLE, build_tree, export_tree, is_satisfiable
from .worldgraph import GraphError, GraphPartition, at_line, export_dot, glue, load_graph, save_graph


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smartlot",
        description="Temporal-logic preference engine for smart parking spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="decide satisfiability or validity of a formula")
    p.add_argument("formula", help="formula text, or '-' to read it from stdin")
    p.add_argument("--valid", action="store_true", help="decide validity instead")
    p.add_argument("--tree", choices=["ascii", "dot"], help="print the truth tree")

    p = sub.add_parser("simulate", help="run a scenario file")
    p.add_argument("scenario", help="scenario path, or '-' for the built-in demo")
    p.add_argument("-o", "--output", help="write the report here instead of stdout")
    p.add_argument("--dot-graph", help="also write the final world graph as DOT")
    p.add_argument("--fallback-nearest", action="store_true")

    p = sub.add_parser("mine", help="reconstruct trips from an event CSV")
    p.add_argument("events", help="CSV of user,node,timestamp")
    p.add_argument("graph", help="world graph file")
    p.add_argument("-o", "--output", help="write the knowledge TSV here")

    p = sub.add_parser("graph", help="graph utilities")
    gsub = p.add_subparsers(dest="graph_command", required=True)
    ps = gsub.add_parser("split", help="partition a graph file into k parts")
    ps.add_argument("path")
    ps.add_argument("-k", type=int, required=True)
    ps.add_argument("-o", "--output-prefix", required=True)
    pg = gsub.add_parser("glue", help="merge part files back into one graph")
    pg.add_argument("paths", nargs="+")
    pg.add_argument("-o", "--output")
    pd = gsub.add_parser("dot", help="render a graph file as Graphviz DOT")
    pd.add_argument("path")
    pd.add_argument("-o", "--output")

    p = sub.add_parser("demo", help="print the built-in demo scenario file")
    return parser


class InputError(ValueError):
    """An input file, or stdin, that is not UTF-8 text."""


def _decode(data: bytes, name: str) -> str:
    """The UTF-8 text of input `name`, with no newline translated: the
    readers split it.  A leading byte-order mark, which spreadsheet tools
    write, is dropped first, so an error still names its own byte."""
    data = data.removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode()
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise InputError(f"{name}: line {line}: not UTF-8 text (byte 0x{data[err.start]:02x})") from None


def _read(path: str) -> str:
    return _decode(Path(path).read_bytes(), path)


def _emit(text: str, output: str | None) -> None:
    """Write `text` as UTF-8, whatever the locale, to `output` or stdout."""
    data = text.encode()
    if output:
        Path(output).write_bytes(data)
    else:
        sys.stdout.flush()
        sys.stdout.buffer.write(data)


def cmd_prove(args) -> int:
    # '-' is never a formula; a formula longer than one command-line
    # argument may be comes in on stdin.  An argument's bytes are read as
    # UTF-8 too, so a byte that is not is reported as the byte it is
    if args.formula == "-":
        text = _decode(sys.stdin.buffer.read(), "<stdin>")
    else:
        text = _decode(os.fsencode(args.formula), "<argument>")
    formula = parse(text)
    # φ is valid when !(φ) has no open branch; that tree is the one shown
    subject = Not(formula) if args.valid else formula
    if args.tree:
        tree = build_tree(subject)
        is_open = tree.open
    else:
        is_open = is_satisfiable(subject) == SATISFIABLE
    if args.valid:
        print("NOT VALID" if is_open else "VALID")
    else:
        print("SAT" if is_open else "UNSAT")
    if args.tree:
        _emit(export_tree(tree, args.tree), None)
    return 0 if is_open != args.valid else 1


def cmd_simulate(args) -> int:
    config = DecisionConfig(fallback_nearest=args.fallback_nearest)
    if args.scenario == "-":
        scenario = demo_scenario(config=config)
    else:
        scenario = parse_scenario(_read(args.scenario), config)
    report = run(scenario)
    _emit(serialize_report(report), args.output)
    if args.dot_graph:
        _emit(export_dot(report.final_graph), args.dot_graph)
    return 0


def cmd_mine(args) -> int:
    graph = load_graph(_read(args.graph))
    store = SpecStore()
    followers = Followers()
    # a detection is at one of the lot's places, never at a parked car
    labels = graph.labels
    places = {node for node, label in labels.items() if label != "C"}
    for lineno, user, node in read_events(_read(args.events), places):
        label = labels[node]  # read_events has checked the node
        try:
            trip = followers.observe(user, node, label)
            if trip is None and label == "G" and user in labels:  # the row opened a trip
                raise KnowledgeError  # named below
        except KnowledgeError as err:  # a user's first row opens a trip or fails in observe
            if user in labels:  # it could not enter the lot as a car
                err = KnowledgeError(f"user id names a node of the lot: {user}")
            raise at_line(err, lineno) from None
        if trip is not None:
            for formula in mine_trip(trip):
                store.upsert(trip.user, formula)
    _emit(store.to_tsv(), args.output)
    return 0


def cmd_graph(args) -> int:
    from .worldgraph import split as split_graph

    if args.graph_command == "split":
        g = load_graph(_read(args.path))
        partition = split_graph(g, args.k)
        for i, part in enumerate(partition.parts):
            _emit(save_graph(part), f"{args.output_prefix}-{i}.graph")
        border = " ".join(sorted(partition.border_nodes))
        _emit(f"wrote {args.k} parts; border nodes: {border or '(none)'}\n", None)
        return 0
    if args.graph_command == "glue":
        parts = [load_graph(_read(p)) for p in args.paths]
        merged = glue(GraphPartition(parts, set()))
        _emit(save_graph(merged), args.output)
        return 0
    g = load_graph(_read(args.path))
    _emit(export_dot(g), args.output)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "prove":
            return cmd_prove(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "mine":
            return cmd_mine(args)
        if args.command == "graph":
            return cmd_graph(args)
        if args.command == "demo":
            _emit(serialize_scenario(demo_scenario()), None)
            return 0
    except (FormulaDepthError, RecursionError):
        # the parser stops at MAX_DEPTH nested levels; nothing after it
        # recurses, so RecursionError is only a last resort
        print("error: formula nested too deeply", file=sys.stderr)
        return 2
    except (FormulaSyntaxError, KnowledgeError, GraphError, ScenarioError, InputError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        # a fault of the program; a traceback would exit 1, which means "refuted"
        print(f"error: internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
