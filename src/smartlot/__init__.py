"""Temporal-logic preference engine for smart parking spaces."""

from .formulas import (
    Always,
    And,
    Atom,
    Eventually,
    Formula,
    FormulaSyntaxError,
    Iff,
    Implies,
    Not,
    Or,
    atoms,
    nnf,
    parse,
    pretty,
)
from .tableaux import (
    SATISFIABLE,
    UNSATISFIABLE,
    VALID,
    NOT_VALID,
    TruthTree,
    build_tree,
    consequences,
    export_tree,
    is_satisfiable,
    is_valid,
    open_consequences,
)
from .worldgraph import GraphError, GraphPartition, WorldGraph, glue, load_graph, save_graph, split
from .knowledge import (
    EventLog,
    EventRecord,
    KnowledgeError,
    SpecStore,
    SpecTriple,
    Trip,
    infer_never_gates,
    mine_trip,
    resolve_contradiction,
    retract_inconsistent,
    spec_formula,
)
from .agents import DecisionConfig, Followers, PreferenceDecision, a1_detect, a3_decide
from .simulator import Scenario, SimulationReport, demo_scenario, generate, parse_scenario, run, serialize_report

__version__ = "0.1.0"
