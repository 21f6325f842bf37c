"""Three-tier agent hierarchy: node agents detect, follower agents track a
car through one trip, the decision agent answers "which spot should this
user take" from the specification store and a truth tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime

from .formulas import Atom, Formula, eventually_atoms
from .knowledge import (
    EventRecord,
    SpecStore,
    Trip,
    retract_inconsistent,
    spec_formula,
)
from .tableaux import TruthTree, build_tree, open_consequences
from .worldgraph import GraphError, WorldGraph

ENTER = "enter"
MOVE = "move"
EXIT = "exit"

PREFERRED = "Preferred"
FALLBACK_CANDIDATE = "FallbackCandidate"
NEAREST_FREE = "NearestFree"
NO_SUGGESTION = "NoSuggestion"


@dataclass(frozen=True)
class DecisionConfig:
    fallback_nearest: bool = False
    never_gate_threshold: int = 3


# -- messages ---------------------------------------------------------------


@dataclass(frozen=True)
class PreferenceDecision:  # A3 -> user
    user: str
    gate: str
    suggestion: str | None
    candidates: tuple[tuple[str, int], ...]  # (spot, r), ranked
    rationale: str
    tree: TruthTree


# -- A1: node agents --------------------------------------------------------


def a1_detect(
    graph: WorldGraph, node: str, user: str, timestamp: datetime
) -> tuple[EventRecord, str]:
    """Event record plus the graph transformation the detection implies:
    a gateway detection is an entry for an absent car and an exit for a
    present one; anything else is a move."""
    label = graph.label(node)
    event = EventRecord(user, node, timestamp)
    present = graph.car_position(user) is not None
    if label == "G":
        return event, EXIT if present else ENTER
    if not present:
        raise GraphError(f"car {user} detected at {node} before entering")
    return event, MOVE


# -- A2: follower agents ----------------------------------------------------


@dataclass
class FollowerState:
    user: str
    entry_gate: str
    events: list[EventRecord] = field(default_factory=list)
    parked_spot: str | None = None
    defunct: bool = False


class FollowerError(RuntimeError):
    pass


def a2_spawn(user: str, gate: str) -> FollowerState:
    return FollowerState(user, gate)


def a2_update(state: FollowerState, event: EventRecord, node_label: str) -> FollowerState:
    if state.defunct:
        raise FollowerError(f"follower for {state.user} already finalized")
    state.events.append(event)
    if node_label == "P":
        state.parked_spot = event.node
    return state


def a2_finalize(state: FollowerState, exit_gate: str) -> Trip:  # A2 -> A3
    if state.defunct:
        raise FollowerError(f"follower for {state.user} already finalized")
    state.defunct = True
    return Trip(
        user=state.user,
        entry_gate=state.entry_gate,
        parked_spot=state.parked_spot,
        exit_gate=exit_gate,
        events=tuple(state.events),
    )


# -- A3: decision agent -----------------------------------------------------


def a3_decide(
    store: SpecStore,
    graph: WorldGraph,
    user: str,
    gate: str,
    config: DecisionConfig = DecisionConfig(),
) -> tuple[PreferenceDecision, list[Formula]]:
    """Preference decision for a user arriving at a gate.  Returns the
    decision plus the formulas removed by contradiction resolution (empty
    when the stored specification was consistent with the observation)."""
    if graph.label(gate) != "G":
        raise GraphError(f"not a gateway: {gate}")
    observation = Atom(gate)

    tree = build_tree(spec_formula(store, user, observation))
    removed: list[Formula] = []
    if tree.closed:
        # the closed tree is the contradiction; retract its causes and re-prove
        removed = retract_inconsistent(store, user, observation)
        tree = build_tree(spec_formula(store, user, observation))

    candidate_atoms: set[str] = set()
    for _, introduced in open_consequences(tree):
        candidate_atoms |= introduced
    spots = {a for a in candidate_atoms if graph.has_node(a) and graph.label(a) == "P"}

    # a spot's weight is the largest r among the formulas promising it
    weight: dict[str, int] = {}
    for formula, r in store.counts(user):
        for spot in eventually_atoms(formula):
            weight[spot] = max(weight.get(spot, 0), r)
    ranked = sorted(
        ((spot, weight.get(spot, 0)) for spot in spots),
        key=lambda item: (-item[1], item[0]),
    )

    suggestion = None
    rationale = NO_SUGGESTION
    for i, (spot, _) in enumerate(ranked):
        if graph.is_free(spot):
            suggestion = spot
            rationale = PREFERRED if i == 0 else FALLBACK_CANDIDATE
            break
    if suggestion is None and config.fallback_nearest:
        nearest = graph.nearest_free_spot(gate)
        if nearest is not None:
            suggestion = nearest
            rationale = NEAREST_FREE

    decision = PreferenceDecision(
        user=user,
        gate=gate,
        suggestion=suggestion,
        candidates=tuple(ranked),
        rationale=rationale,
        tree=tree,
    )
    return decision, removed
