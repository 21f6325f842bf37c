"""Three-tier agent hierarchy: node agents detect, follower agents track a
car through one trip, the decision agent answers "which spot should this
user take" from the specification store and a truth-tree search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formulas import Atom, Formula, conjoin
from .knowledge import (
    KnowledgeError,
    SpecStore,
    Trip,
    retract_inconsistent,
    spec_conjuncts,
)

# build_tree is unused here but stays bound: the benchmark's hooks rebind a
# function in every smartlot module that holds it, and its self-test
# (perfbench/test_perfbench.py::test_hooks_bind_and_restore) reads
# smartlot.agents.build_tree
from .tableaux import build_tree, consequences  # noqa: F401
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


# -- A1: node agents --------------------------------------------------------


def a1_detect(graph: WorldGraph, node: str, user: str) -> str:
    """The graph transformation a detection implies: a gateway detection is
    an entry for an absent car and an exit for a present one; anything else
    is a move."""
    label = graph.label(node)
    present = graph.car_position(user) is not None
    if label == "G":
        return EXIT if present else ENTER
    if not present:
        raise GraphError(f"car {user} detected at {node} before entering")
    return MOVE


# -- A2: follower agents ----------------------------------------------------


class Followers:
    """One follower per car inside the lot, segmenting its detections into
    trips: a gateway opens a trip for an absent user and closes it for a
    present one, and the trip is parked at the last P node seen between."""

    def __init__(self) -> None:
        self._open: dict[str, tuple[str, str | None]] = {}  # user -> (entry gate, parked spot)

    def observe(self, user: str, node: str, label: str) -> Trip | None:  # A2 -> A3
        """Follow one detection; returns the trip it closes, if any."""
        current = self._open.get(user)
        if label == "G":
            if current is None:
                self._open[user] = (node, None)
                return None
            del self._open[user]
            return Trip(user, current[0], current[1], node)
        if current is None:
            raise KnowledgeError(f"user {user} detected at {node} before entering")
        if label == "P":
            self._open[user] = (current[0], node)
        return None

    def __len__(self) -> int:
        return len(self._open)


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

    found = _consequences(store, spec_conjuncts(store, user, observation))
    removed: list[Formula] = []
    if found is None:
        # every branch closes: that is the contradiction; retract its causes
        # and search again
        removed = retract_inconsistent(store, user, observation)
        found = _consequences(store, spec_conjuncts(store, user, observation))

    spots = {a for a in found or () if graph.has_node(a) and graph.label(a) == "P"}

    # a spot's weight is the largest r among the formulas promising it
    weight: dict[str, int] = {}
    for formula, r in store.counts(user):
        for spot in store.facts(formula).spots:
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
    )
    return decision, removed


def _consequences(store: SpecStore, conjuncts: list[Formula]) -> frozenset[str] | None:
    """`consequences` of the conjunction, searched once per distinct set of
    conjuncts: the result does not depend on their order."""
    key = frozenset(conjuncts)
    try:
        return store.proofs[key]
    except KeyError:
        found = store.proofs[key] = consequences(conjoin(conjuncts))
        return found
