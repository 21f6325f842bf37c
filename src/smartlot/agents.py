"""Three-tier agent hierarchy.  Node agents report a detection: the user,
the node and the node's label.  Follower agents decide whether it opens a
trip, continues it or closes it.  The decision agent answers "which spot
should this user take" by ranking what `knowledge.consult` finds in the
user's specification.  Their messages (`Trip`, `PreferenceDecision`) are
plain slotted records, built fresh for each trip and decision.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formulas import Formula
from .knowledge import KnowledgeError, SpecStore, Trip, arrival, consult

# build_tree is unused here but stays bound: the benchmark's hooks rebind a
# function in every smartlot module that holds it, and its self-test
# (perfbench/test_perfbench.py::test_hooks_bind_and_restore) reads
# smartlot.agents.build_tree
from .tableaux import build_tree  # noqa: F401
from .worldgraph import GraphError, WorldGraph

PREFERRED = "Preferred"
FALLBACK_CANDIDATE = "FallbackCandidate"
NEAREST_FREE = "NearestFree"
NO_SUGGESTION = "NoSuggestion"


@dataclass(frozen=True)
class DecisionConfig:
    fallback_nearest: bool = False


# -- messages ---------------------------------------------------------------


@dataclass(slots=True)
class PreferenceDecision:  # A3 -> user
    user: str
    gate: str
    suggestion: str | None
    candidates: tuple[tuple[str, int], ...]  # (spot, r), ranked
    rationale: str


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
    found, removed = consult(store, user, arrival(gate))

    # a spot's weight is the largest r among the formulas promising it
    weight: dict[str, int] = {}
    for facts, r in store.rows(user):
        for spot in facts.spots:
            if r > weight.get(spot, 0):
                weight[spot] = r
    # the P nodes found, by descending weight, then spot id
    labels = graph.labels
    keyed = [(-weight.get(a, 0), a) for a in found or () if labels.get(a) == "P"]
    ranked = tuple([(spot, -w) for w, spot in sorted(keyed)])

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

    return PreferenceDecision(user, gate, suggestion, ranked, rationale), removed
