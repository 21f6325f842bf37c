"""Deterministic discrete-event driver for parking scenarios.

Detections are processed in timestamp order (input order on ties); every
gateway entry triggers a preference decision before the car proceeds.  The
report is a pure function of the scenario, so two runs with the same inputs
serialize byte-identically.  `run` walks the timeline once and checks each
detection as it applies it; an error for one read from a scenario file names
its line, as `mine`'s errors do.  `parse_scenario` reads a scenario file
through `worldgraph.numbered_lines` and hands the graph section's lines
straight to `read_graph`, so every line number is the one an editor shows.
A timeline row is cut at `#` only when it holds one and split at `,` once;
only a row that is not three cells is stripped whole.  A `Detection`, one
per row, is a plain slotted record, and `run` only reads it.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from datetime import datetime, timedelta

from . import fixtures
from .agents import FALLBACK_CANDIDATE, PREFERRED, DecisionConfig, Followers, PreferenceDecision, a3_decide
from .knowledge import KnowledgeError, SpecStore, infer_never_gates, mine_trip, parse_timestamp
from .worldgraph import GraphError, WorldGraph, at_line, numbered_lines, read_graph, save_graph


class ScenarioError(ValueError):
    pass


@dataclass(slots=True)
class Detection:
    timestamp: datetime
    user: str
    node: str
    line: int | None = field(default=None, compare=False)  # in the scenario file


@dataclass
class Scenario:
    graph: WorldGraph
    timeline: list[Detection]
    config: DecisionConfig = DecisionConfig()


@dataclass
class SimulationStats:
    trips: int = 0
    contradictions_resolved: int = 0
    suggestions_followed: int = 0


@dataclass
class SimulationReport:
    decisions: list[PreferenceDecision]
    final_store: SpecStore
    final_graph: WorldGraph
    stats: SimulationStats
    followers_alive: int = 0


def run(scenario: Scenario) -> SimulationReport:
    """Replay the timeline on one copy of the scenario's graph, which the
    run owns and steps in place; the scenario is left untouched.  The
    followers classify each detection: one that closes a trip is an exit, a
    gateway detection that closes none is an entry, any other is a move."""
    graph = scenario.graph.copy()
    store = SpecStore()
    gates = set(graph.nodes_with_label("G"))

    followers = Followers()
    trip_count: dict[str, int] = {}
    used_gates: dict[str, set[str]] = {}
    last_suggestion: dict[str, str | None] = {}
    decisions: list[PreferenceDecision] = []
    stats = SimulationStats()

    last = None
    try:
        for det in scenario.timeline:
            user, node = det.user, det.node
            if last is not None and det.timestamp < last:
                raise ScenarioError(f"timeline not sorted at {det.timestamp.isoformat()}")
            last = det.timestamp
            label = graph.labels.get(node)
            if label is None:
                raise ScenarioError(f"timeline references unknown node: {node}")
            trip = followers.observe(user, node, label)
            if trip is not None:
                for formula in mine_trip(trip):
                    store.upsert(user, formula)
                count = trip_count[user] = trip_count.get(user, 0) + 1
                used = used_gates.setdefault(user, set())
                used |= {trip.entry_gate, trip.exit_gate}
                infer_never_gates(store, user, count, used, gates)
                graph.exit(user)
                stats.trips += 1
                if trip.parked_spot is not None and trip.parked_spot == last_suggestion.get(user):
                    stats.suggestions_followed += 1
            elif label == "G":
                decision, removed = a3_decide(store, graph, user, node, scenario.config)
                if removed:
                    stats.contradictions_resolved += 1
                decisions.append(decision)
                last_suggestion[user] = decision.suggestion
                graph.enter(user, node)
            else:
                graph.move(user, node)
    except (ScenarioError, KnowledgeError, GraphError) as err:
        if det.line is None:
            raise
        raise at_line(err, det.line) from None

    return SimulationReport(
        decisions=decisions,
        final_store=store,
        final_graph=graph,
        stats=stats,
        followers_alive=len(followers),
    )


# ---------------------------------------------------------------------------
# Scenario text format: a graph section, then `timeline:` followed by
# `timestamp,user,node` lines.


def parse_scenario(text: str, config: DecisionConfig = DecisionConfig()) -> Scenario:
    lines = numbered_lines(text)
    graph_lines = []
    for lineno, raw in lines:
        if raw.split("#", 1)[0].strip() == "timeline:":
            break
        graph_lines.append((lineno, raw))
    else:
        raise ScenarioError("scenario has no `timeline:` section")
    graph = read_graph(graph_lines)
    timeline = []
    try:
        for lineno, raw in lines:  # the rest, after `timeline:`
            if "#" in raw:
                raw = raw.partition("#")[0]
            cells = raw.split(",")
            if len(cells) != 3:
                if not raw.strip():  # a blank or comment-only line
                    continue
                raise ScenarioError("expected timestamp,user,node")
            stamp, user, node = cells  # parse_timestamp strips its cell
            timeline.append(Detection(parse_timestamp(stamp), user.strip(), node.strip(), lineno))
    except (ScenarioError, KnowledgeError) as err:  # a bad timestamp too is a scenario error
        raise at_line(ScenarioError(err), lineno) from None
    return Scenario(graph, timeline, config)


def serialize_scenario(s: Scenario) -> str:
    out = save_graph(s.graph) + "timeline:\n"
    for d in s.timeline:
        out += f"{d.timestamp.isoformat()},{d.user},{d.node}\n"
    return out


def serialize_report(report: SimulationReport) -> str:
    lines = ["decisions:"]
    for d in report.decisions:
        if d.suggestion is None:
            verdict = f"no suggestion ({d.rationale})"
        elif d.rationale in (PREFERRED, FALLBACK_CANDIDATE):
            r = dict(d.candidates).get(d.suggestion, 0)
            verdict = f"suggest {d.suggestion} ({d.rationale}, r={r})"
        else:
            verdict = f"suggest {d.suggestion} ({d.rationale})"
        lines.append(f"  {d.user} @ {d.gate}: {verdict}")
    lines.append("store:")
    for line in report.final_store.to_tsv().splitlines():
        lines.append(f"  {line}")
    lines.append("stats:")
    lines.append(f"  trips: {report.stats.trips}")
    lines.append(f"  contradictions_resolved: {report.stats.contradictions_resolved}")
    lines.append(f"  suggestions_followed: {report.stats.suggestions_followed}")
    lines.append(f"  followers_alive: {report.followers_alive}")
    lines.append("graph:")
    for line in save_graph(report.final_graph).splitlines():
        lines.append(f"  {line}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Scenario construction


def _route(graph: WorldGraph, start: str, goal: str) -> list[str]:
    """Shortest road route between two nodes, visiting successors in node
    id order."""
    successors = graph.road_successors()
    prev: dict[str, str] = {start: start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if node == goal:
            path = [node]
            while node != start:
                node = prev[node]
                path.append(node)
            return list(reversed(path))
        for dst in successors.get(node, ()):
            if dst not in prev:
                prev[dst] = node
                queue.append(dst)
    raise ScenarioError(f"no route from {start} to {goal}")


class TimelineBuilder:
    """Detections along shortest routes, one every 30 seconds."""

    STEP = timedelta(seconds=30)

    def __init__(self, graph: WorldGraph, start: datetime):
        self.graph = graph
        self.clock = start
        self.detections: list[Detection] = []

    def tick(self, user: str, node: str) -> None:
        self.detections.append(Detection(self.clock, user, node))
        self.clock += self.STEP

    def trip(self, user: str, gate: str, spot: str) -> None:
        """Enter at `gate`, park at `spot` and leave by `gate` again."""
        self.enter_and_park(user, gate, spot)
        for node in _route(self.graph, spot, gate)[1:]:
            self.tick(user, node)

    def enter_and_park(self, user: str, gate: str, spot: str) -> None:
        self.tick(user, gate)
        for node in _route(self.graph, gate, spot)[1:]:
            self.tick(user, node)


def demo_scenario(
    occupied: tuple[str, ...] = (),
    config: DecisionConfig = DecisionConfig(),
) -> Scenario:
    """The worked smart-parking story: idKR55 parks at p018 seven times and
    at p015 twice, always via gate g2, then shows up at g2 once more.  Spots
    listed in `occupied` are taken by other cars before that final entry."""
    graph = fixtures.parking_fixture()
    b = TimelineBuilder(graph, datetime(2014, 1, 28, 8, 0, 0))
    for _ in range(7):
        b.trip("idKR55", "g2", "p018")
    for _ in range(2):
        b.trip("idKR55", "g2", "p015")
    for i, spot in enumerate(occupied):
        b.enter_and_park(f"blocker{i + 1}", "g1", spot)
    b.tick("idKR55", "g2")
    return Scenario(graph, b.detections, config)


def never_gate_scenario() -> Scenario:
    """Three trips avoiding gate g3 (so `G !g3` is asserted), then an entry
    at g3 forcing contradiction resolution."""
    graph = fixtures.parking_fixture()
    b = TimelineBuilder(graph, datetime(2014, 1, 28, 8, 0, 0))
    b.trip("idKR55", "g2", "p018")
    b.trip("idKR55", "g2", "p018")
    b.trip("idKR55", "g1", "p010")
    b.tick("idKR55", "g3")
    return Scenario(graph, b.detections)


def generate(
    seed: int,
    users: int,
    trips_per_user: int,
    spot_affinity: float,
) -> Scenario:
    """Synthetic scenario: each user favors one spot and parks there with
    probability `spot_affinity`, otherwise at a random other spot."""
    if users < 1 or trips_per_user < 1:
        raise ScenarioError("users and trips_per_user must be positive")
    if not 0.0 <= spot_affinity <= 1.0:
        raise ScenarioError("spot_affinity must be within [0, 1]")
    rng = random.Random(seed)
    graph = fixtures.parking_fixture()
    spots = fixtures.all_spots()
    gates = fixtures.all_gates()
    b = TimelineBuilder(graph, datetime(2014, 1, 28, 6, 0, 0))
    profiles = []
    for i in range(users):
        profiles.append(
            (f"car{i + 1:03d}", rng.choice(gates), rng.choice(spots))
        )
    for user, gate, favorite in profiles:
        for _ in range(trips_per_user):
            if rng.random() < spot_affinity:
                spot = favorite
            else:
                spot = rng.choice([s for s in spots if s != favorite])
            b.trip(user, gate, spot)
    return Scenario(graph, b.detections)
