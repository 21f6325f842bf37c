"""Built-in parking world: three gates on a ring road with ~20 spots.

Used by the scenario generator, the demo scenario and the test suites.
"""

from __future__ import annotations

from .worldgraph import WorldGraph, load_graph

_SPOT_PLACEMENT = {
    "r2": ["p010", "p011", "p012"],
    "r3": ["p015", "p016", "p017"],
    "r5": ["p018", "p019", "p020"],
    "r6": ["p001", "p002", "p003"],
    "r7": ["p005", "p006"],
    "r9": ["p021", "p022", "p023"],
    "r10": ["p025", "p026", "p027"],
}

_GATE_PLACEMENT = {"g1": "r1", "g2": "r4", "g3": "r8"}


def parking_fixture_text() -> str:
    lines = ["# built-in parking space: 3 gates, ring road r1..r10, 20 spots"]
    lines += [f"{gate} G" for gate in sorted(_GATE_PLACEMENT)]
    lines += [f"r{i} R" for i in range(1, 11)]
    for road in sorted(_SPOT_PLACEMENT):
        lines += [f"{spot} P" for spot in _SPOT_PLACEMENT[road]]
    for gate, road in sorted(_GATE_PLACEMENT.items()):
        lines.append(f"{gate} -> {road} road")
        lines.append(f"{road} -> {gate} road")
    for i in range(1, 11):
        nxt = i % 10 + 1
        lines.append(f"r{i} -> r{nxt} road")
        lines.append(f"r{nxt} -> r{i} road")
    for road in sorted(_SPOT_PLACEMENT):
        for spot in _SPOT_PLACEMENT[road]:
            lines.append(f"{road} -> {spot} road")
            lines.append(f"{spot} -> {road} road")
    return "\n".join(lines) + "\n"


def parking_fixture() -> WorldGraph:
    return load_graph(parking_fixture_text())


def all_spots() -> list[str]:
    return sorted(s for spots in _SPOT_PLACEMENT.values() for s in spots)


def all_gates() -> list[str]:
    return sorted(_GATE_PLACEMENT)
