"""Seeded inputs for the benchmark workloads, built by the benchmark itself.

Everything here produces text (scenario files and formula strings), so the
program under test only ever sees generated inputs, never this module's
data structures.  The same seed always gives the same text.
"""

from __future__ import annotations

import random
from datetime import datetime, timedelta

# ---------------------------------------------------------------------------
# rush: a large lot with many cars parked at once

RING_ROADS = 10
SPOTS_PER_ROAD = 20
GATE_ROADS = {"g1": 1, "g2": 3, "g3": 5, "g4": 7, "g5": 9}
NEVER_GATE_THRESHOLD = 3  # the simulator's default DecisionConfig value
RUSH_START = datetime(2014, 1, 28, 6, 0, 0)
HOT_SPOTS = 12  # most favourites are drawn from this many spots
MEAN_GAP_S = 95  # mean time between arrivals
STEP_S = 20  # time between two detections of one car
AWAY_SHARE = 0.25  # share of entries through another gate, once habits are known


def road(i: int) -> str:
    return f"r{i:02d}"


def spot(i: int) -> str:
    return f"p{i:03d}"


def spots_of(road_index: int) -> list[str]:
    first = (road_index - 1) * SPOTS_PER_ROAD + 1
    return [spot(i) for i in range(first, first + SPOTS_PER_ROAD)]


ALL_SPOTS = [s for r in range(1, RING_ROADS + 1) for s in spots_of(r)]
SPOT_ROAD = {s: r for r in range(1, RING_ROADS + 1) for s in spots_of(r)}


def rush_lot_text() -> str:
    """Ring of road segments; gates and spots hang off the ring as leaves,
    so a shortest route between two leaves never passes through a gate."""
    lines = [f"# rush lot: {len(GATE_ROADS)} gates, ring r01..r{RING_ROADS:02d}, {len(ALL_SPOTS)} spots"]
    lines += [f"{g} G" for g in sorted(GATE_ROADS)]
    lines += [f"{road(i)} R" for i in range(1, RING_ROADS + 1)]
    lines += [f"{s} P" for s in ALL_SPOTS]
    for g, r in sorted(GATE_ROADS.items()):
        lines += [f"{g} -> {road(r)} road", f"{road(r)} -> {g} road"]
    for i in range(1, RING_ROADS + 1):
        j = i % RING_ROADS + 1
        lines += [f"{road(i)} -> {road(j)} road", f"{road(j)} -> {road(i)} road"]
    for s in ALL_SPOTS:
        r = road(SPOT_ROAD[s])
        lines += [f"{r} -> {s} road", f"{s} -> {r} road"]
    return "\n".join(lines) + "\n"


def ring_path(a: int, b: int) -> list[str]:
    """Road nodes from ring position a to b, both included, the short way
    round (clockwise on a tie)."""
    forward = (b - a) % RING_ROADS
    step = 1 if forward <= RING_ROADS - forward else -1
    out = [a]
    while out[-1] != b:
        out.append((out[-1] - 1 + step) % RING_ROADS + 1)
    return [road(i) for i in out]


def rush_timeline(seed: int, drivers: int = 240, trips_per_driver: int = 5) -> list[tuple[int, str, str]]:
    """Interleaved trips as (seconds from start, user, node), sorted by time.

    Cars arrive with exponential gaps and stay one to three hours, which
    keeps roughly mean stay / mean gap cars in the lot.  Most favourites are
    drawn from a small hot set, so they are often taken.  From a driver's
    (threshold + 1)-th trip on, AWAY_SHARE of entries use another gate
    than the home gate.  A spot is reserved from its car's entry to its
    exit, so no car moves onto a taken spot, and a driver's next trip
    starts only after the previous exit.
    """
    rng = random.Random(seed)
    gates = sorted(GATE_ROADS)
    hot = rng.sample(ALL_SPOTS, HOT_SPOTS)
    users = [f"car{i:04d}" for i in range(1, drivers + 1)]
    home, first, second = {}, {}, {}
    for u in users:
        home[u] = rng.choice(gates)
        first[u] = rng.choice(hot) if rng.random() < 0.85 else rng.choice(ALL_SPOTS)
        second[u] = rng.choice([s for s in ALL_SPOTS if s != first[u]])
    left = {u: trips_per_driver for u in users}
    busy_until = {u: -1 for u in users}
    spot_free_at = {s: -1 for s in ALL_SPOTS}
    events: list[tuple[int, int, str, str]] = []
    seq = 0
    t = 0
    while any(left.values()):
        t += max(1, round(rng.expovariate(1 / MEAN_GAP_S)))
        ready = [u for u in users if left[u] and busy_until[u] < t]
        if not ready:
            continue
        user = rng.choices(ready, weights=[left[u] for u in ready])[0]
        done = trips_per_driver - left[user]
        gate = home[user]
        if done > NEVER_GATE_THRESHOLD - 1 and rng.random() < AWAY_SHARE:
            gate = rng.choice([g for g in gates if g != gate])
        for choice in (first[user], second[user]):
            if spot_free_at[choice] < t:
                target = choice
                break
        else:
            target = rng.choice([s for s in ALL_SPOTS if spot_free_at[s] < t])
        inbound = ring_path(GATE_ROADS[gate], SPOT_ROAD[target])
        nodes = [gate] + inbound + [target]
        clock = t
        for node in nodes:
            events.append((clock, seq, user, node))
            seq += 1
            clock += STEP_S
        clock += rng.randint(3600, 3 * 3600)
        for node in list(reversed(inbound)) + [gate]:
            events.append((clock, seq, user, node))
            seq += 1
            clock += STEP_S
        exit_time = clock - STEP_S
        busy_until[user] = exit_time
        spot_free_at[target] = exit_time
        left[user] -= 1
    events.sort()
    return [(when, user, node) for when, _, user, node in events]


def rush_scenario_text(seed: int, **params) -> str:
    lines = [rush_lot_text(), "timeline:\n"]
    for when, user, node in rush_timeline(seed, **params):
        stamp = (RUSH_START + timedelta(seconds=when)).isoformat()
        lines.append(f"{stamp},{user},{node}\n")
    return "".join(lines)


def max_in_lot(timeline: list[tuple[int, str, str]]) -> tuple[int, float]:
    """Peak and time-weighted mean number of cars inside the lot."""
    inside: set[str] = set()
    peak = 0
    area = 0
    last = timeline[0][0] if timeline else 0
    for when, user, node in timeline:
        area += len(inside) * (when - last)
        last = when
        if node in GATE_ROADS:
            inside ^= {user}
        peak = max(peak, len(inside))
    span = timeline[-1][0] - timeline[0][0] if timeline else 0
    return peak, (area / span if span else 0.0)


# ---------------------------------------------------------------------------
# proofs: formula texts for the prover

CORPUS_ATOMS = ("p", "q", "r", "s")
CORPUS_CONNECTIVES = 12


def _grow(rng: random.Random, budget: int, depth: int):
    """Random syntax tree as nested tuples, in the shape the test suite's
    formula generator uses: at most `budget` connectives, temporal nesting
    at most `depth`."""
    if budget <= 0:
        return ("atom", rng.choice(CORPUS_ATOMS))
    kinds = ["atom", "not", "and", "or", "implies", "iff"]
    if depth > 0:
        kinds += ["F", "G"] * 2
    kind = rng.choice(kinds)
    if kind == "atom":
        return ("atom", rng.choice(CORPUS_ATOMS))
    if kind == "not":
        return ("not", _grow(rng, budget - 1, depth))
    if kind in ("F", "G"):
        return (kind, _grow(rng, budget - 1, depth - 1))
    split = rng.randint(0, budget - 1)
    return (kind, _grow(rng, split, depth), _grow(rng, budget - 1 - split, depth))


def _nnf_eventually(node, negated: bool = False) -> int:
    """Number of F operators in the tree's negation normal form."""
    kind = node[0]
    if kind == "atom":
        return 0
    if kind == "not":
        return _nnf_eventually(node[1], not negated)
    if kind in ("F", "G"):
        own = 1 if (kind == "F") != negated else 0
        return own + _nnf_eventually(node[1], negated)
    left, right = node[1], node[2]
    if kind == "implies":
        return _nnf_eventually(left, not negated) + _nnf_eventually(right, negated)
    if kind == "iff":
        # both polarities of each side occur in the normal form
        return sum(_nnf_eventually(side, n) for side in (left, right) for n in (False, True))
    return _nnf_eventually(left, negated) + _nnf_eventually(right, negated)


def _atoms(node) -> set[str]:
    if node[0] == "atom":
        return {node[1]}
    return set().union(*(_atoms(child) for child in node[1:]))


_INFIX = {"and": "&", "or": "|", "implies": "->", "iff": "<->"}


def _text(node) -> str:
    kind = node[0]
    if kind == "atom":
        return node[1]
    if kind == "not":
        return "!" + _text(node[1])
    if kind in ("F", "G"):
        return f"{kind} " + _text(node[1])
    return f"({_text(node[1])} {_INFIX[kind]} {_text(node[2])})"


def random_corpus(seed: int, count: int) -> list[str]:
    """Set (a): random formulas with at most 4 atoms, CORPUS_CONNECTIVES
    connectives and temporal depth 2; draws whose normal form has more than
    four F operators are redrawn.  The connective budget cycles through
    1..CORPUS_CONNECTIVES, so every seed gives the same mix of sizes."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        tree = _grow(rng, 1 + len(out) % CORPUS_CONNECTIVES, 2)
        if _nnf_eventually(tree) <= 4 and len(_atoms(tree)) <= 4:
            out.append(_text(tree))
    return out


def arrival_specs(seed: int, count: int) -> list[tuple[str, bool]]:
    """Set (b): specifications shaped like the decision agent's input,
    `G !gi & ... & g & (g -> F p) & ...`, with 5-20 preferences for the
    arrival gate and up to three for other gates.  A third arrive at a gate
    the driver was said never to use; those must be unsatisfiable.  Sizes
    follow the index, so every seed gives the same mix; the seed picks the
    gates and spots.  Returns (text, expected satisfiable)."""
    rng = random.Random(seed)
    gates = sorted(GATE_ROADS)
    out = []
    for i in range(count):
        arrival = rng.choice(gates)
        others = [g for g in gates if g != arrival]
        never = rng.sample(others, i % 4)
        contradicting = i % 3 == 0
        if contradicting:
            never.append(arrival)
        parts = [f"G !{g}" for g in sorted(never)] + [arrival]
        prefs = [(arrival, s) for s in rng.sample(ALL_SPOTS, 5 + i % 16)]
        prefs += [(rng.choice(others), rng.choice(ALL_SPOTS)) for _ in range(i // 4 % 4)]
        parts += [f"({g} -> F {s})" for g, s in prefs]
        out.append((" & ".join(parts), not contradicting))
    return out


def worst_case_family(max_k: int = 7) -> list[str]:
    """Set (c): `F a1 & ... & F ak & G x & G (!x | y) & G !y`, every member
    unsatisfiable; the realizability search grows about 15x per step."""
    out = []
    for k in range(1, max_k + 1):
        parts = [f"F a{i}" for i in range(1, k + 1)] + ["G x", "G (!x | y)", "G !y"]
        out.append(" & ".join(parts))
    return out
