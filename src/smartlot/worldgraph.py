"""Labeled, attributed digraph of the parking world.

Node labels: G (gateway), R (road segment), P (parking place), C (car).
Gateway and parking-place ids become atoms of the mined formulas, so
`add_node` rejects a G or P id that is not an atom name (`[a-z][a-zA-Z0-9]*`).
A car's only edge is its position: the single outgoing `at` edge of its C
node.  `add_edge` rejects a second one, any edge into a C node, any other
edge out of one and any `at` edge out of a node that is not a car.
Occupancy of a spot is derived purely from incoming `at` edges.  Both are
indexed, so `car_position` and `is_free` are dict lookups.

Each car transformation is one in-place step: `enter`, `move` and `exit`
run all their checks before they change anything, so a rejected step
leaves the graph untouched, and each costs O(1).  `car_enters`,
`car_moves` and `car_exits` are the same steps on a `copy()`, for callers
that keep the old graph; the simulator copies its scenario's graph once
and steps that copy.  Node and edge attributes are read-only mappings,
shared between a graph and its copies.  So is the road adjacency
(`road_successors`) that `nearest_free_spot` and the scenario builder's
routes walk: it is built on first use and dropped only when a non-`at`
edge changes, which no car step does.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType

from .formulas import ATOM_RE

NODE_LABELS = {"G", "R", "P", "C"}
AT = "at"
_NO_ATTRS = MappingProxyType({})


class GraphError(ValueError):
    pass


@dataclass
class WorldGraph:
    labels: dict[str, str] = field(default_factory=dict)  # node -> label
    edges: dict[tuple[str, str], str] = field(default_factory=dict)  # (src, dst) -> label
    node_attrs: dict[str, MappingProxyType] = field(default_factory=dict)
    edge_attrs: dict[tuple[str, str], MappingProxyType] = field(default_factory=dict)
    # indexes derived from `edges`: car -> node it is at, node -> number of cars at it
    _position: dict[str, str] = field(init=False, repr=False, compare=False)
    _occupancy: dict[str, int] = field(init=False, repr=False, compare=False)
    # node -> successors over non-`at` edges in id order; None until first needed
    _roads: dict[str, list[str]] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.node_attrs = {n: MappingProxyType(dict(a)) for n, a in self.node_attrs.items()}
        self.edge_attrs = {e: MappingProxyType(dict(a)) for e, a in self.edge_attrs.items()}
        self._position = {}
        self._occupancy = {}
        for (src, dst), lab in self.edges.items():
            self._check_edge(src, dst, lab)
            if lab == AT:
                self._place(src, dst)

    # -- queries ----------------------------------------------------------

    @property
    def nodes(self) -> set[str]:
        return set(self.labels)

    def nodes_with_label(self, label: str) -> list[str]:
        return sorted(n for n, l in self.labels.items() if l == label)

    def has_node(self, node: str) -> bool:
        return node in self.labels

    def label(self, node: str) -> str:
        try:
            return self.labels[node]
        except KeyError:
            raise GraphError(f"unknown node: {node}") from None

    def car_position(self, car: str) -> str | None:
        return self._position.get(car)

    def is_free(self, spot: str) -> bool:
        if self.label(spot) != "P":
            raise GraphError(f"not a parking place: {spot}")
        return spot not in self._occupancy

    def copy(self) -> "WorldGraph":
        """An independent graph equal to this one.  The outer dicts are
        copied; the read-only attribute mappings and the road adjacency,
        which is replaced but never mutated, are shared."""
        g = object.__new__(WorldGraph)
        g.__dict__ = {name: dict(value) for name, value in vars(self).items() if name != "_roads"}
        g._roads = self._roads
        return g

    def _place(self, car: str, node: str) -> None:
        if car in self._position:
            raise GraphError(f"second at edge out of {car}")
        self._position[car] = node
        self._occupancy[node] = self._occupancy.get(node, 0) + 1

    def _unplace(self, car: str) -> None:
        node = self._position.pop(car)
        self._occupancy[node] -= 1
        if not self._occupancy[node]:
            del self._occupancy[node]

    def _remove_at_edge(self, car: str) -> None:
        edge = (car, self._position[car])
        del self.edges[edge]
        self.edge_attrs.pop(edge, None)
        self._unplace(car)

    def _check_edge(self, src: str, dst: str, label: str) -> None:
        for end in (src, dst):
            if end not in self.labels:
                raise GraphError(f"dangling edge endpoint: {end}")
        if self.labels[dst] == "C":
            raise GraphError(f"edge into a car: {src} -> {dst}")
        if (label == AT) != (self.labels[src] == "C"):
            kind = "non-car" if label == AT else "car"
            raise GraphError(f"{label} edge out of a {kind}: {src} -> {dst}")

    # -- construction -----------------------------------------------------

    def add_node(self, node: str, label: str, attrs: dict[str, str] | None = None) -> None:
        if node in self.labels:
            raise GraphError(f"duplicate node id: {node}")
        if label not in NODE_LABELS:
            raise GraphError(f"unknown node label {label!r} for node {node}")
        if label in ("G", "P") and not ATOM_RE.fullmatch(node):
            # gates and spots become atoms of the mined formulas
            raise GraphError(f"{label} node id is not an atom name: {node!r}")
        self.labels[node] = label
        self.node_attrs[node] = MappingProxyType(dict(attrs)) if attrs else _NO_ATTRS

    def add_edge(self, src: str, dst: str, label: str, attrs: dict[str, str] | None = None) -> None:
        self._check_edge(src, dst, label)
        # only cars have `at` edges and cars have no others, so an edge
        # replaced here keeps its kind
        if label != AT:
            self._roads = None
        elif (src, dst) not in self.edges:
            self._place(src, dst)
        self.edges[(src, dst)] = label
        self.edge_attrs[(src, dst)] = MappingProxyType(dict(attrs)) if attrs else _NO_ATTRS

    # -- parking transformations ------------------------------------------
    # In-place steps; each checks everything before its first change.

    def enter(self, car: str, gate: str) -> None:
        if self.labels.get(gate) != "G":
            raise GraphError(f"not a gateway: {gate}")
        if car in self.labels:
            raise GraphError(f"car already present: {car}")
        self.add_node(car, "C")
        self.add_edge(car, gate, AT)

    def move(self, car: str, node: str) -> None:
        if self.car_position(car) is None:
            raise GraphError(f"car not present: {car}")
        target_label = self.label(node)
        if target_label not in {"G", "R", "P"}:
            raise GraphError(f"cannot move onto a {target_label} node: {node}")
        if target_label == "P" and not self.is_free(node):
            raise GraphError(f"parking place occupied: {node}")
        self._remove_at_edge(car)
        self.add_edge(car, node, AT)

    def exit(self, car: str) -> None:
        if self.car_position(car) is None:
            raise GraphError(f"car not present: {car}")
        self._remove_at_edge(car)  # a car's only edge
        del self.labels[car]
        self.node_attrs.pop(car, None)

    # The same steps on a copy, leaving this graph untouched.

    def car_enters(self, car: str, gate: str) -> "WorldGraph":
        g = self.copy()
        g.enter(car, gate)
        return g

    def car_moves(self, car: str, node: str) -> "WorldGraph":
        g = self.copy()
        g.move(car, node)
        return g

    def car_exits(self, car: str) -> "WorldGraph":
        g = self.copy()
        g.exit(car)
        return g

    def road_successors(self) -> dict[str, list[str]]:
        """Each node's successors over non-`at` edges, in node id order.
        Built on first use and shared with copies, so it must not be changed."""
        if self._roads is None:
            self._roads = {}
            for (src, dst), lab in sorted(self.edges.items()):
                if lab != AT:
                    self._roads.setdefault(src, []).append(dst)
        return self._roads

    def nearest_free_spot(self, start: str) -> str | None:
        """Hop-nearest free P node from `start`, ties broken by node id.
        Car position edges are not traversable road topology."""
        self.label(start)  # existence check
        adj = self.road_successors()
        seen = {start}
        frontier = [start]
        while frontier:
            best = sorted(
                n for n in frontier if self.labels[n] == "P" and self.is_free(n)
            )
            if best:
                return best[0]
            nxt = []
            for node in frontier:
                for dst in adj.get(node, ()):
                    if dst not in seen:
                        seen.add(dst)
                        nxt.append(dst)
            frontier = nxt
        return None


# ---------------------------------------------------------------------------
# Text format: one record per line.
#   node: <id> <label> [key=value ...]
#   edge: <src> -> <dst> <label> [key=value ...]
# '#' starts a comment.


def load_graph(text: str) -> WorldGraph:
    g = WorldGraph()
    pending_edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if "->" in parts:
                i = parts.index("->")
                if i != 1 or len(parts) < 4:
                    raise GraphError(f"malformed edge record: {line!r}")
                src, dst, label = parts[0], parts[2], parts[3]
                attrs = _parse_attrs(parts[4:])
                pending_edges.append((src, dst, label, attrs))
            else:
                if len(parts) < 2:
                    raise GraphError(f"malformed node record: {line!r}")
                node, label = parts[0], parts[1]
                g.add_node(node, label, _parse_attrs(parts[2:]))
        except GraphError as err:
            raise GraphError(f"line {lineno}: {err}") from None
    for src, dst, label, attrs in pending_edges:
        g.add_edge(src, dst, label, attrs)
    return g


def _parse_attrs(parts: list[str]) -> dict[str, str]:
    attrs = {}
    for part in parts:
        if "=" not in part:
            raise GraphError(f"malformed attribute: {part!r}")
        key, value = part.split("=", 1)
        attrs[key] = value
    return attrs


def save_graph(g: WorldGraph) -> str:
    lines = []
    for node in sorted(g.labels):
        attrs = "".join(
            f" {k}={v}" for k, v in sorted(g.node_attrs.get(node, {}).items())
        )
        lines.append(f"{node} {g.labels[node]}{attrs}")
    for (src, dst) in sorted(g.edges):
        attrs = "".join(
            f" {k}={v}" for k, v in sorted(g.edge_attrs.get((src, dst), {}).items())
        )
        lines.append(f"{src} -> {dst} {g.edges[(src, dst)]}{attrs}")
    return "\n".join(lines) + ("\n" if lines else "")


def export_dot(g: WorldGraph) -> str:
    shape = {"G": "doubleoctagon", "R": "ellipse", "P": "box", "C": "oval"}
    lines = ["digraph world {"]
    for node in sorted(g.labels):
        lab = g.labels[node]
        lines.append(f'  "{node}" [label="{node} ({lab})", shape={shape[lab]}];')
    for (src, dst) in sorted(g.edges):
        lines.append(f'  "{src}" -> "{dst}" [label="{g.edges[(src, dst)]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Split / glue


@dataclass
class GraphPartition:
    parts: list[WorldGraph]
    border_nodes: set[str]
    provenance: dict[str, int]  # node -> owning part


def split(g: WorldGraph, k: int) -> GraphPartition:
    """Greedy BFS growth from k seeds; every edge lands in exactly one part,
    endpoints are replicated where needed and recorded as border nodes."""
    if k < 1 or k > len(g.labels):
        raise GraphError(f"invalid part count: {k}")
    nodes = sorted(g.labels)
    seeds = [nodes[(i * len(nodes)) // k] for i in range(k)]
    adj: dict[str, set[str]] = {n: set() for n in nodes}
    for (src, dst) in g.edges:
        adj[src].add(dst)
        adj[dst].add(src)

    provenance: dict[str, int] = {}
    queues = [deque([s]) for s in seeds]
    remaining = set(nodes)
    while remaining:
        progressed = False
        for part, queue in enumerate(queues):
            while queue:
                node = queue.popleft()
                if node in remaining:
                    remaining.remove(node)
                    provenance[node] = part
                    for nb in sorted(adj[node]):
                        if nb in remaining:
                            queue.append(nb)
                    progressed = True
                    break
        if not progressed and remaining:
            # disconnected leftovers: hand them to the parts round-robin
            for i, node in enumerate(sorted(remaining)):
                queues[i % k].append(node)

    parts = [WorldGraph() for _ in range(k)]
    membership: dict[str, set[int]] = {n: set() for n in nodes}

    def ensure(part: int, node: str) -> None:
        if node not in parts[part].labels:
            parts[part].add_node(node, g.labels[node], g.node_attrs.get(node))
            membership[node].add(part)

    for node, part in provenance.items():
        ensure(part, node)
    for (src, dst), label in g.edges.items():
        part = provenance[src]
        ensure(part, src)
        ensure(part, dst)
        parts[part].add_edge(src, dst, label, g.edge_attrs.get((src, dst)))

    border = {n for n, ms in membership.items() if len(ms) > 1}
    return GraphPartition(parts, border, provenance)


def glue(p: GraphPartition) -> WorldGraph:
    if not p.parts:
        raise GraphError("empty partition")
    g = WorldGraph()
    for part in p.parts:
        for node in sorted(part.labels):
            if node not in g.labels:
                g.add_node(node, part.labels[node], part.node_attrs.get(node))
            elif g.labels[node] != part.labels[node]:
                raise GraphError(f"conflicting labels for replicated node {node}")
    for part in p.parts:
        for (src, dst), label in part.edges.items():
            if (src, dst) in g.edges:
                raise GraphError(f"edge duplicated across parts: {src} -> {dst}")
            g.add_edge(src, dst, label, part.edge_attrs.get((src, dst)))
    return g


def normalize_node_id(raw: str, known: set[str] | None = None) -> str:
    """Canonicalize ids like p0018 to the fixture form p018: match against
    known ids by (letter prefix, numeric value), else strip leading zeros."""
    if known and raw in known:
        return raw
    i = 0
    while i < len(raw) and not raw[i].isdigit():
        i += 1
    prefix, digits = raw[:i], raw[i:]
    if not digits.isdigit():
        return raw
    value = int(digits)
    if known:
        for cand in sorted(known):
            j = 0
            while j < len(cand) and not cand[j].isdigit():
                j += 1
            if cand[:j] == prefix and cand[j:].isdigit() and int(cand[j:]) == value:
                return cand
    return f"{prefix}{value}"
