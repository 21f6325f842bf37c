"""Labeled, attributed digraph of the parking world.

Node labels: G (gateway), R (road segment), P (parking place), C (car).
Gateway and parking-place ids become atoms of the mined formulas, so
`add_node` rejects a G or P id that is not an atom name (`[a-z][a-zA-Z0-9]*`).
A car's only edge is its position, one `at` edge out of its C node, and a
position has no attributes.  `add_edge` rejects a second `at` edge, one with
attributes, one onto a spot another car holds, any edge into a car, any
other edge out of one and any `at` edge out of a node that is not a car.
`WorldGraph()` is empty; these two methods build every graph, in `load_graph`
(which names the line of each rejected record), `split` and `glue`.  They
also reject what `save_graph` could not write back (`_check_words`), as
`enter` does a car id that is not one word (`is_word`, the one id rule),
so `load_graph(save_graph(g)) == g` for every graph built.  The
text-format section owns what a line of any input file is
(`numbered_lines`) and how an error names it (`at_line`).

The position map (car -> node) owns where each car is; beside it are only
the occupancy index (the set of spots a car is at) that `is_free` reads and
the road edges (every edge but `at`).  `edges` is a read-only view of both
kinds, built on each read.  `enter`, `move` and `exit` are in-place steps of
a few dict operations, each checking everything before its first change;
`car_enters`, `car_moves` and `car_exits` make the same step on a `copy()`.
Node and edge attributes are read-only mappings shared with copies (a node
or edge with none has no entry), and so is the road adjacency
(`road_successors`), which no car step changes.
"""

from __future__ import annotations

import re
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from types import MappingProxyType

from .formulas import ATOM_RE

NODE_LABELS = {"G", "R", "P", "C"}
AT = "at"
NUMBERED_ID_RE = re.compile(r"([^0-9]*)([0-9]+)")  # [0-9] is ASCII only, unlike \d


class GraphError(ValueError):
    pass


class WorldGraph:
    def __init__(self) -> None:
        """An empty graph; `add_node` and `add_edge` build it."""
        self.labels: dict[str, str] = {}  # node -> label
        self.node_attrs: dict[str, MappingProxyType] = {}
        self.edge_attrs: dict[tuple[str, str], MappingProxyType] = {}
        self._road_edges: dict[tuple[str, str], str] = {}  # every edge but `at`
        self._position: dict[str, str] = {}  # car -> node it is at
        self._occupancy: set[str] = set()  # spots a car is at
        # node -> successors over road edges in id order; None until first needed
        self._roads: dict[str, list[str]] | None = None

    @property
    def edges(self) -> MappingProxyType:
        """(src, dst) -> label for the road edges and each car's `at` edge."""
        at = {(car, node): AT for car, node in self._position.items()}
        return MappingProxyType({**self._road_edges, **at})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorldGraph):
            return NotImplemented
        mine = (self.labels, self._position, self._road_edges, self.node_attrs, self.edge_attrs)
        return mine == (other.labels, other._position, other._road_edges, other.node_attrs, other.edge_attrs)

    # -- queries ----------------------------------------------------------

    def nodes_with_label(self, label: str) -> list[str]:
        return sorted(n for n, l in self.labels.items() if l == label)

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
        """An independent graph equal to this one.  The dicts and the
        occupancy set are copied; the read-only attribute mappings and the
        road adjacency, which is replaced but never mutated, are shared."""
        g = object.__new__(WorldGraph)
        g.__dict__ = {k: v if k == "_roads" else v.copy() for k, v in vars(self).items()}
        return g

    # -- construction -----------------------------------------------------

    def add_node(self, node: str, label: str, attrs: dict[str, str] | None = None) -> None:
        if node in self.labels:
            raise GraphError(f"duplicate node id: {node}")
        if label not in NODE_LABELS:
            raise GraphError(f"unknown node label {label!r} for node {node}")
        if label in ("G", "P") and not ATOM_RE.fullmatch(node):
            # gates and spots become atoms of the mined formulas
            raise GraphError(f"{label} node id is not an atom name: {node!r}")
        _check_words(node, attrs)
        self.labels[node] = label
        if attrs:
            self.node_attrs[node] = MappingProxyType(dict(attrs))

    def add_edge(self, src: str, dst: str, label: str, attrs: dict[str, str] | None = None) -> None:
        """Add or replace an edge.  An `at` edge places the car `src` at
        `dst`; placing it where it already is changes nothing."""
        for end in (src, dst):
            if end not in self.labels:
                raise GraphError(f"dangling edge endpoint: {end}")
        if self.labels[dst] == "C":
            raise GraphError(f"edge into a car: {src} -> {dst}")
        if (label == AT) != (self.labels[src] == "C"):
            kind = "non-car" if label == AT else "car"
            raise GraphError(f"{label} edge out of a {kind}: {src} -> {dst}")
        _check_words(label, attrs)
        edge = (src, dst)
        if label != AT:
            self._road_edges[edge] = label
            self.edge_attrs.pop(edge, None)
            if attrs:
                self.edge_attrs[edge] = MappingProxyType(dict(attrs))
            self._roads = None
            return
        if attrs:
            raise GraphError(f"at edge with attributes: {src} -> {dst}")
        node = self._position.get(src)
        if node is None:
            if dst in self._occupancy:
                raise GraphError(f"parking place occupied: {dst}")
            self._position[src] = dst
            if self.labels[dst] == "P":
                self._occupancy.add(dst)
        elif node != dst:
            raise GraphError(f"second at edge out of {src}")

    # -- parking transformations ------------------------------------------
    # In-place steps; each checks everything before its first change.

    def enter(self, car: str, gate: str) -> None:
        if self.labels.get(gate) != "G":
            raise GraphError(f"not a gateway: {gate}")
        if car in self.labels:
            clash = "car already present" if self.labels[car] == "C" else "car id names a node of the lot"
            raise GraphError(f"{clash}: {car}")
        if not is_word(car):
            raise GraphError(f"not one word of a graph record: {car!r}")
        self.labels[car] = "C"
        self._position[car] = gate

    def move(self, car: str, node: str) -> None:
        old = self._position.get(car)
        if old is None:
            raise GraphError(f"car not present: {car}")
        label = self.label(node)
        if label not in ("G", "R", "P"):
            raise GraphError(f"cannot move onto a {label} node: {node}")
        if node in self._occupancy:
            raise GraphError(f"parking place occupied: {node}")
        self._occupancy.discard(old)
        self._position[car] = node
        if label == "P":
            self._occupancy.add(node)

    def exit(self, car: str) -> None:
        node = self._position.pop(car, None)
        if node is None:
            raise GraphError(f"car not present: {car}")
        self._occupancy.discard(node)
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
        """Each node's successors over road edges, in node id order.
        Built on first use and shared with copies, so it must not be changed."""
        if self._roads is None:
            self._roads = {}
            for src, dst in sorted(self._road_edges):
                self._roads.setdefault(src, []).append(dst)
        return self._roads

    def nearest_free_spot(self, start: str) -> str | None:
        """Hop-nearest free P node from `start` over road edges, ties broken
        by node id."""
        self.label(start)  # existence check
        adj = self.road_successors()
        seen = {start}
        frontier = [start]
        while frontier:
            free = [n for n in frontier if self.labels[n] == "P" and n not in self._occupancy]
            if free:
                return min(free)
            nxt = []
            for node in frontier:
                for dst in adj.get(node, ()):
                    if dst not in seen:
                        seen.add(dst)
                        nxt.append(dst)
            frontier = nxt
        return None


def is_word(text: str) -> bool:
    """Whether text is an id: one `str.split` word (so not empty and no
    whitespace), no `#` or `,` (graph records, timeline rows), not `->`."""
    return text.split() == [text] and "#" not in text and "," not in text and text != "->"


def _check_words(word: str, attrs: dict[str, str] | None) -> None:
    """Reject what `save_graph` could not write back as the same record: a
    node id or edge label, or an attribute written `key=value`, that is not
    a word (`is_word`), and an attribute key that holds `=`."""
    pairs = (attrs or {}).items()
    for text in (word, *(f"{key}={value}" for key, value in pairs)):
        if not is_word(text):
            raise GraphError(f"not one word of a graph record: {text!r}")
    for key, _ in pairs:
        if "=" in key:
            raise GraphError(f"attribute key holds '=': {key!r}")


# ---------------------------------------------------------------------------
# Text formats: `numbered_lines` splits every input file into lines, and
# `at_line` names one in an error.  A graph has one record per line:
#   node: <id> <label> [key=value ...]
#   edge: <src> -> <dst> <label> [key=value ...]
# '#' starts a comment.


def numbered_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, line) for each line of an input file, as an editor shows
    them: a line ends at "\n" only, and one "\r" before it is dropped."""
    return enumerate(text.replace("\r\n", "\n").split("\n"), 1)


def at_line(err: Exception, lineno: int) -> Exception:
    """err, its type kept, with `line N: ` before its message."""
    err.args = (f"line {lineno}: {err}",)
    return err


def load_graph(text: str) -> WorldGraph:
    return read_graph(numbered_lines(text))


def read_graph(lines: Iterable[tuple[int, str]]) -> WorldGraph:
    g = WorldGraph()
    stripped = ((lineno, raw.split("#", 1)[0].strip()) for lineno, raw in lines)
    records = [(lineno, line, line.split()) for lineno, line in stripped]
    # nodes before edges, so that an edge may name a node declared below it
    try:
        for lineno, line, parts in sorted(records, key=lambda record: "->" in record[2]):
            if "->" in parts:
                if parts.index("->") != 1 or len(parts) < 4:
                    raise GraphError(f"malformed edge record: {line!r}")
                g.add_edge(parts[0], parts[2], parts[3], _parse_attrs(parts[4:]))
            elif parts:
                if len(parts) < 2:
                    raise GraphError(f"malformed node record: {line!r}")
                g.add_node(parts[0], parts[1], _parse_attrs(parts[2:]))
    except GraphError as err:
        raise at_line(err, lineno) from None
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
    for (src, dst), label in sorted(g.edges.items()):
        attrs = "".join(
            f" {k}={v}" for k, v in sorted(g.edge_attrs.get((src, dst), {}).items())
        )
        lines.append(f"{src} -> {dst} {label}{attrs}")
    return "\n".join(lines) + ("\n" if lines else "")


def export_dot(g: WorldGraph) -> str:
    shape = {"G": "doubleoctagon", "R": "ellipse", "P": "box", "C": "oval"}
    lines = ["digraph world {"]
    for node, lab in sorted(g.labels.items()):
        text = _dot_quote(f"{node} ({lab})")
        lines.append(f"  {_dot_quote(node)} [label={text}, shape={shape[lab]}];")
    for (src, dst), label in sorted(g.edges.items()):
        lines.append(f"  {_dot_quote(src)} -> {_dot_quote(dst)} [label={_dot_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_quote(text: str) -> str:
    """A DOT quoted string; any id or label may hold a `"` or a `\\`."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


# ---------------------------------------------------------------------------
# Split / glue


@dataclass
class GraphPartition:
    parts: list[WorldGraph]
    border_nodes: set[str]


def split(g: WorldGraph, k: int) -> GraphPartition:
    """Greedy BFS growth from k seeds gives each node its own part.  An edge
    lands in its source's part; a target owned by another is copied in: a border node."""
    if k < 1 or k > len(g.labels):
        raise GraphError(f"invalid part count: {k}")
    nodes = sorted(g.labels)
    seeds = [nodes[(i * len(nodes)) // k] for i in range(k)]
    adj: dict[str, set[str]] = {n: set() for n in nodes}
    for (src, dst) in g.edges:
        adj[src].add(dst)
        adj[dst].add(src)

    provenance: dict[str, int] = {}  # node -> owning part
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
    for node, part in provenance.items():
        parts[part].add_node(node, g.labels[node], g.node_attrs.get(node))
    for (src, dst), label in g.edges.items():
        part = parts[provenance[src]]
        if dst not in part.labels:
            part.add_node(dst, g.labels[dst], g.node_attrs.get(dst))
        part.add_edge(src, dst, label, g.edge_attrs.get((src, dst)))
    border = {node for i, part in enumerate(parts) for node in part.labels if provenance[node] != i}
    return GraphPartition(parts, border)


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
    seen: set[tuple[str, str]] = set()
    for part in p.parts:
        for (src, dst), label in part.edges.items():
            if (src, dst) in seen:
                raise GraphError(f"edge duplicated across parts: {src} -> {dst}")
            seen.add((src, dst))
            g.add_edge(src, dst, label, part.edge_attrs.get((src, dst)))
    return g


def normalize_node_id(raw: str, known: set[str]) -> str:
    """Canonicalize ids like p0018 to the fixture form p018: match against
    known ids by prefix and ASCII digits compared as text without leading
    zeros, the first in sorted order winning, else strip leading zeros."""
    if raw in known:
        return raw
    key = _number_key(raw)
    if key is None:
        return raw
    for cand in sorted(known):
        if _number_key(cand) == key:
            return cand
    return "".join(key)


def _number_key(node: str) -> tuple[str, str] | None:
    """(prefix, ASCII digits without leading zeros) of an id like p0018."""
    found = NUMBERED_ID_RE.fullmatch(node)
    return None if found is None else (found[1], found[2].lstrip("0") or "0")
