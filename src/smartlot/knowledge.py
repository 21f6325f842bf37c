"""Event log, per-user specification store and behaviour mining.

Observed trips become temporal formulas (`gate -> F spot`), repeated
behaviour bumps an occurrence counter, and gates a user never visits turn
into `G !gate` after enough trips.  When a fresh observation contradicts the
stored specification, the offending formulas are found with the prover and
removed.
"""

from __future__ import annotations

import csv
import io
import logging
import re
from collections.abc import ItemsView
from dataclasses import dataclass, field
from datetime import datetime

from .formulas import (
    Always,
    And,
    Atom,
    Eventually,
    Formula,
    Implies,
    Not,
    atoms,
    eventually_atoms,
    parse,
    pretty,
)
from .tableaux import UNSATISFIABLE, is_satisfiable

log = logging.getLogger(__name__)

# the event example timestamp form t2014.01.28.09.30.15 is accepted on input
LEGACY_TS_RE = re.compile(r"t(\d{4})\.(\d{2})\.(\d{2})\.(\d{2})\.(\d{2})\.(\d{2})")


class KnowledgeError(ValueError):
    pass


def parse_timestamp(text: str) -> datetime:
    text = text.strip()
    m = LEGACY_TS_RE.fullmatch(text)
    if m:
        return datetime(*(int(x) for x in m.groups()))
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        raise KnowledgeError(f"unparseable timestamp: {text!r}") from None


@dataclass(frozen=True)
class EventRecord:
    user: str
    node: str
    timestamp: datetime


@dataclass
class EventLog:
    events: list[EventRecord] = field(default_factory=list)
    _last: dict[str, datetime] = field(default_factory=dict)

    def record(self, event: EventRecord) -> None:
        last = self._last.get(event.user)
        if last is not None and event.timestamp < last:
            raise KnowledgeError(
                f"out-of-order timestamp for {event.user}: "
                f"{event.timestamp.isoformat()} after {last.isoformat()}"
            )
        self.events.append(event)
        self._last[event.user] = event.timestamp

    def for_user(self, user: str) -> list[EventRecord]:
        return [e for e in self.events if e.user == user]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        for e in self.events:
            writer.writerow([e.user, e.node, e.timestamp.isoformat()])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, known_nodes: set[str] | None = None) -> "EventLog":
        from .worldgraph import normalize_node_id

        log_ = cls()
        for lineno, row in enumerate(csv.reader(io.StringIO(text)), start=1):
            if not row:
                continue
            if len(row) != 3:
                raise KnowledgeError(f"line {lineno}: expected user,node,timestamp")
            user, node, ts = (cell.strip() for cell in row)
            if known_nodes is not None:
                node = normalize_node_id(node, known_nodes)
            if known_nodes is not None and node not in known_nodes:
                raise KnowledgeError(f"line {lineno}: unknown node id {row[1].strip()!r}")
            try:
                log_.record(EventRecord(user, node, parse_timestamp(ts)))
            except KnowledgeError as err:
                raise KnowledgeError(f"line {lineno}: {err}") from None
        return log_


@dataclass(frozen=True)
class SpecTriple:
    user: str
    formula: Formula
    r: int


@dataclass(frozen=True)
class Trip:
    user: str
    entry_gate: str
    parked_spot: str | None = None
    exit_gate: str | None = None


class SpecStore:
    """Per-user set of (formula, occurrence count) pairs; (user, formula)
    is unique under structural formula equality.  Rows are kept per user,
    the way the decision path reads them."""

    def __init__(self):
        self._by_user: dict[str, dict[Formula, int]] = {}

    def upsert(self, user: str, formula: Formula) -> int:
        rows = self._by_user.setdefault(user, {})
        rows[formula] = rows.get(formula, 0) + 1
        return rows[formula]

    def insert(self, user: str, formula: Formula, r: int) -> None:
        if r < 1:
            raise KnowledgeError(f"occurrence count must be positive: {r}")
        self._by_user.setdefault(user, {})[formula] = r

    def remove(self, user: str, formula: Formula) -> None:
        rows = self._by_user[user]
        del rows[formula]
        if not rows:
            del self._by_user[user]

    def contains(self, user: str, formula: Formula) -> bool:
        return formula in self._by_user.get(user, ())

    def counts(self, user: str) -> ItemsView[Formula, int]:
        """(formula, r) pairs of one user, in no particular order."""
        return self._by_user.get(user, {}).items()

    def triples(self, user: str | None = None) -> list[SpecTriple]:
        """Rows ordered by user, then descending r, then formula text."""
        users = sorted(self._by_user) if user is None else [user]
        out = []
        for u in users:
            rows = [SpecTriple(u, f, r) for f, r in self._by_user.get(u, {}).items()]
            rows.sort(key=lambda t: (-t.r, pretty(t.formula)))
            out += rows
        return out

    def scale(self, factor: int) -> "SpecStore":
        if factor < 1:
            raise KnowledgeError(f"scale factor must be positive: {factor}")
        out = SpecStore()
        for u, rows in self._by_user.items():
            out._by_user[u] = {f: r * factor for f, r in rows.items()}
        return out

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._by_user.values())

    # -- persistence: user TAB formula TAB r ------------------------------

    def to_tsv(self) -> str:
        return "".join(
            f"{t.user}\t{pretty(t.formula)}\t{t.r}\n" for t in self.triples()
        )

    @classmethod
    def from_tsv(cls, text: str) -> "SpecStore":
        store = cls()
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise KnowledgeError(f"line {lineno}: expected user<TAB>formula<TAB>r")
            user, formula_text, r = parts
            formula = parse(formula_text)
            try:
                store.insert(user, formula, int(r))
            except ValueError:  # not an integer, or below 1
                raise KnowledgeError(f"line {lineno}: count must be a positive integer: {r!r}") from None
        return store


# ---------------------------------------------------------------------------
# Mining


def mine_trip(trip: Trip) -> list[Formula]:
    """A parked trip yields `entry_gate -> F parked_spot`; a pass-through
    trip yields nothing."""
    if not trip.entry_gate:
        raise KnowledgeError("trip without an entry gate")
    if trip.parked_spot is None:
        return []
    return [Implies(Atom(trip.entry_gate), Eventually(Atom(trip.parked_spot)))]


def infer_never_gates(
    store: SpecStore,
    user: str,
    trip_count: int,
    used_gates: set[str],
    threshold: int,
    gates: set[str],
) -> list[Formula]:
    """After `threshold` completed trips, assert `G !gate` for every gate the
    user never entered or left by.  Returns the formulas added."""
    if trip_count < threshold:
        return []
    added = []
    for gate in sorted(gates - used_gates):
        formula = Always(Not(Atom(gate)))
        if not store.contains(user, formula):
            store.insert(user, formula, 1)
            added.append(formula)
    return added


# ---------------------------------------------------------------------------
# Specification assembly and contradiction resolution


def _relevant(formula: Formula, observation: Formula) -> bool:
    # a stored formula matters when it shares an atom with the observation
    # or promises an eventually-reached spot
    return bool(atoms(formula) & atoms(observation)) or bool(eventually_atoms(formula))


def spec_formula(store: SpecStore, user: str, observation: Formula) -> Formula:
    """Conjunction analyzed on a new observation.  Always-shaped knowledge
    (never-entered gates) goes before the observation, preference formulas
    after, each inner group by descending r then formula text."""
    triples = [
        t for t in store.triples(user) if _relevant(t.formula, observation)
    ]
    before = [t.formula for t in triples if isinstance(t.formula, Always)]
    after = [t.formula for t in triples if not isinstance(t.formula, Always)]
    combined = None
    for f in before + [observation] + after:
        combined = f if combined is None else And(combined, f)
    return combined


def resolve_contradiction(
    store: SpecStore, user: str, observation: Formula
) -> list[Formula]:
    """Check that the user's specification contradicts the observation, then
    retract what causes it (see `retract_inconsistent`)."""
    combined = spec_formula(store, user, observation)
    if is_satisfiable(combined) != UNSATISFIABLE:
        raise KnowledgeError("no contradiction to resolve")
    return retract_inconsistent(store, user, observation)


def retract_inconsistent(
    store: SpecStore, user: str, observation: Formula
) -> list[Formula]:
    """Remove every stored formula that is singly inconsistent with the
    observation.  Mutates the store; returns the removed formulas."""
    removed = []
    for triple in store.triples(user):
        if is_satisfiable(And(observation, triple.formula)) == UNSATISFIABLE:
            store.remove(user, triple.formula)
            removed.append(triple.formula)
    if not removed:
        log.warning(
            "joint-only contradiction for user %s at %s: store left unchanged",
            user,
            pretty(observation),
        )
    return removed
