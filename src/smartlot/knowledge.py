"""Event feed reader, per-user specification store and behaviour mining.

Observed trips become temporal formulas (`gate -> F spot`), repeated
behaviour bumps an occurrence counter, and gates a user never visits turn
into `G !gate` at the user's third completed trip.  When a fresh observation
contradicts the stored specification, the offending formulas are found with
the prover and removed.  The store interns each distinct formula as one
`FormulaFacts` (the canonical object, its text, atoms and spot atoms) under
its text, and rows and the exact proof memo are keyed by the facts object,
hashed by identity.  Behind that memo a second one, which every proof of
the store goes through, is keyed by a conjunction's shape, its texts up to
a one-to-one renaming of atoms, so drivers whose rows differ only in gate
and spot names share one proof.
"""

from __future__ import annotations

import csv
import functools
import io
import logging
import re
from collections.abc import ItemsView, Iterator
from dataclasses import dataclass
from datetime import datetime
from operator import itemgetter

from .formulas import (
    ATOM_RE,
    Always,
    Atom,
    Eventually,
    Formula,
    FormulaSyntaxError,
    Implies,
    Not,
    atoms,
    conjoin,
    parse,
    promised_atoms,
)
from .tableaux import consequences
from .worldgraph import at_line, is_word, normalize_node_id, numbered_lines

log = logging.getLogger(__name__)

# the event example timestamp form t2014.01.28.09.30.15 is accepted on input
LEGACY_TS_RE = re.compile(r"t([0-9]{4})\.([0-9]{2})\.([0-9]{2})\.([0-9]{2})\.([0-9]{2})\.([0-9]{2})")


class KnowledgeError(ValueError):
    pass


def parse_timestamp(text: str) -> datetime:
    """The naive datetime of a cell holding what `datetime.fromisoformat`
    reads (which shapes depends on the Python version) or a legacy stamp
    `t2014.01.28.09.30.15`, maybe padded by whitespace, with no UTC offset.
    The fast path hands the raw cell to `fromisoformat`, which refuses
    padding and a leading `t`; only a cell it refuses is stripped first."""
    try:
        timestamp = datetime.fromisoformat(text)
    except ValueError:
        text = text.strip()
        legacy = LEGACY_TS_RE.fullmatch(text) if text.startswith("t") else None
        try:
            timestamp = datetime(*map(int, legacy.groups())) if legacy else datetime.fromisoformat(text)
        except ValueError:
            raise KnowledgeError(f"unparseable timestamp: {text!r}") from None
    if timestamp.tzinfo is not None:
        raise KnowledgeError(f"timestamp with a UTC offset: {text!r}")
    return timestamp


def read_events(text: str, known_nodes: set[str]) -> Iterator[tuple[int, str, str]]:
    """Yield (line number, user, node) for each row of a user,node,timestamp
    CSV, checking each row as it is read: three cells, a user id that is
    one word (`worldgraph.is_word`, on the user's first row), a node id
    that normalizes to a known node, and a timestamp no earlier than the
    user's previous one.  Each error names its line."""
    nodes: dict[str, str] = {}  # raw node id -> normalized id
    last: dict[str, datetime] = {}
    reader = csv.reader(io.StringIO(text))
    end = 0
    try:
        for row in reader:
            # a row starts on the line after the previous one ends; a quoted
            # cell may span lines
            lineno, end = end + 1, reader.line_num
            if not row:
                continue
            if len(row) != 3:
                raise KnowledgeError("expected user,node,timestamp")
            user, raw, ts = row[0].strip(), row[1].strip(), row[2]
            previous = last.get(user)
            if previous is None and not is_word(user):  # the user's first row
                raise KnowledgeError(f"bad user id {user!r}: not one word of a graph record")
            node = nodes.get(raw)
            if node is None:
                node = nodes[raw] = normalize_node_id(raw, known_nodes)
            if node not in known_nodes:
                raise KnowledgeError(f"unknown node id {raw!r}")
            timestamp = parse_timestamp(ts)
            if previous is not None and timestamp < previous:
                raise KnowledgeError(
                    f"out-of-order timestamp for {user}: "
                    f"{timestamp.isoformat()} after {previous.isoformat()}"
                )
            last[user] = timestamp
            yield lineno, user, node
    except KnowledgeError as err:
        raise at_line(err, lineno) from None
    except csv.Error as err:  # a cell over csv.field_size_limit(), or a lone "\r" (a "new-line")
        message = "carriage return outside a quoted cell" if "new-line" in str(err) else err
        raise at_line(KnowledgeError(message), end + 1) from None


@dataclass(frozen=True)
class SpecTriple:
    user: str
    formula: Formula
    r: int


@dataclass(slots=True)
class Trip:
    user: str
    entry_gate: str
    parked_spot: str | None = None
    exit_gate: str | None = None


@dataclass(frozen=True, eq=False)
class FormulaFacts:
    """What the store reads of a stored formula, computed when it is
    interned: its canonical object, text, atoms and spot atoms
    (`promised_atoms`: so `!G !p` promises p, and `!F p` and `F !p`
    promise nothing).  A store makes one per distinct text, so
    equality and hashing are by identity."""

    formula: Formula
    text: str
    atoms: frozenset[str]
    spots: frozenset[str]


@functools.lru_cache(maxsize=4096)
def _shape(text: str) -> tuple[str, tuple[str, ...]]:
    """The shape of a formula's text: the text with each atom replaced by
    `_`, and its atoms in print order, once per occurrence.  Read when a
    decision first needs it, not when the formula is interned, so `mine`
    never pays for it; cached as `_preference` is, so that the stores of
    one process read a text once."""
    return ATOM_RE.sub("_", text), tuple(ATOM_RE.findall(text))


# the shape texts of the parts of a conjunction, in a canonical order, and
# the number of each atom occurrence in them (`shape_key`)
ShapeKey = tuple[tuple[str, ...], tuple[int, ...]]


class SpecStore:
    """Per-user set of (formula, occurrence count) pairs; (user, formula)
    is unique under formula equality, which is equality of the printed
    text.  Rows are kept per user, the way the decision path reads them.

    Each distinct formula is interned once under its text (`facts`), so
    interning prints a formula and hashes no `Formula`; rows are keyed by
    its facts object, which the store never drops.  `proofs` maps the set of
    facts of the conjuncts of each specification `consult` has read to its
    consequences (`tableaux.consequences`).  Behind it, `proof_shapes` maps
    the `shape_key` of each conjunction the store has searched, a
    specification or a pair of `retract_inconsistent`, to its consequences
    with each atom as its number in the key, so a conjunction that is
    another one renamed needs no search.  Every result depends on its key
    alone, so the memos stay exact as rows change; they die with the store."""

    def __init__(self):
        self._by_user: dict[str, dict[FormulaFacts, int]] = {}
        self._facts: dict[str, FormulaFacts] = {}  # formula text -> facts
        self.proofs: dict[frozenset[FormulaFacts], frozenset[str] | None] = {}
        self.proof_shapes: dict[ShapeKey, frozenset[int] | None] = {}

    def facts(self, formula: Formula) -> FormulaFacts:
        """The store's one facts object for formula, made on first sight."""
        text = str(formula)
        facts = self._facts.get(text)
        if facts is None:
            facts = self._facts[text] = FormulaFacts(
                formula,
                text,
                frozenset(atoms(formula)),
                frozenset(promised_atoms(formula)),
            )
        return facts

    def upsert(self, user: str, formula: Formula) -> int:
        facts = self.facts(formula)
        rows = self._by_user.setdefault(user, {})
        rows[facts] = rows.get(facts, 0) + 1
        return rows[facts]

    def insert(self, user: str, formula: Formula, r: int) -> None:
        if r < 1:
            raise KnowledgeError(f"occurrence count must be positive: {r}")
        self._by_user.setdefault(user, {})[self.facts(formula)] = r

    def insert_if_absent(self, user: str, formula: Formula) -> bool:
        """Add formula at count 1 unless the user holds it; whether it did."""
        rows = self._by_user.setdefault(user, {})
        size = len(rows)
        rows.setdefault(self.facts(formula), 1)
        return len(rows) > size

    def remove(self, user: str, facts: FormulaFacts) -> None:
        rows = self._by_user[user]
        del rows[facts]
        if not rows:
            del self._by_user[user]

    def contains(self, user: str, formula: Formula) -> bool:
        facts = self._facts.get(str(formula))
        return facts is not None and facts in self._by_user.get(user, ())

    def rows(self, user: str) -> ItemsView[FormulaFacts, int]:
        """(facts, r) pairs of one user, in no particular order."""
        return self._by_user.get(user, {}).items()

    def _sorted(self, user: str | None) -> Iterator[tuple[str, FormulaFacts, int]]:
        """(user, facts, r) rows in the order of `triples`."""
        for u in sorted(self._by_user) if user is None else [user]:
            for facts, r in sorted(self.rows(u), key=_row_order):
                yield u, facts, r

    def triples(self, user: str | None = None) -> list[SpecTriple]:
        """Rows ordered by user, then descending r, then formula text."""
        return [SpecTriple(u, facts.formula, r) for u, facts, r in self._sorted(user)]

    def scale(self, factor: int) -> "SpecStore":
        if factor < 1:
            raise KnowledgeError(f"scale factor must be positive: {factor}")
        out = SpecStore()
        out._facts = dict(self._facts)
        for u, rows in self._by_user.items():
            out._by_user[u] = {f: r * factor for f, r in rows.items()}
        return out

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._by_user.values())

    # -- persistence: user TAB formula TAB r ------------------------------

    def to_tsv(self) -> str:
        return "".join(f"{u}\t{facts.text}\t{r}\n" for u, facts, r in self._sorted(None))

    @classmethod
    def from_tsv(cls, text: str) -> "SpecStore":
        store = cls()
        first: dict[tuple[str, FormulaFacts], int] = {}  # row -> its line
        try:
            for lineno, line in numbered_lines(text):
                if not line.strip():
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise KnowledgeError("expected user<TAB>formula<TAB>r")
                user, formula_text, r = parts
                if not is_word(user):
                    raise KnowledgeError(f"bad user id {user!r}: not one word of a graph record")
                formula = parse(formula_text)
                try:
                    # int() would also read " 3", "+3" and non-ASCII digits
                    store.insert(user, formula, int(r) if r.isascii() and r.isdigit() else 0)
                except ValueError:  # not ASCII digits, or below 1
                    raise KnowledgeError(f"count must be a positive integer: {r!r}") from None
                # two texts of one formula, such as "a" and "(a)", are one row
                facts = store.facts(formula)
                if first.setdefault((user, facts), lineno) != lineno:
                    raise KnowledgeError(
                        f"duplicate row for {user}: {facts.text} (first on line {first[user, facts]})"
                    )
        except (KnowledgeError, FormulaSyntaxError) as err:  # each keeps its type
            raise at_line(err, lineno) from None
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
    return [_preference(trip.entry_gate, trip.parked_spot)]


@functools.lru_cache(maxsize=4096)
def _preference(gate: str, spot: str) -> Formula:
    """`gate -> F spot`, one shared object per pair while it stays cached, so
    that it is printed once, for `SpecStore` to find it by its text.  Nothing
    changes its slotted nodes after building, as its hash depends on that;
    the bound only caps what a long process with many lots keeps."""
    return Implies(Atom(gate), Eventually(Atom(spot)))


@functools.lru_cache(maxsize=4096)
def _never(gate: str) -> Formula:
    """`G !gate`, one shared object per gate, as `_preference`."""
    return Always(Not(Atom(gate)))


@functools.lru_cache(maxsize=4096)
def arrival(gate: str) -> Formula:
    """The observation `gate` of an arrival, one shared object per gate, as
    `_preference`."""
    return Atom(gate)


# The completed trip at which a user's never-gates are asserted, once: later
# trips only shrink the unused set, and retraction takes back only `G !g` for
# a gate g the user enters by, which joins the used gates by that trip's end.
NEVER_GATE_TRIPS = 3


def infer_never_gates(
    store: SpecStore,
    user: str,
    trip_count: int,
    used_gates: set[str],
    gates: set[str],
) -> list[Formula]:
    """On the user's NEVER_GATE_TRIPS-th completed trip, assert `G !gate` for
    every gate the user never entered or left by; returns the formulas added."""
    if trip_count != NEVER_GATE_TRIPS:
        return []
    return [f for f in map(_never, sorted(gates - used_gates)) if store.insert_if_absent(user, f)]


# ---------------------------------------------------------------------------
# Specification assembly and contradiction resolution


def spec_conjuncts(store: SpecStore, user: str, observation: Formula) -> list[Formula]:
    """Conjuncts analyzed on a new observation: the stored formulas that
    share an atom with it or promise an eventually-reached spot.
    Always-shaped knowledge (never-entered gates) goes before the
    observation, preference formulas after, each inner group by descending
    r then formula text."""
    counts = store._by_user.get(user, {})
    return _conjuncts([(f, counts[f]) for f in _analyzed_rows(counts, atoms(observation))], observation)


def _conjuncts(rows: list[tuple[FormulaFacts, int]], observation: Formula) -> list[Formula]:
    """The conjuncts of `spec_conjuncts` from the analyzed rows, in one sort."""
    rows = sorted(rows, key=_row_order)
    before = [f.formula for f, _ in rows if isinstance(f.formula, Always)]
    after = [f.formula for f, _ in rows if not isinstance(f.formula, Always)]
    return before + [observation] + after


def _analyzed_rows(counts: dict[FormulaFacts, int], seen: set[str] | frozenset[str]) -> list[FormulaFacts]:
    """The facts of counts that promise a spot or share an atom in seen."""
    return [f for f in counts if f.spots or not seen.isdisjoint(f.atoms)]


def _row_order(row: tuple[FormulaFacts, int]) -> tuple[int, str]:
    return -row[1], row[0].text  # descending r, then formula text


def spec_formula(store: SpecStore, user: str, observation: Formula) -> Formula:
    """The conjunction of `spec_conjuncts`, left-nested, for display only."""
    return conjoin(spec_conjuncts(store, user, observation))


def consult(
    store: SpecStore, user: str, observation: Formula
) -> tuple[frozenset[str] | None, list[Formula]]:
    """The consequences of the user's specification under the observation
    (`tableaux.consequences` of its `spec_conjuncts`), and the formulas
    retracted first when every branch closed (`retract_inconsistent`; the
    search then runs once more, and a warning is logged when no row was
    singly inconsistent, a joint-only contradiction).  Each distinct set of
    conjuncts is read once per store (`SpecStore.proofs`): its consequences
    do not depend on their order, so a hit neither sorts the rows nor lists
    the conjuncts.
    Each shape of conjunction, a specification's or a retraction pair's,
    is searched once per store (`SpecStore.proof_shapes`)."""
    found = _search(store, user, observation)
    if found is not None:
        return found, []
    removed = retract_inconsistent(store, user, observation)
    if not removed:
        log.warning("joint-only contradiction for user %s at %s: store left unchanged", user, observation)
    return _search(store, user, observation), removed


def _search(store: SpecStore, user: str, observation: Formula) -> frozenset[str] | None:
    # the exact key holds facts objects, hashed and compared by identity
    obs = store.facts(observation)
    counts = store._by_user.get(user, {})
    parts = [obs, *_analyzed_rows(counts, obs.atoms)]
    key = frozenset(parts)
    try:
        return store.proofs[key]
    except KeyError:
        pass
    numbered, numbers = _proof(store, parts, counts)
    names = list(numbers)
    found = store.proofs[key] = None if numbered is None else frozenset([names[i] for i in numbered])
    return found


def _proof(
    store: SpecStore, parts: list[FormulaFacts], counts: dict[FormulaFacts, int]
) -> tuple[frozenset[int] | None, dict[str, int]]:
    """The consequences of the conjunction of parts, the observation's facts
    and then rows of counts, with each atom as its number in their
    `shape_key`, and those numbers; each shape is searched once per store
    (`SpecStore.proof_shapes`), and only a miss sorts the rows."""
    shape, numbers = shape_key(parts)
    try:
        numbered = store.proof_shapes[shape]
    except KeyError:
        found = consequences(*_conjuncts([(f, counts[f]) for f in parts[1:]], parts[0].formula))
        numbered = store.proof_shapes[shape] = None if found is None else frozenset([numbers[a] for a in found])
    return numbered, numbers


# Soundness of the shape memo.  The prover reads an atom's name only to
# compare it with another's (the closure index, realizability's valuations)
# or to order a search whose outcome does not depend on that order, so
# `consequences` commutes with a one-to-one renaming ρ of atoms:
# consequences(ρ·parts) is ρ applied to consequences(parts), None for
# None.  It reads its parts as one conjunction, whatever their order, and
# it is None exactly when every branch closes, since the expansion skips a
# pending branch only after one is open; so a retraction pair and a
# specification of one shape share an answer.  Two lists of parts with equal
# keys have, in the key's order, the same texts with atoms in the same
# numbered places, and a formula is its text; so the map from the atom
# numbered i in one to the atom numbered i in the other is one to one and
# carries the first list's parts onto the second's, and the answer stored
# under the key, in numbers, is exact for both.  Parts of equal shape text
# keep their input order, so a list that is another renamed but listed in
# another order may get another key: a miss, never a wrong hit.


def shape_key(parts: list[FormulaFacts]) -> tuple[ShapeKey, dict[str, int]]:
    """The key of a conjunction up to a one-to-one renaming of atoms: the
    shape texts of the parts (`_shape`), sorted (stable), and their atom
    occurrences in that order, each as the number of its atom by first
    occurrence; and those numbers, atom -> number.  A text holds as many
    placeholders as it has occurrences, so the key tells which occurrence
    is whose."""
    numbers: dict[str, int] = {}
    texts = []
    occurrences = []
    for text, names in sorted([_shape(f.text) for f in parts], key=itemgetter(0)):
        texts.append(text)
        for a in names:
            occurrences.append(numbers.setdefault(a, len(numbers)))
    return (tuple(texts), tuple(occurrences)), numbers


def retract_inconsistent(store: SpecStore, user: str, observation: Formula) -> list[Formula]:
    """Remove every stored formula that is singly inconsistent with the
    observation, in the order of `SpecStore.triples`: each row whose pair
    with the observation `_proof` answers None (an empty set is an open
    pair), so a pair of a shape searched before costs no search.  Mutates
    the store; returns the removed formulas."""
    obs = store.facts(observation)
    counts = store._by_user.get(user, {})
    removed = []
    for facts, _ in sorted(counts.items(), key=_row_order):
        if _proof(store, [obs, facts], counts)[0] is None:
            store.remove(user, facts)
            removed.append(facts.formula)
    return removed
