"""The answer `knowledge.consult` must give on a mined store, in closed form.

A mined store holds only `g -> F s` and `G !g` rows.  Under the arrival `g`,
the row `G !g` alone clashes with the observation, and every other row leaves
an open branch that promises its spot at a named world (`g' -> F s` through
its `F s` side), so the prover adds nothing a lookup would not: the
consequences are the union of the spots the user's rows promise, once `G !g`
is retracted, whatever gate a preference names.
"""

from __future__ import annotations

import re

from smartlot.formulas import Formula
from smartlot.knowledge import SpecStore


def mined_closed_form(store: SpecStore, user: str, gate: str) -> tuple[set[str], list[Formula]]:
    """What `consult(store, user, Atom(gate))` returns when every row of the
    user is mined: the spots of the user's `g -> F s` rows, and `[G !gate]`
    when the user holds it, else `[]`."""
    spots, removed = set(), []
    for t in store.triples(user):
        text = str(t.formula)
        preference = re.fullmatch(r"\w+ -> F (\w+)", text)
        if preference:
            spots.add(preference[1])
        elif text == f"G !{gate}":
            removed.append(t.formula)
        elif not re.fullmatch(r"G !\w+", text):
            raise AssertionError(f"not a mined row: {text}")
    return spots, removed
