"""Spans around calls into the program's public functions, taken from outside.

A hook names a public function by its defining module and attribute path.
Installing it wraps the function once and rebinds the wrapper in every
`smartlot` module that holds the original (so `build_tree` is caught both in
`smartlot.tableaux` and where `smartlot.agents` imported it).  A hook whose
target no longer exists is skipped and listed in `Tracer.absent`.

Spans stay in memory as parallel arrays (name, parent, start, end).  A
span's self time is its duration minus the durations of its child spans;
nesting is strict because the program runs on one thread.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from typing import Callable

Observer = Callable[[Counter, tuple, object], None]

# time spent in observers (counting outside the timed region) is recorded as
# a span of this name, so it is charged to no layer
OBSERVER = "(trace)"


def _owner(module_name: str, path: str):
    """(object holding the attribute, attribute name), or None if absent."""
    module = sys.modules.get(module_name)
    if module is None:
        return None
    *outer, attr = path.split(".")
    owner = module
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


def rebind(module_name: str, path: str, make_wrapper) -> Callable[[], None] | None:
    """Replace a public function with `make_wrapper(original)` everywhere the
    program binds it.  Returns a function that restores the originals, or
    None when the target does not exist."""
    found = _owner(module_name, path)
    if found is None:
        return None
    owner, attr = found
    raw = vars(owner)[attr]
    restore: list[tuple[object, str, object]] = []
    if isinstance(owner, type):
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(make_wrapper(raw.__func__))
        else:
            wrapped = make_wrapper(raw)
        restore.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
    else:
        wrapped = make_wrapper(raw)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "smartlot" or name.startswith("smartlot.")):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    restore.append((module, key, raw))
                    setattr(module, key, wrapped)

    def undo() -> None:
        for target, key, value in reversed(restore):
            setattr(target, key, value)

    return undo


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._undo: list[Callable[[], None]] = []
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def install(self, hooks) -> None:
        """hooks: (span name, module, attribute path, observer or None)."""
        for span, module_name, path, observer in hooks:
            undo = rebind(module_name, path, self._wrapper_for(span, observer))
            if undo is None:
                self.absent.append(f"{module_name}.{path}")
            else:
                self._undo.append(undo)

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _wrapper_for(self, span: str, observer: Observer | None):
        nid = self._id(span)
        oid = self._id(OBSERVER)
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        stack, counts, absent = self._stack, self.counts, self.absent
        clock = time.perf_counter_ns

        def open_span(name_id: int) -> int:
            sid = len(kind)
            kind.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            return sid

        def close_span(sid: int) -> None:
            end[sid] = clock()
            stack.pop()

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = open_span(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close_span(sid)
                if observer is not None:
                    oid_span = open_span(oid)
                    try:
                        observer(counts, args, result)
                    except Exception as err:  # a changed result shape must not break the run
                        note = f"{span} observer: {err!r}"
                        if note not in absent:
                            absent.append(note)
                    finally:
                        close_span(oid_span)
                return result

            return wrapper

        return make

    # -- summaries ------------------------------------------------------------

    def self_and_calls(self) -> tuple[dict[str, int], dict[str, int]]:
        """Per span name: total self time in ns, and number of calls."""
        n = len(self.kind)
        child = [0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        own: Counter = Counter()
        calls: Counter = Counter()
        for sid in range(n):
            name = self.names[self.kind[sid]]
            own[name] += self.end[sid] - self.start[sid] - child[sid]
            calls[name] += 1
        return dict(own), dict(calls)

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` that run inside a span called `ancestor`."""
        if name not in self._ids or ancestor not in self._ids:
            return 0
        nid, aid = self._ids[name], self._ids[ancestor]
        inside = array("b", bytes(len(self.kind)))
        total = 0
        for sid in range(len(self.kind)):
            p = self.parent[sid]
            inside[sid] = self.kind[sid] == aid or (p >= 0 and inside[p])
            if self.kind[sid] == nid and p >= 0 and inside[p]:
                total += 1
        return total
