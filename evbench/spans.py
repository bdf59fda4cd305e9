"""Spans recorded around calls into evcorner's public entry points.

The tracer wraps each entry point by name. A module-level function is
replaced wherever an evcorner module holds a reference to it, so calls
through re-exports (``evcorner.cli`` imports ``read_stream`` by name) are
seen too; a method is replaced on its class. An entry point that no longer
exists is listed in ``missing`` instead of raising, so a traced run keeps
working after a refactor renames or removes one.

Spans are kept in memory and written out when the run ends. Only the
caller's thread calls into evcorner, so a plain stack gives each span its
parent.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict, dataclass

# (layer, module, attribute path) of every wrapped entry point
ENTRY_POINTS = (
    ("events", "evcorner.events", "read_stream"),
    ("events", "evcorner.events", "write_stream"),
    ("events", "evcorner.events", "write_tags"),
    ("filters", "evcorner.filters", "refractory_filter"),
    ("filters", "evcorner.filters", "sp_filter"),
    ("surfaces", "evcorner.surfaces", "TosSurface.update_many"),
    ("luvharris", "evcorner.luvharris", "LuvHarrisDetector.process"),
    ("luvharris", "evcorner.luvharris", "regenerate_lut"),
    ("harris", "evcorner.harris", "harris_response_map"),
    ("cli", "evcorner.cli", "main"),
)


def span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, modname, attr in ENTRY_POINTS:
            module = sys.modules.get(modname)
            owner, leaf = module, attr
            if "." in attr:
                cls_name, leaf = attr.split(".", 1)
                owner = getattr(module, cls_name, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(span_name(layer, attr), original)
            if owner is module:
                holders = [m for n, m in list(sys.modules.items())
                           if n.split(".")[0] == "evcorner" and m is not None]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._replace(holder, key, wrapper)
            else:
                self._replace(owner, leaf, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _replace(self, owner, key: str, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(sid, name, start, end, parent))

        traced.__wrapped__ = fn
        return traced

    def layers(self) -> dict[str, str]:
        """Each layer as ``traced``, ``missing`` (an entry point is gone) or
        ``not on path`` (no span was recorded)."""
        seen = {s.name.split(".")[0] for s in self.spans}
        status: dict[str, str] = {}
        for layer, modname, attr in ENTRY_POINTS:
            if f"{modname}.{attr}" in self.missing:
                status[layer] = "missing"
            else:
                status.setdefault(layer, "traced" if layer in seen else "not on path")
        return status

    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_total(self, name: str) -> float:
        """Summed self time of the named spans: each span minus its children."""
        child = {}
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] = child.get(s.parent, 0.0) + s.seconds
        return sum(s.seconds - child.get(s.id, 0.0) for s in self.spans if s.name == name)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"missing": self.missing, "spans": [asdict(s) for s in self.spans]}, f)
