"""Span recorder for the traced benchmark runs.

Spans are recorded from the benchmark's own files, around the calls into each
layer's public functions; nothing under ``src/`` knows about them.  A span is
named ``<layer>:<operation>`` where ``<layer>`` is the module the call enters
(``streaming.service``, ``reachgraph.query`` ...).  Every span always measures
its own duration, because the workloads read latencies off the same objects in
untraced runs; only an *enabled* tracer keeps the record and tracks parents.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Span", "Tracer", "busy_seconds", "dump", "self_seconds_by_layer"]

#: One finished span: (name, start, end, parent index or -1, batch/query id).
Record = Tuple[str, float, float, int, Optional[int]]


class Span:
    """Context manager timing one call; recorded when its tracer is enabled."""

    __slots__ = ("_tracer", "name", "ident", "start", "end", "_index", "_parent")

    def __init__(self, tracer: "Tracer", name: str, ident: Optional[int]) -> None:
        self._tracer = tracer
        self.name = name
        self.ident = ident
        self.start = 0.0
        self.end = 0.0

    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer.enabled:
            self._index = len(tracer.records)
            tracer.records.append(None)  # slot reserved so children can point here
            self._parent = tracer._open[-1] if tracer._open else -1
            tracer._open.append(self._index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end = time.perf_counter()
        tracer = self._tracer
        if tracer.enabled:
            tracer._open.pop()
            tracer.records[self._index] = (
                self.name,
                self.start,
                self.end,
                self._parent,
                self.ident,
            )

    @property
    def seconds(self) -> float:
        """Duration of the finished span."""
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; :meth:`dump` writes them out at the end."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.records: List[Any] = []
        self._open: List[int] = []

    def span(self, name: str, ident: Optional[int] = None) -> Span:
        """A span named ``<layer>:<operation>``; ``ident`` is a batch or query id."""
        return Span(self, name, ident)

    def wrap(self, obj: object, attr: str, name: str) -> None:
        """Record a span around every later call of the public ``obj.attr``.

        Used for calls the library makes on our behalf (``service.flush()``
        flushing the ingestor and both devices): the bound method is shadowed
        on the *instance*, so the library's own ``self.attr()`` calls pass
        through the span.  A no-op when tracing is off.
        """
        if not self.enabled:
            return
        original = getattr(obj, attr)

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return original(*args, **kwargs)

        setattr(obj, attr, traced)


def busy_seconds(records: List[Record], name: str) -> float:
    """Total duration of the spans called ``name``."""
    return sum(end - start for span, start, end, _, _ in records if span == name)


def self_seconds_by_layer(records: List[Record], root: str) -> Dict[str, float]:
    """Self time per layer under the ``root`` span (the timed section).

    A span's self time is its duration minus the part its child spans cover;
    spans outside ``root`` (set-up, probes) are left out.
    """
    children: Dict[int, float] = defaultdict(float)
    for _, start, end, parent, _ in records:
        if parent >= 0:
            children[parent] += end - start
    roots = {i for i, record in enumerate(records) if record[0] == root}
    inside: Dict[int, bool] = {}

    def under_root(index: int) -> bool:
        if index in roots:
            return True
        if index < 0:
            return False
        if index not in inside:
            inside[index] = under_root(records[index][3])
        return inside[index]

    layers: Dict[str, float] = defaultdict(float)
    for index, (name, start, end, parent, _) in enumerate(records):
        if index in roots or not under_root(parent):
            continue
        layers[name.split(":", 1)[0]] += (end - start) - children[index]
    return dict(layers)


def dump(path: str, header: Dict[str, Any], rounds: List[List[Record]]) -> None:
    """Write the spans of every traced round, times relative to round start."""
    payload = dict(header)
    payload["fields"] = ["name", "start_s", "end_s", "parent", "id"]
    payload["rounds"] = []
    for records in rounds:
        origin = min((record[1] for record in records), default=0.0)
        payload["rounds"].append(
            [
                [name, round(start - origin, 6), round(end - origin, 6), parent, ident]
                for name, start, end, parent, ident in records
            ]
        )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
