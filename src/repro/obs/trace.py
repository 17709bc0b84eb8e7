"""The trace model: one reader for everything a recorder wrote.

A trace is the recorder's event list (:mod:`repro.obs.recorder`) or the
JSONL file it exported.  :class:`Trace` reads either **once** -- spans
paired, gauge samples and instants filed by name -- and the report, the
latency analyzer and the bench suites index that object.

The one pairing rule: a ``span_begin`` and the ``span_end`` with its id
make a *finished* span.  A begin with no end is unfinished: ``crashed``,
ending at the cut, if a ``system.crash`` instant follows its start, else
open until the end of the trace.  The report draws a crash-cut span with
an ``x``, the analyzer leaves it out of the latency population (its
duration is unknowable, not zero).

Trace files are outside input: :meth:`Trace.loads`, the only place trace
lines are decoded, refuses what no recorder wrote with a
:class:`TraceError`, which the CLIs print as one ``error:`` line (exit 2).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from repro.obs.recorder import TRACE_SCHEMA_VERSION


class TraceError(ValueError):
    """A trace file no :class:`~repro.obs.TraceRecorder` wrote."""


@dataclass
class Span:
    """One span: its begin event plus, when it finished, its end event."""

    span_id: int
    name: str
    start: float
    epoch: int
    parent: Optional[int] = None
    attrs: dict = field(default_factory=dict)
    #: the end event's time; of an unfinished span, the crash that cut it
    #: or else the end of the trace
    end: float = 0.0
    end_attrs: dict = field(default_factory=dict)
    #: where in the event list the ``span_end`` stands (-1: unfinished)
    end_order: int = -1
    #: unfinished, and a ``system.crash`` instant follows the start
    crashed: bool = False
    depth: int = 0

    @property
    def finished(self) -> bool:
        return self.end_order >= 0

    @property
    def label(self) -> str:
        label = self.name
        index = self.attrs.get("index")
        if index is not None:
            label += f":{index}"
        shard = self.attrs.get("shard")
        if shard is not None:
            label += f"#{shard}"
        return label

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)


class Trace:
    """One recorded trace, read once (see the module docstring)."""

    def __init__(self, events: Iterable[dict]) -> None:
        self.events = events = list(events)
        #: every span in begin order, paired and crash-flagged
        self.spans: list[Span] = []
        #: gauge / instant name -> its events in emission order
        self.gauges: dict[str, list[dict]] = {}
        self.instants: dict[str, list[dict]] = {}
        by_id: dict[int, Span] = {}
        for order, event in enumerate(events):
            kind = event.get("kind")
            if kind == "span_begin":
                span = by_id[event["span"]] = Span(
                    span_id=event["span"], name=event["name"],
                    start=event["t"], epoch=event.get("epoch", 0),
                    parent=event.get("parent"),
                    attrs=event.get("attrs") or {})
                self.spans.append(span)
            elif kind == "span_end":
                span = by_id.get(event.get("span"))
                if span is not None:
                    span.end = event["t"]
                    span.end_attrs = event.get("attrs") or {}
                    span.end_order = order
            elif kind == "gauge":
                self.gauges.setdefault(event["name"], []).append(event)
            elif kind == "instant":
                self.instants.setdefault(event["name"], []).append(event)
        times = [event["t"] for event in events]
        self.t0 = min(times, default=0.0)
        self.t1 = max(times, default=0.0)
        self.epochs = max((event.get("epoch", 0) for event in events),
                          default=-1) + 1
        crashes = sorted(event["t"]
                         for event in self.instants.get("system.crash", ()))
        for span in self.spans:
            if not span.finished:
                cut = next((t for t in crashes if t >= span.start), None)
                span.crashed = cut is not None
                span.end = cut if span.crashed else self.t1
            parent = span.parent
            while parent is not None and span.depth < 16:
                span.depth += 1
                parent = by_id[parent].parent if parent in by_id else None

    @classmethod
    def of(cls, source: "TraceSource") -> "Trace":
        """``source`` if it is a trace already, else one read of it."""
        return source if isinstance(source, cls) else cls(source)

    @classmethod
    def loads(cls, text: str) -> "Trace":
        """THE loader: JSONL text as ``TraceRecorder.to_jsonl`` wrote it.
        The ``meta`` line (optional, so hand-written event files load) is
        checked and dropped.  Raises :class:`TraceError`."""
        events: list[dict] = []
        meta = None
        for number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"line {number} is not JSON ({exc.msg}): "
                                 "truncated trace?") from None
            if not isinstance(event, dict):
                raise TraceError(f"line {number} is not a trace event")
            if event.get("kind") == "meta":
                meta = event
            else:
                events.append(event)
        if meta is not None and meta.get("schema") != TRACE_SCHEMA_VERSION:
            raise TraceError(f"trace schema {meta.get('schema')!r}; this "
                             f"reader understands {TRACE_SCHEMA_VERSION}")
        if meta is not None and meta.get("events") != len(events):
            raise TraceError(
                f"the meta line promises {meta.get('events')} events, the "
                f"file holds {len(events)}: truncated trace?")
        return cls(events)

    @classmethod
    def load(cls, path: str) -> "Trace":
        """:meth:`loads` of the file at ``path`` (``-`` for stdin)."""
        if path == "-":
            return cls.loads(sys.stdin.read())
        with open(path, "r", encoding="utf-8") as handle:
            return cls.loads(handle.read())

    def named(self, *names: str) -> list[dict]:
        """The instants called any of ``names``, in emission order."""
        return sorted((event for name in names
                       for event in self.instants.get(name, ())),
                      key=lambda event: event.get("seq", 0))

    def series(self, *qualifiers: str, names: Optional[Iterable[str]] = None
               ) -> dict[tuple, list[dict]]:
        """Gauge samples by ``(name, qualifier)``, sorted, each series in
        emission order.  A sample's qualifier is the first of the
        ``qualifiers`` attrs it carries (None when it carries none);
        ``names`` restricts the gauges looked at."""
        series: dict[tuple, list[dict]] = {}
        for name in (self.gauges if names is None else names):
            for event in self.gauges.get(name, ()):
                attrs = event.get("attrs") or {}
                qualifier = next((attrs[q] for q in qualifiers
                                  if attrs.get(q)), None)
                series.setdefault((name, qualifier), []).append(event)
        return {key: series[key]
                for key in sorted(series, key=lambda k: (k[0], str(k[1])))}


#: what every reader takes: a trace, or the events to read one from
TraceSource = Union[Trace, Iterable[dict]]


def load_for_cli(path: str) -> Optional[Trace]:
    """:meth:`Trace.load` for the three CLIs: a malformed file is one
    ``error:`` line on stderr and None (the caller exits 2)."""
    try:
        return Trace.load(path)
    except TraceError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None
