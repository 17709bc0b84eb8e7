"""The trace recorder: hierarchical spans, instants, and gauge samples.

Event model (one dict per event, JSONL on export):

``span_begin`` / ``span_end``
    A named interval on the simulated clock.  Begin carries ``span`` (a
    recorder-unique id), optional ``parent`` span id, and ``attrs``; end
    repeats the id and adds end-time ``attrs`` (e.g. the WAL bytes
    appended while the span was open).  A span with no matching end was
    cut short by a crash -- the report renders it as crash-terminated.
``instant``
    A point event: checkpoint written, quiesce begin/end, crash,
    restart, recovery decisions, the atomic flag flip.
``gauge``
    One sample of a named value (side-file backlog, buffer dirty count,
    ``read_watermark`` progress, WAL bytes), either from instrumented
    code or from the optional periodic sampler process.

Every event records ``t`` (trace time), ``epoch`` (how many systems the
recorder has been bound to, bumped on restart), and ``seq`` (emission
order).  Trace time is ``base + sim.now`` of the bound simulator; on
re-bind after a crash, ``base`` advances to the last recorded time so
one trace stays monotonic across the crash boundary even though the new
simulator's clock restarts at zero.

Determinism: the recorder adds no simulated time and spawns no process
unless ``sample_every`` is set, so passive tracing never perturbs the
schedule; export uses ``sort_keys`` + compact separators, making equal
runs byte-identical.
"""

from __future__ import annotations

import json
from typing import Any, Optional, TYPE_CHECKING

from repro.btree.node import entry_key
from repro.sim.kernel import Delay, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import System

#: bump only for incompatible event-shape changes (consumers gate on it)
TRACE_SCHEMA_VERSION = 1


def key_metric(key_value: Any) -> float:
    """A float standing in for a key value, for gauge plotting.

    Key values are tuples of column values; take the head element (and
    the head of nested tuples).  Non-numeric keys gauge as -1.0 -- the
    attrs carry the exact key string for humans.
    """
    head = key_value
    while isinstance(head, (tuple, list)) and head:
        head = head[0]
    if isinstance(head, bool) or not isinstance(head, (int, float)):
        return -1.0
    return float(head)


def _jsonable(value: Any) -> Any:
    """Coerce ``value`` to something ``json.dumps`` renders stably."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(val) for key, val in value.items()}
    return str(value)


class TraceRecorder:
    """Collects structured events for one (possibly multi-system) trace."""

    def __init__(self) -> None:
        self.events: list[dict] = []
        #: how many simulators this recorder has been bound to, minus one
        self.epoch = 0
        #: periodic gauge-sampling interval (None = passive tracing)
        self.sample_every: Optional[float] = None
        self._sim: Optional[Simulator] = None
        self._base = 0.0
        self._last_t = 0.0
        self._next_span = 0
        self._open: dict[int, dict] = {}
        self._sampler_sim: Optional[Simulator] = None
        #: the :class:`~repro.obs.progress.ProgressTracker` riding on this
        #: recorder (None = no build-progress tracking)
        self.progress = None

    # -- clock ----------------------------------------------------------

    @property
    def now(self) -> float:
        """Trace time: monotone across crash/restart re-binds."""
        t = self._base + (self._sim.now if self._sim is not None else 0.0)
        if t < self._last_t:
            t = self._last_t
        self._last_t = t
        return t

    def bind(self, sim: Simulator) -> bool:
        """Key the recorder to ``sim``'s clock; True if this re-bound.

        Re-binding (restart recovery handing the trace to the recovered
        system) bumps :attr:`epoch` and advances the time base so the new
        simulator's t=0 lands at the crash instant, not before it.
        """
        if sim is self._sim:
            return False
        if self._sim is not None:
            self._base = self._last_t
            self.epoch += 1
        self._sim = sim
        return True

    # -- recording ------------------------------------------------------

    def _emit(self, kind: str, name: str, **fields) -> dict:
        event = {"kind": kind, "name": name, "t": self.now,
                 "epoch": self.epoch, "seq": len(self.events)}
        event.update(fields)
        self.events.append(event)
        return event

    def begin_span(self, name: str, parent: Optional[int] = None,
                   **attrs) -> int:
        self._next_span += 1
        span_id = self._next_span
        event = self._emit("span_begin", name, span=span_id, parent=parent,
                           attrs=_jsonable(attrs))
        self._open[span_id] = event
        return span_id

    def end_span(self, span_id: int, **attrs) -> None:
        begin = self._open.pop(span_id, None)
        if begin is None:
            return
        self._emit("span_end", begin["name"], span=span_id,
                   attrs=_jsonable(attrs))

    def instant(self, name: str, **attrs) -> None:
        self._emit("instant", name, attrs=_jsonable(attrs))

    def gauge(self, name: str, value: float, **attrs) -> None:
        self._emit("gauge", name, value=_jsonable(value),
                   attrs=_jsonable(attrs))

    # -- export ---------------------------------------------------------

    def to_jsonl(self) -> str:
        """Byte-stable JSONL: one meta line, then one line per event."""
        meta = {"kind": "meta", "schema": TRACE_SCHEMA_VERSION,
                "epochs": self.epoch + 1, "events": len(self.events)}
        lines = [json.dumps(meta, sort_keys=True, separators=(",", ":"))]
        for event in self.events:
            lines.append(json.dumps(event, sort_keys=True,
                                    separators=(",", ":")))
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())


# -- wiring a recorder to a system -------------------------------------------


def enable_tracing(system: "System", recorder: Optional[TraceRecorder] = None,
                   *, sample_every: Optional[float] = None) -> TraceRecorder:
    """Attach a (new or existing) recorder to ``system``; returns it.

    Sets ``system.metrics.tracer`` -- the single hook every instrumented
    code path tests (mirror of ``metrics.fault_injector``).  With
    ``sample_every`` set, also spawns a gauge-sampler process that takes
    periodic backlog / watermark / buffer / WAL samples and exits once it
    is the only live process.  Call again after
    :func:`repro.recovery.restart.restart` to re-arm the sampler on the
    recovered system (the recorder itself is carried over automatically).
    """
    if recorder is None:
        recorder = TraceRecorder()
    recorder.bind(system.sim)
    system.metrics.tracer = recorder
    if sample_every is not None:
        recorder.sample_every = sample_every
    if recorder.sample_every \
            and recorder._sampler_sim is not system.sim:
        recorder._sampler_sim = system.sim
        system.spawn(_sampler(system, recorder, recorder.sample_every),
                     name="trace-sampler")
    return recorder


def sample_gauges(system: "System", recorder: TraceRecorder) -> None:
    """Take one sample of every periodic gauge (deterministic order)."""
    metrics = system.metrics
    recorder.gauge("buffer.dirty", len(system.buffer.dirty))
    recorder.gauge("wal.bytes", metrics.get("wal.bytes"))
    for name in sorted(system.sidefiles):
        sidefile = system.sidefiles[name]
        # entries appended that the drain has yet to apply
        recorder.gauge("sidefile.backlog",
                       max(0, len(sidefile.entries) - sidefile.drain_position),
                       index=name)
    for name in sorted(system.indexes):
        descriptor = system.indexes[name]
        watermark = getattr(descriptor, "read_watermark", None)
        if watermark is not None:
            # Footnote 3 gradual availability: the committed key frontier
            # readable before the index is fully built.
            recorder.gauge("read_watermark", key_metric(entry_key(watermark)),
                           index=name, key=str(entry_key(watermark)))


def _sampler(system: "System", recorder: TraceRecorder, interval: float):
    """Generator process: :func:`sample_gauges` every ``interval`` time
    units.

    Exits when it is the only live process left, so it never keeps the
    simulator spinning; it does extend the final clock by up to one
    interval, which is why the quickstart golden uses passive tracing.
    """
    while True:
        sample_gauges(system, recorder)
        yield Delay(interval)
        if system.sim.live_processes <= 1:
            return
