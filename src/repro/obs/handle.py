"""The per-build emit handle: the one object a builder reports to.

``BuilderBase.obs`` is :data:`NO_OBS` when no recorder hangs off
``metrics.tracer`` at construction -- off means off: the build then makes
no call into ``repro.obs`` but that object's empty methods -- and a
:class:`BuildObs` otherwise.  A phase ``begin`` s and ``end`` s; from
those calls the recorder gets spans, closed with the WAL bytes appended
meanwhile.
"""

from __future__ import annotations

from typing import Optional


def _drop(*_args, **_kwargs) -> None:
    """Nothing attached: the report is dropped on the floor."""


class _NoObs:
    tracer = None
    begin = end = instant = gauge = staticmethod(_drop)


NO_OBS = _NoObs()


class BuildObs:
    """One build's handle on the recorder ``tracer``; ``instant`` and
    ``gauge`` are the recorder's own."""

    def __init__(self, builder, tracer) -> None:
        self.tracer = tracer
        self.instant = tracer.instant
        self.gauge = tracer.gauge
        self._metrics = builder.system.metrics
        #: open span ids by key, and wal.bytes when each began
        self._spans: dict[str, int] = {}
        self._wal: dict[str, int] = {}

    def begin(self, name: str, key: Optional[str] = None,
              parent: Optional[str] = "build", **attrs) -> None:
        """Open a span ``name`` under the open span keyed ``parent``.
        ``key`` (default ``name``) tells concurrent same-name spans apart
        (per index, per shard)."""
        key = key or name
        self._wal[key] = self._metrics.get("wal.bytes")
        self._spans[key] = self.tracer.begin_span(
            name, parent=self._spans.get(parent), **attrs)

    def end(self, key: str, **attrs) -> None:
        """Phase ``key`` is over: close its span."""
        span_id = self._spans.pop(key, None)
        if span_id is not None:
            attrs["wal_bytes"] = self._metrics.get("wal.bytes") \
                - self._wal.pop(key)
            self.tracer.end_span(span_id, **attrs)
