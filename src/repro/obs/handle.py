"""The per-build emit handle: the one object a builder reports to.

``BuilderBase.obs`` is :data:`NO_OBS` when no recorder hangs off
``metrics.tracer`` at construction -- off means off: the build then makes
no call into ``repro.obs`` but that object's empty methods -- and a
:class:`BuildObs` otherwise.  A phase ``begin`` s, ``advance`` s, is
``done``, ``end`` s; from those calls the recorder gets spans (closed with
the WAL bytes appended meanwhile), and the progress tracker riding on the
recorder, if any, gets the same keys as completion fractions.
"""

from __future__ import annotations

from typing import Optional


def _drop(*_args, **_kwargs) -> None:
    """Nothing attached: the report is dropped on the floor."""


class _NoObs:
    tracer = progress = None
    begin = advance = done = close = end = instant = gauge = restore = \
        checkpoint_state = staticmethod(_drop)


NO_OBS = _NoObs()


class BuildObs:
    """One build's handle on the recorder ``tracer`` (and its tracker).

    ``instant`` / ``gauge`` are the recorder's; ``advance`` / ``done`` /
    ``checkpoint_state`` / ``restore`` are the build's
    :class:`~repro.obs.progress.BuildProgress` 's when a tracker is
    attached (``progress`` is then not None) and dropped otherwise.
    """

    def __init__(self, builder, tracer) -> None:
        self.tracer = tracer
        self.instant = tracer.instant
        self.gauge = tracer.gauge
        self._metrics = builder.system.metrics
        #: open span ids by key, and wal.bytes when each began
        self._spans: dict[str, int] = {}
        self._wal: dict[str, int] = {}
        self.progress = None
        if tracer.progress is not None:
            self.progress = tracer.progress.track(
                builder.label, builder.mode, builder._phases(),
                builder.system.sim, tracer)
        progress = self.progress or NO_OBS
        self.advance = progress.advance
        #: the phase's work is complete though its span stays open (a
        #: drain flips the index before its last commit)
        self.done = progress.close
        self.checkpoint_state = progress.checkpoint_state
        self.restore = progress.restore

    def begin(self, name: str, key: Optional[str] = None,
              parent: Optional[str] = "build", **attrs) -> None:
        """Open a span ``name`` under the open span keyed ``parent``.
        ``key`` (default ``name``) tells concurrent same-name spans apart
        (per index, per shard) and is the progress phase it stands for."""
        key = key or name
        self._wal[key] = self._metrics.get("wal.bytes")
        self._spans[key] = self.tracer.begin_span(
            name, parent=self._spans.get(parent), **attrs)

    def end(self, key: str, **attrs) -> None:
        """Phase ``key`` is over: complete it, close its span."""
        self.done(key)
        span_id = self._spans.pop(key, None)
        if span_id is not None:
            attrs["wal_bytes"] = self._metrics.get("wal.bytes") \
                - self._wal.pop(key)
            self.tracer.end_span(span_id, **attrs)
