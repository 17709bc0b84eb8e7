"""Counter and statistic registry.

Every subsystem (buffer pool, WAL, latches, B+-tree, builders) reports into
one :class:`MetricsRegistry` owned by the enclosing :class:`repro.system.System`.
The registry is intentionally simple: named monotonic counters plus named
value-series summaries (count / sum / min / max).  Benchmarks read a
snapshot before and after a run and print deltas.

The registry is also the attachment point for fault injection
(:mod:`repro.faultinject`): instrumented code reports fault-site hits as
``faultsite.<name>`` counters, and an armed
:class:`~repro.faultinject.injector.FaultInjector` hangs off
:attr:`MetricsRegistry.fault_injector`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional


def ordered_sum(values: Iterable[float]) -> float:
    """Plain left-to-right float sum, the list form of
    :attr:`SeriesStat.total`.

    The builtin ``sum()`` became compensated (Neumaier) for floats in
    CPython 3.12, so its last bit depends on the interpreter.  Bench rows
    are compared for exact equality (:mod:`repro.bench.runner`), so every
    float total that reaches one is added in IEEE order instead.
    """
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass
class SeriesStat:
    """Summary of an observed value series (no raw samples retained)."""

    count: int = 0
    total: float = 0.0
    _min: float = field(default=float("inf"), repr=False)
    _max: float = field(default=float("-inf"), repr=False)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def minimum(self) -> float:
        """Smallest observed value, or 0.0 with zero observations."""
        return self._min if self.count else 0.0

    @property
    def maximum(self) -> float:
        """Largest observed value, or 0.0 with zero observations."""
        return self._max if self.count else 0.0

    def merge(self, other: "SeriesStat") -> "SeriesStat":
        """Fold ``other`` into self (count-weighted); returns self.

        Needed for cross-node aggregation: a dashboard summing one
        series over N replicas wants the population summary, not an
        average of averages.
        """
        self.count += other.count
        self.total += other.total
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max
        return self

    def snapshot(self) -> dict[str, float]:
        """Serialisable summary.

        An empty series reports an explicit ``{"count": 0}`` record
        instead of zero-filled min/max -- callers branch on emptiness
        rather than trusting 0.0 extremes that were never observed.
        """
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "minimum": self.minimum,
            "maximum": self.maximum,
        }

    def delta(self, before: "SeriesStat") -> "SeriesStat":
        """Observations added since ``before`` (an earlier copy of self).

        Min/max cannot be recovered for the difference window alone, so the
        delta carries the current window extremes -- still 0.0-safe when
        nothing was observed at all.
        """
        result = SeriesStat(count=self.count - before.count,
                            total=self.total - before.total)
        if result.count:
            result._min = self._min
            result._max = self._max
        return result


@dataclass
class MetricsRegistry:
    """Named counters and series statistics for one simulated system."""

    #: A ``defaultdict(int)`` so the hottest call sites (one bump per
    #: lock, latch, buffer hit or log record) can write
    #: ``metrics.counters[name] += n`` in place; everything else calls
    #: :meth:`incr`, which is the same statement.  Read a counter with
    #: :meth:`get` (or ``in``), never ``counters[name]``: indexing a
    #: missing name would create it.
    counters: defaultdict[str, int] = field(
        default_factory=lambda: defaultdict(int))
    series: dict[str, SeriesStat] = field(default_factory=dict)
    #: Named streaming histograms (see :mod:`repro.metrics.hist`);
    #: populated lazily by :meth:`observe_hist`.
    histograms: dict[str, Any] = field(default_factory=dict)
    #: Installed fault injector, if any (see :mod:`repro.faultinject`).
    fault_injector: Optional[Any] = field(default=None, repr=False,
                                          compare=False)
    #: Installed trace recorder, if any (see :mod:`repro.obs`): the one
    #: observation object -- a build-progress tracker rides on it as
    #: ``tracer.progress``.  Instrumented code tests this attribute and
    #: skips all trace work when it is None -- the same
    #: zero-cost-disabled contract as :attr:`fault_injector`.
    tracer: Optional[Any] = field(default=None, repr=False, compare=False)

    def incr(self, name: str, amount: int = 1) -> None:
        """Increase counter ``name`` by ``amount`` (creating it at 0)."""
        self.counters[name] += amount

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self.counters.get(name, 0)

    def observe(self, name: str, value: float) -> None:
        """Record one sample of the value series ``name``."""
        stat = self.series.get(name)
        if stat is None:
            stat = self.series[name] = SeriesStat()
        stat.observe(value)

    def stat(self, name: str) -> SeriesStat:
        """Summary for series ``name`` (empty summary if never observed)."""
        return self.series.get(name, SeriesStat())

    def observe_hist(self, name: str, value: float) -> None:
        """Record one sample into streaming histogram ``name``.

        Histograms use the default log2-spaced bounds; pre-register a
        :class:`~repro.metrics.hist.StreamingHistogram` in
        :attr:`histograms` first to use custom bounds.
        """
        hist = self.histograms.get(name)
        if hist is None:
            from repro.metrics.hist import StreamingHistogram
            hist = self.histograms[name] = StreamingHistogram()
        hist.observe(value)

    def hist(self, name: str):
        """Histogram ``name`` (an empty default-bounds one if absent)."""
        hist = self.histograms.get(name)
        if hist is None:
            from repro.metrics.hist import StreamingHistogram
            hist = StreamingHistogram()
        return hist

    def snapshot(self) -> dict[str, int]:
        """Copy of all counters, e.g. for before/after deltas."""
        return dict(self.counters)

    def snapshot_hists(self) -> dict[str, dict]:
        """Serialisable summaries of every histogram, sorted by name."""
        return {name: self.histograms[name].snapshot()
                for name in sorted(self.histograms)}

    def snapshot_stats(self) -> dict[str, dict[str, float]]:
        """Serialisable summaries of every value series, sorted by name.

        :meth:`snapshot` covers counters only; series (quiesce times,
        side-file lengths, per-shard scan times, ...) silently vanished
        from reports built on it.  Benchmarks embed this alongside the
        counter snapshot.
        """
        return {name: self.series[name].snapshot()
                for name in sorted(self.series)}

    def delta(self, before: dict[str, int]) -> dict[str, int]:
        """Counter increases since ``before`` (a prior :meth:`snapshot`)."""
        result = {}
        for name, value in self.counters.items():
            change = value - before.get(name, 0)
            if change:
                result[name] = change
        return result

    def reset(self) -> None:
        self.counters.clear()
        self.series.clear()
        self.histograms.clear()
