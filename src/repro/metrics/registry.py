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

    def snapshot(self) -> dict[str, int]:
        """Copy of all counters, e.g. for before/after deltas."""
        return dict(self.counters)

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
