"""Latency-SLO analysis of ``repro.obs`` traces.

Reads a :class:`~repro.obs.trace.Trace` (or the recorder's event list,
read into one).  The unit of analysis is the ``op`` span emitted by
:class:`repro.workloads.OpenLoopDriver`: one span per operation, issue
to completion, with ``attrs.op`` naming the operation and
``attrs.outcome`` (on the end event) recording how it finished.

Percentiles use the **nearest-rank** definition:
``p_q = sorted_values[ceil(q/100 * N) - 1]`` -- no interpolation, so
every reported percentile is a latency that actually occurred, and test
expectations are exact by hand (p50 of 1..10 is 5, p99 of 1..100 is 99).

An unfinished span (the trace model's one pairing rule: a begin with no
end, cut short by a crash) is *excluded* from the latency population
(its duration is unknowable, not zero) and counted in the report's
``excluded`` field.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.metrics.registry import ordered_sum
from repro.obs.trace import Trace, TraceSource

#: the percentiles every report carries
REPORT_QUANTILES = (50.0, 95.0, 99.0)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (0 < q <= 100).

    ``values`` need not be sorted.  Raises on an empty population --
    an SLO over nothing is a bug, not a zero.
    """
    if not values:
        raise ValueError("percentile of an empty population")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must be in (0, 100], got {q!r}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def queue_high_water(events: TraceSource,
                     gauge_name: str = "openloop.inflight",
                     window: Optional[tuple[float, float]] = None) -> int:
    """Highest sampled value of the in-flight gauge (0 if never gauged)."""
    return max([0] + [int(event.get("value") or 0)
                      for event in Trace.of(events).gauges.get(gauge_name, ())
                      if window is None
                      or window[0] <= event.get("t", 0.0) <= window[1]])


def _quantile_block(latencies: list[float]) -> dict:
    block = {"ops": len(latencies)}
    for q in REPORT_QUANTILES:
        block[f"p{q:g}"] = percentile(latencies, q)
    block["max"] = max(latencies)
    block["mean"] = ordered_sum(latencies) / len(latencies)
    return block


def latency_report(events: TraceSource, span_name: str = "op",
                   only_outcome: Optional[str] = "committed",
                   window: Optional[tuple[float, float]] = None) -> dict:
    """The SLO summary of one trace.

    ``only_outcome`` restricts the population to spans whose end attrs
    carry that outcome (default: committed operations only -- an aborted
    operation's latency is not a service-level number); pass ``None`` to
    keep everything.  ``window=(t0, t1)`` restricts it to operations
    *issued* in that simulated-time interval (their completions may fall
    outside) -- how the tradeoff suite isolates "foreground latency
    while the build is running".  Returns::

        {"ops": N, "excluded": crash_cut, "dropped": off_outcome,
         "p50": ..., "p95": ..., "p99": ..., "max": ..., "mean": ...,
         "queue_high_water": int,
         "by_op": {op_name: {"ops", "p50", "p95", "p99", "max",
                             "mean"}}}

    Raises :class:`ValueError` when no spans qualify (an SLO report
    over an empty population would gate nothing).
    """
    trace = Trace.of(events)
    spans = [span for span in trace.spans if span.name == span_name
             and (window is None or window[0] <= span.start <= window[1])]
    excluded = sum(1 for span in spans if not span.finished)
    dropped = 0
    latencies: list[float] = []
    by_op: dict[str, list[float]] = {}
    # completion order, so the mean adds up in the order the ops ended
    for span in sorted((span for span in spans if span.finished),
                       key=lambda span: span.end_order):
        if only_outcome is not None \
                and span.end_attrs.get("outcome") != only_outcome:
            dropped += 1
            continue
        latency = span.end - span.start
        latencies.append(latency)
        by_op.setdefault(str(span.attrs.get("op", "?")), []).append(latency)
    if not latencies:
        raise ValueError(
            f"no completed {span_name!r} spans in the trace "
            f"({excluded} crash-cut, {dropped} off-outcome)")
    report = _quantile_block(latencies)
    report["excluded"] = excluded
    report["dropped"] = dropped
    report["queue_high_water"] = queue_high_water(trace, window=window)
    report["by_op"] = {name: _quantile_block(values)
                       for name, values in sorted(by_op.items())}
    return report
