"""Latency-SLO analysis of ``repro.obs`` traces.

Works on the recorder's event dicts directly (``recorder.events``) or on
trace JSONL text via :func:`parse_trace`.  The unit of analysis is the
``op`` span emitted by :class:`repro.workloads.OpenLoopDriver`: one span
per operation, issue to completion, with ``attrs.op`` naming the
operation and ``attrs.outcome`` (on the end event) recording how it
finished.

Percentiles use the **nearest-rank** definition:
``p_q = sorted_values[ceil(q/100 * N) - 1]`` -- no interpolation, so
every reported percentile is a latency that actually occurred, and test
expectations are exact by hand (p50 of 1..10 is 5, p99 of 1..100 is 99).

A ``span_begin`` with no matching ``span_end`` was cut short by a crash;
those spans are *excluded* from the latency population (their duration is
unknowable, not zero) and counted in the report's ``excluded`` field.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Optional

from repro.metrics.registry import ordered_sum

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


def parse_trace(text: str) -> list[dict]:
    """Trace JSONL -> event dicts (the meta line is dropped)."""
    events = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        event = json.loads(line)
        if event.get("kind") != "meta":
            events.append(event)
    return events


def op_latencies(events: Iterable[dict], span_name: str = "op"
                 ) -> tuple[list[tuple[float, dict, dict]], int]:
    """Pair ``span_name`` begin/end events by span id.

    Returns ``(pairs, excluded)`` where each pair is ``(latency,
    begin_event, end_event)`` in completion order and ``excluded``
    counts crash-cut spans (begin with no end).
    """
    begins: dict[int, dict] = {}
    pairs: list[tuple[float, dict, dict]] = []
    for event in events:
        if event.get("name") != span_name:
            continue
        if event.get("kind") == "span_begin":
            begins[event["span"]] = event
        elif event.get("kind") == "span_end":
            begin = begins.pop(event["span"], None)
            if begin is not None:
                pairs.append((event["t"] - begin["t"], begin, event))
    return pairs, len(begins)


def queue_high_water(events: Iterable[dict],
                     gauge_name: str = "openloop.inflight",
                     window: Optional[tuple[float, float]] = None) -> int:
    """Highest sampled value of the in-flight gauge (0 if never gauged)."""
    high = 0
    for event in events:
        if event.get("kind") == "gauge" \
                and event.get("name") == gauge_name:
            if window is not None \
                    and not window[0] <= event.get("t", 0.0) <= window[1]:
                continue
            value = int(event.get("value") or 0)
            if value > high:
                high = value
    return high


def _quantile_block(latencies: list[float]) -> dict:
    block = {"ops": len(latencies)}
    for q in REPORT_QUANTILES:
        block[f"p{q:g}"] = percentile(latencies, q)
    block["max"] = max(latencies)
    block["mean"] = ordered_sum(latencies) / len(latencies)
    return block


def latency_report(events: Iterable[dict], span_name: str = "op",
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
    events = list(events)
    pairs, excluded = op_latencies(events, span_name)
    dropped = 0
    latencies: list[float] = []
    by_op: dict[str, list[float]] = {}
    for latency, begin, end in pairs:
        if window is not None \
                and not window[0] <= begin.get("t", 0.0) <= window[1]:
            continue
        end_attrs = end.get("attrs") or {}
        if only_outcome is not None \
                and end_attrs.get("outcome") != only_outcome:
            dropped += 1
            continue
        begin_attrs = begin.get("attrs") or {}
        latencies.append(latency)
        by_op.setdefault(str(begin_attrs.get("op", "?")),
                         []).append(latency)
    if not latencies:
        raise ValueError(
            f"no completed {span_name!r} spans in the trace "
            f"({excluded} crash-cut, {dropped} off-outcome)")
    report = _quantile_block(latencies)
    report["excluded"] = excluded
    report["dropped"] = dropped
    report["queue_high_water"] = queue_high_water(events, window=window)
    report["by_op"] = {name: _quantile_block(values)
                       for name, values in sorted(by_op.items())}
    return report
