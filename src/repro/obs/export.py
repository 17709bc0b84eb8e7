"""Prometheus text-format export of one system's live metrics.

``export_prometheus(system)`` renders counters, series statistics,
streaming histograms (cumulative ``le`` buckets, the classic exposition
shape), build progress, and alert states as Prometheus exposition text.
The simulated system has no HTTP endpoint to scrape, but the format is
the lingua franca: the dashboard's ``--prom`` flag and tests use it,
and anything that parses node-exporter output can parse this.

Output is deterministic: metric families and label sets are emitted in
sorted order, so equal systems export byte-identical text.
"""

from __future__ import annotations

import re
from typing import Optional, TYPE_CHECKING

from repro.obs.progress import tracker_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import System

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(name: str, prefix: str) -> str:
    clean = _NAME_RE.sub("_", name)
    if clean and clean[0].isdigit():
        clean = "_" + clean
    return f"{prefix}_{clean}"


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label(value: str) -> str:
    escaped = str(value).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def export_prometheus(system: "System",
                      monitor: Optional[object] = None,
                      prefix: str = "repro") -> str:
    """Render ``system``'s metrics as Prometheus exposition text.

    ``monitor`` (a :class:`repro.obs.health.HealthMonitor`) adds
    ``<prefix>_alert_firing`` per rule; a progress tracker riding on the
    system's recorder adds ``<prefix>_build_progress`` /
    ``<prefix>_build_eta_seconds`` per tracked build.
    """
    metrics = system.metrics
    lines: list[str] = []

    for name in sorted(metrics.counters):
        metric = _metric_name(name, prefix) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_fmt(metrics.counters[name])}")

    for name in sorted(metrics.series):
        stat = metrics.series[name]
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} summary")
        lines.append(f"{metric}_count {_fmt(stat.count)}")
        lines.append(f"{metric}_sum {_fmt(stat.total)}")
        if stat.count:
            lines.append(f"{metric}_min {_fmt(stat.minimum)}")
            lines.append(f"{metric}_max {_fmt(stat.maximum)}")

    for name in sorted(metrics.histograms):
        hist = metrics.histograms[name]
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for i, count in enumerate(hist.counts):
            cumulative += count
            if not count:
                continue  # sparse: empty buckets add no information
            le = (_fmt(hist.bounds[i]) if i < len(hist.bounds)
                  else "+Inf")
            lines.append(
                f'{metric}_bucket{{le={_label(le)}}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{metric}_sum {_fmt(hist.total)}")
        lines.append(f"{metric}_count {hist.count}")

    tracker = tracker_of(system)
    if tracker is not None and tracker.builds:
        progress_metric = f"{prefix}_build_progress"
        eta_metric = f"{prefix}_build_eta_seconds"
        lines.append(f"# TYPE {progress_metric} gauge")
        lines.append(f"# TYPE {eta_metric} gauge")
        for label, state in sorted(tracker.snapshot().items()):
            labels = (f'build={_label(label)},'
                      f'phase={_label(state["phase"])},'
                      f'verdict={_label(state["verdict"])}')
            lines.append(f"{progress_metric}{{{labels}}} "
                         f"{_fmt(state['fraction'])}")
            eta = state["eta"]
            lines.append(f"{eta_metric}{{build={_label(label)}}} "
                         f"{_fmt(eta if eta is not None else -1.0)}")

    if monitor is not None:
        alert_metric = f"{prefix}_alert_firing"
        lines.append(f"# TYPE {alert_metric} gauge")
        for name, state in sorted(monitor.snapshot()["alerts"].items()):
            lines.append(f"{alert_metric}{{alert={_label(name)}}} "
                         f"{1 if state['firing'] else 0}")

    return "\n".join(lines) + "\n"
