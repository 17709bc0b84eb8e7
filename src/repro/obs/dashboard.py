"""ASCII cluster dashboard: build progress, sparklines, alerts, lag.

Usage::

    python -m repro.obs.dashboard TRACE.jsonl [--width N] [--check-clean]
    python -m repro.obs.dashboard --live-demo [--width N]

Trace mode renders one dashboard frame from a recorded JSONL trace
(:class:`repro.obs.recorder.TraceRecorder` output): per-build progress
bars (from ``build.progress`` gauges when progress tracking was on,
reconstructed from build spans otherwise), gauge sparklines (side-file
backlog, replication apply lag, progress), the alert census from
``alert.fire`` / ``alert.clear`` instants, and a per-node replication
table from ``cluster.apply_lag`` gauges.

``--check-clean`` makes the exit code a health verdict for CI: non-zero
when the trace yields no progress rows (the instrumentation rusted) or
when any alert is still firing at end of trace.

Live mode (:func:`render_live`) renders the same layout directly from a
running system's :class:`~repro.obs.progress.ProgressTracker`,
:class:`~repro.obs.health.HealthMonitor`, and streaming histograms --
``--live-demo`` drives a small throttled SF build under an open-loop
workload and prints a frame every few hundred simulated seconds, which
doubles as an executable example.

Everything is plain ASCII (the sparkline ramp is `` .:-=+*#%@``), so the
output diffs cleanly in CI logs and goldens.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, TYPE_CHECKING

from repro.obs.progress import tracker_of
from repro.obs.recorder import sidefile_backlog
from repro.obs.trace import Trace, TraceSource, load_for_cli

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import System

#: sparkline ramp, lowest to highest (ASCII on purpose)
_RAMP = " .:-=+*#%@"

#: gauge series worth a sparkline row, in render order
_SPARK_GAUGES = ("build.progress", "sidefile.backlog",
                 "cluster.apply_lag", "throttle.rate", "buffer.dirty")


def sparkline(values: list[float], width: int = 40) -> str:
    """Downsample ``values`` to ``width`` columns of the ASCII ramp."""
    if not values:
        return " " * width
    if len(values) > width:
        # bucket-max downsampling: spikes must survive compression
        buckets = []
        for col in range(width):
            lo = col * len(values) // width
            hi = max(lo + 1, (col + 1) * len(values) // width)
            buckets.append(max(values[lo:hi]))
        values = buckets
    top = max(values)
    bottom = min(0.0, min(values))
    span = (top - bottom) or 1.0
    out = []
    for value in values:
        level = int((value - bottom) / span * (len(_RAMP) - 1))
        out.append(_RAMP[level])
    return "".join(out).ljust(width)


def progress_bar(fraction: float, width: int = 24) -> str:
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(round(fraction * width))
    if 0 < fraction < 1.0:
        filled = min(max(filled, 1), width - 1)
        return "[" + "=" * (filled - 1) + ">" + " " * (width - filled) + "]"
    return "[" + "=" * filled + " " * (width - filled) + "]"


# -- trace-mode model --------------------------------------------------------


def progress_rows(events: TraceSource) -> list[dict]:
    """Per-build progress state from a trace.

    Prefers the tracker's ``build.progress`` / ``build.eta`` gauges;
    for traces recorded without progress tracking, reconstructs rows
    from ``build`` spans (finished span = 100%, crash-cut or still-open
    span = fraction of finished direct children, flagged approximate).
    """
    trace = Trace.of(events)
    rows: dict[str, dict] = {}
    for event in trace.gauges.get("build.progress", ()):
        attrs = event.get("attrs") or {}
        build = attrs.get("build")
        if build is not None:
            rows[build] = {"build": build, "eta": None, "approx": False,
                           "fraction": event["value"],
                           "phase": attrs.get("phase", "?"),
                           "verdict": attrs.get("verdict", "?")}
    for event in trace.gauges.get("build.eta", ()):
        row = rows.get((event.get("attrs") or {}).get("build"))
        if row is not None:
            value = event["value"]
            row["eta"] = None if value == -1.0 else value
    if rows:
        return [rows[build] for build in sorted(rows)]
    # fallback: derive from the span forest
    for span in trace.spans:
        if span.name != "build":
            continue
        label = "+".join(span.attrs.get("indexes") or []) \
            or span.attrs.get("table") or f"build#{span.span_id}"
        if span.finished:
            fraction, verdict, approx = 1.0, "done", False
        else:
            children = [s for s in trace.spans if s.parent == span.span_id]
            ended = sum(1 for c in children if c.finished)
            fraction = ended / len(children) if children else 0.0
            verdict = "interrupted" if span.crashed else "running"
            approx = True
        previous = rows.get(label)
        if previous is not None and not previous["approx"]:
            continue  # a completed earlier epoch's row wins
        rows[label] = {"build": label, "fraction": fraction,
                       "phase": span.attrs.get("mode", "build"),
                       "verdict": verdict, "eta": None, "approx": approx}
    return [rows[build] for build in sorted(rows)]


def alert_rows(events: TraceSource) -> list[dict]:
    """Alert census from fire/clear instants; ``active`` means the last
    transition was a fire."""
    rows: dict[str, dict] = {}
    for event in Trace.of(events).named("alert.fire", "alert.clear"):
        attrs = event.get("attrs") or {}
        name = attrs.get("alert", "?")
        row = rows.setdefault(name, {"alert": name, "fired": 0,
                                     "active": False, "last_value": None,
                                     "metric": attrs.get("metric", "?")})
        if event["name"] == "alert.fire":
            row["fired"] += 1
            row["active"] = True
            row["last_value"] = attrs.get("value")
        else:
            row["active"] = False
    return [rows[name] for name in sorted(rows)]


def gauge_series(events: TraceSource) -> dict[tuple, list[float]]:
    """``(name, qualifier) -> ordered values`` for sparkline gauges."""
    series: dict[tuple, list[float]] = {}
    for key, samples in Trace.of(events).series(
            "index", "node", "build", names=_SPARK_GAUGES).items():
        values = [float(e["value"]) for e in samples
                  if isinstance(e.get("value"), (int, float))
                  and not isinstance(e.get("value"), bool)]
        if values:
            series[key] = values
    return series


def lag_rows(events: TraceSource) -> list[dict]:
    """Per-node replication state from ``cluster.apply_lag`` gauges."""
    trace = Trace.of(events)
    rows: dict[str, dict] = {}

    def row_of(node):
        return rows.setdefault(node, {"node": node, "lag": 0.0,
                                      "peak": 0.0, "position": None,
                                      "down": 0, "promoted": False})

    for event in trace.gauges.get("cluster.apply_lag", ()):
        attrs = event.get("attrs") or {}
        row = row_of(attrs.get("node", "?"))
        row["lag"] = float(event["value"])
        row["peak"] = max(row["peak"], float(event["value"]))
        row["position"] = attrs.get("position")
    for event in trace.named("cluster.node_down", "cluster.promoted"):
        node = (event.get("attrs") or {}).get("node")
        if node is None:
            continue
        if event["name"] == "cluster.node_down":
            row_of(node)["down"] += 1
        else:
            row_of(node)["promoted"] = True
    return [rows[node] for node in sorted(rows)]


# -- rendering ---------------------------------------------------------------


def _render_sections(title: str, progress: list[dict],
                     alerts: list[dict], sparks: dict[tuple, list[float]],
                     lag: list[dict], width: int) -> str:
    bar_width = max(10, min(24, width - 50))
    spark_width = max(16, width - 36)
    lines = [title, ""]

    lines.append("build progress")
    if not progress:
        lines.append("  (no builds in trace)")
    for row in progress:
        eta = row.get("eta")
        eta_text = "eta -" if eta is None else f"eta {eta:.1f}"
        approx = "~" if row.get("approx") else " "
        lines.append(
            f"  {row['build'][:18]:<18} "
            f"{progress_bar(row['fraction'], bar_width)}"
            f"{approx}{row['fraction'] * 100:5.1f}%  "
            f"{row.get('phase', '?'):<16} {eta_text:<12} "
            f"{row.get('verdict', '?')}")

    lines.append("")
    lines.append("alerts")
    active = [row for row in alerts if row["active"]]
    if not alerts:
        lines.append("  none fired")
    for row in alerts:
        state = "FIRING" if row["active"] else "cleared"
        value = row.get("last_value")
        value_text = "-" if value is None else f"{value:g}"
        lines.append(f"  {row['alert'][:20]:<20} {state:<8} "
                     f"fired x{row['fired']}  metric {row['metric']} "
                     f"last {value_text}")
    if alerts and not active:
        lines.append("  active: none")

    if sparks:
        lines.append("")
        lines.append(f"gauges (ramp '{_RAMP}')")
        for name, qualifier in sorted(sparks,
                                      key=lambda k: (k[0], str(k[1]))):
            values = sparks[(name, qualifier)]
            label = name if qualifier is None else f"{name}[{qualifier}]"
            lines.append(f"  {label[:30]:<30} "
                         f"|{sparkline(values, spark_width)}| "
                         f"last {values[-1]:g} max {max(values):g}")

    if lag:
        lines.append("")
        lines.append("replication")
        lines.append(f"  {'node':<12} {'lag':>8} {'peak':>8} "
                     f"{'position':>9}  notes")
        for row in lag:
            notes = []
            if row["promoted"]:
                notes.append("promoted")
            if row["down"]:
                notes.append(f"down x{row['down']}")
            position = row["position"]
            lines.append(
                f"  {row['node']:<12} {row['lag']:>8g} {row['peak']:>8g} "
                f"{position if position is not None else '-':>9}  "
                f"{' '.join(notes)}".rstrip())
    return "\n".join(lines) + "\n"


def render_dashboard(events: TraceSource, width: int = 76) -> str:
    """One dashboard frame from a recorded trace."""
    trace = Trace.of(events)
    if not trace.events:
        return "empty trace\n"
    title = (f"cluster dashboard @ t={trace.t1:.1f}  "
             f"({len(trace.events)} events, {trace.epochs} epoch(s))")
    return _render_sections(title, progress_rows(trace),
                            alert_rows(trace), gauge_series(trace),
                            lag_rows(trace), width)


def render_live(system: "System", tracker=None, monitor=None,
                width: int = 76) -> str:
    """One dashboard frame straight from live objects (no trace)."""
    metrics = system.metrics
    tracker = tracker if tracker is not None else tracker_of(system)
    progress = []
    if tracker is not None:
        for label, state in sorted(tracker.snapshot().items()):
            progress.append({"build": label, "fraction": state["fraction"],
                             "phase": state["phase"], "eta": state["eta"],
                             "verdict": state["verdict"], "approx": False})
    alerts = []
    if monitor is not None:
        for name, state in sorted(monitor.snapshot()["alerts"].items()):
            if not state["fired"] and not state["firing"]:
                continue
            alerts.append({"alert": name, "fired": state["fired"],
                           "active": state["firing"],
                           "last_value": state["value"],
                           "metric": state["metric"]})
    sparks: dict[tuple, list[float]] = {}
    for name in sorted(system.sidefiles):
        sparks[("sidefile.backlog", name)] = [
            float(sidefile_backlog(system.sidefiles[name]))]
    lines = [_render_sections(
        f"live dashboard @ t={system.sim.now:.1f}", progress, alerts,
        sparks, [], width).rstrip("\n")]
    if metrics.histograms:
        lines.append("")
        lines.append("latency histograms")
        for name in sorted(metrics.histograms):
            hist = metrics.histograms[name]
            if hist.count == 0:
                continue
            p = hist.percentiles()
            lines.append(
                f"  {name[:28]:<28} n={hist.count:<6} "
                f"p50={p['p50']:g} p95={p['p95']:g} p99={p['p99']:g} "
                f"max={hist.maximum:g}")
    return "\n".join(lines) + "\n"


# -- the live demo -----------------------------------------------------------


def _live_demo(width: int, out) -> int:
    """A small throttled SF build under open-loop traffic, rendered as
    periodic live frames (also exercised by tests)."""
    from repro import BuildOptions, IndexSpec, System, SystemConfig
    from repro.core import get_builder
    from repro.obs.health import enable_health
    from repro.obs.progress import enable_progress
    from repro.obs.recorder import enable_tracing
    from repro.sim.kernel import Delay
    from repro.workloads.openloop import OpenLoopDriver, OpenLoopSpec

    system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                 sort_workspace=32), seed=21)
    enable_tracing(system)
    tracker = enable_progress(system)
    monitor = enable_health(system, sample_every=20.0)
    table = system.create_table("t", ["k", "p"])
    spec = OpenLoopSpec(operations=120, rate=1.0, range_weight=0.0,
                        key_space=500)
    driver = OpenLoopDriver(system, table, spec, seed=21)
    preload = system.spawn(driver.preload(400), name="preload")
    system.run()
    if preload.error is not None:
        raise preload.error
    builder = get_builder("sf")(
        system, table, IndexSpec.of("idx", ["k"]),
        options=BuildOptions(checkpoint_every_keys=128))
    proc = system.spawn(builder.run(), name="builder")
    driver.spawn()

    def frames():
        while True:
            out.write(render_live(system, tracker, monitor, width=width))
            out.write("\n")
            yield Delay(40.0)
            if system.sim.live_processes <= 1:
                return

    system.spawn(frames(), name="dashboard")
    system.run()
    if proc.error is not None:
        raise proc.error
    out.write(render_live(system, tracker, monitor, width=width))
    return 0


# -- CLI ---------------------------------------------------------------------


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.dashboard",
        description="Render an ASCII cluster dashboard from a "
                    "TraceRecorder JSONL file (or --live-demo).")
    parser.add_argument("trace", nargs="?", help="JSONL trace file")
    parser.add_argument("--width", type=int, default=76,
                        help="dashboard width in columns (default 76)")
    parser.add_argument("--check-clean", action="store_true",
                        help="exit non-zero unless the trace has "
                             "progress rows and no firing alerts")
    parser.add_argument("--live-demo", action="store_true",
                        help="run a small tracked build and render "
                             "live frames instead of reading a trace")
    args = parser.parse_args(argv)
    if args.live_demo:
        return _live_demo(args.width, sys.stdout)
    if args.trace is None:
        parser.error("a trace file is required unless --live-demo")
    trace = load_for_cli(args.trace)
    if trace is None:
        return 2
    sys.stdout.write(render_dashboard(trace, width=args.width))
    if args.check_clean:
        rows = progress_rows(trace)
        firing = [row for row in alert_rows(trace) if row["active"]]
        if not rows:
            sys.stdout.write("check-clean: FAIL (no build progress)\n")
            return 1
        if firing:
            names = ", ".join(row["alert"] for row in firing)
            sys.stdout.write(f"check-clean: FAIL (firing: {names})\n")
            return 1
        sys.stdout.write(
            f"check-clean: OK ({len(rows)} build(s), 0 firing alerts)\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
