"""Build-report CLI: render a trace as an ASCII phase timeline.

Usage::

    python -m repro.obs.report TRACE.jsonl [--width N]

Reads a JSONL trace written by :class:`repro.obs.TraceRecorder` and
renders:

* a **phase timeline** -- one Gantt-style bar per span (per-shard rows
  for ``psf``), with spans cut short by a crash terminated by ``x``, and
  a marks row locating instants (crash, restart, flag flip, checkpoints,
  quiesce);
* a **phase summary table** -- per span: start, end, duration, the WAL
  bytes appended while it was open, and notable end attributes
  (barrier wait, keys, drained entries);
* **gauge high-water marks** -- per gauge series (side-file backlog,
  ``read_watermark`` progress, buffer dirty count): sample count,
  maximum and when it happened, final value;
* an **instant census**;

and the CLI ends with one **drain verdict** per index
(:func:`drain_verdicts`): ``converging``, or ``diverging from t=...``.

The module is also the import surface the bench suites and tests use:
:func:`phase_durations` is the per-phase breakdown recorded in the
benchmark JSON.  Every function takes a :class:`~repro.obs.trace.Trace`
or the events to read one from.
"""

from __future__ import annotations

import argparse
import sys
from collections import deque
from typing import Optional

from repro.obs.trace import Span, Trace, TraceSource, load_for_cli

#: instant name -> (mark character, priority); higher priority wins a column
_MARKS = {
    "system.crash": ("X", 6),
    "system.restart": ("R", 5),
    "sf.flip": ("F", 4),
    "quiesce.begin": ("Q", 3),
    "quiesce.end": ("q", 3),
    "recovery.orphan_discard": ("o", 2),
    "recovery.torn_tree": ("t", 2),
    "wal.checkpoint": ("C", 1),
}

_MARK_LEGEND = ("X crash  R restart  F flip  Q/q quiesce  C checkpoint  "
                "o orphan-discard  t torn-tree")


def phase_durations(events: TraceSource) -> dict[str, float]:
    """Per-phase simulated durations (summed over same-label spans).

    Only the build root and its direct children count as phases; deeper
    spans (per-shard rows) stay out so the breakdown's parts relate to
    the whole.  Used by the perf suite's trace-derived breakdowns.
    """
    durations: dict[str, float] = {}
    for span in Trace.of(events).spans:
        if span.depth > 1:
            continue
        durations[span.label] = durations.get(span.label, 0.0) \
            + span.duration
    return durations


def _gauge_rows(trace: Trace) -> list[tuple[str, list[dict], dict]]:
    """``(label, samples, peak sample)`` per gauge series (by index)."""
    rows = []
    for (name, index), samples in trace.series("index").items():
        peak = max(samples, key=lambda e: (e.get("value", 0), -e["t"]))
        label = name if index is None else f"{name}[{index}]"
        rows.append((label, samples, peak))
    return rows


# -- the drain verdict -------------------------------------------------------

#: the drain verdict's trailing window of backlog samples, and its fill
#: before it judges
DRAIN_WINDOW = 8
DRAIN_MIN_SAMPLES = 4


def drain_verdicts(events: TraceSource) -> dict[str, list[float]]:
    """When each side-file drain stopped gaining on the appends, which
    it must for the flip to come (sections 3.1, 3.2.5).

    Over each ``drain`` span, the index's ``sidefile.backlog`` gauges
    (one per drain batch, plus a sampled trace's periodic samples) fill
    a trailing window.  Once it holds :data:`DRAIN_MIN_SAMPLES`, the
    drain is *diverging* while backlog remains, time has advanced and
    the backlog is no smaller than at the window's start (drain rate at
    most append rate), converging again once the backlog falls.
    Returns ``{index: [start of each diverging episode]}``."""
    trace = Trace.of(events)
    backlog = trace.series("index", names=("sidefile.backlog",))
    verdicts: dict[str, list[float]] = {}
    for span in trace.spans:
        index = span.attrs.get("index")
        if span.name != "drain" or index is None:
            continue
        episodes = verdicts.setdefault(index, [])
        window: deque = deque(maxlen=DRAIN_WINDOW)
        diverging = False
        for sample in backlog.get(("sidefile.backlog", index), ()):
            if sample.get("epoch", 0) != span.epoch \
                    or not span.start <= sample["t"] <= span.end:
                continue
            window.append((sample["t"], sample["value"]))
            (t0, first), (t1, last) = window[0], window[-1]
            if len(window) < DRAIN_MIN_SAMPLES or t1 <= t0 or last <= 0:
                continue
            if last >= first and not diverging:
                episodes.append(t1)
            diverging = last >= first
    return verdicts


# -- rendering ----------------------------------------------------------------


def _bar(start: float, end: float, t0: float, t1: float, width: int,
         crashed: bool) -> str:
    window = (t1 - t0) or 1.0
    c0 = int((start - t0) / window * (width - 1))
    c1 = int((end - t0) / window * (width - 1))
    c0 = min(max(c0, 0), width - 1)
    c1 = min(max(c1, c0), width - 1)
    cells = [" "] * width
    for col in range(c0, c1 + 1):
        cells[col] = "="
    if crashed:
        cells[c1] = "x"
    return "".join(cells)


def _marks_row(trace: Trace, width: int) -> str:
    window = (trace.t1 - trace.t0) or 1.0
    cells = [" "] * width
    best = [0] * width
    for event in trace.named(*_MARKS):
        char, priority = _MARKS[event["name"]]
        col = int((event["t"] - trace.t0) / window * (width - 1))
        col = min(max(col, 0), width - 1)
        if priority > best[col]:
            best[col] = priority
            cells[col] = char
    return "".join(cells)


def _notes(span: Span) -> str:
    parts = []
    for key in ("barrier_wait", "keys", "pages", "drained", "waited",
                "held", "workers"):
        value = span.end_attrs.get(key, span.attrs.get(key))
        if value is None:
            continue
        if isinstance(value, float):
            parts.append(f"{key}={value:.1f}")
        else:
            parts.append(f"{key}={value}")
    if span.crashed:
        parts.append("cut-by-crash")
    return " ".join(parts)


def render_report(events: TraceSource, width: int = 60) -> str:
    """The full text report for one trace."""
    trace = Trace.of(events)
    if not trace.events:
        return "empty trace\n"
    spans, t0, t1 = trace.spans, trace.t0, trace.t1
    cut = sum(1 for span in spans if span.crashed)
    instants = sum(len(found) for found in trace.instants.values())
    gauges = sum(len(samples) for samples in trace.gauges.values())

    lines = [
        f"trace report: {len(trace.events)} events, {trace.epochs} "
        f"epoch(s), t={t0:.1f}..{t1:.1f}",
        f"spans: {len(spans)} ({cut} cut short by a crash), "
        f"instants: {instants}, gauge samples: {gauges}",
        "",
        "phase timeline ('=' span, 'x' crash-cut)",
    ]
    label_width = max([len("  " * s.depth + s.label) for s in spans] + [5])
    label_width = min(label_width, 28)
    for span in spans:
        label = ("  " * span.depth + span.label)[:label_width]
        bar = _bar(span.start, span.end, t0, t1, width, span.crashed)
        lines.append(f"{label:<{label_width}} |{bar}|")
    marks = _marks_row(trace, width)
    if marks.strip():
        lines.append(f"{'marks':<{label_width}} |{marks}|")
        lines.append(f"{'':<{label_width}}  {_MARK_LEGEND}")

    lines.append("")
    lines.append("phase summary")
    header = (f"{'phase':<{label_width}} {'start':>9} {'end':>9} "
              f"{'duration':>9} {'wal_bytes':>9}  notes")
    lines.append(header)
    lines.append("-" * len(header))
    for span in spans:
        label = ("  " * span.depth + span.label)[:label_width]
        wal = span.end_attrs.get("wal_bytes")
        wal_text = str(wal) if wal is not None else "-"
        end_text = f"{span.end:>9.1f}" if not span.crashed \
            else f"{'CRASH':>9}"
        lines.append(f"{label:<{label_width}} {span.start:>9.1f} "
                     f"{end_text} {span.duration:>9.1f} "
                     f"{wal_text:>9}  {_notes(span)}")

    if gauges:
        lines.append("")
        lines.append("gauge high-water marks")
        for label, samples, peak in _gauge_rows(trace):
            lines.append(
                f"  {label:<28} samples={len(samples):<4} "
                f"max={peak.get('value')} at t={peak['t']:.1f}  "
                f"last={samples[-1].get('value')}")

    if instants:
        lines.append("")
        lines.append("instants")
        for name in sorted(trace.instants):
            times = [e["t"] for e in trace.instants[name]]
            where = ", ".join(f"{t:.1f}" for t in times[:4])
            if len(times) > 4:
                where += ", ..."
            lines.append(f"  {name:<28} x{len(times):<4} at t={where}")
    return "\n".join(lines) + "\n"


# -- CLI ----------------------------------------------------------------------


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Render an ASCII phase timeline + summary tables "
                    "from a TraceRecorder JSONL file.")
    parser.add_argument("trace", help="JSONL trace file")
    parser.add_argument("--width", type=int, default=60,
                        help="timeline width in columns (default 60)")
    args = parser.parse_args(argv)
    trace = load_for_cli(args.trace)
    if trace is None:
        return 2
    sys.stdout.write(render_report(trace, width=args.width))
    verdicts = sorted(drain_verdicts(trace).items())
    sys.stdout.write("\ndrain verdicts\n" if verdicts else "")
    for index, starts in verdicts:
        verdict = "diverging from t=" + ", ".join(
            f"{t:.1f}" for t in starts) if starts else "converging"
        sys.stdout.write(f"  {'drain:' + str(index):<28} {verdict}\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
