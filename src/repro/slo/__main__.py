"""``python -m repro.slo`` -- latency report from a trace JSONL file.

Reads a ``repro.obs`` trace (e.g. written by ``TraceRecorder.to_jsonl``)
and prints the :func:`repro.slo.analyzer.latency_report` as JSON::

    python -m repro.slo build.trace.jsonl
    python -m repro.slo build.trace.jsonl --window 120 850 --all-outcomes
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.obs.trace import load_for_cli
from repro.slo.analyzer import latency_report


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.slo",
        description="latency-SLO report from a repro.obs trace JSONL")
    parser.add_argument("trace", help="trace JSONL file (- for stdin)")
    parser.add_argument("--span", default="op",
                        help="span name to analyze (default: op)")
    parser.add_argument("--window", nargs=2, type=float, default=None,
                        metavar=("T0", "T1"),
                        help="only operations issued in [T0, T1]")
    parser.add_argument("--all-outcomes", action="store_true",
                        help="include aborted/errored operations")
    args = parser.parse_args(argv)

    trace = load_for_cli(args.trace)
    if trace is None:
        return 2
    try:
        report = latency_report(
            trace, span_name=args.span,
            only_outcome=None if args.all_outcomes else "committed",
            window=tuple(args.window) if args.window else None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
