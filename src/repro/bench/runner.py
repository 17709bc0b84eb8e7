"""The one bench runner (``python -m repro.bench``).

A *suite* is a named set of deterministic scenario bodies plus the
self-gates over the rows they return.  Every value a row holds is on the
simulated clock or an exact counter, so two runs on any machine and any
CPython from 3.10 to 3.13 write byte-identical files (float totals that
reach a row add in IEEE order, :func:`repro.metrics.ordered_sum`, not
with the builtin ``sum()``) and the regression gate is plain equality
with the committed ``BENCH_BASELINE.json``::

    python -m repro.bench --out now.json --check BENCH_BASELINE.json
    python -m repro.bench slo multibuild --out now.json
    python -m repro.bench --out BENCH_BASELINE.json    # regenerate

A deliberate behaviour change regenerates the baseline in the same
commit; the baseline's diff is the review artefact.  The wall clock is
``benchmarks/e2e``'s business (``BENCHMARK.json``), not this runner's.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Suite:
    """What a bench module exports for the runner to consume."""

    name: str
    #: row name -> scenario body returning the row's fields, in run order
    rows: dict[str, Callable[[], dict]]
    #: self-gates over ``{row name: fields}``; called only when every row
    #: ran, so a gate indexes rows directly.  Each problem it returns
    #: starts with the name of the row it is about.
    gates: Callable[[dict[str, dict]], list[str]]


def run_suites(suites: Sequence[Suite],
               echo: Callable[[str], None] = lambda line: None) -> dict:
    """Run every row of ``suites``; never raises -- a scenario's
    exception becomes ``ok: false`` + ``error`` in its row."""
    payload: dict = {"schema_version": SCHEMA_VERSION, "suites": {}}
    for suite in suites:
        rows = payload["suites"][suite.name] = {}
        for name, body in suite.rows.items():
            try:
                row = {"ok": True, **body()}
            except Exception as exc:  # noqa: BLE001 - recorded, gated by check
                row = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                echo(f"  FAIL {suite.name}/{name}: {row['error']}")
            else:
                echo(f"  ok   {suite.name + '/' + name:40s}{_headline(row)}")
            rows[name] = row
    return payload


def _headline(row: dict) -> str:
    """Build time and foreground p99 side by side, where a row has them."""
    build = row.get("build_time", row.get("sim_time"))
    p99 = row.get("latency", {}).get("p99")
    return (f"build={build:<10.1f}" if build is not None else " " * 16) \
        + (f"p99={p99:.1f}" if p99 is not None else "")


def dumps(payload: dict) -> str:
    """The one serialisation (what ``--out`` writes and the baseline is)."""
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def check(payload: dict, suites: Sequence[Suite],
          baseline: Optional[dict] = None) -> list[str]:
    """The one gate, per suite: every row the suite enumerates is present
    and ok, then the suite's self-gates, then deep equality with the
    baseline.  Returns the problems (empty = pass)."""
    if baseline is not None \
            and baseline.get("schema_version") != SCHEMA_VERSION:
        return [f"baseline schema_version "
                f"{baseline.get('schema_version')!r} != {SCHEMA_VERSION}"]
    problems: list[str] = []
    for suite in suites:
        rows = payload["suites"].get(suite.name, {})
        broken = []
        for name in suite.rows:
            if name not in rows:
                broken.append(f"{suite.name}/{name}: row missing")
            elif not rows[name].get("ok"):
                broken.append(f"{suite.name}/{name}: failed: "
                              f"{rows[name].get('error', 'unknown error')}")
        if broken:
            problems.extend(broken)
            continue
        problems.extend(f"{suite.name}/{problem}"
                        for problem in suite.gates(rows))
        if baseline is not None:
            problems.extend(_differences(
                suite.name, baseline.get("suites", {}).get(suite.name, {}),
                rows))
    return problems


def _differences(path: str, old, new) -> Iterator[str]:
    """Every leaf where ``new`` is not exactly ``old``, as
    ``suite/row/field: baseline → now``."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            if key not in new:
                yield f"{path}/{key}: in the baseline, not in this run"
            elif key not in old:
                yield f"{path}/{key}: in this run, not in the baseline"
            else:
                yield from _differences(f"{path}/{key}", old[key], new[key])
    elif isinstance(old, list) and isinstance(new, list) \
            and len(old) == len(new):
        for position, (was, now) in enumerate(zip(old, new)):
            yield from _differences(f"{path}[{position}]", was, now)
    elif type(old) is not type(new) or old != new:
        yield f"{path}: {old!r} → {new!r}"


def main(suites: Sequence[Suite],
         argv: Optional[list[str]] = None) -> int:
    names = [suite.name for suite in suites]
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="simulated-clock bench suites, gated by equality "
                    "with a committed baseline")
    parser.add_argument("suites", nargs="*", metavar="SUITE",
                        help=f"suites to run, of {', '.join(names)} "
                             "(default: all)")
    parser.add_argument("--out", required=True,
                        help="write the results JSON here")
    parser.add_argument("--check", metavar="BASELINE",
                        help="fail unless the run equals this baseline")
    args = parser.parse_args(argv)
    for name in args.suites:
        if name not in names:
            parser.error(f"unknown suite {name!r} "
                         f"(choose from {', '.join(names)})")

    chosen = [suite for suite in suites
              if not args.suites or suite.name in args.suites]
    payload = run_suites(chosen, echo=print)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(dumps(payload))
    print(f"wrote {args.out}")
    baseline = None
    if args.check:
        with open(args.check, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    problems = check(payload, chosen, baseline)
    for problem in problems:
        print(f"FAIL: {problem}")
    if not problems:
        rows = sum(len(suite.rows) for suite in chosen)
        against = f", equal to {args.check}" if args.check else ""
        print(f"ok: {rows} rows in {len(chosen)} suite(s){against}")
    return 1 if problems else 0
