"""The sweep harness: scenario x perturbation x oracle.

The simulator is deterministic (section 7's argument that restart
recovery "can be tested systematically"), so one seeded
:class:`~repro.sweep.scenario.Scenario` re-runs exactly under any number
of perturbations.  A sweep runs each row's clean **baseline** (its
unarmed injector leaves the {site: hits} census; a broken baseline is
reported as such, not as a wall of perturbed failures), **enumerates**
plans -- a crash plan for every hit of every site of the census,
optionally all under one seeded schedule, or N seeded schedules -- and
**runs** each through :func:`run_plan`, which ends in the scenario's
oracle.  A failing plan **shrinks** (:func:`shrink_failure`) and
:func:`failure_dump` renders its exact reproduction recipe: fault plan,
choice-string, scenario.

CLI: ``python -m repro.sweep crash|schedule --help``.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from repro.faultinject.injector import (
    CRASH,
    FaultPlan,
    LOST_FLUSH,
    TORN_WRITE,
)
from repro.faultinject.sites import LOST_CAPABLE, SITE_DOCS, TORN_CAPABLE
from repro.sweep.scenario import (
    ClusterScenario,
    Plan,
    PlanResult,
    Scenario,
    SchedulePlan,
)

#: ``(builder, partitions)`` rows ``schedule --builder all`` explores;
#: psf runs at P in {1, 2, 3} (the paper's interleaving arguments must
#: hold per shard count) and multi builds K=3 indexes off one shared
#: scan (section 6.2), serial and sharded
DEFAULT_ROWS = (("offline", None), ("nsf", None), ("sf", None),
                ("psf", 1), ("psf", 2), ("psf", 3),
                ("multi", None), ("multi", 2))


def run_plan(scenario: Scenario, plan) -> PlanResult:
    """Run ``scenario`` once under ``plan`` (a :class:`Plan`, or a bare
    FaultPlan / SchedulePlan) and apply its oracle."""
    return scenario.run(Plan.of(plan))


def discover(scenario: Scenario,
             schedule: Optional[SchedulePlan] = None) -> dict:
    """Run the scenario unarmed; return the {site: hit count} census.

    Raises if the clean run itself fails the oracle.
    """
    result = scenario.run(Plan(schedule=schedule))
    if result.failed:
        raise RuntimeError(f"clean discovery run failed: {result.detail}")
    return result.site_hits


def enumerate_plans(scenario: Scenario, discovered: dict,
                    schedule: Optional[SchedulePlan] = None) -> list:
    """Every (site, hit, kind) plan of the discovery census.

    Each hit of each site is a crash, plus a torn write and a lost flush
    where the site can express them (:data:`TORN_CAPABLE` /
    :data:`LOST_CAPABLE`).  ``max_plans`` cuts the list to an even
    stride over all of it, first plan included, so no late site drops
    out whole.
    """
    plans = []
    for site in sorted(discovered):
        kinds = [CRASH] + [kind for kind, capable in (
            (TORN_WRITE, TORN_CAPABLE), (LOST_FLUSH, LOST_CAPABLE))
            if site in capable]
        plans.extend(Plan(FaultPlan(site, hit, kind), schedule)
                     for hit in range(1, discovered[site] + 1)
                     for kind in kinds)
    cap = scenario.max_plans
    if cap is None or len(plans) <= cap:
        return plans
    return [plans[i * len(plans) // cap] for i in range(cap)]


def schedule_seed_for(base_seed: int, row_index: int, n: int) -> int:
    """Deterministic per-run policy seed (stable across sweep shapes)."""
    return (base_seed * 1_000_003) ^ (row_index << 20) ^ n


# -- shrinking and reporting one failure ----------------------------------

#: shrink schedule: ``(scenario field, floor)`` pairs tried in order (the
#: build needs *some* table to index)
SHRINK_FLOORS = (("records", 20), ("operations", 0), ("workers", 1))


def failure_dump(plan, scenario: Scenario, result: PlanResult,
                 attempts: int = 1) -> str:
    """Render a deterministic reproduction recipe for one run."""
    plan = Plan.of(plan)
    choices = result.choices or \
        (plan.schedule and plan.schedule.choices) or ""
    replay = replace(plan, schedule=plan.schedule and replace(
        plan.schedule, choices=choices))
    lines = [
        f"plan        : {plan.describe()}",
        f"failure     : {result.detail or '(passed)'}",
        f"fired       : "
        f"{'yes, at t=%.3f' % result.fired_at if result.fired else 'no'}",
        f"choices     : {choices or '(fifo)'}",
        f"perturbed   : {result.ties_perturbed} ties, "
        f"{result.preemptions} preemptions over {result.consults} consults",
        f"reproduce   : run_plan({scenario!r}, {replay!r})",
    ]
    if plan.fault is None:
        partitions = "" if scenario.partitions is None \
            else f"--partitions {scenario.partitions} "
        channels = "" if scenario.disk_channels is None \
            else f"--disk-channels {scenario.disk_channels} "
        lines.append(
            f"replay      : python -m repro.sweep schedule "
            f"--builder {scenario.builder} {partitions}"
            f"--records {scenario.records} "
            f"--operations {scenario.operations} "
            f"--workers {scenario.workers} --seed {scenario.seed} "
            f"--buffer-frames {scenario.buffer_frames} {channels}"
            f"--replay {choices!r}")
    lines.append(f"shrink runs : {attempts}")
    if result.site_hits:
        lines.append("site hits in the failing run:")
        lines.extend(f"  {site:<32} {result.site_hits[site]:>6}"
                     for site in sorted(result.site_hits))
    return "\n".join(lines)


@dataclass
class ShrinkResult:
    """The smallest configuration that still reproduces the failure."""

    plan: Any
    config: Any
    result: Any
    attempts: int
    dump: Callable[..., str] = field(default=failure_dump, repr=False)

    def report(self) -> str:
        return self.dump(self.plan, self.config, self.result,
                         attempts=self.attempts)


def shrink_failure(config: Any, plan: Any, max_attempts: int = 16, *,
                   runner: Callable[[Any, Any], Any] = run_plan,
                   dump: Callable[..., str] = failure_dump) -> ShrinkResult:
    """Minimize ``config`` while ``plan`` still fails under it.

    Greedy halving, one :data:`SHRINK_FLOORS` field at a time; each
    candidate is a full re-run via ``runner(config, plan)``.  A seeded
    schedule re-explores an analogous schedule over the smaller
    workload, and the shrunk run's own choice-string becomes the recipe.
    If the plan does not fail under ``config`` it is returned untouched.
    """
    best = runner(config, plan)
    attempts = 1
    current = config
    for field_name, floor in SHRINK_FLOORS if best.failed else ():
        while attempts < max_attempts:
            value = getattr(current, field_name)
            smaller = max(floor, value // 2)
            if smaller == value:
                break
            candidate = replace(current, **{field_name: smaller})
            result = runner(candidate, plan)
            attempts += 1
            if result.passed:
                break
            current, best = candidate, result
    return ShrinkResult(plan=plan, config=current, result=best,
                        attempts=attempts, dump=dump)


# -- the sweep ---------------------------------------------------------------


@dataclass
class Row:
    """One scenario's baseline plus every perturbed run of it."""

    scenario: Scenario
    #: the clean run (a schedule sweep's: under the explicit FIFO policy)
    baseline: PlanResult
    results: list = field(default_factory=list)

    @property
    def label(self) -> str:
        return self.scenario.label

    @property
    def discovered(self) -> dict:
        return self.baseline.site_hits

    @property
    def failures(self) -> list:
        rows = [] if self.baseline.passed else [self.baseline]
        return rows + [r for r in self.results if r.failed]

    def totals(self) -> tuple[int, int, int]:
        return (sum(r.consults for r in self.results),
                sum(r.ties_perturbed for r in self.results),
                sum(r.preemptions for r in self.results))


@dataclass
class Report:
    """Rows + failures of a whole sweep, and the one renderer."""

    scenario: Scenario
    #: seeded schedules per row; None = crash sweep
    schedules: Optional[int]
    rows: list = field(default_factory=list)

    @property
    def results(self) -> list:
        return [r for row in self.rows for r in row.results]

    @property
    def failures(self) -> list:
        return [r for row in self.rows for r in row.failures]

    @property
    def all_passed(self) -> bool:
        return not self.failures

    def to_text(self) -> str:
        crash = self.schedules is None
        s = self.scenario
        lines = [
            f"{'crash' if crash else 'schedule'} sweep: records={s.records} "
            f"operations={s.operations} workers={s.workers} seed={s.seed} "
            f"buffer_frames={s.buffer_frames} preempt_prob={s.preempt_prob}"
            + ("" if s.disk_channels is None
               else f" disk_channels={s.disk_channels}"),
            "every hit of every site" + (
                f", cut to {s.max_plans} plans a row by an even stride"
                if s.max_plans is not None else "") if crash else
            f"{self.schedules} seeded schedules per row (+1 FIFO baseline)",
            "",
            f"{'row':<10} {'sites':>5} {'plans':>5} {'consults':>10} "
            f"{'tie-perturb':>11} {'preempts':>9}  result",
        ]
        for row in self.rows:
            consults, ties, preempts = row.totals()
            bad = row.failures
            lines.append(
                f"{row.label:<10} {len(row.discovered):>5} "
                f"{len(row.results):>5} {consults:>10} {ties:>11} "
                f"{preempts:>9}  "
                f"{'PASS' if not bad else 'FAIL (%d)' % len(bad)}")
        for row in self.rows if crash else ():
            lines += ["",
                      f"{row.label + ' site':<32} {'hits':>6}  plans  result"]
            for site in sorted(row.discovered):
                ran = [r for r in row.results if r.plan.fault.site == site]
                bad = [r.plan.describe() for r in ran if r.failed]
                verdict = "-" if not ran else "PASS" if not bad \
                    else f"FAIL ({', '.join(bad)})"
                lines.append(f"{site:<32} {row.discovered[site]:>6}  "
                             f"{len(ran):>5}  {verdict}")
        # a crash sweep counts its plans; a schedule sweep also counts
        # each row's FIFO baseline, itself one of the explored schedules
        counted = [r for row in self.rows
                   for r in ([] if crash else [row.baseline]) + row.results]
        passed = sum(r.passed for r in counted)
        lines += ["", f"{passed}/{len(counted)} plans recovered and audited "
                      "clean" if crash else
                  f"{passed}/{len(counted)} schedules passed the full oracle"]
        for row in self.rows:
            lines.extend(f"  FAIL {row.label} {r.plan.describe()}: {r.detail}"
                         for r in row.failures)
        return "\n".join(lines)


def run_sweep(scenario: Scenario, schedules: Optional[int] = None,
              rows: Optional[list] = None, progress=None,
              shrink: bool = False, trace: bool = False,
              schedule: Optional[SchedulePlan] = None) -> Report:
    """Run the baseline and every plan of every row; return the report.

    ``schedules=None`` is a crash sweep (census and plans under
    ``schedule`` when given); ``schedules=N`` explores N seeded
    schedules per row.  ``rows``: ``(builder, partitions)`` pairs
    (default: the scenario's own).  ``shrink`` appends a minimized
    recipe to each failing result's detail; ``trace`` keeps each
    baseline's JSONL trace (the sweep's reference timeline).
    """
    crash = schedules is None
    if rows is None:
        rows = [(scenario.builder, scenario.partitions)]
    report = Report(scenario, schedules)
    for row_index, (builder, partitions) in enumerate(rows):
        row_scenario = replace(scenario, builder=builder,
                               partitions=partitions)
        baseline = row_scenario.run(
            Plan(schedule=schedule if crash else SchedulePlan()), trace=trace)
        row = Row(row_scenario, baseline)
        report.rows.append(row)
        if progress is not None:
            status = "ok" if baseline.passed else f"FAIL: {baseline.detail}"
            progress(f"[{row.label}] baseline {status}")
        if baseline.failed:
            continue  # perturbing a broken baseline repeats one failure
        if crash:
            plans = enumerate_plans(row_scenario, baseline.site_hits,
                                    schedule)
        else:
            plans = [Plan(schedule=SchedulePlan(
                schedule_seed_for(scenario.seed, row_index, n)))
                for n in range(schedules)]
        for index, plan in enumerate(plans):
            result = row_scenario.run(plan)
            if result.failed and shrink:
                result.detail += "\n" + shrink_failure(row_scenario,
                                                       plan).report()
            row.results.append(result)
            if progress is not None:
                first_line = result.detail.partition("\n")[0]
                status = "ok" if result.passed else f"FAIL: {first_line}"
                progress(f"[{row.label} {index + 1}/{len(plans)}] "
                         f"{plan.describe():<40} {status}")
    return report


# -- CLI ----------------------------------------------------------------------


def _slug(text: str) -> str:
    """Filesystem-safe name for one plan's artifact files."""
    return "".join(ch if ch.isalnum() or ch in "._-" else "-" for ch in text)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Perturb a seeded online index build -- one injected "
                    "fault per (site, hit) pair, or seeded adversarial "
                    "schedules -- and prove the oracle on every run.  "
                    "Unset sizes default per mode and scenario.")
    parser.add_argument("mode", choices=("crash", "schedule"))
    parser.add_argument("--builder", default=None,
                        choices=("all", "offline", "nsf", "sf", "psf",
                                 "multi", "rebuild", "cluster"),
                        help="default: sf (crash), all (schedule); "
                             "'cluster' is the replication scenario")
    parser.add_argument("--partitions", type=int, default=None,
                        help="scan shards of a side-file builder "
                             "(default: serial, psf 2; a schedule sweep "
                             "of psf alone covers P in {1,2,3})")
    parser.add_argument("--replicas", type=int, default=None,
                        help="cluster scenario only")
    parser.add_argument("--records", type=int, default=None)
    parser.add_argument("--operations", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--buffer-frames", type=int, default=None,
                        help="buffer pool frames (default: 80 crash, 64 "
                             "schedule and cluster)")
    parser.add_argument("--disk-channels", type=int, default=None,
                        help="shared-disk channels (default: the unlimited "
                             "model); two or more arm write-behind and "
                             "list prefetch")
    parser.add_argument("--build-rate-limit", type=float, default=None,
                        help="IB admission-control rate (work items per "
                             "simulated time unit; default unthrottled)")
    parser.add_argument("--max-plans", type=int, default=None,
                        help="crash plans a row, an even stride over "
                             "every hit of every site")
    parser.add_argument("--list-sites", action="store_true",
                        help="discover and list fault sites, then exit")
    parser.add_argument("--schedules", type=int, default=50,
                        help="seeded schedules per row (schedule mode)")
    parser.add_argument("--preempt-prob", type=float, default=None)
    parser.add_argument("--max-preemptions", type=int, default=None)
    parser.add_argument("--schedule-seed", type=int, default=None,
                        help="schedule: run exactly this seeded schedule; "
                             "crash: sweep under it")
    parser.add_argument("--replay", default=None, metavar="CHOICES",
                        help="like --schedule-seed, from a recorded "
                             "choice-string")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip shrinking failing plans")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write the clean baseline run's JSONL trace "
                             "(render with python -m repro.obs.report)")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="write one JSONL trace per FAILED plan here")
    parser.add_argument("--failures-out", default=None, metavar="DIR",
                        help="write one reproduction recipe per failing "
                             "plan here (CI artifact)")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    crash = args.mode == "crash"
    builder = args.builder or ("sf" if crash else "all")
    if crash and builder in ("all", "offline"):
        parser.error(f"crash sweeps have no {builder!r} row")
    base = ClusterScenario() if builder == "cluster" else Scenario() \
        if crash else Scenario(records=120, operations=40, buffer_frames=64)
    flags = dict(
        builder=None if builder == "all" else builder,
        partitions=args.partitions,
        records=args.records, operations=args.operations,
        workers=args.workers, seed=args.seed,
        buffer_frames=args.buffer_frames,
        build_rate_limit=args.build_rate_limit,
        max_plans=args.max_plans,
        preempt_prob=args.preempt_prob,
        max_preemptions=args.max_preemptions)
    if builder == "cluster":
        flags["replicas"] = args.replicas
        if args.disk_channels is not None:
            parser.error("the cluster scenario has no --disk-channels")
    else:
        flags["disk_channels"] = args.disk_channels
    scenario = replace(base, **{name: value for name, value in flags.items()
                                if value is not None})
    schedule = None
    if args.replay is not None or args.schedule_seed is not None:
        schedule = SchedulePlan(args.schedule_seed, args.replay)

    if args.list_sites:
        discovered = discover(scenario, schedule)
        for site in sorted(discovered):
            doc = SITE_DOCS.get(site, "(dynamic site)")
            print(f"{site:<32} {discovered[site]:>6}  {doc}")
        print(f"{len(discovered)} sites")
        return 0
    if schedule is not None and not crash:
        # Single-run mode: replay a recorded schedule or explore one seed.
        result = run_plan(scenario, schedule)
        print(failure_dump(schedule, scenario, result))
        return 0 if result.passed else 1

    if builder == "all":
        rows = list(DEFAULT_ROWS)
    elif builder == "psf" and args.partitions is None and not crash:
        rows = [("psf", p) for p in (1, 2, 3)]
    else:
        rows = None
    progress = None if args.quiet else \
        (lambda line: print(line, file=sys.stderr, flush=True))
    report = run_sweep(scenario, None if crash else args.schedules,
                       rows=rows, progress=progress,
                       shrink=not args.no_shrink,
                       trace=args.trace_out is not None, schedule=schedule)
    if args.trace_out is not None:
        with open(args.trace_out, "w") as handle:
            handle.write(report.rows[0].baseline.trace or "")
    for row in report.rows:
        for result in row.failures:
            name = _slug(f"{row.label}-{result.plan.describe()}")
            recipe = failure_dump(result.plan, row.scenario, result) + "\n"
            for out_dir, suffix, text in (
                    (args.trace_dir, "jsonl", result.trace),
                    (args.failures_out, "txt", recipe)):
                if out_dir is None or text is None:
                    continue
                os.makedirs(out_dir, exist_ok=True)
                path = os.path.join(out_dir, f"{name}.{suffix}")
                with open(path, "w") as handle:
                    handle.write(text)
                print(f"failure written: {path}", file=sys.stderr)
    print(report.to_text())
    return 0 if report.all_passed else 1
