"""Multi-index build bench (suite ``multibuild`` of
``python -m repro.bench``).

Measures what section 6.2's shared scan buys: for K in a small sweep,
the suite builds the same K indexes twice under identical open-loop
traffic --

* ``multibuild/k{K}`` -- one :class:`~repro.core.MultiIndexBuilder`
  run: ONE table scan feeding K sort pipelines, then the per-index
  load/drain/flip pipeline;
* ``sequential/k{K}`` -- K separate SF builds run back to back, each
  with its own full table scan;

plus an ``advisor`` scenario that derives the index set from the traffic
spec itself (:func:`repro.advisor.templates_from_spec` ->
:func:`repro.advisor.recommend`) and builds the picks as one multibuild.

Self-gates (:func:`gates`):

* for K >= 2 the multibuild must finish strictly faster than the
  sequential baseline AND scan strictly fewer pages (the whole point);
* for K = 1 the two must scan the same number of pages (the shared-scan
  machinery adds no I/O when there is nothing to share);
* the advisor's picks must be non-empty, within budget and improve the
  estimated workload cost (every pick reaching AVAILABLE is checked by
  the scenario itself).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional

from repro.advisor import AdvisorConfig, recommend, templates_from_spec
from repro.advisor.model import TableStats
from repro.bench.runner import Suite
from repro.core import BuildOptions, IndexSpec
from repro.core.sf import MultiIndexBuilder, SFIndexBuilder
from repro.obs import enable_tracing
from repro.slo.analyzer import latency_report
from repro.system import System, SystemConfig
from repro.workloads import OpenLoopDriver, OpenLoopSpec

#: index counts swept
KS: tuple[int, ...] = (1, 2, 3)

#: one fixed traffic/system shape for every scenario
PARAMS = {
    "seed": 11,
    "rows": 320,
    "operations": 100,
    "arrival_rate": 0.05,
    "key_space": 2000,
    "buffer_frames": 32,
    "disk_channels": 1,
    "advisor_budget_pages": 400,
}

#: the K-sweep's index specs, widest sweep first K are used
SWEEP_SPECS = (
    IndexSpec.of("idx_k", ["k"]),
    IndexSpec.of("idx_a", ["a"]),
    IndexSpec.of("idx_b", ["b"]),
)

#: range-read mix for the advisor scenario: three candidate columns
#: with distinct weights, so the advisor has a real choice to make
RANGE_COLUMNS = (("k", 2.0), ("a", 1.0), ("b", 1.0))

COUNTERS = (
    "build.pages_scanned",
    "build.sidefile_drained",
    "multibuild.indexes_flipped",
    "sidefile.appends",
)


def _row_factory(key: int, tag: str) -> tuple:
    """Four-column rows; extra columns are deterministic in the key so
    serial-equivalence replays stay exact."""
    return (key, tag, (key * 7) % PARAMS["key_space"],
            (key * 13) % PARAMS["key_space"])


def _make_system(rate: Optional[float] = None):
    config = SystemConfig(
        page_capacity=8, leaf_capacity=8, branch_capacity=8,
        buffer_frames=PARAMS["buffer_frames"],
        sort_workspace=32, merge_fanin=4,
        disk_channels=PARAMS["disk_channels"],
        build_rate_limit=rate)
    system = System(config, seed=PARAMS["seed"])
    recorder = enable_tracing(system)
    table = system.create_table("t", ["k", "p", "a", "b"])
    return system, table, recorder


def _make_traffic(system, table,
                  range_columns: tuple = ()) -> OpenLoopDriver:
    spec = OpenLoopSpec(operations=PARAMS["operations"],
                        rate=PARAMS["arrival_rate"],
                        range_weight=1.0 if range_columns else 0.0,
                        range_span=100,
                        range_columns=range_columns,
                        key_space=PARAMS["key_space"])
    driver = OpenLoopDriver(system, table, spec, seed=PARAMS["seed"])
    driver.row_factory = _row_factory
    system.spawn(driver.preload(PARAMS["rows"]), name="preload")
    system.run()
    return driver


def _finish(system, driver, done, recorder, specs) -> dict:
    dispatcher = driver.spawn()
    system.run()
    if dispatcher.error is not None:
        raise dispatcher.error
    if "build_time" not in done:
        raise AssertionError("build did not finish")
    window = (done["start"], done["start"] + done["build_time"])
    from repro.core.descriptor import IndexState
    for spec in specs:
        state = system.indexes[spec.name].state
        if state is not IndexState.AVAILABLE:
            raise AssertionError(f"{spec.name} ended {state!r}")
    scenario: dict[str, Any] = {
        "build_time": done["build_time"],
        "window": list(window),
        "latency": latency_report(recorder.events, window=window),
        "counters": {key: system.metrics.get(key) for key in COUNTERS
                     if system.metrics.get(key)},
    }
    return scenario


def _run_multibuild(k: int) -> dict:
    specs = list(SWEEP_SPECS[:k])
    system, table, recorder = _make_system()
    driver = _make_traffic(system, table)
    build = MultiIndexBuilder(system, table, specs,
                              BuildOptions(checkpoint_every_keys=200,
                                           commit_every_keys=128,
                                           prefetch_pages=2))
    done: dict[str, float] = {}

    def timed():
        done["start"] = system.sim.now
        yield from build.run()
        done["build_time"] = system.sim.now - done["start"]

    system.spawn(timed(), name="builder")
    scenario = _finish(system, driver, done, recorder, specs)
    scenario["params"] = dict(PARAMS, k=k, shape="multibuild")
    scenario["flips"] = {
        name.split(":", 1)[1]: at - done["start"]
        for name, at in build.timings.items()
        if name.startswith("drain_done:")}
    return scenario


def _run_sequential(k: int) -> dict:
    specs = list(SWEEP_SPECS[:k])
    system, table, recorder = _make_system()
    driver = _make_traffic(system, table)
    done: dict[str, float] = {}
    flips: dict[str, float] = {}

    def timed():
        done["start"] = system.sim.now
        for spec in specs:
            build = SFIndexBuilder(
                system, table, spec,
                BuildOptions(checkpoint_every_keys=200,
                             commit_every_keys=128, prefetch_pages=2))
            yield from build.run()
            flips[spec.name] = system.sim.now - done["start"]
        done["build_time"] = system.sim.now - done["start"]

    system.spawn(timed(), name="builder")
    scenario = _finish(system, driver, done, recorder, specs)
    scenario["params"] = dict(PARAMS, k=k, shape="sequential")
    scenario["flips"] = flips
    return scenario


def _run_advisor() -> dict:
    system, table, recorder = _make_system()
    driver = _make_traffic(system, table, range_columns=RANGE_COLUMNS)
    templates = templates_from_spec(driver.olspec)
    stats = TableStats.from_table(system, table)
    report = recommend(templates, stats, AdvisorConfig(
        storage_budget_pages=PARAMS["advisor_budget_pages"],
        max_index_width=2))
    specs = report.specs()
    if not specs:
        raise AssertionError("advisor picked nothing")
    build = MultiIndexBuilder(system, table, specs,
                              BuildOptions(checkpoint_every_keys=200,
                                           commit_every_keys=128,
                                           prefetch_pages=2))
    done: dict[str, float] = {}

    def timed():
        done["start"] = system.sim.now
        yield from build.run()
        done["build_time"] = system.sim.now - done["start"]

    system.spawn(timed(), name="builder")
    scenario = _finish(system, driver, done, recorder, specs)
    scenario["params"] = dict(PARAMS, shape="advisor")
    scenario["advisor"] = {
        "picks": [list(pick.key_columns) for pick in report.picks],
        "initial_cost": report.initial_cost,
        "final_cost": report.final_cost,
        "storage_used": report.storage_used,
    }
    scenario["counters"]["openloop.range_via_index"] = \
        system.metrics.get("openloop.range_via_index")
    return scenario


def _rows() -> dict[str, Callable[[], dict]]:
    rows: dict[str, Callable[[], dict]] = {}
    for k in KS:
        rows[f"multibuild/k{k}"] = partial(_run_multibuild, k)
        rows[f"sequential/k{k}"] = partial(_run_sequential, k)
    rows["advisor"] = _run_advisor
    return rows


def gates(rows: dict[str, dict]) -> list[str]:
    """The suite's own acceptance gates."""
    problems: list[str] = []
    for k in KS:
        name = f"multibuild/k{k}"
        multi, seq = rows[name], rows[f"sequential/k{k}"]
        m_pages = multi["counters"].get("build.pages_scanned", 0)
        s_pages = seq["counters"].get("build.pages_scanned", 0)
        if k == 1 and m_pages != s_pages:
            problems.append(
                f"{name}: scanned {m_pages} pages, sequential {s_pages} "
                f"-- the shared scan should cost nothing extra")
        if k >= 2:
            if not multi["build_time"] < seq["build_time"]:
                problems.append(
                    f"{name}: build_time {multi['build_time']:.1f} not "
                    f"below sequential {seq['build_time']:.1f} -- the "
                    f"shared scan is not paying for itself")
            if not m_pages < s_pages:
                problems.append(
                    f"{name}: scanned {m_pages} pages, sequential "
                    f"{s_pages} -- expected one scan vs {k}")
    adv = rows["advisor"]["advisor"]
    if not adv["picks"]:
        problems.append("advisor: no picks recorded")
    if not adv["final_cost"] < adv["initial_cost"]:
        problems.append(
            f"advisor: estimated cost did not improve "
            f"({adv['initial_cost']} -> {adv['final_cost']})")
    budget = PARAMS["advisor_budget_pages"]
    if adv["storage_used"] > budget:
        problems.append(
            f"advisor: storage {adv['storage_used']} exceeds budget "
            f"{budget}")
    return problems


SUITE = Suite("multibuild", _rows(), gates)
