"""Build-time-vs-latency tradeoff suite (suite ``slo`` of
``python -m repro.bench``).

The paper removes the *correctness* reason to quiesce updates; this
suite measures the remaining *performance* reason.  Every scenario runs
the same deterministic open-loop traffic (:class:`repro.workloads.
OpenLoopDriver`) against a shared single-channel disk
(``disk_channels=1``) while one builder constructs the index, sweeping
the IB admission-control throttle
(:attr:`repro.system.SystemConfig.build_rate_limit`) from unthrottled
down to the tightest setting.  Each row records the simulated build
time next to the foreground latency report *windowed to operations
issued while the build was running* -- the whole-run p99 would invert
the curve (a slower, throttled build disturbs more of the run), while
the windowed p99 shows what the throttle actually buys: the latency of
the traffic that coexists with the build.

Self-gates (:func:`gates`):

* **monotone build time** -- each builder's build must take at least as
  long at every tighter throttle step, and strictly longer at the
  tightest step than unthrottled (the throttle does throttle);
* **p99 protection** -- at the tightest throttle each *online*
  builder's windowed p99 must stay within
  :data:`P99_PROTECTION_FACTOR` of the no-build baseline's p99, and the
  bursty row within the same factor of the *bursty* baseline's.  The
  offline builder is swept for contrast but excluded from this gate:
  it X-locks the table, so foreground latency during the build is the
  quiesce time, which no admission throttle can fix (sections 1-2 --
  the reason the online algorithms exist).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional

from repro.bench.runner import Suite
from repro.core import BuildOptions, IndexSpec, get_builder
from repro.obs import enable_tracing
from repro.slo.analyzer import latency_report
from repro.system import System, SystemConfig
from repro.workloads import OpenLoopDriver, OpenLoopSpec

#: the p99-protection gate: at the tightest throttle, each online
#: builder's windowed foreground p99 must not exceed the no-build
#: baseline's p99 by more than this factor
P99_PROTECTION_FACTOR = 1.2

#: builders swept (offline included for contrast; the p99 gate skips it)
BUILDERS = ("offline", "nsf", "sf", "psf")

#: builders the p99-protection gate applies to
ONLINE_BUILDERS = ("nsf", "sf", "psf")

#: throttle sweep, loosest to tightest (None = unthrottled); the values
#: are work items (pages scanned / keys loaded / entries drained) per
#: simulated time unit
RATES: tuple[Optional[float], ...] = (None, 0.4, 0.1, 0.05)

#: one fixed traffic/system shape for every scenario -- the sweep
#: varies ONLY the builder and its throttle, so rows are comparable
PARAMS = {
    "seed": 11,
    "rows": 320,
    "operations": 150,
    "arrival_rate": 0.05,
    "key_space": 2000,
    "buffer_frames": 32,
    "disk_channels": 1,
    "partitions": 2,
}

#: bursty-arrival add-on scenarios: the same traffic mean rate, but
#: arrivals alternate between a peak and a trough (coordinated-omission
#: stress -- backlog built during a burst inflates the tail).  Swept for
#: the sf builder at the throttle endpoints against a bursty no-build
#: baseline.
BURSTY_BUILDER = "sf"
BURSTY_RATES: tuple[Optional[float], ...] = (None, 0.05)
BURSTY_PARAMS = {
    "arrivals": "bursty",
    "burst_factor": 4.0,
    "burst_fraction": 0.25,
    "burst_period": 40.0,
}

#: metric counters copied into each scenario (when present)
INTERESTING_COUNTERS = (
    "build.pages_scanned",
    "build.sidefile_drained",
    "build.throttle_charges",
    "build.throttle_waits",
    "sidefile.appends",
    "semaphore.disk.requests",
    "semaphore.disk.waits",
    "index.inserts.ib",
)


def rate_label(rate: Optional[float]) -> str:
    """Stable scenario-name fragment for a throttle rate."""
    return "none" if rate is None else f"{rate:g}"


def _run_traffic(builder: Optional[str], rate: Optional[float],
                 arrivals: str = "poisson") -> dict:
    """One deterministic run: open-loop traffic, optionally one build.

    Returns the scenario body: params, simulated ``build_time`` (absent
    for the baseline), the windowed latency report, and counters.
    """
    config = SystemConfig(
        page_capacity=8, leaf_capacity=8, branch_capacity=8,
        buffer_frames=PARAMS["buffer_frames"],
        sort_workspace=32, merge_fanin=4,
        disk_channels=PARAMS["disk_channels"],
        build_rate_limit=rate)
    system = System(config, seed=PARAMS["seed"])
    recorder = enable_tracing(system)
    table = system.create_table("t", ["k", "p"])
    burst = dict(BURSTY_PARAMS) if arrivals == "bursty" else {}
    spec = OpenLoopSpec(operations=PARAMS["operations"],
                        rate=PARAMS["arrival_rate"],
                        range_weight=0.0,
                        key_space=PARAMS["key_space"],
                        **burst)
    driver = OpenLoopDriver(system, table, spec, seed=PARAMS["seed"],
                            index_name="idx")
    system.spawn(driver.preload(PARAMS["rows"]), name="preload")
    system.run()

    done: dict[str, float] = {}
    if builder is not None:
        opts = {"checkpoint_every_keys": 200, "commit_every_keys": 128,
                "prefetch_pages": 2}
        if builder == "psf":
            opts["partitions"] = PARAMS["partitions"]
        build = get_builder(builder)(system, table,
                                     IndexSpec.of("idx", ["k"]),
                                     BuildOptions(**opts))

        def timed():
            done["start"] = system.sim.now
            yield from build.run()
            done["build_time"] = system.sim.now - done["start"]

        system.spawn(timed(), name="builder")
    dispatcher = driver.spawn()
    system.run()
    if dispatcher.error is not None:
        raise dispatcher.error
    if builder is not None and "build_time" not in done:
        raise AssertionError(f"{builder} build did not finish")

    window = (done["start"], done["start"] + done["build_time"]) \
        if "build_time" in done else None
    report = latency_report(recorder.events, window=window)
    params = dict(PARAMS)
    params["builder"] = builder
    params["build_rate_limit"] = rate
    params["arrivals"] = arrivals
    if burst:
        params.update(burst)
    scenario: dict[str, Any] = {"params": params, "latency": report}
    if builder is not None:
        scenario["build_time"] = done["build_time"]
        scenario["window"] = list(window)
        scenario["counters"] = {
            key: system.metrics.get(key) for key in INTERESTING_COUNTERS
            if system.metrics.get(key)}
    return scenario


def _rows() -> dict[str, Callable[[], dict]]:
    rows: dict[str, Callable[[], dict]] = {
        "baseline": partial(_run_traffic, None, None)}
    for builder in BUILDERS:
        for rate in RATES:
            rows[f"tradeoff/{builder}/rate_{rate_label(rate)}"] = partial(
                _run_traffic, builder, rate)
    rows["bursty/baseline"] = partial(_run_traffic, None, None,
                                      arrivals="bursty")
    for rate in BURSTY_RATES:
        rows[f"bursty/{BURSTY_BUILDER}/rate_{rate_label(rate)}"] = partial(
            _run_traffic, BURSTY_BUILDER, rate, arrivals="bursty")
    return rows


def gates(rows: dict[str, dict]) -> list[str]:
    """The suite's own acceptance gates."""
    problems: list[str] = []
    for builder in BUILDERS:
        names = [f"tradeoff/{builder}/rate_{rate_label(rate)}"
                 for rate in RATES]
        # monotone: tighter throttle (later in the sweep) never builds
        # faster, and the tightest is strictly slower than unthrottled
        for loose, tight in zip(names, names[1:]):
            if rows[tight]["build_time"] < rows[loose]["build_time"]:
                problems.append(
                    f"{tight}: build_time fell from "
                    f"{rows[loose]['build_time']:.1f} to "
                    f"{rows[tight]['build_time']:.1f} when tightening "
                    f"from {loose}")
        if not rows[names[-1]]["build_time"] > rows[names[0]]["build_time"]:
            problems.append(
                f"{names[-1]}: build_time "
                f"{rows[names[-1]]['build_time']:.1f} not above "
                f"unthrottled {rows[names[0]]['build_time']:.1f} -- the "
                f"throttle is not throttling")

    # The bursty ceiling is relative to the *bursty* no-build baseline:
    # burst backlog raises the floor for everyone; the gate is on what
    # the build adds on top.
    protected = [(f"tradeoff/{builder}/rate_{rate_label(RATES[-1])}",
                  "baseline") for builder in ONLINE_BUILDERS]
    protected.append(
        (f"bursty/{BURSTY_BUILDER}/rate_{rate_label(BURSTY_RATES[-1])}",
         "bursty/baseline"))
    for name, baseline in protected:
        ceiling = rows[baseline]["latency"]["p99"] * P99_PROTECTION_FACTOR
        p99 = rows[name]["latency"]["p99"]
        if p99 > ceiling:
            problems.append(
                f"{name}: windowed p99 {p99:.2f} exceeds "
                f"{P99_PROTECTION_FACTOR}x {baseline} ({ceiling:.2f})")
    return problems


SUITE = Suite("slo", _rows(), gates)
