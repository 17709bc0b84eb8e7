"""Latency SLOs under an online index build, with and without throttling.

An online build never blocks updates for correctness, but it still
*competes* with them -- for the disk, the log, and the locks.  This
example drives deterministic open-loop traffic (arrivals pre-scheduled,
issued regardless of backlog -- so queueing shows up as latency, not as
silently reduced throughput) at a one-channel disk while the Side-File
builder constructs an index, then reads the latency percentiles back
out of the build-window trace:

* unthrottled: the build finishes fast, but the foreground p99 climbs;
* throttled (``SystemConfig.build_rate_limit``): the build takes far
  longer and the foreground barely notices it.

That is the tradeoff curve ``python -m repro.bench slo`` sweeps and
gates; this is the two-point version.

Run:  python examples/latency_slo.py
"""

from repro.core import BuildOptions, IndexSpec, get_builder
from repro.obs import enable_tracing
from repro.slo import latency_report
from repro.system import System, SystemConfig
from repro.workloads import OpenLoopDriver, OpenLoopSpec

SEED = 11
ROWS = 320
OPERATIONS = 150


def run(rate_limit):
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                 branch_capacity=8, buffer_frames=32,
                                 sort_workspace=32, merge_fanin=4,
                                 disk_channels=1,
                                 build_rate_limit=rate_limit), seed=SEED)
    recorder = enable_tracing(system)
    table = system.create_table("accounts", ["acct", "balance"])
    spec = OpenLoopSpec(operations=OPERATIONS, rate=0.05,
                        range_weight=0.0, key_space=2000)
    driver = OpenLoopDriver(system, table, spec, seed=SEED,
                            index_name="accounts_by_acct")
    system.spawn(driver.preload(ROWS), name="preload")
    system.run()

    builder = get_builder("sf")(
        system, table, IndexSpec.of("accounts_by_acct", ["acct"]),
        BuildOptions(checkpoint_every_keys=200, commit_every_keys=128,
                     prefetch_pages=2))
    window = {}

    def timed():
        window["start"] = system.sim.now
        yield from builder.run()
        window["end"] = system.sim.now

    build = system.spawn(timed(), name="builder")
    driver.spawn()
    system.run()
    assert build.error is None
    report = latency_report(recorder.events,
                            window=(window["start"], window["end"]))
    return window["end"] - window["start"], report


def main():
    print(f"open-loop traffic: {OPERATIONS} ops at rate 0.05 over "
          f"{ROWS} preloaded rows, one disk channel")
    print()
    print(f"{'build_rate_limit':>17s} {'build_time':>11s} "
          f"{'p50':>7s} {'p95':>7s} {'p99':>8s} {'ops':>4s}")
    for rate in (None, 0.1):
        build_time, report = run(rate)
        label = "unthrottled" if rate is None else f"{rate:g}"
        print(f"{label:>17s} {build_time:11.1f} "
              f"{report['p50']:7.2f} {report['p95']:7.2f} "
              f"{report['p99']:8.2f} {report['ops']:4d}")
    print()
    print("(latencies are for operations issued while the build ran;")
    print(" the throttle trades build time for foreground p99)")


if __name__ == "__main__":
    main()
