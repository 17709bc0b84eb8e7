"""Advisor-driven multi-index build: pick, build in one scan, watch p99.

The pipeline the paper's section 6.2 makes cheap: a workload-aware
advisor (:mod:`repro.advisor`) reads the *traffic spec itself* -- which
columns the range queries filter on, how often, how selectively -- and
picks the index set with the best estimated benefit per storage page.
The picks are then built by ONE shared-scan ``get_builder("multi")``
build while the very traffic that justified them keeps running.

Each index flips AVAILABLE independently (load -> drain -> flip, one
index at a time after the shared scan), so the foreground improves in
steps: every flip moves one column's range reads off the full table
scan and onto the new index.  The output shows the flip instants, the
range-read latency before / during / after the flips (the open-loop
backlog that piles up behind full scans drains once the indexes serve
them), and the per-column via-index / via-scan counters -- each column's
reads switch paths as its index arrives.

Run:  python examples/advisor_build.py
"""

from repro.advisor import AdvisorConfig, TableStats, recommend, \
    templates_from_spec
from repro.core import BuildOptions, get_builder
from repro.system import System, SystemConfig
from repro.workloads import OpenLoopDriver, OpenLoopSpec

SEED = 11
ROWS = 320
OPERATIONS = 400
BUILD_RATE_LIMIT = 0.25
KEY_SPACE = 2000


def row_factory(key, tag):
    # Extra columns are deterministic functions of the key, so replays
    # and serial-equivalence audits stay exact.
    return (key, tag, (key * 7) % KEY_SPACE, (key * 13) % KEY_SPACE)


def percentile(values, fraction):
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def main():
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                 branch_capacity=8, buffer_frames=32,
                                 sort_workspace=32, merge_fanin=4,
                                 disk_channels=1,
                                 build_rate_limit=BUILD_RATE_LIMIT),
                    seed=SEED)
    table = system.create_table("orders", ["k", "p", "a", "b"])
    spec = OpenLoopSpec(operations=OPERATIONS, rate=0.02,
                        read_weight=1.0, range_weight=2.0,
                        insert_weight=0.3, update_weight=0.3,
                        delete_weight=0.1,
                        range_span=100, key_space=KEY_SPACE,
                        range_columns=(("k", 2.0), ("a", 1.0),
                                       ("b", 1.0)))
    driver = OpenLoopDriver(system, table, spec, seed=SEED)
    driver.row_factory = row_factory
    system.spawn(driver.preload(ROWS), name="preload")
    system.run()

    # 1. Advise: what-if cost the query mix against candidate indexes.
    templates = templates_from_spec(spec)
    stats = TableStats.from_table(system, table)
    report = recommend(templates, stats,
                       AdvisorConfig(storage_budget_pages=400,
                                     max_index_width=2))
    print(report.to_text())
    print()

    # 2. Build every pick off ONE table scan, under the live traffic.
    build = get_builder("multi")(
        system, table, report.specs(),
        BuildOptions(checkpoint_every_keys=200, commit_every_keys=128,
                     prefetch_pages=2))
    start = {}

    def timed():
        start["at"] = system.sim.now
        yield from build.run()

    proc = system.spawn(timed(), name="builder")
    driver.spawn()
    system.run()
    assert proc.error is None, proc.error

    pages = system.metrics.get("build.pages_scanned")
    print(f"built {len(report.specs())} indexes from one scan "
          f"({pages} pages scanned)")
    flips = sorted((at - start["at"], name.split(":", 1)[1])
                   for name, at in build.timings.items()
                   if name.startswith("drain_done:"))
    for at, name in flips:
        print(f"  t={at:7.1f}  {name} flips AVAILABLE")
    print()

    # 3. The staircase: range-read latency before / during / after the
    # flips.  Full scans cost more than the arrival gap, so backlog
    # piles up while no index exists and drains once every range read
    # goes through an index.
    edges = [0.0, flips[0][0], flips[-1][0], float("inf")]
    labels = ["before first flip", "while flipping", "all indexes up"]
    print(f"{'window':<18s} {'range reads':>11s} {'mean':>9s} {'p99':>9s}")
    for label, low, high in zip(labels, edges, edges[1:]):
        lats = [record.latency for record in driver.op_timeline
                if record.op == "range" and record.outcome == "committed"
                and record.issued >= 0
                and low <= record.issued - start["at"] < high]
        mean = sum(lats) / len(lats) if lats else 0.0
        p99 = percentile(lats, 0.99) if lats else 0.0
        print(f"{label:<18s} {len(lats):>11d} {mean:>9.2f} {p99:>9.2f}")
    print()

    # 4. Each column's reads switch from the heap scan to its index.
    print(f"{'column':<8s} {'via index':>9s} {'via scan':>9s}")
    for column, _weight in spec.range_columns:
        via_index = system.metrics.get(
            f"openloop.range_via_index.{column}")
        via_scan = system.metrics.get(
            f"openloop.range_via_scan.{column}")
        print(f"{column:<8s} {via_index:>9d} {via_scan:>9d}")


if __name__ == "__main__":
    main()
