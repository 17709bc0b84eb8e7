"""E12 -- Scan cost: sequential prefetch (sections 2.2.2, 2.3.1).

Claim: "To make the CPU processing and I/Os efficient, multiple pages may
be read in one I/O by employing sequential prefetch [TeGu84] ...  We
believe that I/O time to scan the data pages would be a significant
portion of the total elapsed time to build the index."
"""

from repro.bench import bench_config, print_table, run_build_experiment
from repro.core import BuildOptions
from repro.system import SystemConfig


def run_e12():
    rows = []
    for prefetch in (1, 2, 4, 8, 16):
        # a small buffer pool forces the scan to really hit the disk
        config = bench_config(buffer_frames=24)
        result = run_build_experiment(
            "sf", rows=1_000, seed=121, config=config,
            options=BuildOptions(prefetch_pages=prefetch))
        rows.append([
            prefetch,
            result.counter("disk.reads"),
            result.counter("disk.pages_read"),
            round(result.build_time, 1),
        ])
    return rows


def run_e12_parallel():
    """[PMCLS90]: parallel readers overlap their I/Os (NSF)."""
    rows = []
    # 32 frames hold what eight readers have in flight (8 x 4-page
    # prefetch); the last row deliberately over-commits the pool
    for readers, frames in ((1, 32), (2, 32), (4, 32), (8, 32), (8, 24)):
        config = bench_config(buffer_frames=frames)
        result = run_build_experiment(
            "nsf", rows=1_000, seed=122, config=config,
            options=BuildOptions(prefetch_pages=4,
                                 parallel_readers=readers))
        scan_done = result.builder.timings.get("scan_done", 0.0)
        start = result.builder.timings.get("descriptor_done", 0.0)
        rows.append([
            readers,
            frames,
            round(scan_done - start, 1),
            result.counter("disk.reads"),
            result.counter("disk.pages_read"),
            result.counter("buffer.stale_prefetches"),
            round(result.build_time, 1),
        ])
    return rows


def test_e12_sequential_prefetch():
    rows, parallel_rows = run_e12(), run_e12_parallel()
    print_table(
        "E12a: data-scan I/O vs prefetch depth (section 2.2.2)",
        ["pages per I/O", "disk reads", "pages read", "build time"],
        rows,
        note="one random positioning cost per I/O; prefetch amortises it "
             "across consecutive pages.",
    )
    print_table(
        "E12b: parallel scan readers, NSF (section 2.2.2 / [PMCLS90])",
        ["readers", "pool frames", "scan+sort time", "disk reads",
         "pages read", "stale prefetches", "build time"],
        parallel_rows,
        note="reader processes overlap their I/O delays on the simulated "
             "clock; the scan shortens, the I/O count does not (it falls "
             "at 4+ readers only because the last stripes reach the "
             "preload's resident tail before the scan evicts it).  Last "
             "row: 8 readers x 4-page prefetch = 32 pages in flight "
             "against 24 frames -- prefetched pages are evicted before "
             "their reader arrives and are read again.",
    )
    reads = [r[1] for r in rows]
    times = [r[3] for r in rows]
    # deeper prefetch -> fewer I/Os and a faster build
    assert all(a >= b for a, b in zip(reads, reads[1:]))
    assert times[-1] < times[0]
    assert reads[0] > 3 * reads[-1]
    # more readers -> shorter scan and, while the pool holds what the
    # readers have in flight, not one more I/O
    *held, overcommitted = parallel_rows
    assert held[-1][2] < held[0][2] / 2
    assert all(row[3] <= held[0][3] and row[5] == 0 for row in held)
    # the over-committed pool loses prefetched pages and re-reads them
    assert overcommitted[5] > 0
    assert overcommitted[3] > held[-1][3]
    assert overcommitted[4] > held[0][4]
