"""E8 -- Building k indexes in one data scan (section 6.2).

Claim: "Since the cost of accessing all the data pages may be a
significant part of the overall cost of index build, it would be very
beneficial to build multiple indexes in one data scan.  Our algorithms
are flexible enough to accommodate that."
"""

from repro.bench import print_table, run_build_experiment
from repro.core import IndexSpec


def run_e8():
    rows = []
    for k in (1, 2, 3, 4):
        # one scan for all k indexes
        specs = [IndexSpec.of(f"idx{i}", ["k"]) for i in range(k)]
        shared = run_build_experiment("sf", rows=600, seed=81,
                                      index_specs=specs)
        # k separate builds (k scans)
        separate_scans = 0
        separate_time = 0.0
        for i in range(k):
            single = run_build_experiment("sf", rows=600, seed=81)
            separate_scans += single.counter("build.pages_scanned")
            separate_time += single.build_time
        rows.append([
            k,
            shared.counter("build.pages_scanned"),
            separate_scans,
            round(shared.build_time, 1),
            round(separate_time, 1),
            round(separate_time / shared.build_time, 2),
        ])
    return rows


def test_e8_one_scan_for_many_indexes():
    rows = run_e8()
    print_table(
        "E8: k indexes -- one shared scan vs k separate builds "
        "(section 6.2)",
        ["k", "pages scanned (shared)", "pages scanned (separate)",
         "time shared", "time separate", "speedup"],
        rows,
        note="the shared scan reads the data once regardless of k; the "
             "sort/insert work still scales with k.",
    )
    for row in rows:
        k = row[0]
        assert row[1] * k == row[2]       # one scan vs k scans
        if k > 1:
            assert row[5] > 1.0           # shared build is faster
    # scan sharing matters more as k grows
    assert rows[-1][5] > rows[0][5]
