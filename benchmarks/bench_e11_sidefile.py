"""E11 -- Side-file growth and catch-up (sections 3.1, 3.2.5).

Claims: the side-file absorbs exactly the updates behind IB's scan; IB
drains it while transactions keep appending, and converges because the
drain is faster than the append rate; sorting the first side-file chunk
before applying it (the section 3.2.5 optimization) is supported.
"""

from repro.bench import print_table, run_build_experiment
from repro.core import BuildOptions


def run_e11():
    rows = []
    for operations in (20, 60, 120, 240):
        result = run_build_experiment(
            "sf", rows=600, operations=operations, workers=3, seed=111,
            think_time=0.5)
        appends = result.counter("sidefile.appends")
        drained = result.counter("build.sidefile_drained")
        rows.append([
            operations * 3,
            appends,
            drained,
            result.counter("sidefile.appends.during_undo"),
            round(result.build_time, 1),
        ])
    return rows


def run_e11_sorted():
    rows = []
    for sort_sidefile in (False, True):
        result = run_build_experiment(
            "sf", rows=600, operations=120, workers=3, seed=112,
            think_time=0.5,
            options=BuildOptions(sort_sidefile=sort_sidefile))
        rows.append([
            "sorted first chunk" if sort_sidefile else "sequential",
            result.counter("build.sidefile_drained"),
            result.counter("build.sidefile_drained_sorted"),
            result.counter("index.traversals"),
            round(result.build_time, 1),
        ])
    return rows


def test_e11_sidefile_growth_and_catchup():
    rows, sorted_rows = run_e11(), run_e11_sorted()
    print_table(
        "E11a: side-file length vs update rate (section 3)",
        ["txn ops", "side-file entries", "drained", "appended during undo",
         "build time"],
        rows,
        note="the drain always catches up: drained == appended, and the "
             "build terminates.",
    )
    print_table(
        "E11b: drain order -- sequential vs sorted first chunk "
        "(section 3.2.5)",
        ["drain mode", "drained", "drained from sorted chunk",
         "tree traversals", "build time"],
        sorted_rows,
    )
    # more update activity -> longer side-file; drain always catches up
    lengths = [r[1] for r in rows]
    assert lengths == sorted(lengths)
    for row in rows:
        assert row[1] == row[2]
    assert sorted_rows[1][2] > 0  # the sorted-chunk path actually ran
