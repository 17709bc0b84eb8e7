"""E13 -- End-to-end comparison: Offline vs NSF vs SF (section 4).

The paper's summary comparison as one table: build cost, IB log volume,
quiesce behaviour, clustering, and workload availability, at a fixed
moderate update rate.
"""

from repro.bench import print_table, run_build_experiment


def run_e13():
    rows = []
    results = {}
    for algorithm in ("offline", "nsf", "sf"):
        result = run_build_experiment(
            algorithm, rows=800, operations=60, workers=3, seed=131,
            think_time=0.5)
        results[algorithm] = result
        rows.append([
            algorithm,
            round(result.build_time, 1),
            round(result.quiesce_hold, 1),
            round(result.longest_stall(), 1),
            result.counter("wal.records.ib"),
            result.counter("wal.bytes.ib"),
            round(result.clustering_at_build_end["idx"], 2),
            result.counter("index.pages_allocated"),
            result.counter("workload.committed"),
        ])
    return rows, results


def test_e13_end_to_end():
    rows, results = run_e13()
    print_table(
        "E13: end-to-end -- offline vs NSF vs SF at a moderate update "
        "rate (section 4)",
        ["algo", "build time", "quiesce", "longest stall", "IB log recs",
         "IB log bytes", "clustering", "index pages", "committed ops"],
        rows,
        note="the paper's qualitative table 'Comparison of the "
             "Algorithms', quantified.",
    )
    offline, nsf, sf = (results[a] for a in ("offline", "nsf", "sf"))
    # The paper's headline ordering:
    # 1. offline blocks updates for the whole build; online ones do not.
    assert offline.longest_stall() > 5 * sf.longest_stall()
    assert offline.longest_stall() > 5 * nsf.longest_stall()
    # 2. SF's IB is cheaper than NSF's (no logging, bottom-up).
    assert sf.counter("wal.bytes.ib") < nsf.counter("wal.bytes.ib")
    assert sf.build_time < nsf.build_time
    # 3. SF's tree is at least as clustered as NSF's.
    assert sf.clustering_at_build_end["idx"] \
        >= nsf.clustering_at_build_end["idx"] - 1e-9
    # 4. offline (no interference) is the fastest build, the paper's
    #    stated price of availability.
    assert offline.build_time < sf.build_time
