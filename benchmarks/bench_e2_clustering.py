"""E2 -- Index clustering vs concurrent update activity (section 4).

Claim: "It is expected that the index built by SF would be more clustered
... than the one built by NSF.  Deviations from the perfect clustering
achievable without concurrent updates would be a function of the
transactions' key insert and delete activities during the time of index
build.  These deviations need to be quantified for both algorithms."
This bench does that quantification.
"""

from repro.bench import print_table, run_build_experiment


def run_e2():
    rows = []
    for operations in (0, 20, 60, 120):
        for algorithm in ("nsf", "sf", "offline"):
            result = run_build_experiment(
                algorithm, rows=500, operations=operations, workers=3,
                seed=23, think_time=0.5)
            rows.append([
                algorithm,
                operations * 3,
                round(result.clustering_at_build_end["idx"], 3),
                result.counter("index.pages_allocated"),
                result.counter("index.splits"),
                result.counter("index.keys_moved"),
            ])
    return rows


def test_e2_clustering_vs_update_rate():
    rows = run_e2()
    print_table(
        "E2: clustering factor vs concurrent update activity (section 4)",
        ["algo", "txn ops", "clustering", "index pages", "splits",
         "keys moved"],
        rows,
        note="1.00 = ascending key order equals ascending page order "
             "(the bottom-up ideal of section 2.3.1).",
    )
    table = {(r[0], r[1]): r[2] for r in rows}
    # With no updates everyone is perfectly clustered.
    for algo in ("nsf", "sf", "offline"):
        assert table[(algo, 0)] == 1.0
    # Offline is always perfect; SF stays at or above NSF at every rate.
    for ops in (60, 180, 360):
        assert table[("offline", ops)] == 1.0
        assert table[("sf", ops)] >= table[("nsf", ops)] - 1e-9
