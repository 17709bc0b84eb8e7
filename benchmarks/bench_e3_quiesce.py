"""E3 -- Update availability during the build (sections 2.2.1, 3.2.1, 4).

Claim: the offline baseline blocks every update for the whole build; NSF
quiesces updates only while the index descriptor is created ("this
quiesce lasts for a much shorter duration than the ... complete index
build operation"); SF "is not quiescing all update transactions at any
time".
"""

from repro.bench import print_table, run_build_experiment


def run_e3():
    rows = []
    results = {}
    for algorithm in ("offline", "nsf", "sf"):
        result = run_build_experiment(
            algorithm, rows=600, operations=80, workers=3, seed=31,
            think_time=0.5)
        results[algorithm] = result
        rows.append([
            algorithm,
            round(result.build_time, 1),
            round(result.quiesce_wait, 2),
            round(result.quiesce_hold, 2),
            round(result.longest_stall(), 1),
            result.counter("workload.committed"),
        ])
    return rows, results


def test_e3_availability():
    rows, results = run_e3()
    print_table(
        "E3: update availability during the build "
        "(sections 2.2.1 / 3.2.1 / 4)",
        ["algo", "build time", "quiesce wait", "quiesce hold",
         "longest txn stall", "committed ops"],
        rows,
        note="offline holds an X table lock for the whole build; NSF's S "
             "lock covers descriptor creation only; SF never quiesces.",
    )
    offline, nsf, sf = (results[a] for a in ("offline", "nsf", "sf"))
    # Offline stalls the workload for (at least) most of the build.
    assert offline.longest_stall() > offline.build_time * 0.5
    # NSF's quiesce is a tiny fraction of its build.
    assert nsf.quiesce_hold < nsf.build_time / 10
    # SF acquires no table lock at all.
    assert sf.quiesce_wait == 0.0 and sf.quiesce_hold == 0.0
    # Online algorithms keep the workload moving far better than offline.
    assert nsf.longest_stall() < offline.longest_stall() / 2
    assert sf.longest_stall() < offline.longest_stall() / 2
