"""E1 -- Log volume written by the index builder (paper section 4).

Claim: "No log records are written by IB for inserting keys until
side-file processing begins" (SF), while NSF's IB logs every key insert,
amortised by multi-key log records.  The offline baseline logs nothing
for the build at all (a failed build restarts from scratch).
"""

from repro.bench import print_table, run_build_experiment


def run_e1():
    rows = []
    for algorithm in ("offline", "nsf", "sf"):
        for operations in (0, 40):
            result = run_build_experiment(
                algorithm, rows=500, operations=operations, workers=2,
                seed=11)
            rows.append([
                algorithm,
                operations * 2 if operations else 0,
                result.counter("wal.records.ib"),
                result.counter("wal.bytes.ib"),
                result.counter("wal.records.txn"),
                result.counter("index.inserts.bulk"),
                result.counter("index.inserts.ib"),
                result.counter("build.sidefile_drained"),
            ])
    return rows


def test_e1_ib_log_volume():
    rows = run_e1()
    print_table(
        "E1: WAL volume written by the index builder (section 4)",
        ["algo", "txn ops", "IB log recs", "IB log bytes",
         "txn log recs", "bulk inserts", "IB tree inserts", "drained"],
        rows,
        note="SF logs nothing until the side-file drain; NSF logs every "
             "IB insert (batched); offline logs nothing for the build.",
    )
    by_algo = {(r[0], r[1]): r for r in rows}
    # Quiet system: SF and offline write zero IB log records, NSF many.
    assert by_algo[("sf", 0)][2] == 0
    assert by_algo[("offline", 0)][2] == 0
    assert by_algo[("nsf", 0)][2] > 0
    # Under updates: SF's IB log volume stays far below NSF's.
    assert by_algo[("sf", 80)][3] < by_algo[("nsf", 80)][3] / 2
    # NSF batches: fewer log records than keys inserted.
    nsf = by_algo[("nsf", 0)]
    assert nsf[2] < nsf[6]
