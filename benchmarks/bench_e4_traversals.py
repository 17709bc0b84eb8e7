"""E4 -- Tree traversals and multi-key calls (sections 2.3.1, 3.2.4, 4).

Claims: SF's bottom-up load needs *no* root-to-leaf traversals at all
("Tree traversal from the root page of the index tree is not required to
insert keys until side-file processing begins"); NSF avoids most
traversals by remembering the root-to-leaf path, and multi-key calls
amortise the per-call overhead.
"""

from repro.bench import print_table, run_build_experiment
from repro.core import BuildOptions


def run_e4():
    rows = []
    # part 1: NSF vs SF traversal counts
    for algorithm in ("nsf", "sf"):
        result = run_build_experiment(algorithm, rows=800, seed=41)
        rows.append([
            algorithm, 800,
            result.counter("index.traversals"),
            result.counter("index.ib_path_reuses"),
            result.counter("index.inserts.ib")
            + result.counter("index.inserts.bulk"),
            result.counter("wal.records.ib"),
        ])
    return rows


def run_e4_batch_sweep():
    rows = []
    for batch in (1, 4, 16, 64):
        result = run_build_experiment(
            "nsf", rows=800, seed=42,
            options=BuildOptions(ib_batch_keys=batch))
        rows.append([
            batch,
            result.counter("index.traversals"),
            result.counter("index.ib_path_reuses"),
            result.counter("wal.records.ib"),
            round(result.build_time, 1),
        ])
    return rows


def test_e4_traversals_and_batching():
    rows, sweep = run_e4(), run_e4_batch_sweep()
    print_table(
        "E4a: IB tree traversals, NSF vs SF (sections 2.3.1 / 3.2.4)",
        ["algo", "rows", "traversals", "path reuses", "keys placed",
         "IB log recs"],
        rows,
        note="SF's bottom-up load never descends the tree; NSF's "
             "remembered path makes traversals rare.",
    )
    print_table(
        "E4b: NSF multi-key call batch size sweep (section 2.2.3)",
        ["keys per call", "traversals", "path reuses", "IB log recs",
         "build time"],
        sweep,
    )
    nsf, sf = rows[0], rows[1]
    assert sf[2] == 0                      # bottom-up: zero traversals
    assert nsf[2] < nsf[4] / 5             # remembered path: << one per key
    assert nsf[3] > 0                      # the cursor is actually used
    # Bigger batches -> fewer IB log records.
    log_recs = [r[3] for r in sweep]
    assert log_recs[0] > log_recs[-1]
