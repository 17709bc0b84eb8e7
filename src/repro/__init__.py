"""repro -- online index build without quiescing updates.

A production-style Python reproduction of C. Mohan & Inderpal Narang,
"Algorithms for Creating Indexes for Very Large Tables Without Quiescing
Updates", ACM SIGMOD 1992: the NSF and SF online index-build algorithms,
the restartable external sort, and the full DBMS substrate they assume
(WAL, ARIES-lite recovery, buffer pool, lock/latch managers, B+-trees
with pseudo-deleted keys), all running on a deterministic discrete-event
simulator.

Quick tour::

    from repro import (System, SystemConfig, IndexSpec, SFIndexBuilder,
                       WorkloadDriver, WorkloadSpec, audit_index)

    system = System(SystemConfig(), seed=42)
    table = system.create_table("orders", ["order_id", "payload"])
    ...                       # preload rows, start update workers
    builder = SFIndexBuilder(system, table,
                             IndexSpec.of("idx", ["order_id"]))
    system.spawn(builder.run(), name="builder")
    system.run()
    audit_index(system, system.indexes["idx"])

See DESIGN.md for the architecture and EXPERIMENTS.md for the paper-claim
reproduction results.
"""

from repro.btree import BTree, BulkLoader, audit_tree
from repro.core import (
    BuildOptions,
    IndexSpec,
    IndexState,
    NSFIndexBuilder,
    OfflineIndexBuilder,
    ParallelSFBuilder,
    SFIndexBuilder,
    build_pre_undo,
    cancel_build,
    cleanup_pseudo_deleted,
    resume_build,
)
from repro.core.iot import IOTable, SFIotBuilder
from repro.errors import (
    DeadlockVictim,
    IndexBuildError,
    ReproError,
    TransactionAborted,
    UniqueViolationError,
)
from repro.recovery import crash_process, restart, run_until_crash
from repro.sort import RestartableMerger, RunFormation, RunStore
from repro.storage import RID, Record
from repro.system import System, SystemConfig
from repro.verify import ConsistencyError, audit_all, audit_index
from repro.workloads import WorkloadDriver, WorkloadSpec

__version__ = "1.0.0"

__all__ = [
    "BTree",
    "BuildOptions",
    "BulkLoader",
    "ConsistencyError",
    "DeadlockVictim",
    "IOTable",
    "IndexBuildError",
    "IndexSpec",
    "IndexState",
    "NSFIndexBuilder",
    "OfflineIndexBuilder",
    "ParallelSFBuilder",
    "RID",
    "Record",
    "ReproError",
    "RestartableMerger",
    "RunFormation",
    "RunStore",
    "SFIndexBuilder",
    "SFIotBuilder",
    "System",
    "SystemConfig",
    "TransactionAborted",
    "UniqueViolationError",
    "WorkloadDriver",
    "WorkloadSpec",
    "audit_all",
    "audit_index",
    "audit_tree",
    "build_pre_undo",
    "cancel_build",
    "cleanup_pseudo_deleted",
    "crash_process",
    "restart",
    "resume_build",
    "run_until_crash",
]
