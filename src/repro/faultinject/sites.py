"""Fault-site declarations and the ``fault_point`` helper.

A *fault site* is a named place in the code where a crash (or a storage
fault) may be injected.  Instrumented modules call::

    from repro.faultinject.sites import fault_point

    fault_point(self.metrics, "wal.force.after")

which routes the hit to the installed :class:`~repro.faultinject.injector.
FaultInjector` (if any) and bumps the ``faultsite.<name>`` counter in the
metrics registry while an injector is installed.  With no injector the
call returns immediately after one attribute test -- the *zero-cost
disabled path* -- so instrumentation stays on in production runs without
taxing hot loops.  Discovery still works exactly as before: the sweep's
discovery pass installs an *unarmed* injector, which re-enables the
counters and the per-site hit census.

Inner loops that hit a site once per key can hoist the enabled test with
:func:`fault_points_enabled` and skip the call entirely when disabled;
because the guard is exactly the disabled-path test, armed and discovery
runs observe an unchanged hit schedule.

Sites that perform a *write* can additionally honour the damage kinds:

- ``TORN_CAPABLE`` sites may be asked to land their write damaged
  (``torn-write``); ``fault_point`` returns the kind string and the call
  site must damage the write and then raise the returned crash.
- ``LOST_CAPABLE`` sites may be asked to silently drop their write
  (``lost-flush``) and then crash immediately.

For every other site the damage kinds degrade to a plain crash *before*
the write, which is always a legal schedule.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.faultinject.injector import (
    CRASH,
    InjectedCrash,
    LOST_FLUSH,
    TORN_WRITE,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics import MetricsRegistry

#: sites whose write can be landed damaged-but-detectable
TORN_CAPABLE = frozenset({
    "btree.force",
})

#: sites whose page write can be silently dropped before the crash
LOST_CAPABLE = frozenset({
    "buffer.page_flush",
    "buffer.evict_dirty",
})

#: documentation of every statically declared site (dynamic kernel sites
#: are named ``kernel.step.<process>``); used by the sweep report.
SITE_DOCS = {
    # WAL
    "wal.append": "after a log record is appended to the in-memory tail",
    "wal.force.before": "force requested, nothing flushed yet",
    "wal.force.after": "log prefix just became stable",
    "wal.checkpoint.before_master":
        "checkpoint record flushed but master pointer not yet updated",
    # buffer pool
    "buffer.page_flush": "a flush or write-behind writing a dirty page back",
    "buffer.evict_dirty": "steal: evicting a dirty page for replacement",
    # B+-tree
    "btree.split": "mid leaf/branch split, before the parent is fixed up",
    "btree.txn_insert": "logged transactional insert applied in memory",
    "btree.txn_delete": "logged transactional delete applied in memory",
    "btree.ib_insert": "NSF: one batch of IB top-down inserts applied",
    "btree.drain_apply": "SF: one side-file entry applied to the new index",
    "btree.force": "unlogged tree snapshot being written to stable storage",
    "btree.force.after": "tree snapshot just became stable",
    # side-file
    "sidefile.append": "updater appended an entry to the side-file",
    "sidefile.force": "side-file force: entries becoming stable",
    # shared builder machinery
    "build.scan_page": "scan phase read one heap page",
    "build.sort_push": "one extracted key pushed into run formation",
    "build.scan_checkpoint": "scan/sort checkpoint about to be taken",
    "build.sort_finish": "run formation sealed, merge about to start",
    "build.checkpoint.before": "utility checkpoint requested",
    "build.checkpoint.mid":
        "trees forced but WAL checkpoint record not yet written",
    "build.checkpoint.after": "utility checkpoint fully stable",
    # NSF builder
    "nsf.descriptor_done": "NSF catalog descriptor committed",
    "nsf.insert_batch": "NSF applied one batch of sorted-key inserts",
    "nsf.ib_commit": "NSF IB transaction committed",
    "nsf.insert_checkpoint": "NSF insert-phase checkpoint about to be taken",
    "nsf.insert_done": "NSF insert phase finished, index about to flip",
    # SF builder
    "sf.descriptor_done": "SF descriptor + side-file installed",
    "sf.scan_done": "SF scan/sort finished, load about to start",
    "sf.load_batch": "SF bulk loader appended one batch of leaf entries",
    "sf.load_done": "SF bottom-up load finished",
    "sf.drain_start": "SF side-file drain beginning",
    "sf.drain_checkpoint": "SF drain checkpoint about to be taken",
    "sf.flag_flip.before": "side-file drained, flag flip not yet done",
    "sf.flag_flip.after": "Index_Build flag just flipped to AVAILABLE",
    # fast index reconstruction from sealed runs (repro.core.sources.SealedRuns)
    "rebuild.sealed":
        "a build's final merged run sealed for future reconstruction",
    "rebuild.reset":
        "rebuild checkpointed, descriptor flip + tree drop not yet done",
    "rebuild.reuse_runs":
        "rebuild's final merger prepared over the sealed runs (zero scans)",
    "rebuild.replayed":
        "rebuild replayed the logged index history over the reloaded tree",
    # multibuild (K indexes, one scan, section 6.2)
    "multibuild.scan_done":
        "shared scan/sort finished; per-index manifest about to start",
    "multibuild.index_loaded":
        "one index's bottom-up load finished, its drain not yet started",
    "multibuild.index_done":
        "one index flipped AVAILABLE and its manifest entry checkpointed",
    # PSF (partitioned parallel) builder
    "psf.descriptor_done":
        "PSF descriptors + side-files + frontier vector installed",
    "psf.worker.scan_page": "a PSF shard worker read one heap page",
    "psf.worker.checkpoint":
        "a PSF shard worker's independent sort checkpoint beginning",
    "psf.worker_done":
        "a shard finished scanning: runs sealed, frontier at infinity",
    "psf.manifest_checkpoint": "the shared build manifest just checkpointed",
    "psf.barrier": "all shard workers arrived at the scan barrier",
    "psf.scan_done": "PSF scan/sort finished across every shard",
    "psf.merge_batch": "a shard merge worker moved one batch of keys",
    "psf.merge_run_done":
        "a merged run sealed and its inputs discarded (atomic)",
    "psf.merge_shard_done": "one shard's runs collapsed to the merge target",
    "psf.merge_done": "every shard merge worker joined",
    # replication cluster (repro.cluster)
    "cluster.ship":
        "a shipped WAL batch arrived at a replica, not yet applied",
    "cluster.apply":
        "a replica is about to redo one shipped batch locally",
    "cluster.promote":
        "failover chose a candidate, promotion not yet complete",
}


#: memoised ``faultsite.<name>`` counter names (f-string built once per site)
_COUNTER_NAMES: dict[str, str] = {}


def fault_points_enabled(metrics: Optional["MetricsRegistry"]) -> bool:
    """True when a fault injector is installed on ``metrics``.

    Hot loops hoist this test and skip per-key :func:`fault_point` calls
    when it is False; the guard is identical to the disabled path inside
    ``fault_point``, so injected/discovery schedules are unaffected.
    """
    return metrics is not None \
        and getattr(metrics, "fault_injector", None) is not None


def fault_point(metrics: Optional["MetricsRegistry"],
                site: str) -> Optional[str]:
    """Declare one hit of ``site``.

    With no injector installed this returns immediately (zero-cost
    disabled path).  With one installed it bumps the discovery counter
    and asks the injector whether a fault fires here.  Returns ``None``
    (keep going), or a damage-kind string (``torn-write`` /
    ``lost-flush``) that the *call site* must honour by damaging or
    dropping its write and then raising :class:`InjectedCrash`.  A plain
    ``crash`` is raised directly.

    Damage kinds degrade gracefully: if the site is not capable of the
    requested damage, the fault fires as a plain crash before the write.
    """
    if metrics is None:
        return None
    injector = getattr(metrics, "fault_injector", None)
    if injector is None:
        return None
    name = _COUNTER_NAMES.get(site)
    if name is None:
        name = _COUNTER_NAMES[site] = f"faultsite.{site}"
    metrics.incr(name)
    kind = injector.hit(site)
    if kind is None or kind == CRASH:
        return None
    if kind == TORN_WRITE and site in TORN_CAPABLE:
        return kind
    if kind == LOST_FLUSH and site in LOST_CAPABLE:
        return kind
    # the site cannot express the damage: degrade to a pre-write crash
    raise InjectedCrash(
        f"injected power failure at {site} ({kind} degraded to crash)")
