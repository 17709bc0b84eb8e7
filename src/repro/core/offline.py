"""The offline baseline: build with updates fully quiesced.

This is the behaviour the paper sets out to eliminate ("current DBMSs do
not allow updates to be performed on a table while an index is being
built").  IB takes an X lock on the table for the *entire* build, so every
updating transaction blocks until the index is finished -- the
availability cost experiments E3 and E13 measure against.

Being alone, IB skips all the online machinery: no side-file, no
tombstones, no logging of key inserts (a failed build simply restarts),
and a perfectly clustered bottom-up load.
"""

from __future__ import annotations

from repro.btree.loader import BulkLoader
from repro.core.base import BuilderBase
from repro.obs.progress import Phase
from repro.sim.kernel import Delay


class OfflineIndexBuilder(BuilderBase):
    """Quiesced baseline builder."""

    mode = "offline"

    def _phases(self) -> list:
        share = 0.30 / len(self.specs)
        return [Phase("scan", 0.70)] + [Phase(f"load:{spec.name}", share)
                                        for spec in self.specs]

    def _run_phases(self):
        """Build all requested indexes under one X table lock."""
        txn = self.system.txns.begin("IB-offline")
        lock_requested = self.system.sim.now
        yield from txn.lock(self.table.table_lock_name, "X")
        self.system.metrics.observe(
            "build.quiesce_wait", self.system.sim.now - lock_requested)
        self._mark("quiesced")
        self.obs.instant("quiesce.begin",
                         waited=self.system.sim.now - lock_requested)
        try:
            self._create_descriptors()
            self._make_sorters()
            yield from self._scan_and_sort(
                readers=self.options.parallel_readers)
            runs_by_index = self._finish_sort()
            self._mark("scan_done")
            for descriptor in self.descriptors:
                self.obs.begin("load", key=f"load:{descriptor.name}",
                               index=descriptor.name)
                merger = self._final_merger(
                    descriptor, runs_by_index[descriptor.name])
                loader = BulkLoader(
                    descriptor.tree,
                    fill_free_fraction=self.options.fill_free_fraction)
                loaded = 0
                keys_total = self._store_for(descriptor).total_keys() \
                    if self.obs.progress is not None else 0
                codec = self._codecs.get(descriptor.name)
                decode = codec.decode \
                    if codec is not None and codec.active else None
                while merger is not None:
                    batch = merger.pop_many(64)
                    if not batch:
                        break
                    loader.extend(batch if decode is None
                                  else list(map(decode, batch)))
                    loaded += len(batch)
                    yield from self._throttle(len(batch))
                    yield Delay(
                        len(batch) * self.system.config.bulk_load_key_cost)
                    self.obs.advance(f"load:{descriptor.name}", loaded,
                                     keys_total)
                loader.finish()
                descriptor.tree.force()
                self.obs.end(f"load:{descriptor.name}", keys=loaded)
            self._mark_available()
            self._mark("built")
        finally:
            yield from txn.commit()  # releases the X lock
        self.system.metrics.observe(
            "build.quiesce_hold", self.system.sim.now - self.timings["quiesced"])
        self.obs.instant(
            "quiesce.end",
            held=self.system.sim.now - self.timings["quiesced"])
