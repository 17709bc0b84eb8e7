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

from repro.core.base import BuilderBase
from repro.obs.progress import Phase


class OfflineIndexBuilder(BuilderBase):
    """Quiesced baseline builder: the shared scan and load under X."""

    mode = "offline"

    def _phases(self) -> list:
        share = 0.30 / len(self.specs)
        return [Phase("scan", 0.70)] + [Phase(f"load:{spec.name}", share)
                                        for spec in self.specs]

    def _run_phases(self):
        """Build all requested indexes under one X table lock."""
        yield from self._quiesced("X", "IB-offline", self._build())

    def _build(self):
        self._create_descriptors()
        self._make_sorters()
        mergers = yield from self._scan_phase(
            readers=self.options.parallel_readers)
        for descriptor in self.descriptors:
            yield from self._load_phase(descriptor, mergers[descriptor.name])
        self._mark_available()
        self._mark("built")
