"""Buffer pool with LRU replacement, steal/no-force, prefetch and
write-behind.

Data pages flow through here.  The pool enforces the WAL rule: before a
dirty page is written to disk (eviction, write-behind or explicit
flush), the log is forced up to the page's Page-LSN.  Every such write
goes through :meth:`BufferPool._write`.  The pool also tracks each dirty
page's *recovery LSN* (the LSN that first dirtied it), which restart
recovery's analysis pass uses to bound the redo scan.

All methods that may perform I/O are generators: callers invoke them as
``page = yield from pool.fetch(pid)`` so the simulated clock advances by
the disk cost.  Sequential prefetch (section 2.2.2, [TeGu84]) is exposed as
:meth:`fetch_sequential`, the parallel read of scattered pages ([PMCLS90])
as :meth:`prefetch`.  Under the shared-disk model a read miss that
fills the pool starts write-behind (:meth:`BufferPool._write_behind`):
the dirty frames the next misses will evict are written back in the
background, so those misses find them clean.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from operator import attrgetter
from typing import Iterable, Iterator, Optional

from repro.errors import StorageError
from repro.faultinject.injector import InjectedCrash
from repro.faultinject.sites import fault_point
from repro.metrics import MetricsRegistry
from repro.sim.kernel import Acquire, Delay, ProcessGroup
from repro.storage.disk import Disk
from repro.storage.page import DataPage
from repro.storage.rid import PageId
from repro.wal.manager import LogManager

_PAGE_ID = attrgetter("page_id")
_PAGE_LSN = attrgetter("page_lsn")


class BufferPool:
    """Page cache between processes and the :class:`Disk`."""

    def __init__(self, disk: Disk, log: LogManager, capacity: int = 256,
                 metrics: Optional[MetricsRegistry] = None,
                 sim=None, io=None, prefetch_pages: int = 8) -> None:
        if capacity < 1:
            raise StorageError("buffer pool needs at least one frame")
        self.disk = disk
        self.log = log
        self.capacity = capacity
        self.metrics = metrics or MetricsRegistry()
        #: shared-disk model: a :class:`repro.sim.semaphore.Semaphore`
        #: every page I/O holds for its duration, or None for the
        #: unlimited-bandwidth model (each I/O delays only its issuer)
        self.io = io
        self._io_acquire = Acquire(io, "X")  # one immutable effect, reused
        self._sim = sim
        self._frames: "OrderedDict[PageId, DataPage]" = OrderedDict()
        #: dirty page table: page_id -> recovery LSN (first dirtying LSN)
        self.dirty: dict[PageId, int] = {}
        #: pages whose write is in flight (:meth:`_write`): still
        #: resident so concurrent fetches hit them; skipped by victim
        #: selection and by every other writer, so no write is duplicated
        #: and no frame is popped under its own write
        self._writing: set[PageId] = set()
        #: write-behind starts writes only while fewer than this many
        #: channels are busy: half the disk's, the other half left to
        #: demand reads, which then rarely queue behind a background
        #: write -- none on one channel or under the unlimited model
        self._write_behind_limit = io.capacity // 2 if io is not None else 0
        #: the frames at the LRU end write-behind cleans: the victims of
        #: the next misses, a channel's worth of single reads plus one
        #: sequential-prefetch burst of the scan (section 2.2.2)
        self._write_behind_window = \
            (io.capacity + prefetch_pages) if io is not None else 0

    def _charge_io(self, cost: float):
        """Generator: pay ``cost`` simulated time of disk I/O.

        With :attr:`io` set, the I/O holds one disk channel for its
        duration so concurrent I/Os queue (the contention the SLO
        tradeoff suite measures); otherwise a plain delay.
        """
        if cost <= 0:
            return
        sim, io = self._sim, self.io
        if io is not None and (sim is None or not sim.acquired(io, "X")):
            yield self._io_acquire
        try:
            if sim is None or not sim.delayed(cost):
                yield Delay(cost)
        finally:
            if io is not None:
                io.release(sim.current if sim else None)

    # -- fetch paths ---------------------------------------------------------

    def hit(self, page_id: PageId) -> Optional[DataPage]:
        """A buffer hit on ``page_id`` by a plain call, else None."""
        page = self._frames.get(page_id)
        if page is not None:
            self._frames.move_to_end(page_id)
            self.metrics.counters["buffer.hits"] += 1
        return page

    def fetch(self, page_id: PageId):
        """Get a page (generator; yields I/O delay on a miss)."""
        page = self.hit(page_id)
        if page is not None:
            return page
        self.metrics.incr("buffer.misses")
        image = self.disk.read_page(page_id)
        if image is None:
            raise StorageError(f"page {page_id} does not exist on disk")
        yield from self._charge_io(self.disk.read_cost(1))
        page = yield from self._install(image)
        if self._write_behind_limit:
            self._write_behind()
        return page

    def fetch_sequential(self, page_ids: list[PageId]):
        """Fetch consecutive pages with one sequential I/O for the misses.

        Models the paper's sequential prefetch: "multiple pages may be read
        in one I/O" (section 2.2.2).  Returns the pages in request order.
        """
        missing = [pid for pid in page_ids if pid not in self._frames]
        if missing:
            self.metrics.incr("buffer.misses", len(missing))
            self.metrics.incr("buffer.prefetches")
            yield from self._charge_io(self.disk.read_cost(len(missing)))
            for pid in missing:
                image = self.disk.read_page(pid)
                if image is None:
                    raise StorageError(f"page {pid} does not exist on disk")
                yield from self._install(image)
            if self._write_behind_limit:
                self._write_behind()
        hits = len(page_ids) - len(missing)
        if hits:
            self.metrics.incr("buffer.hits", hits)
        pages = []
        for pid in page_ids:
            page = self._frames.get(pid)
            if page is None:
                # A concurrent fetch (parallel scan readers under a small
                # pool) evicted this page between our prefetch I/O and
                # now; bring it back individually.
                page = yield from self.fetch(pid)
            self._frames.move_to_end(pid)
            pages.append(page)
        return pages

    def prefetch(self, page_ids: Iterable[PageId]):
        """Generator: list prefetch of the next pages a reader will visit.

        Under the shared-disk model (:attr:`io` set) takes the first
        distinct pages of ``page_ids`` that are not resident, as many as
        there are disk channels, and reads them in parallel, one child
        process a page doing :meth:`fetch` -- section 2.2.2's "the data
        pages may be read in parallel using multiple processes"
        [PMCLS90] -- and joins them all.  Fewer than two such pages, or
        the unlimited-bandwidth model: reads nothing, the caller's own
        fetch is the one I/O.
        """
        if self.io is None:
            return
        window = self.io.capacity
        missing: list[PageId] = []
        frames = self._frames
        for page_id in page_ids:
            if page_id not in frames and page_id not in missing:
                missing.append(page_id)
                if len(missing) == window:
                    break
        if len(missing) < 2:
            return
        group = ProcessGroup(self._sim, "prefetch")
        for page_id in missing:
            group.spawn(self.fetch(page_id))
        yield from group.join_all()

    def latch_current(self, page: DataPage, mode: str):
        """Generator: latch the frame now resident for ``page``; returns it.

        The pool has no pin count -- a held or awaited latch *is* the pin
        (:meth:`_victim`) -- so a page object carried across a yield
        unlatched, such as the tail of a :meth:`fetch_sequential` batch,
        may have been evicted and re-read since: the object in hand is
        then an orphan whose image misses every later update.  Re-resolve
        immediately before latching (no yield in between).
        """
        if self._frames.get(page.page_id) is not page:
            self.metrics.incr("buffer.stale_prefetches")
            page = yield from self.fetch(page.page_id)
        if self._sim is None or not self._sim.acquired(page.latch, mode):
            yield Acquire(page.latch, mode)
        return page

    def new_page(self, page_id: PageId, capacity: int):
        """Create a brand-new page in the pool (no disk read).

        The page reaches disk when evicted or flushed; until then only the
        WAL knows about it -- exactly the window restart recovery must
        handle by re-creating pages from log records.
        """
        if page_id in self._frames or self.disk.has_page(page_id):
            raise StorageError(f"page {page_id} already exists")
        page = DataPage(page_id, capacity, metrics=self.metrics)
        page = yield from self._install(page)
        # A fresh page is dirty from birth: it exists nowhere on disk.  Its
        # conservative recovery LSN is the next LSN to be written.
        self.dirty.setdefault(page_id, self.log.last_lsn + 1)
        return page

    def ensure_page(self, page_id: PageId, capacity: int):
        """Fetch ``page_id``; create it empty if it never reached disk.

        Used by redo handlers replaying an insert into a page that was
        allocated but lost in the crash.
        """
        page = self.hit(page_id)
        if page is not None:
            return page
        if self.disk.has_page(page_id):
            page = yield from self.fetch(page_id)
            return page
        page = yield from self.new_page(page_id, capacity)
        return page

    # -- dirtying and flushing -------------------------------------------------

    def mark_dirty(self, page: DataPage, lsn: int) -> None:
        """Record that ``page`` was changed by the log record ``lsn``.

        The dirty-table entry keeps the *lowest* LSN seen: normally the
        first dirtying LSN; during restart redo it corrects the
        conservative placeholder :meth:`new_page` installed, so a second
        crash still redoes from early enough.
        """
        if lsn > page.page_lsn:
            page.page_lsn = lsn
        current = self.dirty.get(page.page_id)
        if current is None or lsn < current:
            self.dirty[page.page_id] = lsn

    def flush_page(self, page_id: PageId):
        """Write one dirty page to disk (WAL rule enforced).

        A page whose write is already in flight is left to that write,
        which lands every change made before it completes.
        """
        page = self._frames.get(page_id)
        if page is None or page_id not in self.dirty \
                or page_id in self._writing:
            return
        yield from self._write([page], "buffer.page_flush",
                               "buffer.page_flushes")

    def flush_all(self):
        """Write every dirty page (a checkpoint's or a test's force; no
        caller in the build paths).

        Batched put, the write-side twin of :meth:`fetch_sequential`: one
        log force to the highest dirty Page-LSN satisfies the WAL rule
        for the whole set, and the pages go out in a single sequential
        I/O instead of ``n`` random ones.  The per-page
        ``buffer.page_flush`` fault site still fires for every page (the
        lost-flush schedule drops exactly one write).  Pages whose write
        is in flight are left to it, as in :meth:`flush_page`.
        """
        tracer = getattr(self.metrics, "tracer", None)
        if tracer is not None:
            tracer.gauge("buffer.dirty", len(self.dirty))
        frames, writing = self._frames, self._writing
        victims = [frames[page_id] for page_id in self.dirty
                   if page_id in frames and page_id not in writing]
        if victims:
            yield from self._write(victims, "buffer.page_flush",
                                   "buffer.page_flushes")

    # -- internals --------------------------------------------------------------

    def _install(self, page: DataPage):
        frames = self._frames
        while page.page_id not in frames and len(frames) >= self.capacity:
            victim = self._victim()
            if victim is None:
                # Every frame is latched or mid-write (tiny pool, many
                # concurrent users).  Popping a latched page would
                # strand its holder on a zombie object, so run over
                # capacity instead; later installs evict back down.
                self.metrics.incr("buffer.overcommits")
                break
            if victim.page_id in self.dirty:
                # steal: write the (possibly uncommitted) page out, WAL
                # first.  The frame stays resident until the write
                # lands: a page popped before its write I/O exists
                # *nowhere* for the duration -- concurrent fetches would
                # raise (or, via ensure_page, silently recreate it
                # empty).
                yield from self._write([victim], "buffer.evict_dirty",
                                       "buffer.evictions.dirty")
                if victim.latch.busy:
                    # Someone fetched and latched the page during our
                    # write I/O; it must stay resident for them.  The
                    # write was not wasted -- the page is clean now --
                    # but no frame was freed: pick another victim.
                    self.metrics.incr("buffer.evictions.rescued")
                    continue
            else:
                self.metrics.incr("buffer.evictions.clean")
            frames.pop(victim.page_id, None)
        resident = frames.get(page.page_id)
        if resident is not None and resident is not page:
            # A concurrent fetch installed this page while we slept in
            # read/eviction I/O.  Its object is canonical -- processes
            # may already hold (and have updated) it -- and ours is a
            # stale duplicate from before their changes: replacing the
            # frame would silently lose logged-but-unflushed updates.
            frames.move_to_end(page.page_id)
            self.metrics.incr("buffer.install_races")
            return resident
        frames[page.page_id] = page
        frames.move_to_end(page.page_id)
        return page

    def _victim(self) -> Optional[DataPage]:
        """The LRU frame that may be evicted, or None.

        Pages whose latch is held (or awaited) are never victims: the
        latch holder owns a reference to the page *object*, and popping
        the frame would divorce that object from the pool -- updates
        applied through it would be logged yet invisible to every later
        fetch, which re-reads the stale disk image.  Nor are pages whose
        write is in flight: their writer still owns the frame.
        """
        writing = self._writing
        for page_id, frame in self._frames.items():
            if page_id not in writing and not frame.latch.busy:
                return frame
        return None

    def _write(self, pages: list[DataPage], site: str, counter: str):
        """Generator: the one write path of data pages to disk.

        Eviction, write-behind and both flushes come here, with the
        fault ``site`` they fire and the ``counter`` of pages they wrote.
        In order: the pages are marked in flight, so evictors and other
        writers skip them; the log is forced to their highest Page-LSN
        (WAL); one I/O carries them all, on a disk channel; then per
        page, the site fires, the log is forced again for changes made
        during the I/O (they are part of the image), and the image is
        written and the dirty entry dropped -- only if the frame still
        holds that object, so a stale object can never overwrite or
        clean a newer frame of the same page.
        """
        frames, writing = self._frames, self._writing
        page_ids = list(map(_PAGE_ID, pages))
        writing.update(page_ids)
        try:
            self.log.flush(max(map(_PAGE_LSN, pages)))
            yield from self._charge_io(self.disk.write_cost(len(pages)))
            for page in pages:
                page_id = page.page_id
                if fault_point(self.metrics, site) is not None:
                    # lost-flush: the write never reaches the platter
                    # although the pool's bookkeeping proceeds; power
                    # fails immediately after.
                    self.dirty.pop(page_id, None)
                    raise InjectedCrash(f"lost write of {page_id} ({site})")
                self.log.flush(page.page_lsn)
                if frames.get(page_id) is page:
                    self.disk.write_page(page)
                    self.dirty.pop(page_id, None)
                    self.metrics.incr(counter)
        finally:
            writing.difference_update(page_ids)

    def _write_behind(self) -> None:
        """Start background writes of the dirty frames at the LRU end.

        Called after a read miss installed a page: when the pool is full,
        each dirty, unlatched frame among the first
        :attr:`_write_behind_window` in LRU order, and not already being
        written, gets its own process doing :meth:`_write`, while fewer
        than :attr:`_write_behind_limit` disk channels are busy (reads
        and writes alike), so it takes only channels that are idle.  The
        next misses then evict those frames clean instead of writing
        them themselves.  Appends (:meth:`new_page`) never call this, so
        a load alone keeps its schedule.
        """
        room = self._write_behind_limit - self.io.in_use
        if room <= 0 or len(self._frames) < self.capacity:
            return
        dirty, writing = self.dirty, self._writing
        for page_id, frame in islice(self._frames.items(),
                                     self._write_behind_window):
            if page_id in dirty and page_id not in writing \
                    and not frame.latch.busy:
                # marked before the spawn: the process first runs later
                writing.add(page_id)
                self._sim.spawn(
                    self._write([frame], "buffer.page_flush",
                                "buffer.write_behinds"),
                    name="write-behind")
                room -= 1
                if not room:
                    return

    # -- crash modelling ----------------------------------------------------------

    def crash(self) -> None:
        """Lose all volatile state (frames and dirty table)."""
        self._frames.clear()
        self.dirty.clear()
        self._writing.clear()

    # -- introspection --------------------------------------------------------------

    def resident(self, page_id: PageId) -> bool:
        return page_id in self._frames

    def resident_page(self, page_id: PageId) -> Optional[DataPage]:
        """The resident frame for ``page_id``, if any: no LRU touch, no
        counters, no I/O (audits and verification code)."""
        return self._frames.get(page_id)

    def resident_pages(self) -> Iterator[DataPage]:
        return iter(self._frames.values())
