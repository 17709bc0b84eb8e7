"""Benchmark-owned inputs and open-loop load.

Everything the program receives is generated here as a pure function of
the workload seed: the preloaded rows and a Poisson schedule of
operations.  ``repro.workloads`` is deliberately not used: its victim
sampling copies the whole RID pool per operation (O(table)) and its
range reads fall back to a full table scan before the flip.

Open loop on the simulated clock: a dispatcher process sleeps to each
operation's due time and spawns it detached, never waiting for earlier
operations.  Latency is completion minus due time, so a stall shows up
in the operations queued behind it.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Sequence

from repro.errors import RecordNotFoundError, TransactionAborted
from repro.query.access import index_lookup, index_range_scan
from repro.sim.kernel import Delay

READ, INSERT, UPDATE, DELETE = range(4)
#: how a read is served once the indexes are up (before: a point read)
POINT, LOOKUP, RANGE = range(3)
#: One block of the schedule, ``(kind, rolled back, keeps its key, read
#: path) -> operations``: point read 40 % / insert 20 % / update 25 %
#: (80 % change ``k``) / delete 15 %, 5 % of the writes deliberately
#: rolled back, and after the flip half the reads through an index
#: lookup and a tenth through a range scan.
BLOCK = (
    ((READ, False, False, POINT), 64),
    ((READ, False, False, LOOKUP), 80),
    ((READ, False, False, RANGE), 16),
    ((INSERT, False, False, POINT), 76),
    ((INSERT, True, False, POINT), 4),
    ((UPDATE, False, False, POINT), 76),
    ((UPDATE, True, False, POINT), 4),
    ((UPDATE, False, True, POINT), 19),
    ((UPDATE, True, True, POINT), 1),
    ((DELETE, False, False, POINT), 57),
    ((DELETE, True, False, POINT), 3),
)
BLOCK_OPS = sum(count for _shape, count in BLOCK)
HOT_SHARE = 0.10
HOT_RIDS = 64
RANGE_SPAN = 100
PRELOAD_TXN_ROWS = 500

# operation outcomes (``Results.outcome``); CUT = still in flight when
# the round ended or the system crashed
CUT, OK, ABORTED = 0, 1, 2


def column_a(k: int) -> int:
    """The duplicate-heavy second column (65 536 distinct values)."""
    return (k * 2654435761) % 65536


def make_rows(seed: int, count: int) -> list[tuple[int, int, int]]:
    """Preload rows ``(k, a, p)``: ``k`` uniform in ``[0, 10 * count)``,
    ``p`` the row's ordinal."""
    rng = random.Random((seed << 8) ^ 0xB0A7)
    space = 10 * count
    rows = []
    for ordinal in range(count):
        k = rng.randrange(space)
        rows.append((k, column_a(k), ordinal))
    return rows


class Op(NamedTuple):
    """One scheduled operation; every field is fixed before the run."""

    #: due time, simulated units after traffic start
    due: float
    kind: int
    #: new key for an insert or key-changing update; low bound of a range
    key: int
    #: uniform draw in [0, 1) selecting the victim among the live RIDs
    victim: float
    hot: bool
    rollback: bool
    keep_key: bool
    read_path: int


def make_schedule(seed: int, segments: Sequence[tuple[int, float]],
                  key_space: int) -> list[Op]:
    """Poisson arrivals conditioned on their count: ``segments`` is
    ``(operations, rate)`` pairs played back to back, each cut into
    blocks of ``BLOCK_OPS`` operations lasting ``BLOCK_OPS / rate``;
    inside a block the due times are independent uniform draws (what a
    Poisson process looks like given how many arrivals it had) and the
    operations are a shuffled deck holding exactly ``BLOCK``.

    The driver gives every run another seed.  Conditioning takes the
    seed-to-seed swing out of how many operations of each shape fall
    inside the build window (with free draws it moved side-file length,
    WAL volume and p99 by 5-15 %); which rows and keys they touch still
    varies freely.  A pure function of its arguments.
    """
    rng = random.Random((seed << 8) ^ 0x5C4ED)
    deck = [shape for shape, count in BLOCK for _ in range(count)]
    ops = []
    start = 0.0
    for count, rate in segments:
        if count % BLOCK_OPS:
            raise ValueError(f"segment of {count} operations is not a "
                             f"multiple of {BLOCK_OPS}")
        span = BLOCK_OPS / rate
        for _block in range(count // BLOCK_OPS):
            rng.shuffle(deck)
            dues = sorted(start + rng.random() * span
                          for _ in range(BLOCK_OPS))
            for due, (kind, rollback, keep_key, read_path) \
                    in zip(dues, deck):
                ops.append(Op(due, kind, rng.randrange(key_space),
                              rng.random(), rng.random() < HOT_SHARE,
                              rollback, keep_key, read_path))
            start += span
    return ops


class LiveRids:
    """The benchmark's view of the live rows: uniform sampling, claim
    and add are each O(1) (index + swap-remove on parallel lists)."""

    def __init__(self) -> None:
        self.rids: list = []
        self.keys: list[int] = []

    def __len__(self) -> int:
        return len(self.rids)

    def add(self, rid, key: int) -> None:
        self.rids.append(rid)
        self.keys.append(key)

    def peek(self, draw: float):
        index = int(draw * len(self.rids))
        return self.rids[index], self.keys[index]

    def claim(self, draw: float):
        """Remove and return the drawn ``(rid, key)``: no second writer
        can pick the same victim while this one is in flight."""
        rids, keys = self.rids, self.keys
        index = int(draw * len(rids))
        rid, key = rids[index], keys[index]
        last_rid, last_key = rids.pop(), keys.pop()
        if index < len(rids):
            rids[index], keys[index] = last_rid, last_key
        return rid, key


class Results:
    """Per-operation outcomes on the logical clock (simulated time that
    keeps counting across a crash and restart)."""

    def __init__(self, count: int) -> None:
        self.done_at: list[float] = [0.0] * count
        self.outcome = bytearray(count)
        self.late_max = 0.0
        #: operation -> RID it may have made durable (None until the
        #: commit is requested); what a crash leaves undecided
        self.inflight: dict[int, object] = {}
        #: transaction ids begun by foreground operations
        self.txn_ids: set[int] = set()


class Traffic:
    """Replays a schedule against one system.

    ``model`` maps RID -> row as acknowledged to the client; it is the
    reference the round's final table contents and the post-crash
    durability check are compared with.
    """

    def __init__(self, system, table, ops: Sequence[Op], results: Results,
                 live: LiveRids, hot: LiveRids, model: dict,
                 first_p: int, clock_offset: float = 0.0) -> None:
        self.system = system
        self.table = table
        self.ops = ops
        self.results = results
        self.live = live
        self.hot = hot
        self.model = model
        self.first_p = first_p
        self.clock_offset = clock_offset
        #: flipped indexes in build order; set by the round when the
        #: last build finishes, which is when the read mix changes
        self.indexes: list = []
        self.bad_reads = 0
        #: operations dispatched so far (where a restart picks up)
        self.sent = 0

    # -- dispatch ----------------------------------------------------------

    def dispatcher(self, origin: float, first: int = 0):
        """Generator process: spawn ``ops[first:]`` at their due times.

        ``origin`` is the logical time of schedule offset 0.  An
        operation already overdue when the dispatcher starts (it fell
        due while the system was down) is sent at once and its lateness
        is not the generator's: latency still counts from the due time.
        """
        sim = self.system.sim
        spawn = sim.spawn
        offset = self.clock_offset
        results = self.results
        up_since = sim.now + offset
        body = self._op
        for index in range(first, len(self.ops)):
            due = origin + self.ops[index].due
            wait = due - offset - sim.now
            if wait > 0:
                yield Delay(wait)
            late = sim.now + offset - max(due, up_since)
            if late > results.late_max:
                results.late_max = late
            spawn(body(index), name="op")
            self.sent = index + 1

    # -- one operation -----------------------------------------------------

    def _op(self, index: int):
        op = self.ops[index]
        kind = op.kind
        system = self.system
        table = self.table
        results = self.results
        txn = system.txns.begin("op")
        results.txn_ids.add(txn.txn_id)
        results.inflight[index] = None
        claimed = None
        rid = None
        row = None
        try:
            if kind == READ:
                yield from self._read(txn, op)
            elif kind == INSERT:
                row = (op.key, column_a(op.key), self.first_p + index)
                rid = yield from table.insert(txn, row)
            else:
                if op.hot and kind == UPDATE:
                    rid, old_key = self.hot.peek(op.victim)
                else:
                    claimed = rid, old_key = self.live.claim(op.victim)
                if kind == UPDATE:
                    key = old_key if op.keep_key else op.key
                    row = (key, column_a(key), self.first_p + index)
                    yield from table.update(txn, rid, row)
                else:
                    yield from table.delete(txn, rid)
            if op.rollback:
                yield from txn.rollback()
                if claimed is not None:
                    self.live.add(*claimed)
            else:
                results.inflight[index] = rid
                yield from txn.commit()
                self._acknowledge(kind, rid, row, claimed)
            results.outcome[index] = OK
        except TransactionAborted:
            yield from txn.rollback()
            if claimed is not None:
                self.live.add(*claimed)
            results.outcome[index] = ABORTED
        del results.inflight[index]
        results.done_at[index] = system.sim.now + self.clock_offset

    def _acknowledge(self, kind, rid, row, claimed) -> None:
        """The commit returned: fold the change into the client's view."""
        if kind == READ:
            return
        if kind == DELETE:
            del self.model[rid]
            return
        self.model[rid] = row
        if kind == INSERT or claimed is not None:
            self.live.add(rid, row[0])
        else:
            hot = self.hot
            hot.keys[hot.rids.index(rid)] = row[0]

    def _read(self, txn, op):
        """Every read is a point read until the last build has flipped;
        then each takes the path its schedule entry names."""
        indexes = self.indexes
        rid, key = (self.hot if op.hot else self.live).peek(op.victim)
        if indexes and op.read_path == LOOKUP:
            descriptor = indexes[op.key % len(indexes)]
            wanted = tuple(key if column == "k" else column_a(key)
                           for column in descriptor.key_columns)
            found = yield from index_lookup(txn, descriptor, wanted)
            for _rid, record in found:
                if descriptor.key_of(record) != wanted:
                    self.bad_reads += 1
            return
        if indexes and op.read_path == RANGE:
            low, high = op.key, op.key + RANGE_SPAN
            found = yield from index_range_scan(
                txn, indexes[0], (low,), (high,))
            for key_value, _rid, record in found:
                if not low <= key_value[0] < high \
                        or record.values[1] != column_a(record.values[0]):
                    self.bad_reads += 1
            return
        try:
            record = yield from self.table.read(txn, rid)
        except RecordNotFoundError:
            # Sampled before a concurrent delete committed: an empty
            # result, exactly what a client racing a delete would get.
            return
        k, a, _p = record.values
        if a != column_a(k):
            self.bad_reads += 1


def preload_txn(system, table, rows, rids_out: list):
    """Generator process: insert ``rows`` in one transaction."""
    txn = system.txns.begin("preload")
    insert = table.insert
    for row in rows:
        rid = yield from insert(txn, row)
        rids_out.append(rid)
    yield from txn.commit()
