"""Unit tests for the WAL (repro.wal)."""

from functools import partial
from itertools import groupby
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WALError
from repro.metrics import MetricsRegistry
from repro.storage.buffer import BufferPool
from repro.storage.page import DataPage
from repro.storage.rid import SLOT_BITS, SLOT_MASK, PageId
from repro.storage.table import Table, redo_page_run
from repro.wal import LogManager, OperationRegistry, RecordKind
from repro.wal.records import HEADER_SIZE, NO_INFO


def test_lsns_are_dense_and_increasing():
    log = LogManager()
    r1 = log.append(1, RecordKind.UPDATE, redo=("x", {}))
    r2 = log.append(1, RecordKind.COMMIT)
    assert (r1, r2) == (1, 2)
    assert (log.get(r1).lsn, log.get(r2).lsn) == (1, 2)
    assert log.last_lsn == 2


def test_record_flavours():
    log = LogManager()
    ur = log.get(log.append(1, RecordKind.UPDATE, redo=("a", {}),
                            undo=("b", {})))
    ro = log.get(log.append(1, RecordKind.UPDATE, redo=("a", {})))
    uo = log.get(log.append(1, RecordKind.UPDATE, undo=("b", {})))
    assert ur.is_undo_redo and not ur.is_redo_only and not ur.is_undo_only
    assert ro.is_redo_only and not ro.is_undo_redo
    assert uo.is_undo_only and not uo.is_undo_redo


def test_flush_and_crash_drop_volatile_tail():
    log = LogManager()
    for i in range(5):
        log.append(1, RecordKind.UPDATE, redo=("x", {"i": i}))
    log.flush(3)
    assert log.flushed_lsn == 3
    log.crash()
    assert log.last_lsn == 3
    assert [r.redo[1]["i"] for r in log.scan()] == [0, 1, 2]


def test_flush_to_future_lsn_rejected():
    log = LogManager()
    log.append(1, RecordKind.UPDATE, redo=("x", {}))
    with pytest.raises(WALError):
        log.flush(99)


def test_flush_is_monotonic():
    log = LogManager()
    for _ in range(4):
        log.append(1, RecordKind.UPDATE, redo=("x", {}))
    log.flush(3)
    log.flush(1)  # no-op, must not regress
    assert log.flushed_lsn == 3


def test_scan_range():
    log = LogManager()
    for i in range(6):
        log.append(1, RecordKind.UPDATE, redo=("x", {"i": i}))
    got = [r.redo[1]["i"] for r in log.scan(from_lsn=2, to_lsn=4)]
    assert got == [1, 2, 3]


def test_get_out_of_range():
    log = LogManager()
    with pytest.raises(WALError):
        log.get(1)


def test_per_writer_metrics():
    log = LogManager()
    log.append(1, RecordKind.UPDATE, redo=("x", {}), writer="txn")
    log.append(None, RecordKind.UPDATE, redo=("x", {}), writer="ib")
    log.append(None, RecordKind.UPDATE, redo=("x", {}), writer="ib")
    assert log.metrics.get("wal.records") == 3
    assert log.metrics.get("wal.records.ib") == 2
    assert log.metrics.get("wal.records.txn") == 1
    assert log.metrics.get("wal.bytes.ib") > 0
    sizes = [record.size for record in log.scan()]
    assert log.metrics.get("wal.bytes") == sum(sizes)
    assert log.metrics.get("wal.bytes.ib") == sum(sizes[1:])


def test_checkpoint_master_record_and_survival():
    log = LogManager()
    log.append(1, RecordKind.UPDATE, redo=("x", {}))
    cp = log.write_checkpoint({"1": "active"}, {}, {"highest_key": 42})
    log.append(1, RecordKind.UPDATE, redo=("x", {}))
    log.crash()  # tail after forced checkpoint is lost
    survivor = log.latest_checkpoint()
    assert survivor is not None
    assert survivor.lsn == cp
    assert survivor.info["utility_state"]["highest_key"] == 42


def test_operation_registry_dispatch_and_errors():
    reg = OperationRegistry()
    hits = []
    reg.register("op.a", redo=lambda s, r: hits.append("redo"),
                 undo=lambda s, t, r: hits.append("undo"))
    reg.redo("op.a")(None, None)
    reg.undo("op.a")(None, None, None)
    assert hits == ["redo", "undo"]
    assert reg.knows("op.a") and not reg.knows("op.b")
    with pytest.raises(WALError):
        reg.redo("nope")
    with pytest.raises(WALError):
        reg.undo("op.b")
    with pytest.raises(WALError):
        reg.register("op.a", redo=lambda s, r: None)


def test_the_writer_states_the_size_of_a_flat_payload():
    log = LogManager()
    payload = ("t", (0, 1), (7,))
    record = log.get(log.append(1, RecordKind.UPDATE, redo=("a", payload),
                                undo=("b", payload), size=104))
    assert record.size == 104 and log.metrics.get("wal.bytes") == 104
    assert record.redo == ("a", payload) and record.undo == ("b", payload)
    assert record.payload is payload and record.is_undo_redo
    with pytest.raises(AttributeError):  # only a mapping can be measured
        log.append(1, RecordKind.UPDATE, redo=("a", payload))


def test_the_halves_of_a_record_share_one_payload():
    log = LogManager()
    with pytest.raises(WALError):
        log.append(1, RecordKind.UPDATE, redo=("a", {"v": 1}),
                   undo=("b", {"v": 2}))


def test_info_of_a_record_written_without_one_is_read_only():
    log = LogManager()
    commit = log.get(log.append(1, RecordKind.COMMIT))
    end = log.get(log.append(1, RecordKind.END))
    assert commit.info is end.info and not commit.info
    with pytest.raises(TypeError):
        commit.info["k"] = 1
    own = log.get(log.append(1, RecordKind.UTILITY, info={"k": 1}))
    assert own.info == {"k": 1}


def test_record_size_counts_payloads():
    log = LogManager()
    small = log.get(log.append(1, RecordKind.UPDATE, redo=("x", {"v": 1})))
    big = log.get(log.append(1, RecordKind.UPDATE,
                             redo=("x", {"v": list(range(100))}),
                             undo=("y", {"v": list(range(100))})))
    assert big.size > small.size


def test_scan_past_the_last_lsn_is_refused_before_the_first_record():
    log = LogManager()
    for _ in range(3):
        log.append(1, RecordKind.UPDATE, redo=("x", {}))
    scanned = []
    with pytest.raises(WALError):
        for record in log.scan(to_lsn=5):
            scanned.append(record)
    assert scanned == []
    assert [record.lsn for record in log.scan(to_lsn=3)] == [1, 2, 3]


# -- the packed log against a list-of-tuples model -----------------------------

#: one record of each flavour: (kind, redo op, undo op, info)
FLAVOURS = {
    "undo_redo": (RecordKind.UPDATE, "heap.put", "heap.update", None),
    "redo_only": (RecordKind.UPDATE, "sidefile.append", None, None),
    "undo_only": (RecordKind.UPDATE, None, "index.undo", None),
    "clr": (RecordKind.COMPENSATION, "index.apply", None, None),
    "utility": (RecordKind.UTILITY, None, None, {"phase": "scan"}),
    "commit": (RecordKind.COMMIT, None, None, None),
    "end": (RecordKind.END, None, None, None),
}

#: one heap record of each shape the log's row word tells apart: (redo
#: op, undo op -- None: a redo-only CLR --, values, old values, side-file
#: routed indexes, origin)
HEAP_SHAPES = {
    "put": ("heap.put", "heap.insert", (1, "a"), None, (), None),
    "clear": ("heap.clear", None, None, None, (), None),
    "update": ("heap.put", "heap.update", (2, "b"), (1, "a"), (), None),
    "delete": ("heap.clear", "heap.delete", None, (2, "b"), (), None),
    "sf_routed": ("heap.put", "heap.insert", (3,), None, ("idx",), None),
    "origin": ("heap.put", "heap.update", (4,), (3,), (), ("up", 7)),
}

txn_or_none = st.one_of(st.none(), st.integers(min_value=1, max_value=6))
lsn_or_none = st.one_of(st.none(), st.integers(min_value=1, max_value=40))
append_step = st.tuples(
    st.just("append"), st.sampled_from(sorted(FLAVOURS)), txn_or_none,
    lsn_or_none, lsn_or_none, st.integers(min_value=32, max_value=4096))
heap_step = st.tuples(
    st.just("heap"), st.sampled_from(sorted(HEAP_SHAPES)), txn_or_none,
    st.integers(min_value=0, max_value=2),
    st.sampled_from([0, 1, SLOT_MASK]), st.integers(min_value=0,
                                                    max_value=3))
steps_st = st.lists(st.one_of(
    append_step, append_step, heap_step, heap_step,
    st.tuples(st.just("flush"), st.integers(min_value=0, max_value=50)),
    st.tuples(st.just("checkpoint"), st.integers(min_value=0, max_value=9)),
    st.tuples(st.just("crash"))), max_size=40)


class Model:
    """The log as a plain list of record tuples (a ``LogRecord``'s
    fields, in order) with its stable prefix and master record."""

    def __init__(self):
        self.records = []
        self.flushed = 0
        self.master = None


def apply_step(log, model, step):
    action = step[0]
    if action == "append":
        _action, flavour, txn_id, prev_lsn, undo_next, size = step
        kind, redo_op, undo_op, info = FLAVOURS[flavour]
        payload = ("payload", len(model.records))
        page_id = None  # a logical record: redo takes it alone
        if kind is not RecordKind.COMPENSATION:
            undo_next = None
        if redo_op is None and undo_op is None:
            size = HEADER_SIZE  # nothing to carry: the log sizes it
            payload = None
        lsn = log.append(
            txn_id, kind, prev_lsn, page_id,
            None if redo_op is None else (redo_op, payload),
            None if undo_op is None else (undo_op, payload),
            undo_next, None if info is None else dict(info),
            size=None if payload is None else size)
        model.records.append((lsn, txn_id, kind, prev_lsn, page_id, redo_op,
                              undo_op, payload, undo_next, info, size))
    elif action == "heap":
        # the payload, row word and size Table.write and the CLRs log
        _action, shape, txn_id, page_no, slot, visible = step
        redo_op, undo_op, values, old_values, sf_routed, origin = \
            HEAP_SHAPES[shape]
        rid = page_no << SLOT_BITS | slot
        payload, row, size = Table.log_payload(
            SimpleNamespace(name="t"), rid, values, old_values,
            SimpleNamespace(count=visible, sf_routed=sf_routed), origin,
            undo=undo_op is not None)
        kind = RecordKind.COMPENSATION if undo_op is None \
            else RecordKind.UPDATE
        page_id = PageId("t", page_no)
        lsn = log.append(
            txn_id, kind, None, page_id, (redo_op, payload),
            None if undo_op is None else (undo_op, payload), size=size,
            row=row)
        model.records.append((
            lsn, txn_id, kind, None, page_id, redo_op, undo_op,
            ("t", rid, values, old_values, visible, sf_routed, origin),
            None, None, size))
    elif action == "flush":
        target = min(step[1], len(model.records))
        log.flush(target)
        model.flushed = max(model.flushed, target)
    elif action == "checkpoint":
        state = {"phase": "load", "keys": step[1]}
        lsn = log.write_checkpoint({}, {}, state)
        info = {"txn_table": {}, "dirty_pages": {}, "utility_state": state,
                "utility_states": {}}
        model.records.append((lsn, None, RecordKind.CHECKPOINT, None, None,
                              None, None, None, None, info, HEADER_SIZE))
        model.flushed = model.master = lsn
    else:
        log.crash()
        del model.records[model.flushed:]


def check(log, model):
    records = model.records
    last = len(records)
    assert log.last_lsn == last and log.flushed_lsn == model.flushed
    for want in records:
        got = log.get(want[0])
        assert tuple(got) == tuple(want[:9]) + (want[9] or {}, want[10])
        if want[9] is None:
            assert got.info is NO_INFO
    assert [record.lsn for record in log.scan()] == list(range(1, last + 1))
    for first in range(1, last + 2, 3):
        for end in (first - 1, (first + last) // 2, last):
            assert list(log.scan(first, end)) == \
                [log.get(lsn) for lsn in range(first, end + 1)]
    with pytest.raises(WALError):
        log.scan(to_lsn=last + 1)
    with pytest.raises(WALError):
        log.get(last + 1)
    master = model.master
    checkpoint = log.latest_checkpoint()
    if master is None or master > last:
        assert checkpoint is None
    else:
        assert checkpoint == log.get(master)
    # the columns restart reads: ids, (lsn, txn, kind), the redo fields
    assert max(log.txn_ids(), default=0) == \
        max((want[1] for want in records if want[1]), default=0)
    assert list(log.txn_kinds()) == [(want[0], want[1], want[2])
                                     for want in records if want[1]]
    # the redo reader: runs of one page_id, and a heap page's runs put
    # into empty pages by restart's handler what the model's puts and
    # clears leave, counting what a fetch and a redo a record would
    runs = [(page_id, list(run)) for page_id, run in log.redo_runs(1, last)]
    redone = [want for want in records if want[5]]
    assert [page_id for page_id, _run in runs] == \
        [page_id for page_id, _run in groupby(want[4] for want in redone)]
    assert [(record[0], record[1], record[2], record[3])
            for _page_id, run in runs for record in run] == \
        [(want[4], want[5], want[0], want[1] or 0) for want in redone]
    heap_runs = [(page_id, run) for page_id, run in runs
                 if isinstance(page_id, PageId)]
    pages, dirty = {}, {}
    metrics = MetricsRegistry()
    system = SimpleNamespace(
        buffer=SimpleNamespace(
            ensure_page=partial(fresh_page, pages),
            mark_dirty=partial(BufferPool.mark_dirty,
                               SimpleNamespace(dirty=dirty))),
        tables={"t": SimpleNamespace(page_capacity=SLOT_MASK + 1)},
        metrics=metrics)
    for page_id, run in heap_runs:
        for _ in redo_page_run(system, page_id, iter(run)):
            pass
    heap = [want for want in redone if isinstance(want[4], PageId)]
    want_pages, first_lsn, last_lsn = {}, {}, {}
    for want in heap:
        slots = want_pages.setdefault(want[4], {})
        slots[want[7][1] & SLOT_MASK] = want[7][2]
        first_lsn.setdefault(want[4], want[0])
        last_lsn[want[4]] = want[0]
    assert {page_id: {slot: record.values
                      for slot, record in enumerate(page.slots) if record}
            for page_id, page in pages.items()} == \
        {page_id: {slot: values for slot, values in slots.items() if values}
         for page_id, slots in want_pages.items()}
    assert dirty == first_lsn
    assert {page_id: page.page_lsn for page_id, page in pages.items()} == \
        last_lsn
    assert metrics.get("recovery.redos") == len(heap)
    assert metrics.get("buffer.hits") == len(heap) - len(heap_runs)


def fresh_page(pages, page_id, capacity):
    """``ensure_page`` over empty pages, one per ``page_id``."""
    return pages.setdefault(page_id, DataPage(page_id, capacity))
    yield  # pragma: no cover - generator shape


def run_history(log, steps):
    model = Model()
    for step in steps:
        apply_step(log, model, step)
        check(log, model)


@settings(max_examples=150, deadline=None)
@given(steps=steps_st)
def test_the_packed_log_reads_back_what_a_list_of_tuples_holds(steps):
    run_history(LogManager(), steps)


class LeakyInfoLog(LogManager):
    """A crash that truncates every column except the ``info`` dict."""

    def crash(self):
        kept = dict(self._info)
        super().crash()
        self._info.update(kept)


def test_a_crash_that_keeps_lost_info_entries_is_caught():
    steps = [("append", "utility", 1, None, None, 64),  # unflushed info
             ("crash",),
             ("append", "commit", 1, None, None, 64)]  # same LSN, no info
    run_history(LogManager(), steps)
    with pytest.raises(AssertionError):
        run_history(LeakyInfoLog(), steps)
