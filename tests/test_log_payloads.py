"""One flat payload per log record, sized by its writer.

Every hot-path log record carries one positional payload that its redo
and undo halves share, and the writer states the logged size in closed
form.  The oracle here is what the commit before did: each writer's dict
literals, one per half, walked by ``_payload_size``.  For every record a
scenario writes the closed form must equal that walk (``wal.bytes`` and
the paper's log-volume comparisons did not move), and what the flat
payloads say must still redo and undo: crash, restart, loser rollback.
"""

import pytest

from repro.btree.tree import (
    IBCursor,
    IX_ACTION,
    IX_INDEX,
    IX_KEY,
    IX_OLD_RID,
    IX_RID,
    IX_UNDO_ACTION,
)
from repro.core import (
    IndexSpec,
    IndexState,
    NSFIndexBuilder,
    SFIndexBuilder,
    build_pre_undo,
    cleanup_pseudo_deleted,
    install_maintenance,
)
from repro.core.descriptor import IndexDescriptor
from repro.core.iot import IOTable, SFIotBuilder
from repro.core.maintenance import BuildContext, NSF_MODE
from repro.recovery import restart
from repro.sidefile.sidefile import SF_INDEX, SF_KEY, SF_OPERATION, SF_RID
from repro.sim import Delay
from repro.storage.rid import rid_page, rid_slot
from repro.storage.table import (
    H_OLD_VALUES,
    H_RID,
    H_SF_ROUTED,
    H_TABLE,
    H_VALUES,
    H_VISIBLE,
)
from repro.system import System, SystemConfig
from repro.verify import audit_index
from repro.wal import RecordKind

# -- the oracle: the parent commit's literals and its walk ------------------


def parent_payload_size(args: dict) -> int:
    total = 0
    for value in args.values():
        kind = type(value)
        if kind is int:
            total += 8
        elif kind is str:
            total += len(value)
        elif kind is tuple or kind is list \
                or isinstance(value, (list, tuple)):
            total += 8 * (len(value) or 1)
        elif isinstance(value, str):
            total += len(value)
        else:
            total += 8
    return total


def pair(rid) -> tuple:
    """A RID as the parent's writers logged it: a (page, slot) pair."""
    return rid_page(rid), rid_slot(rid)


def _heap_half(system, op, p):
    head = {"table": p[H_TABLE], "rid": pair(p[H_RID])}
    capacity = system.tables[p[H_TABLE]].page_capacity
    return {
        "heap.put": lambda: {**head, "values": p[H_VALUES],
                             "capacity": capacity},
        "heap.clear": lambda: {**head, "capacity": capacity},
        "heap.insert": lambda: {**head, "values": p[H_VALUES]},
        "heap.delete": lambda: {**head, "values": p[H_OLD_VALUES]},
        "heap.update": lambda: {**head, "old_values": p[H_OLD_VALUES],
                                "new_values": p[H_VALUES]},
    }[op]()


def _index_half(op, p):
    if op == "index.split":
        index, left, right = p
        return {"index": index, "left": left, "right": right}
    action = p[IX_ACTION if op == "index.apply" else IX_UNDO_ACTION]
    if p[IX_RID] is None:
        return {"index": p[IX_INDEX], "action": action, "keys": p[IX_KEY]}
    args = {"index": p[IX_INDEX], "action": action,
            "key_value": p[IX_KEY], "rid": pair(p[IX_RID])}
    if p[IX_OLD_RID] is not None:
        args.update({"old_rid": pair(p[IX_OLD_RID]), "old_pseudo": True})
    return args


def _iot_half(op, p):
    """An ``iot.*`` record's fields sit at the heap's ``H_*`` positions,
    the primary key in the RID's; the visible count and the side-file
    routed indexes (``H_VISIBLE``, ``H_SF_ROUTED``) are not sized, as
    in a heap record."""
    head = {"table": p[H_TABLE], "pk": p[H_RID]}
    return {
        "iot.put": lambda: {**head, "values": p[H_VALUES]},
        "iot.del": lambda: head,
        "iot.insert": lambda: {**head, "values": p[H_VALUES]},
        "iot.delete": lambda: {**head, "values": p[H_OLD_VALUES]},
        "iot.update": lambda: {**head, "old_values": p[H_OLD_VALUES],
                               "new_values": p[H_VALUES]},
    }[op]()


def parent_half(system, op, payload) -> dict:
    """The dict the parent's writer logged for this half."""
    if op.startswith("heap."):
        return _heap_half(system, op, payload)
    if op.startswith("index."):
        return _index_half(op, payload)
    if op.startswith("iot."):
        return _iot_half(op, payload)
    assert op == "sidefile.append"
    return {"index": payload[SF_INDEX], "operation": payload[SF_OPERATION],
            "key_value": payload[SF_KEY], "rid": pair(payload[SF_RID])}


def parent_size(system, record) -> int:
    size = 32
    for op in (record.redo_op, record.undo_op):
        if op is not None:
            size += 8 + parent_payload_size(
                parent_half(system, op, record.payload))
    return size


def check_sizes(system) -> dict:
    """Every record's stated size against the oracle; returns how many
    records of each shape -- kind, redo op, undo op and, for a key
    operation, its redo action -- were seen."""
    seen: dict = {}
    total = 0
    for record in system.log.scan():
        want = parent_size(system, record)
        assert record.size == want, \
            (record, record.redo_op, record.undo_op, record.payload,
             record.size, want)
        total += want
        shape = (record.kind.value, record.redo_op, record.undo_op)
        if "index.apply" == record.redo_op or "index.undo" == record.undo_op:
            shape += (record.payload[IX_ACTION],)
        seen[shape] = seen.get(shape, 0) + 1
    assert system.metrics.get("wal.bytes") == total
    return seen


def check_sizes_of_log(system):
    """:func:`check_sizes` for a recovered system, whose counters started
    at zero: sizes only."""
    for record in system.log.scan():
        assert record.size == parent_size(system, record), record


def ops_seen(seen: dict) -> set:
    return {shape[:3] for shape in seen}


# -- scenarios ----------------------------------------------------------------


def drive(system, body, name="driver"):
    proc = system.spawn(body, name=name)
    system.run()
    if proc.error is not None:
        raise proc.error
    return proc.result


def small_config():
    return SystemConfig(page_capacity=8, leaf_capacity=8, branch_capacity=8,
                        sort_workspace=16, merge_fanin=4)


def row(width: int, key: int) -> tuple:
    return (key, key % 7, f"p{key:05d}")[:width]


def contents(system, name: str) -> dict:
    return {rid: record.values
            for rid, record in system.tables[name].audit_records()}


def heap_round(table, width, txn, base):
    """Insert three rows, update one, delete one."""
    rids = []
    for i in range(3):
        rids.append((yield from table.insert(txn, row(width, base + i))))
    yield from table.update(txn, rids[0], row(width, base + 50))
    yield from table.delete(txn, rids[1])
    return rids


@pytest.mark.parametrize("width", [0, 1, 3])
def test_heap_records_and_their_clrs(width):
    system = System(small_config())
    table = system.create_table("heap", ["k", "a", "p"][:width])

    def body():
        keep = system.txns.begin("keep")
        yield from heap_round(table, width, keep, 0)
        yield from keep.commit()
        undone = system.txns.begin("undone")
        yield from heap_round(table, width, undone, 100)
        yield from undone.rollback()
        loser = system.txns.begin("loser")
        yield from heap_round(table, width, loser, 200)
        system.log.flush()

    drive(system, body())
    seen = ops_seen(check_sizes(system))
    assert {("update", "heap.put", "heap.insert"),
            ("update", "heap.put", "heap.update"),
            ("update", "heap.clear", "heap.delete"),
            ("clr", "heap.put", None), ("clr", "heap.clear", None)} <= seen

    system.crash()
    recovered, _state = restart(system)
    assert recovered.metrics.get("recovery.losers_rolled_back") == 1
    assert recovered.metrics.get("recovery.redos") > 0
    # what "keep" committed: row 0 updated, row 1 deleted, row 2 as inserted
    assert sorted(contents(recovered, "heap").values()) \
        == sorted([row(width, 50), row(width, 2)])
    check_sizes_of_log(recovered)


def build_under_traffic(builder_cls, width, *, unique=False):
    """A build over ``width``-column rows while one process inserts,
    updates (key changes), deletes, commits and rolls back; one
    transaction opened before an SF build rolls back during it and one
    after it (Figure 2, both branches).  NSF quiesces updaters to create
    its descriptor, so there the two start right behind it."""
    system = System(small_config(), seed=3)
    table = system.create_table("t", ["k", "a", "p"][:width])
    live: list = []

    def preload():
        txn = system.txns.begin("preload")
        for i in range(240):
            live.append((yield from table.insert(txn, row(width, i * 10))))
        yield from txn.commit()

    drive(system, preload())
    builder = builder_cls(system, table,
                          IndexSpec.of("idx", ["k"], unique=unique))

    def scenario():
        build = None
        if builder_cls is NSFIndexBuilder:
            build = system.spawn(builder.run(), name="builder")
            while "idx" not in system.indexes:
                yield Delay(1.0)
        early = system.txns.begin("rolls-back-mid-build")
        yield from table.update(early, live.pop(2), row(width, 21))
        late = system.txns.begin("rolls-back-after-build")
        yield from table.update(late, live.pop(-2), row(width, 2381))
        yield from table.delete(late, live.pop(5))
        build = build or system.spawn(builder.run(), name="builder")
        step = 0
        while not build.finished:
            step += 1
            txn = system.txns.begin(f"traffic-{step}")
            new = yield from table.insert(txn, row(width, 5000 + step))
            victim = live[(step * 37) % len(live)]
            yield from table.update(txn, victim, row(width, 7000 + step))
            doomed = live.pop((step * 11) % len(live))
            yield from table.delete(txn, doomed)
            if step % 3 == 0:
                yield from txn.rollback()
                live.append(doomed)
            else:
                yield from txn.commit()
                live.append(new)
            if step == 6:
                yield from early.rollback()
            yield Delay(2.0)
        if build.error is not None:
            raise build.error
        yield from late.rollback()

    drive(system, scenario())
    assert system.indexes["idx"].state is IndexState.AVAILABLE
    audit_index(system, system.indexes["idx"])
    return system, table, live


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("builder_cls", [SFIndexBuilder, NSFIndexBuilder])
def test_a_build_under_traffic_logs_the_parents_bytes(builder_cls, width):
    system, table, live = build_under_traffic(builder_cls, width)
    seen = check_sizes(system)
    ops = ops_seen(seen)
    assert ("update", "index.split", None) in ops
    if builder_cls is SFIndexBuilder:
        assert system.metrics.get("maintenance.figure2_compensations") >= 3
        assert ("update", "sidefile.append", None) in ops
        assert system.metrics.get("sidefile.appends.during_undo") > 0
        # the transaction that outlived the build undoes by traversal
        assert ("clr", "index.apply", None) in ops
        assert system.metrics.get("maintenance.logical_tree_undos") > 0
    else:
        assert ("update", "index.apply", "index.undo", "insert_many") in seen
        assert ("update", "index.apply", "index.undo", "insert") in seen
        assert ("clr", "index.apply", None) in ops

    # a loser over the finished index, then crash -> restart -> rollback
    before = contents(system, "t")

    def loser():
        txn = system.txns.begin("loser")
        yield from table.insert(txn, row(width, 9001))
        yield from table.update(txn, live[0], row(width, 9002))
        yield from table.delete(txn, live[1])
        system.log.flush()

    drive(system, loser())
    check_sizes(system)
    system.crash()
    recovered, state = restart(system, pre_undo=build_pre_undo)
    assert recovered.metrics.get("recovery.losers_rolled_back") == 1
    assert contents(recovered, "t") == before
    audit_index(recovered, recovered.indexes["idx"])
    check_sizes_of_log(recovered)


def test_replace_rid_and_gc_records():
    """The key operation with an old RID (section 2.2.3's <K,R> / <K,R1>
    variant), its undo, the undo-only duplicate record and GC's redo-only
    physical delete."""
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8))
    table = system.create_table("t", ["k", "p"])
    descriptor = IndexDescriptor(system, table, "idx", ["k"], unique=True)
    descriptor.build_mode = NSF_MODE
    descriptor.attach()
    install_maintenance(system, table)
    system.builds[table.name] = BuildContext(mode=NSF_MODE,
                                             descriptors=[descriptor])
    tree = descriptor.tree

    def scenario():
        t1 = system.txns.begin("T1")
        rid = yield from table.insert(t1, (42, "t1"))
        ib = system.txns.begin("IB")  # IB meets T1's key: undo-only no-op
        yield from tree.ib_insert_batch(ib, [(42, rid)], IBCursor())
        yield from ib.commit()
        dup = system.txns.begin("dup")  # same <key, RID> again: undo-only
        yield from tree.txn_insert_key(dup, (42,), rid, during_build=True)
        yield from dup.commit()
        yield from t1.rollback()  # leaves pseudo-deleted <K,R>
        filler = system.txns.begin("filler")
        yield from table.insert_at(filler, rid, (5, "filler"))
        yield from filler.commit()
        t2 = system.txns.begin("T2")
        rid1 = yield from table.insert(t2, (42, "t2"))  # replace_rid
        assert rid1 != rid
        yield from t2.rollback()                        # restore_entry
        yield from cleanup_pseudo_deleted(system, descriptor)

    drive(system, scenario())
    seen = check_sizes(system)
    assert ("update", "index.apply", "index.undo", "replace_rid") in seen
    assert ("update", None, "index.undo", None) in seen
    replaced = next(r for r in system.log.scan()
                    if r.redo_op == "index.apply"
                    and r.payload[IX_ACTION] == "replace_rid")
    assert replaced.payload[IX_OLD_RID] is not None
    assert any(r.kind is RecordKind.COMPENSATION
               and r.payload[IX_ACTION] == "restore_entry"
               for r in system.log.scan() if r.redo_op == "index.apply")
    assert system.metrics.get("wal.records.gc") == 1


@pytest.mark.parametrize("make_pk", [int], ids=["int"])
def test_iot_records(make_pk):
    system = System()
    table = IOTable(system, "iot", ["pk", "city", "amount"])
    system.tables["iot"] = table
    one, two, three, four = (make_pk(i) for i in range(1, 5))

    def body():
        keep = system.txns.begin()
        for pk in (one, two, three):
            yield from table.insert(keep, (pk, "sf", 10))
        yield from table.update(keep, one, (one, "la", 11))
        yield from table.delete(keep, two)
        yield from keep.commit()
        undone = system.txns.begin()
        yield from table.insert(undone, (four, "ny", 40))
        yield from table.update(undone, one, (one, "ny", 12))
        yield from table.delete(undone, three)
        yield from undone.rollback()

    drive(system, body())
    assert [(pk, record.values) for pk, record in table.range_scan()] \
        == [(one, (one, "la", 11)), (three, (three, "sf", 10))]
    ops = ops_seen(check_sizes(system))
    assert {("update", "iot.put", "iot.insert"),
            ("update", "iot.put", "iot.update"),
            ("update", "iot.del", "iot.delete"),
            ("clr", "iot.put", None), ("clr", "iot.del", None)} <= ops


def test_iot_records_carry_the_visible_count_and_the_routed_indexes():
    """Figure 2 reads an ``iot.*`` record like a heap record: the count
    of indexes visible to the change and the ones it side-filed."""
    system = System(small_config())
    table = IOTable(system, "iot", ["pk", "city", "amount"])
    system.tables["iot"] = table
    builder = SFIotBuilder(system, table, IndexSpec.of("idx", ["city"]))

    def body():
        txn = system.txns.begin()
        for pk in range(40):
            yield from table.insert(txn, (pk, f"c{pk % 3}", pk))
        yield from txn.commit()
        build = system.spawn(builder.run(), name="builder")
        yield Delay(0.5)  # the first scan batch is behind the position
        for pk in (0, 39):
            txn = system.txns.begin()
            yield from table.update(txn, pk, (pk, "moved", pk))
            yield from txn.commit()
        while build.result is None:
            yield Delay(1.0)
        undone = system.txns.begin()
        yield from table.update(undone, 1, (1, "moved", 1))
        yield from undone.rollback()

    drive(system, body())
    audit_index(system, system.indexes["idx"])
    check_sizes(system)
    logged = [(r.kind.value, r.payload[H_RID], r.payload[H_VISIBLE],
               r.payload[H_SF_ROUTED])
              for r in system.log.scan() if r.redo_op in ("iot.put",
                                                          "iot.del")]
    assert logged[:40] == [("update", pk, 0, ()) for pk in range(40)]
    assert logged[40:] == [("update", 0, 1, ("idx",)),
                           ("update", 39, 0, ()),
                           ("update", 1, 1, ()), ("clr", 1, 0, ())]


# -- the probe can fail ---------------------------------------------------------


def test_a_closed_form_off_by_eight_is_caught(monkeypatch):
    monkeypatch.setattr("repro.storage.table.HEADER_SIZE", 40)
    system = System(small_config())
    table = system.create_table("heap", ["k"])

    def body():
        txn = system.txns.begin()
        yield from table.insert(txn, (1,))
        yield from txn.commit()

    drive(system, body())
    with pytest.raises(AssertionError):
        check_sizes(system)
