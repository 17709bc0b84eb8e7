"""Property-based crash-recovery tests.

The fundamental ARIES contract, checked over randomized histories:
after a crash, exactly the committed-and-forced transactions' effects
survive restart, and restart is idempotent.  A tiny pool and explicit
page flushes write pages back mid-history, so restart meets pages whose
Page-LSN falls inside their run of log records.
"""

from hypothesis import given, settings, strategies as st

from repro.recovery import restart
from repro.storage import RID
from repro.system import System, SystemConfig

op_st = st.sampled_from(["insert", "delete", "update"])

txn_st = st.tuples(
    st.lists(op_st, min_size=1, max_size=4),
    st.sampled_from(["commit", "rollback", "hang"]),
)


@settings(max_examples=40, deadline=None)
@given(txns=st.lists(txn_st, min_size=1, max_size=8),
       flush_tail=st.booleans(),
       frames=st.one_of(st.just(1024), st.integers(min_value=2,
                                                   max_value=8)),
       flushes=st.dictionaries(st.integers(min_value=1, max_value=16),
                               st.integers(min_value=0, max_value=9),
                               max_size=6))
def test_committed_state_survives_crash(txns, flush_tail, frames, flushes):
    system = System(SystemConfig(page_capacity=4, buffer_frames=frames))
    table = system.create_table("t", ["k", "tag"])
    expected: dict[RID, tuple] = {}

    def body():
        counter = 0
        for txn_index, (ops, outcome) in enumerate(txns):
            txn = system.txns.begin(f"T{txn_index}")
            local: dict[RID, object] = {}
            for op in ops:
                nonlocal_counter = counter
                counter += 1
                if counter in flushes and table.page_count:
                    # write one page back between operations
                    yield from system.buffer.flush_page(table.page_id(
                        flushes[counter] % table.page_count))
                if op == "insert" or not expected:
                    rid = yield from table.insert(
                        txn, (nonlocal_counter, f"t{txn_index}"))
                    local[rid] = ("insert",)
                elif op == "delete":
                    victim = sorted(expected)[nonlocal_counter
                                              % len(expected)]
                    if victim in local:
                        continue
                    yield from table.delete(txn, victim)
                    local[victim] = ("delete",)
                else:
                    victim = sorted(expected)[nonlocal_counter
                                              % len(expected)]
                    if victim in local:
                        continue
                    new_values = (nonlocal_counter, f"u{txn_index}")
                    yield from table.update(txn, victim, new_values)
                    local[victim] = ("update", new_values)
            if outcome == "commit":
                yield from txn.commit()
                for rid, change in local.items():
                    if change[0] == "insert":
                        expected[rid] = (
                            next(rec.values for r, rec
                                 in table.audit_records() if r == rid))
                    elif change[0] == "delete":
                        expected.pop(rid, None)
                    else:
                        expected[rid] = change[1]
            elif outcome == "rollback":
                yield from txn.rollback()
            else:  # hang: leave uncommitted at crash time
                pass

    proc = system.spawn(body(), name="history")
    system.run()
    assert proc.error is None
    if flush_tail:
        system.log.flush()
    system.crash()
    recovered, _state = restart(system)
    survivors = {rid: rec.values
                 for rid, rec in recovered.tables["t"].audit_records()}
    assert survivors == expected
    # idempotence: crash immediately and restart again
    recovered.crash()
    twice, _state = restart(recovered)
    survivors2 = {rid: rec.values
                  for rid, rec in twice.tables["t"].audit_records()}
    assert survivors2 == expected
