"""Cross-replica consistency oracle.

The check the whole subsystem answers to: **replica state at apply
position L must equal the primary's physical history folded to L.**
The primary's WAL is replayable -- ``heap.put`` / ``heap.clear`` redo
payloads carry full record images, and rollbacks emit CLRs that are
themselves shippable puts/clears -- so folding UPDATE + COMPENSATION
records over an empty heap *is* the reference state.  A replica that
ever applied a record twice, skipped one, or applied out of order
cannot match the fold.

:func:`check_cluster` verifies, per node:

1. self-consistency -- each node's heap equals the fold of its *own*
   log (the ARIES-lite contract, unchanged from single-node);
2. replication -- each live replica's heap equals the fold of the
   *primary's* log up to that replica's subscription position, and
   equals the primary's live heap when fully caught up;
3. index integrity -- every AVAILABLE index on every node passes the
   B-tree structural audit and matches its heap
   (:func:`repro.verify.consistency.audit_all`);
4. build completion -- every planned divergent build actually reached
   AVAILABLE;
5. conservation -- the traffic driver's op timeline accounts for every
   scheduled arrival (nothing vanished in a crash window).

All violations are collected and raised together in one
:class:`~repro.errors.ConsistencyError` so a sweep failure shows the
full blast radius, not just the first symptom.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.btree.audit import TreeAuditError
from repro.cluster.apply import shippable
from repro.storage.rid import format_rid
from repro.storage.table import H_RID, H_TABLE, H_VALUES
from repro.verify.consistency import ConsistencyError, audit_all

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.system import System
    from repro.wal.manager import LogManager


def heap_state(system: "System") -> dict[str, dict[int, tuple]]:
    """Live record values per table, straight off buffer+disk."""
    out: dict[str, dict[int, tuple]] = {}
    for name, table in system.tables.items():
        out[name] = {rid: record.values
                     for rid, record in table.audit_records()}
    return out


def physical_fold(log: "LogManager", tables, *,
                  upto_lsn: Optional[int] = None
                  ) -> dict[str, dict[int, tuple]]:
    """Fold a log's heap history into reference table states.

    Replays every ``heap.put`` / ``heap.clear`` redo payload (UPDATE
    and COMPENSATION records both -- CLRs are physical history too) in
    LSN order, optionally stopping at ``upto_lsn``.  Only tables in
    ``tables`` are tracked.
    """
    wanted = set(tables)
    state: dict[str, dict[int, tuple]] = {name: {} for name in wanted}
    for record in log.scan(to_lsn=upto_lsn):
        if not shippable(record):
            continue
        table, rid = record.payload[H_TABLE], record.payload[H_RID]
        if table not in wanted:
            continue
        if record.redo_op == "heap.put":
            state[table][rid] = record.payload[H_VALUES]
        else:
            state[table].pop(rid, None)
    return state


def _diff(label: str, expected: dict, actual: dict,
          failures: list[str]) -> None:
    for table in sorted(set(expected) | set(actual)):
        want = expected.get(table, {})
        have = actual.get(table, {})
        missing = sorted(set(want) - set(have))
        extra = sorted(set(have) - set(want))
        wrong = sorted(rid for rid in set(want) & set(have)
                       if want[rid] != have[rid])
        if missing or extra or wrong:
            failures.append(
                f"{label}: table {table!r} diverges "
                f"(missing={_first_rids(missing)} "
                f"extra={_first_rids(extra)} "
                f"wrong={_first_rids(wrong)})")


def _first_rids(rids: list) -> str:
    """The first three of ``rids`` as ``(page,slot)``, then the count."""
    return f"[{', '.join(map(format_rid, rids[:3]))}]x{len(rids)}"


def check_cluster(cluster: "Cluster", driver=None) -> dict:
    """Run every oracle; raise :class:`ConsistencyError` on violation.

    Returns a small summary dict (per-node record counts, positions)
    for benches and sweeps to log.
    """
    failures: list[str] = []
    summary: dict = {"nodes": {}}
    if cluster.sim.crashed:
        failures.append("shared simulator stopped on an escaped "
                        "SystemCrash -- a fault leaked out of the "
                        "cluster's containment")
    primary = cluster.primary
    live = [node for node in cluster.nodes.values()
            if node.role in ("primary", "replica")]
    for node in live:
        if node.down or node.recovering:
            failures.append(f"{node.name}: still down/recovering at "
                            "check time (cluster did not settle)")
    table_names = list(primary.system.tables)
    primary_heap = heap_state(primary.system)

    for node in live:
        system = node.system
        actual = heap_state(system)
        summary["nodes"][node.name] = {
            "role": node.role,
            "records": sum(len(rows) for rows in actual.values()),
            "last_lsn": system.log.last_lsn,
        }
        # 1. Self-consistency: own heap == fold of own log.
        system.log.flush()
        own = physical_fold(system.log, table_names)
        _diff(f"{node.name}: heap vs own log fold", own, actual, failures)
        # 3. Index integrity.
        try:
            audit_all(system)
        except (ConsistencyError, TreeAuditError) as error:
            failures.append(f"{node.name}: index audit failed: {error}")
        # 4. Build completion.
        for _mode, _table, specs, _options in node.planned_builds:
            for spec in specs:
                descriptor = system.indexes.get(spec.name)
                state = getattr(descriptor, "state", None)
                state_name = getattr(state, "name", str(state))
                if descriptor is None or state_name != "AVAILABLE":
                    failures.append(
                        f"{node.name}: planned index {spec.name!r} is "
                        f"{state_name}, not AVAILABLE")

    # 2. Replication: replica heap == primary history at its position.
    primary.system.log.flush()
    for node in cluster.replicas():
        if node.down or node.recovering:
            continue
        sub = node.subscription
        if sub is None or sub.upstream is not primary:
            failures.append(f"{node.name}: not subscribed to the "
                            "current primary at check time")
            continue
        summary["nodes"][node.name]["position"] = sub.position
        expected = physical_fold(primary.system.log, table_names,
                                 upto_lsn=sub.position)
        actual = heap_state(node.system)
        _diff(f"{node.name}: heap vs primary history@{sub.position}",
              expected, actual, failures)
        if sub.position >= primary.system.log.last_lsn:
            _diff(f"{node.name}: caught-up heap vs primary live heap",
                  primary_heap, actual, failures)

    # 5. Conservation: every arrival is accounted for.
    if driver is not None:
        scheduled = len(driver.arrivals)
        recorded = len(driver.op_timeline)
        summary["operations"] = {"scheduled": scheduled,
                                 "recorded": recorded}
        if recorded != scheduled:
            failures.append(
                f"driver: {recorded} ops recorded != {scheduled} "
                "scheduled (operations lost in a crash window)")

    if failures:
        raise ConsistencyError(
            "cluster oracle failed:\n  " + "\n  ".join(failures))
    summary["ok"] = True
    return summary
