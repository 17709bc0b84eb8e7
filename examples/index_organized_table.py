"""Secondary index build over an index-organized table (paper §6.2).

Some engines (IMS fast path descendants, clustered-index SQL Server
tables, InnoDB) store rows inside the primary index rather than a heap.
Section 6.2 of the paper extends SF to that model: the scan position is
the *current primary key* instead of Current-RID, and secondary entries
are ``<key value, primary key>``.

This example builds a city index over a live, primary-key-organized
customer table while an order-entry workload inserts, updates, and
deletes customers.

Run:  python examples/index_organized_table.py
"""

import random

from repro import (
    IndexSpec,
    IOTable,
    SFIotBuilder,
    System,
    SystemConfig,
    audit_index,
)
from repro.sim import Delay
from repro.storage.rid import rid_page

CITIES = ["amsterdam", "berlin", "chicago", "delhi", "evanston",
          "fukuoka", "galway"]


def main() -> None:
    system = System(SystemConfig(leaf_capacity=16, sort_workspace=64),
                    seed=99)
    table = IOTable(system, "customers", ["cust_id", "city", "ltv"])
    system.tables["customers"] = table

    def preload():
        txn = system.txns.begin("preload")
        for cust_id in range(1_000):
            yield from table.insert(
                txn, (cust_id, CITIES[cust_id % len(CITIES)],
                      cust_id * 3))
        yield from txn.commit()

    proc = system.spawn(preload(), name="preload")
    system.run()
    assert proc.error is None
    print(f"customers table: {len(table.rows)} rows stored in the "
          f"primary index (height {table.primary.height})")

    builder = SFIotBuilder(system, table,
                           IndexSpec.of("customers_by_city", ["city"]))

    def order_entry():
        rng = random.Random(99)
        changed = 0
        for step in range(200):
            yield Delay(rng.uniform(0.1, 0.5))
            txn = system.txns.begin()
            roll = rng.random()
            live = sorted(table.rows)
            if roll < 0.35 or not live:
                yield from table.insert(
                    txn, (10_000 + step, rng.choice(CITIES), step))
            elif roll < 0.6:
                yield from table.delete(txn, rng.choice(live))
            else:
                pk = rng.choice(live)
                row = table.rows[pk]
                yield from table.update(
                    txn, pk, (pk, rng.choice(CITIES), row.values[2]))
            if rng.random() < 0.1:
                yield from txn.rollback()
            else:
                yield from txn.commit()
                changed += 1
        return changed

    build = system.spawn(builder.run(), name="index-builder")
    orders = system.spawn(order_entry(), name="order-entry")
    system.run()
    assert build.error is None and orders.error is None

    (index,) = builder.descriptors
    report = audit_index(system, index)
    print(f"\nonline build finished at t={system.now():.0f}")
    print(f"  committed changes during build: {orders.result}")
    print(f"  side-file entries drained:      "
          f"{system.metrics.get('build.sidefile_drained')}")
    print(f"  audit OK: {report['entries']} <city, primary-key> entries, "
          f"clustering {report['clustering']:.2f}")
    city, rid = next(iter(index.tree.all_entries()))
    print(f"  sample entry: <{city!r}, pk={rid_page(rid)}>")
    counters = system.metrics.snapshot()
    print(f"  log: {counters['wal.records']} records, "
          f"{counters['wal.bytes']} bytes")
    for name in sorted(counters):
        if name.startswith("iot."):
            print(f"  {name}: {counters[name]}")


if __name__ == "__main__":
    main()
