"""Work bound on the index-organized table's key source.

Section 6.2 builds the new index from "a complete range scan of the
primary index".  Each batch of the scan descends the primary index once
to the key after the scan position and reads on along the leaf chain,
so the calls per scanned row stay flat as the table grows; re-sorting
every row for each batch made them grow with the table (127 per row at
4 000 rows).  Exact call counts, in the style of
``test_build_path_budget.py``.
"""

import cProfile
import os

import pytest

import repro
from repro.core import IndexSpec
from repro.core.iot import IOTable, SFIotBuilder
from repro.system import System, SystemConfig

ROWS = 4_000
SRC = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

EXPECTED_CLOCK = 2601.999999999966
EXPECTED_SEQ = 4317


@pytest.fixture(scope="module")
def profiled_build():
    system = System(SystemConfig(leaf_capacity=16, branch_capacity=16,
                                 sort_workspace=256, merge_fanin=8), seed=1)
    table = IOTable(system, "iot", ["pk", "city", "amount"])
    system.tables["iot"] = table

    def preload():
        txn = system.txns.begin()
        for i in range(ROWS):
            yield from table.insert(txn, (i * 7919 % 100_003,
                                          f"city-{i % 11}", i))
        yield from txn.commit()

    system.spawn(preload(), name="preload")
    system.run()
    builder = SFIotBuilder(system, table,
                           IndexSpec.of("idx_city", ["city"]))
    profiler = cProfile.Profile()
    profiler.enable()
    proc = system.spawn(builder.run(), name="ib")
    system.run()
    profiler.disable()
    assert proc.error is None
    # package (first path component under src/repro) -> calls into it
    calls: dict[str, int] = {}
    for entry in profiler.getstats():
        if isinstance(entry.code, str) \
                or not entry.code.co_filename.startswith(SRC):
            continue
        package = entry.code.co_filename[len(SRC):].split(os.sep)[0]
        calls[package] = calls.get(package, 0) + entry.callcount
    return system, calls


def test_a_scanned_row_stays_inside_its_call_budget(profiled_build):
    system, calls = profiled_build
    assert system.metrics.get("index.inserts.bulk") == ROWS
    # 127 per row while each batch re-sorted the whole table; 2.9 now
    assert sum(calls.values()) / ROWS <= 4
    assert calls["core"] / ROWS <= 1
    # one descent per 16-row batch plus the leaf-chain reads
    assert calls["btree"] / ROWS <= 2


def test_the_range_scan_does_the_same_simulated_work(profiled_build):
    """Clock and event sequence recorded while each batch re-sorted."""
    system, _calls = profiled_build
    assert system.now() == EXPECTED_CLOCK
    assert system.sim._seq == EXPECTED_SEQ
    assert system.metrics.get("index.traversals") == 0
    index = system.indexes["idx_city"]
    assert index.is_available
    assert index.tree.key_count() == ROWS
