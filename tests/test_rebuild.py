"""Fast index reconstruction from sealed sorted runs (experiment E25).

Every completed SF-like build seals its final merged run; dropping and
rebuilding the index then reuses those runs: no table scan, zero
data-page reads.  These tests pin the headline property (0 pages
scanned), the equivalence of the rebuilt tree, the logged-history
replay that brings the sealed snapshot up to date, online maintenance
during the rebuild, the error paths, and crash/resume
at every rebuild-era fault site.
"""

import pytest

from repro.bench.harness import bench_config, run_build_experiment
from repro.core import BuildOptions, IndexSpec, IndexState
from repro.errors import StorageError
from repro.sweep import Scenario, discover, run_sweep
from repro.verify import audit_index
from repro.workloads import WorkloadDriver, WorkloadSpec

OPTIONS = dict(checkpoint_every_keys=64, commit_every_keys=32)


def _seed_build(rows=150, operations=0, algorithm="sf"):
    result = run_build_experiment(
        algorithm, rows=rows, operations=operations, seed=11,
        options=BuildOptions(**OPTIONS),
        config=bench_config())
    return result.system


def _entries(system, name="idx"):
    tree = system.indexes[name].tree
    return [(e[0], e[1], e in tree.pseudo_deleted)
            for e in tree.all_entries(include_pseudo_deleted=True)]


def _rebuild(system, name="idx", options=None):
    builder = system.rebuild_index(
        name, options=options or BuildOptions(**OPTIONS))
    proc = system.spawn(builder.run(), name="rebuild")
    system.run()
    if proc.error is not None:
        raise proc.error
    return builder


def test_rebuild_scans_zero_table_pages():
    system = _seed_build()
    before_entries = _entries(system)
    pages_before = system.metrics.get("build.pages_scanned")
    _rebuild(system)
    assert system.metrics.get("build.pages_scanned") == pages_before
    assert system.metrics.get("rebuild.runs_reused") >= 1
    assert system.indexes["idx"].state is IndexState.AVAILABLE
    assert _entries(system) == before_entries
    audit_index(system, system.indexes["idx"])


def test_a_multi_built_index_rebuilds_from_its_seal():
    """The per-index order seals each index at its drain start, so every
    index of a ``multi`` build rebuilds without a table scan."""
    result = run_build_experiment(
        "multi", rows=150, operations=20, seed=11,
        index_specs=[IndexSpec.of("idx", ["k"]), IndexSpec.of("idx_p", ["p"])],
        options=BuildOptions(**OPTIONS), config=bench_config())
    system = result.system
    assert set(system.sealed_runs) == {"idx", "idx_p"}
    for name in ("idx", "idx_p"):
        before_entries = _entries(system, name)
        pages_before = system.metrics.get("build.pages_scanned")
        _rebuild(system, name)
        assert system.metrics.get("build.pages_scanned") == pages_before
        assert _entries(system, name) == before_entries
        audit_index(system, system.indexes[name])


def test_rebuild_replays_maintenance_done_after_the_seal():
    """The sealed run reflects the table as of the original scan; inserts
    and deletes applied afterwards reach the rebuilt tree via the logged
    ``index.apply`` history."""
    system = _seed_build()
    table = system.tables["t"]

    def mutate():
        txn = system.txns.begin()
        rids = []
        for i in range(12):
            rid = yield from table.insert(txn, (10_000 + i, i))
            rids.append(rid)
        yield from table.delete(txn, rids[0])
        yield from txn.commit()

    proc = system.spawn(mutate(), name="mutate")
    system.run()
    assert proc.error is None

    _rebuild(system)
    audit_index(system, system.indexes["idx"])
    keys = {k for k, _rid, dead in _entries(system) if not dead}
    assert {(10_001 + i,) if isinstance(next(iter(keys)), tuple)
            else 10_001 + i for i in range(11)} <= keys


def test_rebuild_is_online_under_concurrent_updates():
    system = _seed_build(rows=200)
    table = system.tables["t"]
    spec = WorkloadSpec(operations=40, workers=2, rollback_fraction=0.1,
                        think_time=1.0)
    driver = WorkloadDriver(system, table, spec, seed=3)
    pages_before = system.metrics.get("build.pages_scanned")
    builder = system.rebuild_index("idx", options=BuildOptions(**OPTIONS))
    proc = system.spawn(builder.run(), name="rebuild")
    driver.spawn_workers()
    system.run()
    if proc.error is not None:
        raise proc.error
    assert system.indexes["idx"].state is IndexState.AVAILABLE
    audit_index(system, system.indexes["idx"])
    # The online rebuild still reads zero table pages.
    assert system.metrics.get("build.pages_scanned") == pages_before


def test_rebuild_twice_in_a_row():
    """A rebuild re-seals nothing, but the original sealed runs stay
    valid: a second rebuild replays the longer logged history."""
    system = _seed_build()
    _rebuild(system)
    _rebuild(system)
    audit_index(system, system.indexes["idx"])


# -- error paths ------------------------------------------------------------


def test_rebuild_unknown_index_fails():
    system = _seed_build()
    with pytest.raises(StorageError, match="no index named"):
        system.rebuild_index("nope")


def test_rebuild_without_sealed_runs_fails():
    system = _seed_build(algorithm="nsf")
    with pytest.raises(StorageError, match="no sealed sorted runs"):
        system.rebuild_index("idx")


def test_rebuild_refuses_while_another_build_is_active():
    system = _seed_build()
    builder = system.rebuild_index("idx", options=BuildOptions(**OPTIONS))
    system.spawn(builder.run(), name="rebuild")
    system.run(until=system.now() + 1.0)  # let it install its build context
    with pytest.raises(StorageError, match="active"):
        system.rebuild_index("idx")
    system.run()


def test_rebuild_detects_torn_sealed_run():
    system = _seed_build()
    manifest = system.sealed_runs["idx"]
    store = system.run_stores["sealed:idx"]
    run = store.get(manifest["runs"][0])
    run.keys.pop()  # torn seal: manifest length no longer matches
    with pytest.raises(StorageError, match="torn or stale seal"):
        system.rebuild_index("idx")


def test_rebuild_detects_key_column_change():
    system = _seed_build()
    system.indexes["idx"].key_columns = ("p",)
    with pytest.raises(StorageError, match="sorted on columns"):
        system.rebuild_index("idx")


# -- crash / resume ---------------------------------------------------------


def test_rebuild_sweep_discovers_its_sites():
    config = Scenario(builder="rebuild", records=100, operations=6)
    discovered = discover(config)
    for site in ("rebuild.reset", "rebuild.reuse_runs", "rebuild.replayed"):
        assert site in discovered, f"{site} unreachable: {sorted(discovered)}"


#: small enough to arm every hit of every rebuild site in tier-1
SMALL_REBUILD = dict(builder="rebuild", records=40, operations=4)


def test_rebuild_crash_at_every_site_recovers():
    report = run_sweep(Scenario(**SMALL_REBUILD))
    assert report.results, "sweep enumerated no plans"
    assert report.all_passed, report.to_text()
