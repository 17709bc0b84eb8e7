"""The crash sweep itself: every (site, hit) pair recovers and audits.

This is the tentpole acceptance test: crash a small NSF and a small SF
build at an even stride over every hit of every discovered fault site
(plus torn-write / lost-flush variants where the site supports them),
restart, resume, and audit.  One hundred percent of the plans must come
back clean.

A second test puts fixed bugs back, one named tamper at a time
(``tests/tampers.py``), and asserts that a CI row's enumeration on a
committed seed *catches* each and shrinks the failure -- a sweep that
cannot detect a broken checkpoint would prove nothing.
"""

import pytest

from repro.sweep import (
    Scenario,
    discover,
    enumerate_plans,
    run_plan,
    run_sweep,
    shrink_failure,
)
from tests.tampers import CI_ROW, CI_SEEDS, TAMPERS


def _small_config(builder: str, **overrides) -> Scenario:
    kwargs = dict(CI_ROW, max_plans=45)
    kwargs.update(overrides)
    return Scenario(builder=builder, **kwargs)


@pytest.mark.parametrize("builder", ["nsf", "sf"])
def test_full_sweep_all_plans_recover(builder):
    report = run_sweep(_small_config(builder))
    discovered = report.rows[0].discovered
    assert len(discovered) >= 20, sorted(discovered)
    assert report.results, "sweep enumerated no plans"
    assert report.all_passed, report.to_text()
    # every result actually injected its fault (determinism: the armed
    # replay hits the same schedule the discovery run counted)
    assert all(r.fired for r in report.results), report.to_text()


def test_sf_sweep_covers_the_interesting_sites():
    """The SF sweep must reach the paper's critical windows: the
    side-file machinery, its drain, and the Index_Build flag flip."""
    config = _small_config("sf")
    discovered = discover(config)
    for site in ("sidefile.append", "sidefile.force", "btree.drain_apply",
                 "sf.drain_start", "sf.flag_flip.before",
                 "sf.flag_flip.after", "sf.load_done", "btree.force",
                 "build.sort_push", "wal.checkpoint.before_master"):
        assert site in discovered, f"{site} unreachable: {sorted(discovered)}"


def test_nsf_sweep_covers_the_insert_phase():
    discovered = discover(_small_config("nsf"))
    for site in ("nsf.descriptor_done", "nsf.insert_batch",
                 "nsf.ib_commit", "btree.ib_insert", "build.scan_page"):
        assert site in discovered, f"{site} unreachable: {sorted(discovered)}"


#: a synthetic census: a torn-capable, a lost-capable and a plain site
CENSUS = {"wal.append": 3, "btree.force": 2, "buffer.page_flush": 1}


@pytest.mark.parametrize("max_plans,expected", [
    pytest.param(None, [
        "crash@btree.force#1", "torn-write@btree.force#1",
        "crash@btree.force#2", "torn-write@btree.force#2",
        "crash@buffer.page_flush#1", "lost-flush@buffer.page_flush#1",
        "crash@wal.append#1", "crash@wal.append#2", "crash@wal.append#3",
    ], id="every-hit"),
    # the cap keeps an even stride over the whole list, first plan
    # included, so the alphabetically last site is not cut off
    pytest.param(4, [
        "crash@btree.force#1", "crash@btree.force#2",
        "crash@buffer.page_flush#1", "crash@wal.append#1",
    ], id="stride-cap"),
])
def test_plan_enumeration_arms_every_hit(max_plans, expected):
    config = _small_config("sf", max_plans=max_plans)
    plans = enumerate_plans(config, CENSUS)
    assert [plan.describe() for plan in plans] == expected


def test_psf_sweep_all_plans_recover():
    """Capped parallel census: every (site, hit) pair of a P=2 parallel
    build -- including the per-worker kernel-step sites -- recovers and
    audits clean."""
    config = _small_config("psf", partitions=2, max_plans=37)
    report = run_sweep(config)
    assert report.results, "sweep enumerated no plans"
    assert report.all_passed, report.to_text()
    assert all(r.fired for r in report.results), report.to_text()


def test_psf_sweep_covers_the_parallel_sites():
    """The parallel sweep must reach the new machinery: the shard
    workers, their independent checkpoints, the shared manifest, the
    barrier, and the shard merges."""
    discovered = discover(_small_config("psf", partitions=2))
    for site in ("psf.descriptor_done", "psf.worker.scan_page",
                 "psf.worker.checkpoint", "psf.worker_done",
                 "psf.manifest_checkpoint", "psf.barrier", "psf.scan_done",
                 "psf.merge_batch", "psf.merge_run_done",
                 "psf.merge_shard_done", "psf.merge_done",
                 "sf.drain_start", "sf.flag_flip.before"):
        assert site in discovered, f"{site} unreachable: {sorted(discovered)}"
    # the dynamic kernel sites watch each worker process individually
    for process in ("psf-worker-0", "psf-worker-1",
                    "psf-merge-0", "psf-merge-1"):
        assert f"kernel.step.{process}" in discovered, sorted(discovered)


def test_multi_sweep_all_plans_recover():
    """K=3 shared-scan census: every (site, hit) pair of a multi-index
    build -- including the per-index manifest sites -- recovers with all
    three indexes AVAILABLE and auditing clean."""
    config = _small_config("multi", max_plans=29)
    report = run_sweep(config)
    assert report.results, "sweep enumerated no plans"
    assert report.all_passed, report.to_text()
    assert all(r.fired for r in report.results), report.to_text()


def test_multi_sweep_covers_the_manifest_sites():
    """The multi sweep must reach the new machinery: the shared-scan
    transition checkpoint and the per-index load/flip boundaries."""
    discovered = discover(_small_config("multi"))
    for site in ("multibuild.scan_done", "multibuild.index_loaded",
                 "multibuild.index_done", "sf.drain_start",
                 "sf.flag_flip.before", "sf.flag_flip.after"):
        assert site in discovered, f"{site} unreachable: {sorted(discovered)}"


def test_sweep_still_discovers_hot_path_fault_sites():
    """The hoisted fault_point guards are zero-cost when no injector is
    installed; with one installed they must still report every site."""
    config = Scenario(builder="nsf", records=120, operations=40)
    census = discover(config)
    for site in ("build.sort_push", "btree.ib_insert", "btree.split",
                 "nsf.insert_batch", "wal.force.before",
                 "build.checkpoint.before", "kernel.step.builder"):
        assert census.get(site, 0) > 0, f"site {site} vanished from sweep"

    config = Scenario(builder="sf", records=120, operations=40)
    census = discover(config)
    for site in ("sidefile.append", "sidefile.force", "btree.drain_apply",
                 "sf.load_batch", "wal.force.before"):
        assert census.get(site, 0) > 0, f"site {site} vanished from sweep"


@pytest.mark.parametrize("name", TAMPERS)
def test_sweep_catches_a_tamper(monkeypatch, name):
    """Each tamper puts a fixed bug back.  Walking its CI row's plans in
    sweep order must meet a failing one, and the shrinker must cut the
    scenario down to a smaller one that still fails."""
    tamper, row = TAMPERS[name]
    assert row.seed in CI_SEEDS and row.max_plans is None
    tamper(monkeypatch)
    failing = next((plan for plan in enumerate_plans(row, discover(row))
                    if run_plan(row, plan).failed), None)
    assert failing is not None, \
        f"no plan of the {row.label} row on seed {row.seed} catches {name}"
    shrunk = shrink_failure(row, failing)
    assert shrunk.result.failed, shrunk.report()
    assert shrunk.config != row, shrunk.report()
    assert all(getattr(shrunk.config, size) <= getattr(row, size)
               for size in ("records", "operations", "workers"))


@pytest.mark.parametrize("builder,extra", [
    ("sf", {}), ("psf", {"partitions": 2}),
])
def test_throttled_sweep_all_plans_recover(builder, extra):
    """A rate-limited build must survive the same crash census: the
    token bucket is volatile, but the checkpointed rate re-arms the
    throttle across restart, and the extra throttle delays shift every
    fault site without breaking recovery."""
    config = _small_config(builder, max_plans=30, build_rate_limit=25.0,
                           **extra)
    report = run_sweep(config)
    assert report.results, "sweep enumerated no plans"
    assert report.all_passed, report.to_text()
    assert all(r.fired for r in report.results), report.to_text()
