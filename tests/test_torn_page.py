"""Torn index-page writes under SF's unlogged bulk load (section 6).

SF deliberately skips logging the bottom-up load, so a damaged stable
tree image cannot be repaired by WAL redo.  The paper's answer is
re-extraction: restart detects the damage, skips redo/undo against the
shell, and the resumed build rebuilds the tree from the forced, closed
sort runs -- replaying the logged maintenance on top when the drain (or
the post-flip direct maintenance) had already touched the index.
"""

from repro.core import build_pre_undo, resume_build
from repro.core.descriptor import IndexState
from repro.faultinject.injector import FaultInjector, FaultPlan, TORN_WRITE
from repro.recovery import restart
from repro.sweep import INDEX_NAME, Scenario, start_build
from repro.verify import audit_index

CONFIG = Scenario(builder="sf", records=150, operations=10,
                  buffer_frames=1024)


def _run_torn(hit: int):
    """Inject torn-write at the ``hit``-th tree force; recover; return
    ``(recovered_system, descriptor)``."""
    injector = FaultInjector(FaultPlan("btree.force", hit, TORN_WRITE))
    system, _driver, _proc = start_build(CONFIG, injector)
    system.run()
    assert injector.fired is not None, "torn write never fired"
    assert injector.fired.kind == TORN_WRITE
    assert system.sim.crashed

    recovered, state = restart(system, pre_undo=build_pre_undo)
    resumed = resume_build(recovered, state)
    assert resumed is not None, f"nothing to resume from {state!r}"
    proc = recovered.spawn(resumed.run(), name="resumed")
    recovered.run()
    if proc.error is not None:
        raise proc.error
    return recovered, recovered.indexes[INDEX_NAME]


def test_torn_write_mid_load_falls_back_to_reextraction():
    # Hit 6 of btree.force lands inside the bulk-load checkpoint trio for
    # this seeded configuration (the sweep's discovery census is
    # deterministic, so the hit number is stable).
    recovered, descriptor = _run_torn(hit=6)
    # restart classified the damaged tree as SF-unloggable ...
    assert recovered.metrics.get("recovery.torn_trees.sf") == 1
    # ... and the resumed build rebuilt it from the closed runs
    assert recovered.metrics.get("build.resumes.torn_fallback") == 1
    assert descriptor.state is IndexState.AVAILABLE
    assert not descriptor.tree.media_damaged
    audit_index(recovered, descriptor)


def test_torn_write_after_drain_replays_logged_maintenance():
    # The last force of this schedule happens after the side-file drain
    # finished and the Index_Build flag flipped: by then the index holds
    # drained and directly-maintained keys that exist only as log
    # records, so re-extraction alone is not enough.
    recovered, descriptor = _run_torn(hit=11)
    assert recovered.metrics.get("build.resumes.torn_fallback") == 1
    # the logged maintenance history was replayed on top of the runs
    assert recovered.metrics.get("build.torn_replayed_ops") > 0
    assert descriptor.state is IndexState.AVAILABLE
    audit_index(recovered, descriptor)


def test_torn_write_during_scan_loses_only_an_empty_shell():
    # Forces 2-4 belong to scan-phase checkpoints: the tree is still
    # empty, so recovery just normalizes the damaged shell and the build
    # resumes its scan.
    recovered, descriptor = _run_torn(hit=3)
    assert recovered.metrics.get("recovery.torn_trees.sf") == 1
    assert recovered.metrics.get("build.resumes.scan") == 1
    assert descriptor.state is IndexState.AVAILABLE
    audit_index(recovered, descriptor)
