"""The full correctness oracle applied after every explored schedule.

A schedule passes only if *all* of the following hold -- the union of
every check the repo knows how to make:

1. no process died with a Python error and the run did not crash;
2. every process finished (a live process after the event queue drains
   is a hang: a lost wakeup, stuck latch queue, or leaked waiter);
3. the index reached AVAILABLE;
4. the tree passes the structural audit (:mod:`repro.btree.audit`);
5. the index agrees with the table (:mod:`repro.verify.consistency`);
6. *serial-reference equivalence*: the tree's entry sequence is
   entry-for-entry what a quiesced offline build over the final table
   would produce (order-exact, not just set-equal -- catches ordering
   corruption that set-based audits miss);
7. metrics sanity: counters non-negative, zero crashes, and the
   workload's committed/rolledback/aborted counters conserve against
   the driver's operation timeline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.btree.audit import audit_tree
from repro.btree.node import format_entry, make_entry
from repro.verify import audit_index

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Process
    from repro.system import System
    from repro.workloads import WorkloadDriver

#: workload outcome counters that must conserve against the op timeline
_OUTCOMES = ("committed", "rolledback", "aborted")


def check_run(system: "System", driver: "WorkloadDriver",
              builder_proc: "Process", index_name: str = "idx",
              index_names=None) -> str:
    """Apply the full oracle; returns '' when clean, else failure text.

    ``index_names`` (a sequence) checks several indexes built by one
    utility run -- the multi-index shared-scan build (section 6.2) must
    satisfy the per-index oracle for *every* index it produced.  The
    default checks just ``index_name``.
    """
    if builder_proc.error is not None:
        return f"builder error: {builder_proc.error!r}"
    if system.sim.crashed:
        return f"unexpected simulated crash: {system.sim.crash_error!r}"
    if not builder_proc.finished:
        return "builder never finished (hang)"
    if system.sim.live_processes != 0:
        stuck = [proc.name for proc in system.sim.processes()]
        return (f"{system.sim.live_processes} live processes after the "
                f"queue drained (lost wakeup): {stuck}")
    from repro.core.descriptor import IndexState
    for name in tuple(index_names) if index_names else (index_name,):
        descriptor = system.indexes.get(name)
        if descriptor is None:
            return f"index {name!r} missing after build"
        if descriptor.state is not IndexState.AVAILABLE:
            return f"index {name} state {descriptor.state!r} after build"
        try:
            audit_tree(descriptor.tree)
        except Exception as exc:  # noqa: BLE001 - report, don't mask
            return f"{name}: structural audit failed: {exc!r}"
        try:
            audit_index(system, descriptor)
        except Exception as exc:  # noqa: BLE001 - report, don't mask
            return f"{name}: index/table audit failed: {exc!r}"
        failure = _serial_reference_check(descriptor)
        if failure:
            return f"{name}: {failure}" if index_names else failure
    return _metrics_sanity(system, driver)


def _serial_reference_check(descriptor) -> str:
    """Order-exact comparison against the serial reference.

    The reference is what a quiesced offline build over the *final*
    table state produces: every live entry, sorted.  The
    online build under an adversarial schedule must converge to exactly
    that sequence.
    """
    reference = sorted(
        make_entry(descriptor.key_of(record), rid)
        for rid, record in descriptor.table.audit_records())
    actual = list(descriptor.tree.all_entries())
    if actual != reference:
        for position, (got, want) in enumerate(zip(actual, reference)):
            if got != want:
                return (f"serial-reference divergence at entry "
                        f"{position}: tree has {format_entry(got)}, "
                        f"reference has {format_entry(want)}")
        return (f"serial-reference length mismatch: tree has "
                f"{len(actual)} entries, reference has {len(reference)}")
    return ""


def _metrics_sanity(system: "System", driver: "WorkloadDriver") -> str:
    snapshot = system.metrics.snapshot()
    negative = {name: value for name, value in snapshot.items()
                if value < 0}
    if negative:
        return f"negative counters: {negative!r}"
    if snapshot.get("system.crashes", 0) != 0:
        return f"system.crashes = {snapshot['system.crashes']}"
    timeline: dict[str, int] = {outcome: 0 for outcome in _OUTCOMES}
    for record in driver.op_timeline:
        if record.outcome in timeline:
            timeline[record.outcome] += 1
    for outcome in _OUTCOMES:
        counted = snapshot.get(f"workload.{outcome}", 0)
        if counted != timeline[outcome]:
            return (f"workload.{outcome} counter {counted} != "
                    f"{timeline[outcome]} timeline records (lost or "
                    "double-counted operations)")
    return ""
