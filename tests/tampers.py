"""Named tampers: correctness bugs this repository fixed, put back.

Each entry is a function of a pytest ``MonkeyPatch`` that reinstates one
fixed bug, plus the CI crash-sweep row, on one of CI's committed seeds,
whose every-hit enumeration catches it.  A tamper no CI row catches is a
gap in the sweep: close it with a seed, a size or an axis, not here.
"""

from repro.btree.tree import BTree
from repro.core.maintenance import IndexMaintenance
from repro.faultinject.sites import fault_point
from repro.sidefile import SideFile
from repro.sweep import Scenario

#: the ``--records`` / ``--operations`` of every CI crash-sweep row
CI_ROW = dict(records=150, operations=10)
#: the one CI crash-sweep row at the scenario's default size
CI_LARGE_ROW = dict(records=500, operations=150)
#: the seeds CI sweeps each crash row on
CI_SEEDS = (6, 7, 8)


def no_op_tree_force(monkeypatch):
    """Checkpoints stop making index pages durable, against section
    3.2.4 ("after all the dirty pages of the index have been written to
    disk")."""
    monkeypatch.setattr(BTree, "force", lambda self: None)


def invisible_sidefile_compensation(monkeypatch):
    """A loser's rollback compensates a side-file-routed index only while
    the index is visible to the record.  A restart that puts Current-RID
    back behind the record hides it, so the loser's side-file entries are
    never reversed and the drain applies them (section 3.2.3)."""
    compensate = IndexMaintenance._compensate

    def visible_only(self, txn, descriptor, context, rid, old, new):
        if descriptor not in self._visible_descriptors(rid)[0]:
            return iter(())
        return compensate(self, txn, descriptor, context, rid, old, new)

    monkeypatch.setattr(IndexMaintenance, "_compensate", visible_only)


def sidefile_force_to_last_append(monkeypatch):
    """A drain checkpoint flushes the log only up to the side-file's last
    append.  A write logs that append just before its heap record, so a
    crash can keep the append and lose the record: the loser has nothing
    to undo, no compensation is written, and the drain deletes a live
    row's key."""
    def force(self):
        fault_point(self.system.metrics, "sidefile.force")
        length = len(self.entries)
        if length:
            self.system.log.flush(self.entries[-1].lsn)
        self.durable_length = length

    monkeypatch.setattr(SideFile, "force", force)


#: name -> (tamper, the CI row and seed that catches it)
TAMPERS = {
    "no-op-tree-force": (no_op_tree_force,
                         Scenario(builder="sf", seed=7, **CI_ROW)),
    "invisible-sidefile-compensation": (
        invisible_sidefile_compensation,
        Scenario(builder="sf", seed=8, **CI_ROW)),
    "sidefile-force-to-last-append": (
        sidefile_force_to_last_append,
        Scenario(builder="sf", seed=7, **CI_LARGE_ROW)),
}
