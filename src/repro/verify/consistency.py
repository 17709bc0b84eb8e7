"""Index <-> table consistency audits.

Section 2.1.1's whole point is that a missed or spurious key "would
introduce an inconsistency between the table and the index data".  Every
test and experiment finishes by auditing exactly that:

* each live record contributes exactly one ``<key value, RID>`` per index;
* the index contains no live entry without a matching record;
* a unique index maps each key value to at most one live entry;
* the tree itself passes the structural audit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.btree.audit import audit_tree
from repro.btree.node import BranchPage, entry_key, format_entry, make_entry
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.descriptor import IndexDescriptor
    from repro.system import System


class ConsistencyError(ReproError):
    """An index disagrees with its table."""


def audit_index(system: "System", descriptor: "IndexDescriptor") -> dict:
    """Verify one index against its table; returns summary statistics.

    Count and probe, no table-sized set: the tree walk counts the live
    entries, and every live record looks its own ``<key value, RID>``
    up.  The structural audit proves the entries strictly ascending and
    RIDs are distinct, so a hit pairs one record with one entry, and the
    index matches its table exactly when hits == rows == entries.
    """
    tree = descriptor.tree
    tree_stats = audit_tree(tree)
    key_of = descriptor.key_of
    # Strictly ascending: a repeated entry, or key value, is the one before.
    entries = 0
    previous = None
    duplicate_key_value = False
    for entry in tree.all_entries():
        if previous is not None:
            if entry == previous:
                raise ConsistencyError(
                    f"{descriptor.name}: duplicate live entry "
                    f"{format_entry(entry)}")
            if descriptor.unique:
                duplicate_key_value |= \
                    entry_key(entry) == entry_key(previous)
        previous = entry
        entries += 1
    rows = hits = 0
    for rid, record in descriptor.table.audit_records():
        rows += 1
        hits += _holds(tree, make_entry(key_of(record), rid))
    if not hits == rows == entries:
        table = {make_entry(key_of(record), rid)
                 for rid, record in descriptor.table.audit_records()}
        index = set(tree.all_entries())
        missing, spurious = table - index, index - table
        raise ConsistencyError(
            f"{descriptor.name}: index/table mismatch -- "
            f"{len(missing)} missing (e.g. {_sample(missing)}), "
            f"{len(spurious)} spurious (e.g. {_sample(spurious)})")
    if descriptor.unique and duplicate_key_value:
        raise ConsistencyError(
            f"{descriptor.name}: unique index holds duplicate key values")
    return {
        "entries": entries,
        "pseudo_deleted": len(tree.pseudo_deleted),
        "leaves": tree_stats.get("leaves", 0),
        "height": tree_stats.get("height", 0),
        "clustering": descriptor.tree.clustering_factor(),
    }


def audit_all(system: "System") -> dict:
    """Audit every AVAILABLE index in the system."""
    from repro.core.descriptor import IndexState

    reports = {}
    for name, descriptor in system.indexes.items():
        if descriptor.state is IndexState.AVAILABLE:
            reports[name] = audit_index(system, descriptor)
    return reports


def _holds(tree, composite) -> bool:
    """Whether ``tree`` holds ``composite`` live, by a descent that
    counts, latches and charges nothing."""
    if tree.root is None:
        return False
    node = tree.pages[tree.root]
    while isinstance(node, BranchPage):
        node = tree.pages[node.child_for(composite)[0]]
    return node.find_exact(composite) is not None \
        and composite not in tree.pseudo_deleted


def _sample(items, limit: int = 3) -> str:
    return f"[{', '.join(map(format_entry, sorted(items)[:limit]))}]"
