"""B+-tree index manager with pseudo-delete and online-build support."""

from repro.btree.audit import TreeAuditError, audit_tree
from repro.btree.loader import BulkLoader
from repro.btree.node import BranchPage, LeafPage
from repro.btree.tree import BTree, IBCursor, InsertOutcome

__all__ = [
    "BTree",
    "BulkLoader",
    "BranchPage",
    "IBCursor",
    "InsertOutcome",
    "LeafPage",
    "TreeAuditError",
    "audit_tree",
]
