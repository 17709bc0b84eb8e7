"""Structural audit of a B+-tree.

Section 2.2.3 promises that "the index tree would be in a structurally
consistent state after restart or process recovery".  The audit makes that
promise checkable: it verifies ordering, separator correctness, balance,
leaf-chain integrity, and capacity bounds, raising
:class:`TreeAuditError` with a precise description on the first violation.

Tests and experiments call :func:`audit_tree` after every build, crash,
restart, and adversarial schedule.
"""

from __future__ import annotations

from typing import Optional

from repro.btree.node import BranchPage, CompositeKey, LeafPage, entry_key
from repro.btree.tree import BTree
from repro.errors import ReproError


class TreeAuditError(ReproError):
    """The B+-tree violates a structural invariant."""


def audit_tree(tree: BTree) -> dict:
    """Verify every structural invariant; returns summary statistics.

    Checks:

    * every leaf's entries are strictly sorted by composite key;
    * all entries under a branch child respect the surrounding separators;
    * all leaves are at the same depth (balance);
    * the leaf chain visits exactly the tree's leaves, in key order;
    * no page exceeds its capacity;
    * every pseudo-delete bit belongs to an entry of the tree;
    * a unique tree has at most one entry per key value.
    """
    if tree.root is None:
        return {"leaves": 0, "entries": 0, "height": 0, "fences": {}}

    #: "fences": leaf page number -> the (low, high) separators bounding it
    stats = {"leaves": 0, "entries": 0, "branches": 0, "fences": {}}
    leaf_depths: set[int] = set()
    leaves_in_tree: list[LeafPage] = []

    def visit(page_no: int, low: Optional[CompositeKey],
              high: Optional[CompositeKey], depth: int) -> None:
        page = tree.pages.get(page_no)
        if page is None:
            raise TreeAuditError(f"{tree.name}: dangling child {page_no}")
        if isinstance(page, LeafPage):
            stats["leaves"] += 1
            leaf_depths.add(depth)
            leaves_in_tree.append(page)
            stats["fences"][page_no] = (low, high)
            if len(page.entries) > page.capacity:
                raise TreeAuditError(
                    f"{tree.name}: leaf {page_no} over capacity "
                    f"({len(page.entries)} > {page.capacity})")
            previous = None
            for composite in page.entries:
                if previous is not None and composite <= previous:
                    raise TreeAuditError(
                        f"{tree.name}: leaf {page_no} out of order at "
                        f"{composite!r}")
                if low is not None and composite < low:
                    raise TreeAuditError(
                        f"{tree.name}: leaf {page_no} entry {composite!r} "
                        f"below separator {low!r}")
                if high is not None and composite >= high:
                    raise TreeAuditError(
                        f"{tree.name}: leaf {page_no} entry {composite!r} "
                        f"not below separator {high!r}")
                previous = composite
                stats["entries"] += 1
            return
        # Branch page.
        stats["branches"] += 1
        if len(page.children) != len(page.separators) + 1:
            raise TreeAuditError(
                f"{tree.name}: branch {page_no} has {len(page.children)} "
                f"children for {len(page.separators)} separators")
        if len(page.children) > page.capacity + 1:
            raise TreeAuditError(
                f"{tree.name}: branch {page_no} over capacity")
        previous = None
        for separator in page.separators:
            if previous is not None and separator <= previous:
                raise TreeAuditError(
                    f"{tree.name}: branch {page_no} separators out of "
                    f"order at {separator!r}")
            if low is not None and separator < low:
                raise TreeAuditError(
                    f"{tree.name}: branch {page_no} separator "
                    f"{separator!r} below bound {low!r}")
            if high is not None and separator > high:
                raise TreeAuditError(
                    f"{tree.name}: branch {page_no} separator "
                    f"{separator!r} above bound {high!r}")
            previous = separator
        bounds = [low] + list(page.separators) + [high]
        for index, child in enumerate(page.children):
            visit(child, bounds[index], bounds[index + 1], depth + 1)

    visit(tree.root, None, None, 1)

    if len(leaf_depths) > 1:
        raise TreeAuditError(
            f"{tree.name}: unbalanced -- leaves at depths {leaf_depths}")

    chained = list(tree.leaf_chain())
    if [leaf.page_no for leaf in chained] \
            != [leaf.page_no for leaf in leaves_in_tree]:
        raise TreeAuditError(
            f"{tree.name}: leaf chain does not match tree order "
            f"(chain {[l.page_no for l in chained]} vs "
            f"tree {[l.page_no for l in leaves_in_tree]})")

    all_composites = [entry for leaf in chained for entry in leaf.entries]
    if all_composites != sorted(all_composites):
        raise TreeAuditError(f"{tree.name}: global key order broken")

    if sum(map(tree.pseudo_deleted.__contains__, all_composites)) \
            != len(tree.pseudo_deleted):
        raise TreeAuditError(
            f"{tree.name}: a pseudo-delete bit outlives its entry")

    if tree.unique:
        key_values = list(map(entry_key, all_composites))
        if len(key_values) != len(set(key_values)):
            raise TreeAuditError(
                f"{tree.name}: unique tree holds duplicate key values")

    stats["height"] = max(leaf_depths) if leaf_depths else 0
    return stats
