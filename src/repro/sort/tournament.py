"""The tournament (loser) tree of section 5, as a cost model.

The paper assumes "a tournament tree sort [Knut73]" for both sorting
phases: Knuth's *tree of losers*, an array-embedded complete binary tree
whose internal nodes remember the loser of each match and whose root
produces the overall winner with O(log N) comparisons per output.

The builds do not run such a tree: :mod:`repro.sort.sorter` selects with
``heapq``, :mod:`repro.sort.merge` is one ``sorted()``, and both charge
what the tree *would* have played.  That is exact because the number of
matches never depended on the values -- :func:`build_matches` per build
of the tree, :func:`fixup_matches` per refilled slot.  The tree itself
(``LoserTree``) is the tests' reference engine, ``tests/loser_tree.py``,
which ``tests/test_sort.py`` checks these counts and the engines against.
"""

from __future__ import annotations


def build_matches(size: int) -> int:
    """Matches a build of the tree plays: one per internal node."""
    return size - 1


def fixup_matches(size: int) -> list[int]:
    """Matches a fixup of the tree plays, by refilled slot: one per node
    on the path from the slot's parent ``(slot + size) // 2`` up to the
    root, node 1."""
    return [((slot + size) // 2).bit_length() for slot in range(size)]
