"""The drivers' pool of committed RIDs, indexable by rank.

A worker picks a victim with ``rng.choice`` over the pool's RIDs in
insertion order.  Copying the pool into a list for every pick cost more
than the whole storage layer on a 20k-row table, so the pool keeps its
RIDs in insertion slots under a Fenwick tree of live counts: the k-th
live RID is a ``log n`` descent, and :meth:`RidPool.choice` makes the
same ``rng.choice`` call -- the same draws, the same pick -- on a view
that ranks instead of copying.

A removed RID leaves its slot empty; a re-added one takes a new slot at
the end, which is exactly where a dict puts a key popped and set again.
Slots grow with the operations, as the drivers' op timelines do.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from typing import Iterable, Iterator, Optional


class RidPool(MutableMapping):
    """``rid -> key`` in insertion order, with rank access."""

    __slots__ = ("_slot_of", "_rids", "_keys", "_tree", "_ranked")

    def __init__(self, items: Iterable[tuple[int, int]] = ()) -> None:
        self._slot_of: dict[int, int] = {}
        #: per slot: its RID (None once removed) and key
        self._rids: list[Optional[int]] = []
        self._keys: list[int] = []
        #: Fenwick tree over the slots' live flags (1-based)
        self._tree: list[int] = [0]
        self._ranked = _Ranked(self)
        for rid, key in items:
            self[rid] = key

    def __len__(self) -> int:
        return len(self._slot_of)

    def __iter__(self) -> Iterator[int]:
        return (rid for rid in self._rids if rid is not None)

    def __getitem__(self, rid: int) -> int:
        return self._keys[self._slot_of[rid]]

    def __setitem__(self, rid: int, key: int) -> None:
        slot = self._slot_of.get(rid)
        if slot is not None:
            self._keys[slot] = key
            return
        slot = self._slot_of[rid] = len(self._rids)
        self._rids.append(rid)
        self._keys.append(key)
        # The new node covers slots (i - lowbit(i), i]: its own 1 plus
        # the nodes that tile (i - lowbit(i), i - 1].
        tree = self._tree
        index = slot + 1
        low = index - (index & -index)
        count = 1
        child = index - 1
        while child > low:
            count += tree[child]
            child -= child & -child
        tree.append(count)

    def __delitem__(self, rid: int) -> None:
        slot = self._slot_of.pop(rid)
        self._rids[slot] = None
        tree = self._tree
        size = len(tree)
        index = slot + 1
        while index < size:
            tree[index] -= 1
            index += index & -index

    def nth(self, rank: int) -> int:
        """The live RID at ``rank`` (0-based) in insertion order."""
        if not 0 <= rank < len(self._slot_of):
            raise IndexError(f"rank {rank} of {len(self)} live RIDs")
        tree = self._tree
        size = len(tree)
        index = 0
        step = 1 << (size - 1).bit_length()
        while step:
            probe = index + step
            if probe < size and tree[probe] <= rank:
                index = probe
                rank -= tree[probe]
            step >>= 1
        return self._rids[index]

    def choice(self, rng) -> int:
        """What ``rng.choice(list(self))`` returns, from the same draws,
        without the copy."""
        return rng.choice(self._ranked)


class _Ranked:
    """The live RIDs as a read-only sequence for ``rng.choice``."""

    __slots__ = ("pool",)

    def __init__(self, pool: RidPool) -> None:
        self.pool = pool

    def __len__(self) -> int:
        return len(self.pool._slot_of)

    def __getitem__(self, rank: int) -> int:
        return self.pool.nth(rank)
