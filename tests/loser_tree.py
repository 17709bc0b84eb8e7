"""The tournament (loser) tree of section 5 -- the tests' reference engine.

The paper assumes "a tournament tree sort [Knut73]" for both sorting
phases.  This is Knuth's *tree of losers*: an array-embedded complete
binary tree whose internal nodes remember the loser of each match and
whose root produces the overall winner with O(log N) comparisons per
output.

The builds do not run this tree: :mod:`repro.sort.sorter` selects with
``heapq`` and :mod:`repro.sort.merge` is one stable ``sorted()``.
:class:`LoserTree` lives here as the reference ``tests/test_sort.py``
compares their runs, manifests and counters with; nothing in ``src/``
imports it.
"""

from __future__ import annotations

from typing import Any

#: Sentinel greater than every real key.  Tuples of this sort above any
#: composite key tuple; a dedicated class keeps the comparison total.


class _Infinite:
    """Compares greater than everything (except another _Infinite).

    The full operator set is defined: a key type that only compares
    against its own kind (ints, entry tuples) answers NotImplemented, so
    every ``<= INF`` / ``>= INF`` form reaches the reflected operator
    here.
    """

    __slots__ = ()

    def __lt__(self, other: Any) -> bool:
        return False

    def __le__(self, other: Any) -> bool:
        return isinstance(other, _Infinite)

    def __gt__(self, other: Any) -> bool:
        return not isinstance(other, _Infinite)

    def __ge__(self, other: Any) -> bool:
        return True

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, _Infinite)

    def __ne__(self, other: Any) -> bool:
        return not isinstance(other, _Infinite)

    def __hash__(self) -> int:
        return hash("repro.sort.INF")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "INF"


INF = _Infinite()


# NOTE: matches below compare with a plain ``a < b``.  _Infinite's full
# operator set makes that total without any isinstance guard: ``INF < x``
# answers False directly, and ``x < INF`` falls through x's NotImplemented
# to the reflected ``INF.__gt__`` (True for every non-INF x).


class LoserTree:
    """A tree of losers over ``size`` feedable slots.

    Usage::

        tree = LoserTree(size)
        for slot in range(size):
            tree.set(slot, first_value_of(slot))
        tree.build()
        while not tree.exhausted:
            slot, value = tree.pop()
            tree.set(slot, next_value_of(slot) or INF)
            tree.fixup(slot)

    ``pop`` returns the minimum value and the slot it came from; the caller
    replenishes that slot (with :data:`INF` when the source is dry) and
    calls :meth:`fixup`.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("tournament tree needs at least one slot")
        self.size = size
        self.values: list[Any] = [INF] * size
        # losers[0] holds the overall winner; losers[1:] the match losers.
        self._losers: list[int] = [0] * size
        self._built = False

    # -- feeding -----------------------------------------------------------

    def set(self, slot: int, value: Any) -> None:
        self.values[slot] = value

    def build(self) -> None:
        """(Re)play all matches after the initial feed."""
        winners: dict[int, int] = {}
        size = self.size
        # Leaves occupy virtual nodes [size, 2*size); play bottom-up.
        for node in range(2 * size - 1, size - 1, -1):
            winners[node] = node - size
        for node in range(size - 1, 0, -1):
            left, right = winners[2 * node], winners[2 * node + 1]
            if self.values[right] < self.values[left]:
                winner, loser = right, left
            else:
                winner, loser = left, right
            self._losers[node] = loser
            winners[node] = winner
        self._losers[0] = winners[1] if size > 1 else 0
        self._built = True

    # -- producing ------------------------------------------------------------

    def pop(self) -> tuple[int, Any]:
        """The current minimum (slot, value).  Caller must then
        :meth:`set` the slot and :meth:`fixup`."""
        if not self._built:
            self.build()
        slot = self._losers[0]
        return slot, self.values[slot]

    def fixup(self, slot: int) -> None:
        """Replay matches on the path from ``slot`` to the root."""
        values = self.values
        losers = self._losers
        winner = slot
        node = (slot + self.size) // 2
        while node >= 1:
            loser = losers[node]
            if values[loser] < values[winner]:
                losers[node] = winner
                winner = loser
            node >>= 1
        losers[0] = winner

    @property
    def exhausted(self) -> bool:
        if not self._built:
            self.build()
        return isinstance(self.values[self._losers[0]], _Infinite)
