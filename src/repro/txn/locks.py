"""Lock manager: S/X locks, conditional and instant requests, deadlocks.

The paper assumes *data-only locking* as in ARIES/IM (section 6.2): lock
names for keys are the same as the lock names for the records they derive
from, so one record lock covers both the record and its index entries.
Lock names here are arbitrary hashables -- ``("rec", table, rid)`` for
records, ``("table", name)`` for the table-level locks used by NSF's
descriptor-create quiesce (section 2.2.1) and by drop-index.

Supported request flavours, all used by the algorithms:

* unconditional -- wait until granted (deadlock detection applies);
* conditional -- return False instead of waiting (section 2.2.4: "request a
  conditional instant share lock on it");
* instant duration -- granted and released immediately; only the *wait* has
  an effect (commit-check idiom).

Deadlock detection builds the waits-for graph on each blocking request and
aborts the youngest transaction in the first cycle :func:`find_cycle`
reports, until no cycle is left.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Optional, TYPE_CHECKING

from repro.errors import DeadlockVictim, TransactionError
from repro.metrics import MetricsRegistry
from repro.sim.kernel import SimEvent, Simulator, Wait
from repro.storage.rid import format_rid

if TYPE_CHECKING:  # pragma: no cover
    from repro.txn.transaction import Transaction

SHARE = "S"
EXCLUSIVE = "X"
INTENT_SHARE = "IS"
INTENT_EXCLUSIVE = "IX"

#: (held, requested) -> compatible?  Standard hierarchical-locking matrix;
#: intent modes let NSF's table-level quiesce (an S lock on the table,
#: section 2.2.1) wait out the IX locks every updating transaction holds.
_COMPATIBLE = {
    ("IS", "IS"): True, ("IS", "IX"): True,
    ("IS", "S"): True, ("IS", "X"): False,
    ("IX", "IS"): True, ("IX", "IX"): True,
    ("IX", "S"): False, ("IX", "X"): False,
    ("S", "IS"): True, ("S", "IX"): False,
    ("S", "S"): True, ("S", "X"): False,
    ("X", "IS"): False, ("X", "IX"): False,
    ("X", "S"): False, ("X", "X"): False,
}

_STRENGTH = {"IS": 1, "IX": 2, "S": 2, "X": 3}

_VICTIM_MARK = object()


class _LockHead:
    """State for one lock name: holders and FIFO wait queue.

    Most names never see a waiter -- a preload holds one X lock per row
    -- so the queue is the empty tuple until :meth:`enqueue` makes the
    deque, as :class:`~repro.sim.latch.Latch` does.
    """

    __slots__ = ("holders", "queue")

    def __init__(self) -> None:
        self.holders: dict["Transaction", str] = {}
        self.queue: "deque[tuple[Transaction, str, SimEvent, bool]]" = ()

    def enqueue(self, txn: "Transaction", mode: str, event: SimEvent,
                instant: bool) -> None:
        """Queue a waiter at the tail."""
        if not self.queue:
            self.queue = deque()
        self.queue.append((txn, mode, event, instant))

    def grantable(self, txn: "Transaction", mode: str) -> bool:
        for holder, held_mode in self.holders.items():
            if holder is txn:
                continue
            if not _COMPATIBLE[(held_mode, mode)]:
                return False
        return True

    def grant(self, txn: "Transaction", mode: str) -> None:
        # Conversions go through _union; note its SIX caveat -- a holder
        # combining IX with S records X, not SIX, so later compatibility
        # checks are stricter than a real SIX implementation (safe, but
        # it can deny an IS/IX request a true SIX would admit).
        self.holders[txn] = _union(self.holders.get(txn), mode)


def _name_text(name: Hashable) -> str:
    """A lock name as messages print it: a record's RID as its
    ``(page,slot)`` pair."""
    if type(name) is tuple and len(name) == 3 and name[0] == "rec":
        return f"record {format_rid(name[2])} of {name[1]!r}"
    return repr(name)


def _union(held: Optional[str], requested: str) -> str:
    """The combined mode after a conversion grant.

    The incomparable pair IX + S would be SIX in a full hierarchical
    implementation; this lock manager has no SIX mode and approximates
    the union as X.  That is strictly *more* restrictive than SIX
    (X conflicts with everything SIX conflicts with, plus IS), so the
    approximation can only reduce concurrency, never admit an illegal
    schedule.  Call sites that perform IX->S or S->IX conversions pay
    this cost; see the note at :meth:`_LockHead.grant`.
    """
    if held is None or held == requested:
        return requested
    if _STRENGTH[held] > _STRENGTH[requested]:
        return held
    if _STRENGTH[requested] > _STRENGTH[held]:
        return requested
    # Incomparable pair (IX + S = SIX); approximate as exclusive.
    return EXCLUSIVE


class LockManager:
    """All lock state for one simulated system."""

    def __init__(self, sim: Simulator,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.sim = sim
        self.metrics = metrics or MetricsRegistry()
        self._heads: dict[Hashable, _LockHead] = {}

    # -- requests ---------------------------------------------------------

    def lock(self, txn: "Transaction", name: Hashable, mode: str, *,
             conditional: bool = False, instant: bool = False):
        """Generator: :meth:`request`, then :meth:`wait` if queued."""
        granted = self.request(txn, name, mode, conditional=conditional,
                               instant=instant)
        if granted is None:
            granted = yield from self.wait(txn)
        return granted

    def request(self, txn: "Transaction", name: Hashable, mode: str, *,
                conditional: bool = False,
                instant: bool = False) -> Optional[bool]:
        """Request ``name`` in ``mode`` for ``txn`` by a plain call.

        True when granted, False when a conditional request is denied,
        None when ``txn`` is queued: ``yield from`` :meth:`wait` next.

        A request in a mode the transaction already covers (same mode, or
        anything while holding X) is granted on a fast path; *instant*
        fast-path grants still count toward ``lock.instant_grants``.  A
        conversion (e.g. held S, requested IX) records the :func:`_union`
        of the two modes -- note that the IX+S union is approximated as X
        rather than SIX (see :func:`_union`).
        """
        self.metrics.counters["lock.requests"] += 1
        head = self._heads.get(name)
        if head is None:
            # A free name: no holder to be incompatible with, no waiter
            # to queue behind, no held mode to convert from -- granted
            # as asked.  An instant grant holds nothing, so it gets no
            # head: only a release ever removes one (_drain), and
            # nothing would release this.
            if instant:
                self.metrics.incr("lock.instant_grants")
            else:
                head = self._heads[name] = _LockHead()
                head.holders[txn] = mode
                txn.held_locks.add(name)
            return True
        already = head.holders.get(txn)
        if already == EXCLUSIVE or already == mode:
            # Re-request of a held mode (or anything under a held X):
            # granted without touching lock state.  An instant-duration
            # re-request is still an instant grant and must be counted
            # as one -- the grantable path below increments the same
            # counter, and skipping it here made instant accounting
            # depend on what the transaction already held.
            if instant:
                self.metrics.incr("lock.instant_grants")
            return True

        if head.grantable(txn, mode) and not self._blocked_behind(head, txn):
            if instant:
                self.metrics.incr("lock.instant_grants")
            else:
                head.grant(txn, mode)
                txn.held_locks.add(name)
                if head.queue:
                    # A conversion jumps the queue (see _blocked_behind),
                    # so this grant can complete a waits-for cycle for
                    # the entries still queued here without any of them
                    # issuing a new request; re-check from the head.
                    self._detect_deadlock(head.queue[0][0], name)
            return True

        if conditional:
            self.metrics.incr("lock.conditional_denials")
            return False

        # Must wait.
        self.metrics.incr("lock.waits")
        event = txn.wake = self.sim.event()
        head.enqueue(txn, mode, event, instant)
        txn.waiting_on = name
        self._detect_deadlock(txn, name)
        return None

    def wait(self, txn: "Transaction"):
        """Generator: block until the request :meth:`request` queued is
        granted (True).  Raises :class:`~repro.errors.DeadlockVictim` if
        this transaction is chosen as a deadlock victim meanwhile."""
        name, queued_at = txn.waiting_on, self.sim.now
        outcome = yield Wait(txn.wake)
        txn.waiting_on = txn.wake = None
        self.metrics.observe("lock.wait_time", self.sim.now - queued_at)
        if outcome is _VICTIM_MARK:
            raise DeadlockVictim(
                f"transaction {txn.txn_id} chosen as deadlock victim "
                f"waiting for {_name_text(name)}")
        return True

    def unlock(self, txn: "Transaction", name: Hashable) -> None:
        """Release one lock early (used for short-duration latching idioms)."""
        head = self._heads.get(name)
        if head is None or txn not in head.holders:
            raise TransactionError(
                f"transaction {txn.txn_id} does not hold {_name_text(name)}")
        del head.holders[txn]
        txn.held_locks.discard(name)
        self._drain(name, head)

    def release_all(self, txn: "Transaction") -> None:
        """Release every lock at commit/abort end (strict 2PL)."""
        for name in list(txn.held_locks):
            head = self._heads.get(name)
            if head is not None and txn in head.holders:
                del head.holders[txn]
                self._drain(name, head)
        txn.held_locks.clear()

    # -- queue mechanics ------------------------------------------------------

    def _blocked_behind(self, head: _LockHead, txn: "Transaction") -> bool:
        """FIFO fairness: a new request may not overtake queued waiters.

        A conversion by an existing holder is exempt (it must jump the
        queue or it would deadlock with itself).
        """
        if txn in head.holders:
            return False
        return bool(head.queue)

    def _drain(self, name: Hashable, head: _LockHead) -> None:
        granted = False
        while head.queue:
            txn, mode, event, instant = head.queue[0]
            if not head.grantable(txn, mode):
                break
            head.queue.popleft()
            if not instant:
                head.grant(txn, mode)
                txn.held_locks.add(name)
                granted = True
            event.set(True)
        if not head.holders and not head.queue:
            self._heads.pop(name, None)
        elif granted and head.queue:
            # Granting adds waits-for edges: every entry still queued
            # here now waits on the new holder(s).  No new *request* is
            # made at a grant, so enqueue-time detection never examines
            # a cycle completed this way -- and in a fully convoyed
            # system no future request will, either.  Re-check from the
            # blocked head before letting it go back to sleep.
            self._detect_deadlock(head.queue[0][0], name)

    # -- deadlock detection ------------------------------------------------------

    def _detect_deadlock(self, requester: "Transaction",
                         name: Hashable) -> None:
        # Clear EVERY cycle, not just one reachable from the requester:
        # several can coexist (heavy convoys under a throttled build),
        # and a cycle left standing is never re-examined -- the waiters
        # in it make no further requests, so nothing triggers detection
        # again and the system quietly wedges.
        while True:
            cycle = find_cycle(self._waits_for_graph())
            if cycle is None:
                return
            self.metrics.incr("lock.deadlocks")
            self._abort_waiter(max(cycle))  # youngest transaction dies

    def _waits_for_graph(self) -> WaitsFor:
        graph: WaitsFor = {}
        for head in self._heads.values():
            earlier: list["Transaction"] = []
            for waiter, mode, _event, _instant in head.queue:
                waiter_id = waiter.txn_id
                for holder, held_mode in head.holders.items():
                    if holder is not waiter \
                            and not _COMPATIBLE[(held_mode, mode)]:
                        _add_edge(graph, waiter_id, holder.txn_id)
                # FIFO: a waiter waits behind EVERY earlier request in
                # the same queue, compatible or not -- _drain stops at
                # the first non-grantable entry, so a compatible request
                # queued behind a blocked one is just as blocked.
                for ahead in earlier:
                    if ahead is not waiter:
                        _add_edge(graph, waiter_id, ahead.txn_id)
                earlier.append(waiter)
        return graph

    def _abort_waiter(self, victim_id: int) -> None:
        for name, head in self._heads.items():
            for entry in list(head.queue):
                txn, _mode, event, _instant = entry
                if txn.txn_id == victim_id:
                    head.queue.remove(entry)
                    event.set(_VICTIM_MARK)
                    # The victim's request may have been the only thing
                    # blocking the entries queued behind it (an X request
                    # ahead of compatible S requests, head-of-line).  They
                    # are only examined on a release, so without a drain
                    # here they sleep until some unrelated holder of this
                    # head releases -- and when every such holder is
                    # itself queued elsewhere, that is never: the whole
                    # system convoys to a halt with no waits-for cycle.
                    self._drain(name, head)
                    return
        raise TransactionError(  # pragma: no cover - cycle implies a waiter
            f"deadlock victim {victim_id} not found waiting")

    # -- introspection ----------------------------------------------------------

    def holders(self, name: Hashable) -> dict[int, str]:
        head = self._heads.get(name)
        if head is None:
            return {}
        return {txn.txn_id: mode for txn, mode in head.holders.items()}


# -- the waits-for search ---------------------------------------------------

#: A waits-for graph: transaction id -> the ids it waits for.  Ids are
#: keys in first-insertion order (an edge inserts its waiter, then the
#: waited-for id); each successor list is in first-insertion order
#: without repeats.
WaitsFor = dict[int, list[int]]


def _add_edge(graph: WaitsFor, waiter: int, waited_for: int) -> None:
    successors = graph.get(waiter)
    if successors is None:
        successors = graph[waiter] = []
    if waited_for not in graph:
        graph[waited_for] = []
    if waited_for not in successors:
        successors.append(waited_for)


def find_cycle(graph: WaitsFor) -> Optional[list[int]]:
    """The first cycle in ``graph`` as its member ids, from the one the
    search re-entered on; None when the graph is acyclic.

    When several cycles coexist, which one is found first decides which
    transaction dies, so the search is networkx 3.x ``find_cycle(G)``'s,
    step for step: start ids in insertion order, skipping every id an
    earlier start explored; from each, a depth-first walk over *edges*
    that takes an id's successors in order and resumes its iterator when
    the walk returns to it; an active path cut back to the current
    edge's tail on every backtrack; the first edge whose head is on the
    active path closes the cycle.
    """
    explored: set[int] = set()
    for start in graph:
        if start in explored:
            continue
        active = {start}
        path: list[tuple[int, int]] = []
        successors: dict = {}
        stack = [start]
        while stack:
            tail = stack[-1]
            pending = successors.get(tail)
            if pending is None:
                pending = successors[tail] = iter(graph[tail])
            head = next(pending, None)
            if head is None:
                stack.pop()
                continue
            stack.append(head)
            if head in explored:
                continue  # no cycle through an explored id
            if path and path[-1][1] != tail:
                # Backtracked: cut the path back to the edge into
                # ``tail``, or restart it at ``tail`` if none is left.
                while path and path[-1][1] != tail:
                    active.remove(path.pop()[1])
                if not path:
                    active = {tail}
            path.append((tail, head))
            if head in active:
                tails = [edge_tail for edge_tail, _head in path]
                return tails[tails.index(head):]
            active.add(head)
        explored.update(successors)  # every id this start reached
    return None
