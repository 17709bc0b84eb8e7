"""Unit tests for the lock manager (repro.txn.locks)."""

import random

import pytest

from repro.errors import DeadlockVictim, TransactionError
from repro.sim import Delay
from repro.system import System
from repro.txn.locks import _LockHead, _union, find_cycle


def drive_all(system, bodies):
    procs = [system.spawn(body, name=f"p{i}")
             for i, body in enumerate(bodies)]
    system.run()
    for proc in procs:
        if proc.error is not None:
            raise proc.error
    return procs


def test_shared_locks_coexist():
    system = System()
    granted = []

    def reader(tag):
        txn = system.txns.begin(tag)
        ok = yield from txn.lock("r1", "S")
        granted.append((tag, system.now(), ok))
        yield Delay(5)
        yield from txn.commit()

    drive_all(system, [reader("a"), reader("b")])
    assert [(t, ok) for t, _time, ok in granted] == [("a", True),
                                                     ("b", True)]
    assert granted[0][1] == granted[1][1] == 0


def test_exclusive_waits_for_share():
    system = System()
    events = []

    def reader():
        txn = system.txns.begin("r")
        yield from txn.lock("r1", "S")
        yield Delay(10)
        yield from txn.commit()
        events.append(("r-done", system.now()))

    def writer():
        yield Delay(1)
        txn = system.txns.begin("w")
        yield from txn.lock("r1", "X")
        events.append(("w-granted", system.now()))
        yield from txn.commit()

    drive_all(system, [reader(), writer()])
    assert events[0][0] == "r-done"
    assert events[1][1] >= events[0][1]


def test_intent_locks_matrix():
    """IX-IX compatible, IX-S incompatible -- the quiesce mechanism."""
    system = System()
    events = []

    def updater(tag, hold):
        txn = system.txns.begin(tag)
        yield from txn.lock(("table", "t"), "IX")
        events.append((tag, "ix", system.now()))
        yield Delay(hold)
        yield from txn.commit()

    def quiescer():
        yield Delay(1)
        txn = system.txns.begin("q")
        yield from txn.lock(("table", "t"), "S")
        events.append(("q", "s", system.now()))
        yield Delay(2)
        yield from txn.commit()

    def late_updater():
        yield Delay(2)
        txn = system.txns.begin("late")
        yield from txn.lock(("table", "t"), "IX")
        events.append(("late", "ix", system.now()))
        yield from txn.commit()

    drive_all(system, [updater("u1", 10), updater("u2", 10),
                       quiescer(), late_updater()])
    times = {tag: t for tag, _m, t in events}
    assert times["u1"] == times["u2"] == 0      # IX + IX coexist
    assert times["q"] >= 10                     # S waits out both IX
    assert times["late"] >= times["q"] + 2      # IX queues behind S


def test_conditional_lock_returns_false_without_waiting():
    system = System()
    outcome = {}

    def holder():
        txn = system.txns.begin("h")
        yield from txn.lock("r1", "X")
        yield Delay(10)
        yield from txn.commit()

    def prober():
        yield Delay(1)
        txn = system.txns.begin("p")
        got = yield from txn.lock("r1", "S", conditional=True)
        outcome["granted"] = got
        outcome["time"] = system.now()
        yield from txn.commit()

    drive_all(system, [holder(), prober()])
    assert outcome["granted"] is False
    assert outcome["time"] == 1  # did not wait


def test_instant_lock_waits_but_holds_nothing():
    system = System()
    outcome = {}

    def holder():
        txn = system.txns.begin("h")
        yield from txn.lock("r1", "X")
        yield Delay(5)
        yield from txn.commit()

    def instant():
        yield Delay(1)
        txn = system.txns.begin("i")
        got = yield from txn.lock("r1", "S", instant=True)
        outcome["granted_at"] = system.now()
        outcome["holds"] = "r1" in txn.held_locks
        yield from txn.commit()

    drive_all(system, [holder(), instant()])
    assert outcome["granted_at"] >= 5   # waited for the holder
    assert outcome["holds"] is False    # but holds nothing afterwards


def test_lock_upgrade_s_to_x():
    system = System()

    def body():
        txn = system.txns.begin("u")
        yield from txn.lock("r1", "S")
        yield from txn.lock("r1", "X")  # sole holder: converts
        assert system.locks.holders("r1") == {txn.txn_id: "X"}
        yield from txn.commit()

    drive_all(system, [body()])


def test_conversion_deadlock_detected():
    """Two S holders both upgrading to X is an unresolvable cycle."""
    system = System()
    outcomes = []

    def upgrader(tag, delay):
        txn = system.txns.begin(tag)
        yield from txn.lock("r1", "S")
        yield Delay(delay)
        try:
            yield from txn.lock("r1", "X")
            yield Delay(1)
            outcomes.append((tag, "upgraded"))
            yield from txn.commit()
        except DeadlockVictim:
            yield from txn.rollback()
            outcomes.append((tag, "victim"))

    drive_all(system, [upgrader("a", 2), upgrader("b", 2)])
    assert sorted(o for _t, o in outcomes) == ["upgraded", "victim"]


def test_three_way_deadlock():
    system = System()
    outcomes = []

    def worker(tag, first, second):
        txn = system.txns.begin(tag)
        yield from txn.lock(first, "X")
        yield Delay(2)
        try:
            yield from txn.lock(second, "X")
            outcomes.append((tag, "ok"))
            yield from txn.commit()
        except DeadlockVictim:
            yield from txn.rollback()
            outcomes.append((tag, "victim"))

    drive_all(system, [worker("a", "r1", "r2"),
                       worker("b", "r2", "r3"),
                       worker("c", "r3", "r1")])
    results = sorted(o for _t, o in outcomes)
    assert results.count("victim") >= 1
    assert results.count("ok") >= 2


def test_release_all_on_commit_wakes_waiters():
    system = System()
    done = []

    def holder():
        txn = system.txns.begin("h")
        yield from txn.lock("r1", "X")
        yield from txn.lock("r2", "X")
        yield Delay(3)
        yield from txn.commit()

    def waiter(name):
        yield Delay(1)
        txn = system.txns.begin(name)
        yield from txn.lock(name, "X")
        done.append(name)
        yield from txn.commit()

    drive_all(system, [holder(), waiter("r1"), waiter("r2")])
    assert sorted(done) == ["r1", "r2"]


def test_unlock_unheld_raises():
    system = System()

    def body():
        txn = system.txns.begin()
        system.locks.unlock(txn, "never-held")
        yield Delay(0)

    with pytest.raises(TransactionError):
        drive_all(system, [body()])


def test_re_request_of_held_lock_is_free():
    system = System()

    def body():
        txn = system.txns.begin()
        yield from txn.lock("r1", "X")
        waits_before = system.metrics.get("lock.waits")
        yield from txn.lock("r1", "X")
        yield from txn.lock("r1", "S")  # weaker: covered by X
        assert system.metrics.get("lock.waits") == waits_before
        yield from txn.commit()

    drive_all(system, [body()])


def test_instant_re_request_counts_instant_grant():
    """An instant request covered by an already-held mode is still an
    instant grant and must be counted as one -- the fast path used to
    return before the accounting."""
    system = System()

    def body():
        txn = system.txns.begin()
        yield from txn.lock("r1", "S")
        before = system.metrics.get("lock.instant_grants")
        got = yield from txn.lock("r1", "S", instant=True)
        assert got is True
        assert system.metrics.get("lock.instant_grants") == before + 1
        # ... and the instant request still holds nothing extra.
        yield from txn.lock("r1", "X")  # upgrade
        got = yield from txn.lock("r1", "S", instant=True)  # under X
        assert got is True
        assert system.metrics.get("lock.instant_grants") == before + 2
        yield from txn.commit()

    drive_all(system, [body()])


def test_instant_grant_accounting_matches_grantable_path():
    """Instant grants count identically whether the fast path (mode
    already covered) or the grantable path (new name) serves them."""
    system = System()

    def body():
        txn = system.txns.begin()
        got = yield from txn.lock("fresh", "S", instant=True)  # grantable path
        assert got is True
        assert system.metrics.get("lock.instant_grants") == 1
        assert "fresh" not in txn.held_locks
        yield from txn.lock("held", "X")
        got = yield from txn.lock("held", "X", instant=True)   # fast path
        assert got is True
        assert system.metrics.get("lock.instant_grants") == 2
        yield from txn.commit()

    drive_all(system, [body()])


def test_conversion_union_approximates_six_as_x():
    """IX + S (= SIX in a full implementation) is recorded as X -- the
    documented approximation: strictly more restrictive, never weaker."""
    system = System()

    def converter():
        txn = system.txns.begin("c")
        yield from txn.lock(("table", "t"), "IX")
        yield from txn.lock(("table", "t"), "S")  # IX + S -> X
        assert system.locks.holders(("table", "t")) == {txn.txn_id: "X"}
        yield Delay(5)
        yield from txn.commit()

    def prober():
        yield Delay(1)
        txn = system.txns.begin("p")
        # A true SIX would admit IS; the X approximation denies it.
        got = yield from txn.lock(("table", "t"), "IS", conditional=True)
        assert got is False
        yield from txn.commit()

    drive_all(system, [converter(), prober()])


def test_conversion_then_instant_re_request():
    """Conversion + instant interplay: after S -> X conversion, an
    instant request of either mode is a fast-path instant grant that
    leaves the held X untouched."""
    system = System()

    def body():
        txn = system.txns.begin()
        yield from txn.lock("r1", "S")
        yield from txn.lock("r1", "X")  # conversion
        before = system.metrics.get("lock.instant_grants")
        for mode in ("S", "X"):
            got = yield from txn.lock("r1", mode, instant=True)
            assert got is True
        assert system.metrics.get("lock.instant_grants") == before + 2
        assert system.locks.holders("r1") == {txn.txn_id: "X"}
        yield from txn.commit()

    drive_all(system, [body()])


def test_held_locks_iterates_in_acquisition_order():
    """``held_locks`` is insertion-ordered: ``release_all``'s drain order
    (and therefore which waiter wakes first) must not depend on hash
    randomization, or recorded schedules would not replay across
    interpreter runs."""
    system = System()
    names = [("rec", "t", i) for i in range(8)] + [("table", "t")]

    def body():
        txn = system.txns.begin()
        for name in names:
            yield from txn.lock(name, "X")
        assert list(txn.held_locks) == names
        system.locks.unlock(txn, names[3])
        assert list(txn.held_locks) == names[:3] + names[4:]
        yield from txn.commit()
        assert len(txn.held_locks) == 0

    drive_all(system, [body()])


def test_fifo_no_overtaking():
    system = System()
    order = []

    def holder():
        txn = system.txns.begin("h")
        yield from txn.lock("r1", "X")
        yield Delay(5)
        yield from txn.commit()

    def requester(tag, start, mode):
        yield Delay(start)
        txn = system.txns.begin(tag)
        yield from txn.lock("r1", mode)
        order.append(tag)
        yield Delay(1)
        yield from txn.commit()

    # S arriving after a queued X must not barge past it.
    drive_all(system, [holder(),
                       requester("x-first", 1, "X"),
                       requester("s-later", 2, "S")])
    assert order == ["x-first", "s-later"]


def test_heads_exist_only_for_names_held_or_awaited():
    """An instant grant on a free name used to install a lock head that
    nothing ever removed (only a release drains heads), and every
    blocking request's waits-for graph then walked all of them."""
    system = System()
    heads = system.locks._heads
    seen = {}

    def prober():
        txn = system.txns.begin("p")
        for i in range(100):
            assert (yield from txn.lock(("fresh", i), "S", instant=True))
            assert (yield from txn.lock(("fresh", i), "X", instant=True,
                                        conditional=True))
        seen["instant"] = set(heads)
        yield from txn.lock("mine", "S")
        yield Delay(2)
        # "theirs" is X-held by the holder: denied, and still one head
        assert not (yield from txn.lock("theirs", "S", conditional=True))
        assert not (yield from txn.lock("theirs", "S", conditional=True,
                                        instant=True))
        seen["denied"] = set(heads)
        yield from txn.commit()
        seen["committed"] = set(heads)

    def holder():
        yield Delay(1)
        txn = system.txns.begin("h")
        yield from txn.lock("theirs", "X")
        yield Delay(5)
        yield from txn.commit()

    def waiter():
        yield Delay(3)
        txn = system.txns.begin("w")
        assert (yield from txn.lock("theirs", "S", instant=True))
        seen["waited"] = (system.now(), set(heads))
        yield from txn.commit()

    drive_all(system, [prober(), holder(), waiter()])
    assert seen["instant"] == set()
    assert seen["denied"] == {"mine", "theirs"}
    assert seen["committed"] == {"theirs"}
    # the instant waiter queued behind the holder, was woken by its
    # release and holds nothing: the head went with the last holder
    assert seen["waited"] == (7, set())
    assert heads == {}
    assert system.metrics.get("lock.instant_grants") == 200
    assert system.metrics.get("lock.conditional_denials") == 2


@pytest.mark.parametrize("mode", ["IS", "IX", "S", "X"])
@pytest.mark.parametrize("flavour", [{}, {"conditional": True},
                                     {"instant": True},
                                     {"conditional": True,
                                      "instant": True}])
def test_free_name_grant_equals_the_general_path(mode, flavour):
    """A name nobody holds or awaits is granted without consulting
    ``grantable`` / ``_blocked_behind`` / ``_union``; the outcome is what
    those compute for an empty head."""
    system = System()
    locks = system.locks
    txn = system.txns.begin()
    empty = _LockHead()
    assert empty.grantable(txn, mode)
    assert not locks._blocked_behind(empty, txn)
    instant = flavour.get("instant", False)

    def body():
        return (yield from txn.lock("free", mode, **flavour))

    (proc,) = drive_all(system, [body()])
    assert proc.result is True
    assert system.now() == 0
    held = {} if instant else {txn.txn_id: _union(None, mode)}
    assert locks.holders("free") == held
    assert list(txn.held_locks) == ([] if instant else ["free"])
    assert set(locks._heads) == set(() if instant else ["free"])
    assert system.metrics.snapshot() == {
        "txn.begins": 1, "lock.requests": 1,
        **({"lock.instant_grants": 1} if instant else {})}
    # and the head built for a held name is an ordinary one: a second
    # transaction meets the usual matrix and FIFO queue
    other = system.txns.begin()

    def prober():
        return (yield from other.lock("free", "IS", conditional=True))

    (probe,) = drive_all(system, [prober()])
    assert probe.result is (instant or mode != "X")


# -- victim order when cycles coexist ----------------------------------------


def wedged_locks(seed):
    """A lock table built directly, not by processes: seeded holders, then
    every transaction queued on at most one name, conversions included.
    Each blocking request is checked as it is made, so processes could
    not reach most of these states -- but a grant or an abort-time drain
    can leave several cycles standing at once, and then the order of the
    search decides who dies."""
    rng = random.Random(seed)
    system = System()
    locks = system.locks
    txns = [system.txns.begin() for _ in range(rng.randint(5, 9))]
    names = [("r", i) for i in range(rng.randint(3, 6))]
    for name in names:
        head = locks._heads[name] = _LockHead()
        shared = rng.random() < 0.5
        for txn in rng.sample(txns, rng.randint(1, 3) if shared else 1):
            head.holders[txn] = "S" if shared else "X"
            txn.held_locks.add(name)
    for txn in txns:
        choices = [name for name in names
                   if locks._heads[name].holders.get(txn) != "X"]
        if not choices or rng.random() < 0.2:
            continue
        name = rng.choice(choices)
        head = locks._heads[name]
        mode = "X" if txn in head.holders or rng.random() < 0.6 else "S"
        if head.grantable(txn, mode) \
                and not locks._blocked_behind(head, txn):
            continue  # lock() would have granted it
        head.enqueue(txn, mode, system.sim.event(), False)
        txn.waiting_on = name
    return system, locks


def edge_list(graph):
    return [(waiter, waited_for) for waiter, successors in graph.items()
            for waited_for in successors]


def has_cycle(edges, without=()):
    """Kahn's algorithm, independent of the search under test."""
    edges = [(u, v) for u, v in edges
             if u not in without and v not in without]
    indegree = {node: 0 for edge in edges for node in edge}
    for _u, v in edges:
        indegree[v] += 1
    ready = [node for node, count in indegree.items() if count == 0]
    removed = 0
    while ready:
        node = ready.pop()
        removed += 1
        for u, v in edges:
            if u == node:
                indegree[v] -= 1
                if indegree[v] == 0:
                    ready.append(v)
    return removed < len(indegree)


def victims_in_order(seed):
    """(waits-for edges before detection, the ids aborted, in order)."""
    system, locks = wedged_locks(seed)
    edges = edge_list(locks._waits_for_graph())
    victims = []
    abort = locks._abort_waiter

    def recording_abort(victim_id):
        victims.append(victim_id)
        abort(victim_id)

    locks._abort_waiter = recording_abort
    name, head = next((name, head) for name, head in locks._heads.items()
                      if head.queue)
    locks._detect_deadlock(head.queue[0][0], name)
    assert system.metrics.get("lock.deadlocks") == len(victims)
    assert find_cycle(locks._waits_for_graph()) is None
    return edges, victims


#: seed -> the transaction ids ``_detect_deadlock`` aborts, in order, as
#: recorded with networkx's ``find_cycle`` doing the search: the first
#: twelve seeds with coexisting cycles, then three whose victims change
#: if the start ids are taken in reverse (most change with reversed
#: successor lists)
VICTIMS = {
    1: [6, 4], 10: [5, 8], 25: [8, 7, 5], 26: [5, 6, 4], 38: [5, 4],
    40: [8, 3], 46: [2, 5, 3], 54: [4, 5], 58: [9, 2], 65: [6, 7],
    66: [5, 4], 72: [5, 3, 2], 124: [3, 7], 230: [6, 4], 310: [3, 9],
}


def test_coexisting_cycles_abort_the_recorded_victims():
    for seed, expected in VICTIMS.items():
        edges, victims = victims_in_order(seed)
        # two cycles at once: one survives the first victim's removal
        assert has_cycle(edges, without={expected[0]}), seed
        assert victims == expected, seed


def test_find_cycle_follows_networkx():
    """The search is networkx 3.x ``find_cycle(G)``'s: same cycle, same
    first edge, on random graphs and on every wedged lock table above."""
    nx = pytest.importorskip("networkx")

    def reference(edges):
        graph = nx.DiGraph(edges)
        try:
            return [edge[0] for edge in nx.find_cycle(graph)]
        except nx.NetworkXNoCycle:
            return None

    rng = random.Random(20)
    for _ in range(3000):
        nodes = rng.randint(1, 9)
        graph = {}
        for _ in range(rng.randint(0, 18)):
            u, v = rng.randrange(nodes), rng.randrange(nodes)
            if u != v:
                graph.setdefault(u, [])
                graph.setdefault(v, [])
                if v not in graph[u]:
                    graph[u].append(v)
        assert find_cycle(graph) == reference(edge_list(graph)), graph
    for seed in VICTIMS:
        graph = wedged_locks(seed)[1]._waits_for_graph()
        assert find_cycle(graph) == reference(edge_list(graph)), seed
