"""Unit tests for S/X latches (repro.sim.latch)."""

import pytest

from repro.errors import SimulationError
from repro.metrics import MetricsRegistry
from repro.sim import Acquire, Delay, Latch, Simulator
from repro.sim.latch import EXCLUSIVE, SHARE


def test_wait_queue_and_name_are_made_on_first_use():
    """Most latches never see a waiter: no queue until one arrives, no
    formatted name until somebody asks; "no queue" reads as empty."""
    latch = Latch("data", 7)
    sim = Simulator()
    order = []

    def holder():
        yield Acquire(latch, EXCLUSIVE)
        assert latch._waiters is None and latch.busy
        yield Delay(5)
        assert len(latch._waiters) == 1
        latch.release(sim.current)

    def waiter():
        yield Delay(1)
        yield Acquire(latch, SHARE)
        order.append(sim.now)
        latch.release(sim.current)

    assert latch._waiters is None and not latch.busy and not latch.held
    sim.spawn(holder(), name="holder")
    sim.spawn(waiter(), name="waiter")
    sim.run()
    assert order == [5]
    assert not latch.busy
    latch.release(None)  # best-effort release of a free latch: a no-op
    assert latch.name == "data:7" and Latch("p1").name == "p1"


def test_share_holders_coexist():
    latch = Latch("p1")
    inside = []
    sim = Simulator()

    def make(tag):
        def body():
            yield Acquire(latch, SHARE)
            inside.append(tag)
            yield Delay(5)
            latch.release(sim.current)
        return body

    sim.spawn(make("a")(), name="a")
    sim.spawn(make("b")(), name="b")
    sim.run()
    assert inside == ["a", "b"]
    assert sim.now == 5  # both overlapped


def test_exclusive_excludes_share():
    latch = Latch("p1")
    timeline = []

    sim = Simulator()

    def writer():
        yield Acquire(latch, EXCLUSIVE)
        timeline.append(("w-in", sim.now))
        yield Delay(10)
        latch.release(sim.current)

    def reader():
        yield Delay(1)
        yield Acquire(latch, SHARE)
        timeline.append(("r-in", sim.now))
        latch.release(sim.current)

    sim.spawn(writer(), name="w")
    sim.spawn(reader(), name="r")
    sim.run()
    assert timeline == [("w-in", 0), ("r-in", 10)]


def test_share_does_not_starve_exclusive():
    """A share arriving behind a queued exclusive must wait (no barging)."""
    latch = Latch("p1")
    timeline = []
    sim = Simulator()

    def holder():
        yield Acquire(latch, SHARE)
        yield Delay(10)
        latch.release(sim.current)

    def writer():
        yield Delay(1)
        yield Acquire(latch, EXCLUSIVE)
        timeline.append(("w", sim.now))
        yield Delay(5)
        latch.release(sim.current)

    def late_reader():
        yield Delay(2)
        yield Acquire(latch, SHARE)
        timeline.append(("r", sim.now))
        latch.release(sim.current)

    sim.spawn(holder(), name="h")
    sim.spawn(writer(), name="w")
    sim.spawn(late_reader(), name="r")
    sim.run()
    assert timeline == [("w", 10), ("r", 15)]


def test_fifo_grant_order_for_exclusives():
    latch = Latch("p1")
    order = []
    sim = Simulator()

    def make(tag, start):
        def body():
            yield Delay(start)
            yield Acquire(latch, EXCLUSIVE)
            order.append(tag)
            yield Delay(10)
            latch.release(sim.current)
        return body

    for i, tag in enumerate("abc"):
        sim.spawn(make(tag, i)(), name=tag)
    sim.run()
    assert order == ["a", "b", "c"]


def test_release_without_hold_raises():
    latch = Latch("p1")
    sim = Simulator()

    def body():
        yield Delay(1)
        latch.release(sim.current)

    sim.spawn(body())
    with pytest.raises(SimulationError):
        sim.run()


def test_reacquire_raises():
    latch = Latch("p1")
    sim = Simulator()

    def body():
        yield Acquire(latch, SHARE)
        yield Acquire(latch, SHARE)

    sim.spawn(body())
    with pytest.raises(SimulationError):
        sim.run()


def test_latch_metrics_counted():
    metrics = MetricsRegistry()
    latch = Latch("p1", metrics=metrics)
    sim = Simulator()

    def holder():
        yield Acquire(latch, EXCLUSIVE)
        yield Delay(7)
        latch.release(sim.current)

    def waiter():
        yield Delay(1)
        yield Acquire(latch, EXCLUSIVE)
        latch.release(sim.current)

    sim.spawn(holder())
    sim.spawn(waiter())
    sim.run()
    assert metrics.get("latch.requests") == 2
    assert metrics.get("latch.waits") == 1
    assert metrics.stat("latch.wait_time").total == pytest.approx(6)


def test_crash_path_release_wakes_surviving_waiters():
    """``release(None)`` (crash-path GC release) must drain dead holders
    AND wake queued survivors -- it used to pop one holder silently,
    leaving waiters hung forever."""
    latch = Latch("p1")
    sim = Simulator()
    granted = []

    def doomed():
        yield Acquire(latch, EXCLUSIVE)
        yield Delay(100)  # never reached: we kill it below

    def survivor():
        yield Delay(1)
        yield Acquire(latch, EXCLUSIVE)
        granted.append(sim.now)
        latch.release(sim.current)

    dead = sim.spawn(doomed(), name="doomed")
    sim.spawn(survivor(), name="survivor")
    sim.run(until=2)
    assert latch.held_by(dead)
    assert not granted  # survivor is queued behind the holder
    # Simulate the crashed process's generator being GC'd: the kernel no
    # longer tracks it, and its finally-block releases with proc=None.
    dead.finished = True
    latch.release(None)
    sim.run()
    assert granted == [2]
    assert not latch.held


def test_crash_path_release_drains_all_dead_holders():
    """Several share holders died: one ``release(None)`` drains them all
    (the GC order of their generators is arbitrary, so the first
    finalizer must not leave dead holders pinning the latch)."""
    latch = Latch("p1")
    sim = Simulator()
    granted = []

    def doomed():
        yield Acquire(latch, SHARE)
        yield Delay(100)

    def survivor():
        yield Delay(1)
        yield Acquire(latch, EXCLUSIVE)
        granted.append(sim.now)
        latch.release(sim.current)

    dead = [sim.spawn(doomed(), name=f"doomed-{i}") for i in range(3)]
    sim.spawn(survivor(), name="survivor")
    sim.run(until=2)
    for proc in dead:
        proc.finished = True
    latch.release(None)
    sim.run()
    assert granted == [2]
    assert not latch.held


def test_wake_waiters_skips_dead_waiters():
    """A waiter that died while queued must be skipped at grant time:
    granting to it would hold the latch forever (the kernel never
    dispatches a finished process again to release it)."""
    latch = Latch("p1")
    sim = Simulator()
    granted = []

    def holder():
        yield Acquire(latch, EXCLUSIVE)
        yield Delay(10)
        latch.release(sim.current)

    def waiter(tag):
        yield Delay(1)
        yield Acquire(latch, EXCLUSIVE)
        granted.append(tag)
        latch.release(sim.current)

    sim.spawn(holder(), name="h")
    doomed = sim.spawn(waiter("doomed"), name="doomed")
    sim.spawn(waiter("live"), name="live")
    sim.run(until=5)
    doomed.finished = True  # died while queued (e.g. errored elsewhere)
    sim.run()
    assert granted == ["live"]
    assert not latch.held


def test_bad_mode_rejected():
    latch = Latch("p1")
    sim = Simulator()

    def body():
        yield Acquire(latch, "U")

    sim.spawn(body())
    with pytest.raises(SimulationError, match="bad latch mode"):
        sim.run()
    # checked before the free latch is granted, not after
    assert not latch.held and not latch.busy


# -- the free-latch grant keeps the general path's contract ------------------


def test_free_latch_grant_requeues_the_requester_with_a_fresh_seq():
    """A free latch is granted at once, but never *inline*: the requester
    goes back through the event queue behind its same-instant peers, one
    new sequence number per grant, and resumes with the latch."""
    latch = Latch("p1")
    sim = Simulator()
    order = []

    def taker():
        seq_before = sim._seq
        got = yield Acquire(latch, EXCLUSIVE)
        order.append(("taker", sim.now, got is latch,
                      sim._seq - seq_before))
        latch.release(sim.current)

    def peer():
        order.append(("peer", sim.now))
        yield Delay(0)

    sim.spawn(taker(), name="taker")
    sim.spawn(peer(), name="peer")
    sim.run()
    # the peer, queued before the grant, runs first; its Delay(0) is the
    # second of the two sequence numbers the taker sees handed out
    assert order == [("peer", 0), ("taker", 0, True, 2)]
    assert not latch.held and not latch.busy


@pytest.mark.parametrize("first", [SHARE, EXCLUSIVE])
@pytest.mark.parametrize("second", [SHARE, EXCLUSIVE])
def test_reacquire_by_the_holder_raises_in_every_mode(first, second):
    latch = Latch("p1")
    sim = Simulator()

    def body():
        yield Acquire(latch, first)
        latch.release(sim.current)
        yield Acquire(latch, first)      # free again: fine
        yield Acquire(latch, second)     # held by us: not fine

    sim.spawn(body(), name="greedy")
    with pytest.raises(SimulationError, match="re-acquiring"):
        sim.run()


def test_share_joins_shares_only_with_no_exclusive_queued():
    """Grant order over one latch: S, S join; X queues; a later S queues
    behind the X instead of joining; releases hand over in FIFO order."""
    metrics = MetricsRegistry()
    latch = Latch("p1", metrics=metrics)
    sim = Simulator()
    granted = []

    def user(tag, start, mode, hold):
        def body():
            yield Delay(start)
            yield Acquire(latch, mode)
            granted.append((tag, sim.now))
            yield Delay(hold)
            latch.release(sim.current)
        return body()

    sim.spawn(user("s1", 0, SHARE, 10), name="s1")
    sim.spawn(user("s2", 1, SHARE, 4), name="s2")      # joins s1
    sim.spawn(user("x", 2, EXCLUSIVE, 3), name="x")    # queues
    sim.spawn(user("s3", 3, SHARE, 1), name="s3")      # behind x
    sim.spawn(user("s4", 20, SHARE, 1), name="s4")     # free latch again
    sim.run()
    assert granted == [("s1", 0), ("s2", 1), ("x", 10), ("s3", 13),
                       ("s4", 20)]
    assert metrics.get("latch.requests") == 5
    assert metrics.get("latch.waits") == 2
    assert metrics.stat("latch.wait_time").total == pytest.approx(8 + 10)


# -- the in-place grant (Simulator.acquired) keeps the same contract -----------


def test_in_place_bad_mode_leaves_a_free_latch_free():
    latch = Latch("p1")
    sim = Simulator()

    def body():
        sim.acquired(latch, "U")
        yield Delay(0)  # pragma: no cover - the request raised

    sim.spawn(body())
    with pytest.raises(SimulationError, match="bad latch mode"):
        sim.run()
    assert not latch.held and not latch.busy


@pytest.mark.parametrize("first", [SHARE, EXCLUSIVE])
@pytest.mark.parametrize("second", [SHARE, EXCLUSIVE])
def test_in_place_reacquire_by_the_holder_raises(first, second):
    latch = Latch("p1")
    sim = Simulator()

    def body():
        assert sim.acquired(latch, first)
        sim.acquired(latch, second)
        yield Delay(0)  # pragma: no cover - the request raised

    sim.spawn(body(), name="greedy")
    with pytest.raises(SimulationError, match="re-acquiring"):
        sim.run()


def test_an_in_place_request_that_would_wait_changes_nothing():
    """Share holders and a queued exclusive: a share request may not
    join, so the in-place path declines without counting or queueing,
    and the yielded request then counts and queues once."""
    metrics = MetricsRegistry()
    latch = Latch("p1", metrics=metrics)
    sim = Simulator()
    seen = []

    def holder():
        yield Acquire(latch, SHARE)
        yield Delay(5)
        latch.release(sim.current)

    def writer():
        yield Acquire(latch, EXCLUSIVE)
        latch.release(sim.current)

    def reader():
        yield Delay(1)
        before = (metrics.snapshot(), len(latch._waiters))
        seen.append(sim.acquired(latch, SHARE))
        seen.append(before == (metrics.snapshot(), len(latch._waiters)))
        yield Acquire(latch, SHARE)
        seen.append(sim.now)
        latch.release(sim.current)

    for body in (holder, writer, reader):
        sim.spawn(body(), name=body.__name__)
    sim.run()
    assert seen == [False, True, 5.0]
    assert metrics.get("latch.requests") == 3
    assert metrics.get("latch.waits") == 2
