"""Unit tests for the discrete-event kernel (repro.sim.kernel)."""

import pytest

from repro.errors import SimulationError, SystemCrash
from repro.faultinject.injector import FaultInjector, FaultPlan
from repro.schedsweep.policy import FifoPolicy, RandomTiePolicy, ReplayPolicy
from repro.sim import (
    Acquire,
    Barrier,
    Delay,
    Join,
    Latch,
    ProcessGroup,
    SimEvent,
    Simulator,
    Wait,
)


def test_single_process_runs_to_completion():
    log = []

    def body():
        log.append(("start", 0))
        yield Delay(5)
        log.append(("after-delay",))
        return 42

    sim = Simulator()
    proc = sim.spawn(body(), name="p1")
    sim.run()
    assert proc.finished
    assert proc.result == 42
    assert sim.now == 5
    assert log == [("start", 0), ("after-delay",)]


def test_clock_advances_by_delay_sum():
    def body():
        yield Delay(1.5)
        yield Delay(2.5)

    sim = Simulator()
    sim.spawn(body())
    sim.run()
    assert sim.now == pytest.approx(4.0)


def test_two_processes_interleave_by_time():
    order = []

    def slow():
        yield Delay(10)
        order.append("slow")

    def fast():
        yield Delay(1)
        order.append("fast")

    sim = Simulator()
    sim.spawn(slow(), name="slow")
    sim.spawn(fast(), name="fast")
    sim.run()
    assert order == ["fast", "slow"]


def test_tie_break_is_spawn_order():
    order = []

    def mk(tag):
        def body():
            yield Delay(3)
            order.append(tag)
        return body()

    sim = Simulator()
    for tag in "abc":
        sim.spawn(mk(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_join_returns_child_result():
    def child():
        yield Delay(2)
        return "payload"

    def parent(sim):
        kid = sim.spawn(child(), name="kid")
        got = yield Join(kid)
        return got

    sim = Simulator()
    parent_proc = sim.spawn(parent(sim), name="parent")
    sim.run()
    assert parent_proc.result == "payload"


def test_join_on_already_finished_process():
    def child():
        return "early"
        yield  # pragma: no cover - makes this a generator

    def parent(sim, kid):
        yield Delay(5)
        got = yield Join(kid)
        return got

    sim = Simulator()
    kid = sim.spawn(child(), name="kid")
    sim.spawn(parent(sim, kid), name="parent")
    parent_proc = sim.spawn(parent(sim, kid), name="parent2")
    sim.run()
    assert parent_proc.result == "early"


def test_event_wakes_all_waiters_with_value():
    results = []

    def waiter(event, tag):
        value = yield Wait(event)
        results.append((tag, value))

    def setter(event):
        yield Delay(3)
        event.set("go")

    sim = Simulator()
    event = sim.event()
    sim.spawn(waiter(event, "w1"))
    sim.spawn(waiter(event, "w2"))
    sim.spawn(setter(event))
    sim.run()
    assert sorted(results) == [("w1", "go"), ("w2", "go")]
    assert sim.now == 3


def test_wait_on_already_set_event_is_immediate():
    def body(event):
        value = yield Wait(event)
        return value

    sim = Simulator()
    event = sim.event()
    event.set(7)
    proc = sim.spawn(body(event))
    sim.run()
    assert proc.result == 7
    assert sim.now == 0


def test_run_until_pauses_and_resumes():
    hits = []

    def body():
        for i in range(4):
            yield Delay(10)
            hits.append(i)

    sim = Simulator()
    sim.spawn(body())
    sim.run(until=25)
    assert hits == [0, 1]
    assert sim.now == 25
    sim.run()
    assert hits == [0, 1, 2, 3]
    assert sim.now == 40


def test_run_in_slices_matches_continuous_run():
    """Pausing at ``until`` must not reorder same-timestamp ties.

    Regression: the deferred head event used to be re-pushed with a
    fresh sequence number, dropping it behind its same-timestamp peers,
    so run-in-slices produced a different schedule than one continuous
    run().
    """
    def make(order):
        def mk(tag):
            def body():
                for _ in range(3):
                    yield Delay(10)
                    order.append(tag)
            return body()
        return mk

    continuous_order, sliced_order = [], []
    continuous = Simulator()
    for tag in "abc":
        continuous.spawn(make(continuous_order)(tag))
    continuous.run()

    sliced = Simulator()
    for tag in "abc":
        sliced.spawn(make(sliced_order)(tag))
    # Boundaries both between events and splitting a same-time batch:
    # run(until=5) pops the t=10 head and must put it back unreordered.
    for until in (5, 10, 15, 25):
        sliced.run(until=until)
    sliced.run()

    assert sliced_order == continuous_order
    assert sliced.now == continuous.now


def test_bare_join_receives_worker_error():
    """A bare ``Join`` on a process that died with a Python error must
    raise that error in the joiner, not resume it with ``result=None``."""
    caught = []

    def worker():
        yield Delay(1)
        raise RuntimeError("worker bug")

    def joiner(sim, kid):
        try:
            yield Join(kid)
        except RuntimeError as exc:
            caught.append(str(exc))

    sim = Simulator()
    kid = sim.spawn(worker(), name="kid")
    sim.spawn(joiner(sim, kid), name="joiner")
    # The error still propagates out of run() (it is a bug, not a
    # simulated failure) ...
    with pytest.raises(RuntimeError, match="worker bug"):
        sim.run()
    # ... but the joiner was scheduled to receive it, not swallow it.
    sim.run()
    assert caught == ["worker bug"]


def test_join_on_already_errored_process_raises():
    """Joining a process that already finished with an error raises it
    immediately (the deferred-join twin of the test above)."""
    caught = []

    def worker():
        yield Delay(1)
        raise RuntimeError("early death")

    def late_joiner(kid):
        yield Delay(5)
        try:
            yield Join(kid)
        except RuntimeError as exc:
            caught.append(str(exc))

    sim = Simulator()
    kid = sim.spawn(worker(), name="kid")
    sim.spawn(late_joiner(kid), name="late")
    with pytest.raises(RuntimeError, match="early death"):
        sim.run()
    sim.run()
    assert kid.error is not None
    assert caught == ["early death"]


def test_system_crash_stops_simulator():
    def crasher():
        yield Delay(1)
        raise SystemCrash("power failure")

    def bystander(log):
        yield Delay(100)
        log.append("should-not-run")

    log = []
    sim = Simulator()
    sim.spawn(crasher())
    sim.spawn(bystander(log))
    sim.run()
    assert sim.crashed
    assert log == []
    assert sim.now == 1


def test_unknown_effect_raises():
    def body():
        yield "not-an-effect"

    sim = Simulator()
    sim.spawn(body())
    with pytest.raises(SimulationError):
        sim.run()


def test_negative_delay_rejected():
    def body():
        yield Delay(-1)

    sim = Simulator()
    sim.spawn(body())
    with pytest.raises(SimulationError):
        sim.run()


def test_bare_tuple_is_not_an_effect():
    """Effects are tuple-backed, but only the effect types dispatch: a
    tuple that merely looks like ``Delay(1)`` is an unknown effect."""
    def body():
        yield (1,)

    sim = Simulator()
    sim.spawn(body())
    with pytest.raises(SimulationError, match="unknown effect"):
        sim.run()


def test_effect_subclasses_still_dispatch():
    """The exact-type fast path falls through to isinstance dispatch, so
    a subclass behaves as its base -- checks included."""
    class Pause(Delay):
        pass

    class Take(Acquire):
        pass

    class Grantor:
        def _request(self, sim, proc, mode):
            asked.append(mode)
            sim._resume(proc, "granted")

    asked, got = [], []

    def body():
        yield Pause(3)
        got.append((yield Take(Grantor(), "S")))
        got.append((yield Take(Grantor())))
        yield Pause(-1)

    sim = Simulator()
    sim.spawn(body())
    with pytest.raises(SimulationError, match="negative delay"):
        sim.run()
    assert sim.now == 3
    assert asked == ["S", "X"]
    assert got == ["granted", "granted"]


def test_effects_are_immutable_and_hashable():
    def idle():
        yield Delay(0)

    sim = Simulator()
    event = sim.event()
    proc = sim.spawn(idle())
    resource = object()
    effects = {Delay(2): ["duration"],
               Acquire(resource): ["resource", "mode"],
               Acquire(resource, "S"): ["resource", "mode"],
               Wait(event): ["event"],
               Join(proc): ["process"]}
    assert len({*effects, Delay(2), Acquire(resource, "X")}) == 5
    assert Acquire(resource).mode == "X"
    assert (Delay(2).duration, Wait(event).event, Join(proc).process) \
        == (2, event, proc)
    for effect, names in effects.items():
        for name in names + ["extra"]:
            with pytest.raises(AttributeError):
                setattr(effect, name, None)


def test_current_process_visible_during_step():
    seen = []

    def body(sim):
        seen.append(sim.current.name)
        yield Delay(0)
        seen.append(sim.current.name)

    sim = Simulator()
    sim.spawn(body(sim), name="me")
    sim.run()
    assert seen == ["me", "me"]


def test_exception_in_process_propagates():
    def body():
        yield Delay(1)
        raise ValueError("bug in process")

    sim = Simulator()
    sim.spawn(body())
    with pytest.raises(ValueError):
        sim.run()


# -- Barrier ---------------------------------------------------------------


def test_barrier_releases_when_all_arrive():
    released = []

    def party(barrier, tag, delay):
        yield Delay(delay)
        generation = yield from barrier.wait()
        released.append((tag, generation))

    sim = Simulator()
    barrier = Barrier(sim, parties=3)
    sim.spawn(party(barrier, "a", 1))
    sim.spawn(party(barrier, "b", 5))
    sim.spawn(party(barrier, "c", 3))
    sim.run()
    # nobody proceeds before the slowest party, and the rendezvous itself
    # costs no simulated time
    assert sim.now == 5
    assert sorted(released) == [("a", 1), ("b", 1), ("c", 1)]


def test_barrier_last_arrival_does_not_block():
    order = []

    def early(barrier):
        yield from barrier.wait()
        order.append("early")

    def late(barrier):
        yield Delay(2)
        yield from barrier.wait()
        order.append("late-sync")  # runs before the event wakes waiters

    sim = Simulator()
    barrier = Barrier(sim, parties=2)
    sim.spawn(early(barrier))
    sim.spawn(late(barrier))
    sim.run()
    assert order == ["late-sync", "early"]


def test_barrier_is_reusable_across_generations():
    generations = []

    def party(barrier, rounds):
        for _ in range(rounds):
            yield Delay(1)
            generations.append((yield from barrier.wait()))

    sim = Simulator()
    barrier = Barrier(sim, parties=2)
    sim.spawn(party(barrier, 3))
    sim.spawn(party(barrier, 3))
    sim.run()
    assert generations == [1, 1, 2, 2, 3, 3]
    assert barrier.generation == 3
    assert barrier.waiting == 0


def test_barrier_single_party_never_blocks():
    def body(barrier):
        first = yield from barrier.wait()
        second = yield from barrier.wait()
        return (first, second)

    sim = Simulator()
    proc = sim.spawn(body(Barrier(sim, parties=1)))
    sim.run()
    assert proc.result == (1, 2)
    assert sim.now == 0


def test_barrier_rejects_zero_parties():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Barrier(sim, parties=0)


# -- ProcessGroup ----------------------------------------------------------


def test_process_group_join_all_collects_results():
    def worker(tag, delay):
        yield Delay(delay)
        return tag

    def coordinator(sim, out):
        group = ProcessGroup(sim, name="scan")
        for tag, delay in (("a", 3), ("b", 1), ("c", 2)):
            group.spawn(worker(tag, delay))
        results = yield from group.join_all()
        out.extend(results)

    out = []
    sim = Simulator()
    sim.spawn(coordinator(sim, out))
    sim.run()
    # results come back in spawn order, not completion order
    assert out == ["a", "b", "c"]
    assert sim.now == 3


def test_process_group_member_error_is_not_swallowed():
    """A plain Python error in a group member is a bug, not a simulated
    failure: the kernel propagates it out of ``run()`` at the instant it
    fires, before the coordinator's join completes."""
    def ok():
        yield Delay(1)

    def boom(message, delay):
        yield Delay(delay)
        raise RuntimeError(message)

    def coordinator(sim, log):
        group = ProcessGroup(sim)
        group.spawn(ok())
        group.spawn(boom("worker bug", 2))
        yield from group.join_all()
        log.append("joined")  # must never run

    log = []
    sim = Simulator()
    sim.spawn(coordinator(sim, log))
    with pytest.raises(RuntimeError, match="worker bug"):
        sim.run()
    assert log == []


def test_process_group_join_all_raises_recorded_member_error():
    """``join_all`` re-raises an error recorded on a member (lowest pid
    first) even when the join itself observed only finished processes."""
    def instant():
        return None
        yield  # pragma: no cover - makes this a generator

    def coordinator(sim):
        group = ProcessGroup(sim)
        first = group.spawn(instant())
        second = group.spawn(instant())
        yield Delay(1)
        # simulate what a crashed member looks like to the group
        first.error = RuntimeError("lowest pid")
        second.error = RuntimeError("highest pid")
        yield from group.join_all()

    sim = Simulator()
    sim.spawn(coordinator(sim))
    with pytest.raises(RuntimeError, match="lowest pid"):
        sim.run()


def test_process_group_names_members():
    def worker():
        yield Delay(1)

    sim = Simulator()
    group = ProcessGroup(sim, name="merge")
    auto = group.spawn(worker())
    named = group.spawn(worker(), name="merge-custom")
    sim.run()
    assert auto.name == "merge-0"
    assert named.name == "merge-custom"
    assert len(group) == 2


def test_a_finished_process_leaves_the_process_table():
    """``processes()`` is the live set in pid order; a finished process
    keeps its result and error but drops its generator and joiners."""
    def worker(duration):
        yield Delay(duration)
        return duration

    def joiner(target):
        return (yield Join(target))

    sim = Simulator()
    short = sim.spawn(worker(5), name="short")
    long = sim.spawn(worker(12), name="long")
    waiting = sim.spawn(joiner(short), name="joiner")
    assert sim.processes() == [short, long, waiting]
    assert sim.live_processes == 3
    sim.run(until=6)
    assert sim.processes() == [long]
    assert sim.live_processes == 1
    assert (short.finished, short.result, waiting.result) == (True, 5, 5)
    assert short.body is None and short._waiters is None
    sim.run()
    assert sim.processes() == [] and sim.live_processes == 0
    assert long.result == 12 and long.body is None


@pytest.mark.parametrize("policy", [None, RandomTiePolicy(seed=0)],
                         ids=["fifo", "policy"])
def test_an_earlier_until_leaves_the_clock_alone(policy):
    """``run(until)`` never moves the clock backward, in either dispatch
    path: an ``until`` before ``now`` dispatches nothing."""
    steps = []

    def body():
        for _ in range(2):
            yield Delay(10)
            steps.append(sim.now)

    sim = Simulator()
    sim.schedule_policy = policy
    sim.spawn(body())
    sim.run(until=12)
    assert sim.now == 12 and steps == [10]
    sim.run(until=5)
    assert sim.now == 12 and steps == [10]
    sim.run()
    assert sim.now == 20 and steps == [10, 20]


# -- run to block: the in-place path keeps the yield path's contract ---------


def delay(sim, cost, in_place=True):
    """The hot sites' idiom; ``in_place=False`` is the yield path."""
    if not (in_place and sim.delayed(cost)):
        yield Delay(cost)


def acquire(sim, resource, mode="X", in_place=True):
    if not (in_place and sim.acquired(resource, mode)):
        yield Acquire(resource, mode)


def latched_steps(sim, latch, in_place, log, costs=(1, 0.5, 2)):
    for cost in costs:
        yield from acquire(sim, latch, "X", in_place)
        yield from delay(sim, cost, in_place)
        latch.release(sim.current)
        log.append((sim.current.name, sim.now, sim._seq))


def test_in_place_effects_keep_the_seq_and_clock_of_the_yield_path():
    """A lone process finishes its grants and delays without a dispatch,
    with the sequence numbers and clock the queue would have given."""
    runs = []
    for in_place in (True, False):
        sim, latch, log, dispatched = Simulator(), Latch("p"), [], []
        step = sim._step

        def counted_step(*args):
            dispatched.append(args[0].name)
            step(*args)

        sim._step = counted_step
        sim.spawn(latched_steps(sim, latch, in_place, log), name="p")
        sim.run()
        runs.append((log, sim.now, sim._seq, len(dispatched)))
    (log, now, seq, steps), (yield_log, yield_now, yield_seq, yield_steps) \
        = runs
    assert (log, now, seq) == (yield_log, yield_now, yield_seq)
    assert log == [("p", 1.0, 3), ("p", 1.5, 5), ("p", 3.5, 7)]
    assert (steps, yield_steps) == (1, 7)


def test_a_negative_in_place_delay_raises():
    sim = Simulator()
    sim.spawn(delay(sim, -1))
    with pytest.raises(SimulationError, match="negative delay"):
        sim.run()


def test_in_place_delays_stop_at_run_until():
    """An in-place delay never carries the clock past ``run(until)``, so
    a run in slices equals one continuous run."""
    def ticker(sim, name, cost, log):
        for _ in range(4):
            yield from delay(sim, cost)
            log.append((name, sim.now, sim._seq))

    def run(slices):
        sim, log = Simulator(), []
        sim.spawn(ticker(sim, "a", 3, log), name="a")
        sim.spawn(ticker(sim, "b", 5, log), name="b")
        for until in slices:
            sim.run(until=until)
            assert sim.now <= until
        sim.run()
        return log, sim.now, sim._seq

    assert run([7, 7.5, 13, 14.9]) == run([])
    sim, log = Simulator(), []
    sim.spawn(ticker(sim, "a", 3, log), name="a")
    sim.run(until=7)
    assert sim.now == 7 and log == [("a", 3.0, 2), ("a", 6.0, 3)]


def test_an_int_clock_is_stamped_as_the_heaps_float():
    """``run(until=<int>)`` leaves an int clock; every later stamp is
    the float the heap would have written, in place or not."""
    runs = []
    for in_place in (True, False):
        sim, latch, stamps = Simulator(), Latch("p"), []

        def body():
            yield from acquire(sim, latch, "X", in_place)
            stamps.append((sim.now, type(sim.now)))
            yield from delay(sim, 2, in_place)
            stamps.append((sim.now, type(sim.now)))

        sim.spawn(delay(sim, 10, False))
        sim.run(until=5)
        assert type(sim.now) is int
        sim.spawn(body())
        sim.run()
        runs.append(stamps)
    assert runs[0] == runs[1] == [(5.0, float), (7.0, float)]


def test_a_same_instant_peer_forces_the_yield():
    """A process spawned or woken at this instant, or an entry due at the
    target, runs first: the in-place path declines and requests nothing,
    and the order is the yield path's."""
    runs = []
    for in_place in (True, False):
        sim, latch, order = Simulator(), Latch("p"), []
        event = sim.event()

        def waiter():
            yield Wait(event)
            order.append(("waiter", sim.now))

        def peer(cost):
            order.append(("peer", sim.now))
            yield Delay(cost)
            order.append(("peer", sim.now))

        def body():
            sim.spawn(peer(0), name="spawned")
            assert not sim.delayed(0) and not sim.acquired(latch)
            assert not latch.held and not latch.busy
            yield from delay(sim, 0, in_place)
            order.append(("body", sim.now))
            event.set()
            assert not sim.acquired(latch) and not latch.held
            yield from acquire(sim, latch, "X", in_place)
            order.append(("body", sim.now))
            latch.release(sim.current)
            sim.spawn(peer(4), name="due")
            yield Delay(0)          # the peer queues its entry at 4
            assert not sim.delayed(4)
            yield from delay(sim, 4, in_place)
            order.append(("body", sim.now, sim._seq))
            yield from delay(sim, 1, in_place)  # nobody queued any more
            order.append(("body", sim.now, sim._seq))

        sim.spawn(waiter(), name="waiter")
        sim.spawn(body(), name="body")
        sim.run()
        runs.append(order)
    assert runs[0] == runs[1]
    assert runs[0][-3:] == [("peer", 4.0), ("body", 4.0, 11),
                            ("body", 5.0, 12)]


def test_a_schedule_policy_turns_the_path_off_and_replays_unchanged(
        monkeypatch):
    """Under a policy every effect goes through a consult; a recorded
    choice-string replays, and equals the one the yield path records."""

    def run(policy):
        sim, latch, log = Simulator(), Latch("p"), []
        sim.schedule_policy = policy
        for name, costs in (("a", (1, 2, 1)), ("b", (2, 1, 1)),
                            ("c", (1, 1, 2))):
            sim.spawn(latched_steps(sim, latch, True, log, costs),
                      name=name)
        sim.run()
        return log, sim.now, sim._seq

    sim, seen = Simulator(), []
    sim.schedule_policy = FifoPolicy()

    def lone():
        seen.append(sim.delayed(1))
        seen.append(sim.acquired(Latch("q")))
        yield Delay(0)

    sim.spawn(lone())
    sim.run()
    assert seen == [False, False] and sim._seq == 2

    explored = RandomTiePolicy(seed=3, preempt_prob=0.3)
    outcome = run(explored)
    choices = explored.recorder.choice_string()
    assert choices
    replay = ReplayPolicy(choices)
    assert run(replay) == outcome
    assert replay.recorder.choice_string() == choices
    monkeypatch.setattr(Simulator, "delayed", lambda self, duration: False)
    monkeypatch.setattr(Simulator, "acquired",
                        lambda self, resource, mode="X": False)
    explored_by_yields = RandomTiePolicy(seed=3, preempt_prob=0.3)
    assert run(explored_by_yields) == outcome
    assert explored_by_yields.recorder.choice_string() == choices


def test_an_armed_kernel_step_crash_fires_at_the_same_hit():
    runs = []
    for in_place in (True, False):
        sim, latch, log = Simulator(), Latch("p"), []
        injector = FaultInjector(FaultPlan("kernel.step.builder", hit=4))
        sim.fault_injector = injector
        sim.spawn(latched_steps(sim, latch, in_place, log), name="builder")
        sim.run()
        assert sim.crashed and injector.fired is not None
        runs.append((log, sim.now, sim._seq, dict(injector.hits),
                     str(sim.crash_error), latch.held))
    assert runs[0] == runs[1]
    # the fourth step is the second grant: the crash lands holding it
    assert runs[0][:4] == ([("builder", 1.0, 3)], 1.0, 4,
                           {"kernel.step.builder": 4})
    assert runs[0][5]
