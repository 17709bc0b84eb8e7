"""Deterministic discrete-event simulation kernel.

The paper evaluates NSF and SF inside a multi-threaded mainframe DBMS.  A
faithful Python reproduction cannot use OS threads (the GIL serialises them
and makes interleavings non-deterministic), so concurrency is modelled with
generator-based *processes* driven by an event-driven scheduler over a
simulated clock.

A process is a generator function.  It interacts with the kernel by
yielding *effects*:

``Delay(duration)``
    Suspend for ``duration`` units of simulated time (models CPU or I/O
    cost).
``Acquire(resource, mode)``
    Block until the resource (latch, lock queue, ...) grants the request.
``Wait(event)``
    Block until :meth:`SimEvent.set` is called.  Yields the value passed to
    ``set``.
``Join(process)``
    Block until the given process finishes; yields its return value.

Sub-routines compose with ``yield from``.  Everything a process does
between two points where another process may run is atomic, exactly like
the instruction sequences the paper protects with latches; the latches
still matter because processes deliberately *yield between* extraction
and insertion steps, reproducing the races of section 1.2.

Run to block: a hot site asks ``sim.delayed(cost)`` or
``sim.acquired(latch, mode)`` before it yields; when the running process
would be resumed next anyway, the effect is done in place with the
``_seq``, clock and injector step its dispatch would have had.

Determinism: ties in the event queue are broken by a monotonically
increasing sequence number, so two runs with the same seed produce
identical schedules.

Schedule exploration: the FIFO tie-break is only *one* of the legal
schedules; the paper's correctness arguments (sections 1.2, 2.1, 3.1)
quantify over every interleaving.  :attr:`Simulator.schedule_policy`
accepts a policy object with a single method::

    choose(time, procs, can_defer) -> int

called once per dispatch with the processes runnable at the current
instant, in FIFO order.  Returning an index in ``[0, len(procs))`` picks
that candidate (0 = the default FIFO choice); returning a negative value
*preempts* the FIFO head -- it is deferred behind every other event at
the next occupied instant, modelling an OS-level preemption at a yield
point.  Preemption is only honoured when ``can_defer`` is true, and a
policy must bound how often it preempts or the loop cannot make
progress.  Policies therefore perturb only same-timestamp ties and
bounded preemptions: every produced schedule is one a real scheduler
could have produced.  With no policy installed (or the FIFO default from
:mod:`repro.schedsweep.policy`), schedules are byte-identical to the
historical kernel.
"""

from __future__ import annotations

import heapq
from typing import Any, Generator, NamedTuple, Optional

from repro.errors import SimulationError, SystemCrash

ProcessBody = Generator[Any, Any, Any]


# Effects are named tuples: immutable and hashable like the frozen
# dataclasses they replace, but built by one tuple allocation -- a
# process makes one per yield.  A bare tuple is still not an effect.


class Delay(NamedTuple):
    """Suspend the yielding process for ``duration`` simulated time units."""

    duration: float


class Wait(NamedTuple):
    """Suspend until the event is set; resumes with the event's value."""

    event: "SimEvent"


class Join(NamedTuple):
    """Suspend until ``process`` completes; resumes with its return value."""

    process: "Process"


class Acquire(NamedTuple):
    """Blocking request for ``resource`` in ``mode`` ("S" or "X")."""

    resource: Any
    mode: str = "X"


class Process:
    """A running simulated process (transaction, index builder, driver)."""

    __slots__ = ("name", "body", "pid", "finished", "result", "error",
                 "_waiters")

    def __init__(self, name: str, body: ProcessBody, pid: int) -> None:
        self.name = name
        #: the generator, and the processes joined on it, until it
        #: finishes; both are None after
        self.body: Optional[ProcessBody] = body
        self.pid = pid
        self.finished = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._waiters: Optional[list[Process]] = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.finished else "live"
        return f"<Process {self.pid} {self.name!r} {state}>"


class SimEvent:
    """A one-shot signal processes can wait on.

    ``set(value)`` wakes every waiter; waiting on an already-set event
    resumes immediately with the stored value.
    """

    __slots__ = ("_sim", "is_set", "value", "_waiters")

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        self.is_set = False
        self.value: Any = None
        self._waiters: list[Process] = []

    def set(self, value: Any = None) -> None:
        if self.is_set:
            return
        self.is_set = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self._sim._resume(proc, value)

    def _register(self, proc: Process) -> bool:
        """Park ``proc``; return True if it must wait (event not yet set)."""
        if self.is_set:
            return False
        self._waiters.append(proc)
        return True


class Barrier:
    """A reusable synchronization point for ``parties`` processes.

    Each participant runs ``yield from barrier.wait()``; the first
    ``parties - 1`` arrivals block, and the last arrival releases the
    whole generation at the current simulated instant (nobody pays extra
    simulated time for the rendezvous itself).  The barrier then resets,
    so successive phases of the same process group can reuse it.

    ``wait()`` returns the 1-based generation number that was released,
    which callers can use to assert phase alignment.
    """

    __slots__ = ("_sim", "parties", "generation", "_arrived", "_event")

    def __init__(self, sim: "Simulator", parties: int) -> None:
        if parties < 1:
            raise SimulationError(f"barrier needs >= 1 party, got {parties}")
        self._sim = sim
        self.parties = parties
        #: completed generations (a generation completes when the last
        #: party arrives)
        self.generation = 0
        self._arrived = 0
        self._event = sim.event()

    @property
    def waiting(self) -> int:
        """Parties currently blocked at the barrier."""
        return self._arrived

    def wait(self):
        """Generator: arrive at the barrier; resume when all parties have."""
        self._arrived += 1
        if self._arrived >= self.parties:
            # Last arrival: release this generation and reset for reuse.
            self._arrived = 0
            self.generation += 1
            event, self._event = self._event, self._sim.event()
            event.set(self.generation)
            return self.generation
        generation = yield Wait(self._event)
        return generation


class ProcessGroup:
    """Spawn-and-join bookkeeping for one parallel phase.

    Groups the worker processes of a fan-out (e.g. the partition scanners
    of a parallel index build) so the coordinator can join them all and
    propagate the first worker error deterministically (lowest pid first)
    instead of relying on the simulator's global failure behaviour.
    """

    __slots__ = ("_sim", "name", "processes")

    def __init__(self, sim: "Simulator", name: str = "group") -> None:
        self._sim = sim
        self.name = name
        self.processes: list[Process] = []

    def spawn(self, body: ProcessBody, name: Optional[str] = None
              ) -> Process:
        proc = self._sim.spawn(
            body, name=name or f"{self.name}-{len(self.processes)}")
        self.processes.append(proc)
        return proc

    def __len__(self) -> int:
        return len(self.processes)

    def join_all(self):
        """Generator: wait for every member; raise the first error seen."""
        for proc in self.processes:
            yield Join(proc)
        for proc in self.processes:
            if proc.error is not None:
                raise proc.error
        return [proc.result for proc in self.processes]


class Simulator:
    """Event-driven scheduler over a simulated clock."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Process, Any, bool]] = []
        self._seq = 0
        self._pid = 0
        self.crashed = False
        self.crash_error: Optional[SystemCrash] = None
        #: The process currently executing between two yields.  Code called
        #: synchronously from a process body may read this to identify the
        #: caller (e.g. for latch ownership).
        self.current: Optional[Process] = None
        #: Installed fault injector (see :mod:`repro.faultinject`); when
        #: set, it is consulted before every dispatch of a watched process
        #: so a crash can land on any scheduler step.
        self.fault_injector: Optional[Any] = None
        #: Installed schedule policy (see module docstring).  None keeps
        #: the historical FIFO dispatch byte-for-byte.
        self.schedule_policy: Optional[Any] = None
        #: the live processes by pid, in spawn order; a process leaves
        #: when it finishes, so the run holds only what is still running
        self._processes: dict[int, Process] = {}
        self._until = float("inf")  # the running run()'s bound

    # -- spawning -------------------------------------------------------

    def spawn(self, body: ProcessBody, name: str = "proc") -> Process:
        """Register a new process; it first runs when the loop reaches it."""
        self._pid += 1
        proc = Process(name, body, self._pid)
        self._processes[proc.pid] = proc
        self._schedule(proc, delay=0.0, value=None)
        return proc

    @property
    def live_processes(self) -> int:
        """Processes spawned and not yet finished."""
        return len(self._processes)

    def processes(self) -> list[Process]:
        """The live processes, in spawn (pid) order."""
        return list(self._processes.values())

    def event(self) -> SimEvent:
        """Create a new unset :class:`SimEvent`."""
        return SimEvent(self)

    # -- internal scheduling -------------------------------------------

    def _schedule(self, proc: Process, delay: float, value: Any,
                  throw: bool = False) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, self._seq, proc,
                                     value, throw))

    def _resume(self, proc: Process, value: Any = None) -> None:
        """Make a blocked process runnable at the current time."""
        # _schedule(proc, 0.0, value), inlined: every latch, lock,
        # semaphore and event grant comes through here.  The "+ 0.0" is
        # _schedule's too -- run(until=<int>) leaves an int clock, and the
        # entry's time has always been a float.
        self._seq += 1
        heapq.heappush(self._queue, (self.now + 0.0, self._seq, proc,
                                     value, False))

    # -- run to block (module docstring; DESIGN.md section 5) -----------

    def delayed(self, duration: float) -> bool:
        """Do ``Delay(duration)`` in place if the running process would
        be resumed next; False: yield it."""
        if duration < 0:
            raise SimulationError(f"negative delay {duration!r}")
        now = self.now + duration
        queue = self._queue
        if self.schedule_policy is None and self.current is not None \
                and now <= self._until and (not queue or queue[0][0] > now):
            self._seq += 1
            self.now = now
            if self.fault_injector is not None:
                self._kernel_step()
            return True
        return False

    def acquired(self, resource: Any, mode: str = "X") -> bool:
        """Grant ``resource`` in place by its own rule if the running
        process would be resumed next; False: yield the ``Acquire``."""
        now = self.now + 0.0  # a step's clock is within run(until)
        queue = self._queue
        if self.schedule_policy is None and self.current is not None \
                and (not queue or queue[0][0] > now) \
                and resource._request(self, self.current, mode, False):
            self._seq += 1
            self.now = now
            if self.fault_injector is not None:
                self._kernel_step()
            return True
        return False

    def _kernel_step(self) -> None:  # the dispatch's; a crash raises here
        crash = self.fault_injector.kernel_step(self.current)
        if crash is not None:
            raise crash

    def _throw(self, proc: Process, error: BaseException) -> None:
        """Make a blocked process resume by raising ``error`` inside it."""
        self._schedule(proc, delay=0.0, value=error, throw=True)

    # -- main loop ------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Dispatch events until the queue drains, crash, or ``until``.

        Raises nothing on a simulated crash: the kernel stops, sets
        :attr:`crashed`, and the caller inspects surviving stable storage.
        A Python error inside a process propagates (it is a bug, not a
        simulated failure) -- except :class:`SystemCrash`.  An ``until``
        already in the past dispatches nothing: the clock never runs back.
        """
        if until is not None and until < self.now:
            return
        self._until = float("inf") if until is None else until
        while self._queue:
            if self.schedule_policy is not None:
                entry = self._pop_with_policy(until)
                if entry is None:
                    return
                time, _seq, proc, value, throw = entry
            else:
                entry = heapq.heappop(self._queue)
                if until is not None and entry[0] > until:
                    # Put it back *unchanged* so a later run() continues
                    # from here.  The original sequence number must be
                    # preserved: re-stamping it would reorder this event
                    # behind same-timestamp peers still in the queue,
                    # making run-in-slices diverge from one continuous
                    # run().
                    heapq.heappush(self._queue, entry)
                    self.now = until
                    return
                time, _seq, proc, value, throw = entry
            self.now = time
            if proc.finished:
                continue
            self._step(proc, value, throw)
            if self.crashed:
                return

    def _pop_with_policy(self, until: Optional[float]):
        """Pop the next event, letting :attr:`schedule_policy` choose
        among same-timestamp ties.

        Returns the chosen queue entry, or None when the ``until``
        boundary (or an all-dead queue) stops this run() call.  Unchosen
        tied entries go back with their original sequence numbers, so
        FIFO order among them is preserved; a preempted FIFO head is
        re-stamped at the next occupied instant.
        """
        policy = self.schedule_policy
        while self._queue:
            head_time = self._queue[0][0]
            if until is not None and head_time > until:
                self.now = until
                return None
            batch = []
            while self._queue and self._queue[0][0] == head_time:
                batch.append(heapq.heappop(self._queue))
            live = [e for e in batch if not e[2].finished]
            if not live:
                # Parity with the unhooked loop: the clock advances over
                # events addressed to finished processes.
                self.now = head_time
                continue
            can_defer = bool(self._queue) or len(live) > 1
            choice = policy.choose(head_time, [e[2] for e in live],
                                   can_defer)
            if choice < 0 and can_defer:
                # Preempt the FIFO head: defer it to the next occupied
                # instant (or behind its same-time peers), where it joins
                # that batch's tie-break.
                deferred = live[0]
                for e in live[1:]:
                    heapq.heappush(self._queue, e)
                target = self._queue[0][0] if self._queue else head_time
                self._seq += 1
                heapq.heappush(self._queue, (target, self._seq,
                                             deferred[2], deferred[3],
                                             deferred[4]))
                continue
            chosen = live[choice] if 0 <= choice < len(live) else live[0]
            for e in live:
                if e is not chosen:
                    heapq.heappush(self._queue, e)
            return chosen
        return None

    def _step(self, proc: Process, value: Any, throw: bool) -> None:
        if self.fault_injector is not None and not throw:
            crash = self.fault_injector.kernel_step(proc)
            if crash is not None:
                value, throw = crash, True
        self.current = proc
        try:
            if throw:
                effect = proc.body.throw(value)
            else:
                effect = proc.body.send(value)
        except StopIteration as stop:
            self._finish(proc, result=stop.value)
            return
        except SystemCrash as crash:
            self.crashed = True
            self.crash_error = crash
            self._finish(proc, error=crash)
            return
        except BaseException as error:
            # A Python error is a bug, not a simulated failure: it still
            # propagates out of run(), but the process must be finished
            # with the error recorded first so joiners see the failure
            # (thrown into them by _finish) instead of hanging forever or
            # silently resuming with result=None.
            self._finish(proc, error=error)
            raise
        finally:
            self.current = None
        # The two effects nearly every yield carries, by exact type;
        # _dispatch decides everything else, subclasses of these included.
        kind = type(effect)
        if kind is Delay:
            duration = effect.duration
            if duration < 0:
                raise SimulationError(f"negative delay {duration!r}")
            self._seq += 1
            heapq.heappush(self._queue, (self.now + duration, self._seq,
                                         proc, None, False))
        elif kind is Acquire:
            if effect.resource._request(self, proc, effect.mode):
                self._resume(proc, effect.resource)
        else:
            self._dispatch(proc, effect)

    def _dispatch(self, proc: Process, effect: Any) -> None:
        if isinstance(effect, Delay):
            self._schedule(proc, delay=effect.duration, value=None)
        elif isinstance(effect, Acquire):
            if effect.resource._request(self, proc, effect.mode):
                self._resume(proc, effect.resource)
        elif isinstance(effect, Wait):
            if not effect.event._register(proc):
                self._resume(proc, effect.event.value)
        elif isinstance(effect, Join):
            target = effect.process
            if target.finished:
                if target.error is not None:
                    # The target already died with an error: a bare Join
                    # must surface it, not yield result=None.
                    self._throw(proc, target.error)
                else:
                    self._resume(proc, target.result)
            else:
                target._waiters.append(proc)
        else:
            raise SimulationError(
                f"process {proc.name!r} yielded unknown effect {effect!r}")

    def _finish(self, proc: Process, result: Any = None,
                error: Optional[BaseException] = None) -> None:
        proc.finished = True
        proc.result = result
        proc.error = error
        del self._processes[proc.pid]
        waiters = proc._waiters
        proc.body = proc._waiters = None
        for waiter in waiters:
            if error is not None:
                # Throw the failure into every joiner.  ProcessGroup's
                # join_all keeps its lowest-pid-first semantics because
                # it joins members in spawn order.
                self._throw(waiter, error)
            else:
                self._resume(waiter, result)

