"""Latches: cheap short-duration S/X synchronisation on pages.

Section 1.1 of the paper: "A latch is like a semaphore and it is very cheap
in terms of instructions executed.  It provides physical consistency of the
data when a page is being examined.  Readers of the page acquire a share
(S) latch, while updaters acquire an exclusive (X) latch."

The latch implements the :class:`repro.sim.kernel.Acquire` resource
protocol.  Grant policy is FIFO with share grouping: a share request joins
current share holders only if no exclusive request is already queued, which
prevents writer starvation (the policy used by industrial latch
implementations and assumed by the paper's hold-time arguments).

Latch acquisitions and waits are counted in the owning system's metrics
registry so experiments can report latch traffic (section 2.3.1: "This
saves the pathlength of lock and unlock").
"""

from __future__ import annotations

from collections import deque
from typing import Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Process, Simulator

SHARE = "S"
EXCLUSIVE = "X"


class Latch:
    """A share/exclusive latch with FIFO grant order.

    Most latches are never waited for or named (a page's stable image is
    not even latched): the first waiter makes the queue (``None`` reads
    as empty) and the name is formatted when somebody asks.
    """

    __slots__ = ("_kind", "_ident", "metrics", "_holders", "_mode",
                 "_waiters", "_sim")

    def __init__(self, kind: str, ident: object = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self._kind = kind
        self._ident = ident
        self.metrics = metrics
        self._holders: dict["Process", int] = {}
        self._mode: Optional[str] = None
        self._waiters: Optional[deque[tuple["Process", str, float]]] = None
        self._sim: Optional["Simulator"] = None

    @property
    def name(self) -> str:
        return self._kind if self._ident is None \
            else f"{self._kind}:{self._ident}"

    @property
    def busy(self) -> bool:
        """True while any process holds or awaits this latch.

        The buffer pool consults this before evicting a page: a busy
        latch means some process already holds a reference to the page
        object and is (or is about to be) examining or updating it, so
        replacing the frame would strand that process on a zombie copy.
        """
        return bool(self._holders or self._waiters)

    # -- kernel resource protocol ----------------------------------------

    def _request(self, sim: "Simulator", proc: "Process", mode: str,
                 wait: bool = True) -> bool:
        """Grant now (True: the caller resumes ``proc``) or queue."""
        if mode not in (SHARE, EXCLUSIVE):
            raise SimulationError(f"bad latch mode {mode!r}")
        # A free latch is the common case and needs no _grantable call:
        # with no holder there is no re-acquire to refuse.
        granted = self._mode is None or self._grantable(proc, mode)
        if not (granted or wait):
            return False
        self._sim = sim
        if self.metrics is not None:
            self.metrics.counters["latch.requests"] += 1
        if granted:
            self._holders[proc] = 1
            self._mode = mode
            return True
        if self.metrics is not None:
            self.metrics.incr("latch.waits")
        if self._waiters is None:
            self._waiters = deque()
        self._waiters.append((proc, mode, sim.now))
        return False

    # -- grant logic -------------------------------------------------------

    def _grantable(self, proc: "Process", mode: str) -> bool:
        if proc in self._holders:
            raise SimulationError(
                f"process {proc.name!r} re-acquiring latch {self.name!r}")
        if self._mode is None:
            return True
        if mode == SHARE and self._mode == SHARE:
            # Share joins shares only if no exclusive request is queued.
            return not any(m == EXCLUSIVE
                           for _p, m, _t in self._waiters or ())
        return False

    def _grant(self, proc: "Process", mode: str) -> None:
        self._holders[proc] = 1
        self._mode = mode

    def release(self, proc: Optional["Process"]) -> None:
        """Release the latch held by ``proc`` and wake eligible waiters.

        ``proc`` may be None when a crashed process's generator is being
        garbage-collected (its ``finally`` blocks run outside any kernel
        step); the latch is volatile state at that point, so the release
        is best-effort and silent.
        """
        if proc is None:
            # Drain every holder that has already finished (the crashed
            # or errored process's generator is being GC'd, possibly
            # after several holders died in the same schedule), then fall
            # back to popping one arbitrary holder so the release is
            # never a silent no-op.  Crucially, if the latch frees up,
            # surviving queued processes must be woken -- otherwise they
            # hang forever, which schedule sweeps observe as a lost
            # wakeup.
            if self._holders:
                dead = [p for p in self._holders if p.finished]
                if dead:
                    for p in dead:
                        del self._holders[p]
                else:
                    self._holders.pop(next(iter(self._holders)))
                if not self._holders:
                    self._mode = None
                    self._wake_waiters()
            return
        if proc not in self._holders:
            raise SimulationError(
                f"process {proc.name!r} releasing latch {self.name!r} "
                "it does not hold")
        del self._holders[proc]
        if self._holders:
            return  # other share holders remain
        self._mode = None
        if self._waiters:
            self._wake_waiters()

    def _wake_waiters(self) -> None:
        if self._sim is None or not self._waiters:
            return
        # Drop waiters that died (crashed/errored) while queued: granting
        # to a finished process would hold the latch forever because the
        # kernel never dispatches it again to release.
        while self._waiters and self._waiters[0][0].finished:
            self._waiters.popleft()
        if not self._waiters:
            return
        proc, mode, queued_at = self._waiters[0]
        if mode == EXCLUSIVE:
            self._waiters.popleft()
            self._record_wait(queued_at)
            self._grant(proc, EXCLUSIVE)
            self._sim._resume(proc, self)
            return
        # Grant the whole leading run of share requests.
        while self._waiters and self._waiters[0][1] == SHARE:
            proc, _mode, queued_at = self._waiters.popleft()
            if proc.finished:
                continue
            self._record_wait(queued_at)
            self._grant(proc, SHARE)
            self._sim._resume(proc, self)

    def _record_wait(self, queued_at: float) -> None:
        if self.metrics is not None and self._sim is not None:
            self.metrics.observe("latch.wait_time", self._sim.now - queued_at)

    # -- introspection -----------------------------------------------------

    @property
    def held(self) -> bool:
        return bool(self._holders)

    def held_by(self, proc: "Process") -> bool:
        return proc in self._holders

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Latch {self.name!r} mode={self._mode} "
                f"holders={len(self._holders)} "
                f"waiters={len(self._waiters or ())}>")


