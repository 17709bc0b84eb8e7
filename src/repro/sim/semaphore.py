"""Counting semaphore: a FIFO-fair pool of N interchangeable units.

Implements the :class:`repro.sim.kernel.Acquire` resource protocol like
:class:`repro.sim.latch.Latch`, but grants up to ``capacity`` concurrent
holders regardless of mode.  The first use is the shared-disk model
(:attr:`repro.system.SystemConfig.disk_channels`): each buffer-pool page
I/O holds one channel for its duration, so concurrent I/Os queue the way
they would on a real device with ``capacity`` independent spindles.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Process, Simulator


class Semaphore:
    """``capacity`` units granted FIFO; one holder may hold one unit."""

    __slots__ = ("name", "capacity", "metrics", "_holders", "_waiters",
                 "_sim")

    def __init__(self, name: str, capacity: int,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if capacity < 1:
            raise SimulationError(
                f"semaphore {name!r} needs capacity >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self.metrics = metrics
        self._holders: dict["Process", int] = {}
        self._waiters: deque[tuple["Process", float]] = deque()
        self._sim: Optional["Simulator"] = None

    # -- kernel resource protocol ----------------------------------------

    def _request(self, sim: "Simulator", proc: "Process", mode: str,
                 wait: bool = True) -> bool:
        """Grant now (True: the caller resumes ``proc``) or queue."""
        if proc in self._holders:
            raise SimulationError(
                f"process {proc.name!r} re-acquiring semaphore "
                f"{self.name!r}")
        granted = len(self._holders) < self.capacity and not self._waiters
        if not (granted or wait):
            return False
        self._sim = sim
        if self.metrics is not None:
            self.metrics.incr(f"semaphore.{self.name}.requests")
        if granted:
            self._holders[proc] = 1
            return True
        if self.metrics is not None:
            self.metrics.incr(f"semaphore.{self.name}.waits")
        self._waiters.append((proc, sim.now))
        return False

    def release(self, proc: Optional["Process"]) -> None:
        """Release ``proc``'s unit and grant the next waiter.

        ``proc`` may be None when a crashed process's generator is GC'd
        (mirrors :meth:`repro.sim.latch.Latch.release`).
        """
        if proc is None:
            dead = [p for p in self._holders if p.finished]
            for p in dead or list(self._holders)[:1]:
                del self._holders[p]
            self._wake_waiters()
            return
        if proc not in self._holders:
            raise SimulationError(
                f"process {proc.name!r} releasing semaphore "
                f"{self.name!r} it does not hold")
        del self._holders[proc]
        self._wake_waiters()

    def _wake_waiters(self) -> None:
        if self._sim is None:
            return
        while self._waiters and len(self._holders) < self.capacity:
            proc, queued_at = self._waiters.popleft()
            if proc.finished:
                continue  # died (crash/error) while queued
            if self.metrics is not None:
                self.metrics.observe(
                    f"semaphore.{self.name}.wait_time",
                    self._sim.now - queued_at)
            self._holders[proc] = 1
            self._sim._resume(proc, self)

    # -- introspection -----------------------------------------------------

    @property
    def in_use(self) -> int:
        return len(self._holders)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Semaphore {self.name!r} {len(self._holders)}/"
                f"{self.capacity} waiters={len(self._waiters)}>")
