"""IB admission control: a token bucket on the simulated clock.

The paper's online builders remove the *correctness* reason to quiesce
updates, but an unthrottled IB still competes with foreground
transactions for page latches, locks, and the log -- the query-update
tradeoff formalized by Yi (PAPERS.md).  Production systems therefore
rate-limit utility work.  :class:`TokenBucket` implements the classic
deficit bucket against the discrete-event clock:

* ``rate`` tokens accrue per simulated time unit, capped at ``burst``;
* :meth:`acquire` debits one batch's cost and, when the bucket runs
  dry, yields a single ``Delay`` exactly long enough to repay the
  deficit -- so a throttled builder's long-run work rate converges to
  ``rate`` work items per time unit regardless of batch sizes.

Builders call :meth:`repro.core.base.BuilderBase._throttle` (which
wraps one shared bucket per build) at batch boundaries: scan prefetch
batches, NSF insert batches, SF bulk-load batches, side-file drain
batches, and each PSF shard worker's prefetch batches.  The shared
bucket means a parallel build's *total* rate is limited, not each
shard's.

Determinism: the bucket reads only the simulator clock, and an
unthrottled build (``SystemConfig.build_rate_limit is None``) never
constructs one -- the ``_throttle`` helper then yields nothing at all,
leaving the schedule byte-identical to pre-throttle builds.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.kernel import Delay, Simulator


class TokenBucket:
    """Deficit token bucket keyed to a :class:`Simulator` clock."""

    def __init__(self, sim: Simulator, rate: float,
                 burst: Optional[float] = None) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate!r}")
        self.sim = sim
        self.rate = float(rate)
        #: at most one time unit of work may pass un-delayed after an
        #: idle period (plus whatever single batch overdraws the bucket)
        self.burst = float(burst) if burst is not None \
            else max(1.0, self.rate)
        self.tokens = self.burst
        self._last_refill = sim.now

    def _refill(self) -> None:
        now = self.sim.now
        if now > self._last_refill:
            self.tokens = min(
                self.burst,
                self.tokens + (now - self._last_refill) * self.rate)
            self._last_refill = now

    def acquire(self, cost: float):
        """Generator: debit ``cost`` work items; pay off any deficit.

        Debits first, then delays -- a single batch larger than the
        burst capacity still goes through, it just waits proportionally
        longer.  Callers from concurrent processes (PSF shard workers)
        each repay their own overdraft, so the shared bucket bounds the
        build's aggregate rate.
        """
        self._refill()
        self.tokens -= cost
        if self.tokens < 0:
            yield Delay(-self.tokens / self.rate)
            self._refill()
