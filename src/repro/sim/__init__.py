"""Deterministic discrete-event concurrency kernel.

See :mod:`repro.sim.kernel` for the process/effect model and
:mod:`repro.sim.latch` for S/X latches.
"""

from repro.sim.kernel import (
    Acquire,
    Barrier,
    Delay,
    Join,
    Process,
    ProcessGroup,
    SimEvent,
    Simulator,
    Wait,
)
from repro.sim.latch import EXCLUSIVE, SHARE, Latch

__all__ = [
    "Acquire",
    "Barrier",
    "Delay",
    "Join",
    "Process",
    "ProcessGroup",
    "SimEvent",
    "Simulator",
    "Wait",
    "EXCLUSIVE",
    "SHARE",
    "Latch",
]
