"""Schedule-exploration sweep: adversarial interleavings of the build.

Crash plans (:mod:`repro.faultinject`) prove the algorithms recover
from a failure at every instant; the policies here let
:mod:`repro.sweep` prove they are *correct under every interleaving*
the kernel could legally produce -- the claim sections 1.2, 2.1, and
3.1 of the paper actually make.  Seeded
:class:`~repro.schedsweep.policy.RandomTiePolicy` objects perturb the
kernel's same-timestamp ready-queue ties and inject bounded preemptions
at yield points; every choice is recorded as a compact choice-string
(:mod:`repro.schedsweep.recorder`) so a failing schedule replays
deterministically (:class:`~repro.schedsweep.policy.ReplayPolicy`).
:func:`~repro.schedsweep.oracle.check_run` is the full oracle every
non-crashed sweep run must pass.

Entry point: ``python -m repro.sweep schedule``.
"""

from repro.schedsweep.oracle import check_run
from repro.schedsweep.policy import (
    FifoPolicy,
    RandomTiePolicy,
    ReplayMismatch,
    ReplayPolicy,
    SchedulePolicy,
)
from repro.schedsweep.recorder import (
    ChoiceRecorder,
    parse_choice_string,
)

__all__ = [
    "ChoiceRecorder",
    "FifoPolicy",
    "RandomTiePolicy",
    "ReplayMismatch",
    "ReplayPolicy",
    "SchedulePolicy",
    "check_run",
    "parse_choice_string",
]
