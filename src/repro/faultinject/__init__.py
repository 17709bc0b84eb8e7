"""Deterministic fault injection.

``injector``
    :class:`FaultPlan` / :class:`FaultInjector`: arm one crash, torn
    page write, or lost buffer flush at the N-th hit of a named site.
``sites``
    :func:`fault_point` and the site registry -- instrumented subsystems
    (kernel, WAL, buffer pool, B+-tree, side-file, both builders) call
    this to publish countable crash points through the metrics registry.

The sweep driver that discovers every reachable (site, hit) pair, replays
the build once per pair with a fault armed and proves restart + audit is
:mod:`repro.sweep` (``python -m repro.sweep crash``); it imports the full
system stack, while this package holds only the leaf modules so that
low-level code can depend on ``sites`` without cycles.
"""

from repro.faultinject.injector import (
    CRASH,
    FaultInjector,
    FaultPlan,
    FiredFault,
    InjectedCrash,
    KINDS,
    LOST_FLUSH,
    TORN_WRITE,
)
from repro.faultinject.sites import (
    LOST_CAPABLE,
    SITE_DOCS,
    TORN_CAPABLE,
    fault_point,
    fault_points_enabled,
)

__all__ = [
    "CRASH",
    "TORN_WRITE",
    "LOST_FLUSH",
    "KINDS",
    "FaultInjector",
    "FaultPlan",
    "FiredFault",
    "InjectedCrash",
    "fault_point",
    "fault_points_enabled",
    "SITE_DOCS",
    "TORN_CAPABLE",
    "LOST_CAPABLE",
]
