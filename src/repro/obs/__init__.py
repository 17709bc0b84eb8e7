"""One trace model: events -> :class:`Trace` -> renderers.

The paper's argument is about *when* things happen during an online
build -- the scan frontier racing updater RIDs, the side-file backlog
racing the drain, the short NSF quiesce, checkpoint/restart progress.
:class:`TraceRecorder` captures that story as structured events (spans,
instants, gauges) keyed to the simulated clock; :class:`Trace` reads them
once; :mod:`repro.obs.report` and :mod:`repro.slo` render what it
holds.

Tracing follows the ``fault_point`` pattern from :mod:`repro.faultinject`:
instrumented code reads ``metrics.tracer`` and does nothing when it is
``None`` (a builder holds the no-op handle of :mod:`repro.obs.handle`).
Enable it with::

    from repro.obs import enable_tracing
    tracer = enable_tracing(system)              # passive: spans/instants
    tracer = enable_tracing(system, sample_every=25.0)  # + gauge sampler

The recorder survives :meth:`repro.system.System.crash` and
:func:`repro.recovery.restart.restart` (restart re-binds it to the new
system), so one trace spans the whole build-crash-recover story.
"""

from repro.obs.progress import (
    BuildProgress,
    Phase,
    ProgressTracker,
    enable_progress,
)
from repro.obs.recorder import (
    TRACE_SCHEMA_VERSION,
    TraceRecorder,
    enable_tracing,
    key_metric,
    sample_gauges,
)
from repro.obs.trace import Span, Trace, TraceError

_REPORT_NAMES = ("phase_durations", "render_report")


def __getattr__(name):
    # Lazy: ``python -m repro.obs.report`` imports this package first, and
    # an eager ``from repro.obs.report import ...`` here would trip the
    # found-in-sys.modules-before-execution RuntimeWarning.
    if name in _REPORT_NAMES:
        from repro.obs import report
        return getattr(report, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "BuildProgress",
    "Phase",
    "ProgressTracker",
    "Span",
    "Trace",
    "TraceError",
    "TraceRecorder",
    "enable_progress",
    "enable_tracing",
    "key_metric",
    "phase_durations",
    "render_report",
    "sample_gauges",
]
