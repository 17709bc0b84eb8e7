"""Per-build progress tracking, convergence verdicts, and ETAs.

The paper's central operational question -- does the online build's
catch-up phase converge under the live update rate, and when does the
index flip AVAILABLE? -- was previously answerable only after the fact,
by post-processing a trace.  :class:`ProgressTracker` answers it live: a
build declares its ordered phases (:class:`Phase`), its emit handle
(:mod:`repro.obs.handle`) forwards each ``advance`` / ``done`` / ``end``
to a :class:`BuildProgress`, and that folds them into a phase-weighted
completion fraction, an ETA on the simulated clock, and a convergence
verdict, published as ``build.progress`` / ``build.eta`` gauges.

Progress is a view of the trace stream, so the tracker rides on the
recorder (``recorder.progress``: one observation object hangs off
``metrics.tracer``, one crosses a crash) and everything here is pure
bookkeeping -- no yields, no simulated time -- so enabling tracking
never perturbs the schedule.  Enable it with::

    from repro.obs import enable_progress
    tracker = enable_progress(system)    # passive tracing comes with it
    ...
    tracker.snapshot()   # {"idx": {"fraction": 0.62, "eta": 184.0, ...}}

**Divergence.**  During a racing phase (a side-file drain) the tracker
watches the drain position race the side-file length over a trailing
sample window.  When the drain rate falls to (or below) the append rate
while backlog remains, the catch-up phase is not converging: the verdict
flips to ``diverging``, the ETA becomes ``None``, and a single
``build.diverging`` instant is emitted into the trace.  If the balance
recovers -- foreground load subsided -- the verdict returns to
``converging`` and the ETA comes back (EXPERIMENTS.md E24 shows an
under-throttled drain flagged).

**Crash safety.**  Progress state rides in the utility checkpoint (only
when tracking is enabled -- disabled payloads are byte-identical), and a
resumed builder's handle restores it, so a resumed build reports resumed
progress, not 0%.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Optional

from repro.obs.recorder import enable_tracing

#: minimum completion-fraction advance between published gauge points
PUBLISH_STEP = 0.01
#: drain-watch samples needed before a divergence verdict is rendered
DRAIN_MIN_SAMPLES = 4


class Phase(NamedTuple):
    """One row of the ordered phase plan a build declares.

    Weights approximate each phase's share of build time at the default
    cost model and sum to one over a plan; they only shape the
    completion fraction's pacing, never its endpoints (0 at start, 1 at
    finish).
    """

    key: str
    weight: float
    #: the phase chases a total that grows under it (a side-file drain),
    #: so it is judged for convergence
    races: bool = False


class BuildProgress:
    """Live progress state of one build (one :class:`BuilderBase` run)."""

    def __init__(self, label: str, mode: str, phases: list[Phase],
                 sim, tracer) -> None:
        self.label = label
        self.mode = mode
        #: the build's simulator (rates run on its clock, not trace time)
        self.sim = sim
        self.tracer = tracer
        self.plan = list(phases)
        self.fractions = {phase.key: 0.0 for phase in phases}
        self.phase = phases[0].key
        self.verdict = "converging"
        self.eta: Optional[float] = None
        self.finished = False
        #: monotone floor: resumed baseline, and the clamp that keeps the
        #: published fraction non-decreasing when a moving target (SF's
        #: growing scan limit, the side-file length) briefly shrinks a
        #: phase fraction
        self._floor = 0.0
        self._fraction = 0.0
        self._published = -1.0
        self._published_phase: Optional[str] = None
        self._published_eta: Optional[float] = None
        #: (t, fraction) samples for the overall completion rate
        self._samples: deque[tuple[float, float]] = deque(maxlen=32)
        #: phase key -> [units done, units in all] as last advanced
        self._units: dict[str, list[int]] = {}
        self._closed: set[str] = set()
        #: (t, position, total) windows of the racing phases under way
        self._races = {phase.key for phase in phases if phase.races}
        self._drain: dict[str, deque] = {}

    # -- hooks (pure bookkeeping; builders call them through the handle) ----

    def advance(self, key: str, done: Optional[int] = None, total: int = 0,
                step: int = 0) -> None:
        """``done`` of ``total`` work units of phase ``key`` are finished
        (pages, keys, side-file entries).  A phase several workers share
        (the scan) passes ``done=None`` and ``step`` more units instead.
        The largest total seen counts (SF's scan limit chases the EOF,
        the side-file grows); an unknown one (0) leaves the fraction at
        its floor until :meth:`close`.  A racing phase is also judged
        for convergence over a trailing sample window."""
        if key not in self.fractions:
            return
        units = self._units.setdefault(key, [0, 0])
        units[0] = units[0] + step if done is None else done
        if total > units[1]:
            units[1] = total
        if units[1]:
            frac = min(1.0, units[0] / units[1])
            if frac > self.fractions[key]:
                self.fractions[key] = frac
        if key in self._races:
            window = self._drain.get(key)
            if window is None:
                window = self._drain[key] = deque(maxlen=8)
            window.append((self.sim.now, units[0], units[1]))
            self._judge_drain(key, window)
        self._refresh()

    def close(self, key: str) -> None:
        """Phase ``key`` is complete (once; later calls are no-ops); the
        root key ``build`` finishes the build."""
        if key == "build":
            self.finish()
        if key not in self.fractions or key in self._closed:
            return
        self._closed.add(key)
        self.fractions[key] = 1.0
        self._drain.pop(key, None)
        if self.verdict == "diverging" and not self._drain:
            self.verdict = "converging"
        self.tracer.instant("build.progress", build=self.label, phase=key,
                            fraction=round(self._overall(), 4))
        self._refresh()

    def finish(self) -> None:
        for key in self.fractions:
            self.fractions[key] = 1.0
        self.finished = True
        self.verdict = "done"
        self.eta = 0.0
        self._refresh()

    # -- verdict + ETA -------------------------------------------------------

    def _judge_drain(self, key: str, window: deque) -> None:
        """Diverging iff the drain is not gaining on the side-file."""
        if len(window) < DRAIN_MIN_SAMPLES:
            return
        t0, pos0, total0 = window[0]
        t1, pos1, total1 = window[-1]
        backlog = total1 - pos1
        if t1 <= t0 or backlog <= 0:
            return
        drain_rate = (pos1 - pos0) / (t1 - t0)
        append_rate = (total1 - total0) / (t1 - t0)
        if drain_rate <= append_rate:
            if self.verdict != "diverging":
                self.verdict = "diverging"
                self.tracer.instant(
                    "build.diverging", build=self.label, phase=key,
                    backlog=backlog, drain_rate=round(drain_rate, 6),
                    append_rate=round(append_rate, 6))
        elif self.verdict == "diverging":
            self.verdict = "converging"

    def _overall(self) -> float:
        raw = sum(phase.weight * self.fractions[phase.key]
                  for phase in self.plan)
        return max(self._floor, min(1.0, raw))

    def _refresh(self) -> None:
        """Refresh the current phase, fraction, ETA; publish gauges."""
        self.phase = next((phase.key for phase in self.plan
                           if self.fractions[phase.key] < 1.0),
                          self.plan[-1].key)
        fraction = self._overall()
        if fraction > self._fraction:
            self._fraction = fraction
        self._samples.append((self.sim.now, self._fraction))
        self.eta = self._estimate_eta()
        self._publish()

    def _estimate_eta(self) -> Optional[float]:
        if self.finished:
            return 0.0
        if self.verdict == "diverging":
            return None
        if len(self._samples) < 2:
            return None
        t0, f0 = self._samples[0]
        t1, f1 = self._samples[-1]
        if t1 <= t0 or f1 <= f0:
            return None
        rate = (f1 - f0) / (t1 - t0)
        return (1.0 - f1) / rate

    def _publish(self) -> None:
        eta_value = round(self.eta, 4) if self.eta is not None else -1.0
        if not self.finished:
            if self._fraction - self._published < PUBLISH_STEP \
                    and self.phase == self._published_phase:
                return
        elif self._published == self._fraction \
                and self._published_eta == eta_value:
            return  # finish() already published 1.0 with a zero ETA
        self._published = self._fraction
        self._published_phase = self.phase
        self._published_eta = eta_value
        self.tracer.gauge("build.progress", round(self._fraction, 4),
                          build=self.label, phase=self.phase,
                          verdict=self.verdict)
        self.tracer.gauge("build.eta", eta_value, build=self.label)

    # -- snapshots and crash safety ------------------------------------------

    def _rounded(self) -> dict[str, float]:
        return {key: round(value, 6)
                for key, value in sorted(self.fractions.items())}

    def snapshot(self) -> dict:
        """Serialisable live state (sorted keys)."""
        return {"eta": self.eta, "fraction": round(self._fraction, 6),
                "fractions": self._rounded(), "mode": self.mode,
                "phase": self.phase, "verdict": self.verdict}

    def checkpoint_state(self) -> dict:
        """What rides in the utility checkpoint (JSON-safe)."""
        return {"fraction": round(self._fraction, 6),
                "fractions": self._rounded(),
                "scan": list(self._units.get("scan", (0, 0)))}

    def restore(self, state: Optional[dict]) -> None:
        """Adopt a checkpointed baseline (if any): the resumed build's
        progress starts from the crashed build's floor, never from 0%."""
        if not state:
            return
        for key, value in state.get("fractions", {}).items():
            if key in self.fractions and value > self.fractions[key]:
                self.fractions[key] = value
        scan = state.get("scan")
        if scan:
            self._units["scan"] = [int(scan[0]), int(scan[1])]
        self._floor = float(state.get("fraction", 0.0))
        self._refresh()


class ProgressTracker:
    """Registry of live builds; rides on the recorder as
    ``recorder.progress``."""

    def __init__(self) -> None:
        #: build label ("+"-joined index names) -> live progress
        self.builds: dict[str, BuildProgress] = {}

    def track(self, label: str, mode: str, phases: list[Phase], sim,
              tracer) -> BuildProgress:
        """Called by a build's emit handle when tracking is enabled; a
        resumed build re-registers under the same label (latest wins)."""
        progress = self.builds[label] = BuildProgress(label, mode, phases,
                                                      sim, tracer)
        return progress

    def snapshot(self) -> dict[str, dict]:
        """Serialisable state of every tracked build, sorted by label."""
        return {label: self.builds[label].snapshot()
                for label in sorted(self.builds)}


def enable_progress(system, tracker: Optional[ProgressTracker] = None
                    ) -> ProgressTracker:
    """Attach a :class:`ProgressTracker` to ``system``'s recorder
    (enabling passive tracing first if there is none).

    Builders constructed afterwards report into it; builders constructed
    before (or with tracking disabled) are unaffected.  Idempotent when
    ``tracker`` is the already-installed one.
    """
    recorder = system.metrics.tracer or enable_tracing(system)
    if tracker is None:
        tracker = recorder.progress or ProgressTracker()
    recorder.progress = tracker
    return tracker
