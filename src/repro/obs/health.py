"""Declarative alert rules over live gauges and histogram quantiles.

The progress tracker (:mod:`repro.obs.progress`) answers "is this build
converging"; the health monitor answers the operator's next question:
"is the *system* healthy while it builds?"  A :class:`HealthMonitor` is
a passive sampler process that, every ``sample_every`` simulated
seconds, assembles one flat sample of named health metrics:

* per-index side-file backlogs (``sidefile.backlog.<index>``) plus the
  worst-case aggregate (``sidefile.backlog``);
* **windowed** histogram quantiles from the streaming histograms in
  :mod:`repro.metrics.hist` (``openloop.latency.p99`` is the p99 of the
  operations completed since the *previous* tick, via the snapshot/delta
  discipline -- a cumulative p99 would never recover from one bad
  burst);
* any registered probe (:meth:`HealthMonitor.add_probe`) -- the cluster
  scenario registers apply-lag probes, throttling tests register the
  adaptive controller's current rate.

Each :class:`AlertRule` compares one sample metric against a threshold
(``value`` kind) or its per-time rate of change (``rate`` kind), with
``for_ticks`` / ``clear_ticks`` hysteresis so a single noisy sample
neither pages nor un-pages anyone.  Transitions emit ``alert.fire`` /
``alert.clear`` instants into the trace (the dashboard and CI's tamper
check key on them); :meth:`HealthMonitor.snapshot` returns the current
alert states for live consumers.

The monitor follows the trace sampler's lifecycle contract: it exits
once it is the only live process, so it never wedges ``system.run()``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, TYPE_CHECKING

from repro.obs.recorder import periodic, sidefile_backlog

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import System

_OPS: dict[str, Callable[[float, float], bool]] = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
}

#: histogram-derived quantile metrics: ``<hist>.p<q>`` per watched hist
DEFAULT_QUANTILES = (50.0, 99.0)


@dataclass(frozen=True)
class AlertRule:
    """One declarative health predicate.

    ``value`` rules breach when ``sample[metric] op threshold``;
    ``rate`` rules breach when the metric's per-time-unit change between
    consecutive samples does.  A metric absent from the sample (probe
    returned None, histogram window empty) counts as a clean tick.
    """

    name: str
    metric: str
    op: str = ">"
    threshold: float = 0.0
    kind: str = "value"  # "value" | "rate"
    #: consecutive breaching samples before ``alert.fire``
    for_ticks: int = 2
    #: consecutive clean samples before ``alert.clear``
    clear_ticks: int = 2

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown comparison {self.op!r}")
        if self.kind not in ("value", "rate"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.for_ticks < 1 or self.clear_ticks < 1:
            raise ValueError("for_ticks and clear_ticks must be >= 1")

    def breaches(self, value: float) -> bool:
        return _OPS[self.op](value, self.threshold)


def default_rules() -> list[AlertRule]:
    """The stock rule set for the simulated system's scale.

    Thresholds are calibrated to the default cost model: backlogs past
    a few hundred entries mean the drain is losing, a windowed p99 in
    the tens of seconds breaks the EXPERIMENTS SLO tables, an adaptive
    throttle pinned at (or below) one work item per second has
    effectively stalled the build, and replica apply lag past 256
    records means divergent read snapshots.
    """
    return [
        AlertRule("sidefile-backlog", "sidefile.backlog",
                  op=">", threshold=512.0),
        AlertRule("latency-p99", "openloop.latency.p99",
                  op=">", threshold=50.0),
        AlertRule("throttle-floor", "throttle.rate",
                  op="<", threshold=1.0),
        AlertRule("apply-lag", "cluster.apply_lag",
                  op=">", threshold=256.0),
    ]


class _RuleState:
    __slots__ = ("firing", "since", "breach_streak", "clean_streak",
                 "fired", "value")

    def __init__(self) -> None:
        self.firing = False
        self.since: Optional[float] = None
        self.breach_streak = 0
        self.clean_streak = 0
        self.fired = 0
        self.value: Optional[float] = None


class HealthMonitor:
    """Samples health metrics and walks every rule's hysteresis FSM."""

    def __init__(self, system: "System",
                 rules: Optional[Iterable[AlertRule]] = None,
                 sample_every: float = 5.0,
                 hists: Iterable[str] = ("openloop.latency",),
                 quantiles: Iterable[float] = DEFAULT_QUANTILES) -> None:
        self.system = system
        self.rules = list(default_rules() if rules is None else rules)
        names = [rule.name for rule in self.rules]
        if len(names) != len(set(names)):
            raise ValueError("alert rule names must be unique")
        self.sample_every = sample_every
        self.hists = tuple(hists)
        self.quantiles = tuple(quantiles)
        self.probes: dict[str, Callable[[], Optional[float]]] = {}
        self.states = {rule.name: _RuleState() for rule in self.rules}
        self.ticks = 0
        self.last_sample: dict[str, float] = {}
        self._last_t: Optional[float] = None
        self._previous: dict[str, float] = {}
        #: per-watched-histogram cumulative mark for windowed quantiles
        self._marks: dict[str, object] = {}

    # -- wiring --------------------------------------------------------------

    def add_probe(self, metric: str,
                  fn: Callable[[], Optional[float]]) -> "HealthMonitor":
        """Register a live metric source; ``fn`` returning None skips
        the metric for that tick (a clean tick for its rules)."""
        self.probes[metric] = fn
        return self

    # -- sampling ------------------------------------------------------------

    def sample(self) -> dict[str, float]:
        """One flat health sample (deterministic key order)."""
        out: dict[str, float] = {}
        worst = 0.0
        for name in sorted(self.system.sidefiles):
            backlog = float(sidefile_backlog(self.system.sidefiles[name]))
            out[f"sidefile.backlog.{name}"] = backlog
            worst = max(worst, backlog)
        if self.system.sidefiles:
            out["sidefile.backlog"] = worst
        for hist_name in self.hists:
            hist = self.system.metrics.histograms.get(hist_name)
            if hist is None:
                continue
            mark = self._marks.get(hist_name)
            window = hist.delta(mark) if mark is not None else hist
            self._marks[hist_name] = hist.copy()
            if window.count == 0:
                continue
            for q in self.quantiles:
                out[f"{hist_name}.p{q:g}"] = window.quantile(q)
        for metric in sorted(self.probes):
            value = self.probes[metric]()
            if value is not None:
                out[metric] = float(value)
        return out

    def tick(self) -> dict[str, float]:
        """Take one sample and evaluate every rule against it."""
        now = self.system.sim.now
        sample = self.sample()
        for rule in self.rules:
            self._evaluate(rule, sample, now)
        self._previous = dict(sample)
        self._last_t = now
        self.last_sample = sample
        self.ticks += 1
        return sample

    def _evaluate(self, rule: AlertRule, sample: dict, now: float) -> None:
        state = self.states[rule.name]
        value = sample.get(rule.metric)
        if value is not None and rule.kind == "rate":
            prev = self._previous.get(rule.metric)
            if prev is None or self._last_t is None \
                    or now <= self._last_t:
                value = None
            else:
                value = (value - prev) / (now - self._last_t)
        state.value = value
        breaching = value is not None and rule.breaches(value)
        if breaching:
            state.breach_streak += 1
            state.clean_streak = 0
            if not state.firing and state.breach_streak >= rule.for_ticks:
                state.firing = True
                state.since = now
                state.fired += 1
                self.system.metrics.incr("health.alerts_fired")
                self._instant("alert.fire", rule, value)
        else:
            state.clean_streak += 1
            state.breach_streak = 0
            if state.firing and state.clean_streak >= rule.clear_ticks:
                state.firing = False
                self.system.metrics.incr("health.alerts_cleared")
                self._instant("alert.clear", rule, value,
                              duration=now - (state.since or now))
                state.since = None

    def _instant(self, name: str, rule: AlertRule,
                 value: Optional[float], **extra) -> None:
        tracer = self.system.metrics.tracer
        if tracer is None:
            return
        tracer.instant(name, alert=rule.name, metric=rule.metric,
                       value=value if value is None else round(value, 6),
                       op=rule.op, threshold=rule.threshold, **extra)

    # -- consumers -----------------------------------------------------------

    @property
    def firing(self) -> list[str]:
        """Names of currently-firing alerts (rule order)."""
        return [rule.name for rule in self.rules
                if self.states[rule.name].firing]

    def snapshot(self) -> dict:
        """Serialisable health state (sorted keys)."""
        alerts = {}
        for rule in self.rules:
            state = self.states[rule.name]
            alerts[rule.name] = {
                "fired": state.fired,
                "firing": state.firing,
                "metric": rule.metric,
                "since": state.since,
                "threshold": rule.threshold,
                "value": state.value,
            }
        return {
            "alerts": dict(sorted(alerts.items())),
            "firing": self.firing,
            "sample": dict(sorted(self.last_sample.items())),
            "ticks": self.ticks,
        }

    # -- the sampler process -------------------------------------------------

    def run(self):
        """Generator process body; exits once it is the only live
        process (the trace sampler's lifecycle contract)."""
        return periodic(self.system, self.sample_every, self.tick)


def enable_health(system: "System",
                  rules: Optional[Iterable[AlertRule]] = None,
                  sample_every: float = 5.0,
                  spawn: bool = True, **kwargs) -> HealthMonitor:
    """Create a :class:`HealthMonitor` and (by default) spawn its
    sampler on ``system``; returns the monitor.

    Pass ``spawn=False`` to drive :meth:`HealthMonitor.tick` manually
    (the dashboard's live mode does, so its refresh and sampling
    cadence coincide).

    The sampler follows the gauge-sampler lifecycle contract: it exits
    once it is the only live process, so it never keeps the simulation
    alive.  That also means a run that drains to idle (e.g. a preload
    ``system.run()``) ends the sampler -- arm the monitor alongside
    the processes it should watch, or call ``enable_health`` again.
    """
    monitor = HealthMonitor(system, rules=rules,
                            sample_every=sample_every, **kwargs)
    if spawn:
        system.spawn(monitor.run(), name="health-monitor")
    return monitor
