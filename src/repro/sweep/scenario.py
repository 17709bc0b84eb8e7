"""Scenarios, plans and results: what the sweep harness perturbs.

A :class:`Scenario` is a frozen, fully deterministic recipe: a seeded
system, a preloaded table, one index build and a concurrent workload.
A :class:`Plan` perturbs one run of it with an optional
:class:`~repro.faultinject.injector.FaultPlan` and an optional
:class:`SchedulePlan`; pool size and the other resource limits are
scenario fields.  Both install at one point of :func:`start_build` --
after the preload, before the builder spawns -- so site hit counts and
schedule consult numbers cover exactly the build-era schedule, and the
perturbations compose.

``Scenario.run`` ends in the oracle: a crashed run must restart, resume
(or re-issue) the build and audit clean; any other run must pass
:func:`repro.schedsweep.oracle.check_run`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.cluster.scenario import SCENARIO_CONFIG, run_scenario
from repro.core import (
    BuildOptions,
    IndexSpec,
    build_pre_undo,
    get_builder,
    resume_build,
)
from repro.core.descriptor import IndexState
from repro.faultinject.injector import FaultInjector, FaultPlan
from repro.obs import TraceRecorder, enable_tracing
from repro.recovery import restart
from repro.schedsweep.oracle import check_run
from repro.schedsweep.policy import (
    FifoPolicy,
    RandomTiePolicy,
    ReplayMismatch,
    ReplayPolicy,
)
from repro.system import System, SystemConfig
from repro.verify import audit_index
from repro.workloads import WorkloadDriver, WorkloadSpec

INDEX_NAME = "idx"

#: the K=3 spec set a per-index-flip row builds (section 6.2): two
#: single-column indexes plus a composite, so a sweep crosses every
#: per-index pipeline boundary (load/drain/flip) of the shared scan;
#: every other row builds the first of them
MULTI_SPECS = (
    IndexSpec.of("idx", ["k"]),
    IndexSpec.of("idx2", ["p"]),
    IndexSpec.of("idx3", ["k", "p"]),
)

#: simulated instant of the cluster scenario's scripted failover (inside
#: the traffic window so cluster.promote is reachable during discovery)
FAILOVER_AT = 60.0


@dataclass(frozen=True)
class SchedulePlan:
    """A seeded exploration, a replay, or the explicit FIFO schedule."""

    #: RandomTiePolicy seed; None = FIFO
    schedule_seed: Optional[int] = None
    #: recorded choice-string; when set, replays it instead of exploring
    choices: Optional[str] = None

    def describe(self) -> str:
        if self.choices is not None:
            return (f"replay[{self.choices or '(fifo)'}] "
                    f"seed={self.schedule_seed}")
        if self.schedule_seed is None:
            return "fifo-baseline"
        return f"schedule-seed={self.schedule_seed}"


@dataclass(frozen=True)
class Plan:
    """One run's perturbation: a fault, a schedule, both, or neither."""

    fault: Optional[FaultPlan] = None
    schedule: Optional[SchedulePlan] = None

    @classmethod
    def of(cls, plan) -> "Plan":
        """Accept a bare FaultPlan or SchedulePlan where a Plan is due."""
        if isinstance(plan, FaultPlan):
            return cls(fault=plan)
        if isinstance(plan, SchedulePlan):
            return cls(schedule=plan)
        return plan

    def describe(self) -> str:
        parts = [part.describe() for part in (self.fault, self.schedule)
                 if part is not None]
        return " under ".join(parts) or "clean"


@dataclass
class PlanResult:
    """Outcome of one run."""

    plan: Plan
    passed: bool = False
    detail: str = ""
    fired: bool = False
    fired_at: float = 0.0
    site_hits: dict = field(default_factory=dict)
    #: the run's recorded choice-string (the schedule's reproduction recipe)
    choices: str = ""
    consults: int = 0
    ties_perturbed: int = 0
    preemptions: int = 0
    sim_time: float = 0.0
    #: JSONL trace (build + crash + recovery attempt) of a failed run, or
    #: of any run asked to keep it; render with ``python -m repro.obs.report``
    trace: Optional[str] = None

    @property
    def failed(self) -> bool:
        return not self.passed

    def observe(self, injector, policy, sim_time: float) -> None:
        """Copy what the installed perturbation saw into the result."""
        self.sim_time = sim_time
        self.site_hits = dict(injector.hits)
        if injector.fired is not None:
            self.fired = True
            self.fired_at = injector.fired.sim_time
        recorder = getattr(policy, "recorder", None)
        if recorder is not None:
            self.choices = recorder.choice_string()
            self.consults = recorder.consults
            self.ties_perturbed = recorder.ties_perturbed
            self.preemptions = recorder.preemptions


@dataclass(frozen=True)
class Scenario:
    """One seeded online index build under a concurrent workload."""

    builder: str = "sf"
    records: int = 500          # heap rows preloaded before the build
    operations: int = 150       # concurrent update ops during the build
    workers: int = 2
    seed: int = 7               # workload/system seed (not the schedule)
    buffer_frames: int = 80     # every builder must be right at any size
    #: shared-disk channels (None = the unlimited-bandwidth model); two
    #: or more arm the buffer pool's write-behind and list prefetch
    disk_channels: Optional[int] = None
    checkpoint_every_pages: int = 8
    checkpoint_every_keys: int = 48
    commit_every_keys: int = 24
    #: scan shards of a side-file row (None = the builder's default:
    #: serial, or 2 for psf)
    partitions: Optional[int] = None
    #: IB admission control (work items / time unit) must be crash- and
    #: schedule-transparent
    build_rate_limit: Optional[float] = None
    #: crash plans a row: an even stride over every hit of every site
    #: (None = all of them)
    max_plans: Optional[int] = None
    # -- seeded schedules
    preempt_prob: float = 0.1
    max_preemptions: int = 16

    @property
    def shards(self) -> Optional[int]:
        """P: how many shards this row's scan runs as (None = serial)."""
        if self.partitions is not None:
            return self.partitions
        return getattr(get_builder(self.builder), "default_partitions", None)

    @property
    def label(self) -> str:
        if self.shards:
            return f"{self.builder}(P={self.shards})"
        return self.builder

    def system_config(self) -> SystemConfig:
        return SystemConfig(page_capacity=8, leaf_capacity=8,
                            buffer_frames=self.buffer_frames,
                            sort_workspace=16, merge_fanin=4,
                            build_rate_limit=self.build_rate_limit,
                            disk_channels=self.disk_channels)

    def build_options(self) -> BuildOptions:
        return BuildOptions(
            checkpoint_every_pages=self.checkpoint_every_pages,
            checkpoint_every_keys=self.checkpoint_every_keys,
            commit_every_keys=self.commit_every_keys,
            partitions=self.partitions)

    def index_specs(self) -> list:
        """K=3 where indexes flip one by one, else the one index on
        ``k``."""
        pipelined = getattr(get_builder(self.builder), "pipelined", False)
        return list(MULTI_SPECS if pipelined else MULTI_SPECS[:1])

    def make_builder(self, system: System):
        """The scenario's build utility on ``system`` (first issue, and
        re-issue after a crash that left nothing to resume)."""
        if self.builder == "rebuild":
            return system.rebuild_index(INDEX_NAME,
                                        options=self.build_options())
        return get_builder(self.builder)(
            system, system.tables["t"], self.index_specs(),
            options=self.build_options())

    def make_injector(self, fault: Optional[FaultPlan] = None
                      ) -> FaultInjector:
        """Injector whose kernel-step watch list covers this builder's
        processes (each shard's scan and merge worker too)."""
        watch = ["builder", "resumed"]
        for shard in range(self.shards or 0):
            watch.append(f"psf-worker-{shard}")
            watch.append(f"psf-merge-{shard}")
        return FaultInjector(fault, watch_processes=tuple(watch))

    def make_policy(self, schedule: Optional[SchedulePlan]):
        if schedule is None:
            return None
        if schedule.choices is not None:
            return ReplayPolicy(schedule.choices)
        if schedule.schedule_seed is None:
            return FifoPolicy()
        return RandomTiePolicy(schedule.schedule_seed,
                               preempt_prob=self.preempt_prob,
                               max_preemptions=self.max_preemptions)

    # -- one run --------------------------------------------------------

    def run(self, plan: Plan, trace: bool = False) -> PlanResult:
        """Run once under ``plan`` and apply the oracle.

        The injector is installed armed or not (it only counts), so
        every result carries its {site: hits} census.  ``trace`` keeps
        the JSONL trace even when the run passes.  A fault that does not
        fire (a scenario diff from discovery moved the schedule) leaves
        a clean run, which must still pass the full oracle.
        """
        result = PlanResult(plan)
        recorder = TraceRecorder()
        injector = self.make_injector(plan.fault)
        policy = self.make_policy(plan.schedule)
        system, driver, proc = start_build(self, injector, policy,
                                           tracer=recorder)
        try:
            system.run()
            fired = injector.fired is not None
            if fired and system.sim.crashed:
                failure = self._recover_and_audit(system)
            elif fired:
                failure = "fault fired but system did not crash"
            else:
                failure = check_run(
                    system, driver, proc,
                    index_names=[s.name for s in self.index_specs()])
        except ReplayMismatch as exc:
            failure = f"replay diverged: {exc}"
        except Exception as exc:  # noqa: BLE001 - report, don't mask
            failure = f"run raised: {exc!r}"
        result.observe(injector, policy, system.sim.now)
        result.passed = not failure
        result.detail = failure
        if plan.fault is not None and not result.fired and not failure:
            result.detail = "fault did not fire"
        if trace or result.failed:
            result.trace = recorder.to_jsonl()
        return result

    def _recover_and_audit(self, system: System) -> str:
        """Restart, resume or re-issue the build, audit; '' or failure."""
        recovered, state = restart(system, pre_undo=build_pre_undo)
        resumed = resume_build(recovered, state)
        if resumed is not None:
            _run_to_end(recovered, resumed.run(), "resumed")
        specs = self.index_specs()
        # Nothing to resume and no index: the crash predated the build's
        # first checkpoint, the orphaned descriptors were discarded and
        # the build is reissued from scratch (the documented contract).
        # A rebuild with nothing to resume left the live index untouched
        # and AVAILABLE; re-issue it -- the sealed runs must still serve.
        if any(spec.name not in recovered.indexes for spec in specs) \
                or (resumed is None and self.builder == "rebuild"):
            _run_to_end(recovered, self.make_builder(recovered).run(),
                        "resumed")
        for spec in specs:
            descriptor = recovered.indexes[spec.name]
            if descriptor.state is not IndexState.AVAILABLE:
                return (f"index {spec.name} state {descriptor.state!r} "
                        f"after resume")
            audit_index(recovered, descriptor)
        return ""


def _run_to_end(system: System, body, name: str) -> None:
    proc = system.spawn(body, name=name)
    system.run()
    if proc.error is not None:
        raise proc.error


def start_build(scenario: Scenario, injector=None, policy=None,
                tracer=None):
    """Preload, install the perturbation, launch builder and workload.

    Returns ``(system, driver, builder_proc)``; the caller runs the
    system.  ``tracer`` (a :class:`~repro.obs.TraceRecorder`) attaches
    passively -- no gauge sampler process -- so the traced schedule is
    step-identical to the untraced one.
    """
    system = System(scenario.system_config(), seed=scenario.seed)
    if tracer is not None:
        enable_tracing(system, tracer)
    table = system.create_table("t", ["k", "p"])
    spec = WorkloadSpec(operations=scenario.operations,
                        workers=scenario.workers,
                        think_time=1.0, rollback_fraction=0.2)
    driver = WorkloadDriver(system, table, spec, seed=scenario.seed)
    _run_to_end(system, driver.preload(scenario.records), "preload")
    if scenario.builder == "rebuild":
        # Seed the sealed runs with one clean, unperturbed SF build.
        seed = replace(scenario, builder="sf").make_builder(system)
        _run_to_end(system, seed.run(), "seed-builder")
    if injector is not None:
        injector.install(system)
    if policy is not None:
        system.sim.schedule_policy = policy
    proc = system.spawn(scenario.make_builder(system).run(), name="builder")
    driver.spawn_workers()
    return system, driver, proc


@dataclass(frozen=True)
class ClusterScenario(Scenario):
    """The canonical replication scenario of :mod:`repro.cluster.scenario`
    (open-loop traffic on the primary, replicas applying the shipped WAL
    while building divergent indexes, one scripted failover) under its
    own oracle, :func:`repro.cluster.oracle.check_cluster`.

    A ship fault escalates to failover, an apply fault to replica crash
    recovery, a promote fault to kill-and-retry of the candidate; none
    crashes the whole simulator.  The build-only fields are unused.
    """

    builder: str = "cluster"
    replicas: int = 2
    records: int = 80
    operations: int = 120
    rate: float = 0.8
    seed: int = 3
    buffer_frames: int = 64
    preempt_prob: float = 0.05
    max_preemptions: int = 12
    #: not a row of ``repro.core.BUILDERS``: nothing here shards
    shards = None

    def scenario_kwargs(self) -> dict:
        return dict(replicas=self.replicas, records=self.records,
                    operations=self.operations, rate=self.rate,
                    seed=self.seed, failover_at=FAILOVER_AT)

    def run(self, plan: Plan, trace: bool = False) -> PlanResult:
        result = PlanResult(plan)
        policy = self.make_policy(plan.schedule)
        try:
            cluster, _driver, summary, injector = run_scenario(
                fault_plan=plan.fault, discover=True,
                schedule_policy=policy,
                config=replace(SCENARIO_CONFIG,
                               buffer_frames=self.buffer_frames),
                **self.scenario_kwargs())
        except Exception as exc:  # noqa: BLE001 - report, don't mask
            result.detail = f"{type(exc).__name__}: {exc}"
            return result
        result.observe(injector, policy, cluster.sim.now)
        # the cluster sites model node/link failures; the per-node
        # storage sites belong to the single-node scenario's census
        result.site_hits = {site: hits
                            for site, hits in result.site_hits.items()
                            if site.startswith("cluster.")}
        result.passed = bool(summary.get("ok"))
        if plan.fault is not None and not result.fired:
            result.detail = "fault did not fire (clean run, oracle ok)"
        if trace or result.failed:
            result.trace = cluster.tracer.to_jsonl()
        return result
