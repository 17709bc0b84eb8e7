"""Experiment harness shared by the benchmark suite.

Each experiment in EXPERIMENTS.md is a parameter sweep over
:func:`run_build_experiment`, which stands up a fresh simulated system,
preloads a table, runs one builder against a configurable update workload,
audits the result, and returns the measurements the paper's claims are
about (log volume, clustering, quiesce time, traversals, side-file
length, simulated build time, ...).

``print_table`` renders the rows the way the paper would have tabulated
them, so ``pytest -q benchmarks --ignore benchmarks/e2e`` output reads like
the evaluation section the paper never had.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Type

from repro.core import BuildOptions, IndexSpec, get_builder
from repro.system import System, SystemConfig
from repro.verify import audit_index
from repro.workloads import WorkloadDriver, WorkloadSpec


def bench_config(**overrides) -> SystemConfig:
    """The standard small-page configuration used by the benches."""
    defaults = dict(page_capacity=8, leaf_capacity=8, branch_capacity=8,
                    sort_workspace=32, merge_fanin=4)
    defaults.update(overrides)
    return SystemConfig(**defaults)


@dataclass
class BuildRunResult:
    """Everything a bench needs from one build-under-workload run."""

    algorithm: str
    system: System
    builder: object
    driver: Optional[WorkloadDriver]
    build_time: float
    counters: dict[str, int] = field(default_factory=dict)
    #: clustering factor of each built index, sampled the moment the
    #: builder finished (before later workload splits disturb it)
    clustering_at_build_end: dict[str, float] = field(default_factory=dict)

    # -- convenient accessors ------------------------------------------------

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    @property
    def quiesce_wait(self) -> float:
        return self.system.metrics.stat("build.quiesce_wait").maximum

    @property
    def quiesce_hold(self) -> float:
        return self.system.metrics.stat("build.quiesce_hold").maximum

    def clustering(self, index: str = "idx") -> float:
        return self.system.indexes[index].tree.clustering_factor()

    def longest_stall(self) -> float:
        return self.driver.longest_stall() if self.driver else 0.0


def run_build_experiment(algorithm: str, *,
                         rows: int = 400,
                         operations: int = 0,
                         workers: int = 2,
                         seed: int = 0,
                         unique: bool = False,
                         rollback_fraction: float = 0.1,
                         think_time: float = 1.0,
                         key_space: int = 1_000_000,
                         insert_weight: float = 1.0,
                         delete_weight: float = 1.0,
                         update_weight: float = 1.0,
                         key_columns: Sequence[str] = ("k",),
                         index_specs: Optional[list[IndexSpec]] = None,
                         options: Optional[BuildOptions] = None,
                         config: Optional[SystemConfig] = None,
                         audit: bool = True,
                         tracer=None) -> BuildRunResult:
    """One build of algorithm ``algorithm`` under an optional workload.

    ``tracer`` (a :class:`~repro.obs.TraceRecorder`) attaches passively
    before anything runs, so the experiment's phase spans land in it
    without perturbing the simulated schedule.
    """
    system = System(config or bench_config(), seed=seed)
    if tracer is not None:
        from repro.obs import enable_tracing
        enable_tracing(system, tracer)
    table = system.create_table("t", ["k", "p"])
    spec = WorkloadSpec(operations=operations, workers=workers,
                        rollback_fraction=rollback_fraction,
                        think_time=think_time, key_space=key_space,
                        insert_weight=insert_weight,
                        delete_weight=delete_weight,
                        update_weight=update_weight)
    driver = WorkloadDriver(system, table, spec, seed=seed)
    preload = system.spawn(driver.preload(rows), name="preload")
    system.run()
    assert preload.error is None

    before = system.metrics.snapshot()
    builder_cls = get_builder(algorithm)
    specs = index_specs or [IndexSpec.of("idx", list(key_columns),
                                         unique=unique)]
    builder = builder_cls(system, table, specs, options=options)
    build_proc = system.spawn(builder.run(), name="builder")
    at_build_end: dict[str, float] = {}

    def watcher():
        from repro.sim.kernel import Join
        yield Join(build_proc)
        for spec_item in specs:
            descriptor = system.indexes.get(spec_item.name)
            if descriptor is not None:
                at_build_end[spec_item.name] = \
                    descriptor.tree.clustering_factor()

    system.spawn(watcher(), name="bench-watcher")
    if operations:
        driver.spawn_workers()
    system.run()
    if build_proc.error is not None:
        raise build_proc.error

    result = BuildRunResult(
        algorithm=algorithm,
        system=system,
        builder=builder,
        driver=driver if operations else None,
        build_time=builder.timings.get("done", system.now())
        - builder.timings.get("start", 0.0),
        counters=system.metrics.delta(before),
        clustering_at_build_end=at_build_end,
    )
    if audit:
        for spec_item in specs:
            audit_index(system, system.indexes[spec_item.name])
    return result


# -- table rendering -------------------------------------------------------------


#: every table rendered this session, for emission after pytest's capture
#: ends (see benchmarks/conftest.py) and for EXPERIMENTS.md regeneration
RENDERED_TABLES: list[str] = []


def format_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence], note: str = "") -> str:
    """Render one paper-style results table as a string."""
    rendered = [[_fmt(cell) for cell in row] for row in rows]
    widths = [max(len(str(headers[i])),
                  max((len(r[i]) for r in rendered), default=0))
              for i in range(len(headers))]
    line = "-+-".join("-" * w for w in widths)
    out = [f"== {title} =="]
    out.append(" | ".join(str(h).ljust(widths[i])
                          for i, h in enumerate(headers)))
    out.append(line)
    for row in rendered:
        out.append(" | ".join(row[i].ljust(widths[i])
                              for i in range(len(headers))))
    if note:
        out.append(f"note: {note}")
    return "\n".join(out)


def print_table(title: str, headers: Sequence[str],
                rows: Sequence[Sequence], note: str = "") -> None:
    """Render a table to stdout and remember it for the session report."""
    text = format_table(title, headers, rows, note)
    RENDERED_TABLES.append(text)
    print()
    print(text)
    print()


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)
