"""Run to block moves host work only.

Each run below goes twice: as is, and with the kernel's in-place
decision forced to "never" (``Simulator.delayed`` / ``acquired`` always
answer False, so every effect goes through the event queue, as before
the in-place path existed).  Both must end in the same ``_seq``, clock,
metrics snapshot, WAL columns, trace and results, on every system the
run made, while the first run dispatches fewer kernel steps.  The runs
are the build modes under a concurrent workload (sf, nsf, psf P=2,
multi), an injected kernel-step crash, and a smoke-size round of each
end-to-end workload (``benchmarks/e2e``, imported read-only).
"""

import os
import sys

import pytest

from repro.faultinject.injector import FaultPlan
from repro.obs import TraceRecorder
from repro.schedsweep.oracle import check_run
from repro.sim.kernel import Simulator
from repro.sweep.scenario import Plan, Scenario, start_build
from repro.system import System

E2E = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "benchmarks", "e2e")


def state(system):
    """Everything simulated a system ends with."""
    log = system.log
    return (system.sim._seq, system.sim.now,
            list(system.metrics.snapshot().items()),
            system.metrics.snapshot_stats(),
            bytes(log._words), log._refs, log._info, log._op_names,
            log.flushed_lsn)


def twice(monkeypatch, run):
    """``run()`` as is and with the in-place path off: ``(result,
    states, kernel steps)`` of each."""
    outcomes = []
    for in_place in (True, False):
        systems, steps = [], [0]
        init, step = System.__init__, Simulator._step

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            systems.append(self)

        def counted_step(self, *args):
            steps[0] += 1
            return step(self, *args)

        with monkeypatch.context() as patch:
            patch.setattr(System, "__init__", recording_init)
            patch.setattr(Simulator, "_step", counted_step)
            if not in_place:
                patch.setattr(Simulator, "delayed",
                              lambda self, duration: False)
                patch.setattr(Simulator, "acquired",
                              lambda self, resource, mode="X": False)
            result = run()
        outcomes.append((result, [state(s) for s in systems], steps[0]))
    return outcomes


def assert_identical(outcomes):
    (result, states, steps), (yield_result, yield_states, yield_steps) = \
        outcomes
    assert states and states == yield_states
    assert result == yield_result
    assert steps < yield_steps, "the in-place path never fired"


@pytest.mark.parametrize("builder,partitions", [
    ("sf", None), ("nsf", None), ("psf", 2), ("multi", None)])
def test_a_build_under_traffic_is_unchanged(monkeypatch, builder,
                                            partitions):
    scenario = Scenario(builder=builder, partitions=partitions,
                        records=150, operations=30)

    def run():
        recorder = TraceRecorder()
        system, driver, proc = start_build(scenario, tracer=recorder)
        system.run()
        verdict = check_run(
            system, driver, proc,
            index_names=[spec.name for spec in scenario.index_specs()])
        return verdict, recorder.to_jsonl()

    outcomes = twice(monkeypatch, run)
    assert outcomes[0][0][0] == ""
    assert_identical(outcomes)


def test_an_injected_kernel_step_crash_fires_at_the_same_hit(monkeypatch):
    scenario = Scenario(builder="sf", records=150, operations=30)
    plan = Plan(fault=FaultPlan("kernel.step.builder", hit=40))
    outcomes = twice(monkeypatch, lambda: scenario.run(plan, trace=True))
    result = outcomes[0][0]
    assert result.passed and result.fired, result.detail
    assert_identical(outcomes)


@pytest.fixture(scope="module")
def e2e():
    sys.path.insert(0, E2E)
    try:
        import load
        import rounds
        import workloads
    finally:
        sys.path.remove(E2E)
    return load, rounds, workloads


@pytest.mark.parametrize("workload", ["bulk_sf", "traffic_sf",
                                      "traffic_nsf", "restart_sf"])
def test_a_smoke_round_of_each_workload_is_unchanged(monkeypatch, e2e,
                                                     workload):
    load, rounds, workloads = e2e
    small = workloads.smoke(workloads.BY_NAME[workload])
    rows = load.make_rows(3, small.rows)
    ops = load.make_schedule(3, small.segments, 10 * small.rows)

    def run():
        result = rounds.Round(small, 3, rows, ops).run()
        return result.exact, result.counters, result.counts

    assert_identical(twice(monkeypatch, run))
