"""Tests for schedule exploration (repro.schedsweep under repro.sweep)."""

import pytest

from repro.schedsweep import (
    ChoiceRecorder,
    FifoPolicy,
    RandomTiePolicy,
    ReplayMismatch,
    ReplayPolicy,
    check_run,
    parse_choice_string,
)
from repro.schedsweep.recorder import PREEMPT, from_base36, to_base36
from repro.sweep import (
    ClusterScenario,
    Scenario,
    SchedulePlan,
    failure_dump,
    main,
    run_plan,
    run_sweep,
    shrink_failure,
    start_build,
)
from repro.sim import Delay, Simulator


# -- recorder / choice-string ------------------------------------------------


def test_base36_round_trip():
    for value in (0, 1, 35, 36, 48, 1295, 10**6):
        assert from_base36(to_base36(value)) == value
    with pytest.raises(ValueError):
        from_base36("")
    with pytest.raises(ValueError):
        from_base36("1C")  # uppercase is not in the alphabet
    with pytest.raises(ValueError):
        to_base36(-1)


def test_recorder_choice_string_round_trip():
    recorder = ChoiceRecorder()
    for _ in range(50):
        recorder.note_consult()
    recorder.record_tie(4, 1)
    recorder.record_preempt(10)
    recorder.record_tie(38, 3)
    recorder.record_tie(48, 2)  # step 48 is "1c" in base36
    choices = recorder.choice_string()
    assert choices == "4:1.a!.12:3.1c:2"
    assert parse_choice_string(choices) == {4: 1, 10: PREEMPT, 38: 3,
                                            48: 2}
    assert recorder.consults == 50
    assert recorder.ties_perturbed == 3
    assert recorder.preemptions == 1


def test_recorder_fifo_default_is_empty_string():
    recorder = ChoiceRecorder()
    step = recorder.note_consult()
    recorder.record_tie(step, 0)  # the FIFO pick: never recorded
    assert recorder.choice_string() == ""
    assert parse_choice_string("") == {}


def test_parse_choice_string_rejects_malformed_input():
    for bad in ("x", "4:0", "zz", "4:1.3:2", "4:1.4:2", "1cc1"):
        with pytest.raises(ValueError):
            parse_choice_string(bad)


# -- policies on a bare kernel ----------------------------------------------


def _tie_scenario():
    """Three processes tying at t=1,2,3...; returns (sim, order)."""
    order = []
    sim = Simulator()

    def mk(tag):
        def body():
            for _ in range(4):
                yield Delay(1)
                order.append(tag)
        return body()

    for tag in "abc":
        sim.spawn(mk(tag), name=tag)
    return sim, order


def test_fifo_policy_is_byte_identical_to_no_policy():
    base_sim, base_order = _tie_scenario()
    base_sim.run()
    fifo_sim, fifo_order = _tie_scenario()
    fifo_sim.schedule_policy = FifoPolicy()
    fifo_sim.run()
    assert fifo_order == base_order == list("abc") * 4
    assert fifo_sim.now == base_sim.now
    assert fifo_sim._seq == base_sim._seq


def test_random_tie_policy_perturbs_and_is_seed_deterministic():
    orders = []
    for _ in range(2):
        sim, order = _tie_scenario()
        sim.schedule_policy = RandomTiePolicy(seed=3, preempt_prob=0.0)
        sim.run()
        orders.append(order)
    assert orders[0] == orders[1]              # same seed, same schedule
    assert sorted(orders[0]) == sorted(list("abc") * 4)  # a permutation
    sim, other = _tie_scenario()
    sim.schedule_policy = RandomTiePolicy(seed=4, preempt_prob=0.0)
    sim.run()
    assert other != orders[0]                  # different seed perturbs


def test_replay_policy_reproduces_recorded_schedule():
    sim, order = _tie_scenario()
    policy = RandomTiePolicy(seed=11, preempt_prob=0.3,
                             max_preemptions=4)
    sim.schedule_policy = policy
    sim.run()
    choices = policy.recorder.choice_string()
    assert choices  # the seed perturbed something

    replay_sim, replay_order = _tie_scenario()
    replay = ReplayPolicy(choices)
    replay_sim.schedule_policy = replay
    replay_sim.run()
    assert replay_order == order
    assert replay_sim.now == sim.now
    assert replay.recorder.choice_string() == choices


def test_preemption_defers_fifo_head():
    """A preempting policy defers the head to the next occupied instant;
    all processes still finish (no starvation)."""
    sim, order = _tie_scenario()
    sim.schedule_policy = RandomTiePolicy(seed=0, preempt_prob=1.0,
                                          max_preemptions=5)
    sim.run()
    assert sorted(order) == sorted(list("abc") * 4)  # nothing lost
    assert order != list("abc") * 4                  # and perturbed


def test_replay_mismatch_raises_on_impossible_choice():
    sim, _order = _tie_scenario()
    # Consult 1 has 3 candidates; index 7 can never have been recorded
    # against this kernel state.
    sim.schedule_policy = ReplayPolicy("1:7")
    with pytest.raises(ReplayMismatch):
        sim.run()


# -- the oracle --------------------------------------------------------------


SMALL = Scenario(records=60, operations=15, buffer_frames=64)


def _clean_run(builder="sf", partitions=None):
    import dataclasses
    config = dataclasses.replace(SMALL, builder=builder,
                                 partitions=partitions)
    system, driver, proc = start_build(config, policy=FifoPolicy())
    system.run()
    return system, driver, proc


def test_oracle_passes_clean_run():
    system, driver, proc = _clean_run()
    assert check_run(system, driver, proc) == ""


def test_oracle_detects_missing_entry():
    system, driver, proc = _clean_run()
    tree = system.indexes["idx"].tree
    entry = next(iter(tree.all_entries()))
    # Vandalize: physically remove one live entry behind the index's back.
    for page in tree.pages.values():
        entries = getattr(page, "entries", None)
        if entries and entry in entries:
            entries.remove(entry)
            break
    failure = check_run(system, driver, proc)
    assert "audit" in failure or "serial-reference" in failure


def test_oracle_detects_order_corruption():
    system, driver, proc = _clean_run()
    tree = system.indexes["idx"].tree
    for page in tree.pages.values():
        entries = getattr(page, "entries", None)
        if entries is not None and len(entries) >= 2:
            entries[0], entries[1] = entries[1], entries[0]
            break
    assert check_run(system, driver, proc) != ""


def test_oracle_detects_hung_process():
    from repro.sim import Wait

    system, driver, proc = _clean_run()
    event = system.sim.event()

    def stuck():
        yield Wait(event)  # nobody ever sets it

    system.spawn(stuck(), name="stuck")
    system.run()
    failure = check_run(system, driver, proc)
    assert "lost wakeup" in failure
    assert "stuck" in failure


def test_oracle_detects_builder_error():
    system, driver, proc = _clean_run()
    proc.error = RuntimeError("synthetic")
    assert "builder error" in check_run(system, driver, proc)


def test_oracle_detects_metrics_divergence():
    system, driver, proc = _clean_run()
    system.metrics.incr("workload.committed")  # phantom commit
    assert "workload.committed" in check_run(system, driver, proc)


# -- run_plan / sweeps -------------------------------------------------------


@pytest.mark.parametrize("builder,partitions", [
    pytest.param("offline", None, id="offline-1"),
    pytest.param("nsf", None, id="nsf-1"),
    pytest.param("sf", None, id="sf-1"),
    ("psf", 3),
    pytest.param("multi", None, id="multi-1"),
    ("multi", 2),
])
def test_seeded_schedule_passes_and_replays(builder, partitions):
    import dataclasses
    config = dataclasses.replace(SMALL, builder=builder,
                                 partitions=partitions)
    seeded = run_plan(config, SchedulePlan(schedule_seed=99))
    assert seeded.passed, seeded.detail
    assert seeded.consults > 0
    replayed = run_plan(config, SchedulePlan(schedule_seed=99,
                                             choices=seeded.choices))
    assert replayed.passed, replayed.detail
    assert replayed.choices == seeded.choices
    assert replayed.sim_time == seeded.sim_time
    assert replayed.consults == seeded.consults


def test_fifo_baseline_plan_matches_unhooked_run():
    """The sweep's FIFO baseline must reproduce the no-policy schedule
    exactly (metrics and simulated clock)."""
    unhooked_system, _driver, _proc = start_build(SMALL)
    unhooked_system.run()
    baseline = run_plan(SMALL, SchedulePlan())
    assert baseline.passed, baseline.detail
    assert baseline.choices == ""
    assert baseline.sim_time == unhooked_system.sim.now


def test_run_sweep_census_shape():
    report = run_sweep(SMALL, schedules=2,
                       rows=[("sf", None), ("psf", 2)])
    assert report.all_passed, report.to_text()
    assert [census.label for census in report.rows] == ["sf", "psf(P=2)"]
    # a row is labelled by its shard count, whatever the builder
    assert [Scenario(builder=builder, partitions=partitions).label
            for builder, partitions in [("psf", None), ("multi", 2)]] \
        == ["psf(P=2)", "multi(P=2)"]
    assert ClusterScenario().label == "cluster"
    for census in report.rows:
        assert census.baseline.passed
        assert len(census.results) == 2
        consults, _ties, _preempts = census.totals()
        assert consults > 0
    text = report.to_text()
    assert "schedules passed the full oracle" in text
    assert "psf(P=2)" in text


def test_sweep_cli_single_builder_smoke(capsys):
    assert main(["schedule", "--schedules", "1", "--builder", "sf",
                 "--records", "60", "--operations", "15",
                 "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "schedule sweep" in out
    assert "PASS" in out


def test_sweep_cli_replay_round_trip(capsys):
    """Record a failing-style single run via --schedule-seed, then feed
    its choice-string back through --replay."""
    assert main(["schedule", "--builder", "sf", "--records", "60",
                 "--operations", "15", "--schedule-seed", "5",
                 "--quiet"]) == 0
    recorded = None
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("choices"):
            recorded = line.split(":", 1)[1].strip()
    assert recorded and recorded != "(fifo)"
    assert main(["schedule", "--builder", "sf", "--records", "60",
                 "--operations", "15", "--replay", recorded,
                 "--quiet"]) == 0


# -- shrink integration ------------------------------------------------------


def test_generic_shrinker_minimizes_schedule_config():
    """The generic shrinker halves a Scenario with a custom runner/dump
    (the defaults are run_plan and failure_dump)."""
    runs = []

    class FakeResult:
        def __init__(self, passed):
            self.passed = passed
            self.detail = "" if passed else "synthetic failure"

        @property
        def failed(self):
            return not self.passed

    def runner(config, plan):
        runs.append(config)
        # Fails whenever at least 2 workers run >= 5 operations: the
        # shrinker should find (records floor, operations 5..9, workers 2).
        fails = config.operations >= 5 and config.workers >= 2
        return FakeResult(passed=not fails)

    def dump(plan, config, result, attempts=1):
        return (f"dump: ops={config.operations} "
                f"workers={config.workers} attempts={attempts}")

    shrunk = shrink_failure(SMALL, SchedulePlan(schedule_seed=1),
                            runner=runner, dump=dump)
    assert shrunk.result.failed
    assert shrunk.config.records == 20          # MIN_RECORDS floor
    assert 5 <= shrunk.config.operations <= 9   # halved to the edge
    assert shrunk.config.workers == 2
    assert shrunk.report().startswith("dump: ")
    assert len(runs) == shrunk.attempts


def test_schedule_dump_contains_repro_recipe():
    seeded = run_plan(SMALL, SchedulePlan(schedule_seed=42))
    text = failure_dump(SchedulePlan(schedule_seed=42), SMALL, seeded)
    assert "python -m repro.sweep schedule" in text
    assert "--replay" in text
    assert f"--records {SMALL.records}" in text


@pytest.mark.parametrize("builder,partitions", [
    pytest.param("sf", None, id="sf-1"), ("psf", 2)])
def test_throttled_seeded_schedule_passes_and_replays(builder, partitions):
    """Schedule exploration with the IB throttle armed: the extra
    token-bucket delays reshape the schedule, but every explored
    interleaving must still audit clean and replay exactly."""
    import dataclasses
    config = dataclasses.replace(SMALL, builder=builder,
                                 partitions=partitions,
                                 build_rate_limit=25.0)
    seeded = run_plan(config, SchedulePlan(schedule_seed=7))
    assert seeded.passed, seeded.detail
    replayed = run_plan(config, SchedulePlan(schedule_seed=7,
                                             choices=seeded.choices))
    assert replayed.passed, replayed.detail
    assert replayed.sim_time == seeded.sim_time
    assert replayed.choices == seeded.choices
