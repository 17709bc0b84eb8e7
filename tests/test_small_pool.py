"""Every builder is right in a pool far smaller than its table.

The pool has no pin count: a frame is pinned only by a held or awaited
latch, so anything carried across a yield unlatched may be evicted and
re-read.  The build scan used to latch the page *objects* a prefetch
batch handed it; at 8 frames a foreground fetch evicted the unlatched
tail, a transaction updated the re-read frame, and SF / PSF extracted
stale keys from the orphan while still advancing Current-RID past the
page -- a silently wrong index (missing and spurious entries) that no
sweep could see, because every sweep hard-coded a comfortable pool.
Pool size is now one more scenario field the harness perturbs, alone
and together with crash plans and schedule seeds.
"""

import pytest

from repro.sweep import (
    Plan,
    Scenario,
    SchedulePlan,
    discover,
    enumerate_plans,
    failure_dump,
    run_plan,
    run_sweep,
)

#: (builder, scan shards); None = the builder's default.  The ids say
#: "1" for the serial scan, as they did when every row carried a count.
ROWS = [("offline", None), ("nsf", None), ("sf", None), ("psf", 2),
        ("multi", None), ("multi", 2), ("rebuild", None)]
ROW_IDS = [f"{builder}-{partitions or 1}" for builder, partitions in ROWS]


def _scenario(builder, partitions=None, frames=8, seed=1, **overrides):
    return Scenario(builder=builder, partitions=partitions, records=300,
                    operations=100, seed=seed, buffer_frames=frames,
                    **overrides)


@pytest.mark.parametrize("frames", [2, 8])
@pytest.mark.parametrize("builder,partitions", ROWS, ids=ROW_IDS)
def test_clean_build_passes_the_full_oracle(builder, partitions, frames):
    for seed in (1, 2, 3):
        result = run_plan(_scenario(builder, partitions, frames, seed),
                          Plan())
        assert result.passed, f"seed {seed}: {result.detail}"


@pytest.mark.parametrize("builder,partitions", [
    pytest.param("sf", None, id="sf"), pytest.param("psf", None, id="psf"),
    pytest.param("multi", 2, id="multi-2")])
def test_crash_sweep_at_8_frames(builder, partitions):
    report = run_sweep(_scenario(builder, partitions, max_plans=40))
    assert report.results, "sweep enumerated no plans"
    assert report.all_passed, report.to_text()
    assert all(r.fired for r in report.results), report.to_text()
    # the pool really was under pressure
    assert report.rows[0].discovered.get("buffer.evict_dirty", 0) > 0


def test_crash_plan_replays_under_its_seeded_schedule_at_8_frames():
    """The three perturbations compose in one run_plan call: hit counts
    come from a census taken under the same schedule seed, so the armed
    replay reaches the same instant of the same interleaving."""
    scenario = _scenario("sf")
    schedule = SchedulePlan(schedule_seed=11)
    census = discover(scenario, schedule)
    assert census != discover(scenario), "the schedule perturbed nothing"
    # each site's last hit: the latest instant of the perturbed schedule
    plans = [plan for plan in enumerate_plans(scenario, census, schedule)
             if plan.fault.site in ("sidefile.append", "sf.drain_start",
                                    "buffer.evict_dirty")
             and plan.fault.hit == census[plan.fault.site]]
    assert len(plans) >= 3
    for plan in plans:
        result = run_plan(scenario, plan)
        assert result.fired, f"{plan.describe()} never fired"
        assert result.passed, failure_dump(plan, scenario, result)
        assert result.preemptions + result.ties_perturbed > 0
        assert result.site_hits[plan.fault.site] == plan.fault.hit

    # the dump is the whole reproduction recipe: fault plan, recorded
    # choice-string and pool size; replaying the recorded choices (not
    # the seed) reaches the same fault at the same simulated instant
    text = failure_dump(plan, scenario, result)
    assert plan.fault.describe() in text
    assert result.choices and result.choices in text
    assert "buffer_frames=8" in text
    replayed = run_plan(scenario, Plan(plan.fault, SchedulePlan(
        schedule.schedule_seed, choices=result.choices)))
    assert replayed.fired and replayed.passed, replayed.detail
    assert replayed.fired_at == result.fired_at
    assert replayed.choices == result.choices
