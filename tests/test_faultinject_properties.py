"""Property test: a random single fault anywhere still recovers.

Hypothesis drives the sweep machinery with random builders, seeds and
(site, hit, kind) choices drawn from each run's own discovery census.
Any failure is shrunk to a minimal workload first, and the failure
message carries the deterministic reproduction recipe.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.faultinject.injector import CRASH, FaultPlan, LOST_FLUSH, \
    TORN_WRITE
from repro.faultinject.sites import LOST_CAPABLE, TORN_CAPABLE
from repro.sweep import Scenario, discover, run_plan, shrink_failure

_CENSUS_CACHE: dict = {}


def _census(config: Scenario) -> dict:
    key = (config.builder, config.seed)
    if key not in _CENSUS_CACHE:
        _CENSUS_CACHE[key] = discover(config)
    return _CENSUS_CACHE[key]


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    builder=st.sampled_from(["nsf", "sf"]),
    seed=st.integers(min_value=0, max_value=5),
    site_index=st.integers(min_value=0, max_value=10_000),
    hit_fraction=st.floats(min_value=0.0, max_value=1.0),
    kind_choice=st.integers(min_value=0, max_value=2),
)
def test_random_single_fault_recovers(builder, seed, site_index,
                                      hit_fraction, kind_choice):
    config = Scenario(builder=builder, seed=seed, records=120,
                      operations=8, buffer_frames=1024)
    census = _census(config)
    sites = sorted(census)
    site = sites[site_index % len(sites)]
    count = census[site]
    hit = 1 + round(hit_fraction * (count - 1))
    kind = CRASH
    if kind_choice == 1 and site in TORN_CAPABLE:
        kind = TORN_WRITE
    elif kind_choice == 2 and site in LOST_CAPABLE:
        kind = LOST_FLUSH
    plan = FaultPlan(site, hit, kind)

    result = run_plan(config, plan)
    if result.failed:
        shrunk = shrink_failure(config, plan)
        raise AssertionError(
            f"single fault {plan.describe()} did not recover cleanly\n"
            + shrunk.report())
    assert result.fired, f"{plan.describe()} never fired (census drift?)"


def test_loser_sidefile_entries_behind_a_restored_current_rid():
    """A loser updated a record the scan had passed and appended its
    side-file entries durably; its commit was lost.  Restart puts the
    checkpointed Current-RID back behind the record, so the index is no
    longer visible to the record's undo -- the undo must still append
    the reverse entries, or the rescan loads the restored key and the
    drain then deletes it and inserts the loser's."""
    config = Scenario(builder="sf", records=120, operations=4, workers=2,
                      seed=4, buffer_frames=1024)
    result = run_plan(config, FaultPlan("wal.force.before", 9, CRASH))
    assert result.fired
    assert not result.failed, result.detail
