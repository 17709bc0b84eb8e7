"""The drivers' RID pool: a dict's order, a list's choice, no copy.

``WorkloadDriver._claim`` and ``OpenLoopDriver._sample_rid`` used to run
``rng.choice(list(self.pool))`` on every operation.  :class:`RidPool`
must pick the same RID from the same draws -- so every paper table,
sweep and golden stays put -- while a pick costs the same few calls and
allocates nothing, whatever the pool's size.
"""

import cProfile
import random
import tracemalloc

from hypothesis import given, settings, strategies as st

from repro.bench.harness import run_build_experiment
from repro.workloads.generator import WorkloadDriver
from repro.workloads.pool import RidPool

#: one step against the pool and a dict model: add (or overwrite) a RID,
#: drop the live RID at a rank, or pick one with a seeded generator
steps = st.lists(st.one_of(
    st.tuples(st.just("set"), st.integers(0, 60), st.integers(0, 9)),
    st.tuples(st.just("pop"), st.integers(0, 1 << 20)),
    st.tuples(st.just("choice"), st.integers(0, 1 << 20)),
), max_size=120)


@settings(max_examples=150, deadline=None)
@given(steps=steps)
def test_the_pool_behaves_as_a_dict_and_picks_as_choice_of_its_list(steps):
    pool, model = RidPool(), {}
    for step in steps:
        if step[0] == "set":
            pool[step[1]] = model[step[1]] = step[2]
        elif model:
            rid = list(model)[step[1] % len(model)]
            if step[0] == "pop":
                assert pool.pop(rid) == model.pop(rid)
            else:
                ours, theirs = random.Random(step[1]), random.Random(step[1])
                assert pool.choice(ours) == theirs.choice(list(model))
                assert ours.getstate() == theirs.getstate()
        assert list(pool) == list(model)
        assert pool == model and len(pool) == len(model)
    assert [pool.nth(rank) for rank in range(len(pool))] == list(model)


def dict_claim(driver, rng):
    """The parent's ``_claim``: choose from a copy of the pool."""
    if not driver.pool:
        return None
    rid = rng.choice(list(driver.pool))
    return rid, driver.pool.pop(rid)


def test_a_build_under_traffic_claims_what_the_list_copy_claimed(
        monkeypatch):
    def run():
        result = run_build_experiment("sf", rows=400, operations=120,
                                      seed=4)
        driver = result.driver
        return (result.build_time, result.counters,
                [(r.time, r.op, r.worker, r.outcome)
                 for r in driver.op_timeline], list(driver.pool.items()))

    ranked = run()
    monkeypatch.setattr(WorkloadDriver, "_claim", dict_claim)
    assert run() == ranked


def driver_with_pool(size):
    driver = WorkloadDriver.__new__(WorkloadDriver)
    driver.pool = RidPool((rid * 3, rid) for rid in range(size))
    return driver, random.Random(size)


def calls_per_claim(size, claims=200):
    """Python calls per claim and unclaim on a pool of ``size`` RIDs."""
    driver, rng = driver_with_pool(size)
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(claims):
        driver._unclaim(driver._claim(rng))
    profiler.disable()
    return sum(entry.callcount for entry in profiler.getstats()
               if not isinstance(entry.code, str)) / claims


def test_a_claim_costs_the_same_few_calls_whatever_the_pool_size():
    # _claim and the pool's len, its choice, random.choice and
    # _randbelow, the ranked view's len (twice) and index, nth, pop,
    # __getitem__ and __delitem__, _unclaim and __setitem__: 14 (a list
    # copy was one C call doing O(pool) work)
    assert calls_per_claim(1_000) == calls_per_claim(20_000) <= 14


def test_a_claim_copies_nothing():
    """A list of a 20k-RID pool is 160 KB; 200 claims peak far below."""
    driver, rng = driver_with_pool(20_000)
    tracemalloc.start()
    baseline = tracemalloc.get_traced_memory()[0]
    for _ in range(200):
        driver._claim(rng)
    peak = tracemalloc.get_traced_memory()[1] - baseline
    tracemalloc.stop()
    assert len(driver.pool) == 20_000 - 200
    assert peak < 4096, f"{peak} bytes at peak over 200 claims"
