"""Tests for the System facade and public package surface."""

import pytest

import repro
from repro.errors import StorageError
from repro.system import System, SystemConfig


def test_public_api_exports_exist():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_duplicate_table_rejected():
    system = System()
    system.create_table("t", ["a"])
    with pytest.raises(StorageError):
        system.create_table("t", ["a"])


def test_config_defaults_are_sane():
    config = SystemConfig()
    assert config.page_capacity > 0
    assert config.leaf_capacity > 1
    assert config.branch_capacity > 2
    assert config.prefetch_pages >= 1
    assert config.merge_fanin >= 2


def test_seeded_rng_is_deterministic():
    a = System(seed=5).rng.random()
    b = System(seed=5).rng.random()
    c = System(seed=6).rng.random()
    assert a == b != c


def test_crash_hooks_invoked():
    system = System()
    fired = []
    system.crash_hooks.append(lambda: fired.append(True))
    system.crash()
    assert fired == [True]


def test_crash_returns_stable_state():
    system = System()
    disk, log = system.crash()
    assert disk is system.disk
    assert log is system.log


def test_run_until_pauses_simulation():
    from repro.sim import Delay
    system = System()

    def body():
        yield Delay(100)

    system.spawn(body(), name="p")
    system.run(until=10)
    assert system.now() == 10
    system.run()
    assert system.now() == 100


def test_version_string():
    assert repro.__version__


def test_metrics_shared_across_components():
    system = System()
    system.metrics.incr("custom.counter", 3)
    assert system.log.metrics is system.metrics
    assert system.buffer.metrics is system.metrics
    assert system.metrics.get("custom.counter") == 3
