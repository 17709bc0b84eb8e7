"""Property tests for the order-preserving compressed key codec.

The codec's contract (experiment E25): for any two index entries
``(*key, rid)``, ``encode(a) < encode(b)  <=>  a < b`` -- the encoded
ints (or :class:`SpilledKey` wrappers, when the fixed-width encoding is
lossy) sort exactly like the raw entries, and ``decode(encode(e)) == e``
always, spilled or not.

The strategies deliberately hover around every spill boundary: the int
window edges, strings at exactly / one past the prefix width, empty
strings, embedded NUL characters, multi-byte UTF-8, and rid fields at
their exact-encoding maxima.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.btree.node import entry_key, entry_rid, make_entry
from repro.core import BuildOptions, IndexSpec, IndexState, \
    ParallelSFBuilder
from repro.sim.kernel import Delay
from repro.storage.rid import RID
from repro.sort import (
    CompressedRunFormation,
    KeyCodec,
    RestartableMerger,
    RunFormation,
    RunStore,
    SpilledKey,
    merge_to_single,
)
from repro.sort.codec import (
    INT_OFFSET,
    STR_PREFIX,
    _INT_MAX_FIELD,
    _RID_EXACT_MAX,
)
from repro.system import System, SystemConfig
from repro.verify import audit_index
from repro.workloads import WorkloadDriver, WorkloadSpec

# Exact-encoding window for int columns: field = value + INT_OFFSET must
# land strictly inside (0, _INT_MAX_FIELD).
INT_EXACT_MIN = 1 - INT_OFFSET
INT_EXACT_MAX = _INT_MAX_FIELD - 1 - INT_OFFSET

int_columns = st.one_of(
    st.integers(min_value=-(1 << 44), max_value=1 << 44),
    st.sampled_from([INT_EXACT_MIN, INT_EXACT_MIN - 1, INT_EXACT_MAX,
                     INT_EXACT_MAX + 1, -1, 0, 1]),
)

str_columns = st.one_of(
    st.text(max_size=STR_PREFIX + 3),
    st.sampled_from(["", "\x00", "a\x00b", "abcd", "abcde", "abcd\x00",
                     "éé", "ééé", "\U0001F600"]),
)

rids = st.one_of(
    st.builds(RID, st.integers(min_value=0, max_value=64),
              st.integers(min_value=0, max_value=64)),
    st.sampled_from([-1, 0, _RID_EXACT_MAX, _RID_EXACT_MAX + 1]),
)

SHAPES = {
    "i": st.tuples(int_columns),
    "s": st.tuples(str_columns),
    "is": st.tuples(int_columns, str_columns),
    "sii": st.tuples(str_columns, int_columns, int_columns),
}


def entry_of(shape):
    return st.builds(make_entry, SHAPES[shape], rids)


def entries_for(shape):
    return st.lists(entry_of(shape), min_size=1, max_size=40)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_encode_decode_round_trip(shape, data):
    entries = data.draw(entries_for(shape))
    codec = KeyCodec(shape)
    for entry in entries:
        assert codec.decode(codec.encode(entry)) == entry


@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_order_isomorphism_pairwise(shape, data):
    a = data.draw(entry_of(shape))
    b = data.draw(entry_of(shape))
    codec = KeyCodec(shape)
    ea = codec.encode(a)
    eb = codec.encode(b)
    assert (ea < eb) == (a < b), (a, b, ea, eb)
    assert (eb < ea) == (b < a), (a, b, ea, eb)
    assert (ea == eb) == (a == b) or isinstance(ea, int) != isinstance(eb, int)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sorted_encoded_list_decodes_to_sorted_raw(shape, data):
    entries = data.draw(entries_for(shape))
    codec = KeyCodec(shape)
    encoded = [codec.encode(entry) for entry in entries]
    encoded.sort()
    assert [codec.decode(e) for e in encoded] == sorted(entries)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_compressed_run_formation_matches_raw(data):
    """End to end: same stream through raw and codec sorters, merged to a
    single run each, must yield the identical key sequence."""
    entries = data.draw(entries_for("is"))
    raw_store = RunStore(prefix="raw")
    raw = RunFormation(raw_store, 4)
    for entry in entries:
        raw.push(entry)
    raw_out = merge_to_single(raw_store, raw.finish(), 3)

    codec = KeyCodec()
    enc_store = RunStore(prefix="enc")
    enc = CompressedRunFormation(enc_store, 4, codec)
    for entry in entries:
        enc.push(entry)
    enc_out = merge_to_single(enc_store, enc.finish(), 3)

    decoded = [codec.decode(e) for e in enc_out.keys]
    assert decoded == list(raw_out.keys) == sorted(entries)


# -- deterministic boundary cases -------------------------------------------


def test_int_window_boundaries_spill_and_still_order():
    codec = KeyCodec("i")
    values = [INT_EXACT_MIN - 5, INT_EXACT_MIN - 1, INT_EXACT_MIN,
              -1, 0, 1, INT_EXACT_MAX, INT_EXACT_MAX + 1, INT_EXACT_MAX + 5]
    encoded = [codec.encode((v, RID(0, 0))) for v in values]
    assert codec.spills == 4  # the four out-of-window values
    assert sorted(encoded) == encoded
    assert [codec.decode(e)[0] for e in encoded] == values


def test_string_prefix_boundary_and_empty_string():
    codec = KeyCodec("s")
    values = ["", "\x00", "a", "abcc", "abcd", "abcd\x00", "abcda", "abcdz",
              "b"]
    encoded = [codec.encode((v, RID(0, 0))) for v in values]
    # Only strings encoding past STR_PREFIX bytes spill.
    assert codec.spills == sum(
        1 for v in values if len(v.encode("utf-8")) > STR_PREFIX)
    assert sorted(encoded) == encoded
    assert [codec.decode(e)[0] for e in encoded] == values


def test_rid_overflow_spills_but_round_trips():
    codec = KeyCodec("i")
    big = (5, _RID_EXACT_MAX + 1)
    small = (5, _RID_EXACT_MAX)
    e_small, e_big = codec.encode(small), codec.encode(big)
    assert isinstance(e_small, int)
    assert isinstance(e_big, SpilledKey)
    assert e_small < e_big
    assert codec.decode(e_big) == big


def test_non_encodable_column_type_disables_codec():
    codec = KeyCodec()
    assert codec.bind((1.5,)) is False
    assert codec.disabled and not codec.active


def test_unsupported_kind_string_rejected():
    with pytest.raises(ValueError):
        KeyCodec("ix")


# -- the dictionary-encoding memos ------------------------------------------


def test_encode_cache_hits_match_fresh_codec():
    shared = KeyCodec("is")
    entries = [(i % 3, "cat%d" % (i % 2), RID(i, i % 5)) for i in range(50)]
    fresh = [KeyCodec("is").encode(entry) for entry in entries]
    cached = [shared.encode(entry) for entry in entries]
    assert cached == fresh
    assert len(shared._encode_cache) == 6  # 3 ints x 2 cats
    for enc, entry in zip(cached, entries):
        assert shared.decode(enc) == entry
    assert len(shared._decode_cache) == 6


def test_cache_limit_bounds_growth(monkeypatch):
    import repro.sort.codec as codec_mod
    monkeypatch.setattr(codec_mod, "_CACHE_LIMIT", 4)
    codec = KeyCodec("i")
    entries = [(i, RID(0, i)) for i in range(10)]
    encoded = [codec.encode(entry) for entry in entries]
    assert len(codec._encode_cache) <= 4
    assert [codec.decode(e) for e in encoded] == entries
    assert len(codec._decode_cache) <= 4


def test_rebinding_clears_caches():
    codec = KeyCodec("i")
    codec.encode((1, RID(0, 0)))
    codec.decode(codec.encode((2, RID(0, 0))))
    assert codec._encode_cache and codec._decode_cache
    codec._bind_kinds("i")
    assert not codec._encode_cache and not codec._decode_cache


def test_manifest_round_trip_preserves_layout():
    codec = KeyCodec("is")
    restored = KeyCodec.from_manifest(codec.to_manifest())
    assert restored.kinds == "is" and restored.active
    entry = (7, "abc", RID(1, 2))
    assert restored.decode(codec.encode(entry)) == entry


def test_merger_pop_many_across_exact_spilled_boundary():
    codec = KeyCodec("i")
    low = [codec.encode((v, RID(0, v))) for v in range(0, 10, 2)]
    # Out-of-window values spill; they interleave with the exact codes.
    high = [codec.encode((v, RID(0, 1)))
            for v in (1, 3, 1 << 50, (1 << 50) + 1)]
    assert any(isinstance(e, SpilledKey) for e in high)
    store = RunStore(prefix="mix")
    runs = []
    for keys in (low, high):
        run = store.new_run()
        for key in keys:
            run.append(key)
        run.closed = True
        runs.append(run)
    merger = RestartableMerger(runs, store.new_run())
    out = []
    while True:
        batch = merger.pop_many(3)
        if not batch:
            break
        out.extend(batch)
    assert out == sorted(low + high)
    assert [codec.decode(e)[0] for e in out] \
        == sorted(v for v in [0, 2, 4, 6, 8, 1, 3, 1 << 50, (1 << 50) + 1])


# -- codec on/off: entry-for-entry the same tree at P in {1, 2, 4} -----------


def _small_config():
    return SystemConfig(page_capacity=8, leaf_capacity=8, branch_capacity=8,
                        sort_workspace=16, merge_fanin=4)


def _entries(system, name="idx"):
    tree = system.indexes[name].tree
    return [(entry_key(e), entry_rid(e), e in tree.pseudo_deleted)
            for e in tree.all_entries(include_pseudo_deleted=True)]


def _build(partitions, compressed, *, seed=7, preload=120, operations=30):
    """One parallel SF build under a scripted post-scan workload (the
    same equivalence harness as test_parallel_build)."""
    system = System(_small_config(), seed=seed)
    table = system.create_table("t", ["k", "p"])
    spec = WorkloadSpec(operations=operations, workers=1,
                        rollback_fraction=0.2, think_time=1.0)
    driver = WorkloadDriver(system, table, spec, seed=seed)
    preload_proc = system.spawn(driver.preload(preload), name="preload")
    system.run()
    assert preload_proc.error is None

    options = BuildOptions(partitions=partitions, compressed_keys=compressed)
    builder = ParallelSFBuilder(system, table, IndexSpec.of("idx", ["k"]),
                                options=options)
    build_proc = system.spawn(builder.run(), name="builder")

    def release_after_scan():
        while "scan_done" not in builder.timings:
            yield Delay(0.5)
        driver.spawn_workers()

    system.spawn(release_after_scan(), name="late-workload")
    system.run()
    if build_proc.error is not None:
        raise build_proc.error
    assert system.indexes["idx"].state is IndexState.AVAILABLE
    audit_index(system, system.indexes["idx"])
    return system


@pytest.mark.parametrize("partitions", [1, 2, 4])
def test_codec_build_entry_for_entry_equivalent(partitions):
    plain = _build(partitions, compressed=False)
    coded = _build(partitions, compressed=True)
    assert _entries(coded) == _entries(plain)
    assert _entries(coded)  # non-vacuous
