"""Counts-only pricing of a one-cache LRU chain against the scalar loop.

:func:`~repro.cache.hierarchy.replay_chain` prices a cold LRU
``SetAssociativeCache`` above a plain ``MainMemory`` from whole-stream
counts (:meth:`SetAssociativeCache.count_lru`) unless the level is
forced onto the scalar engine, which keeps the per-run loop. These
tests hold the two to identical cache and memory ``LevelStats`` on
random streams, every set mapping, sectored and unsectored levels, any
store mix and both drain modes, and show that the scan limit of
:func:`~repro.trace.reuse.lru_hits` never changes a result.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.trace.reuse as reuse
from repro.cache.config import CacheConfig
from repro.cache.hierarchy import replay_chain
from repro.cache.mainmem import MainMemory
from repro.cache.setassoc import SetAssociativeCache
from repro.trace.stream import AddressStream

#: (block, sector) pairs: unsectored levels and 64 B-sectored pages.
GEOMETRIES = [(64, 64), (256, 256), (256, 64), (4096, 64)]


def price(stream, geometry, ways, sets, hashed, drain, engine):
    """Cache and memory stats of one chain replay, plus whether the
    cache was left cold (only the counts path leaves it so)."""
    block, sector = geometry
    cache = SetAssociativeCache(CacheConfig(
        "L4", sets * ways * block, ways, block, sector_size=sector,
        hashed_sets=hashed,
    ), engine)
    memory = MainMemory("MEM")
    replay_chain(stream, [cache], memory, drain=drain)
    return (
        cache.stats.as_dict(), memory.stats.as_dict(),
        cache.resident_blocks() == 0,
    )


def assert_counts_match_loop(stream, geometry, ways, sets, hashed, drain):
    counts = price(stream, geometry, ways, sets, hashed, drain, "auto")
    loop = price(stream, geometry, ways, sets, hashed, drain, "scalar")
    assert counts[:2] == loop[:2]
    assert counts[2], "the auto engine did not take the counts path"
    assert not loop[2], "the scalar engine must keep the loop"


def make_stream(blocks, offsets, stores, block, chunk_events):
    addresses = (
        np.asarray(blocks, dtype=np.uint64) * np.uint64(block)
        + np.asarray(offsets, dtype=np.uint64) % np.uint64(block)
    )
    return AddressStream.from_arrays(
        addresses, 8, np.asarray(stores, dtype=np.uint8),
        chunk_events=chunk_events,
    )


chains = st.fixed_dictionaries({
    "geometry": st.sampled_from(GEOMETRIES),
    "ways": st.sampled_from([1, 2, 8, 16]),
    "sets": st.sampled_from([1, 4, 64]),
    "hashed": st.booleans(),
    "drain": st.booleans(),
})


@given(
    chain=chains,
    accesses=st.lists(
        st.tuples(st.integers(0, 300), st.integers(0, 511)),
        min_size=1, max_size=400,
    ),
    store_fraction=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**16),
    chunk_events=st.integers(1, 97),
)
@settings(max_examples=150, deadline=None)
def test_random_streams(chain, accesses, store_fraction, seed, chunk_events):
    block = chain["geometry"][0]
    blocks, offsets = zip(*accesses)
    stores = np.random.default_rng(seed).random(len(accesses)) < store_fraction
    stream = make_stream(
        blocks, np.asarray(offsets) * 8, stores, block, chunk_events
    )
    assert_counts_match_loop(stream, **chain)


@given(
    chain=chains,
    hot_blocks=st.integers(1, 3),
    length=st.integers(50, 3000),
    far_fraction=st.sampled_from([0.001, 0.01, 0.05]),
    store_fraction=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_hot_loops_with_rare_far_reuses(chain, hot_blocks, length,
                                        far_fraction, store_fraction, seed):
    """A few hot blocks, and now and then one of a few far ones: the
    far reuses have long windows of few distinct blocks, which the
    vectorized scan cannot decide and the exact count must."""
    rng = np.random.default_rng(seed)
    blocks = rng.integers(0, hot_blocks, size=length)
    far = rng.random(length) < far_fraction
    blocks[far] = hot_blocks + rng.integers(0, 20, size=int(far.sum()))
    offsets = rng.integers(0, 512, size=length) * 8
    stores = rng.random(length) < store_fraction
    stream = make_stream(
        blocks, offsets, stores, chain["geometry"][0], 256
    )
    assert_counts_match_loop(stream, **chain)


@pytest.mark.parametrize("limit", [1, 4, 10_000])
def test_scan_limit_never_changes_a_result(monkeypatch, limit):
    """With a one-position scan the exact per-window count decides
    nearly every long window; any limit gives the loop's result."""
    monkeypatch.setattr(reuse, "LRU_SCAN_POSITIONS", limit)
    rng = np.random.default_rng(limit)
    for trial in range(40):
        length = int(rng.integers(1, 2000))
        span = int(rng.choice([3, 12, 40, 400]))
        blocks = rng.zipf(1.3, size=length) % span
        offsets = rng.integers(0, 512, size=length) * 8
        stores = rng.random(length) < rng.random()
        geometry = GEOMETRIES[trial % len(GEOMETRIES)]
        stream = make_stream(blocks, offsets, stores, geometry[0], 300)
        assert_counts_match_loop(
            stream, geometry, int(rng.choice([1, 2, 8, 16])),
            int(rng.choice([1, 4, 64])), bool(trial % 2), bool(trial % 3),
        )


def test_empty_stream_prices_nothing():
    stats, memory, cold = price(
        AddressStream(), (4096, 64), 8, 4, True, True, "auto"
    )
    assert cold
    assert all(value == 0 for key, value in stats.items() if key != "name")
    assert all(value == 0 for key, value in memory.items() if key != "name")


def test_warm_cache_keeps_the_loop(monkeypatch):
    """The counts path prices a cold cache only; a cache that already
    holds blocks is replayed by the loop."""
    calls = []
    real = SetAssociativeCache.count_lru

    def counted(self, *args, **kwargs):
        calls.append(self.name)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(SetAssociativeCache, "count_lru", counted)
    cache = SetAssociativeCache(CacheConfig("L4", 4 * 8 * 4096, 8, 4096,
                                            sector_size=64))
    stream = make_stream([1, 2, 3, 1], [0, 8, 16, 24], [1, 0, 1, 0], 4096, 2)
    replay_chain(stream, [cache], MainMemory(), drain=False)
    assert calls == ["L4"]
    cache.insert_block(7)
    replay_chain(stream, [cache], MainMemory(), drain=False)
    assert calls == ["L4"]
