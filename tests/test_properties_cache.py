"""Property-based tests: the cache engine against an executable oracle.

The oracle is a dict/list LRU model written for clarity, not speed; the
engine (vectorized, run-collapsed, hashed variants) must agree with it
exactly on hit/miss/writeback accounting for arbitrary access patterns.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.config import CacheConfig
from repro.cache.setassoc import SetAssociativeCache
from repro.trace.events import AccessBatch
from repro.units import KiB


class OracleLRU:
    """Straight-line LRU write-back cache model (block granularity)."""

    def __init__(self, capacity, ways, block):
        self.block_bits = block.bit_length() - 1
        self.nsets = capacity // (block * ways)
        self.ways = ways
        self.sets = [[] for _ in range(self.nsets)]
        self.dirty = set()
        self.hits = self.misses = self.writebacks = 0

    def access(self, addr, is_store):
        blk = addr >> self.block_bits
        s = self.sets[blk % self.nsets]
        if blk in s:
            s.remove(blk)
            s.insert(0, blk)
            self.hits += 1
        else:
            self.misses += 1
            s.insert(0, blk)
            if len(s) > self.ways:
                victim = s.pop()
                if victim in self.dirty:
                    self.dirty.discard(victim)
                    self.writebacks += 1
        if is_store:
            self.dirty.add(blk)


accesses = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4 * KiB - 8),
        st.booleans(),
    ),
    min_size=1,
    max_size=300,
)


@given(accesses)
@settings(max_examples=60, deadline=None)
def test_engine_matches_oracle(pattern):
    engine = SetAssociativeCache(CacheConfig("E", 1 * KiB, 2, 64))
    oracle = OracleLRU(1 * KiB, 2, 64)
    addrs = np.array([a for a, _ in pattern], dtype=np.uint64)
    kinds = np.array([int(s) for _, s in pattern], dtype=np.uint8)
    engine.process(AccessBatch.from_lists(addrs, 8, kinds))
    for a, s in pattern:
        oracle.access(a, s)
    assert engine.stats.hits == oracle.hits
    assert engine.stats.misses == oracle.misses
    assert engine.stats.writebacks == oracle.writebacks


@given(accesses, st.integers(min_value=1, max_value=5))
@settings(max_examples=30, deadline=None)
def test_chunking_invariance(pattern, n_chunks):
    """Splitting a stream into arbitrary chunks must not change stats."""
    addrs = np.array([a for a, _ in pattern], dtype=np.uint64)
    kinds = np.array([int(s) for _, s in pattern], dtype=np.uint8)
    whole = SetAssociativeCache(CacheConfig("W", 1 * KiB, 2, 64))
    whole.process(AccessBatch.from_lists(addrs, 8, kinds))
    split = SetAssociativeCache(CacheConfig("W", 1 * KiB, 2, 64))
    for part_a, part_k in zip(
        np.array_split(addrs, n_chunks), np.array_split(kinds, n_chunks)
    ):
        if len(part_a):
            split.process(AccessBatch.from_lists(part_a, 8, part_k))
    assert whole.stats.as_dict() == split.stats.as_dict()


@given(accesses)
@settings(max_examples=40, deadline=None)
def test_conservation_laws(pattern):
    """hits + misses == accesses; fills == misses; writebacks <= fills
    history; resident blocks <= capacity."""
    cache = SetAssociativeCache(CacheConfig("C", 512, 2, 64))
    addrs = np.array([a for a, _ in pattern], dtype=np.uint64)
    kinds = np.array([int(s) for _, s in pattern], dtype=np.uint8)
    cache.process(AccessBatch.from_lists(addrs, 8, kinds))
    stats = cache.stats
    assert stats.hits + stats.misses == stats.accesses == len(pattern)
    assert stats.fills == stats.misses
    assert stats.writebacks <= stats.fills
    assert cache.resident_blocks() <= cache.config.num_blocks


@given(accesses)
@settings(max_examples=40, deadline=None)
def test_downstream_volume_conservation(pattern):
    """Every emitted fill is a load of exactly one block; every emitted
    writeback is a store of one block; their counts match the stats."""
    cache = SetAssociativeCache(CacheConfig("C", 512, 2, 64))
    addrs = np.array([a for a, _ in pattern], dtype=np.uint64)
    kinds = np.array([int(s) for _, s in pattern], dtype=np.uint8)
    out = cache.process(AccessBatch.from_lists(addrs, 8, kinds))
    fills = int((out.is_store == 0).sum())
    writebacks = int((out.is_store == 1).sum())
    assert fills == cache.stats.fills
    assert writebacks == cache.stats.writebacks
    assert all(size == 64 for size in out.sizes.tolist())


@given(accesses)
@settings(max_examples=40, deadline=None)
def test_sectored_writeback_subset_of_stores(pattern):
    """A sectored cache may only write back sectors that were stored to."""
    cache = SetAssociativeCache(
        CacheConfig("P", 2 * KiB, 2, 256, sector_size=64)
    )
    addrs = np.array([a for a, _ in pattern], dtype=np.uint64)
    kinds = np.array([int(s) for _, s in pattern], dtype=np.uint8)
    out = cache.process(AccessBatch.from_lists(addrs, 8, kinds))
    flushed = cache.flush_dirty()
    stored_sectors = {
        (int(a) >> 6) for a, s in pattern if s
    }
    written_back = set()
    for batch in (out, flushed):
        for addr, is_store in zip(batch.addresses, batch.is_store):
            if is_store:
                written_back.add(int(addr) >> 6)
    assert written_back <= stored_sectors


@given(accesses)
@settings(max_examples=30, deadline=None)
def test_sectored_page_hit_rate_at_least_unsectored(pattern):
    """Sectoring changes writebacks only, never hits/misses."""
    addrs = np.array([a for a, _ in pattern], dtype=np.uint64)
    kinds = np.array([int(s) for _, s in pattern], dtype=np.uint8)
    plain = SetAssociativeCache(CacheConfig("A", 2 * KiB, 2, 256))
    sect = SetAssociativeCache(
        CacheConfig("B", 2 * KiB, 2, 256, sector_size=64)
    )
    plain.process(AccessBatch.from_lists(addrs, 8, kinds))
    sect.process(AccessBatch.from_lists(addrs, 8, kinds))
    assert plain.stats.hits == sect.stats.hits
    assert plain.stats.misses == sect.stats.misses


class OracleHashedLRU(OracleLRU):
    """Oracle variant using the engine's multiplicative set hash."""

    def access(self, addr, is_store):
        blk = addr >> self.block_bits
        set_index = ((blk * 2654435761) >> 15) & (self.nsets - 1)
        s = self.sets[set_index]
        if blk in s:
            s.remove(blk)
            s.insert(0, blk)
            self.hits += 1
        else:
            self.misses += 1
            s.insert(0, blk)
            if len(s) > self.ways:
                victim = s.pop()
                if victim in self.dirty:
                    self.dirty.discard(victim)
                    self.writebacks += 1
        if is_store:
            self.dirty.add(blk)


@given(accesses)
@settings(max_examples=50, deadline=None)
def test_hashed_engine_matches_hashed_oracle(pattern):
    engine = SetAssociativeCache(
        CacheConfig("H", 1 * KiB, 2, 64, hashed_sets=True)
    )
    oracle = OracleHashedLRU(1 * KiB, 2, 64)
    addrs = np.array([a for a, _ in pattern], dtype=np.uint64)
    kinds = np.array([int(s) for _, s in pattern], dtype=np.uint8)
    engine.process(AccessBatch.from_lists(addrs, 8, kinds))
    for a, s in pattern:
        oracle.access(a, s)
    assert engine.stats.hits == oracle.hits
    assert engine.stats.misses == oracle.misses
    assert engine.stats.writebacks == oracle.writebacks


class OracleFIFO:
    """Straight-line FIFO write-back model."""

    def __init__(self, capacity, ways, block):
        self.block_bits = block.bit_length() - 1
        self.nsets = capacity // (block * ways)
        self.ways = ways
        self.sets = [[] for _ in range(self.nsets)]
        self.dirty = set()
        self.hits = self.misses = self.writebacks = 0

    def access(self, addr, is_store):
        blk = addr >> self.block_bits
        s = self.sets[blk % self.nsets]
        if blk in s:
            self.hits += 1  # no recency update under FIFO
        else:
            self.misses += 1
            s.insert(0, blk)
            if len(s) > self.ways:
                victim = s.pop()
                if victim in self.dirty:
                    self.dirty.discard(victim)
                    self.writebacks += 1
        if is_store:
            self.dirty.add(blk)


@given(accesses)
@settings(max_examples=50, deadline=None)
def test_fifo_engine_matches_fifo_oracle(pattern):
    engine = SetAssociativeCache(CacheConfig("F", 1 * KiB, 2, 64, policy="fifo"))
    oracle = OracleFIFO(1 * KiB, 2, 64)
    addrs = np.array([a for a, _ in pattern], dtype=np.uint64)
    kinds = np.array([int(s) for _, s in pattern], dtype=np.uint8)
    engine.process(AccessBatch.from_lists(addrs, 8, kinds))
    for a, s in pattern:
        oracle.access(a, s)
    assert engine.stats.hits == oracle.hits
    assert engine.stats.misses == oracle.misses
    assert engine.stats.writebacks == oracle.writebacks


# ----------------------------------------------------------------------
# Scalar vs set-parallel engine differential
# ----------------------------------------------------------------------
#
# The setpar engine (what the ``auto`` engine resolves to on these plain
# LRU levels) promises bit-identical behaviour, not approximate
# agreement: same LevelStats, same emitted requests in the same order,
# same resident/dirty end state. These tests drive random mixes of
# streaming runs and random addresses through both engines and compare
# everything observable.

import pytest

import repro.cache.setassoc as setassoc_mod


def _random_batch(rng, n_events, block, store_frac):
    """A mixed streaming/random batch (runs of 1-4 equal blocks)."""
    base = rng.integers(0, 1 << 20, size=n_events).astype(np.uint64)
    rep = rng.integers(1, 5, size=n_events)
    addrs = np.repeat(base * np.uint64(block), rep).astype(np.uint64)
    sizes = np.full(len(addrs), max(1, min(8, block)), dtype=np.uint32)
    stores = (rng.random(len(addrs)) < store_frac).astype(np.uint8)
    return addrs, sizes, stores


def _engine_pair(ways, nsets, block, hashed):
    cap = nsets * ways * block
    config = CacheConfig("D", cap, ways, block, hashed_sets=hashed)
    scalar = SetAssociativeCache(config, "scalar")
    setpar = SetAssociativeCache(config, "auto")
    return scalar, setpar


def _assert_batches_equal(a, b):
    assert np.array_equal(a.addresses, b.addresses)
    assert np.array_equal(a.sizes, b.sizes)
    assert np.array_equal(a.is_store, b.is_store)


@pytest.mark.parametrize("ways", [1, 2, 4, 8])
@pytest.mark.parametrize("store_frac", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("hashed", [False, True])
def test_setpar_differential_single_chunk(
    monkeypatch, ways, store_frac, hashed
):
    """One chunk: identical stats, emissions (content AND order), and
    resident/dirty end state across both engines."""
    monkeypatch.setattr(setassoc_mod, "SETPAR_MIN_LANES", 2)
    rng = np.random.default_rng(1000 * ways + int(store_frac * 10))
    scalar, setpar = _engine_pair(ways, 64, 64, hashed)
    addrs, sizes, stores = _random_batch(rng, 400, 64, store_frac)
    out_sc = scalar.process(AccessBatch(addrs, sizes, stores))
    out_sp = setpar.process(
        AccessBatch(addrs.copy(), sizes.copy(), stores.copy())
    )
    _assert_batches_equal(out_sc, out_sp)
    assert scalar.stats.as_dict() == setpar.stats.as_dict()
    assert scalar._sets == setpar._sets
    assert scalar._dirty == setpar._dirty
    assert scalar.resident_blocks() == setpar.resident_blocks()


@pytest.mark.parametrize("drain", [False, True])
@pytest.mark.parametrize("min_lanes", [1, 4, 32])
def test_setpar_differential_multi_chunk(monkeypatch, drain, min_lanes):
    """Multiple chunks carry warm state across process() calls; an
    optional flush at the end must drain identical dirty lines in
    identical order. Sweeping SETPAR_MIN_LANES moves the hybrid
    vector/scalar cutoff so skewed tails land on both paths."""
    monkeypatch.setattr(setassoc_mod, "SETPAR_MIN_LANES", min_lanes)
    rng = np.random.default_rng(7 + min_lanes)
    scalar, setpar = _engine_pair(4, 32, 64, True)
    for _ in range(4):
        addrs, sizes, stores = _random_batch(rng, 300, 64, 0.3)
        out_sc = scalar.process(AccessBatch(addrs, sizes, stores))
        out_sp = setpar.process(
            AccessBatch(addrs.copy(), sizes.copy(), stores.copy())
        )
        _assert_batches_equal(out_sc, out_sp)
    if drain:
        _assert_batches_equal(scalar.flush_dirty(), setpar.flush_dirty())
    assert scalar.stats.as_dict() == setpar.stats.as_dict()
    assert scalar._sets == setpar._sets
    assert scalar._dirty == setpar._dirty


def test_setpar_near_max_address_latch(monkeypatch):
    """Blocks too large for the packed-tag scheme flip the sticky
    scalar latch; behaviour must stay identical before, during, and
    after the latch trips (and reset() must clear it)."""
    monkeypatch.setattr(setassoc_mod, "SETPAR_MIN_LANES", 1)
    rng = np.random.default_rng(99)
    # Byte-granularity blocks: the block number IS the address, so a
    # near-2^64 address exceeds the packable range (2^63 - 2).
    scalar, setpar = _engine_pair(2, 8, 1, False)
    for chunk in range(3):
        addrs, sizes, stores = _random_batch(rng, 150, 1, 0.5)
        if chunk == 1:
            addrs[len(addrs) // 2] = np.uint64(2**64 - 1)
        out_sc = scalar.process(AccessBatch(addrs, sizes, stores))
        out_sp = setpar.process(
            AccessBatch(addrs.copy(), sizes.copy(), stores.copy())
        )
        _assert_batches_equal(out_sc, out_sp)
    assert setpar._setpar_unsafe
    assert scalar.stats.as_dict() == setpar.stats.as_dict()
    setpar.reset()
    assert not setpar._setpar_unsafe


@given(accesses)
@settings(max_examples=60, deadline=None)
def test_setpar_differential_hypothesis(pattern):
    """Arbitrary hypothesis-generated patterns agree bit-exactly
    (vector path forced by the tiny-lane threshold)."""
    old = setassoc_mod.SETPAR_MIN_LANES
    setassoc_mod.SETPAR_MIN_LANES = 1
    try:
        addrs = np.array([a for a, _ in pattern], dtype=np.uint64)
        kinds = np.array([int(s) for _, s in pattern], dtype=np.uint8)
        scalar, setpar = _engine_pair(2, 8, 64, False)
        out_sc = scalar.process(AccessBatch.from_lists(addrs, 8, kinds))
        out_sp = setpar.process(AccessBatch.from_lists(addrs, 8, kinds))
        _assert_batches_equal(out_sc, out_sp)
        assert scalar.stats.as_dict() == setpar.stats.as_dict()
        assert scalar._sets == setpar._sets
        assert scalar._dirty == setpar._dirty
    finally:
        setassoc_mod.SETPAR_MIN_LANES = old
