"""Set-associative cache engine tests: known-answer behaviours."""

import hashlib

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.cache.setassoc import SetAssociativeCache, check_request_sizes
from repro.errors import SimulationError
from repro.trace.events import AccessBatch
from repro.units import KiB


def batch(addresses, sizes=8, kinds=0):
    return AccessBatch.from_lists(
        list(addresses),
        [sizes] * len(addresses) if np.isscalar(sizes) else sizes,
        [kinds] * len(addresses) if np.isscalar(kinds) else kinds,
    )


class TestHitMissAccounting:
    def test_cold_miss_then_hit(self, small_cache):
        small_cache.process(batch([0]))
        small_cache.process(batch([8]))  # same line
        stats = small_cache.stats
        assert stats.load_misses == 1
        assert stats.load_hits == 1

    def test_sequential_8byte_accesses_one_miss_per_line(self, small_cache):
        small_cache.process(batch(range(0, 1024, 8)))
        stats = small_cache.stats
        assert stats.load_misses == 1024 // 64
        assert stats.load_hits == 128 - 16

    def test_run_collapse_counts_match_naive(self):
        """Processing one event at a time must equal batch processing."""
        rng = np.random.default_rng(3)
        addrs = rng.integers(0, 8 * KiB, size=500, dtype=np.uint64)
        kinds = rng.integers(0, 2, size=500)
        one = SetAssociativeCache(CacheConfig("A", 4 * KiB, 4, 64))
        for a, k in zip(addrs, kinds):
            one.process(batch([int(a)], kinds=int(k)))
        many = SetAssociativeCache(CacheConfig("A", 4 * KiB, 4, 64))
        many.process(AccessBatch.from_lists(addrs, 8, kinds))
        assert one.stats.as_dict() == many.stats.as_dict()

    def test_store_miss_attributed_to_store(self, small_cache):
        small_cache.process(batch([0], kinds=1))
        assert small_cache.stats.store_misses == 1
        assert small_cache.stats.load_misses == 0

    def test_capacity_eviction(self):
        # Direct-mapped 2-line cache: two conflicting lines thrash.
        cache = SetAssociativeCache(CacheConfig("DM", 128, 1, 64))
        cache.process(batch([0, 128, 0, 128]))  # both map to set 0
        assert cache.stats.load_misses == 4

    def test_associativity_prevents_thrash(self):
        cache = SetAssociativeCache(CacheConfig("A2", 256, 2, 64))
        cache.process(batch([0, 128, 0, 128]))  # set 0, 2 ways
        assert cache.stats.load_misses == 2
        assert cache.stats.load_hits == 2

    def test_lru_order_within_set(self):
        cache = SetAssociativeCache(CacheConfig("A2", 256, 2, 64))
        cache.process(batch([0, 128, 256]))  # 256 evicts LRU line 0
        cache.process(batch([128]))  # still resident
        assert cache.stats.load_hits == 1
        cache.process(batch([0]))  # was evicted
        assert cache.stats.load_misses == 4


class TestWritebackPropagation:
    def test_clean_eviction_no_writeback(self):
        cache = SetAssociativeCache(CacheConfig("DM", 128, 1, 64))
        out = cache.process(batch([0, 128]))  # 128 evicts clean line 0
        assert out.is_store.tolist() == [0, 0]  # two fills only

    def test_dirty_eviction_emits_writeback(self):
        cache = SetAssociativeCache(CacheConfig("DM", 128, 1, 64))
        out1 = cache.process(batch([0], kinds=1))  # dirty fill
        assert out1.is_store.tolist() == [0]
        out2 = cache.process(batch([128]))  # evicts dirty line 0
        assert out2.addresses.tolist() == [128, 0]
        assert out2.is_store.tolist() == [0, 1]
        assert cache.stats.writebacks == 1

    def test_fill_sizes_are_block_size(self, small_cache):
        out = small_cache.process(batch([0]))
        assert out.sizes.tolist() == [64]

    def test_store_to_resident_line_marks_dirty(self):
        cache = SetAssociativeCache(CacheConfig("DM", 128, 1, 64))
        cache.process(batch([0]))  # clean fill
        cache.process(batch([0], kinds=1))  # store hit -> dirty
        out = cache.process(batch([128]))
        assert 1 in out.is_store.tolist()

    def test_writeback_cleared_after_eviction(self):
        cache = SetAssociativeCache(CacheConfig("DM", 128, 1, 64))
        cache.process(batch([0], kinds=1))
        cache.process(batch([128]))  # writes back line 0
        out = cache.process(batch([0, 128]))  # refill 0 (clean), evict, refill
        # Line 0 is clean now: its eviction must not write back again.
        assert out.is_store.tolist() == [0, 0]


class TestFlushDirty:
    def test_flush_emits_all_dirty(self, small_cache):
        small_cache.process(batch([0, 64, 128], kinds=1))
        flushed = small_cache.flush_dirty()
        assert sorted(flushed.addresses.tolist()) == [0, 64, 128]
        assert all(flushed.is_store)

    def test_flush_idempotent(self, small_cache):
        small_cache.process(batch([0], kinds=1))
        small_cache.flush_dirty()
        assert len(small_cache.flush_dirty()) == 0

    def test_flush_empty(self, small_cache):
        assert len(small_cache.flush_dirty()) == 0


class TestSectoredCache:
    def cache(self):
        # 4 KiB, direct-mapped, 1 KiB pages, 64 B sectors.
        return SetAssociativeCache(
            CacheConfig("P", 4 * KiB, 1, 1024, sector_size=64)
        )

    def test_fill_is_full_page(self):
        cache = self.cache()
        out = cache.process(batch([0]))
        assert out.sizes.tolist() == [1024]

    def test_writeback_only_dirty_sectors(self):
        cache = self.cache()
        cache.process(batch([0, 64], kinds=[1, 1]))  # two dirty sectors
        cache.process(batch([128]))  # clean sector, same page: hit
        out = cache.process(batch([4096]))  # evicts page 0
        writebacks = out.slice(1, len(out))
        assert sorted(writebacks.addresses.tolist()) == [0, 64]
        assert writebacks.sizes.tolist() == [64, 64]
        assert cache.stats.writebacks == 2

    def test_hits_at_page_granularity(self):
        cache = self.cache()
        cache.process(batch([0]))
        cache.process(batch([512]))  # other sector, same page
        assert cache.stats.load_hits == 1

    def test_sectored_flush(self):
        cache = self.cache()
        cache.process(batch([0, 960], kinds=1))
        flushed = cache.flush_dirty()
        assert sorted(flushed.addresses.tolist()) == [0, 960]
        assert flushed.sizes.tolist() == [64, 64]

    def test_is_dirty_per_sector(self):
        cache = self.cache()
        cache.process(batch([64], kinds=1))
        assert cache.is_dirty(64)
        assert not cache.is_dirty(0)  # same page, clean sector


def _digest(*arrays):
    """Short content digest of a few arrays (pins emitted batches)."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def policy_pin_run(policy, hashed, engine):
    """Three chunks on a 64-set, 4-way cache, one ``insert_block`` after
    each, then ``flush_dirty``; returns what :data:`POLICY_PINS` pins."""
    cache = SetAssociativeCache(CacheConfig(
        "P", 64 * 4 * 64, 4, 64, hashed_sets=hashed, policy=policy,
    ), engine)
    rng = np.random.default_rng(2024)
    emitted = []
    for chunk in range(3):
        blocks = np.repeat(
            rng.integers(0, 1024, size=1500), rng.integers(1, 4, size=1500)
        ).astype(np.uint64)
        kinds = (rng.random(len(blocks)) < 0.3).astype(np.uint8)
        for out in (
            cache.process(AccessBatch.from_lists(blocks * 64 + 8, 8, kinds)),
            cache.insert_block(2048 + chunk),
        ):
            emitted.append(
                (len(out), _digest(out.addresses, out.sizes, out.is_store))
            )
    # A FIFO level without a policy object (the FIFO rounds the pins
    # were generated with) keeps its order in ``_sets``.
    rows = [
        cache._policy.contents(s) if cache._policy else cache._sets[s]
        for s in range(64)
    ]
    resident = [b for row in rows for b in row]
    contents = _digest(
        np.array([len(row) for row in rows], dtype=np.int64),
        np.array(resident, dtype=np.int64),
        np.array([cache.is_dirty(b * 64) for b in resident]),
    )
    out = cache.flush_dirty()
    emitted.append((len(out), _digest(out.addresses, out.sizes, out.is_store)))
    return cache.stats.as_dict(), emitted, contents


#: :func:`policy_pin_run` results, generated by the per-policy loop and
#: the FIFO setpar rounds that preceded the one policy loop.
POLICY_PINS = {
    "fifo-sliced": ("fifo", False, (
        {
            "name": "P", "loads": 6342, "stores": 2726,
            "load_bits": 405888, "store_bits": 174464, "load_hits": 3934,
            "load_misses": 2408, "store_hits": 1716, "store_misses": 1010,
            "writebacks": 1919, "fills": 3418,
        },
        [
            (1707, "1057aefdf03d1fe2"),
            (1, "957030ae832ed093"),
            (1754, "30b1f763d6f5af21"),
            (1, "bc1ee39368b39c85"),
            (1728, "049612f16b501501"),
            (0, "e3b0c44298fc1c14"),
            (146, "ea46f59319a60904"),
        ],
        "f55bbbd4e5e1d116",
    )),
    "fifo-hashed": ("fifo", True, (
        {
            "name": "P", "loads": 6342, "stores": 2726,
            "load_bits": 405888, "store_bits": 174464, "load_hits": 3928,
            "load_misses": 2414, "store_hits": 1708, "store_misses": 1018,
            "writebacks": 1930, "fills": 3432,
        },
        [
            (1703, "b9df35cd5efc9478"),
            (1, "31570259c605d177"),
            (1752, "a5ea788d3e0a31d6"),
            (0, "e3b0c44298fc1c14"),
            (1761, "cbdb4caf7128bf98"),
            (1, "a5b4672835a49d49"),
            (144, "68e7444680095cf4"),
        ],
        "a5b636c0ec9645d2",
    )),
    "random-sliced": ("random", False, (
        {
            "name": "P", "loads": 6342, "stores": 2726,
            "load_bits": 405888, "store_bits": 174464, "load_hits": 3964,
            "load_misses": 2378, "store_hits": 1713, "store_misses": 1013,
            "writebacks": 1904, "fills": 3391,
        },
        [
            (1691, "a0d2206c3dd380c6"),
            (1, "4e4d7bc1ba26246b"),
            (1699, "d67b2f1557a7fce2"),
            (1, "8cac19bceec4dc8f"),
            (1753, "6c3c8ef18844832b"),
            (1, "41478e6ebcdce54d"),
            (149, "ba11e20f14afe0a7"),
        ],
        "8c547de6cec8b389",
    )),
    "random-hashed": ("random", True, (
        {
            "name": "P", "loads": 6342, "stores": 2726,
            "load_bits": 405888, "store_bits": 174464, "load_hits": 3957,
            "load_misses": 2385, "store_hits": 1712, "store_misses": 1014,
            "writebacks": 1906, "fills": 3399,
        },
        [
            (1659, "8d945d1cfbf5e1c7"),
            (0, "e3b0c44298fc1c14"),
            (1733, "f4b7bb3224843904"),
            (1, "086a87ea5426d6d2"),
            (1760, "49e1a244b352a951"),
            (1, "c6bf08dc0a25c22b"),
            (151, "d79508383fb6a1fd"),
        ],
        "52b6e8c70029ca4b",
    )),
}


class TestPolicyVariants:
    def test_fifo_cache_runs(self):
        cache = SetAssociativeCache(CacheConfig("F", 256, 2, 64, policy="fifo"))
        cache.process(batch([0, 128, 0, 256, 0]))
        # FIFO: access to 0 does not refresh; 256 evicts 0.
        assert cache.stats.load_misses == 4

    def test_random_cache_total_conservation(self):
        cache = SetAssociativeCache(
            CacheConfig("R", 4 * KiB, 4, 64, policy="random")
        )
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, 64 * KiB, 2000, dtype=np.uint64)
        cache.process(AccessBatch.from_lists(addrs, 8, 0))
        stats = cache.stats
        assert stats.load_hits + stats.load_misses == stats.loads == 2000

    @pytest.mark.parametrize(
        "policy, hashed, expected", list(POLICY_PINS.values()),
        ids=list(POLICY_PINS),
    )
    @pytest.mark.parametrize("engine", ["auto", "scalar"])
    def test_policy_loop_pin(self, policy, hashed, expected, engine):
        """FIFO and Random levels, unsectored: stats, every emitted
        batch and the final contents and dirty bits are pinned, so the
        policy loop's result never moves with the engine or a refactor."""
        assert policy_pin_run(policy, hashed, engine) == expected


class TestHelpers:
    def test_contains(self, small_cache):
        small_cache.process(batch([0]))
        assert small_cache.contains(8)
        assert not small_cache.contains(4096)

    def test_resident_blocks(self, small_cache):
        small_cache.process(batch([0, 64, 128]))
        assert small_cache.resident_blocks() == 3

    def test_reset(self, small_cache):
        small_cache.process(batch([0], kinds=1))
        small_cache.reset()
        assert small_cache.stats.accesses == 0
        assert small_cache.resident_blocks() == 0
        assert len(small_cache.flush_dirty()) == 0

    def test_empty_batch(self, small_cache):
        out = small_cache.process(AccessBatch.empty())
        assert len(out) == 0

    def test_check_request_sizes(self):
        good = batch([0], sizes=64)
        check_request_sizes(good, 64, "X")
        with pytest.raises(SimulationError):
            check_request_sizes(batch([0], sizes=128), 64, "X")

    def test_stats_bits_counted(self, small_cache):
        small_cache.process(batch([0, 8], sizes=8, kinds=[0, 1]))
        assert small_cache.stats.load_bits == 64
        assert small_cache.stats.store_bits == 64
