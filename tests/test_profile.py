"""Property tests: reuse profiles against the exact cache simulator.

The profiler's contract is *exactness* for fully-associative LRU: the
predicted hit count at capacity C must equal the exact simulator's,
access for access, and writeback/residual-dirty counts must match the
exact engine's dirty bookkeeping — on arbitrary streams, sectored or
not. The set-associative conflict model is approximate by design; its
properties (bounds, monotonicity, exact edges) are pinned here too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.config import CacheConfig
from repro.cache.setassoc import SetAssociativeCache
from repro.errors import TraceIntegrityError
from repro.profile import (
    compute_profile,
    hit_probability,
    load_profile,
    save_profile,
)
from repro.trace.events import AccessBatch
from repro.trace.reuse import (
    COLD_DISTANCE,
    reuse_distances,
    reuse_distances_fenwick,
)
from repro.trace.stream import AddressStream

#: A small address universe makes collisions (reuse) likely.
accesses = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=64 * 64 - 1),
        st.booleans(),
    ),
    min_size=1,
    max_size=400,
)


def make_batch(pairs):
    addrs = np.asarray([a for a, _ in pairs], dtype=np.uint64)
    kinds = np.asarray([int(s) for _, s in pairs], dtype=np.uint8)
    return AccessBatch.from_lists(addrs, 8, kinds)


def exact_counts(batch, capacity_blocks, block=64, sector=None, drain=False):
    """Ground truth from the exact simulator: (hits, writebacks,
    residual-dirty flush volume) for a fully-associative LRU cache."""
    cache = SetAssociativeCache(CacheConfig(
        "ORACLE", capacity_blocks * block, capacity_blocks, block,
        sector_size=sector,
    ), "scalar")
    cache.process(batch)
    stats = cache.stats
    hits = stats.load_hits + stats.store_hits
    writebacks = stats.writebacks
    residual = len(cache.flush_dirty())
    return hits, writebacks, residual


class TestFullyAssociativeExactness:
    @given(accesses, st.integers(min_value=1, max_value=80))
    @settings(max_examples=120, deadline=None)
    def test_hit_count_equals_reuse_distance_threshold(self, pairs, cap):
        """The ISSUE's headline property: predicted fully-associative
        LRU hits == (reuse_distances(stream) < C).sum(), cold excluded."""
        batch = make_batch(pairs)
        profile = compute_profile(batch, [(64, 64)])
        stream = AddressStream.from_batches([batch])
        d = reuse_distances(stream, line_size=64)
        warm_hits = int(np.count_nonzero((d != COLD_DISTANCE) & (d < cap)))
        assert profile.hit_count(cap) == warm_hits

    @given(accesses, st.integers(min_value=1, max_value=80))
    @settings(max_examples=120, deadline=None)
    def test_hits_writebacks_residual_match_exact_simulator(
        self, pairs, cap
    ):
        batch = make_batch(pairs)
        profile = compute_profile(batch, [(64, 64)])
        hits, writebacks, residual = exact_counts(batch, cap)
        assert profile.hit_count(cap) == hits
        assert profile.writeback_count(cap) == writebacks
        assert profile.residual_dirty(cap) == residual

    @given(accesses, st.integers(min_value=1, max_value=40))
    @settings(max_examples=80, deadline=None)
    def test_sectored_writebacks_match_exact_simulator(self, pairs, cap):
        """Page-granularity allocation, line-granularity dirty state:
        the (g=256, cg=64) profile must reproduce the sectored exact
        engine's writeback and residual counts."""
        batch = make_batch(pairs)
        profile = compute_profile(batch, [(256, 64)])
        hits, writebacks, residual = exact_counts(
            batch, cap, block=256, sector=64
        )
        assert profile.hit_count(cap) == hits
        assert profile.writeback_count(cap) == writebacks
        assert profile.residual_dirty(cap) == residual

    @given(accesses, st.integers(min_value=1, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_each_grain_of_a_chain_profile_is_its_own_profile(
        self, pairs, cap
    ):
        """A mixed-granularity chain's table keeps every granularity's
        exact counts: each grain answers as that granularity's own
        one-grain profile does."""
        batch = make_batch(pairs)
        grains = [(256, 64), (64, 64), (4096, 64)]
        chain = compute_profile(batch, grains)
        assert chain.granularities == tuple(sorted(grains))
        for g, cg in grains:
            alone = compute_profile(batch, [(g, cg)])
            grain = chain.grain(g, cg)
            for count in ("hit_count", "writeback_count", "residual_dirty"):
                assert getattr(chain, count)(cap, grain) == getattr(
                    alone, count
                )(cap)
            assert chain.footprint(grain) == alone.footprint()
        assert chain.references == len(batch)
        assert chain.n_stores == int(batch.is_store.sum())

    @given(accesses)
    @settings(max_examples=60, deadline=None)
    def test_vectorized_distances_match_fenwick_oracle(self, pairs):
        stream = AddressStream.from_batches([make_batch(pairs)])
        assert np.array_equal(
            reuse_distances(stream), reuse_distances_fenwick(stream)
        )

    @given(accesses)
    @settings(max_examples=40, deadline=None)
    def test_miss_ratio_curve_monotone(self, pairs):
        profile = compute_profile(make_batch(pairs), [(64, 64)])
        caps = np.arange(1, 65)
        curve = profile.miss_ratio_curve(caps)
        assert (np.diff(curve) <= 1e-12).all()
        assert (curve >= 0).all() and (curve <= 1).all()


class TestSetAssociativeModel:
    @given(
        st.integers(min_value=1, max_value=64).map(lambda s: 1 << (s % 7)),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_probability_bounds_and_monotonicity(self, num_sets, ways):
        d = np.arange(-1, 200, dtype=np.int64)
        p = hit_probability(d, num_sets, ways)
        assert (p >= 0).all() and (p <= 1).all()
        # Cold accesses never hit.
        assert p[0] == 0.0
        # Deeper stacks can only hurt.
        assert (np.diff(p[1:]) <= 1e-12).all()
        # Fewer intervening blocks than ways always fit.
        warm = p[1 : 1 + ways]
        assert np.allclose(warm, 1.0)

    def test_single_set_is_exact_indicator(self):
        d = np.array([-1, 0, 3, 7, 8, 100], dtype=np.int64)
        p = hit_probability(d, 1, 8)
        assert p.tolist() == [0.0, 1.0, 1.0, 1.0, 0.0, 0.0]

    def test_more_sets_fewer_conflicts(self):
        d = np.full(1, 64, dtype=np.int64)
        p4 = hit_probability(d, 4, 8)[0]
        p16 = hit_probability(d, 16, 8)[0]
        p64 = hit_probability(d, 64, 8)[0]
        assert p4 <= p16 <= p64

    def test_set_associative_error_bounded_on_random_stream(self):
        """The binomial conflict model against the exact engine on a
        hashed 16-set cache: per-stream hit-count error stays within a
        few percent of the references."""
        rng = np.random.default_rng(3)
        n = 30_000
        addrs = (rng.zipf(1.3, size=n) % 4096).astype(np.uint64) * 64
        kinds = (rng.random(n) < 0.3).astype(np.uint8)
        batch = AccessBatch.from_lists(addrs, 8, kinds)
        profile = compute_profile(batch, [(64, 64)])
        sets, ways = 16, 8
        cache = SetAssociativeCache(CacheConfig(
            "SA", sets * ways * 64, ways, 64, hashed_sets=True,
        ))
        cache.process(batch)
        exact_hits = cache.stats.load_hits + cache.stats.store_hits
        predicted = float(
            hit_probability(profile.distances[0], sets, ways)
            @ (profile.loads + profile.stores)
        )
        assert abs(predicted - exact_hits) / n < 0.05


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, 1 << 16, 5000).astype(np.uint64)
        kinds = (rng.random(5000) < 0.4).astype(np.uint8)
        profile = compute_profile(
            AccessBatch.from_lists(addrs, 8, kinds), [(64, 64), (256, 64)]
        )
        path = tmp_path / "cg.profile-d0-g64-c64-g256-c64.npz"
        save_profile(profile, path)
        loaded = load_profile(path)
        assert loaded.granularities == profile.granularities
        assert loaded.references == profile.references == 5000
        assert loaded.footprint(1) == profile.footprint(1)
        for name in ("distances", "loads", "stores", "wb_gaps", "wb_counts",
                     "wb_last"):
            assert np.array_equal(
                getattr(loaded, name), getattr(profile, name)
            )

    def test_corruption_detected(self, tmp_path):
        addrs = np.arange(1000, dtype=np.uint64) * 64
        profile = compute_profile(
            AccessBatch.from_lists(addrs, 8, 0), [(64, 64)]
        )
        path = tmp_path / "p.npz"
        save_profile(profile, path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(TraceIntegrityError):
            load_profile(path)
