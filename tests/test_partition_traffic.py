"""The vectorized range-traffic counter against the per-range mask loop.

``_count_range_traffic`` bins every access once into the intervals
between the ranges' edges and sums each range's intervals. The oracle
below is the loop it replaced: one mask per (chunk, range) pair. They
must agree exactly for unsorted, adjacent, overlapping and never-hit
ranges, for addresses on the edges, across chunk boundaries and on an
empty stream; the dynamic partitioner's window profiles must not move.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.partition.dynamic as dynamic
from repro.partition.profiler import (
    TRAFFIC_COLUMNS,
    RangeProfile,
    _count_range_traffic,
    _interval_edges,
    _range_profiles,
    profile_ranges,
    region_intervals,
    region_traffic,
    select_ranges,
)
from repro.partition.ranges import AddressRange, merge_close_ranges
from repro.tech.params import DRAM, PCM, STTRAM
from repro.trace.stream import AddressStream
from repro.trace.tracer import Tracer


def mask_loop(stream, ranges):
    """The per-range mask loop: the oracle for the vectorized counter."""
    n = len(ranges)
    loads = np.zeros(n, dtype=np.int64)
    stores = np.zeros(n, dtype=np.int64)
    load_bytes = np.zeros(n, dtype=np.int64)
    store_bytes = np.zeros(n, dtype=np.int64)
    starts = np.array([r.start for r in ranges], dtype=np.uint64)
    ends = np.array([r.end for r in ranges], dtype=np.uint64)
    for chunk in stream.chunks():
        addr = chunk.addresses
        is_store = chunk.is_store != 0
        sizes = chunk.sizes.astype(np.int64)
        for i in range(n):
            mask = (addr >= starts[i]) & (addr < ends[i])
            if not mask.any():
                continue
            sm = mask & is_store
            lm = mask & ~is_store
            loads[i] += int(np.count_nonzero(lm))
            stores[i] += int(np.count_nonzero(sm))
            load_bytes[i] += int(sizes[lm].sum())
            store_bytes[i] += int(sizes[sm].sum())
    return [
        RangeProfile(
            range=ranges[i],
            loads=int(loads[i]),
            stores=int(stores[i]),
            load_bytes=int(load_bytes[i]),
            store_bytes=int(store_bytes[i]),
        )
        for i in range(n)
    ]


#: A small address space, so ranges overlap, abut and share edges often.
SPACE = 256


@st.composite
def ranges_and_stream(draw):
    """Ranges in any order (some overlapping, adjacent or unreachable)
    and a stream whose addresses favour the ranges' edges, cut into
    chunks of a drawn size."""
    ranges = []
    for _ in range(draw(st.integers(0, 6))):
        start = draw(st.integers(0, SPACE - 1))
        if ranges and draw(st.booleans()):
            start = draw(st.sampled_from(
                [r.end for r in ranges if r.end < SPACE * 2]
                + [r.start for r in ranges]
            ))
        end = start + draw(st.integers(1, SPACE // 2))
        ranges.append(AddressRange(start, end))
    edges = [r.start for r in ranges] + [r.end for r in ranges]
    # Edge neighbours, plus addresses no range reaches.
    near = [max(0, e + d) for e in edges for d in (-1, 0, 1)]
    address = st.one_of(
        st.integers(0, 2 * SPACE + 8),
        st.sampled_from(near) if near else st.integers(0, 8),
        st.integers(2**40, 2**40 + 8),
    )
    n = draw(st.integers(0, 60))
    addresses = draw(st.lists(address, min_size=n, max_size=n))
    sizes = draw(st.lists(st.integers(1, 2**31), min_size=n, max_size=n))
    kinds = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    stream = AddressStream(chunk_events=draw(st.integers(1, 16)))
    stream.append(
        np.array(addresses, dtype=np.uint64),
        np.array(sizes, dtype=np.uint32),
        np.array(kinds, dtype=np.uint8),
    )
    return ranges, stream


class TestAgainstTheMaskLoop:
    @settings(max_examples=300, deadline=None)
    @given(ranges_and_stream())
    def test_equal_profiles(self, case):
        ranges, stream = case
        assert _count_range_traffic(stream, ranges) == mask_loop(stream, ranges)

    def test_several_chunks_with_edge_addresses(self):
        ranges = [
            AddressRange(64, 128, "b"),
            AddressRange(0, 64, "a"),  # adjacent to b, listed after it
            AddressRange(32, 96, "ab"),  # overlaps both
            AddressRange(1000, 1064, "cold"),  # never hit
        ]
        addresses = [0, 31, 32, 63, 64, 95, 96, 127, 128, 999, 1064] * 3
        stream = AddressStream(chunk_events=4)
        stream.append(
            np.array(addresses, dtype=np.uint64),
            np.arange(1, len(addresses) + 1, dtype=np.uint32),
            np.array([i % 2 for i in range(len(addresses))], dtype=np.uint8),
        )
        assert len(list(stream.chunks())) > 1
        profiles = _count_range_traffic(stream, ranges)
        assert profiles == mask_loop(stream, ranges)
        assert [p.references for p in profiles] == [12, 12, 12, 0]

    def test_empty_stream_and_no_ranges(self):
        ranges = [AddressRange(0, 64), AddressRange(32, 128)]
        empty = AddressStream()
        assert _count_range_traffic(empty, ranges) == mask_loop(empty, ranges)
        assert all(p.references == 0 for p in _count_range_traffic(empty, ranges))
        stream = AddressStream.from_arrays(np.arange(8, dtype=np.uint64), 8, 0)
        assert _count_range_traffic(stream, []) == []

    def test_byte_sums_are_exact_beyond_float_precision(self):
        # An odd total above 2**53, which no float64 holds, in one chunk.
        n, size = 2**21 + 3, 2**32 - 1
        stream = AddressStream.from_arrays(
            np.full(n, 8, dtype=np.uint64), size, 1, chunk_events=n
        )
        (profile,) = _count_range_traffic(stream, [AddressRange(0, 64)])
        assert profile.store_bytes == n * size > 2**53


def numpy_range_profiles(ranges, edges, traffic):
    """The numpy range selection the plain-Python one replaced: edges
    by ``np.unique``, prefix sums by ``np.cumsum`` over int64 rows, and
    each range's rows by ``np.searchsorted``. The oracle for
    :func:`_interval_edges` and :func:`_range_profiles`."""
    edges = np.unique(np.array(edges, dtype=np.uint64))
    traffic = np.array(traffic, dtype=np.int64).reshape(
        len(traffic), len(TRAFFIC_COLUMNS)
    )
    totals = np.zeros((len(traffic) + 1, len(TRAFFIC_COLUMNS)), dtype=np.int64)
    np.cumsum(traffic, axis=0, out=totals[1:])
    lo = np.searchsorted(edges, np.array([r.start for r in ranges], dtype=np.uint64))
    hi = np.searchsorted(edges, np.array([r.end for r in ranges], dtype=np.uint64))
    sums = (totals[hi] - totals[lo]).tolist()
    profiles = [
        RangeProfile(r, *(int(value) for value in row))
        for r, row in zip(ranges, sums)
    ]
    return edges.tolist(), profiles


@st.composite
def ranges_and_traffic(draw):
    """Ranges in any order — overlapping, adjacent, up to the top of the
    64-bit address space — with counters of every interval between
    their edges (some above 2**53, their sums within int64), and the
    ranges to profile: some of the ranges and their merges."""
    top = 2**64 - 1
    ranges = []
    for _ in range(draw(st.integers(0, 8))):
        if ranges and draw(st.booleans()):
            start = draw(st.sampled_from(
                [r.start for r in ranges] + [r.end for r in ranges if r.end < top]
            ))
        else:
            start = draw(st.one_of(
                st.integers(0, 4 * SPACE), st.integers(top - 4 * SPACE, top - 1)
            ))
        end = min(top, start + draw(st.integers(1, SPACE)))
        ranges.append(AddressRange(start, end))
    n_rows = max(0, len({r.start for r in ranges} | {r.end for r in ranges}) - 1)
    counter = st.one_of(st.integers(0, 1000), st.integers(2**53, 2**59))
    traffic = draw(st.lists(
        st.lists(counter, min_size=4, max_size=4),
        min_size=n_rows, max_size=n_rows,
    ))
    picked = [r for r in ranges if draw(st.booleans())]
    merged = merge_close_ranges(ranges, draw(st.integers(0, 2 * SPACE)))
    return ranges, traffic, picked + merged


class TestSelectionAgainstNumpy:
    @settings(max_examples=300, deadline=None)
    @given(ranges_and_traffic())
    def test_equal_edges_and_profiles(self, case):
        ranges, traffic, profiled = case
        edges = _interval_edges(ranges)
        expected_edges, expected = numpy_range_profiles(
            profiled, [r.start for r in ranges] + [r.end for r in ranges],
            traffic,
        )
        assert edges == expected_edges
        assert _range_profiles(profiled, edges, traffic) == expected

    def test_counts_above_float_precision_stay_exact(self):
        ranges = [AddressRange(0, 64), AddressRange(64, 128)]
        big = 2**53 + 1
        traffic = [[big, 1, big, 3], [big, 2, 5, big]]
        (whole,) = _range_profiles(
            [AddressRange(0, 128)], _interval_edges(ranges), traffic
        )
        assert (whole.loads, whole.store_bytes) == (2 * big, big + 3)


def traced_regions():
    """A traced run over five regions of uneven heat."""
    tracer = Tracer()
    arrays = [tracer.array(f"a{i}", (256 * (i + 1),)) for i in range(5)]
    rng = np.random.default_rng(3)
    for i, a in enumerate(arrays):
        idx = rng.integers(0, a.shape[0], 200 * (5 - i))
        _ = a[idx]
        a[idx[: 40 * i]] = 1.0
    return tracer


class TestSelectionFromRegionTraffic:
    @pytest.mark.parametrize("coverage", [0.5, 0.9, 0.95, 1.0])
    @pytest.mark.parametrize("merge_gap", [0, 4095, 1 << 20])
    def test_select_ranges_equals_profile_ranges(self, coverage, merge_gap):
        tracer = traced_regions()
        traffic = region_traffic(tracer.stream, tracer)
        assert len(traffic) == region_intervals(tracer)
        assert all(
            len(row) == len(TRAFFIC_COLUMNS)
            and all(type(value) is int for value in row)
            for row in traffic
        )
        edges = _interval_edges(
            [AddressRange(r.base, r.end) for r in tracer.regions]
        )
        intervals = [AddressRange(a, b) for a, b in zip(edges, edges[1:])]
        assert traffic == [
            [p.loads, p.stores, p.load_bytes, p.store_bytes]
            for p in mask_loop(tracer.stream, intervals)
        ]
        assert select_ranges(
            tracer, traffic, coverage=coverage, merge_gap=merge_gap
        ) == profile_ranges(
            tracer.stream, tracer, coverage=coverage, merge_gap=merge_gap
        )

    def test_merged_ranges_count_what_the_mask_loop_counts(self):
        tracer = traced_regions()
        merged = select_ranges(
            tracer, region_traffic(tracer.stream, tracer), coverage=1.0,
            merge_gap=1 << 20,
        )
        assert len(merged) == 1
        assert merged == mask_loop(tracer.stream, [p.range for p in merged])


class TestDynamicWindows:
    def test_plan_unchanged(self, monkeypatch):
        rng = np.random.default_rng(5)
        candidates = [
            AddressRange(0x10000, 0x20000, "A"),
            AddressRange(0x20000, 0x28000, "B"),  # adjacent to A
            AddressRange(0x30000, 0x50000, "C"),
        ]
        addresses = np.concatenate([
            rng.integers(0x10000, 0x28000, 3000),
            rng.integers(0x30000, 0x50000, 3000),
            rng.integers(0x0, 0x60000, 2000),
        ]).astype(np.uint64)
        stream = AddressStream(chunk_events=1000)
        stream.append(
            addresses,
            np.full(len(addresses), 64, dtype=np.uint32),
            (rng.random(len(addresses)) < 0.3).astype(np.uint8),
        )
        plans = []
        for counter in (dynamic._count_range_traffic, mask_loop):
            monkeypatch.setattr(dynamic, "_count_range_traffic", counter)
            plans.append([
                dynamic.plan_dynamic_partition(
                    stream, candidates, dram_tech=DRAM, nvm_tech=nvm,
                    dram_capacity=0x18000, n_phases=phases,
                )
                for nvm in (PCM, STTRAM)
                for phases in (1, 3, 4)
            ])
        assert plans[0] == plans[1]
