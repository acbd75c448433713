"""Reuse-distance and working-set analysis tests."""

import numpy as np
import pytest

import repro.trace.reuse as reuse
from repro.trace.reuse import (
    COLD_DISTANCE,
    distances_for_lines,
    footprint_lines,
    hit_rate_at_capacity,
    lru_hits,
    reuse_distances,
    working_set_curve,
)
from repro.trace.stream import AddressStream
from repro.trace.synthetic import random_stream, sequential_stream


def stream_of_lines(line_numbers):
    """Stream with one 8 B access at the start of each 64 B line."""
    addrs = np.array(line_numbers, dtype=np.uint64) * np.uint64(64)
    return AddressStream.from_arrays(addrs, 8, 0)


class TestReuseDistances:
    def test_cold_misses(self):
        d = reuse_distances(stream_of_lines([0, 1, 2]))
        assert d.tolist() == [COLD_DISTANCE] * 3

    def test_immediate_reuse(self):
        d = reuse_distances(stream_of_lines([0, 0]))
        assert d.tolist() == [COLD_DISTANCE, 0]

    def test_stack_distance(self):
        # Access 0,1,2 then 0: two distinct lines touched since.
        d = reuse_distances(stream_of_lines([0, 1, 2, 0]))
        assert d[-1] == 2

    def test_same_line_different_offsets(self):
        stream = AddressStream.from_arrays([0, 8, 16], 8, 0)
        d = reuse_distances(stream, line_size=64)
        assert d.tolist() == [COLD_DISTANCE, 0, 0]

    def test_length_matches_stream(self):
        stream = random_stream(500, footprint_bytes=4096, seed=0)
        assert len(reuse_distances(stream)) == 500


class TestLruHits:
    """``lru_hits`` decides ``0 <= distance < ways`` without distances."""

    @pytest.mark.parametrize("limit", [1, 4, 64])
    def test_matches_distances(self, monkeypatch, limit):
        monkeypatch.setattr(reuse, "LRU_SCAN_POSITIONS", limit)
        rng = np.random.default_rng(limit)
        for _ in range(30):
            n = int(rng.integers(1, 3000))
            span = int(rng.choice([2, 9, 64, 1000]))
            lines = (rng.zipf(1.2, size=n) % span).astype(np.int64)
            d = distances_for_lines(lines)
            order = np.argsort(lines, kind="stable")
            for w in (1, 2, 8, 16):
                expected = (d >= 0) & (d < w)
                assert np.array_equal(lru_hits(lines, w), expected)
                assert np.array_equal(lru_hits(lines, w, order), expected)

    def test_small_cases(self):
        lines = np.array([0, 0, 1, 2, 0, 1, 3, 3, 0])
        # distances: cold, 0, cold, cold, 2, 2, cold, 0, 2
        assert lru_hits(lines, 3).tolist() == [
            False, True, False, False, True, True, False, True, True,
        ]
        assert lru_hits(lines, 2).tolist() == [
            False, True, False, False, False, False, False, True, False,
        ]
        assert lru_hits(lines[:0], 8).tolist() == []


class TestHitRatePrediction:
    def test_predicts_fully_associative_lru(self):
        """Reuse CDF at capacity C == hit rate of a C-line LRU cache."""
        d = reuse_distances(stream_of_lines([0, 1, 0, 1, 2, 0, 1, 2]))
        # Capacity 2 lines: accesses with distance < 2 hit.
        expected_hits = np.count_nonzero((d >= 0) & (d < 2))
        assert hit_rate_at_capacity(d, 2) == expected_hits / len(d)

    def test_monotone_in_capacity(self):
        stream = random_stream(2000, footprint_bytes=64 * 1024, seed=1)
        d = reuse_distances(stream)
        rates = [hit_rate_at_capacity(d, c) for c in (4, 16, 64, 256, 1024)]
        assert rates == sorted(rates)

    def test_empty(self):
        assert hit_rate_at_capacity(np.array([], dtype=np.int64), 10) == 0.0


class TestWorkingSet:
    def test_sequential_working_set_grows_linearly(self):
        stream = sequential_stream(4096, access_size=64)  # one line each
        curve = working_set_curve(stream, [16, 64, 256])
        assert curve[16] == 16
        assert curve[64] == 64
        assert curve[256] == 256

    def test_single_line_stream(self):
        stream = stream_of_lines([5] * 100)
        curve = working_set_curve(stream, [10, 50])
        assert curve[10] == 1.0
        assert curve[50] == 1.0

    def test_window_larger_than_stream(self):
        stream = stream_of_lines([0, 1, 2])
        curve = working_set_curve(stream, [100])
        assert curve[100] == 3.0

    def test_invalid_window(self):
        stream = stream_of_lines([0])
        assert working_set_curve(stream, [0])[0] == 0.0


class TestFootprint:
    def test_counts_distinct_lines(self):
        assert footprint_lines(stream_of_lines([0, 1, 1, 2, 0])) == 3

    def test_respects_line_size(self):
        stream = AddressStream.from_arrays([0, 64, 128], 8, 0)
        assert footprint_lines(stream, line_size=256) == 1
