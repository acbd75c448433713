"""Windowed time-series: exact conservation against final statistics."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.cache.hierarchy import Hierarchy
from repro.cache.mainmem import MainMemory
from repro.cache.setassoc import SetAssociativeCache
from repro.errors import TelemetryError
from repro.telemetry.core import Telemetry, activate
from repro.telemetry.exporters import read_jsonl
from repro.telemetry.observatory import aggregate_run
from repro.telemetry.windows import (
    WINDOW_FIELDS,
    WindowedCollector,
    WindowRecord,
    decode_window,
    encode_window,
    sum_windows,
)
from repro.trace.stream import AddressStream
from repro.units import KiB

pytestmark = pytest.mark.telemetry

TINY_SCALE = 1.0 / 4096

SRC = Path(__file__).resolve().parent.parent / "src"


def small_hierarchy() -> Hierarchy:
    """A 2-level hierarchy small enough to miss frequently."""
    return Hierarchy(
        [
            SetAssociativeCache(CacheConfig("L1", 1 * KiB, 2, 64)),
            SetAssociativeCache(CacheConfig("L2", 4 * KiB, 4, 64)),
        ],
        MainMemory("MEM"),
    )


def mixed_stream(n: int = 4096, seed: int = 3):
    """A reusing load/store mix over a footprint larger than L2."""
    rng = np.random.default_rng(seed)
    addresses = rng.integers(0, 64 * KiB, size=n, dtype=np.uint64) * 8
    return AddressStream.from_arrays(
        addresses, 8, rng.integers(0, 2, size=n)
    )


def run_in_batches(
    hierarchy: Hierarchy, stream: AddressStream, batch: int = 256
) -> None:
    """Feed a stream in small batches so several windows can emit.

    (``Hierarchy.run`` consumes 2**18-event chunks, so a small test
    stream would otherwise arrive as a single observer callback.)
    """
    from repro.trace.events import AccessBatch

    for chunk in stream.chunks():
        for start in range(0, len(chunk), batch):
            stop = start + batch
            hierarchy.process_batch(
                AccessBatch(
                    chunk.addresses[start:stop],
                    chunk.sizes[start:stop],
                    chunk.is_store[start:stop],
                )
            )


def attach_collector(
    hierarchy: Hierarchy, window_refs: int
) -> WindowedCollector:
    collector = WindowedCollector(
        "test", lambda: hierarchy.stats().levels, window_refs=window_refs
    )
    hierarchy.observer = collector
    return collector


def logged_windows(directory, context_prefix: str = ""):
    """The window records of every ``window`` event in ``directory``'s
    log whose context starts with ``context_prefix``."""
    return [
        record
        for event in read_jsonl(directory / "events.jsonl")
        if event["kind"] == "window"
        and event["context"].startswith(context_prefix)
        for record in decode_window(event, str(directory))
    ]


class TestConservation:
    def test_window_sums_equal_final_stats_exactly(self):
        hierarchy = small_hierarchy()
        collector = attach_collector(hierarchy, window_refs=256)
        run_in_batches(hierarchy, mixed_stream())
        stats = hierarchy.stats()
        collector.finish()
        assert len(collector.records) > len(stats.levels)  # several windows
        totals = sum_windows(collector.records)
        for level in stats.levels:
            for field in WINDOW_FIELDS:
                assert totals[level.name][field] == getattr(level, field), (
                    f"{level.name}.{field} not conserved"
                )

    def test_drain_writebacks_land_in_final_window(self):
        # Batch size == window size, so the last batch emits a window
        # right at the end of the stream; the drain then mutates stats
        # *without* advancing refs, and finish() must still capture it.
        hierarchy = small_hierarchy()
        collector = attach_collector(hierarchy, window_refs=256)
        run_in_batches(hierarchy, mixed_stream(), batch=256)
        windows_before_drain = collector.records[-1].index
        hierarchy.drain()
        stats = hierarchy.stats()
        assert stats.levels[0].writebacks > 0  # drain flushed dirty L1
        collector.finish()
        assert collector.records[-1].index == windows_before_drain + 1
        final = collector.records[-1]
        assert final.start_refs == final.end_refs  # zero-width: drain only
        totals = sum_windows(collector.records)
        for level in stats.levels:
            for field in WINDOW_FIELDS:
                assert totals[level.name][field] == getattr(level, field)

    def test_event_round_trip_preserves_conservation(self, tmp_path):
        telemetry = Telemetry(tmp_path, window_refs=256)
        hierarchy = small_hierarchy()
        collector = telemetry.window_collector(
            "round-trip", lambda: hierarchy.stats().levels
        )
        hierarchy.observer = collector
        run_in_batches(hierarchy, mixed_stream())
        hierarchy.drain()
        stats = hierarchy.stats()
        telemetry.finish_collector(collector)
        read_back = logged_windows(tmp_path)
        assert read_back == collector.records
        totals = sum_windows(read_back)
        for level in stats.levels:
            for field in WINDOW_FIELDS:
                assert totals[level.name][field] == getattr(level, field)


def make_records() -> list[WindowRecord]:
    counters = {field: i for i, field in enumerate(WINDOW_FIELDS)}
    return [
        WindowRecord(index=0, start_refs=0, end_refs=100, level="L1",
                     **counters),
        WindowRecord(index=0, start_refs=0, end_refs=100, level="MEM",
                     **{field: 0 for field in WINDOW_FIELDS}),
        WindowRecord(index=1, start_refs=100, end_refs=150, level="L1",
                     **counters),
        WindowRecord(index=1, start_refs=100, end_refs=150, level="MEM",
                     **counters),
    ]


def through_log(payload: dict, seq: int = 0) -> dict:
    """A window payload as a reader gets it back from the event log."""
    return json.loads(
        json.dumps({"kind": "window", "seq": seq, **payload}, sort_keys=True)
    )


class TestWindowEventCodec:
    def test_exact_round_trip(self):
        records = make_records()
        decoded = []
        for index in (0, 1):
            window = [r for r in records if r.index == index]
            decoded += decode_window(through_log(encode_window(window)), "t")
        assert decoded == records  # level order survives sorted keys

    def test_empty_levels_decode_to_no_records(self):
        event = through_log({"window": 0, "start_refs": 0, "end_refs": 0,
                             "levels": []})
        assert decode_window(event, "t") == []

    def test_missing_levels_raises(self):
        with pytest.raises(TelemetryError, match="seq 3 in src.*levels"):
            decode_window(through_log({"window": 0}, seq=3), "src")

    def test_bad_counter_raises(self):
        for bad in (None, "7", 7.0, True):  # None: the counter is missing
            payload = encode_window(make_records()[:2])
            if bad is None:
                del payload["levels"][1]["fills"]
            else:
                payload["levels"][1]["fills"] = bad
            with pytest.raises(TelemetryError, match="seq 9 in src: fills"):
                decode_window(through_log(payload, seq=9), "src")


class TestWindowing:
    def test_windows_partition_the_reference_axis(self):
        hierarchy = small_hierarchy()
        collector = attach_collector(hierarchy, window_refs=300)
        run_in_batches(hierarchy, mixed_stream())
        collector.finish()
        l1_records = [r for r in collector.records if r.level == "L1"]
        assert l1_records[0].start_refs == 0
        for prev, nxt in zip(l1_records, l1_records[1:]):
            assert nxt.start_refs == prev.end_refs
            assert nxt.index == prev.index + 1
        assert l1_records[-1].end_refs == collector.refs

    def test_windows_are_at_least_window_refs_wide_except_last(self):
        hierarchy = small_hierarchy()
        collector = attach_collector(hierarchy, window_refs=300)
        run_in_batches(hierarchy, mixed_stream())
        collector.finish()
        l1_records = [r for r in collector.records if r.level == "L1"]
        for record in l1_records[:-1]:
            assert record.end_refs - record.start_refs >= 300

    def test_no_activity_emits_no_windows(self):
        hierarchy = small_hierarchy()
        collector = attach_collector(hierarchy, window_refs=16)
        assert collector.finish() == []

    def test_finish_is_idempotent(self):
        hierarchy = small_hierarchy()
        collector = attach_collector(hierarchy, window_refs=16)
        hierarchy.run(mixed_stream(256))
        first = list(collector.finish())
        assert collector.finish() == first

    def test_derived_properties(self):
        hierarchy = small_hierarchy()
        collector = attach_collector(hierarchy, window_refs=1 << 30)
        stats = hierarchy.run(mixed_stream())
        [l1] = [r for r in collector.finish() if r.level == "L1"]
        level = stats.levels[0]
        assert l1.accesses == level.loads + level.stores
        assert l1.hits == level.load_hits + level.store_hits
        assert l1.hit_rate == pytest.approx(l1.hits / l1.accesses)
        assert l1.bytes_moved == (level.load_bits + level.store_bits) // 8
        width = l1.end_refs - l1.start_refs
        assert l1.demand_bytes_per_ref == pytest.approx(
            l1.bytes_moved / width
        )


class TestValidation:
    def test_rejects_non_positive_window(self):
        with pytest.raises(TelemetryError, match="positive"):
            WindowedCollector("x", list, window_refs=0)

    def test_rejects_level_set_changes(self):
        from repro.cache.stats import LevelStats

        levels = [LevelStats(name="A")]
        collector = WindowedCollector(
            "x", lambda: list(levels), window_refs=1
        )
        levels.append(LevelStats(name="B"))
        with pytest.raises(TelemetryError, match="level set changed"):
            collector.on_refs(1)

    def test_rejects_duplicate_level_names(self):
        from repro.cache.stats import LevelStats

        with pytest.raises(TelemetryError, match="duplicate level"):
            WindowedCollector(
                "x",
                lambda: [LevelStats(name="A"), LevelStats(name="A")],
                window_refs=1,
            )


class TestRunnerIntegration:
    """The acceptance property: window-event sums equal final
    HierarchyStats."""

    def test_lower_replay_is_priced_by_counts_without_windows(
        self, tmp_path
    ):
        """Telemetry watches a design's lower replay without steering
        it: the one-cache LRU chain takes the same counts-only path as
        an untelemetered runner, and writes no design window series."""
        import json

        from repro.designs.configs import N_CONFIGS
        from repro.designs.nmm import NMMDesign
        from repro.experiments.runner import Runner
        from repro.tech.params import get_technology
        from repro.workloads.registry import get_workload

        workload = get_workload("Hashing")

        def priced(telemetry):
            runner = Runner(scale=TINY_SCALE, seed=7, telemetry=telemetry)
            design = NMMDesign(
                get_technology("PCM"), N_CONFIGS["N6"],
                scale=TINY_SCALE, reference=runner.reference,
            )
            return design, runner.stats_for(design, workload)

        telemetry = Telemetry(tmp_path, window_refs=1 << 14)
        with activate(telemetry):  # levels announce to the active one
            design, stats = priced(telemetry)
        telemetry.close()

        (l4,) = design.lower_caches("auto")
        events = [
            json.loads(line)
            for line in (tmp_path / "events.jsonl").read_text().splitlines()
        ]
        engines = {
            e["level"]: e["engine"]
            for e in events if e["kind"] == "engine_selected"
        }
        assert engines[l4.name] == "lru-counts"
        assert stats == priced(None)[1]
        assert not logged_windows(tmp_path, "design-")
        assert logged_windows(tmp_path, "upper-Hashing")

    def test_upper_windows_match_shared_sram_stats(self, tmp_path):
        from repro.experiments.runner import Runner
        from repro.workloads.registry import get_workload

        telemetry = Telemetry(tmp_path, window_refs=1 << 14)
        runner = Runner(
            scale=TINY_SCALE, seed=7, telemetry=telemetry, local_factor=0
        )
        trace = runner.prepare(get_workload("Hashing"))
        telemetry.close()

        totals = sum_windows(logged_windows(tmp_path, "upper-Hashing"))
        # With local_factor=0 nothing is injected, so the upper stats
        # are exactly what the windows observed (L1/L2/L3 + CAPTURE).
        for level in trace.upper_stats:
            for field in WINDOW_FIELDS:
                assert totals[level.name][field] == getattr(level, field)

    def test_finished_stage_survives_a_kill(self, tmp_path):
        """A process SIGKILLed as soon as the upper stage's collector
        finishes still leaves that stage's every window on disk."""
        from repro.experiments.runner import Runner
        from repro.workloads.registry import get_workload

        script = f"""
import os, signal, sys
from repro.experiments.runner import Runner
from repro.telemetry.core import Telemetry
from repro.workloads.registry import get_workload

finish = Telemetry.finish_collector

def finish_then_die(self, collector):
    finish(self, collector)
    os.kill(os.getpid(), signal.SIGKILL)

Telemetry.finish_collector = finish_then_die
telemetry = Telemetry(sys.argv[1], window_refs=1 << 14)
Runner(scale={TINY_SCALE!r}, seed=7, telemetry=telemetry,
       local_factor=0).prepare(get_workload("Hashing"))
"""
        out = tmp_path / "killed"
        done = subprocess.run(
            [sys.executable, "-c", script, str(out)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == -9, done.stderr

        trace = Runner(scale=TINY_SCALE, seed=7, local_factor=0).prepare(
            get_workload("Hashing")
        )
        aggregate = aggregate_run(out)
        windows = [
            row.record for row in aggregate.windows
            if row.context == "upper-Hashing"
        ]
        assert windows
        totals = sum_windows(windows)
        for level in trace.upper_stats:
            for field in WINDOW_FIELDS:
                assert totals[level.name][field] == getattr(level, field)
