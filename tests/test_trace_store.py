"""Trace store and shared trace arena tests."""

import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.errors import TraceError, TraceIntegrityError
from repro.trace.arena import TraceArena
from repro.trace.io import save_trace
from repro.trace.store import PAGE, MappedStream, write_store
from repro.trace.stream import AddressStream
from repro.trace.synthetic import random_stream
from repro.trace.tracer import Tracer


def _assert_streams_equal(a, b):
    ba, bb = a.as_batch(), b.as_batch()
    assert np.array_equal(ba.addresses, bb.addresses)
    assert np.array_equal(ba.sizes, bb.sizes)
    assert np.array_equal(ba.is_store, bb.is_store)


@pytest.fixture
def stream():
    return random_stream(
        5000, footprint_bytes=1 << 20, store_fraction=0.3, seed=11
    )


@pytest.fixture
def chunky_stream():
    # Small chunks force a multi-chunk store.
    s = AddressStream(chunk_events=512)
    src = random_stream(3000, footprint_bytes=1 << 18, seed=3)
    for chunk in src.chunks():
        s.append(chunk.addresses, chunk.sizes, chunk.is_store)
    return s


class TestStoreFormat:
    def test_round_trip_bit_exact(self, tmp_path, stream):
        path = tmp_path / "s.rts"
        write_store(stream, path)
        loaded = MappedStream.open(path)
        assert isinstance(loaded, MappedStream)
        assert len(loaded) == len(stream)
        _assert_streams_equal(stream, loaded)

    def test_chunk_boundaries_preserved(self, tmp_path, chunky_stream):
        path = tmp_path / "c.rts"
        write_store(chunky_stream, path)
        loaded = MappedStream.open(path)
        assert [len(c) for c in loaded.chunks()] == [
            len(c) for c in chunky_stream.chunks()
        ]

    def test_chunks_are_zero_copy_read_only(self, tmp_path, stream):
        path = tmp_path / "s.rts"
        write_store(stream, path)
        loaded = MappedStream.open(path)
        chunk = next(loaded.chunks())
        assert not chunk.addresses.flags.writeable
        assert not chunk.addresses.flags.owndata

    def test_chunks_page_aligned(self, tmp_path, chunky_stream):
        path = tmp_path / "c.rts"
        write_store(chunky_stream, path)
        for record in loaded_records(path):
            assert record.offset % PAGE == 0

    def test_magic_sniff(self, tmp_path, stream):
        other = tmp_path / "s.npz"
        np.savez_compressed(other, addresses=stream.as_batch().addresses)
        with pytest.raises(TraceError, match="not a trace store"):
            MappedStream.open(other)

    def test_append_rejected(self, tmp_path, stream):
        path = tmp_path / "s.rts"
        write_store(stream, path)
        loaded = MappedStream.open(path)
        with pytest.raises(TraceError, match="read-only"):
            loaded.append(
                np.zeros(1, dtype=np.uint64),
                np.full(1, 8, dtype=np.uint32),
                np.zeros(1, dtype=np.uint8),
            )

    def test_materialize_appendable_copy(self, tmp_path, stream):
        path = tmp_path / "s.rts"
        write_store(stream, path)
        copy = MappedStream.open(path).materialize()
        copy.append(
            np.zeros(1, dtype=np.uint64),
            np.full(1, 8, dtype=np.uint32),
            np.zeros(1, dtype=np.uint8),
        )
        assert len(copy) == len(stream) + 1

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "e.rts"
        write_store(AddressStream(), path)
        loaded = MappedStream.open(path)
        assert len(loaded) == 0
        assert list(loaded.chunks()) == []
        loaded.verify()

    def test_stats_match_in_memory(self, tmp_path, chunky_stream):
        path = tmp_path / "c.rts"
        write_store(chunky_stream, path)
        assert MappedStream.open(path).stats() == chunky_stream.stats()

    def test_pickle_reopens_by_path(self, tmp_path, stream):
        path = tmp_path / "s.rts"
        write_store(stream, path)
        loaded = MappedStream.open(path)
        clone = pickle.loads(pickle.dumps(loaded))
        assert isinstance(clone, MappedStream)
        _assert_streams_equal(loaded, clone)


def loaded_records(path):
    from repro.trace.store import _read_header

    _, records = _read_header(path)
    return records


class TestStoreIntegrity:
    def test_corrupt_chunk_names_chunk(self, tmp_path, chunky_stream):
        path = tmp_path / "c.rts"
        write_store(chunky_stream, path)
        records = loaded_records(path)
        target = records[2]
        data = bytearray(path.read_bytes())
        data[target.offset + 5] ^= 0xFF
        path.write_bytes(bytes(data))
        loaded = MappedStream.open(path)
        with pytest.raises(TraceIntegrityError, match="chunk 2"):
            loaded.verify()

    def test_lazy_detection_on_first_touch(self, tmp_path, chunky_stream):
        path = tmp_path / "c.rts"
        write_store(chunky_stream, path)
        data = bytearray(path.read_bytes())
        data[PAGE + 3] ^= 0xFF  # first chunk's payload
        path.write_bytes(bytes(data))
        loaded = MappedStream.open(path)  # lazy: open succeeds
        with pytest.raises(TraceIntegrityError, match="chunk 0"):
            next(loaded.chunks())

    def test_header_verify_detects_truncation(self, tmp_path, stream):
        path = tmp_path / "s.rts"
        write_store(stream, path)
        assert len(MappedStream.open(path)) == len(stream)
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size // 2)
        with pytest.raises(TraceIntegrityError):
            MappedStream.open(path)


class TestMigration:
    def _traced(self, tmp_path):
        tracer = Tracer()
        a = tracer.array("data", (700,))
        _ = a[:]
        _ = a[:350]
        paths = save_trace(tracer.stream, tracer, tmp_path, "mig")
        return tracer, paths

    def test_discard_trace_removes_v2_artifacts(self, tmp_path):
        from repro.trace.io import discard_trace

        self._traced(tmp_path)
        removed = discard_trace(tmp_path, "mig")
        assert len(removed) == 4  # stream + regions + two sidecars
        assert not list(tmp_path.iterdir())


class TestArena:
    def _regions(self):
        tracer = Tracer()
        tracer.allocate("a", 4096)
        return tuple(tracer.regions)

    def test_file_handle_round_trip(self, tmp_path, chunky_stream):
        path = tmp_path / "c.rts"
        write_store(chunky_stream, path)
        mapped = MappedStream.open(path)
        with TraceArena() as arena:
            handle = arena.publish("W", mapped, self._regions())
            assert handle.locator == str(path)  # published in place
            assert handle.events == len(chunky_stream)
            clone = pickle.loads(pickle.dumps(handle))
            attached, regions = clone.attach()
            _assert_streams_equal(chunky_stream, attached)
            assert [r.name for r in regions] == ["a"]

    def test_in_memory_stream_spools_to_file(self, chunky_stream):
        arena = TraceArena()
        try:
            handle = arena.publish("W", chunky_stream, ())
            spool = Path(handle.locator)
            assert spool.parent.name.startswith("repro-arena-")
            assert spool.parent == Path(arena._tempdir)
            attached, _ = handle.attach()
            assert [len(c) for c in attached.chunks()] == [
                len(c) for c in chunky_stream.chunks()
            ]
            _assert_streams_equal(chunky_stream, attached)
            with pytest.raises(TraceError, match="read-only"):
                attached.append(
                    np.zeros(1, dtype=np.uint64),
                    np.full(1, 8, dtype=np.uint32),
                    np.zeros(1, dtype=np.uint8),
                )
        finally:
            arena.close()
        assert not spool.parent.exists()  # spool dir cleaned up

    def test_publish_idempotent(self, chunky_stream):
        with TraceArena() as arena:
            first = arena.publish("W", chunky_stream, ())
            second = arena.publish("W", chunky_stream, ())
            assert first is second


def _events(directory):
    """Events of a telemetry directory's parent run log."""
    path = directory / "events.jsonl"
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


def _event_kinds(directory):
    """Event kinds of a telemetry directory's parent run log."""
    return [event.get("kind") for event in _events(directory)]


@pytest.fixture
def private_tmp(tmp_path, monkeypatch):
    """A private ``tempfile`` directory, to spot leaked arena dirs."""
    import tempfile

    directory = tmp_path / "tmp"
    directory.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(directory))
    return directory


@pytest.mark.resilience
class TestExecutorArena:
    def test_workers_share_published_traces(self, tmp_path):
        from repro.designs.reference import ReferenceDesign
        from repro.experiments.runner import Runner
        from repro.resilience import SweepExecutor
        from repro.telemetry.core import Telemetry
        from repro.workloads.registry import get_workload

        scale = 1.0 / 8192
        runner = Runner(scale=scale, seed=4, trace_cache_dir=str(tmp_path))
        tel = Telemetry(tmp_path / "tel")
        executor = SweepExecutor(
            runner, workers=2, journal=tmp_path / "j.jsonl", telemetry=tel,
        )
        workloads = [get_workload("CG"), get_workload("SP")]
        result = executor.run([ReferenceDesign(scale=scale)], workloads)
        tel.close()
        assert all(o.ok for o in result.outcomes)
        # Every to-run workload is published exactly once, and nothing
        # falls back to private per-worker loading.
        kinds = _event_kinds(tmp_path / "tel")
        assert kinds.count("trace_published") == len(workloads)
        assert "trace_publish_failed" not in kinds
        # The arena is torn down after the campaign drains.
        assert executor._arena_handles is None
        # Parity: a serial run of the same cell is bit-identical.
        serial = Runner(
            scale=scale, seed=4, trace_cache_dir=str(tmp_path)
        ).evaluate(ReferenceDesign(scale=scale), get_workload("CG"))
        parallel_ev = result.outcomes[0].evaluation
        assert parallel_ev.time_norm == serial.time_norm
        assert parallel_ev.energy_j == serial.energy_j

    def test_cold_cache_publishes_its_own_store(
        self, tmp_path, monkeypatch, private_tmp
    ):
        from repro.designs.reference import ReferenceDesign
        from repro.experiments.runner import Runner
        from repro.resilience import SweepExecutor
        from repro.telemetry.core import Telemetry
        from repro.workloads.registry import get_workload

        published = []
        publish = TraceArena.publish

        def spy(self, *args, **kwargs):
            published.append(publish(self, *args, **kwargs))
            return published[-1]

        def no_spool(self, *args, **kwargs):
            raise AssertionError("a cold cached trace was spooled")

        monkeypatch.setattr(TraceArena, "publish", spy)
        monkeypatch.setattr(TraceArena, "_publish_file", no_spool)
        scale = 1.0 / 8192
        cache = tmp_path / "cache"
        runner = Runner(scale=scale, seed=4, trace_cache_dir=str(cache))
        tel = Telemetry(tmp_path / "tel")
        executor = SweepExecutor(runner, workers=2, telemetry=tel)
        result = executor.run(
            [ReferenceDesign(scale=scale)], [get_workload("CG")]
        )
        tel.close()
        assert all(o.ok for o in result.outcomes)
        [handle] = published
        assert handle.locator == str(
            cache / f"{runner._cache_name(get_workload('CG'))}.stream.rts"
        )
        [event] = [
            e for e in _events(tmp_path / "tel")
            if e.get("kind") == "trace_published"
        ]
        assert event["medium"] == "file"
        assert event["cached"] is False
        assert not list(private_tmp.glob("repro-arena-*"))

    def test_publish_failure_falls_back_to_private_loading(
        self, tmp_path, monkeypatch, private_tmp
    ):
        from repro.designs.reference import ReferenceDesign
        from repro.experiments.runner import Runner
        from repro.resilience import SweepExecutor
        from repro.telemetry.core import Telemetry
        from repro.workloads.registry import get_workload

        def broken_spool(*args, **kwargs):
            raise OSError("no space left for the arena")

        # Without a trace cache the trace is in memory, so publishing
        # spools it, and the spool write fails.
        monkeypatch.setattr("repro.trace.arena.write_store", broken_spool)
        scale = 1.0 / 8192
        runner = Runner(scale=scale, seed=4)
        tel = Telemetry(tmp_path / "tel")
        executor = SweepExecutor(runner, workers=2, telemetry=tel)
        result = executor.run(
            [ReferenceDesign(scale=scale)], [get_workload("CG")]
        )
        tel.close()
        assert all(o.ok for o in result.outcomes)
        kinds = _event_kinds(tmp_path / "tel")
        assert "trace_publish_failed" in kinds
        assert "trace_published" not in kinds
        assert executor._arena_handles is None
        assert not list(private_tmp.glob("repro-arena-*"))

    def test_runner_prefers_arena_handle(self, tmp_path, chunky_stream):
        from repro.experiments.runner import Runner

        with TraceArena() as arena:
            handle = arena.publish("CG", chunky_stream, ())
            runner = Runner(
                scale=1.0 / 8192, seed=4,
                trace_arena={"CG": handle},
            )
            from repro.workloads.registry import get_workload

            result = runner._load_cached_trace(get_workload("CG"))
            assert result is not None
            assert result.checks == {"cached": True}
            assert len(result.stream) == len(chunky_stream)
