"""v2 trace store and shared trace arena tests."""

import json
import pickle

import numpy as np
import pytest

from repro.errors import TraceError, TraceIntegrityError
from repro.trace.arena import SharedStream, TraceArena, TraceHandle
from repro.trace.io import (
    checksum_path,
    load_stream,
    load_trace,
    save_stream,
    save_trace,
    verify_artifact,
)
from repro.trace.store import (
    PAGE,
    MappedStream,
    is_store_file,
    verify_store_header,
    write_store,
)
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
        loaded = load_stream(path)
        assert isinstance(loaded, MappedStream)
        assert len(loaded) == len(stream)
        _assert_streams_equal(stream, loaded)

    def test_chunk_boundaries_preserved(self, tmp_path, chunky_stream):
        path = tmp_path / "c.rts"
        write_store(chunky_stream, path)
        loaded = load_stream(path)
        assert [len(c) for c in loaded.chunks()] == [
            len(c) for c in chunky_stream.chunks()
        ]

    def test_chunks_are_zero_copy_read_only(self, tmp_path, stream):
        path = tmp_path / "s.rts"
        write_store(stream, path)
        loaded = load_stream(path)
        chunk = next(loaded.chunks())
        assert not chunk.addresses.flags.writeable
        assert not chunk.addresses.flags.owndata

    def test_chunks_page_aligned(self, tmp_path, chunky_stream):
        path = tmp_path / "c.rts"
        write_store(chunky_stream, path)
        for record in loaded_records(path):
            assert record.offset % PAGE == 0

    def test_magic_sniff(self, tmp_path, stream):
        v2 = tmp_path / "s.rts"
        write_store(stream, v2)
        assert is_store_file(v2)
        v1 = tmp_path / "s.npz"
        save_stream(stream, v1)
        assert not is_store_file(v1)

    def test_append_rejected(self, tmp_path, stream):
        path = tmp_path / "s.rts"
        write_store(stream, path)
        loaded = load_stream(path)
        with pytest.raises(TraceError, match="read-only"):
            loaded.append(
                np.zeros(1, dtype=np.uint64),
                np.full(1, 8, dtype=np.uint32),
                np.zeros(1, dtype=np.uint8),
            )

    def test_materialize_appendable_copy(self, tmp_path, stream):
        path = tmp_path / "s.rts"
        write_store(stream, path)
        copy = load_stream(path).materialize()
        copy.append(
            np.zeros(1, dtype=np.uint64),
            np.full(1, 8, dtype=np.uint32),
            np.zeros(1, dtype=np.uint8),
        )
        assert len(copy) == len(stream) + 1

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "e.rts"
        write_store(AddressStream(), path)
        loaded = load_stream(path)
        assert len(loaded) == 0
        assert list(loaded.chunks()) == []
        loaded.verify()

    def test_stats_match_in_memory(self, tmp_path, chunky_stream):
        path = tmp_path / "c.rts"
        write_store(chunky_stream, path)
        assert load_stream(path).stats() == chunky_stream.stats()

    def test_pickle_reopens_by_path(self, tmp_path, stream):
        path = tmp_path / "s.rts"
        write_store(stream, path)
        loaded = load_stream(path)
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
        loaded = load_stream(path)
        with pytest.raises(TraceIntegrityError, match="chunk 2"):
            loaded.verify()

    def test_lazy_detection_on_first_touch(self, tmp_path, chunky_stream):
        path = tmp_path / "c.rts"
        write_store(chunky_stream, path)
        data = bytearray(path.read_bytes())
        data[PAGE + 3] ^= 0xFF  # first chunk's payload
        path.write_bytes(bytes(data))
        loaded = load_stream(path)  # lazy: open succeeds
        with pytest.raises(TraceIntegrityError, match="chunk 0"):
            next(loaded.chunks())

    def test_header_verify_detects_truncation(self, tmp_path, stream):
        path = tmp_path / "s.rts"
        write_store(stream, path)
        events = verify_store_header(path)
        assert events == len(stream)
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size // 2)
        with pytest.raises(TraceIntegrityError):
            verify_store_header(path)

    def test_verify_artifact_fast_path(self, tmp_path, stream):
        path = tmp_path / "s.rts"
        write_store(stream, path)
        # Small file (under the cap): full sidecar hash as before.
        verify_artifact(path, max_bytes=1 << 30)
        # Over the cap: only prelude + header digests are checked.
        verify_artifact(path, max_bytes=1)
        # Over the cap with a corrupt header: still detected.
        data = bytearray(path.read_bytes())
        data[-2] ^= 0xFF  # header JSON lives at the end of the file
        path.write_bytes(bytes(data))
        with pytest.raises(TraceIntegrityError):
            verify_artifact(path, max_bytes=1)

    def test_verify_artifact_fast_path_skips_non_store(self, tmp_path):
        path = tmp_path / "big.bin"
        path.write_bytes(b"x" * 4096)
        checksum_path(path).write_text("0" * 64 + "  big.bin\n")
        # Under the cap: the (wrong) sidecar is checked and fails.
        with pytest.raises(TraceIntegrityError):
            verify_artifact(path, max_bytes=1 << 20)
        # Over the cap and not a v2 store: deferred, no error.
        verify_artifact(path, max_bytes=1)


class TestMigration:
    def _traced(self, tmp_path, version):
        tracer = Tracer()
        a = tracer.array("data", (700,))
        _ = a[:]
        _ = a[:350]
        paths = save_trace(tracer.stream, tracer, tmp_path, "mig",
                           version=version)
        return tracer, paths

    def test_v1_to_v2_migration_bit_exact(self, tmp_path):
        tracer, (v1_path, _) = self._traced(tmp_path, version=1)
        assert v1_path.suffix == ".npz"
        stream, regions = load_trace(tmp_path, "mig", migrate=True)
        assert isinstance(stream, MappedStream)
        _assert_streams_equal(tracer.stream, stream)
        assert [r.name for r in regions] == ["data"]
        # The npz and its sidecar are gone; the store replaced them.
        assert not v1_path.exists()
        assert not checksum_path(v1_path).exists()
        assert (tmp_path / "mig.stream.rts").exists()

    def test_no_migration_without_flag(self, tmp_path):
        _, (v1_path, _) = self._traced(tmp_path, version=1)
        stream, _ = load_trace(tmp_path, "mig")
        assert not isinstance(stream, MappedStream)
        assert v1_path.exists()

    def test_save_trace_removes_stale_other_version(self, tmp_path):
        self._traced(tmp_path, version=1)
        tracer, (v2_path, _) = self._traced(tmp_path, version=2)
        assert v2_path.suffix == ".rts"
        assert not (tmp_path / "mig.stream.npz").exists()

    def test_discard_trace_removes_v2_artifacts(self, tmp_path):
        from repro.trace.io import discard_trace

        self._traced(tmp_path, version=2)
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
        mapped = load_stream(path)
        with TraceArena() as arena:
            handle = arena.publish("W", mapped, self._regions())
            assert handle.kind == "file"
            assert handle.events == len(chunky_stream)
            clone = pickle.loads(pickle.dumps(handle))
            attached, regions = clone.attach()
            _assert_streams_equal(chunky_stream, attached)
            assert [r.name for r in regions] == ["a"]

    def test_shm_handle_round_trip(self, chunky_stream):
        arena = TraceArena(prefer="shm")
        try:
            handle = arena.publish("W", chunky_stream, self._regions())
            assert handle.kind == "shm"
            attached, _ = handle.attach()
            assert isinstance(attached, SharedStream)
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

    def test_in_memory_stream_spools_to_file(self, chunky_stream):
        arena = TraceArena(prefer="file")
        try:
            handle = arena.publish("W", chunky_stream, ())
            assert handle.kind == "file"
            attached, _ = handle.attach()
            _assert_streams_equal(chunky_stream, attached)
        finally:
            arena.close()
        from pathlib import Path

        assert not Path(handle.locator).exists()  # spool cleaned up

    def test_publish_idempotent(self, chunky_stream):
        with TraceArena(prefer="shm") as arena:
            first = arena.publish("W", chunky_stream, ())
            second = arena.publish("W", chunky_stream, ())
            assert first is second

    def test_unknown_kind_rejected(self):
        handle = TraceHandle(
            workload="W", kind="carrier-pigeon", locator="x",
            chunk_lengths=(), chunk_events=1, regions=(),
        )
        with pytest.raises(TraceError):
            handle.attach()


def _event_kinds(directory):
    """Event kinds of a telemetry directory's parent run log."""
    path = directory / "events.jsonl"
    return [
        json.loads(line).get("kind")
        for line in path.read_text().splitlines()
        if line.strip()
    ]


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

    def test_publish_failure_falls_back_to_private_loading(
        self, tmp_path, monkeypatch
    ):
        from repro.designs.reference import ReferenceDesign
        from repro.experiments.runner import Runner
        from repro.resilience import SweepExecutor
        from repro.telemetry.core import Telemetry
        from repro.workloads.registry import get_workload

        def broken_publish(self, *args, **kwargs):
            raise OSError("no shared memory today")

        monkeypatch.setattr(TraceArena, "publish", broken_publish)
        scale = 1.0 / 8192
        runner = Runner(scale=scale, seed=4, trace_cache_dir=str(tmp_path))
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

    def test_runner_prefers_arena_handle(self, tmp_path, chunky_stream):
        from repro.experiments.runner import Runner

        with TraceArena(prefer="shm") as arena:
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
