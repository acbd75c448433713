"""Trace serialization tests."""

import numpy as np
import pytest

from repro.errors import TraceError, TraceIntegrityError
from repro.trace.io import (
    checksum_path,
    compute_checksum,
    load_regions,
    load_trace,
    save_regions,
    save_trace,
    verify_artifact,
)
from repro.trace.store import MappedStream, write_store
from repro.trace.stream import AddressStream
from repro.trace.synthetic import random_stream
from repro.trace.tracer import Tracer


class TestStreamRoundtrip:
    def test_bit_exact(self, tmp_path):
        stream = random_stream(
            5000, footprint_bytes=1 << 20, store_fraction=0.3, seed=2
        )
        path = tmp_path / "s.rts"
        write_store(stream, path)
        loaded = MappedStream.open(path)
        a, b = stream.as_batch(), loaded.as_batch()
        assert np.array_equal(a.addresses, b.addresses)
        assert np.array_equal(a.sizes, b.sizes)
        assert np.array_equal(a.is_store, b.is_store)

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "e.rts"
        write_store(AddressStream(), path)
        assert len(MappedStream.open(path)) == 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="no stream file"):
            load_trace(tmp_path, "nope")

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.rts"
        write_store(AddressStream(), path)
        data = bytearray(path.read_bytes())
        data[8] = 99  # the prelude's version field follows the magic
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError, match="unsupported trace store version"):
            MappedStream.open(path)


class TestRegionRoundtrip:
    def test_roundtrip(self, tmp_path):
        tracer = Tracer()
        tracer.allocate("a", 1024)
        tracer.allocate("b", 2048)
        path = tmp_path / "r.json"
        save_regions(tracer, path)
        regions = load_regions(path)
        assert [r.name for r in regions] == ["a", "b"]
        assert regions[0].base == tracer.regions[0].base
        assert regions[1].size == 2048

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            load_regions(tmp_path / "nope.json")


class TestDirectoryCreation:
    def test_save_stream_creates_parents(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "s.rts"
        write_store(random_stream(100, footprint_bytes=1 << 12, seed=1), path)
        assert len(MappedStream.open(path)) == 100

    def test_save_regions_creates_parents(self, tmp_path):
        tracer = Tracer()
        tracer.allocate("a", 1024)
        path = tmp_path / "deep" / "nested" / "r.json"
        save_regions(tracer, path)
        assert [r.name for r in load_regions(path)] == ["a"]


class TestIntegrity:
    @pytest.fixture
    def saved(self, tmp_path):
        tracer = Tracer()
        a = tracer.array("data", (512,))
        _ = a[:]
        return save_trace(tracer.stream, tracer, tmp_path, "run")

    def test_sidecars_written(self, saved):
        for path in saved:
            sidecar = checksum_path(path)
            assert sidecar.exists()
            assert sidecar.read_text().split()[0] == compute_checksum(path)

    def test_integrity_error_is_trace_error(self):
        assert issubclass(TraceIntegrityError, TraceError)

    def test_truncated_stream_detected(self, saved):
        from repro.resilience import truncate_file

        stream_path, _ = saved
        truncate_file(stream_path, keep_fraction=0.4)
        with pytest.raises(TraceIntegrityError, match=str(stream_path)):
            MappedStream.open(stream_path)

    def test_bitflipped_stream_detected(self, saved):
        # A v2 store verifies chunk digests as data is read; corrupt a
        # byte inside the first chunk's payload (chunks start at the
        # first page boundary) and force the pass.
        stream_path, _ = saved
        data = bytearray(stream_path.read_bytes())
        data[4096 + 10] ^= 0xFF
        stream_path.write_bytes(bytes(data))
        with pytest.raises(TraceIntegrityError, match="re-trace"):
            MappedStream.open(stream_path).verify()

    def test_truncated_regions_detected(self, saved):
        from repro.resilience import truncate_file

        _, regions_path = saved
        truncate_file(regions_path, keep_fraction=0.5)
        with pytest.raises(TraceIntegrityError, match=str(regions_path)):
            load_regions(regions_path)

    def test_bitflipped_regions_detected(self, saved):
        from repro.resilience import bitflip_file

        _, regions_path = saved
        bitflip_file(regions_path, seed=5)
        with pytest.raises(TraceIntegrityError):
            load_regions(regions_path)

    def test_parse_failure_without_sidecar_still_integrity_error(self, saved):
        # Pre-sidecar artifacts: no checksum to verify, but corruption
        # must still surface as TraceIntegrityError, not struct/json.
        from repro.resilience import truncate_file

        stream_path, regions_path = saved
        for path in saved:
            checksum_path(path).unlink()
            truncate_file(path, keep_fraction=0.3)
        with pytest.raises(TraceIntegrityError):
            MappedStream.open(stream_path)
        with pytest.raises(TraceIntegrityError):
            load_regions(regions_path)

    def test_unreadable_sidecar_detected(self, saved):
        _, regions_path = saved
        checksum_path(regions_path).write_text("")
        with pytest.raises(TraceIntegrityError, match="sidecar"):
            load_regions(regions_path)

    def test_verify_artifact_passes_clean_files(self, saved):
        for path in saved:
            verify_artifact(path)

    def test_verify_artifact_skips_missing_sidecar(self, tmp_path):
        path = tmp_path / "legacy.bin"
        path.write_bytes(b"old artifact")
        verify_artifact(path)  # no sidecar: tolerated

    def test_corrupt_pair_detected_via_load_trace(self, saved, tmp_path):
        data = bytearray(saved[0].read_bytes())
        data[4096 + 10] ^= 0xFF
        saved[0].write_bytes(bytes(data))
        with pytest.raises(TraceIntegrityError):
            load_trace(tmp_path, "run")[0].verify()

    def test_corrupt_header_detected_via_load_trace(self, saved, tmp_path):
        # The store's header digest is checked on open, so a flipped
        # header byte fails load_trace itself, before any chunk is read.
        data = bytearray(saved[0].read_bytes())
        data[-2] ^= 0xFF  # the JSON header is the file's tail
        saved[0].write_bytes(bytes(data))
        with pytest.raises(TraceIntegrityError, match="header"):
            load_trace(tmp_path, "run")


class TestPairedTrace:
    def test_save_load_pair(self, tmp_path):
        tracer = Tracer()
        a = tracer.array("data", (256,))
        _ = a[:]
        paths = save_trace(tracer.stream, tracer, tmp_path, "run1")
        assert all(p.exists() for p in paths)
        stream, regions = load_trace(tmp_path, "run1")
        assert len(stream) == 256
        assert regions[0].name == "data"

    def test_creates_directory(self, tmp_path):
        tracer = Tracer()
        tracer.allocate("x", 64)
        save_trace(tracer.stream, tracer, tmp_path / "sub" / "dir", "t")
        assert (tmp_path / "sub" / "dir" / "t.regions.json").exists()
