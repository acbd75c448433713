"""The chunked on-disk trace store: mmap-backed, zero-copy reads.

This is the one format a saved or shared trace takes: the trace cache
(:mod:`repro.trace.io`) and the sweep's trace arena
(:mod:`repro.trace.arena`) both hold these files. It trades disk
bytes for time and sharing:

- **Chunked struct-of-arrays layout, uncompressed and page-aligned.**
  Each chunk of the source :class:`~repro.trace.stream.AddressStream`
  is written as three contiguous sections (addresses ``uint64``,
  sizes ``uint32``, kinds ``uint8``) starting on a 4 KiB page
  boundary, so a reader can map them in place.
- **Lazy mmap-backed reads.** :meth:`MappedStream.open` maps the file
  and yields zero-copy NumPy views per chunk; nothing is decompressed
  and no private copy is made. N processes mapping the same store
  share one physical copy through the page cache, which is what lets
  ``--workers N`` sweeps stop paying N× the trace footprint.
- **Incremental integrity.** The header records a SHA-256 per chunk
  (and is itself covered by a digest in the fixed prelude, checked on
  open), so verification happens chunk-by-chunk as data is first
  touched: one pass over bytes the reader was loading anyway. A
  corrupt chunk raises :class:`~repro.errors.TraceIntegrityError`
  naming the chunk.

File layout::

    [prelude: 64 bytes]
        magic "REPROTRC" | version u32 | flags u32
        | header_offset u64 | header_len u64 | header_sha256 (32 raw)
    [page pad]
    [chunk 0: addresses | sizes | kinds]   (page-aligned)
    [page pad]
    [chunk 1: ...]
    ...
    [header: JSON]                          (at header_offset)

The header lands at the *end* of the file so chunk offsets are known
before it is serialized; the prelude (fixed offset 0) points at it.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.errors import TraceError, TraceIntegrityError
from repro.trace.events import ADDR_DTYPE, KIND_DTYPE, SIZE_DTYPE, AccessBatch
from repro.trace.stream import DEFAULT_CHUNK_EVENTS, AddressStream

#: Magic bytes opening every store file.
STORE_MAGIC: bytes = b"REPROTRC"
#: On-disk format version written by :func:`write_store`.
STORE_VERSION: int = 2
#: Chunk sections start on this boundary (one OS page) so mmap views
#: are page-aligned.
PAGE: int = 4096

#: Prelude: magic, version, flags, header_offset, header_len,
#: header_sha256 (raw digest).
_PRELUDE = struct.Struct("<8sIIQQ32s")

#: Item sizes of :data:`~repro.trace.events.ADDR_DTYPE`,
#: ``SIZE_DTYPE`` and ``KIND_DTYPE``: the three sections' bytes per
#: event.
_ADDR_BYTES, _SIZE_BYTES, _KIND_BYTES = 8, 4, 1
#: Bytes per event across the three sections.
_EVENT_BYTES: int = _ADDR_BYTES + _SIZE_BYTES + _KIND_BYTES


def _page_align(offset: int) -> int:
    return (offset + PAGE - 1) // PAGE * PAGE


@dataclass(frozen=True)
class ChunkRecord:
    """Header record locating and protecting one chunk.

    Attributes:
        events: number of accesses in the chunk.
        offset: file offset of the chunk's address section (page
            aligned; sizes and kinds follow contiguously).
        sha256: hex digest of the chunk's raw bytes
            (addresses ‖ sizes ‖ kinds).
    """

    events: int
    offset: int
    sha256: str

    @property
    def nbytes(self) -> int:
        """Raw payload bytes of the chunk."""
        return self.events * _EVENT_BYTES


def write_store(stream: AddressStream, path: str | Path) -> Path:
    """Write ``stream`` to ``path`` in the chunked store format.

    Atomic (temp file in the destination directory + ``os.replace``)
    and bit-exact: the source stream's chunk boundaries are preserved,
    so a replay through :class:`MappedStream` batches identically to a
    replay of the original. A whole-file ``.sha256`` sidecar is still
    written (computed incrementally during the single write pass) so
    external ``sha256sum -c`` tooling keeps working; readers use the
    per-chunk digests instead.

    Returns the path written.
    """
    import numpy as np

    from repro.trace.io import _atomic_write_bytes, checksum_path

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    file_digest = hashlib.sha256()
    try:
        with os.fdopen(fd, "wb") as handle:

            def emit(payload: bytes) -> None:
                handle.write(payload)
                file_digest.update(payload)

            # Prelude placeholder; rewritten (and re-hashed) below.
            emit(b"\0" * _PRELUDE.size)
            position = _PRELUDE.size
            records: list[ChunkRecord] = []
            for chunk in stream.chunks():
                start = _page_align(position)
                emit(b"\0" * (start - position))
                chunk_digest = hashlib.sha256()
                sections = (
                    np.ascontiguousarray(chunk.addresses, dtype=ADDR_DTYPE),
                    np.ascontiguousarray(chunk.sizes, dtype=SIZE_DTYPE),
                    np.ascontiguousarray(chunk.is_store, dtype=KIND_DTYPE),
                )
                for section in sections:
                    payload = section.tobytes()
                    chunk_digest.update(payload)
                    emit(payload)
                records.append(ChunkRecord(
                    events=len(chunk), offset=start,
                    sha256=chunk_digest.hexdigest(),
                ))
                position = start + records[-1].nbytes
            header_offset = _page_align(position)
            emit(b"\0" * (header_offset - position))
            header = json.dumps({
                "events": sum(r.events for r in records),
                "chunk_events": getattr(
                    stream, "_chunk_events", DEFAULT_CHUNK_EVENTS
                ),
                "chunks": [
                    {"events": r.events, "offset": r.offset,
                     "sha256": r.sha256}
                    for r in records
                ],
            }, sort_keys=True).encode()
            emit(header)
            prelude = _PRELUDE.pack(
                STORE_MAGIC, STORE_VERSION, 0,
                header_offset, len(header),
                hashlib.sha256(header).digest(),
            )
            handle.seek(0)
            handle.write(prelude)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    # The placeholder prelude entered the running digest; splice the
    # real prelude in by re-hashing only the fixed-size head.
    digest = hashlib.sha256(prelude)
    with open(path, "rb") as handle:
        handle.seek(_PRELUDE.size)
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    _atomic_write_bytes(
        checksum_path(path), f"{digest.hexdigest()}  {path.name}\n".encode()
    )
    return path


def _read_header(path: Path) -> tuple[dict, list[ChunkRecord]]:
    """Parse and integrity-check a store's prelude + header.

    Raises:
        TraceError: not a trace store / unsupported version.
        TraceIntegrityError: truncated or corrupt prelude/header.
    """
    try:
        size = path.stat().st_size
        with open(path, "rb") as handle:
            raw = handle.read(_PRELUDE.size)
            if len(raw) < _PRELUDE.size:
                raise TraceIntegrityError(
                    f"truncated trace store {path} ({len(raw)} bytes); "
                    f"delete it and re-trace the workload"
                )
            magic, version, _flags, header_offset, header_len, digest = (
                _PRELUDE.unpack(raw)
            )
            if magic != STORE_MAGIC:
                raise TraceError(f"{path} is not a trace store")
            if version != STORE_VERSION:
                raise TraceError(
                    f"unsupported trace store version {version} in {path}"
                )
            if header_offset + header_len > size:
                raise TraceIntegrityError(
                    f"truncated trace store {path} (header past EOF); "
                    f"delete it and re-trace the workload"
                )
            handle.seek(header_offset)
            header_raw = handle.read(header_len)
    except OSError as exc:
        raise TraceIntegrityError(
            f"unreadable trace store {path} ({exc}); delete it and "
            f"re-trace the workload"
        ) from exc
    if hashlib.sha256(header_raw).digest() != digest:
        raise TraceIntegrityError(
            f"corrupt trace store header in {path} (digest mismatch); "
            f"delete it and its .sha256 sidecar, then re-trace"
        )
    try:
        header = json.loads(header_raw)
        records = [
            ChunkRecord(events=int(c["events"]), offset=int(c["offset"]),
                        sha256=str(c["sha256"]))
            for c in header["chunks"]
        ]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise TraceIntegrityError(
            f"corrupt trace store header in {path} "
            f"({type(exc).__name__}: {exc}); delete it and re-trace"
        ) from exc
    for record in records:
        if record.offset + record.nbytes > size:
            raise TraceIntegrityError(
                f"truncated trace store {path} (chunk at offset "
                f"{record.offset} past EOF); delete it and re-trace"
            )
    return header, records


def store_digest(path: str | Path) -> str:
    """The header SHA-256 a store's prelude records, as hex.

    One fixed-size read: the header holds every chunk's digest, so this
    names the store's content without touching (or verifying) it. Two
    stores with the same events in the same chunks share a digest.

    Raises:
        TraceError: not a trace store.
        TraceIntegrityError: missing, unreadable or truncated prelude.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            raw = handle.read(_PRELUDE.size)
    except OSError as exc:
        raise TraceIntegrityError(f"unreadable trace store {path} ({exc})") from exc
    if len(raw) < _PRELUDE.size:
        raise TraceIntegrityError(f"truncated trace store {path}")
    magic, _version, _flags, _offset, _length, digest = _PRELUDE.unpack(raw)
    if magic != STORE_MAGIC:
        raise TraceError(f"{path} is not a trace store")
    return digest.hex()


class MappedStream(AddressStream):
    """A read-only :class:`AddressStream` backed by an mmap'd store.

    :meth:`chunks` yields zero-copy NumPy views over the mapped file;
    each chunk's SHA-256 is checked once, on first touch, against the
    header record (incremental verification). The stream supports the
    whole consumption API (``len``, :meth:`stats`, :meth:`as_batch`,
    :meth:`head`, ...) but not :meth:`append` — recording belongs to
    in-memory streams.

    Pickling a :class:`MappedStream` serializes only the path; the
    receiving process re-opens (and re-maps) the store, which is what
    makes the file-backed trace arena handle a one-liner.
    """

    def __init__(self, path: str | Path) -> None:
        path = Path(path)
        header, records = _read_header(path)
        self._path = path
        self._records = records
        self._chunk_events = int(header.get(
            "chunk_events", DEFAULT_CHUNK_EVENTS
        ))
        self._events = int(header["events"])
        self._verified = [False] * len(records)
        handle = open(path, "rb")
        try:
            if records:
                self._mm: mmap.mmap | None = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
            else:
                self._mm = None  # cannot map an effectively-empty payload
        finally:
            handle.close()

    # -- construction ---------------------------------------------------

    @classmethod
    def open(cls, path: str | Path) -> "MappedStream":
        """Map a store written by :func:`write_store`."""
        return cls(path)

    def __reduce__(self):
        return (MappedStream, (str(self._path),))

    # -- consumption ----------------------------------------------------

    @property
    def path(self) -> Path:
        """The mapped store file."""
        return self._path

    def __len__(self) -> int:
        return self._events

    @property
    def nbytes(self) -> int:
        """Payload bytes of the mapped chunks.

        This is *mapped*, not resident, memory: pages are shared
        file-backed and cost nothing per additional process.
        """
        return sum(record.nbytes for record in self._records)

    def _verify_chunk(self, index: int) -> None:
        """Hash chunk ``index`` against its header record, once."""
        if self._verified[index]:
            return
        record = self._records[index]
        assert self._mm is not None
        payload = memoryview(self._mm)[
            record.offset : record.offset + record.nbytes
        ]
        if hashlib.sha256(payload).hexdigest() != record.sha256:
            raise TraceIntegrityError(
                f"corrupt trace store chunk {index} (offset "
                f"{record.offset}) in {self._path}; delete this file "
                f"and its .sha256 sidecar and re-trace the workload"
            )
        self._verified[index] = True

    def _chunk_view(self, index: int) -> AccessBatch:
        import numpy as np

        self._verify_chunk(index)
        record = self._records[index]
        n = record.events
        mm = self._mm
        addr_off = record.offset
        size_off = addr_off + n * _ADDR_BYTES
        kind_off = size_off + n * _SIZE_BYTES
        return AccessBatch(
            np.frombuffer(mm, dtype=ADDR_DTYPE, count=n, offset=addr_off),
            np.frombuffer(mm, dtype=SIZE_DTYPE, count=n, offset=size_off),
            np.frombuffer(mm, dtype=KIND_DTYPE, count=n, offset=kind_off),
        )

    def chunks(self) -> Iterator[AccessBatch]:
        """Zero-copy chunk views in stream order (verified on first
        touch)."""
        for index in range(len(self._records)):
            yield self._chunk_view(index)

    def verify(self) -> None:
        """Force verification of every chunk (one sequential pass)."""
        for index in range(len(self._records)):
            self._verify_chunk(index)

    def materialize(self) -> AddressStream:
        """Copy the mapped data into a plain in-memory stream."""
        out = AddressStream(chunk_events=self._chunk_events)
        for chunk in self.chunks():
            out.append(chunk.addresses, chunk.sizes, chunk.is_store)
        return out

    # -- recording (unsupported) ----------------------------------------

    def append(self, addresses, sizes, is_store) -> None:
        raise TraceError(
            f"mmap-backed stream {self._path} is read-only; call "
            f"materialize() for an appendable copy"
        )

    def _flush(self) -> None:  # pragma: no cover - nothing buffered
        pass

    def close(self) -> None:
        """Release the mapping (views created earlier become invalid)."""
        if self._mm is not None:
            try:
                self._mm.close()
            except BufferError:
                # Live views still reference the map; the OS reclaims
                # it when they are garbage collected.
                pass
            else:
                self._mm = None
