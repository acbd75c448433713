"""Chunked, NumPy-backed address streams.

An :class:`AddressStream` is the unit of exchange between the
instrumentation layer and the cache simulator. It stores accesses in
fixed-size chunks so that recording is O(1) amortized per event batch
and simulation can proceed chunk-by-chunk without materializing a giant
array (HPC traces are long; the paper's framework processes them online
for the same reason).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import TraceError
from repro.trace.events import (
    ADDR_DTYPE,
    KIND_DTYPE,
    SIZE_DTYPE,
    AccessBatch,
)

if TYPE_CHECKING:  # pragma: no cover - numpy loads where arrays are made
    import numpy as np

#: Default number of events per chunk.
DEFAULT_CHUNK_EVENTS: int = 1 << 18


@dataclass(frozen=True)
class StreamStats:
    """Summary statistics of an address stream.

    Attributes:
        events: total number of accesses.
        loads: number of load accesses.
        stores: number of store accesses.
        bytes_read: total bytes loaded.
        bytes_written: total bytes stored.
        footprint_bytes: footprint proxy — the number of distinct
            ``footprint_line``-aligned lines touched, times the line
            size (64 B by default). Counting distinct *bytes* would be
            prohibitively expensive on long traces; the line-granular
            count is the standard working-set estimate.
        min_address: lowest byte address touched (0 if empty).
        max_address: highest byte address touched (0 if empty).
    """

    events: int
    loads: int
    stores: int
    bytes_read: int
    bytes_written: int
    footprint_bytes: int
    min_address: int
    max_address: int

    @property
    def store_fraction(self) -> float:
        """Fraction of accesses that are stores (0.0 for empty streams)."""
        return self.stores / self.events if self.events else 0.0


class AddressStream:
    """An append-only, chunked sequence of memory accesses.

    Use :meth:`append` (or a :class:`~repro.trace.tracer.Tracer`) to
    record, then iterate :meth:`chunks` to consume. Streams may also be
    built directly from arrays with :meth:`from_arrays`.
    """

    def __init__(self, chunk_events: int = DEFAULT_CHUNK_EVENTS) -> None:
        if chunk_events <= 0:
            raise TraceError(f"chunk_events must be positive, got {chunk_events}")
        import numpy as np

        self._chunk_events = int(chunk_events)
        self._chunks: list[AccessBatch] = []
        # Write buffer for incremental appends.
        self._buf_addr = np.empty(self._chunk_events, dtype=ADDR_DTYPE)
        self._buf_size = np.empty(self._chunk_events, dtype=SIZE_DTYPE)
        self._buf_kind = np.empty(self._chunk_events, dtype=KIND_DTYPE)
        self._buf_fill = 0
        self._events = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        addresses: Iterable[int] | np.ndarray,
        sizes: Iterable[int] | np.ndarray | int,
        is_store: Iterable[int] | np.ndarray | int,
        chunk_events: int = DEFAULT_CHUNK_EVENTS,
    ) -> "AddressStream":
        """Build a stream from whole arrays.

        ``sizes`` and ``is_store`` may be scalars, in which case they are
        broadcast over all addresses.
        """
        import numpy as np

        addr = np.asarray(addresses, dtype=ADDR_DTYPE)
        n = len(addr)
        if np.isscalar(sizes) or (isinstance(sizes, np.ndarray) and sizes.ndim == 0):
            size_arr = np.full(n, int(sizes), dtype=SIZE_DTYPE)
        else:
            size_arr = np.asarray(sizes, dtype=SIZE_DTYPE)
        if np.isscalar(is_store) or (
            isinstance(is_store, np.ndarray) and is_store.ndim == 0
        ):
            kind_arr = np.full(n, int(bool(is_store)), dtype=KIND_DTYPE)
        else:
            kind_arr = np.asarray(is_store, dtype=KIND_DTYPE)
        stream = cls(chunk_events=chunk_events)
        stream.append(addr, size_arr, kind_arr)
        return stream

    @classmethod
    def from_batches(
        cls, batches: Iterable[AccessBatch], chunk_events: int = DEFAULT_CHUNK_EVENTS
    ) -> "AddressStream":
        """Build a stream by concatenating existing batches."""
        stream = cls(chunk_events=chunk_events)
        for batch in batches:
            stream.append(batch.addresses, batch.sizes, batch.is_store)
        return stream

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def append(
        self,
        addresses: np.ndarray,
        sizes: np.ndarray | int,
        is_store: np.ndarray | int,
    ) -> None:
        """Append a batch of accesses (vectorized).

        Args:
            addresses: byte addresses (any integer array-like).
            sizes: per-access sizes, or a scalar broadcast to all.
            is_store: per-access kind flags, or a scalar.
        """
        import numpy as np

        addr = np.asarray(addresses, dtype=ADDR_DTYPE).ravel()
        n = len(addr)
        if n == 0:
            return
        if np.isscalar(sizes) or (isinstance(sizes, np.ndarray) and sizes.ndim == 0):
            size_arr = np.full(n, int(sizes), dtype=SIZE_DTYPE)
        else:
            size_arr = np.asarray(sizes, dtype=SIZE_DTYPE).ravel()
            if len(size_arr) != n:
                raise TraceError("sizes length does not match addresses length")
        if np.isscalar(is_store) or (
            isinstance(is_store, np.ndarray) and is_store.ndim == 0
        ):
            kind_arr = np.full(n, int(bool(is_store)), dtype=KIND_DTYPE)
        else:
            kind_arr = np.asarray(is_store, dtype=KIND_DTYPE).ravel()
            if len(kind_arr) != n:
                raise TraceError("is_store length does not match addresses length")

        self._events += n
        pos = 0
        while pos < n:
            space = self._chunk_events - self._buf_fill
            take = min(space, n - pos)
            lo, hi = self._buf_fill, self._buf_fill + take
            self._buf_addr[lo:hi] = addr[pos : pos + take]
            self._buf_size[lo:hi] = size_arr[pos : pos + take]
            self._buf_kind[lo:hi] = kind_arr[pos : pos + take]
            self._buf_fill += take
            pos += take
            if self._buf_fill == self._chunk_events:
                self._flush()

    def _flush(self) -> None:
        if self._buf_fill == 0:
            return
        self._chunks.append(
            AccessBatch(
                self._buf_addr[: self._buf_fill].copy(),
                self._buf_size[: self._buf_fill].copy(),
                self._buf_kind[: self._buf_fill].copy(),
            )
        )
        self._buf_fill = 0

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._events

    @property
    def nbytes(self) -> int:
        """Resident memory of the stored arrays (flushed chunks plus the
        live write buffer) — what a captured stream costs to keep around."""
        total = sum(
            c.addresses.nbytes + c.sizes.nbytes + c.is_store.nbytes
            for c in self._chunks
        )
        return total + (
            self._buf_addr.nbytes + self._buf_size.nbytes + self._buf_kind.nbytes
        )

    def chunks(self) -> Iterator[AccessBatch]:
        """Iterate over the stream's batches in order.

        The stream remains appendable afterwards; pending buffered events
        are flushed into a chunk first so iteration always sees the full
        stream.
        """
        self._flush()
        return iter(self._chunks)

    def as_batch(self) -> AccessBatch:
        """Materialize the whole stream as a single batch.

        Convenient for tests and small streams; avoid on very long
        streams (copies everything).
        """
        chunks = list(self.chunks())
        if not chunks:
            return AccessBatch.empty()
        if len(chunks) == 1:
            return chunks[0]
        import numpy as np

        return AccessBatch(
            np.concatenate([c.addresses for c in chunks]),
            np.concatenate([c.sizes for c in chunks]),
            np.concatenate([c.is_store for c in chunks]),
        )

    def stats(self, footprint_line: int = 64) -> StreamStats:
        """Compute summary statistics in one pass over the chunks.

        The footprint count stays vectorized end to end: each chunk
        contributes its ``np.unique`` line array and the per-chunk
        uniques are merged with a single ``np.unique`` at the end,
        instead of round-tripping every line through a Python ``set``
        (bit-identical result, ~20x less per-chunk overhead on long
        streams; see docs/performance.md).
        """
        import numpy as np

        loads = stores = 0
        bytes_read = bytes_written = 0
        min_addr: int | None = None
        max_addr = 0
        chunk_lines: list[np.ndarray] = []
        shift = int(footprint_line).bit_length() - 1
        for chunk in self.chunks():
            store_mask = chunk.is_store != 0
            n_stores = int(np.count_nonzero(store_mask))
            stores += n_stores
            loads += len(chunk) - n_stores
            sizes64 = chunk.sizes.astype(np.int64)
            bytes_written += int(sizes64[store_mask].sum())
            bytes_read += int(sizes64[~store_mask].sum())
            if len(chunk):
                cmin = int(chunk.addresses.min())
                cmax = int(chunk.addresses.max())
                min_addr = cmin if min_addr is None else min(min_addr, cmin)
                max_addr = max(max_addr, cmax)
                chunk_lines.append(
                    np.unique(chunk.addresses >> np.uint64(shift))
                )
        if not chunk_lines:
            footprint_lines = 0
        elif len(chunk_lines) == 1:
            footprint_lines = len(chunk_lines[0])
        else:
            footprint_lines = len(np.unique(np.concatenate(chunk_lines)))
        return StreamStats(
            events=len(self),
            loads=loads,
            stores=stores,
            bytes_read=bytes_read,
            bytes_written=bytes_written,
            footprint_bytes=footprint_lines * footprint_line,
            min_address=min_addr or 0,
            max_address=max_addr,
        )

    def verify(self) -> None:
        """Force integrity verification of the stream's backing data.

        In-memory streams have nothing to verify; mmap-backed streams
        (:class:`~repro.trace.store.MappedStream`) override this to
        hash every chunk against the store header up front instead of
        lazily on first read.
        """

    def head(self, n: int) -> "AddressStream":
        """A new stream holding only the first ``n`` events."""
        if n < 0:
            raise TraceError("head length must be non-negative")
        out = AddressStream(chunk_events=self._chunk_events)
        remaining = n
        for chunk in self.chunks():
            if remaining <= 0:
                break
            take = min(remaining, len(chunk))
            sub = chunk.slice(0, take)
            out.append(sub.addresses, sub.sizes, sub.is_store)
            remaining -= take
        return out

    def concat(self, other: "AddressStream") -> "AddressStream":
        """A new stream holding self's events followed by other's."""
        out = AddressStream(chunk_events=self._chunk_events)
        for chunk in self.chunks():
            out.append(chunk.addresses, chunk.sizes, chunk.is_store)
        for chunk in other.chunks():
            out.append(chunk.addresses, chunk.sizes, chunk.is_store)
        return out
