"""Access-event primitives.

An address stream is a sequence of memory accesses, each described by a
byte address, a size in bytes, and a kind (load or store). For
performance the stream is stored as a struct-of-arrays
(:class:`AccessBatch`), never as per-event Python objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import TraceError

if TYPE_CHECKING:  # pragma: no cover - numpy loads where arrays are made
    import numpy as np

#: Kind code for a load (read) access.
LOAD: int = 0
#: Kind code for a store (write) access.
STORE: int = 1

#: dtype used for byte addresses throughout the package. The dtypes
#: are names, which numpy accepts wherever it takes a dtype, so that
#: importing this module does not import numpy.
ADDR_DTYPE = "uint64"
#: dtype used for access sizes in bytes.
SIZE_DTYPE = "uint32"
#: dtype used for the load/store flag (0 = load, 1 = store).
KIND_DTYPE = "uint8"


@dataclass(frozen=True)
class AccessBatch:
    """A batch of memory accesses in struct-of-arrays layout.

    Attributes:
        addresses: byte addresses, shape ``(n,)``, ``uint64``.
        sizes: access sizes in bytes, shape ``(n,)``, ``uint32``.
        is_store: 1 for stores and 0 for loads, shape ``(n,)``, ``uint8``.
    """

    addresses: np.ndarray
    sizes: np.ndarray
    is_store: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.addresses)
        if len(self.sizes) != n or len(self.is_store) != n:
            raise TraceError(
                "AccessBatch arrays must have equal lengths: "
                f"{n}, {len(self.sizes)}, {len(self.is_store)}"
            )

    def __len__(self) -> int:
        return len(self.addresses)

    @staticmethod
    def empty() -> "AccessBatch":
        """An empty batch."""
        import numpy as np

        return AccessBatch(
            np.empty(0, dtype=ADDR_DTYPE),
            np.empty(0, dtype=SIZE_DTYPE),
            np.empty(0, dtype=KIND_DTYPE),
        )

    @staticmethod
    def from_lists(addresses, sizes, is_store) -> "AccessBatch":
        """Build a batch from array-likes, coercing dtypes.

        ``sizes`` and ``is_store`` may be scalars, broadcast over all
        addresses.
        """
        import numpy as np

        addr = np.asarray(addresses, dtype=ADDR_DTYPE)
        size_arr = np.asarray(sizes, dtype=SIZE_DTYPE)
        if size_arr.ndim == 0:
            size_arr = np.full(len(addr), size_arr, dtype=SIZE_DTYPE)
        kind_arr = np.asarray(is_store, dtype=KIND_DTYPE)
        if kind_arr.ndim == 0:
            kind_arr = np.full(len(addr), kind_arr, dtype=KIND_DTYPE)
        return AccessBatch(addr, size_arr, kind_arr)

    def concat(self, other: "AccessBatch") -> "AccessBatch":
        """Concatenate two batches preserving order (self first)."""
        import numpy as np

        return AccessBatch(
            np.concatenate([self.addresses, other.addresses]),
            np.concatenate([self.sizes, other.sizes]),
            np.concatenate([self.is_store, other.is_store]),
        )

    def slice(self, start: int, stop: int) -> "AccessBatch":
        """A view batch of events ``[start, stop)``."""
        return AccessBatch(
            self.addresses[start:stop],
            self.sizes[start:stop],
            self.is_store[start:stop],
        )

    @property
    def store_count(self) -> int:
        """Number of store events in the batch."""
        import numpy as np

        return int(np.count_nonzero(self.is_store))

    @property
    def load_count(self) -> int:
        """Number of load events in the batch."""
        return len(self) - self.store_count


def expand_to_lines(batch: AccessBatch, line_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Convert byte accesses into per-cache-line accesses.

    Accesses that span multiple lines (rare: unaligned multi-byte
    accesses) are expanded into one event per touched line, preserving
    stream order.

    Args:
        batch: the byte-granularity accesses.
        line_size: cache line size in bytes (power of two).

    Returns:
        ``(line_addresses, is_store)`` where ``line_addresses`` holds the
        line index (byte address >> log2(line_size)) of every touched
        line in order.
    """
    import numpy as np

    if len(batch) == 0:
        return (
            np.empty(0, dtype=ADDR_DTYPE),
            np.empty(0, dtype=KIND_DTYPE),
        )
    shift = np.uint64(int(line_size).bit_length() - 1)
    first = batch.addresses >> shift
    # Last byte touched by each access determines the last line touched.
    last_byte = batch.addresses + batch.sizes.astype(ADDR_DTYPE) - np.uint64(1)
    last = last_byte >> shift
    spans = (last - first).astype(np.int64)
    if not spans.any():
        return first, batch.is_store
    # General path: repeat each access once per touched line.
    counts = spans + 1
    repeated_first = np.repeat(first, counts)
    # Offsets 0..span within each access.
    total = int(counts.sum())
    offsets = np.arange(total, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    offsets -= np.repeat(starts, counts)
    lines = repeated_first + offsets.astype(ADDR_DTYPE)
    kinds = np.repeat(batch.is_store, counts)
    return lines, kinds
